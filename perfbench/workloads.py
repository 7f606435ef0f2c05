"""Job lists of the benchmark workloads.

A job is the argument set of one ``hyperoct compute`` call:
(algebra, ring, pipeline, max-object values, max degree, coefficients,
verify).  The workload seed only shuffles the job order.

Left out on purpose, because one job would take longer than a whole run:
slominska at N = 2 (c2 alone builds its coinvariant complex in about 72 s)
and frontier sizes such as epi C2 at (N, D) = (2, 2) (over 10 minutes).
"""
from __future__ import annotations

import random

PIPELINES = ("full", "nerve", "reduced", "epi", "slominska", "extended")

WORKLOADS = {
    # Exact rank over Q: about 95% of the pass is fraction-free rational
    # elimination of the epi boundaries (c2's d4 alone is 1192 x 9552).
    "rank-q": [
        ("c2", "q", "epi", (1,), 3, None, False),
        ("c3", "q", "epi", (1,), 2, None, False),
        ("klein", "q", "epi", (1,), 2, None, False),
    ],
    # The same c2 boundaries through the mod-p elimination kernel, with a
    # small and a word-size prime.
    "rank-fp": [
        ("c2", "f3", "epi", (1,), 3, None, False),
        ("c2", "f2147483647", "epi", (1,), 3, None, False),
    ],
    # Integral homology with torsion: dense Smith normal form, run twice per
    # job (homology and the universal-coefficient check).
    "integral": [
        ("klein", "z", "epi", (1,), 1, "z/2", True),
        ("c4", "z", "epi", (1,), 1, "z/3", True),
        ("c2", "z", "epi", (1,), 2, "z/2", True),
    ],
    # All six pipelines over a truncation sweep with the verification
    # battery: category tables, functor memo reuse, chain-map identities,
    # coinvariants and stabilization.
    "crossval": [
        (alg, "q", pipeline, (0, 1), 1, None, True)
        for alg in ("c3", "klein") for pipeline in PIPELINES
    ],
}


def job_id(job) -> str:
    alg, ring, pipeline, ns, degree, coeff, verify = job
    text = f"{alg}/{ring}/{pipeline}/N{'-'.join(map(str, ns))}/D{degree}"
    if coeff:
        text += f"/{coeff}"
    return text + ("/verify" if verify else "")


def ordered_jobs(workload: str, seed: int) -> list:
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs
