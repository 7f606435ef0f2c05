"""Command line orchestration: algebra ingestion, pipeline runs, truncation
sweeps with stabilization reporting, verification toggles and machine-readable
reports.

Reports are deterministic: the canonical section (everything except the
"timing" key) is byte-stable across runs for equal inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import namedtuple

from . import __version__
from .rings import Ring, ZZ, GF, ring_by_name, RingError
from .invalg import (InvolutiveAlgebra, AlgebraError, builtin_algebra,
                     BUILTIN_ALGEBRAS)
from .barfun import BarFunctor, FULL
from .complexes import (TruncationPolicy, ResourceCapExceeded, ComplexError,
                        DEFAULT_MAX_GENERATORS, ReducedMachinery,
                        build_full_complex, build_extended_complex,
                        build_epi_complex, build_gz_complex,
                        build_nerve_variant, gz_nerve_iso, DeltaHCategory,
                        BarFunctorView, CoefficientModule,
                        tensor_with_coefficients, zero_anchored_contraction)
from .homology import compute_homology, uct_check, HomologyError
from .slominska import slominska_complex, SlominskaError
from . import croscat

PIPELINES = ("full", "nerve", "reduced", "epi", "slominska", "extended")


class SpecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# algebra spec ingestion
# ---------------------------------------------------------------------------

def _scalar(ring: Ring, value, where: str):
    try:
        if isinstance(value, bool):
            raise SpecError(f"{where}: booleans are not scalars")
        if isinstance(value, int):
            return ring.from_int(value)
        if isinstance(value, (list, tuple)) and len(value) == 2 and \
                all(isinstance(v, int) for v in value):
            if any(isinstance(v, bool) for v in value):
                raise SpecError(f"{where}: booleans are not scalars")
            return ring.from_pair(value[0], value[1])
    except RingError as exc:
        raise SpecError(f"{where}: {exc}") from exc
    raise SpecError(f"{where}: scalars must be integers or [numerator, "
                    f"denominator] pairs, got {value!r}")


def algebra_from_spec(spec: dict, ring: Ring) -> InvolutiveAlgebra:
    """Build an algebra from a JSON spec, naming the offending field on
    every validation error."""
    if not isinstance(spec, dict):
        raise SpecError("spec: expected a JSON object")
    try:
        dim = spec["dim"]
    except KeyError:
        raise SpecError("dim: missing")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SpecError("dim: must be a positive integer")
    basis = spec.get("basis", [f"b{i}" for i in range(dim)])
    if not isinstance(basis, list) or len(basis) != dim or \
            any(not isinstance(name, str) for name in basis):
        raise SpecError("basis: expected a list of exactly 'dim' names")
    zero = ring.zero()
    structure = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    entries = spec.get("structure")
    if not isinstance(entries, list):
        raise SpecError("structure: missing or not a list")
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 5:
            raise SpecError(f"structure[{pos}]: expected [i, j, k, "
                            f"numerator, denominator]")
        i, j, k, num, den = entry
        for name, idx in (("i", i), ("j", j), ("k", k)):
            if isinstance(idx, bool):
                raise SpecError(f"structure[{pos}].{name}: booleans are not "
                                f"indices")
            if not isinstance(idx, int) or not 0 <= idx < dim:
                raise SpecError(f"structure[{pos}].{name}: index out of range")
        structure[i][j][k] = _scalar(ring, [num, den], f"structure[{pos}]")
    unit = spec.get("unit")
    if not isinstance(unit, list) or len(unit) != dim:
        raise SpecError("unit: expected a vector of length 'dim'")
    unit = tuple(_scalar(ring, v, f"unit[{i}]") for i, v in enumerate(unit))
    involution = spec.get("involution")
    if not isinstance(involution, list) or len(involution) != dim or \
            any(not isinstance(r, list) or len(r) != dim for r in involution):
        raise SpecError("involution: expected a dim x dim row-major matrix")
    involution = tuple(
        tuple(_scalar(ring, v, f"involution[{i}][{j}]")
              for j, v in enumerate(row))
        for i, row in enumerate(involution))
    augmentation = spec.get("augmentation")
    if augmentation is not None:
        if not isinstance(augmentation, list) or len(augmentation) != dim:
            raise SpecError("augmentation: expected a vector of length 'dim'")
        augmentation = tuple(_scalar(ring, v, f"augmentation[{i}]")
                             for i, v in enumerate(augmentation))
    try:
        return InvolutiveAlgebra(ring, basis, structure, unit, involution,
                                 augmentation, name=spec.get("name", "custom"))
    except AlgebraError as exc:
        raise SpecError(f"algebra: {exc}") from exc


def load_algebra(source: str, ring: Ring) -> InvolutiveAlgebra:
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"algebra: invalid JSON in {source}: {exc}")
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecError(f"algebra: cannot read {source}: {exc}")
        return algebra_from_spec(spec, ring)
    try:
        return builtin_algebra(source, ring)
    except AlgebraError:
        raise SpecError(
            f"algebra: {source!r} is neither a file nor a builtin "
            f"(builtins: {', '.join(BUILTIN_ALGEBRAS)})")


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class JobSpec(namedtuple("JobSpec", "algebra_source ring_name pipeline "
                         "n_values max_degree coefficients verify "
                         "max_generators",
                         defaults=(None, False, DEFAULT_MAX_GENERATORS))):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.pipeline not in PIPELINES:
            raise SpecError(f"pipeline: unknown pipeline {self.pipeline!r}")
        try:
            ring = ring_by_name(self.ring_name)
        except RingError as exc:
            raise SpecError(f"ring: {exc}")
        if self.pipeline == "slominska" and \
                (ring.characteristic != 0 or not ring.is_field):
            raise SpecError("pipeline: the coinvariants pipeline needs a "
                            "characteristic-zero field")
        if self.coefficients is not None:
            if ring != ZZ:
                raise SpecError("coefficients: coefficient modules need "
                                "--ring z")
            parse_coefficients(self.coefficients)
        if self.max_degree < 0 or any(n < 0 for n in self.n_values):
            raise SpecError("truncation: negative parameter")
        if self.max_generators < 1:
            raise SpecError("max-generators: must be a positive integer")


def parse_coefficients(text: str) -> CoefficientModule:
    parts = [p.strip() for p in text.lower().split("+") if p.strip()]
    free = 0
    torsion = []
    for part in parts:
        if part == "z":
            free += 1
        elif part.startswith("z/") and part[2:].isdigit():
            torsion.append(int(part[2:]))
        else:
            raise SpecError(f"coefficients: cannot parse {part!r}")
    if not parts:
        raise SpecError("coefficients: empty module")
    try:
        return CoefficientModule(free, tuple(torsion))
    except ComplexError as exc:
        raise SpecError(f"coefficients: {exc}")


def _run_pipeline_once(job: JobSpec, algebra, ring, n_value: int):
    """One pipeline at one truncation; returns (payload, verifications)."""
    policy = TruncationPolicy(n_value, job.max_degree)
    verifications = {}
    payload = {}
    timing = {}
    t0 = time.monotonic()

    if job.pipeline == "full":
        cpx = build_full_complex(algebra, policy, job.max_generators)
        complexes = {"full": cpx}
    elif job.pipeline == "extended":
        cpx = build_extended_complex(algebra, policy, job.max_generators)
        complexes = {"extended": cpx}
    elif job.pipeline == "nerve":
        cpx, cert = build_nerve_variant(
            DeltaHCategory(), BarFunctorView(BarFunctor(algebra, FULL)),
            policy, job.max_generators, label="nerve")
        verifications["relation_certificate"] = "pass" if cert.ok else "fail"
        if job.verify:
            gz = build_gz_complex(
                DeltaHCategory(), BarFunctorView(BarFunctor(algebra, FULL)),
                policy, job.max_generators, label="gz")
            # raises ComplexError unless the map commutes with the boundaries
            gz_nerve_iso(cpx, gz)
            verifications["nerve_iso_chain_map"] = "pass"
        complexes = {"nerve": cpx}
    elif job.pipeline == "epi":
        cpx = build_epi_complex(algebra, policy, job.max_generators)
        complexes = {"epi": cpx}
    elif job.pipeline == "slominska":
        cpx = slominska_complex(algebra, policy, job.max_generators)
        complexes = {"slominska": cpx}
    elif job.pipeline == "reduced":
        machinery = ReducedMachinery(algebra, policy, job.max_generators,
                                     certificate=job.verify)
        complexes = {"ideal": machinery.c_ideal, "unit": machinery.c_unit}
        verifications["split_block_diagonal"] = "pass"
        if job.verify:
            theorem = machinery.verify_chain_theorem()
            for key in ("chi_chain_map", "inclusion_chain_map",
                        "chi_after_inclusion_is_identity",
                        "homotopy_identity",
                        "homotopy_vanishes_on_epi_image"):
                verifications[key] = "pass" if theorem[key] else "fail"
            payload["homotopy_sign"] = theorem["homotopy_sign"]
            _, ck_ids = machinery.unit_summand_contraction()
            verifications["unit_contraction_degree0"] = (
                "pass" if ck_ids.get(0, False) else "fail")
            anchored = zero_anchored_contraction(policy, ring,
                                                 job.max_generators)
            verifications["zero_anchored_contraction"] = (
                "pass" if anchored["ok"] else "fail")
    else:  # pragma: no cover
        raise SpecError(f"pipeline: {job.pipeline}")

    timing["build_s"] = round(time.monotonic() - t0, 3)
    t1 = time.monotonic()
    # the standard complexes' counts; epi and slominska eliminate their
    # normalized quotients
    payload["sizes"] = {tag: cpx.generator_counts()
                        for tag, cpx in complexes.items()}
    timing["eliminated"] = {tag: list(cpx.dims)
                            for tag, cpx in complexes.items()}
    timing["nnz"] = {tag: [cpx.boundary(n).nnz()
                           for n in range(1, job.max_degree + 2)]
                     for tag, cpx in complexes.items()}
    results = {tag: compute_homology(cpx) for tag, cpx in complexes.items()}
    for tag, cpx in complexes.items():
        # the homology solve has certified d_{n-1} d_n = 0 for every pair
        # (it raises HomologyError at the first that fails); this reads the
        # complex's certificate memo
        status = "skipped"
        if job.verify:
            status = "pass" if cpx.check_dsquared() else "fail"
        verifications[f"dsquared[{tag}]"] = status
    payload["betti"] = {tag: list(res.betti) for tag, res in results.items()}
    payload["torsion"] = {tag: [list(t) for t in res.torsion]
                          for tag, res in results.items() if res.torsion}
    if job.pipeline == "reduced":
        # the splitting is a direct sum, so total homology is the blockwise sum
        payload["betti"]["total"] = [a + b for a, b in zip(
            results["ideal"].betti, results["unit"].betti)]
    timing["homology_s"] = round(time.monotonic() - t1, 3)
    timing["rank"] = {tag: res.rank_stats for tag, res in results.items()
                      if res.rank_stats}

    if job.coefficients is not None:
        module = parse_coefficients(job.coefficients)
        main_tag = next(iter(complexes))
        base = complexes[main_tag]
        tensored = tensor_with_coefficients(base, module)
        coeff_payload = {"module": job.coefficients, "components": []}
        # one homology per ring: the free component is base itself, and
        # the components of a repeated prime share one reduction
        by_ring = {base.ring: results[main_tag]}
        for mult, comp in tensored.components:
            if comp.ring not in by_ring:
                by_ring[comp.ring] = compute_homology(comp)
            res = by_ring[comp.ring]
            entry = {"ring": comp.ring.name, "multiplicity": mult,
                     "betti": list(res.betti)}
            if res.torsion:
                entry["torsion"] = [list(t) for t in res.torsion]
            coeff_payload["components"].append(entry)
        for p in dict.fromkeys(module.torsion):
            report = uct_check(base, p, by_ring[GF(p)])
            verifications[f"uct[p={p}]"] = "pass" if report["ok"] else "fail"
            coeff_payload.setdefault("uct", {})[str(p)] = report["degrees"]
        payload["coefficients"] = coeff_payload

    return payload, verifications, timing


def stabilization(ns: list, values: list) -> dict:
    """Stabilization entry of one degree, from its values over the sorted
    truncations ``ns``.

    Only the final run of equal values counts, since a later disagreement
    voids an earlier agreement.  A run of two or more values is stable at
    its second truncation; a single truncation proves nothing."""
    start = len(values) - 1
    while start > 0 and values[start - 1] == values[-1]:
        start -= 1
    if start >= len(values) - 1:
        return {"stable": False}
    return {"stable": True, "at_max_object": ns[start + 1]}


def run(job: JobSpec) -> tuple:
    """Run a job; returns (report dict, exit code).

    The report has the contract shape: parameters, betti/torsion/sizes per
    complex tag and truncation, a flat verification table (name -> pass,
    fail or skipped), the stabilization table, and a separate non-canonical
    timing section."""
    ring = ring_by_name(job.ring_name)
    algebra = load_algebra(job.algebra_source, ring)
    report = {
        "parameters": {
            "algebra": job.algebra_source,
            "ring": ring.name,
            "pipeline": job.pipeline,
            "max_object_values": list(job.n_values),
            "max_degree": job.max_degree,
            "coefficients": job.coefficients,
            "verify": job.verify,
            "max_generators": job.max_generators,
            "version": __version__,
        },
        "flags": [
            "degrees >= 1 are truncated values: exact for the finite "
            "truncation, compared across max-object values by the "
            "stabilization table, and not asserted to equal the "
            "untruncated theory",
        ],
        "betti": {},
        "torsion": {},
        "sizes": {},
        "verifications": {},
        "errors": {},
        "coefficients": {},
        "timing": {},
    }
    exit_code = 0
    betti_by_n = {}
    for n_value in job.n_values:
        key = f"N={n_value}"
        try:
            payload, verifications, timing = _run_pipeline_once(
                job, algebra, ring, n_value)
        except ResourceCapExceeded as exc:
            report["errors"][key] = {
                "error": "resource cap exceeded",
                "degree": exc.degree,
                "projected_generators": exc.projected,
                "cap": exc.cap,
            }
            report["verifications"][f"{key}/resource_cap"] = "fail"
            exit_code = 3
            continue
        for tag, betti in payload["betti"].items():
            report["betti"].setdefault(tag, {})[key] = betti
        for tag, torsion in payload.get("torsion", {}).items():
            report["torsion"].setdefault(tag, {})[key] = torsion
        for tag, sizes in payload["sizes"].items():
            report["sizes"].setdefault(tag, {})[key] = sizes
        for name, status in verifications.items():
            report["verifications"][f"{key}/{name}"] = status
        if "homotopy_sign" in payload:
            report.setdefault("conventions", {})[key] = {
                "homotopy_sign": payload["homotopy_sign"]}
        if "coefficients" in payload:
            report["coefficients"][key] = payload["coefficients"]
        report["timing"][key] = timing
        main_tag = "ideal" if job.pipeline == "reduced" else job.pipeline
        betti_by_n[n_value] = payload["betti"][main_tag]
        if any(v == "fail" for v in verifications.values()):
            exit_code = max(exit_code, 1)
    ns = sorted(betti_by_n)
    stab = {f"degree {d}": stabilization(ns, [betti_by_n[n][d] for n in ns])
            for d in range(job.max_degree + 1)}
    report["stabilization"] = stab
    return report, exit_code


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def canonical_report_text(report: dict) -> str:
    """Byte-stable canonical section (the timing key is excluded)."""
    canonical = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(canonical, sort_keys=True, indent=2) + "\n"


def check_report_path(path: str):
    """Refuse a report path that cannot be written, before any work."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise SpecError(f"out: no directory {folder}")
    if os.path.isdir(path):
        raise SpecError(f"out: {path} is a directory")


def write_report(report: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_max_object(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise SpecError(f"max-object: cannot parse range {text!r}")
        if lo > hi:
            raise SpecError("max-object: empty range")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise SpecError(f"max-object: cannot parse {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperoct",
        description="Exact homology of involutive algebras over the "
                    "hyperoctahedral category, at finite truncations.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="run one pipeline over a truncation sweep")
    comp.add_argument("--algebra", required=True,
                      help="JSON algebra spec file or builtin name")
    comp.add_argument("--ring", default="q", help="q, z or f<p>")
    comp.add_argument("--pipeline", required=True, choices=PIPELINES)
    comp.add_argument("--max-object", required=True,
                      help="truncation N or a range N1..N2")
    comp.add_argument("--max-degree", type=int, required=True)
    comp.add_argument("--coefficients", default=None,
                      help="coefficient module over z, e.g. z/2 or z+z/2")
    comp.add_argument("--verify", action="store_true",
                      help="run the chain-level verification battery")
    comp.add_argument("--max-generators", type=int,
                      default=DEFAULT_MAX_GENERATORS)
    comp.add_argument("--out", required=True, help="report path (JSON)")

    ver = sub.add_parser("verify-category",
                         help="exhaustive/randomized category checks")
    ver.add_argument("--depth", type=int, default=2)
    ver.add_argument("--samples", type=int, default=2000)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-category":
        if args.depth < 0 or args.samples < 1:
            print("error: verify-category needs --depth >= 0 and "
                  "--samples >= 1", file=sys.stderr)
            return 2
        results = croscat.run_invariant_suite(args.depth, args.samples)
        code = 0
        for name, (checked, failed) in results.items():
            # a check that ran no case proves nothing
            status = "FAIL" if failed else "pass" if checked else "EMPTY"
            print(f"{status}  {name}: {checked} checked, {failed} failed")
            if status != "pass":
                code = 1
        return code
    try:
        check_report_path(args.out)
        job = JobSpec(
            algebra_source=args.algebra,
            ring_name=args.ring,
            pipeline=args.pipeline,
            n_values=_parse_max_object(args.max_object),
            max_degree=args.max_degree,
            coefficients=args.coefficients,
            verify=args.verify,
            max_generators=args.max_generators,
        )
        report, code = run(job)
    except (SpecError, AlgebraError, HomologyError, SlominskaError,
            ComplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_report(report, args.out)
    for key, entry in sorted(report["errors"].items()):
        print(f"{key}: {entry['error']} (degree {entry['degree']}, "
              f"projected {entry['projected_generators']})")
    for tag in sorted(report["betti"]):
        for key in sorted(report["betti"][tag]):
            print(f"{key} {tag}: betti {report['betti'][tag][key]}")
    print(f"report written to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
