"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output of a failing run) and asserts both the mathematical
statement and the stated runtime target.
"""
import itertools
import time

import pytest

from hyperoct.rings import QQ, ZZ, GF
from hyperoct import croscat as cc, invalg as ia
from hyperoct.barfun import BarFunctor
from hyperoct import complexes as cx
from hyperoct.homology import (compute_homology, homology_over_field,
                               uct_check, field_rank)
from hyperoct.matrices import SparseMatrix
from hyperoct.slominska import slominska_complex
from oracles import split_by_tensor_index, supported_in_rows


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_category_suite():
    """Exhaustive relations/identities/isomorphism for objects <= [2];
    associativity exhaustive on objects <= [1] and randomized (>= 10^4
    samples) up to [2], matching the module invariants."""
    t0 = time.monotonic()
    failures = []

    results = cc.run_invariant_suite(depth=2, samples=10_000)
    for name, (checked, failed) in results.items():
        if failed:
            failures.append(f"{name}: {failed}/{checked}")

    # exhaustive isomorphism round trip on every hom-set up to [2]
    for a in range(3):
        for b in range(3):
            for f in cc.enumerate_hom(a, b):
                if cc.pair_to_ifas(cc.ifas_to_pair(f)) != f:
                    failures.append(f"roundtrip {f}")
    # exhaustive composition preservation on objects <= [1]
    for a, b, c in itertools.product(range(2), repeat=3):
        for f1 in cc.enumerate_hom(a, b):
            p1 = cc.ifas_to_pair(f1)
            for f2 in cc.enumerate_hom(b, c):
                composed = cc.deltah_compose(cc.ifas_to_pair(f2), p1)
                if cc.pair_to_ifas(composed) != cc.ifas_compose(f2, f1):
                    failures.append(f"composition {f2} o {f1}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30
    _report(1, ok, f"category suite clean in {elapsed:.1f}s "
                   f"(target < 30s); failures: {failures[:3]}")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_ground_ring_degree_zero():
    t0 = time.monotonic()
    values = {}
    for ring in (QQ, GF(2)):
        G = ia.ground_ring_algebra(ring)
        for N in (0, 1, 2):
            C = cx.build_full_complex(G, cx.TruncationPolicy(N, 0))
            values[(ring.name, N)] = homology_over_field(C).betti[0]
    elapsed = time.monotonic() - t0
    ok = all(v == 1 for v in values.values()) and elapsed < 60
    _report(2, ok, f"ground-ring betti_0 = {values} in {elapsed:.1f}s "
                   f"(target < 1min)")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_chain_level_reduction_theorem():
    t0 = time.monotonic()
    problems = []
    for order in (2, 3):
        A = ia.cyclic_group_algebra(order, QQ)
        policy = cx.TruncationPolicy(1, 2)
        m = cx.ReducedMachinery(A, policy)
        nerve = cx.build_full_complex(m.algebra, policy)
        ci_index, ideal, unit = split_by_tensor_index(nerve)
        tag = f"C{order}"
        # (a) exact boundary squares in every built complex
        for label, cpx in (("nerve", nerve), ("C_I", m.c_ideal),
                           ("C_k", m.c_unit), ("epi", m.epi)):
            if not cpx.check_dsquared():
                problems.append(f"{tag}: d^2 != 0 in {label}")
        # (b) the splitting is a direct sum with block-diagonal boundary,
        # and the summands are the nerve's blocks
        for n in range(4):
            if m.c_ideal.dimension(n) + m.c_unit.dimension(n) != \
                    nerve.dimension(n):
                problems.append(f"{tag}: split dims at degree {n}")
        for n in (1, 2, 3):
            M = nerve.boundary(n)
            if not supported_in_rows(M, ci_index[n - 1], ci_index[n]):
                problems.append(f"{tag}: off-diagonal block at degree {n}")
            if M.nnz() != ideal[n].nnz() + unit[n].nnz():
                problems.append(f"{tag}: off-diagonal entries at degree {n}")
            if not (ideal[n].equals(m.c_ideal.boundary(n))
                    and unit[n].equals(m.c_unit.boundary(n))):
                problems.append(f"{tag}: summands differ from the nerve's "
                                f"blocks at degree {n}")
        # (c) the unit summand carries one class, in degree zero
        hk = homology_over_field(m.c_unit)
        if hk.betti != [1, 0, 0]:
            problems.append(f"{tag}: H(C_k) = {hk.betti}")
        # (d), (e) comparison maps and the homotopy, exact matrix identities
        theorem = m.verify_chain_theorem()
        for key in ("chi_chain_map", "inclusion_chain_map",
                    "chi_after_inclusion_is_identity", "homotopy_identity",
                    "homotopy_vanishes_on_epi_image"):
            if theorem[key] is not True:
                problems.append(f"{tag}: {key}")
        if theorem["homotopy_sign"] != 1:
            problems.append(f"{tag}: unexpected homotopy sign")
        # (f) Betti agreement in degrees 0..1
        hi = homology_over_field(m.c_ideal, up_to=1)
        he = homology_over_field(m.epi, up_to=1)
        if hi.betti != he.betti:
            problems.append(f"{tag}: C_I {hi.betti} vs epi {he.betti}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 600
    _report(3, ok, f"reduction theorem exact at (N=1, D=2) for C2 and C3 "
                   f"in {elapsed:.1f}s (target < 10min); problems: {problems}")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_variant_equivalence():
    t0 = time.monotonic()
    A = ia.cyclic_group_algebra(2, QQ)
    policy = cx.TruncationPolicy(1, 1)
    view = cx.BarFunctorView(BarFunctor(A))
    nerve, cert = cx.build_nerve_variant(cx.DeltaHCategory(), view, policy)
    gz = cx.build_gz_complex(cx.DeltaHCategory(), view, policy)
    iso = cx.gz_nerve_iso(nerve, gz)
    bn = homology_over_field(nerve).betti
    bg = homology_over_field(gz).betti
    elapsed = time.monotonic() - t0
    ok = (cert.ok and iso.commutes_with_boundaries() and bn == bg
          and elapsed < 120)
    _report(4, ok, f"variant betti {bn} == {bg} with certified isomorphism "
                   f"in {elapsed:.1f}s (target < 2min)")


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_extended_category_consistency():
    t0 = time.monotonic()
    A = ia.cyclic_group_algebra(2, QQ)
    betti = {}
    for N in (0, 1):
        policy = cx.TruncationPolicy(N, 1)
        betti[("full", N)] = homology_over_field(
            cx.build_full_complex(A, policy)).betti
        betti[("extended", N)] = homology_over_field(
            cx.build_extended_complex(A, policy)).betti
    elapsed = time.monotonic() - t0
    agree = betti[("full", 1)] == betti[("extended", 1)]
    if agree:
        ok = elapsed < 300
        detail = (f"extended == full == {betti[('full', 1)]} at N=1 "
                  f"in {elapsed:.1f}s (target < 5min)")
    else:
        # a mismatch is only acceptable in degrees the sweep marks unstable
        stable = [betti[("full", 0)][d] == betti[("full", 1)][d] and
                  betti[("extended", 0)][d] == betti[("extended", 1)][d]
                  for d in range(2)]
        mismatched = [d for d in range(2)
                      if betti[("full", 1)][d] != betti[("extended", 1)][d]]
        ok = all(not stable[d] for d in mismatched) and elapsed < 300
        detail = (f"mismatch {betti} in degrees {mismatched}; "
                  f"stability {stable} (truncation artifact only if unstable)")
    _report(5, ok, detail)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_universal_coefficients():
    t0 = time.monotonic()
    A = ia.cyclic_group_algebra(3, ZZ)
    C = cx.build_epi_complex(A, cx.TruncationPolicy(1, 1))
    report = uct_check(C, 2, homology_over_field(cx.reduce_mod_p(C, 2)))
    elapsed = time.monotonic() - t0
    ok = report["ok"] and elapsed < 300
    _report(6, ok, f"coefficient sequence dimensions match degreewise "
                   f"{report['degrees']} in {elapsed:.1f}s (target < 5min)")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_coinvariants_comparison():
    t0 = time.monotonic()
    outcomes = {}
    for order in (2, 3):
        A = ia.cyclic_group_algebra(order, QQ)
        policy = cx.TruncationPolicy(1, 1)
        hs = compute_homology(slominska_complex(A, policy)).betti
        he = homology_over_field(cx.build_epi_complex(A, policy)).betti
        outcomes[f"C{order}"] = (hs, he)
    elapsed = time.monotonic() - t0
    mismatches = {k: v for k, v in outcomes.items() if v[0] != v[1]}
    if mismatches:
        # open question: the poset decomposition is proven for the
        # untruncated category; a truncation mismatch fails the build here
        # and must be annotated before it can be waived
        _report(7, False, f"coinvariants vs epimorphism mismatch {mismatches}")
    ok = elapsed < 300
    _report(7, ok, f"coinvariants == epimorphism betti {outcomes} "
                   f"in {elapsed:.1f}s (target < 5min)")


# -- criterion 8 -------------------------------------------------------------

def _degree_zero_oracle(A):
    """Quotient of the algebra by the relations generated by all parallel
    pairs through the two smallest hom-sets; independent of the complex
    assembly code path."""
    F = BarFunctor(A)
    ring = A.ring
    cols = []
    for (n, m) in ((1, 0), (0, 0)):
        homs = cc.enumerate_hom(n, m)
        mats = [F.evaluate(f) for f in homs]
        base = mats[0]
        for M in mats[1:]:
            for t in range(M.ncols):
                col = M.column(t)
                for r, v in base.column(t).items():
                    cur = col.get(r, ring.zero())
                    s = ring.sub(cur, v)
                    if ring.is_zero(s):
                        col.pop(r, None)
                    else:
                        col[r] = s
                cols.append(col)
    M = SparseMatrix(ring, A.dim, len(cols), cols)
    return A.dim - field_rank(M)


def test_criterion_8_degree_zero_oracle():
    t0 = time.monotonic()
    A = ia.cyclic_group_algebra(3, QQ)
    oracle = _degree_zero_oracle(A)
    pipeline = {}
    for N in (1, 2):
        C = cx.build_full_complex(A, cx.TruncationPolicy(N, 0))
        pipeline[N] = homology_over_field(C).betti[0]
    elapsed = time.monotonic() - t0
    ok = (oracle == pipeline[1] == pipeline[2] == 1) and elapsed < 300
    _report(8, ok, f"degree-0 oracle {oracle} == pipeline {pipeline} == 1 "
                   f"in {elapsed:.1f}s (target < 5min)")


# -- criterion 9 -------------------------------------------------------------

class _Weight:
    def __init__(self, fn):
        self.fn = fn

    def dim(self, obj):
        return self.fn(obj)


def test_criterion_9_performance_regression():
    t0 = time.monotonic()
    problems = []
    d = 2  # order-two group algebra
    policy22 = cx.TruncationPolicy(2, 2)
    all_cat = cx.DeltaHCategory()
    epi_cat = cx.EpiDeltaHCategory()
    nerve_counts = cx.projected_generator_counts(
        all_cat, _Weight(lambda o: d ** (o + 1)), policy22)
    unit_counts = cx.projected_generator_counts(
        all_cat, _Weight(lambda o: 1), policy22)
    ideal_counts = [a - b for a, b in zip(nerve_counts, unit_counts)]
    epi_counts = cx.projected_generator_counts(
        epi_cat, _Weight(lambda o: (d - 1) ** (o + 1)), policy22)
    for degree in range(1, 4):
        if not epi_counts[degree] < ideal_counts[degree]:
            problems.append(f"degree {degree}: epi {epi_counts[degree]} "
                            f">= ideal {ideal_counts[degree]}")

    # the reduced pipeline at (N=2, D=2) exceeds the default resource cap
    A = ia.cyclic_group_algebra(2, QQ)
    with pytest.raises(cx.ResourceCapExceeded) as excinfo:
        cx.ReducedMachinery(A, policy22)
    projected = excinfo.value.projected
    if projected != nerve_counts[excinfo.value.degree]:
        problems.append("cap did not report the projected generator count")

    # wall-time comparison on the largest job both pipelines complete:
    # the shared (N=1, D=2) truncation, homology through degree 2
    policy12 = cx.TruncationPolicy(1, 2)
    t_reduced0 = time.monotonic()
    m = cx.ReducedMachinery(A, policy12, certificate=False)
    betti_reduced = homology_over_field(m.c_ideal).betti
    t_reduced = time.monotonic() - t_reduced0
    t_epi0 = time.monotonic()
    epi = cx.build_epi_complex(A, policy12)
    betti_epi = homology_over_field(epi).betti
    t_epi = time.monotonic() - t_epi0
    if betti_reduced != betti_epi:
        problems.append(f"pipelines disagree: {betti_reduced} vs {betti_epi}")
    if not t_epi < t_reduced:
        problems.append(f"epi {t_epi:.2f}s not faster than reduced "
                        f"{t_reduced:.2f}s")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 900
    _report(9, ok,
            f"epi counts {epi_counts} < ideal counts {ideal_counts} at "
            f"(N=2, D=2); reduced capped at projected {projected}; "
            f"wall time epi {t_epi:.2f}s < reduced {t_reduced:.2f}s at "
            f"(N=1, D=2); total {elapsed:.1f}s (target < 15min); "
            f"problems: {problems}")
