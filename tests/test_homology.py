import random
import time
from fractions import Fraction

import pytest

from hyperoct.rings import QQ, ZZ, GF
from hyperoct.matrices import SparseMatrix
from hyperoct.complexes import (TruncationPolicy, TruncatedComplex,
                                CoefficientModule, tensor_with_coefficients,
                                build_epi_complex, reduce_mod_p)
from hyperoct.invalg import cyclic_group_algebra
from hyperoct import homology as hom

from oracles import from_dense
from solvers import solve_is_boundary


def toy_complex(ring, dims, dense_boundaries=None):
    """Complex from dense boundary matrices d_n: C_n -> C_{n-1}; a zero top
    degree is appended so homology is reported in every listed degree."""
    dims = list(dims) + [0]
    policy = TruncationPolicy(0, len(dims) - 2)
    boundaries = {}
    for n in range(1, len(dims)):
        rows = (dense_boundaries or {}).get(n)
        if rows is None:
            boundaries[n] = SparseMatrix(ring, dims[n - 1], dims[n])
        else:
            boundaries[n] = from_dense(ring, rows)
    return TruncatedComplex(ring, policy, dims, boundaries, label="toy")


def test_zero_complex():
    C = toy_complex(QQ, [0, 0])
    res = hom.homology_over_field(C)
    assert res.betti == [0, 0]


def test_two_step_field_complex():
    # Q^2 -> Q with matrix [1 0]: betti (0, 1)
    C = toy_complex(QQ, [1, 2], {1: [[1, 0]]})
    res = hom.homology_over_field(C)
    assert res.betti == [0, 1]


def test_rank_routines_agree():
    rng = random.Random(2)
    for _ in range(40):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(nc)] for _ in range(nr)]
        Mq = from_dense(QQ, [[Fraction(v) for v in r] for r in rows])
        Mz = from_dense(ZZ, rows)
        # dense rank oracle by row reduction over fractions
        dense = [[Fraction(v) for v in r] for r in rows]
        rank = 0
        for col in range(nc):
            piv = next((r for r in range(rank, nr) if dense[r][col]), None)
            if piv is None:
                continue
            dense[rank], dense[piv] = dense[piv], dense[rank]
            inv = 1 / dense[rank][col]
            dense[rank] = [v * inv for v in dense[rank]]
            for r in range(nr):
                if r != rank and dense[r][col]:
                    f = dense[r][col]
                    dense[r] = [a - f * b for a, b in zip(dense[r], dense[rank])]
            rank += 1
        assert hom.field_rank(Mq) == rank
        assert hom.integer_rank(Mz) == rank
        p = 5
        Mp = from_dense(GF(p), [[v % p for v in r] for r in rows])
        assert hom.field_rank(Mp) <= rank


def test_snf_torsion_of_multiplication_by_two():
    C = toy_complex(ZZ, [1, 1], {1: [[2]]})
    res = hom.homology_over_Z(C)
    # multiplication by two is injective: no degree-one homology
    assert res.betti == [0, 0]
    assert res.torsion[0] == [2]


def test_invariant_factors_of_diagonal():
    M = from_dense(ZZ, [[1, 0, 0], [0, 2, 0], [0, 0, 6]])
    assert hom.invariant_factors(M) == [2, 6]
    M2 = from_dense(ZZ, [[4, 0], [0, 6]])
    assert hom.invariant_factors(M2) == [2, 12]


def test_mod_two_reduction_matches_direct_assembly():
    C = toy_complex(ZZ, [2, 2], {1: [[2, 1], [0, 2]]})
    tensored = tensor_with_coefficients(C, CoefficientModule(0, (2,)))
    comp = tensored.components[0][1]
    assert comp.ring == GF(2)
    direct = from_dense(GF(2), [[0, 1], [0, 0]])
    assert comp.boundary(1).equals(direct)
    res = hom.homology_over_field(comp)
    assert res.betti == [1, 1]


def test_mixed_coefficients_on_a_toy_complex():
    # d = [2]: integral homology (Z/2, 0); with coefficients Z + Z/2 the
    # components are the integral complex and its mod-two reduction
    C = toy_complex(ZZ, [1, 1], {1: [[2]]})
    tensored = tensor_with_coefficients(C, CoefficientModule(1, (2,)))
    (mult_z, comp_z), (mult_2, comp_2) = tensored.components
    assert (mult_z, mult_2) == (1, 1)
    rz = hom.homology_over_Z(comp_z)
    assert rz.betti == [0, 0] and rz.torsion[0] == [2]
    r2 = hom.homology_over_field(comp_2)
    assert r2.betti == [1, 1]
    assert tensored.dimension(0) == 2


def test_solve_is_boundary():
    # boundary [1 0]: the image is everything in degree zero
    C = toy_complex(QQ, [1, 2], {1: [[1, 0]]})
    w = solve_is_boundary(C, 0, {0: Fraction(3)})
    assert w.is_boundary
    assert C.boundary(1).apply(w.witness) == {0: Fraction(3)}
    # zero is a boundary with the zero witness
    w0 = solve_is_boundary(C, 0, {})
    assert w0.is_boundary and C.boundary(1).apply(w0.witness) == {}


def test_solve_refusal_certificate():
    # two-step complex with a genuine class in degree zero:
    # C_1 = 0 -> C_0 = Q, so nothing is a boundary
    C = toy_complex(QQ, [1, 0], {1: [[]]})
    C.boundaries[1] = SparseMatrix(QQ, 1, 0)
    w = solve_is_boundary(C, 0, {0: Fraction(1)})
    assert not w.is_boundary
    assert w.rank_matrix < w.rank_augmented


def test_solve_is_boundary_refuses_the_integers():
    # boundary solving is over a field only; over Z it refuses at once,
    # even where a witness exists
    C = toy_complex(ZZ, [3, 4], {1: [[1, 2, 0, 1], [0, 2, 2, 0], [1, 0, 1, 1]]})
    z = C.boundary(1).apply({0: 1, 2: -1})
    with pytest.raises(hom.HomologyError):
        solve_is_boundary(C, 0, z)


def test_solve_rejects_non_cycles():
    C = toy_complex(QQ, [1, 2, 1],
                    {1: [[1, 0]], 2: [[0], [1]]})
    with pytest.raises(hom.HomologyError):
        solve_is_boundary(C, 1, {0: Fraction(1)})


def test_uct_toy():
    # multiplication by two: middle dimension over F2 is 0 + 1 in degree 1
    C = toy_complex(ZZ, [1, 1], {1: [[2]]})
    modp = {p: hom.homology_over_field(reduce_mod_p(C, p)) for p in (2, 3)}
    report = hom.uct_check(C, 2, modp[2])
    assert report["ok"]
    degrees = {d["degree"]: d for d in report["degrees"]}
    assert degrees[0]["middle"] == 1 and degrees[0]["tensor"] == 1
    assert degrees[1]["middle"] == 1 and degrees[1]["tor"] == 1
    # with the trivial prime-free module the check is not defined; over an
    # odd prime the torsion disappears
    report3 = hom.uct_check(C, 3, modp[3])
    assert report3["ok"]
    assert all(d["tor"] == 0 for d in report3["degrees"])
    # the mod-p homology must be that of the check's own prime
    with pytest.raises(hom.HomologyError):
        hom.uct_check(C, 3, modp[2])


def test_homology_result_validation():
    with pytest.raises(hom.HomologyError):
        hom.HomologyResult("Z", [1], [[4, 6]])
    res = hom.HomologyResult("Z", [1, 0], [[2, 4], []])
    assert list(res.degrees) == [0, 1]


def test_integral_homology_of_epi_c3_stays_sparse():
    # the values of the dense Smith form of the full boundaries, which took
    # about a minute of CPU; the unit-pivot front takes about 0.1 s
    t0 = time.process_time()
    C = build_epi_complex(cyclic_group_algebra(3, ZZ), TruncationPolicy(1, 2))
    res = hom.homology_over_Z(C)
    elapsed = time.process_time() - t0
    assert res.betti == [0, 1, 0]
    assert res.torsion == [[], [], [2]]
    assert elapsed < 20, f"epi C3 over Z at (1, 2) took {elapsed:.1f} s"
