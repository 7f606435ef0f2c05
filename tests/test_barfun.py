import random

import pytest

from hyperoct.rings import QQ
from hyperoct import croscat as cc, invalg as ia
from hyperoct.barfun import BarFunctor, FunctorError
from hyperoct.matrices import SparseMatrix


def _c3():
    return ia.cyclic_group_algebra(3, QQ)


def test_flip_on_one_point_is_the_involution_matrix():
    A = _c3()
    F = BarFunctor(A)
    M = F.evaluate(cc.hyp_to_ifas(cc.hyp_t(0, 0)))
    expected = [[A.involution[j][i] for j in range(3)] for i in range(3)]
    assert M.to_dense() == expected


def test_face_inserts_the_unit():
    A = _c3()
    F = BarFunctor(A)
    M = F.evaluate(cc.delta_to_ifas(cc.delta_face(0, 0)))
    basis1 = F.basis(1)
    for j in range(3):
        assert M.column(j) == {basis1.index[(0, j)]: QQ.one()}


def test_labeled_multiplication_against_group_arithmetic():
    # conj(a0) a1 on the nine basis tensors of the order-three group algebra:
    # the expected matrix is a permutation computed from modular arithmetic
    # on group-element indices, independent of the evaluation code
    A = _c3()
    F = BarFunctor(A)
    f = cc.IFasMorphism(1, 0, (((0, 1), (1, 0)),))
    M = F.evaluate(f)
    basis1 = F.basis(1)
    for (i0, i1) in basis1.tuples:
        j = basis1.index[(i0, i1)]
        target = ((-i0) % 3 + i1) % 3
        assert M.column(j) == {target: QQ.one()}


def test_functoriality_random_pairs():
    rng = random.Random(6)
    for A in (ia.cyclic_group_algebra(2, QQ), _c3()):
        F = BarFunctor(A)
        for _ in range(500):
            a, b, c = (rng.randrange(3) for _ in range(3))
            f1 = cc.random_ifas(rng, a, b)
            f2 = cc.random_ifas(rng, b, c)
            lhs = F.evaluate(cc.ifas_compose(f2, f1))
            rhs = F.evaluate(f2).matmul(F.evaluate(f1))
            assert lhs.equals(rhs)


def test_identities_evaluate_to_identity():
    F = BarFunctor(_c3())
    for n in range(3):
        assert F.evaluate(cc.ifas_identity(n)).equals(
            SparseMatrix.identity(QQ, F.dim(n)))


def test_ideal_variant_is_a_submatrix_of_the_full_one():
    adapted = ia.adapt_basis_to_augmentation(_c3())
    FI = BarFunctor(adapted, "ideal")
    FA = BarFunctor(adapted, "full")
    rng = random.Random(8)
    for _ in range(120):
        a = rng.randrange(3)
        b = rng.randrange(a + 1)
        f = cc.random_ifas(rng, a, b, "epi")
        rows = [FA.basis(b).index[t] for t in FI.basis(b).tuples]
        cols = [FA.basis(a).index[t] for t in FI.basis(a).tuples]
        MA = FA.evaluate(f)
        assert MA.restrict_rows_complement_is_zero(rows, cols)
        assert MA.submatrix(rows, cols).equals(FI.evaluate(f))


def test_ideal_variant_rejects_non_epimorphisms():
    adapted = ia.adapt_basis_to_augmentation(_c3())
    FI = BarFunctor(adapted, "ideal")
    with pytest.raises(FunctorError):
        FI.evaluate(cc.delta_to_ifas(cc.delta_face(0, 0)))


def test_plain_variant_rejects_the_empty_object():
    F = BarFunctor(_c3())
    with pytest.raises(FunctorError):
        F.evaluate(cc.initial_morphism(0))


def test_extended_unit_inclusions():
    F = BarFunctor(_c3(), "extended")
    assert F.evaluate(cc.initial_morphism(0)).column(0) == {0: QQ.one()}
    empty_id = cc.IFasMorphism(cc.EMPTY_OBJECT, cc.EMPTY_OBJECT, ())
    assert F.evaluate(empty_id).to_dense() == [[QQ.one()]]
    # naturality of the unit inclusions under arbitrary morphisms
    rng = random.Random(10)
    for _ in range(60):
        n, m = rng.randrange(3), rng.randrange(3)
        f = cc.random_ifas(rng, n, m)
        lhs = F.evaluate(f).matmul(F.evaluate(cc.initial_morphism(n)))
        assert lhs.equals(F.evaluate(cc.initial_morphism(m)))


def test_memoization_returns_the_same_object():
    F = BarFunctor(_c3())
    f = cc.hyp_to_ifas(cc.hyp_t(1, 0))
    assert F.evaluate(f) is F.evaluate(f)
