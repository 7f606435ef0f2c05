import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hyperoct.rings import QQ, ZZ, GF, RingError, ring_by_name
from hyperoct.matrices import SparseMatrix
from oracles import (add, from_dense, is_zero_matrix, neg, supported_in_rows,
                     to_dense)


def test_ring_parsing():
    assert ring_by_name("q") == QQ
    assert ring_by_name("z") == ZZ
    assert ring_by_name("f5").characteristic == 5
    with pytest.raises(RingError):
        ring_by_name("f4")
    with pytest.raises(RingError):
        ring_by_name("r")


def test_prime_field_arithmetic():
    f = GF(7)
    assert (f.zero(), f.one()) == (0, 1)
    assert f.div(f.from_int(3), f.from_int(5)) == (3 * pow(5, 5, 7)) % 7
    assert f.from_pair(1, 3) == pow(3, 5, 7)
    with pytest.raises(RingError):
        GF(7).from_pair(1, 7)


def test_integer_pairs():
    assert ZZ.from_pair(6, 3) == 2
    for pair, message in (((3, 2), "3/2 is not an integer"),
                          ((1, 0), "zero denominator")):
        with pytest.raises(RingError) as exc:
            ZZ.from_pair(*pair)
        assert str(exc.value) == message
    assert QQ.from_pair(1, 2) == Fraction(1, 2)


def test_matmul_and_transpose():
    a = from_dense(ZZ, [[1, 2], [0, 1]])
    b = from_dense(ZZ, [[1, 0], [3, 1]])
    prod = a.matmul(b)
    assert to_dense(prod) == [[7, 2], [3, 1]]
    assert to_dense(a.transpose()) == [[1, 0], [2, 1]]
    assert a.matmul(SparseMatrix.identity(ZZ, 2)).equals(a)


def test_add_scale_apply():
    a = from_dense(QQ, [[1, 0], [0, 2]])
    b = add(a, neg(a))
    assert is_zero_matrix(b)
    v = a.apply({0: Fraction(3), 1: Fraction(1, 2)})
    assert v == {0: Fraction(3), 1: Fraction(1)}


def test_submatrix_and_block_support():
    m = from_dense(ZZ, [[1, 0, 5], [0, 2, 0], [0, 0, 3]])
    sub = m.submatrix([0, 2], [0, 2])
    assert to_dense(sub) == [[1, 5], [0, 3]]
    assert supported_in_rows(m, [0, 2], [2])
    assert not supported_in_rows(m, [0], [1])


rationals = st.one_of(st.integers(-60, 60), st.fractions(max_denominator=12))


@given(rationals, rationals)
def test_rational_ops_are_exact_and_stay_ints(a, b):
    # Q and Z share one int arithmetic; Z takes the int arguments
    both_int = type(a) is int and type(b) is int
    for ring in (QQ, ZZ) if both_int else (QQ,):
        for name, op in (("add", operator.add), ("sub", operator.sub),
                         ("mul", operator.mul)):
            got = getattr(ring, name)(a, b)
            assert got == op(Fraction(a), Fraction(b))
            assert type(got) is (int if both_int else Fraction)
        assert ring.neg(a) == -Fraction(a) and type(ring.neg(a)) is type(a)
        assert ring.is_zero(a) == (a == 0)
    if both_int:
        with pytest.raises(RingError) as exc:
            ZZ.div(a, b)
        assert str(exc.value) == "division not available in Z"
    if b == 0:
        with pytest.raises(RingError):
            QQ.div(a, b)
        return
    q = Fraction(a) / Fraction(b)
    got = QQ.div(a, b)
    assert got == q
    assert type(got) is (int if q.denominator == 1 else Fraction)


@given(st.integers(-60, 60), st.integers(-12, 12))
def test_rational_pairs_are_ints_when_integral(num, den):
    if den == 0:
        with pytest.raises(RingError):
            QQ.from_pair(num, den)
        return
    got = QQ.from_pair(num, den)
    assert got == Fraction(num, den)
    assert type(got) is (int if num % den == 0 else Fraction)


def test_rational_constants_are_ints():
    for v in (QQ.zero(), QQ.one(), QQ.from_int(-7)):
        assert type(v) is int
