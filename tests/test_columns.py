"""Property tests of the compressed-column form of ``SparseMatrix``: the
column accessor gives back every column it was built from, the leading
row is stored first, values fall back to a list exactly when one is no
int64, and the kernels that read the arrays (the d^2 certificate, the field
rank) agree with the dict oracles of ``tests/solvers.py`` and the exact
product, whatever the values."""
from array import array
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hyperoct import complexes as cx, homology as hom
from hyperoct.barfun import BarFunctor
from hyperoct.matrices import SparseMatrix
from hyperoct.rings import GF, QQ, ZZ
from oracles import columns
from solvers import tracked_elimination
from test_assembly import oracle_boundaries, standard_epi_complex, typed
from test_slominska import algebra

INT64 = 1 << 63
# nonzero values: small and negative ints, ints just inside and beyond
# int64, and Fractions
INTS = st.one_of(st.integers(-3, 3), st.integers(-INT64, INT64 - 1),
                 st.integers(INT64, INT64 << 8),
                 st.integers(-(INT64 << 8), -INT64 - 1)).filter(bool)
RATIONALS = st.one_of(INTS, st.fractions(max_denominator=6)).filter(bool)


@st.composite
def dict_columns(draw, values=None, nrows=None, ncols=None):
    """(ring, nrows, columns as dicts), empty columns included."""
    ring = draw(st.sampled_from([QQ, ZZ]))
    if values is None:
        values = RATIONALS if ring == QQ else INTS
    nrows = draw(st.integers(1, 8)) if nrows is None else nrows
    ncols = draw(st.integers(0, 8)) if ncols is None else ncols
    cols = [draw(st.dictionaries(st.integers(0, nrows - 1), values,
                                 max_size=nrows)) for _ in range(ncols)]
    return ring, nrows, cols


def machine(cols) -> bool:
    return all(type(v) is int and -INT64 <= v < INT64
               for col in cols for v in col.values())


@settings(max_examples=300, deadline=None)
@given(dict_columns())
def test_the_accessor_gives_back_every_column(data):
    ring, nrows, cols = data
    M = SparseMatrix(ring, nrows, len(cols), cols)
    assert columns(M) == cols
    assert M.nnz() == sum(map(len, cols))
    for j, col in enumerate(cols):
        if col:
            assert M.rows[M.starts[j]] == max(col)
            assert next(iter(M.column(j))) == max(col)
        else:
            assert M.starts[j] == M.starts[j + 1]
    assert (type(M.vals) is array) == machine(cols)
    assert M.equals(SparseMatrix(ring, nrows, len(cols),
                                 [dict(reversed(col.items())) for col in cols]))


def oracle_rank(ring, cols) -> int:
    """Rank over Q by the tests' own Gauss-Jordan elimination."""
    return sum(expr is None for expr in tracked_elimination(
        QQ, [{r: Fraction(v) for r, v in col.items()} for col in cols]))


@settings(max_examples=200, deadline=None)
@given(dict_columns())
def test_the_rank_streams_read_any_values(data):
    ring, nrows, cols = data
    M = SparseMatrix(ring, nrows, len(cols), cols)
    rank = hom.field_rank(M) if ring == QQ else hom.integer_rank(M)
    assert rank == oracle_rank(ring, cols)


@st.composite
def pairs(draw):
    """(d_prev, d_n) over Q or Z with any values; half of them vanish by
    construction: d_n then only has rows where d_prev has empty columns,
    or columns that cancel a pair of equal columns of d_prev."""
    ring, nrows, prev = draw(dict_columns(ncols=draw(st.integers(1, 6))))
    mid = len(prev)
    _, _, cols = draw(dict_columns(nrows=mid))
    if draw(st.booleans()):
        empty = [k for k, col in enumerate(prev) if not col]
        cols = [{k: v for k, v in col.items() if k in empty}
                for col in cols]
        if mid >= 2 and draw(st.booleans()):
            prev[1] = dict(prev[0])
            c = draw(RATIONALS if ring == QQ else INTS)
            cols.append({0: c, 1: -c})
    return (SparseMatrix(ring, nrows, mid, prev),
            SparseMatrix(ring, mid, len(cols), cols))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_the_dsquared_certificate_reads_any_values(pair):
    d_prev, d_n = pair
    vanishes = all(not d_prev.apply(d_n.column(j)) for j in range(d_n.ncols))
    try:
        hom.check_dsquared_pair(d_prev, d_n, 2)
        verdict = True
    except hom.HomologyError:
        verdict = False
    assert verdict == vanishes


def test_fraction_boundaries_match_string_lookup():
    # the scaled involution of C3 puts Fractions in the functor matrices,
    # so these boundaries keep their values in a list
    A = algebra("scaled-c3")
    policy = cx.TruncationPolicy(1, 1)
    for C, normalized in ((cx.build_epi_complex(A, policy), True),
                          (standard_epi_complex(A, policy), False),
                          (cx.build_full_complex(A, policy), False)):
        expected = oracle_boundaries(C, normalized)
        for n, cols in expected.items():
            M = C.boundary(n)
            assert type(M.vals) is list
            assert any(type(v) is Fraction for v in M.vals)
            built = columns(M)
            assert typed(built) == typed(cols)
            assert all(next(iter(col)) == max(col) for col in built if col)


def test_functor_matrices_keep_fractions():
    functor = BarFunctor(algebra("scaled-c3"))
    table = cx.MorphismTable(cx.DeltaHCategory(), [0, 1])
    kinds = {type(functor.evaluate(f).vals) for f in table.morphisms}
    assert kinds == {array, list}


@settings(max_examples=200, deadline=None)
@given(dict_columns(values=INTS), st.sampled_from([2, 3, 5]))
def test_reduction_mod_p_rewrites_the_columns_that_lose_an_entry(data, p):
    _, nrows, cols = data
    M = SparseMatrix(ZZ, nrows, len(cols), cols)
    R = cx._reduced_matrix(M, p, GF(p))
    expected = [{r: v % p for r, v in col.items() if v % p} for col in cols]
    assert columns(R) == expected
    assert all(next(iter(col)) == max(col) for col in columns(R) if col)
    assert type(R.vals) is array
