"""Property tests of the elimination kernel and the integral Smith path
against brute-force oracles on small random integer matrices and
complexes."""
import copy
import itertools
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import (Phase, assume, example, given, settings,
                        strategies as st)

from hyperoct.rings import QQ, ZZ, GF
from hyperoct.matrices import SparseMatrix
from hyperoct import invalg as ia
from hyperoct.complexes import (TruncationPolicy, TruncatedComplex,
                                build_epi_complex, reduce_mod_p)
from hyperoct import homology as hom

from oracles import columns, from_dense, from_entries
from solvers import field_kernel_sample, field_solve

PRIMES = (2, 3, 5, 2147483647)

# the kernel tests on large random matrices report a failure as found:
# shrinking a broken back-substitution or pivot division there takes
# minutes, without a word from pytest, where the unshrunk example fails
# within seconds
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

entries = st.integers(-4, 4)


@st.composite
def int_matrices(draw, max_rows=6, max_cols=7):
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))
    return [[draw(entries) for _ in range(nc)] for _ in range(nr)]


def oracle_rank(rows, p=None):
    """Dense Gauss-Jordan rank over Q, or over F_p when p is given."""
    if p is None:
        dense = [[Fraction(v) for v in r] for r in rows]
    else:
        dense = [[v % p for v in r] for r in rows]
    nr, nc = len(dense), len(dense[0])
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if dense[r][col]), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        inv = 1 / dense[rank][col] if p is None \
            else pow(dense[rank][col], -1, p)
        dense[rank] = [v * inv if p is None else v * inv % p
                       for v in dense[rank]]
        for r in range(nr):
            f = dense[r][col]
            if r != rank and f:
                dense[r] = [a - f * b if p is None else (a - f * b) % p
                            for a, b in zip(dense[r], dense[rank])]
        rank += 1
    return rank


def over(ring, rows):
    if ring == QQ:
        return from_dense(QQ, [[Fraction(v) for v in r]
                                            for r in rows])
    if ring == ZZ:
        return from_dense(ZZ, rows)
    return from_dense(ring, [[v % ring.p for v in r]
                                          for r in rows])


def toy_complex(ring, dims, boundaries):
    """Complex with the given dense boundaries d_n: C_n -> C_{n-1}; a zero
    top boundary is appended so every listed degree is reported."""
    policy = TruncationPolicy(0, len(dims) - 1)
    mats = {n: over(ring, rows) for n, rows in boundaries.items()}
    mats[len(dims)] = SparseMatrix(ring, dims[-1], 0)
    return TruncatedComplex(ring, policy, list(dims) + [0], mats, label="toy")


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


rationals = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-4, 4),
                                st.integers(1, 3)),
                      st.builds(Fraction, st.integers(-4, 4)))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), rationals, max_size=4),
                max_size=5), st.sampled_from([1, 1 << 70]))
@example([{0: Fraction(1, 2)}, {0: Fraction(1, 3)}], 1)
def test_matrix_values_are_read_at_one_common_scale(cols, big):
    # over Q a matrix with a Fraction value is read, aligned with its rows,
    # as one integer multiple of itself: the lcm of all its denominators;
    # int64 and big-int values are read as they stand
    M = SparseMatrix(QQ, 6, len(cols), cols)
    values, held = hom._integers(M, 0)
    common = lcm(*[Fraction(v).denominator for v in M.vals])
    assert len(values) == len(M.rows)
    assert all(type(w) is int and w for w in values)
    assert list(values) == [common * v for v in M.vals]
    assert max(map(abs, held), default=0) == max(map(abs, values), default=0)
    ints = [{k: Fraction(v).numerator * big for k, v in col.items()}
            for col in cols]
    for ring in (QQ, ZZ):
        N = SparseMatrix(ring, 6, len(ints), ints)
        assert (type(N.vals) is list) == (big > 1 and N.nnz() > 0)
        assert list(hom._integers(N, 0)[0]) == list(N.vals)


@st.composite
def composable_pairs(draw, values):
    """Dense d_prev (r x m) and d_n (m x k) with entries from ``values``."""
    r, m, k = (draw(st.integers(1, 5)) for _ in range(3))
    d_prev = [[draw(values) for _ in range(m)] for _ in range(r)]
    d_n = [[draw(values) for _ in range(k)] for _ in range(m)]
    return d_prev, d_n


@settings(max_examples=60, deadline=None)
@given(composable_pairs(rationals), st.sampled_from([QQ, ZZ, GF(3)]))
def test_kernel_callers_leave_their_columns_as_they_were(pair, ring):
    # the kernel reads a column of nonzero ints as it is, uncopied, so
    # no caller may change the columns it is given
    if ring == QQ:
        d_prev, d_n = (from_dense(QQ, rows) for rows in pair)
    else:
        d_prev, d_n = (over(ring, [[int(v) for v in row] for row in rows])
                       for rows in pair)
    before = copy.deepcopy((columns(d_prev), columns(d_n)))
    if ring.is_field:
        hom.field_rank(d_n)
        field_solve(d_prev, d_prev.column(0))
    else:
        hom.integer_rank(d_n)
    try:
        hom.check_dsquared_pair(d_prev, d_n, 1)
    except hom.HomologyError:
        pass
    assert (columns(d_prev), columns(d_n)) == before


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.randoms(use_true_random=False))
def test_rank_is_invariant_under_permutations(rows, rnd):
    rank = oracle_rank(rows)
    perm_rows = list(rows)
    rnd.shuffle(perm_rows)
    cols = list(range(len(rows[0])))
    rnd.shuffle(cols)
    permuted = [[r[c] for c in cols] for r in perm_rows]
    for ring in (QQ, GF(3)):
        assert hom.field_rank(over(ring, permuted)) == \
            hom.field_rank(over(ring, rows))
    assert hom.integer_rank(over(ZZ, permuted)) == rank


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_rational_integer_and_prime_ranks(rows):
    rank = oracle_rank(rows)
    assert hom.field_rank(over(QQ, rows)) == rank
    assert hom.integer_rank(over(ZZ, rows)) == rank
    for p in PRIMES:
        rp = hom.field_rank(over(GF(p), rows))
        assert rp == oracle_rank(rows, p)
        assert rp <= rank


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.integers(0, 3))
def test_bounded_rank_stops_at_a_true_bound(rows, slack):
    rank = oracle_rank(rows)
    for ring in (QQ, GF(5)):
        M = over(ring, rows)
        stats = {}
        assert hom.field_rank(M, bound=rank + slack, stats=stats) == \
            hom.field_rank(M)
        assert stats["of"] == M.ncols
        assert stats["cols"] <= stats["of"]
        assert stats["early_exit"] == (stats["cols"] < stats["of"])


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.lists(st.integers(0, 6), max_size=3),
       st.integers(0, 2), st.integers(0, 3))
def test_echelon_first_stream_matches_the_oracle(rows, dups, zeros, slack):
    # duplicate and zero columns: dependent columns the order must defer
    nc = len(rows[0])
    rows = [r + [r[d % nc] for d in dups] + [0] * zeros for r in rows]
    nr, nc = len(rows), len(rows[0])
    cols = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(nc)]
    order = list(hom._fresh_first(SparseMatrix(QQ, nr, nc, cols)))
    assert sorted(order) == list(range(nc))
    first = order[:len({max(c) for c in cols if c})]
    assert all(cols[j] for j in first)
    assert len({max(cols[j]) for j in first}) == len(first)
    assert order[len(first):] == [j for j in range(nc) if j not in first]
    for ring, p in ((QQ, None), (GF(2), 2), (GF(5), 5),
                    (GF(2147483647), 2147483647)):
        rank = oracle_rank(rows, p)
        M = over(ring, rows)
        # the kernel streams the columns, and the row count caps the rank
        vecs = [{k: w for k, v in enumerate(col) if (w := v % p if p else v)}
                for col in zip(*rows)]
        ordered = [[vecs[j].get(k, 0) for k in range(nr)] for j in
                   hom._fresh_first(SparseMatrix(ring, nr, nc, vecs))]
        for bound in (None, rank + slack):
            limit = nr if bound is None else min(bound, nr)
            # the stream takes columns until its prefix has rank ``limit``,
            # or takes them all; zero columns count as streamed
            expected = next((k for k in range(len(ordered) + 1)
                             if (oracle_rank(ordered[:k], p) if k else 0)
                             >= limit), len(ordered))
            stats = {}
            assert hom.field_rank(M, bound=bound, stats=stats) == rank
            assert stats["of"] == len(ordered)
            assert stats["cols"] == expected
            assert stats["early_exit"] == (stats["cols"] < stats["of"])


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.lists(entries, min_size=7, max_size=7),
       st.lists(entries, min_size=6, max_size=6))
def test_solve_witnesses_satisfy_the_system(rows, x0, b_free):
    nr, nc = len(rows), len(rows[0])
    for ring in (QQ, GF(3), GF(2147483647)):
        A = over(ring, rows)
        b = A.apply({j: ring.from_int(v) for j, v in enumerate(x0[:nc]) if v})
        x = field_solve(A, b)
        assert x is not None and A.apply(x) == b
        # an arbitrary right-hand side is solved exactly when it adds no rank
        b = {i: ring.from_int(v) for i, v in enumerate(b_free[:nr])
             if not ring.is_zero(ring.from_int(v))}
        x = field_solve(A, b)
        p = None if ring == QQ else ring.p
        aug = [r + [b_free[i]] for i, r in enumerate(rows)]
        if x is None:
            assert oracle_rank(aug, p) > oracle_rank(rows, p)
        else:
            assert A.apply(x) == b


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.integers(1, 8))
def test_kernel_samples_are_cycles(rows, limit):
    nr, nc = len(rows), len(rows[0])
    for ring in (QQ, GF(2)):
        C = toy_complex(ring, [nr, nc], {1: rows})
        sample = field_kernel_sample(C, 1, limit)
        p = None if ring == QQ else ring.p
        assert len(sample) == min(limit, nc - oracle_rank(rows, p))
        for z in sample:
            assert z and C.boundary(1).apply(z) == {}


@st.composite
def planted_rank_matrices(draw):
    """Dense rows of a sparse matrix of planted rank, up to 20 x 60.

    Up to ``nr`` basis columns have one to four entries in -2..2, each with
    a +-2 (a non-unit leading entry is likely, and over F_2 it vanishes);
    every other column is zero or a combination of up to three basis
    columns with coefficients in -2..2.  The columns come in a random
    order, so dependent columns reduce through chains of pivots."""
    nr = draw(st.integers(1, 20))
    k = draw(st.integers(0, nr))
    nc = draw(st.integers(max(k, 1), 60))
    rnd = draw(st.randoms(use_true_random=False))
    basis = []
    for _ in range(k):
        col = [0] * nr
        support = rnd.sample(range(nr), rnd.randint(1, min(4, nr)))
        for i in support:
            col[i] = rnd.choice((-2, -1, 1, 2))
        col[support[0]] = rnd.choice((-2, 2))
        basis.append(col)
    cols = list(basis)
    for _ in range(nc - k):
        col = [0] * nr
        for b in rnd.sample(basis, min(len(basis), rnd.randint(1, 3))):
            c = rnd.choice((-2, -1, 1, 2))
            col = [x + c * y for x, y in zip(col, b)]
        cols.append(col)
    rnd.shuffle(cols)
    return [list(r) for r in zip(*cols)]


def streamed_prefix(ordered, limit, p):
    """Columns the rank stream takes: the shortest prefix of ``ordered``
    of rank ``limit``, or all of it (prefix ranks grow, so bisect)."""
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if (oracle_rank(ordered[:mid], p) if mid else 0) >= limit:
            hi = mid
        else:
            lo = mid + 1
    return lo


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(planted_rank_matrices(), st.integers(0, 3),
       st.randoms(use_true_random=False))
def test_gauss_jordan_stream_on_planted_rank_matrices(rows, slack, rnd):
    nr, nc = len(rows), len(rows[0])
    for ring, p in ((QQ, None), (ZZ, None), (GF(2), 2), (GF(3), 3),
                    (GF(PRIMES[-1]), PRIMES[-1])):
        rank = oracle_rank(rows, p)
        M = over(ring, rows)
        vecs = [{k: w for k, v in enumerate(col) if (w := v % p if p else v)}
                for col in zip(*rows)]
        ordered = [[vecs[j].get(k, 0) for k in range(nr)] for j in
                   hom._fresh_first(SparseMatrix(ring, nr, nc, vecs))]
        cols = streamed_prefix(ordered, min(rank + slack, nr), p)
        stats = {}
        assert hom._rank(M, rank + slack, stats) == rank
        assert stats == {"cols": cols, "of": len(ordered),
                         "early_exit": cols < len(ordered)}
        if ring == ZZ:
            assert hom.integer_rank(M) == rank
            continue
        x0 = {j: ring.from_int(rnd.randint(-2, 2)) for j in range(nc)}
        b = M.apply({j: v for j, v in x0.items() if not ring.is_zero(v)})
        x = field_solve(M, b)
        assert x is not None and M.apply(x) == b
        b = {i: v for i in range(nr)
             if not ring.is_zero(v := ring.from_int(rnd.randint(-2, 2)))}
        x = field_solve(M, b)
        aug = [r + [b.get(i, 0)] for i, r in enumerate(rows)]
        if x is None:
            assert oracle_rank(aug, p) > rank
        else:
            assert M.apply(x) == b
        C = toy_complex(ring, [nr, nc], {1: rows})
        sample = field_kernel_sample(C, 1, nc)
        assert len(sample) == nc - rank
        for z in sample:
            assert z and M.apply(z) == {}


@settings(max_examples=60, deadline=None)
@given(int_matrices(max_rows=4, max_cols=5), int_matrices(max_rows=5))
def test_non_complex_is_rejected(d1, d2):
    # make the shapes compose: d2 maps into the domain of d1
    k = len(d1[0])
    d2 = [(d2[i] if i < len(d2) else d2[0]) for i in range(k)]
    assume(any(any(row) for row in matmul(d1, d2)))
    for ring in (QQ, GF(2147483647)):
        C = toy_complex(ring, [len(d1), k, len(d2[0])], {1: d1, 2: d2})
        with pytest.raises(hom.HomologyError):
            hom.homology_over_field(C)
    for ring in (QQ, ZZ):
        C = toy_complex(ring, [len(d1), k, len(d2[0])], {1: d1, 2: d2})
        assert not C.check_dsquared()


# -- the d^2 certificate against a dict-accumulation oracle ------------------

def oracle_dsquared_pair(d_prev, d_n, n):
    """d_prev d_n = 0 by one dict of row sums per column of d_n, mod p on
    the stored residues, over Q and Z on each column brought to ints by
    the lcm of its own denominators, d_prev's columns weighted to one
    common scale."""
    p = d_n.ring.characteristic

    def scaled(M):
        # (column times s, s) per column, s the lcm of its denominators
        out = []
        for col in columns(M):
            s = 1 if p else lcm(*[Fraction(v).denominator
                                  for v in col.values()])
            out.append(({k: int(v * s) for k, v in col.items()}, s))
        return out

    prev = scaled(d_prev)
    common = lcm(*[s for _, s in prev])
    for col, _ in scaled(d_n):
        acc = {}
        for k, v in col.items():
            w_k, s = prev[k]
            v *= common // s
            for r, w in w_k.items():
                acc[r] = acc.get(r, 0) + w * v
        if any(x % p if p else x for x in acc.values()):
            raise hom.HomologyError(
                f"d{n - 1} d{n} is not zero: not a chain complex")


CERT_RINGS = (QQ, ZZ, *map(GF, PRIMES))
BIG = PRIMES[-1]


def ring_entries(ring):
    if ring == QQ:
        return rationals
    if ring == ZZ:
        return st.one_of(entries, st.integers(-300, 300))
    p = ring.p
    return st.one_of(st.integers(0, min(p - 1, 4)),
                     st.integers(max(0, p - 4), p - 1),
                     st.integers(0, p - 1))


def sparse(ring, rows, ncols):
    """A ``SparseMatrix`` of ``ring`` from dense rows of entries."""
    p = ring.characteristic
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            v = v % p if p else v
            if v:
                cols[j][i] = v
    return SparseMatrix(ring, len(rows), ncols, cols)


def verdicts(d_prev, d_n):
    """(packed certificate, oracle) verdicts: True when d_prev d_n = 0."""
    out = []
    for check in (hom.check_dsquared_pair, oracle_dsquared_pair):
        try:
            check(d_prev, d_n, 2)
        except hom.HomologyError as exc:
            assert str(exc) == "d1 d2 is not zero: not a chain complex"
            out.append(False)
        else:
            out.append(True)
    return tuple(out)


@st.composite
def certificate_pairs(draw):
    """(ring, X, Y): dense r x k and k x c matrices of ring entries."""
    ring = draw(st.sampled_from(CERT_RINGS))
    r, k, c = (draw(st.integers(1, m)) for m in (6, 4, 3))
    vals = ring_entries(ring)
    X = [[draw(vals) for _ in range(k)] for _ in range(r)]
    Y = [[draw(vals) for _ in range(c)] for _ in range(k)]
    return ring, X, Y


def perturb(draw, ring, rows):
    """``rows`` with one entry changed."""
    rows = [list(row) for row in rows]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[0]) - 1))
    rows[i][j] += draw(st.sampled_from((1, -1, 2)))
    return rows


@settings(max_examples=300, deadline=None)
@given(certificate_pairs())
def test_dsquared_certificate_matches_the_oracle(data):
    ring, X, Y = data
    d_prev, d_n = sparse(ring, X, len(Y)), sparse(ring, Y, len(Y[0]))
    packed, oracle = verdicts(d_prev, d_n)
    assert packed == oracle
    if ring.characteristic:
        # any integer representative of a residue is read as that residue
        p = ring.characteristic
        cols = columns(d_n)
        for col in cols:
            for k in col:
                col[k] -= p * (k % 3)
        d_n = SparseMatrix(ring, d_n.nrows, d_n.ncols, cols)
        assert verdicts(d_prev, d_n) == (oracle, oracle)


@settings(max_examples=300, deadline=None)
@given(certificate_pairs(), st.booleans(), st.data())
def test_dsquared_certificate_on_vanishing_pairs(data, stacked, draw):
    # [X | X] over [Y ; -Y] has every slot sum X Y - X Y; [X | I] over
    # [Y ; -X Y] has X Y + (-X Y), over F_p a nonzero multiple of p
    # whenever the lifted X Y leaves (-p/2, p/2).  Both vanish; one changed
    # entry of either factor must give the oracle's verdict.
    ring, X, Y = data
    r = len(X)
    if stacked:
        left = [row + row for row in X]
        right = Y + [[-v for v in row] for row in Y]
    else:
        left = [row + [int(i == a) for a in range(r)]
                for i, row in enumerate(X)]
        right = Y + [[-v for v in row] for row in matmul(X, Y)]
    width = len(right)
    assert verdicts(sparse(ring, left, width),
                    sparse(ring, right, len(Y[0]))) == (True, True)
    if draw.draw(st.booleans()):
        left = perturb(draw.draw, ring, left)
    else:
        right = perturb(draw.draw, ring, right)
    packed, oracle = verdicts(sparse(ring, left, width),
                              sparse(ring, right, len(Y[0])))
    assert packed == oracle


@pytest.mark.parametrize("ring, left, right, vanishes", [
    # slot sums at the bound: the column [4, -1] packs to 4 - 4 = 0 in
    # slots one bit narrower (over Q, [1/2, -1/8] scales to it)
    (ZZ, [[4], [-1]], [[1]], False),
    (QQ, [[Fraction(1, 2)], [Fraction(-1, 8)]], [[1]], False),
    # bound = p: the integer product 2 (or 3) is a multiple of p
    (GF(2), [[1, 1]], [[1], [1]], True),
    (GF(3), [[1, 1, 1]], [[1], [1], [1]], True),
    (GF(3), [[1, 1, 1], [1, 1, 0]], [[1], [1], [1]], False),
    # the word-size prime with an integer product of exactly p
    (GF(BIG), [[BIG // 2, 1]], [[2], [1]], True),
    (GF(BIG), [[BIG // 2, 1], [1, 0]], [[2], [1]], False),
    # the longest column of d_n and its largest entry in different
    # columns: over F_5 the bound, 1 * 3 * 2 = 6, exceeds every column's
    # max |w| * sum |v|, at most 3, and takes the offset test where those
    # sums would take the zero test; over Z the bound is the largest sum
    (GF(5), [[1, -1, 0]], [[1, 0], [1, 0], [1, 2]], True),
    (GF(5), [[1, -1, 1]], [[1, 0], [1, 0], [1, 2]], False),
    (ZZ, [[0, 1, -1]], [[1, 3], [1, 0], [1, 0]], True),
    (ZZ, [[1, 1, -1]], [[1, 3], [1, 0], [1, 0]], False),
    # over F_3 every lifted entry is +-1, so the bound is the longest
    # column, here 3 = p: the integer products 3 are multiples of p
    (GF(3), [[1, 1, 1]], [[1, 1], [1, 2], [1, 0]], True),
    (GF(3), [[1, 1, 1]], [[1, 1], [1, 1], [1, 0]], False),
])
def test_dsquared_certificate_edge_pairs(ring, left, right, vanishes):
    assert verdicts(sparse(ring, left, len(right)),
                    sparse(ring, right, len(right[0]))) == (vanishes,) * 2


def integer_kernel(d1):
    """Integer vectors spanning the kernel of d1 over Q."""
    nc = len(d1[0])
    out = []
    for z in field_kernel_sample(toy_complex(QQ, [len(d1), nc], {1: d1}),
                                     1, nc):
        scale = lcm(*(v.denominator for v in z.values()))
        out.append([int(z.get(i, 0) * scale) for i in range(nc)])
    return out


@settings(max_examples=60, deadline=None)
@given(int_matrices(max_rows=4, max_cols=6), st.randoms(use_true_random=False))
def test_bounded_homology_of_a_complex_matches_the_oracle(d1, rnd):
    # d2 is built from integer kernel vectors of d1, so d1 d2 = 0 over Z
    nc = len(d1[0])
    cols = integer_kernel(d1)
    cols += [[0] * nc] * rnd.randrange(2)
    for c in list(cols[:rnd.randrange(3)]):
        m = rnd.randrange(-2, 3)
        cols.append([m * a + b for a, b in zip(cols[0], c)])
    assume(cols)
    d2 = [list(r) for r in zip(*cols)]
    dims = [len(d1), nc, len(cols)]
    for ring, p in ((QQ, None), (GF(3), 3), (ZZ, None)):
        r1, r2 = oracle_rank(d1, p), oracle_rank(d2, p)
        res = hom.compute_homology(toy_complex(ring, dims, {1: d1, 2: d2}))
        assert res.betti == [dims[0] - r1, dims[1] - r1 - r2, dims[2] - r2]


@st.composite
def kernel_chains(draw):
    """Dense boundaries d_1 .. d_k, k = 3 or 4, with d_n d_{n+1} = 0 over Z:
    d_1 is random, and each column of d_{n+1} is a combination of up to
    three integer kernel vectors of d_n with coefficients in -2..2."""
    rnd = draw(st.randoms(use_true_random=False))
    mats = [draw(int_matrices(max_rows=4, max_cols=7))]
    for _ in range(draw(st.integers(2, 3))):
        nc = len(mats[-1][0])
        basis = integer_kernel(mats[-1])
        cols = []
        for _ in range(draw(st.integers(1, 9))):
            col = [0] * nc
            for b in rnd.sample(basis, min(len(basis), rnd.randint(0, 3))):
                c = rnd.choice((-2, -1, 1, 2))
                col = [x + c * y for x, y in zip(col, b)]
            cols.append(col)
        mats.append([list(r) for r in zip(*cols)])
    return mats


@settings(max_examples=60, deadline=None)
@given(kernel_chains())
def test_cleared_rank_streams_match_plain_ones(mats):
    # the complex, and its dual (the transposes in reverse order), so that
    # every boundary is streamed as it is and transposed, tall or wide
    dual = [[list(r) for r in zip(*d)] for d in reversed(mats)]
    for chain_ in (mats, dual):
        dims = [len(chain_[0])] + [len(d[0]) for d in chain_]
        boundaries = dict(enumerate(chain_, 1))
        for ring, p in ((QQ, None), (GF(3), 3),
                        (GF(2147483647), 2147483647)):
            ranks = [0] + [oracle_rank(d, p) for d in chain_] + [0]
            res = hom.homology_over_field(toy_complex(ring, dims, boundaries))
            assert res.betti == [dims[n] - ranks[n] - ranks[n + 1]
                                 for n in range(len(dims))]
            for n, d in boundaries.items():
                M = over(ring, d)
                bound = None if n == 1 else dims[n - 1] - ranks[n - 1]
                stats, pivots = {}, []
                assert hom.field_rank(M, bound, stats, pivots=pivots) == \
                    ranks[n]
                assert res.rank_stats[f"d{n}"] == stats
                # the pivots reported are independent columns of d_n
                assert len(set(pivots)) == len(pivots) == ranks[n]
                if pivots:
                    assert oracle_rank([[r[j] for j in pivots] for r in d],
                                       p) == ranks[n]


# -- the integral Smith path: unit-pivot stream, lattice, dense finisher -----

def permuted(rows, rnd):
    rows = list(rows)
    rnd.shuffle(rows)
    cols = list(range(len(rows[0])))
    rnd.shuffle(cols)
    return [[r[c] for c in cols] for r in rows]


@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(int_matrices(max_rows=8, max_cols=9), st.randoms(use_true_random=False))
def test_unit_stream_agrees_with_the_dense_smith_form(rows, rnd):
    M = over(ZZ, rows)
    dense = hom.diagonalize_integer_matrix(M)
    rank = sum(1 for d in dense if d)
    factors = hom._invariant_factors(dense)
    assert rank == oracle_rank(rows)
    for mat in (M, over(ZZ, permuted(rows, rnd))):
        stats = {}
        diag = hom._smith_diagonal(mat, stats=stats)
        assert sum(1 for d in diag if d) == rank
        assert hom._invariant_factors(diag) == factors
        assert hom.invariant_factors(mat) == factors
        nr, nc = stats["left"]
        assert stats["units"] + nr <= mat.nrows
        assert stats["units"] + nc <= mat.ncols
        assert nc <= nr


def determinantal_divisors(rows):
    """d_k, the gcd of all k x k minors, for k = 1 .. min(shape) while it is
    nonzero; each minor by the permutation expansion."""
    def det(m):
        return sum((-1) ** sum(p[i] > p[j] for i in range(len(p))
                               for j in range(i + 1, len(p)))
                   * prod(m[i][p[i]] for i in range(len(p)))
                   for p in itertools.permutations(range(len(m))))

    out = []
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = gcd(*(det([[rows[i][j] for j in cs] for i in rs])
                  for rs in itertools.combinations(range(len(rows)), k)
                  for cs in itertools.combinations(range(len(rows[0])), k)))
        if not d:
            break
        out.append(d)
    return out


@settings(max_examples=150, deadline=None)
@given(int_matrices(max_rows=4, max_cols=4))
# a column operation refills the pivot's column: Smith form diag(1, 1, 4)
@example([[-2, 0, -2], [2, 2, -1], [-1, 0, -2]])
def test_dense_smith_form_matches_the_determinantal_divisors(rows):
    # the invariant factors are d_k / d_{k-1}, independent of any
    # elimination; both the dense finisher alone and the column stream
    # must give them
    divisors = determinantal_divisors(rows)
    factors = [d // e for d, e in zip(divisors, [1] + divisors) if d != e]
    dense = hom.diagonalize_integer_matrix(over(ZZ, rows))
    assert sum(1 for d in dense if d) == len(divisors)
    assert hom._invariant_factors(dense) == factors
    assert hom.invariant_factors(over(ZZ, rows)) == factors


def unimodular(rnd, n):
    """A random integer matrix of determinant +-1 and its inverse."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [list(r) for r in U]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rnd.sample(range(n), 2)
        c = rnd.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]  # row i += c row j
        for r in V:                                      # column j -= c col i
            r[j] -= c * r[i]
    for i in range(n):
        if rnd.random() < 0.5:
            U[i] = [-a for a in U[i]]
            for r in V:
                r[i] = -r[i]
    return U, V


def group_factors(orders):
    """Invariant factors of the sum of the cyclic groups Z/k, k in ``orders``,
    from the prime powers of each k (no Smith form involved)."""
    powers = {}
    for k in orders:
        p = 2
        while k > 1:
            q = 1
            while k % p == 0:
                k, q = k // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    width = max((len(qs) for qs in powers.values()), default=0)
    out = [1] * width
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            out[width - 1 - i] *= q
    return out


@st.composite
def elementary_complexes(draw):
    """Direct sums of Z in one degree and of Z --k--> Z (k = 1 is acyclic,
    k > 1 leaves Z/k one degree down), conjugated by random unimodular
    changes of basis; returns the complex with its exact homology."""
    top = draw(st.integers(1, 3))
    free = draw(st.lists(st.integers(0, top), max_size=4))
    arrows = draw(st.lists(st.tuples(st.integers(1, top),
                                     st.sampled_from((1, 1, 2, 3, 4, 6, 9))),
                           max_size=6))
    rnd = draw(st.randoms(use_true_random=False))
    dims = [0] * (top + 1)
    entries = {n: [] for n in range(1, top + 1)}
    for n in free:
        dims[n] += 1
    for n, k in arrows:
        entries[n].append((dims[n - 1], dims[n], k))
        dims[n - 1] += 1
        dims[n] += 1
    bases = [unimodular(rnd, d) for d in dims]
    mats = {}
    for n in range(1, top + 1):
        d = [[0] * dims[n] for _ in range(dims[n - 1])]
        for r, c, k in entries[n]:
            d[r][c] = k
        U, V = bases[n - 1][0], bases[n][1]
        d = matmul(matmul(U, d), V) if dims[n] and dims[n - 1] else d
        mats[n] = from_entries(
            ZZ, dims[n - 1], dims[n],
            [(i, j, v) for i, row in enumerate(d) for j, v in enumerate(row)
             if v])
    mats[top + 1] = SparseMatrix(ZZ, dims[top], 0)
    C = TruncatedComplex(ZZ, TruncationPolicy(0, top), dims + [0], mats,
                         label="elementary")
    betti = [free.count(n) for n in range(top + 1)]
    torsion = [group_factors([k for m, k in arrows if m == n + 1 and k > 1])
               for n in range(top + 1)]
    return C, betti, torsion


@settings(max_examples=60, deadline=None)
@given(elementary_complexes())
def test_integral_homology_of_elementary_complexes(data):
    C, betti, torsion = data
    assert C.check_dsquared()
    res = hom.homology_over_Z(C)
    assert res.betti == betti
    assert res.torsion == torsion
    for p in (2, 3):
        assert hom.uct_check(C, p)["ok"]


@st.composite
def integer_complexes(draw):
    """Dims and dense boundaries of a random integer complex C2 -> C1 -> C0:
    d2 is made of multiples and sums of integer kernel vectors of d1, so
    H1 may have torsion, and C0 may have torsion in its cokernel."""
    d1 = draw(int_matrices(max_rows=4, max_cols=5))
    rnd = draw(st.randoms(use_true_random=False))
    nc = len(d1[0])
    kernel = integer_kernel(d1)
    cols = []
    for z in kernel:
        m = rnd.choice((1, 2, 3, -2, 6))
        cols.append([m * a for a in z])
    for c in list(cols[:rnd.randrange(3)]):
        m, z = rnd.randrange(-2, 3), rnd.choice(kernel)
        cols.append([a + m * b for a, b in zip(c, z)])
    cols += [[0] * nc] * (not cols or rnd.randrange(2))
    d2 = [list(r) for r in zip(*cols)]
    return [len(d1), nc, len(cols)], {1: d1, 2: d2}


@settings(max_examples=60, deadline=None)
@given(integer_complexes(), st.integers(0, 2))
def test_integral_solves_of_one_complex_agree_with_fresh_ones(data, k):
    # a complex keeps the Smith diagonal of each boundary: a bounded solve,
    # a full one and the coefficient checks on one complex give what each
    # gives on a freshly built complex with the same boundaries, stats
    # included, and stats a caller writes to are its own
    dims, rows = data

    def over_z(C, up_to=None):
        res = hom.homology_over_Z(C, up_to)
        return res, copy.deepcopy(res.rank_stats)

    def fresh():
        return toy_complex(ZZ, dims, rows)

    C = fresh()
    assert C.check_dsquared()
    bounded, full = over_z(C, k), over_z(C)
    checks = [hom.uct_check(C, p) for p in (2, 3)]
    assert bounded == over_z(fresh(), k)
    assert full == over_z(fresh())
    assert checks == [hom.uct_check(fresh(), p) for p in (2, 3)]
    assert all(check["ok"] for check in checks)
    for res, _ in (bounded, full):
        for stats in res.rank_stats.values():
            stats["units"] = -1
            stats["left"].append(0)
    assert over_z(C) == full


# -- the cleared, bounded integral stream -------------------------------------

# orders of the planted torsion: primes, prime powers, mixed products, and
# a prime above the range of the early exit's trial division
ORDERS = (1, 2, 3, 4, 9, 8, 6, 12, 25, 2147483647)


@st.composite
def planted_torsion_complexes(draw):
    """Dims and dense boundaries of an integer complex: Z in one degree, Z
    --k--> Z for orders k from ``ORDERS``, and extra columns in each d_n
    that are random multiples of cycles of C_{n-1} (some of which cut a
    planted order down), all conjugated by random unimodular changes of
    basis."""
    top = draw(st.integers(1, 3))
    rnd = draw(st.randoms(use_true_random=False))
    dims = [0] * (top + 1)
    cycles = {n: [] for n in range(top + 1)}
    for n in draw(st.lists(st.integers(0, top), max_size=3)):
        cycles[n].append(dims[n])
        dims[n] += 1
    entries = {n: [] for n in range(1, top + 1)}
    for n, k in draw(st.lists(st.tuples(st.integers(1, top),
                                        st.sampled_from(ORDERS)),
                              max_size=5)):
        cycles[n - 1].append(dims[n - 1])
        entries[n].append((dims[n - 1], dims[n], k))
        dims[n - 1] += 1
        dims[n] += 1
    for n in range(1, top + 1):
        for _ in range(draw(st.integers(0, 4)) if cycles[n - 1] else 0):
            for r in rnd.sample(cycles[n - 1],
                                rnd.randint(1, len(cycles[n - 1]))):
                entries[n].append((r, dims[n], rnd.choice((1, 2, 3, 4, 6))))
            dims[n] += 1
    bases = [unimodular(rnd, d) for d in dims]
    rows = {}
    for n in range(1, top + 1):
        d = [[0] * dims[n] for _ in range(dims[n - 1])]
        for r, c, k in entries[n]:
            d[r][c] += k
        if dims[n] and dims[n - 1]:
            d = matmul(matmul(bases[n - 1][0], d), bases[n][1])
        rows[n] = d
    return dims, rows


def integer_complex(dims, rows):
    """The complex of dense integer boundaries ``rows[n]`` (empty when a
    dimension is 0), with a zero top boundary."""
    mats = {n: from_entries(
        ZZ, dims[n - 1], dims[n],
        [(i, j, v) for i, row in enumerate(d) for j, v in enumerate(row)
         if v]) for n, d in rows.items()}
    mats[len(dims)] = SparseMatrix(ZZ, dims[-1], 0)
    return TruncatedComplex(ZZ, TruncationPolicy(0, len(dims) - 1),
                            list(dims) + [0], mats, label="planted")


def smith_summary(diag):
    return sum(1 for d in diag if d), hom._invariant_factors(diag)


@settings(max_examples=100, deadline=None)
@given(planted_torsion_complexes())
# the prefix [4] reaches the bound, and the column 2 lies in its span mod 2
# but halves it: the exit needs every exponent 1
@example(([1, 2], {1: [[4, 2]]}))
# the prefix [2] vanishes mod 2, so the witness is free on its row and
# flags the column 3, which the lattice over Z would hide
@example(([1, 2], {1: [[2, 3]]}))
# column 0 of d1 is a lattice vector until column 1 makes a unit on its
# row; seeding it too would drop all of d2
@example(([1, 2, 1], {1: [[2, 1]], 2: [[1], [-2]]}))
# the witness for the torsion [3] reads entries such as 82 and -34, whose
# slot sums stay within its bound only as their lifts to (-3/2, 3/2]
@example(([3, 8], {1: [[5, 82, -6, 0, 5, 5, 5, -26],
                       [0, 3, 0, 0, 0, 0, 0, 1],
                       [-2, -34, 3, 0, -2, -2, -2, 10]]}))
def test_seeded_bounded_smith_streams_match_plain_ones(data):
    # the stream of each d_n, cleared by the unit pivot columns of d_{n-1}
    # and stopped at dim C_{n-1} - rank d_{n-1} with its torsion certified
    # mod p, has the rank and invariant factors of the plain stream and of
    # the dense Smith form
    dims, rows = data
    C = integer_complex(dims, rows)
    for n in range(1, len(dims) + 1):
        d = C.boundary(n)
        stream = C.boundary_stream(n)
        summary, stats = (stream.rank, list(stream.factors)), stream.stats
        assert summary == smith_summary(hom._smith_diagonal(d))
        assert summary == smith_summary(hom.diagonalize_integer_matrix(d))
        assert stats["of"] == d.ncols
        assert stats["early_exit"] == (stats["cols"] < stats["of"])


def test_an_exponent_above_one_streams_every_column():
    # c2 epi at (1, 3) over Z: the prefix of d4 that reaches the bound
    # already has the torsion [2, 2, 4]; 4 is not square-free, so the
    # stream goes on to the last column, and the factors are the plain
    # stream's
    algebra = ia.cyclic_group_algebra(2, ZZ)
    C = build_epi_complex(algebra, TruncationPolicy(1, 3))
    stream = C.boundary_stream(4)
    assert stream.factors == (2, 2, 4)
    assert (stream.rank, [2, 2, 4]) == smith_summary(
        hom._smith_diagonal(C.boundary(4)))
    assert (stream.stats["cols"], stream.stats["early_exit"]) == (5602, False)
    assert C.boundary_stream(3).stats["early_exit"]


def test_dsquared_certificates_pass_from_z_to_its_reductions_only():
    # d1 d2 = [2]: zero mod 2, not over Z.  Solving the reduction first
    # must not make the integer complex a chain complex (that a reduction
    # reads the pairs certified over Z is
    # test_integral_job_certifies_each_dsquared_pair_once)
    C = toy_complex(ZZ, [1, 2, 1], {1: [[1, 1]], 2: [[1], [1]]})
    assert hom.homology_over_field(reduce_mod_p(C, 2)).betti == [0, 0, 0]
    assert not C.check_dsquared()
    with pytest.raises(hom.HomologyError):
        hom.homology_over_Z(C)
    with pytest.raises(hom.HomologyError):
        hom.homology_over_field(reduce_mod_p(C, 3))
