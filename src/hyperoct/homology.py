"""Exact homology of truncated complexes.

Every rank runs through one streaming column elimination, ``_eliminate``,
on integer columns: residues mod p over F_p, fraction-free over Z and Q.
One reader, ``_integers``, turns a boundary's values into those ints; over
Q it reads a boundary with a ``Fraction`` value at one common scale, the
lcm of all its denominators, so the kernels see one integer multiple of
it.  The pivots are kept in Gauss-Jordan form, each zero at every other
pivot's leading row, so a column is reduced in one pass over its own
entries and is dependent exactly when nothing is left of it.  The stream
stops once the rank reaches a caller's bound; a complex bounds rank d_n
by dim ker d_{n-1}, which it certifies first by checking d_{n-1} d_n = 0
exactly, on the same integer columns.  The check, ``check_dsquared_pair``,
is Kronecker substitution: each column of d_{n-1} is packed into one
Python int with a fixed-width slot per row, so a column of the product is
a sum of one big-integer multiple per nonzero of d_n, and a zero test (or,
mod a small prime, a test on the sum offset to non-negative slots) reads
every slot at once.  Ranks stream their columns echelon-first: every
column whose leading row no earlier column has goes first, each
independent of those before it, then the rest in their original order.
Rank does not depend on column order; only the count of columns streamed
before the bound stops the stream does.

Every boundary, over every ring, is one column stream (``column_stream``:
``field_rank`` over a field, ``_smith_diagonal`` over Z), chained in one
place, ``TruncatedComplex.boundary_stream``: the stream of d_n needs that
of d_{n-1} and a certified d_{n-1} d_n = 0, is seeded by the pivot
columns of d_{n-1}, stops at dim C_{n-1} - rank d_{n-1} (dim C_0 for d_1)
and hands its own pivot columns on.  ``homology_over_field`` and
``homology_over_Z`` read that chain, so the homology report and the
universal-coefficient check of one complex share one stream per boundary.

The seeds are clearing (Chen-Kerber, "a twist"; de Silva-Morozov-
Vejdemo-Johansson): the stream of d_n starts with one unit pivot e_r, with
an empty tail, for each column r of d_{n-1} that became a pivot, the set
J.  This is exact.  The d^2 check gives im d_n in ker d_{n-1}; the columns
J are independent under d_{n-1}, so ker d_{n-1} meets span(e_J) in 0.  A
column c of d_n that is a + b, a spanned by earlier columns and b by e_J,
has b = c - a in ker d_{n-1}, so b = 0: c depends on the earlier columns
and e_J exactly when it depends on the earlier columns alone.  So every
column is a pivot or not as before, and the stream stops at the same
column, its bound raised by |J| (to dim C_{n-1}); only the fill on the
rows J goes.  At the end every tail lies on rows that lead no pivot and
are no seed: dim C_{n-1} - rank d_{n-1} - rank d_n = beta_{n-1} of them
(none when the stream stopped at its bound), so a boundary with more rows
than columns streams its columns with tails no longer than the Betti
number below it.  Over Z only unit pivots clear (below), and the tails
lie on the rows that lead no unit pivot of either stream.

Integer homology goes through a Smith form, whose diagonal gives rank and
torsion.  ``_smith_diagonal`` streams the columns of a boundary once and
keeps none of them: it keeps unit pivots in Gauss-Jordan form, pivot r
being e_r plus a tail on the rows that lead no unit pivot, and a lattice
of integer vectors on those same rows, in echelon form, one per leading
row.  The unit pivots run through ``_eliminate``'s two helpers: a column
reduces in one pass (``_reduce_column``), and a residual with an entry
+-1 becomes a unit pivot at its largest such row, negated if that entry is
-1, and is back-substituted into every unit pivot whose tail has that row
(``_install_pivot``, which never divides a pivot with lead 1).  The new
pivot is then subtracted from every lattice vector with an entry there,
which is folded again.  Any other residual is folded into the lattice:
against vector u with lead a at the residual v's largest row, whose entry
there is b, v -= (b/a) u when a divides b, and otherwise, with
x a + y b = g = gcd(a, b) from ``rings.xgcd``,

    (u, v) <- (x u + y v, (b/g) u - (a/g) v),   determinant -1,

which leaves u the lead g and v none there; v goes on to its next largest
row, and joins the lattice at a row that leads no vector.

The result is equivalent to the boundary M: every step is a column
operation of determinant +-1 (adding a multiple of one column to another,
negating one, or the 2x2 fold step), so M is equivalent to the matrix of
the unit pivots, the lattice vectors and zero columns.  Every row that
leads a unit pivot is zero in every other vector: a residual has none,
the pivot made on a row clears it from the tails (through the row ->
pivots ``where`` index, as in ``_eliminate``) and from the lattice, and
the vectors a fold combines are zero there already.  With the unit rows
and pivots first, that matrix is [[I, 0], [T, L]], and the unit rows clear
T without touching L.  So M ~ diag(1, ..., 1) (+) L: one 1 per unit
pivot, then the Smith form of L.  Lattice vectors lead on distinct rows,
so they are independent and no more than the rows they touch;
``diagonalize_integer_matrix``, the dense finisher, runs on that small
block once per boundary.  Memory is the unit pivots and the lattice.

Over Z the chain clears with unit pivots only: the stream of d_n starts
with e_r, empty tail, for each column r of d_{n-1} that became a unit
pivot, the set J.  A seed only drops a coordinate (no tail or lattice
vector has an entry on a leading row), so the seeded stream is the plain
stream of pi(d_n), pi dropping the coordinates J, plus |J| units.  On
their leading rows R, the unit pivots of d_{n-1} are the columns J times
a unimodular matrix (each is a column of J less multiples of earlier unit
pivots and of its own stream's seeds, which are zero on R, and no lattice
vector is ever added to one), and there they are the identity, so
d_{n-1}[R, J] is unimodular.  pi is injective on ker d_{n-1}: a kernel
vector k on J has d_{n-1}[R, J] k_J = 0, so k = 0.  Its image is
saturated: if m w = pi(k), k in the kernel, write k = y + m w with y on
J; then d_{n-1}[R, J] y_J = -m d_{n-1}(w)[R], so y is in m Z^J, and k / m
is an integer kernel vector with pi(k / m) = w.  So pi maps ker d_{n-1}
onto a direct summand, and im d_n, inside it, to a sublattice with the
same quotient: pi(d_n) has the rank and invariant factors of d_n.

Early exit: rank d_n <= bound = dim C_{n-1} - rank d_{n-1}, so the
echelon-first stream stops once its units and lattice vectors reach the
bound.  Every later column of pi(d_n) lies in the rational span of the
streamed prefix P, so im P is a sublattice of im pi(d_n) of the same
rank, and the final torsion T is a quotient of the prefix torsion T_P
(each is S / im, S the saturation of both images): no prime outside T_P
divides T, and T has no more factors divisible by p than T_P.  The
factors divisible by p number rank_Q - rank_Fp, for d_n and for P alike,
and rank_Q P = rank_Q d_n.  So T and T_P have the same p-part once T_P's
p-part is (Z/p)^k, every exponent 1, and every column lies in the mod-p
span of P.  ``_witness_flags`` finds, for each prime of T_P, the columns
outside that span by one packed pass against a basis of its left kernel
(packed and tested as ``check_dsquared_pair`` packs and tests), and only
those are streamed.  If the torsion of the enlarged prefix has every
exponent 1, each of its primes is one of T_P, so every unstreamed column
lies in its mod-p span, and the stream stops.  Otherwise, or when trial
division cannot factor a torsion order, the rest is streamed as before.
Over Z the d^2 check runs even without ``--verify``: the bound needs it.
The universal-coefficient check, ``uct_check``, reads the integral Smith
data and the homology mod p of one complex.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import islice, repeat
from math import gcd, lcm
from operator import sub

from .matrices import SparseMatrix
from .rings import ZZ, GF, xgcd


class HomologyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the elimination kernel
# ---------------------------------------------------------------------------

def _matrix_columns(M: SparseMatrix, js, p: int):
    """The integer columns of ``M`` at ``js``, as (row, value) pairs read
    from its arrays: mod p the stored residues, over Q and Z the values
    ``_integers`` reads."""
    starts, rows = M.starts, M.rows
    vals = M.vals if p else _integers(M, 0)[0]
    for j in js:
        a, b = starts[j], starts[j + 1]
        yield zip(rows[a:b], vals[a:b])


def _subtract(target: dict, c: int, source: dict, p: int = 0):
    """``target -= c * source`` in place, entries kept in (-p/2, p/2] mod
    ``p`` (or left as they come with ``p == 0``); entries that reach 0 are
    dropped.  ``c`` and the entries of ``source`` are nonzero (mod p)."""
    h = (p - 1) // 2
    for i, w in source.items():
        x = target.get(i, 0) - c * w
        if p:
            x = (x + h) % p - h
        if x:
            target[i] = x
        else:
            del target[i]


def _reduce_column(col, tails: dict, lead: dict, p: int) -> dict:
    """The residual of the column with the (row, value) pairs ``col``
    against the pivots ``tails`` (pivot r is ``lead.get(r, 1) e_r +
    tails[r]``, its tail on rows that lead no pivot): one pass over the
    column's own entries, subtracting the pivot of each leading row among
    them.  The residual lies on non-leading rows only.  Mod ``p`` its
    entries are kept in (-p/2, p/2]; with ``p == 0`` it is fraction-free,
    scaled by the lcm of the leading entries it meets (1 when ``lead`` is
    empty)."""
    h = (p - 1) // 2
    vec, hits = {}, []
    for k, v in col:
        t = tails.get(k)
        if t is None:
            if p:
                v = (v + h) % p - h
                if not v:
                    continue
            vec[k] = v
        elif t:
            # an empty tail only drops the entry
            hits.append((k, v))
    scale = 1
    if hits and lead and not p:
        scale = lcm(*[lead.get(k, 1) for k, _ in hits])
        if scale != 1:
            vec = {k: v * scale for k, v in vec.items()}
    for k, c in hits:
        if p:
            c = (c + h) % p - h
            if not c:
                continue
        else:
            c *= scale // lead.get(k, 1)
        _subtract(vec, c, tails[k], p)
    return vec


def _install_pivot(vec: dict, r: int, tails: dict, lead: dict, where,
                   p: int) -> dict:
    """Make the residual ``vec`` the pivot of its row ``r`` and keep the
    pivots in Gauss-Jordan form; returns the new pivot's tail.

    The pivot is scaled to lead 1 mod ``p``, and negated to a positive
    lead with ``p == 0``.  It is back-substituted into each pivot whose
    tail has row ``r``, found through ``where`` (row -> pivots whose tail
    listed it; an entry may since be gone, and the pivot is then skipped);
    with a lead a != 1 that pivot is first scaled by a, and a pivot with a
    lead in ``lead`` is then divided by the gcd of its lead and tail.  No
    other pivot is divided: its gcd is gcd(1, ...) = 1, and in the Smith
    stream, whose ``lead`` stays empty, a division would not be
    unimodular."""
    h = (p - 1) // 2
    a = vec.pop(r)
    if p and a != 1:
        c = pow(a, -1, p)
        vec = {i: (w * c + h) % p - h for i, w in vec.items()}
        a = 1
    elif a < 0:
        a = -a
        vec = {i: -w for i, w in vec.items()}
    for q in where.pop(r, ()):
        t = tails[q]
        c = t.pop(r, None)
        if c is None:
            continue
        for i in vec.keys() - t.keys():
            where[i].append(q)
        if a != 1:
            lead[q] = lead.get(q, 1) * a
            for i in t:
                t[i] *= a
        _subtract(t, c, vec, p)
        # copied, because a dict keeps its size after deletions
        tails[q] = t = dict(t)
        if q in lead:
            g = gcd(lead[q], *t.values())
            if g != 1:
                lead[q] //= g
                for i in t:
                    t[i] //= g
    if a != 1:
        lead[r] = a
    tails[r] = dict(vec)
    for i in vec:
        where[i].append(r)
    return vec


def _eliminate(cols, p: int = 0, bound: int | None = None,
               lead: dict | None = None, tails: dict | None = None):
    """Stream integer columns, each given as its (row, value) pairs,
    through one Gauss-Jordan column form.

    A pivot is kept as its leading row r, its leading entry (1 mod p; only
    entries other than 1 are held, in ``lead``) and its tail, the entries
    off r.  Every tail lies on rows that lead no pivot, so a column
    reduces in one pass over its own entries (``_reduce_column``).  The
    column depends on the earlier ones exactly when nothing is left of
    it; otherwise the residual becomes the pivot of its largest row and is
    back-substituted into the others (``_install_pivot``).

    Columns are read as they are: mod ``p`` any representative of a
    residue will do, and the kernel's entries are kept in (-p/2, p/2], so
    that +-1 and +-2 stay small ints for a word-size prime.  With
    ``p == 0`` elimination is fraction-free: a column is scaled by the lcm
    of the leading entries it meets, a back-substituted pivot by the new
    leading entry, and each is divided by the gcd of its entries.

    Yields, per streamed column, whether it became a pivot.  Streaming
    stops once the rank reaches ``bound``.  A caller that passes ``lead``
    and ``tails`` owns the pivots they hold: pivot r is
    ``lead.get(r, 1) e_r + tails[r]``."""
    lead = {} if lead is None else lead
    tails = {} if tails is None else tails
    where = defaultdict(list)
    for col in cols:
        if bound is not None and len(tails) >= bound:
            return
        vec = _reduce_column(col, tails, lead, p)
        if not p and vec:
            g = gcd(*vec.values())
            if g != 1:
                vec = {i: w // g for i, w in vec.items()}
        if not vec:
            yield False
            continue
        _install_pivot(vec, max(vec), tails, lead, where, p)
        yield True


def _fresh_first(M: SparseMatrix, order: list | None = None):
    """The column indices of ``M`` in echelon-first order, each also
    appended to ``order``: first every column whose leading row (the first
    row it stores, ``matrices``) no earlier column has, each independent
    of the group's earlier ones, then the rest in their original order."""
    starts, rows = M.starts, M.rows
    order = [] if order is None else order
    first = bytearray(M.ncols)
    seen: set = set()
    for j in range(M.ncols):
        a = starts[j]
        if a < starts[j + 1]:
            r = rows[a]
            if r not in seen:
                seen.add(r)
                first[j] = 1
                order.append(j)
                yield j
    for j in range(M.ncols):
        if not first[j]:
            order.append(j)
            yield j


def _rank(M: SparseMatrix, bound: int | None = None,
          stats: dict | None = None, seeds=(),
          pivots: list | None = None) -> int:
    """Rank through the kernel, streaming the columns in echelon-first
    order (``_fresh_first``): when most of the rank lies in its first
    group, as for the epi boundaries, a bounded stream reduces far fewer
    dependent columns before it stops.  The row count caps the rank too.
    ``seeds`` (rows of ``M``) enter the stream as unit pivots e_r with
    empty tails, counted in neither the rank nor ``bound``; ``pivots``
    receives the index of each column that becomes a pivot."""
    p = M.ring.characteristic
    tails = {r: {} for r in seeds}
    limit = M.nrows if bound is None else min(bound + len(tails), M.nrows)
    order: list = []
    cols = _matrix_columns(M, _fresh_first(M, order), p)
    rank = streamed = 0
    for pivot in _eliminate(cols, p, limit, tails=tails):
        if pivot:
            rank += 1
            if pivots is not None:
                pivots.append(order[streamed])
        streamed += 1
    if stats is not None:
        stats.update(cols=streamed, of=M.ncols, early_exit=streamed < M.ncols)
    return rank


def field_rank(M: SparseMatrix, bound: int | None = None,
               stats: dict | None = None, seeds=(),
               pivots: list | None = None) -> int:
    """Exact rank over a field.  The stream stops once the rank reaches
    ``bound``; ``stats`` receives the columns streamed (``cols``) out of
    the total (``of``) and whether it stopped early (``early_exit``).
    ``pivots`` receives the columns of ``M`` that became pivots, and
    ``seeds`` are those of the boundary d below ``M``, with d M = 0 (the
    chain of the module docstring)."""
    if not M.ring.is_field:
        raise HomologyError("field_rank needs a field")
    return _rank(M, bound, stats, seeds, pivots)


def integer_rank(M: SparseMatrix) -> int:
    """Rank of an integer matrix (= its rank over the rationals)."""
    return _rank(M)


def _integers(M: SparseMatrix, p: int):
    """``(values, held)``: the values of ``M`` as ints, aligned with
    ``M.rows``, read mod ``p`` (``M.ring.characteristic``), and a
    collection of them that has their largest absolute value, for a caller
    that needs it.  This is the one place where a boundary's values become
    the kernels' ints.  Mod p every residue is lifted once per distinct
    value to (-p/2, p/2], ``held`` being the lifts and the values a lazy
    map over them.  Over Q and Z int64 values are read as stored, and a
    list of values at one common scale, the lcm of the denominators of all
    of them (an int's is 1), as ints: the matrix read is one integer
    multiple of ``M``, and ``M`` itself when every value is an int."""
    if p:
        h = (p - 1) // 2
        lift = {v: (v + h) % p - h for v in set(M.vals)}
        return map(lift.__getitem__, M.vals), lift.values()
    vals = M.vals
    if type(vals) is list:
        common = lcm(*{v.denominator for v in vals})
        vals = [v.numerator * (common // v.denominator) for v in vals]
    return vals, vals


def _norm(M: SparseMatrix, values) -> int:
    """max_j sum_k |v_jk| over the columns of ``M``, ``values`` its values
    read as ints (``_integers``): one C-level ``sum`` per column of the |v|
    stream."""
    return max(map(sum, map(islice, repeat(map(abs, values)), _lengths(M))),
               default=0)


def check_dsquared_pair(d_prev: SparseMatrix, d_n: SparseMatrix, n: int):
    """Raise unless d_prev d_n = 0, exactly, by packed integer sums.

    The entries w of d_prev and v of d_n are read as integers by
    ``_integers``: over F_p residues lifted to (-p/2, p/2]; over Q a
    matrix with a ``Fraction`` entry at the common integer scale of all its
    values, so the product checked is a nonzero integer multiple of the
    true one.  Column k of d_prev becomes one int
    P_k = sum_r w_rk 2^(B r), a B-bit slot per row, and column j of the
    product becomes X_j = sum_k v_jk P_k = sum_r c_rj 2^(B r): one
    big-integer multiply-add per nonzero of d_n (a plain add for +-1).
    Both read the arrays of the matrices (``matrices``) in one pass.  With

        bound = max |w| * N,   N >= max_j sum_k |v_jk|,   so |c_rj| <= bound,

    either test below is exact, since the bound is taken on the integers
    read, not on the entries they stand for.  Over F_p, N = L * max |v|, L
    the longest column of d_n and max |v| read off the lifts, one per
    distinct value.  Over Q and Z, N is max_j sum_k |v_jk| itself
    (``_norm``), because a looser N widens every slot.

    Zero test (Q, Z, and F_p when bound < p): B = bound.bit_length(), so
    |c_rj| < 2^B.  X_j = 0 iff every c_rj = 0: at the lowest r0 with
    c_r0 != 0, X_j = 2^(B r0) (c_r0 + 2^B t) for an integer t, which is not
    zero since 2^B does not divide c_r0.  Over F_p, bound < p leaves 0 as
    the only multiple of p in [-bound, bound].

    Offset test (F_p when bound >= p): K is the least multiple of p with
    K >= bound, m = 2K/p, s = p.bit_length() (so p < 2^s),
    B = m.bit_length() + s (so 2K = p m < 2^B), and HIGH has the top s bits
    of every slot set.  Adding K to every slot gives
    Y_j = sum_r d_r 2^(B r) with d_r = c_rj + K in [0, 2K], so the d_r are
    the base-2^B digits of Y_j, and d_r and c_rj agree mod p.  If every
    d_r = p z_r, then z_r <= m < 2^(B-s), so p | Y_j and
    Y_j / p = sum_r z_r 2^(B r) has no HIGH bit.  Conversely, if Y_j = p Z
    and Z has no HIGH bit, then Z = sum_r z_r 2^(B r) with z_r < 2^(B-s),
    so p z_r < 2^B are base-2^B digits of Y_j too, and by uniqueness every
    d_r = p z_r.  So column j vanishes mod p iff p | Y_j and
    (Y_j / p) & HIGH = 0."""
    p = d_n.ring.characteristic
    w, held = _integers(d_prev, p)
    values, held_n = _integers(d_n, p)
    if p:
        norm = max(_lengths(d_n), default=0) * max(map(abs, held_n),
                                                   default=0)
    else:
        norm = _norm(d_n, values)
    bound = norm * max(map(abs, held), default=0)
    if not bound:
        return
    B, OFF, HIGH = _slots(bound, p, d_prev.nrows)
    packed = []
    entries = zip(d_prev.rows, w)
    for length in _lengths(d_prev):
        x = 0
        for r, v in islice(entries, length):
            x += v << B * r
        packed.append(x)
    if not all(zero for _, zero in _vanishing(packed, d_n, values, p,
                                              OFF, HIGH)):
        raise HomologyError(f"d{n - 1} d{n} is not zero: not a chain complex")


def _slots(bound: int, p: int, nslots: int):
    """``(B, OFF, HIGH)`` of a packed test whose slot sums lie in
    [-bound, bound]: the slot width, and for the offset test (mod p with
    bound >= p) the offset K in every slot and the mask of every slot's top
    s bits, both 0 for the zero test (see ``check_dsquared_pair``)."""
    if not (p and bound >= p):
        return bound.bit_length(), 0, 0
    K = -(-bound // p) * p
    s = p.bit_length()
    B = (2 * K // p).bit_length() + s
    unit = ((1 << B * nslots) - 1) // ((1 << B) - 1)
    return B, K * unit, (((1 << s) - 1) << (B - s)) * unit


def _lengths(M: SparseMatrix):
    """The length of every column of ``M``."""
    return map(sub, M.starts[1:], M.starts[:-1])


def _vanishing(packed: list, M: SparseMatrix, values, p: int, OFF: int,
               HIGH: int, wanted=None):
    """Per column c of ``M`` (each in ``wanted``, when given), in one pass
    over its arrays: its index and whether X = sum_k c_k packed[k] has
    every slot zero (mod p by the offset test when ``OFF``; slot constants
    of ``_slots``), ``values`` the values of ``M`` read as ints
    (``_integers``)."""
    entries = zip(M.rows, values)
    for j, length in enumerate(_lengths(M)):
        if wanted is not None and j not in wanted:
            next(islice(entries, length, length), None)
            continue
        x = 0
        for k, v in islice(entries, length):
            # most boundary entries are +-1: an add spares a product
            if v == 1:
                x += packed[k]
            elif v == -1:
                x -= packed[k]
            else:
                x += v * packed[k]
        if OFF:
            q, r = divmod(x + OFF, p)
            x = r or q & HIGH
        yield j, not x


# ---------------------------------------------------------------------------
# Smith normal form: a unit-pivot stream, a folded lattice, a dense finisher
# ---------------------------------------------------------------------------

def _smith_diagonal(M: SparseMatrix, bound: int | None = None,
                    stats: dict | None = None, seeds=(),
                    pivots: list | None = None) -> list:
    """A diagonal with the rank and invariant factors of ``M`` over Z: one
    1 per unit pivot of the column stream, then the dense finisher's
    diagonal of the lattice (module docstring).  ``seeds``, ``bound`` and
    ``pivots`` chain the streams as for ``field_rank``, with unit pivots
    only; the stream stops early at ``bound`` once the torsion is
    certified mod p.  ``stats`` receives the unit pivots (seeds not
    counted), the lattice's shape [rows its vectors touch, vectors], and
    ``cols``, ``of`` and ``early_exit`` as for ``field_rank``."""
    if M.ring != ZZ:
        raise HomologyError("integer diagonalization needs the integer ring")
    tails: dict = {r: {} for r in seeds}
    # every unit pivot leads with 1, so ``lead`` stays empty
    lead: dict = {}
    where = defaultdict(list)
    lattice: dict = {}

    def fold(vec):
        while vec:
            r = max(vec)
            u = lattice.get(r)
            if u is None:
                lattice[r] = vec
                return
            a, b = u[r], vec[r]
            if b % a == 0:
                _subtract(vec, b // a, u)
                continue
            x, y, g = xgcd(a, b)
            a, b = a // g, b // g
            support = u.keys() | vec.keys()
            lattice[r] = {i: w for i in support
                          if (w := x * u.get(i, 0) + y * vec.get(i, 0))}
            vec = {i: w for i in support
                   if (w := b * u.get(i, 0) - a * vec.get(i, 0))}

    def stream(j):
        a, b = starts[j], starts[j + 1]
        vec = _reduce_column(zip(rows[a:b], vals[a:b]), tails, lead, 0)
        units = [i for i, v in vec.items() if v == 1 or v == -1]
        if not units:
            fold(vec)
            return
        if pivots is not None:
            pivots.append(j)
        r = max(units)
        vec = _install_pivot(vec, r, tails, lead, where, 0)
        met = {k: u for k, u in lattice.items() if r in u}
        for k in met:
            del lattice[k]
        for u in met.values():
            _subtract(u, u.pop(r), vec)
            fold(u)

    def finish():
        rows = sorted(set().union(*lattice.values()))
        index = {i: a for a, i in enumerate(rows)}
        left = SparseMatrix(ZZ, len(rows), len(lattice),
                            [{index[i]: v for i, v in lattice[k].items()}
                             for k in sorted(lattice)])
        return left, diagonalize_integer_matrix(left)

    starts, rows, vals = M.starts, M.rows, M.vals
    limit = None if bound is None else bound + len(tails)
    rest: list = []
    for j in _fresh_first(M):
        if rest or limit is not None and len(tails) + len(lattice) >= limit:
            rest.append(j)
        else:
            stream(j)
    left, diag = finish()
    factors = _invariant_factors(diag) if rest else []
    if factors:
        # stopped at the bound: the torsion is a quotient of this one
        primes = _primes(factors)
        if primes is not None:
            flagged = set()
            for p in primes:
                flagged.update(
                    _witness_flags(M, rest, tails, lattice.values(), p))
            for j in rest:
                if j in flagged:
                    stream(j)
            rest = [j for j in rest if j not in flagged]
            left, diag = finish()
            factors = _invariant_factors(diag)
        if factors and (primes is None or any(
                f % (p * p) == 0 for f in factors for p in primes)):
            for j in rest:
                stream(j)
            rest = []
            left, diag = finish()
    if stats is not None:
        stats.update(units=len(tails) - len(seeds),
                     left=[left.nrows, left.ncols], cols=M.ncols - len(rest),
                     of=M.ncols, early_exit=bool(rest))
    return [1] * (len(tails) - len(seeds)) + diag


_TRIAL = 1 << 10


def _primes(factors) -> set | None:
    """The primes dividing ``factors``, or None when trial division by the
    integers below ``_TRIAL`` leaves a cofactor it cannot show prime."""
    primes = set()
    for f in factors:
        d = 2
        while d * d <= f:
            if d >= _TRIAL:
                return None
            if f % d == 0:
                primes.add(d)
                while f % d == 0:
                    f //= d
            d += 1
        if f > 1:
            primes.add(f)
    return primes


def _witness_flags(M: SparseMatrix, rest: list, tails: dict, lattice,
                   p: int) -> list:
    """The columns j in ``rest`` of ``M`` outside the mod-p span of the
    unit pivots ``tails`` (pivot r = e_r + tails[r]) and the ``lattice``
    vectors, found by one packed pass against a basis of that span's left
    kernel mod p.

    The lattice mod p is put in Gauss-Jordan form, pivot q = e_q + t_q
    (``_eliminate``); its rows lie off the unit pivots' leading rows.  A
    row that leads neither is free.  y is in the left kernel exactly when
    y_q = -sum_i t_q[i] y_i and y_r = -sum_i tails[r][i] y_i, the free
    coordinates arbitrary, so one witness per free row f (y_f = 1, every
    other free coordinate 0) spans it, and a column lies in the span iff
    every witness is 0 on it mod p.  Witness f is slot f of a packed row
    as in ``check_dsquared_pair``: W_f = 2^(B f) on a free row, and on a
    leading row the packed sum of its pivot's tail, so W_q and W_r are
    linear in the W_i and no slot is reduced.  With every residue lifted to
    (-p/2, p/2], the values of ``M`` read at p by ``_integers``, a slot of
    W holds at most ``ybound`` in absolute value, and slot f of
    sum_k c_k W_k, which is witness f on column c, at most
    L max|c_k| ybound, L the longest column."""
    h = (p - 1) // 2
    pivots: dict = {}
    for _ in _eliminate(map(dict.items, lattice), p, tails=pivots):
        pass
    free = [i for i in range(M.nrows) if i not in tails and i not in pivots]
    if not free:
        return []
    most = max(h, 1)
    units = {}
    ybound = most if pivots else 1
    for r, t in tails.items():
        if t:
            terms = units[r] = [(i, x) for i, w in t.items()
                                if (x := (w + h) % p - h)]
            ybound = max(ybound, sum(
                abs(x) * (most if i in pivots else 1) for i, x in terms))
    # a bound over every column of M, so one pass reads them all
    values, held = _integers(M, p)
    bound = max(_lengths(M), default=0) * max(map(abs, held),
                                              default=0) * ybound
    if not bound:
        return []
    B, OFF, HIGH = _slots(bound, p, len(free))
    packed = [0] * M.nrows
    for f, i in enumerate(free):
        packed[i] = 1 << B * f
    for q, t in pivots.items():
        packed[q] = -sum(w * packed[i] for i, w in t.items())
    for r, terms in units.items():
        packed[r] = -sum(x * packed[i] for i, x in terms)
    return [j for j, zero in _vanishing(packed, M, values, p, OFF, HIGH,
                                        set(rest)) if not zero]


def diagonalize_integer_matrix(M: SparseMatrix):
    """Diagonal entries of a diagonal form D = S A T reached by unimodular
    row and column operations.  Divisibility of the diagonal is not
    enforced here."""
    if M.ring != ZZ:
        raise HomologyError("integer diagonalization needs the integer ring")
    m, n = M.nrows, M.ncols
    D = [[0] * n for _ in range(m)]
    starts, rows, vals = M.starts, M.rows, M.vals
    for j in range(n):
        for k in range(starts[j], starts[j + 1]):
            D[rows[k]][j] = vals[k]

    def row_op(i1, i2, a, b, c, d):
        # (row i1, row i2) <- (a*r1 + b*r2, c*r1 + d*r2)
        r1, r2 = D[i1], D[i2]
        for k in range(n):
            x, y = r1[k], r2[k]
            r1[k] = a * x + b * y
            r2[k] = c * x + d * y

    def col_op(j1, j2, a, b, c, d):
        for row in D:
            x, y = row[j1], row[j2]
            row[j1] = a * x + b * y
            row[j2] = c * x + d * y

    k = 0
    while k < min(m, n):
        # smallest nonzero pivot in the remaining block
        best = None
        for i in range(k, m):
            rowi = D[i]
            for j in range(k, n):
                v = rowi[j]
                if v != 0 and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            row_op(k, pi, 0, 1, 1, 0)
        if pj != k:
            col_op(k, pj, 0, 1, 1, 0)
        while True:
            for i in range(k + 1, m):
                v = D[i][k]
                if v == 0:
                    continue
                p = D[k][k]
                if v % p == 0:
                    row_op(k, i, 1, 0, -(v // p), 1)
                else:
                    x, y, g = xgcd(p, v)
                    row_op(k, i, x, y, -(v // g), p // g)
            if all(D[i][k] == 0 for i in range(k + 1, m)):
                pass
            else:
                continue
            for j in range(k + 1, n):
                v = D[k][j]
                if v == 0:
                    continue
                p = D[k][k]
                if v % p == 0:
                    col_op(k, j, 1, 0, -(v // p), 1)
                else:
                    x, y, g = xgcd(p, v)
                    col_op(k, j, x, y, -(v // g), p // g)
            if all(D[i][k] == 0 for i in range(k + 1, m)) and \
                    all(D[k][j] == 0 for j in range(k + 1, n)):
                break
        k += 1
    return [D[i][i] for i in range(min(m, n))]


def invariant_factors(M: SparseMatrix):
    """Nontrivial invariant factors (each dividing the next, all > 1)."""
    return _invariant_factors(_smith_diagonal(M))


def _invariant_factors(diagonal):
    # units are no invariant factors and change none, so they stay out of
    # the pairwise pass, which is quadratic in its entries
    diag = [abs(d) for d in diagonal if d not in (0, 1, -1)]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    diag.sort()
    return [d for d in diag if d != 1]


# ---------------------------------------------------------------------------
# homology of truncated complexes
# ---------------------------------------------------------------------------

class HomologyResult(namedtuple("HomologyResult",
                                "ring_name betti torsion rank_stats")):
    """Per-degree Betti numbers, with invariant factors over the integers.

    ``rank_stats``, per boundary "d<n>": the kernel's columns streamed, of
    how many, and whether the stream stopped early (at the rank bound, or
    over Z once the torsion was certified mod p); over Z also the unit
    pivots of the column stream and the lattice's shape.  Equality ignores
    it.  ``torsion`` and ``rank_stats`` default to a new empty list and
    dict."""

    __slots__ = ()

    def __new__(cls, ring_name: str, betti: list, torsion: list = None,
                rank_stats: dict = None):
        if any(b < 0 for b in betti):
            raise HomologyError("negative Betti number")
        torsion = [] if torsion is None else torsion
        for factors in torsion:
            for a, b in zip(factors, factors[1:]):
                if b % a != 0:
                    raise HomologyError("invariant factors must divide in turn")
        return tuple.__new__(cls, (ring_name, betti, torsion,
                                   {} if rank_stats is None else rank_stats))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] != other[:3]

    @property
    def degrees(self):
        return range(len(self.betti))


def require_dsquared(complex_, n: int):
    """Raise unless d_{n-1} d_n = 0 in ``complex_``, read from its
    certificate memo (``TruncatedComplex.dsquared_vanishes``)."""
    if not complex_.dsquared_vanishes(n):
        raise HomologyError(f"d{n - 1} d{n} is not zero: not a chain complex")


class ColumnStream(namedtuple("ColumnStream", "rank factors stats pivots")):
    """One boundary's column stream: its rank, its invariant factors (over
    Z; none over a field), the stream's stats and the columns that became
    pivots (unit pivots over Z), which seed the stream above."""

    __slots__ = ()


def column_stream(M: SparseMatrix, bound: int | None = None,
                  seeds=()) -> ColumnStream:
    """The column stream of ``M`` over its ring, ``bound`` and ``seeds`` as
    ``field_rank`` and ``_smith_diagonal`` take them."""
    stats: dict = {}
    pivots: list = []
    if M.ring.is_field:
        rank = field_rank(M, bound, stats, seeds, pivots)
        factors = ()
    else:
        diag = _smith_diagonal(M, bound, stats, seeds, pivots)
        rank = sum(1 for d in diag if d)
        factors = tuple(_invariant_factors(diag))
    return ColumnStream(rank, factors, stats, tuple(pivots))


def _homology(complex_, up_to: int | None) -> HomologyResult:
    """Betti numbers, and over Z the invariant factors, of the degrees up
    to ``up_to`` (the policy's maximum at most), by rank-nullity from the
    complex's chained streams (``TruncatedComplex.boundary_stream``), which
    raise ``HomologyError`` on a pair d_{n-1} d_n that is not zero.  The
    torsion of degree n is that of d_{n+1}, whose image is a sublattice of
    the kernel of d_n, a direct summand."""
    D = complex_.policy.max_degree
    if up_to is not None:
        D = min(D, up_to)
    streams = [complex_.boundary_stream(n) for n in range(1, D + 2)]
    ranks = [0] + [s.rank for s in streams]
    betti = [complex_.dimension(n) - ranks[n] - ranks[n + 1]
             for n in range(D + 1)]
    torsion = [list(s.factors) for s in streams] \
        if complex_.ring == ZZ else []
    stats = {f"d{n}": s.stats for n, s in enumerate(streams, 1)}
    return HomologyResult(complex_.ring.name, betti, torsion,
                          rank_stats=stats)


def homology_over_field(complex_, up_to: int | None = None) -> HomologyResult:
    """Betti numbers via rank-nullity; needs the boundary one degree above
    the last reported degree.  ``up_to`` caps the reported degrees (and the
    ranks computed) below the policy's maximum."""
    if not complex_.ring.is_field:
        raise HomologyError("homology_over_field needs a field")
    return _homology(complex_, up_to)


def homology_over_Z(complex_, up_to: int | None = None) -> HomologyResult:
    """Free rank and invariant factors per degree via Smith normal form,
    ``up_to`` as for ``homology_over_field``: each boundary's diagonal is
    the column stream's units followed by the dense finisher's diagonal of
    the lattice, and gives its rank and invariant factors."""
    if complex_.ring != ZZ:
        raise HomologyError("homology_over_Z needs the integer ring")
    return _homology(complex_, up_to)


def compute_homology(complex_, up_to: int | None = None) -> HomologyResult:
    return homology_over_Z(complex_, up_to) if complex_.ring == ZZ \
        else homology_over_field(complex_, up_to)


# ---------------------------------------------------------------------------
# universal coefficients
# ---------------------------------------------------------------------------

def uct_check(complex_, p: int, modp: HomologyResult | None = None) -> dict:
    """Dimension count of the coefficient short exact sequence at the prime p.

    For every degree n the residue-field dimension of homology with Z/p
    coefficients must equal dim(H_n (x) Z/p) + dim Tor_1(H_{n-1}, Z/p),
    both read off the integral Smith data.  That data is the complex's
    own, computed once (see ``homology_over_Z``), so a check after the
    complex's integral homology streams no boundary again.  ``modp`` is the
    homology of the complex reduced mod p, when the caller has computed it
    already; otherwise it is computed here."""
    if complex_.ring != ZZ:
        raise HomologyError("the coefficient check starts from an integer complex")
    field = GF(p)
    if modp is not None and modp.ring_name != field.name:
        raise HomologyError(f"homology over {modp.ring_name} given for the "
                            f"check at p = {p}")
    integral = homology_over_Z(complex_)
    if modp is None:
        # after the integral solve, whose d^2 certificates the reduction reads
        from .complexes import reduce_mod_p
        modp = homology_over_field(reduce_mod_p(complex_, p))
    report = {"prime": p, "degrees": [], "ok": True}
    for n in integral.degrees:
        tensor_dim = integral.betti[n] + sum(
            1 for t in integral.torsion[n] if t % p == 0)
        tor_dim = 0 if n == 0 else sum(
            1 for t in integral.torsion[n - 1] if t % p == 0)
        middle = modp.betti[n]
        ok = middle == tensor_dim + tor_dim
        report["degrees"].append({
            "degree": n, "middle": middle,
            "tensor": tensor_dim, "tor": tor_dim, "ok": ok})
        report["ok"] = report["ok"] and ok
    return report
