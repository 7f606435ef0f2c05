"""Exact homology of truncated complexes.

Every rank runs through one streaming column elimination,
``_eliminate``, on integer columns: residues mod p over F_p,
fraction-free over Z and over Q (each rational column scaled to integers).
It keeps its pivots in Gauss-Jordan form, each zero at every other pivot's
leading row, so a column is reduced in one pass over its own entries and
is dependent exactly when nothing is left of it.  The stream stops once
the rank reaches a caller's bound; ``homology_over_field`` bounds rank d_n
by dim ker d_{n-1}, which it certifies first by checking d_{n-1} d_n = 0
exactly, on integer columns scaled as the kernel's are.  The check,
``check_dsquared_pair``, is Kronecker substitution: each column of d_{n-1}
is packed into one Python int with a fixed-width slot per row, so a
column of the product is a sum of one big-integer multiple per nonzero of
d_n, and a zero test (or, mod a small prime, a test on the sum offset to
non-negative slots) reads every slot at once.  Ranks stream their columns
echelon-first: every column whose largest row index no earlier column has
goes first, each independent of those before it, and the rest follow in
their original order.  Rank does not depend on column order, so only the
count of columns streamed before the bound stops the stream changes.

The rank streams of a complex are chained by clearing (Chen-Kerber, "a
twist"; de Silva-Morozov-Vejdemo-Johansson): the stream of d_n starts with
one unit pivot e_r, with an empty tail, for each column r of d_{n-1} that
became a pivot, the set J.  This is exact.  The d^2 check gives
im d_n in ker d_{n-1}; the columns J are independent under d_{n-1}, so
ker d_{n-1} meets span(e_J) in 0, and rank(d_n | e_J) = rank d_n + |J|.
A column of d_n that is a + b, with a spanned by earlier columns and b by
e_J, has b = c - a in ker d_{n-1}, so b = 0: it depends on the earlier
columns and e_J exactly when it depends on the earlier columns alone.  So
every column is a pivot or not as before, and the stream stops at the
same column, its bound raised by |J| (to dim C_{n-1}).  Only the fill on
the rows J goes: an entry there only drops out.
A boundary with more rows than columns is streamed by rows, takes no
seeds and hands none on.  Over Z only unit pivots clear (below).

Integer homology goes through a Smith form, whose diagonal gives both rank
and torsion.  ``_smith_diagonal`` streams the columns of a boundary once
and keeps none of them.  It keeps unit pivots in Gauss-Jordan form, pivot
r being e_r plus a tail on the rows that lead no unit pivot, and a lattice:
integer vectors on those same rows, in echelon form, one per leading row.
The unit pivots are ``_eliminate``'s Gauss-Jordan form with every lead 1,
run through its two helpers: a column reduces in one pass
(``_reduce_column``), subtracting the unit pivot of each leading row
among its entries, and a residual with an entry +-1 becomes a unit pivot
at its largest such row, negated if that entry is -1, and is
back-substituted into every unit pivot whose tail has that row
(``_install_pivot``, which never divides a pivot with lead 1).  The new
pivot is then subtracted from every lattice vector with an entry there,
which is folded again.  Any other residual is folded into the lattice:
against vector u with lead a at the residual v's largest row, whose entry
there is b, v -= (b/a) u when a divides b, and otherwise, with
x a + y b = g = gcd(a, b) from ``rings.xgcd``,

    (u, v) <- (x u + y v, (b/g) u - (a/g) v),   determinant -1,

which leaves u the lead g and v none there; v goes on to its next largest
row, and joins the lattice at a row that leads no vector.

The result is equivalent to the boundary M.  Every step is a column
operation of determinant +-1 on the current columns: adding a multiple of
one column to another, negating a column, or the 2x2 fold step.  So M is
equivalent to the matrix of the unit pivots, the lattice vectors and zero
columns.  Every row that leads a unit pivot is zero in every other vector:
a residual has none, the pivot made on a row clears it from the tails
(through the row -> pivots ``where`` index, as in ``_eliminate``) and from
the lattice, and the vectors a fold combines are zero there already.  With
the unit rows and pivots first, that matrix is [[I, 0], [T, L]], and
subtracting multiples of the unit rows clears T without touching L, whose
entries on those rows are 0.  So M ~ diag(1, ..., 1) (+) L: the diagonal is
one 1 per unit pivot, then the Smith form of L.  Lattice vectors lead on
distinct rows, so they are independent and no more than the rows they
touch; ``diagonalize_integer_matrix``, the dense finisher, runs on that
small block once per boundary.  Memory is the unit pivots and the lattice.
A complex keeps each boundary's diagonal
(``TruncatedComplex.smith_diagonal``), so the homology report and the
universal-coefficient check of one complex share one stream per boundary.

The integral streams of a complex are chained too, once d_{n-1} d_n = 0 is
certified (``check_dsquared_pair`` is exact over Z).  Clearing with unit
pivots only: the stream of d_n starts with e_r, empty tail, for each
column r of d_{n-1} that became a unit pivot, the set J; a column that
went into the lattice is never seeded.  A seed only drops a coordinate (it
has no tail, and no tail or lattice vector has an entry on a leading row),
so the seeded stream is the plain stream of pi(d_n), pi dropping the
coordinates J, plus |J| units.  On their leading rows R, the unit pivots
of d_{n-1} are the columns J times a unimodular matrix: each is a column
of J less multiples of earlier unit pivots and of its own stream's seeds,
which are zero on R, and no lattice vector is ever added to one.  There
they are the identity, so d_{n-1}[R, J] is unimodular.  pi is injective on
ker d_{n-1}: a kernel vector k on J has d_{n-1}[R, J] k_J = 0, so k = 0.
Its image is saturated: if m w = pi(k), k in the kernel, write k = y + m w
with y on J; then d_{n-1}[R, J] y_J = -m d_{n-1}(w)[R], so y is in m Z^J,
and k / m is an integer kernel vector with pi(k / m) = w.  So pi maps ker
d_{n-1} onto a direct summand, and im d_n, inside it, to a sublattice with
the same quotient: pi(d_n) has the rank and invariant factors of d_n.

Early exit: rank d_n <= bound = dim C_{n-1} - rank d_{n-1} (certified by
the d^2 check; dim C_0 for d_1), so the echelon-first stream stops once
its units and lattice vectors reach the bound.  Every later column of
pi(d_n) lies in the rational span of the streamed prefix P, so im P is a
sublattice of im pi(d_n) of the same rank, and the final torsion T is a
quotient of the prefix torsion T_P (each is S / im, S the saturation of
both images): no prime outside T_P divides T, and T has no more factors
divisible by p than T_P.  The factors divisible by p number rank_Q -
rank_Fp, for d_n and for P alike, and rank_Q P = rank_Q d_n.  So T and T_P
have the same p-part once T_P's p-part is (Z/p)^k, every exponent 1, and
every column lies in the mod-p span of P.  ``_witness_flags`` finds, for
each prime of T_P, the columns outside the mod-p span of P by one packed
pass against a basis of that span's left kernel (built from the unit
pivots' tails and the lattice mod p, and packed and tested as
``check_dsquared_pair`` packs and tests).  Only the flagged columns are
streamed.  If the torsion of the enlarged prefix has every exponent 1,
each of its primes is one of T_P, so every unstreamed column lies in its
mod-p span, and the stream stops.  Otherwise, or when trial division
cannot factor a torsion order, the rest is streamed as before.  Over Z the
d^2 check runs even without ``--verify``: the bound needs it.

The universal-coefficient dimension check, ``uct_check``, reads the
integral Smith data and the homology mod p of one complex.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from math import gcd, lcm

from .matrices import SparseMatrix
from .rings import QQ, ZZ, GF, xgcd


class HomologyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the elimination kernel
# ---------------------------------------------------------------------------

def _modulus(ring) -> int:
    """p for the prime field F_p, 0 for the fraction-free rings Q and Z."""
    if ring == QQ or ring == ZZ:
        return 0
    if ring.is_field and ring.characteristic > 0:
        return ring.characteristic
    raise HomologyError(f"no elimination routine for {ring.name}")


_INT = {int}


def _columns(cols, p: int, scales: list | None = None):
    """Integer columns of ``cols``: mod p the columns themselves, whose
    entries the kernel reads as residues; over Q and Z a column of nonzero
    ints itself, or else each column times the lcm of its denominators.
    No caller mutates what is yielded.  The scale of each column is
    appended to ``scales``."""
    for col in cols:
        vals = col.values()
        if p or (set(map(type, vals)) == _INT and 0 not in vals):
            s, vec = 1, col
        else:
            s = lcm(*[v.denominator for v in vals])
            vec = {k: v.numerator * (s // v.denominator)
                   for k, v in col.items() if v}
        if scales is not None:
            scales.append(s)
        yield vec


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


def _reduce_column(col: dict, tails: dict, lead: dict, p: int) -> dict:
    """The residual of ``col`` against the pivots ``tails`` (pivot r is
    ``lead.get(r, 1) e_r + tails[r]``, its tail on rows that lead no
    pivot): one pass over the column's own entries, subtracting the pivot
    of each leading row among them.  The residual lies on non-leading rows
    only.  Mod ``p`` its entries are kept in (-p/2, p/2]; with ``p == 0``
    it is fraction-free, scaled by the lcm of the leading entries it meets
    (1 when ``lead`` is empty)."""
    h = (p - 1) // 2
    vec, hits = {}, []
    for k, v in col.items():
        t = tails.get(k)
        if t is None:
            if p:
                v = (v + h) % p - h
                if not v:
                    continue
            vec[k] = v
        elif t:
            # an empty tail only drops the entry
            hits.append(k)
    scale = 1
    if hits and lead and not p:
        scale = lcm(*[lead.get(k, 1) for k in hits])
        if scale != 1:
            vec = {k: v * scale for k, v in vec.items()}
    for k in hits:
        if p:
            c = (col[k] + h) % p - h
            if not c:
                continue
        else:
            c = col[k] * (scale // lead.get(k, 1))
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
    """Stream integer columns through one Gauss-Jordan column form.

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


def _fresh_first(cols, order: list | None = None):
    """The columns in echelon-first order: first every column whose largest
    row index no earlier column has, then the rest in their original order,
    zero columns included.  ``order``, when given, receives the original
    index of each column as it is yielded.

    Each column of the first group leads on a row no other column of the
    group has, so it is independent of the group's earlier columns and
    becomes a pivot."""
    cols = list(cols)
    order = [] if order is None else order
    first = bytearray(len(cols))
    seen: set = set()
    for j, col in enumerate(cols):
        if col:
            r = max(col)
            if r not in seen:
                seen.add(r)
                first[j] = 1
                order.append(j)
                yield col
    for j, col in enumerate(cols):
        if not first[j]:
            order.append(j)
            yield col


def _rank(M: SparseMatrix, bound: int | None = None,
          stats: dict | None = None, seeds=(),
          pivots: list | None = None) -> int:
    """Rank through the kernel, streaming the longer side in echelon-first
    order (``_fresh_first``).

    Fill-in and pivot count stay bounded by the short side, which also caps
    the rank, so the stream always stops once the rank reaches it.  The
    rank of a set of columns does not depend on their order.  The first
    group's columns are independent, so when most of the rank lies in that
    group, as for the epi boundaries, a bounded stream reduces far fewer
    dependent columns before it stops.

    When ``M`` is streamed by its columns, ``seeds`` (rows of ``M``) enter
    the stream as unit pivots e_r with empty tails, which count towards
    neither the rank nor ``bound``, and ``pivots`` receives the index in
    ``M`` of each column that becomes a pivot.  A transposed ``M`` takes no
    seeds and reports no pivots."""
    p = _modulus(M.ring)
    tails: dict = {}
    if M.nrows > M.ncols:
        M = M.transpose()
        pivots = None
    else:
        tails = {r: {} for r in seeds}
    limit = M.nrows if bound is None else min(bound + len(tails), M.nrows)
    order: list = []
    cols = _columns(_fresh_first(M.cols, order), p)
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
    """Exact rank over a field.

    ``bound`` is an upper bound on the rank known to the caller; the column
    stream stops once the rank reaches it.  ``stats``, when given, receives
    the columns streamed (``cols``) out of the total (``of``) and whether
    the stream stopped early (``early_exit``).  ``pivots`` and ``seeds``
    chain the ranks of a complex (see ``homology_over_field``): ``pivots``
    receives the indices of the columns of ``M`` that became pivots, and
    ``seeds`` are those of the boundary d below ``M``, for which
    d M = 0 must hold.  An ``M`` with more rows than columns is streamed
    by rows: it ignores ``seeds`` and reports no pivots."""
    if not M.ring.is_field:
        raise HomologyError("field_rank needs a field")
    return _rank(M, bound, stats, seeds, pivots)


def integer_rank(M: SparseMatrix) -> int:
    """Rank of an integer matrix (= its rank over the rationals)."""
    return _rank(M)


def _scaled(col) -> dict:
    """A column over Q with a ``Fraction`` entry, scaled to ints."""
    return next(_columns((col,), 0))


def _norm(col) -> int:
    """Sum of the absolute values of a column over Q or Z, at its integer
    scale.  A sum with a ``Fraction`` in it is a ``Fraction``."""
    norm = sum(map(abs, col.values()))
    return norm if type(norm) is int else _norm(_scaled(col))


def check_dsquared_pair(d_prev: SparseMatrix, d_n: SparseMatrix, n: int):
    """Raise unless d_prev d_n = 0, exactly, by packed integer sums.

    The entries w of d_prev are integers: over Q each column is scaled by
    ``_columns`` and weighted to the common scale, so the product checked
    is an integer multiple of the true one, column by column; over F_p they
    are residues lifted to (-p/2, p/2].  The entries v of d_n are read as
    they are (lifted the same way over F_p; a column with a ``Fraction``
    entry is scaled to ints).  Column k of d_prev becomes one int
    P_k = sum_r w_rk 2^(B r), a B-bit slot per row, and column j of the
    product becomes X_j = sum_k v_jk P_k = sum_r c_rj 2^(B r): one
    big-integer multiply-add per nonzero of d_n.  With

        bound = max |w| * N,   N >= max_j sum_k |v_jk|,   so |c_rj| <= bound,

    either test below is exact.  Over F_p, N = L * max |v|, L the longest
    column of d_n and max |v| read off the lift, which is built once per
    distinct value: no pass in Python over the columns.  Over Q and Z, N is
    max_j sum_k |v_jk| itself, each column at its integer scale, because
    there a value set costs as much as that pass and a looser N widens
    every slot.

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
    p = _modulus(d_n.ring)
    if p:
        h = (p - 1) // 2
        lift = {v: (v + h) % p - h
                for v in set(chain.from_iterable(map(dict.values, d_n.cols)))}
        norm = max(map(len, d_n.cols), default=0) * max(
            map(abs, lift.values()), default=0)
        prev = [{r: x for r, w in col.items() if (x := (w + h) % p - h)}
                for col in d_prev.cols]
    else:
        lift = None
        norm = max(map(_norm, d_n.cols), default=0)
        scales: list = []
        prev = list(_columns(d_prev.cols, 0, scales))
        common = lcm(*scales)
        if common != 1:
            prev = [{r: w * (common // s) for r, w in col.items()}
                    for col, s in zip(prev, scales)]
    bound = norm * max((abs(w) for col in prev for w in col.values()),
                       default=0)
    if not bound:
        return
    B, OFF, HIGH = _slots(bound, p, d_prev.nrows)
    packed = [sum(w << B * r for r, w in col.items()) for col in prev]
    if not all(_vanishing(packed, d_n.cols, lift, p, OFF, HIGH)):
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


def _vanishing(packed: list, cols, lift: dict | None, p: int, OFF: int,
               HIGH: int):
    """Per column c of ``cols``, whether X = sum_k c_k packed[k] has every
    slot zero (mod p when ``OFF``, by the offset test), with the slot
    constants of ``_slots``.  ``lift`` maps each entry of ``cols`` to the
    integer it stands for mod p; without it a column's entries are read as
    they are, and a column with a ``Fraction`` entry at its integer
    scale."""
    for col in cols:
        x = 0
        if lift is None:
            for k, v in col.items():
                x += v * packed[k]
            if type(x) is not int:
                x = sum(v * packed[k] for k, v in _scaled(col).items())
        else:
            for k, v in col.items():
                x += lift[v] * packed[k]
        if OFF:
            q, r = divmod(x + OFF, p)
            x = r or q & HIGH
        yield not x


# ---------------------------------------------------------------------------
# Smith normal form: a unit-pivot stream, a folded lattice, a dense finisher
# ---------------------------------------------------------------------------

def _smith_diagonal(M: SparseMatrix, stats: dict | None = None,
                    bound: int | None = None, seeds=(),
                    pivots: list | None = None) -> list:
    """A diagonal with the rank and invariant factors of ``M`` over Z: one
    1 per unit pivot of the column stream, then the dense finisher's
    diagonal of the lattice (the argument is in the module docstring).

    ``seeds``, ``bound`` and ``pivots`` chain the streams of a complex (see
    ``homology_over_Z``): ``seeds`` are the columns of the boundary d below
    ``M`` that became unit pivots, for which d M = 0 must hold, and each
    enters the stream as a unit pivot e_r with an empty tail; ``bound``,
    an upper bound on the rank, lets the stream stop early, the torsion
    certified mod p; ``pivots`` receives the indices of the columns of
    ``M`` that became unit pivots.  ``stats``, when given, receives the
    unit pivots (seeds not counted), the lattice's shape, [rows its vectors
    touch, vectors], the columns streamed (``cols``) out of the total
    (``of``) and whether the stream stopped early (``early_exit``)."""
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
        vec = _reduce_column(cols[j], tails, lead, 0)
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

    cols = M.cols
    limit = None if bound is None else bound + len(tails)
    order: list = []
    rest: list = []
    for _ in _fresh_first(cols, order):
        if rest or limit is not None and len(tails) + len(lattice) >= limit:
            rest.append(order[-1])
        else:
            stream(order[-1])
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
    (-p/2, p/2], a slot of W holds at most ``ybound`` in absolute value,
    and slot f of sum_k c_k W_k, which is witness f on column c, at most
    L max|c_k| ybound, L the longest column."""
    h = (p - 1) // 2
    pivots: dict = {}
    for _ in _eliminate(lattice, p, tails=pivots):
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
    cols = M.cols
    values: set = set()
    for j in rest:
        values.update(cols[j].values())
    lift = {v: (v + h) % p - h for v in values}
    bound = max(len(cols[j]) for j in rest) * max(
        map(abs, lift.values()), default=0) * ybound
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
    return [j for j, zero in zip(rest, _vanishing(
        packed, (cols[j] for j in rest), lift, p, OFF, HIGH)) if not zero]


def diagonalize_integer_matrix(M: SparseMatrix):
    """Diagonal entries of a diagonal form D = S A T reached by unimodular
    row and column operations.  Divisibility of the diagonal is not
    enforced here."""
    if M.ring != ZZ:
        raise HomologyError("integer diagonalization needs the integer ring")
    m, n = M.nrows, M.ncols
    D = [[0] * n for _ in range(m)]
    for j, col in enumerate(M.cols):
        for r, v in col.items():
            D[r][j] = v

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

@dataclass
class HomologyResult:
    """Per-degree Betti numbers, with invariant factors over the integers."""

    ring_name: str
    betti: list
    torsion: list = field(default_factory=list)
    # per boundary "d<n>": the kernel's columns streamed, of how many, and
    # whether the stream stopped early (at the rank bound, or over Z once
    # the torsion was certified mod p); over Z also the unit pivots of the
    # column stream and the lattice's shape
    rank_stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if any(b < 0 for b in self.betti):
            raise HomologyError("negative Betti number")
        for factors in self.torsion:
            for a, b in zip(factors, factors[1:]):
                if b % a != 0:
                    raise HomologyError("invariant factors must divide in turn")

    @property
    def degrees(self):
        return range(len(self.betti))


def require_dsquared(complex_, n: int):
    """Raise unless d_{n-1} d_n = 0 in ``complex_``, read from its
    certificate memo (``TruncatedComplex.dsquared_vanishes``)."""
    if not complex_.dsquared_vanishes(n):
        raise HomologyError(f"d{n - 1} d{n} is not zero: not a chain complex")


def homology_over_field(complex_, up_to: int | None = None) -> HomologyResult:
    """Betti numbers via rank-nullity; needs the boundary one degree above
    the last reported degree.  ``up_to`` caps the reported degrees (and the
    ranks computed) below the policy's maximum.

    rank d_n is bounded by dim ker d_{n-1} = dim C_{n-1} - rank d_{n-1}
    once d_{n-1} d_n = 0 has been checked; for d_1 it is dim C_0, the row
    count, which caps the rank without any check.

    The stream of d_n is cleared by d_{n-1}: it starts with one unit pivot
    e_r, with an empty tail, per column r of d_{n-1} that became a pivot
    (the set J).  The check gives im d_n in ker d_{n-1}, and the columns J
    are independent under d_{n-1}, so ker d_{n-1} meets span(e_J) in 0.
    If a column c of d_n is a + b with a spanned by earlier columns and b
    by e_J, then b = c - a lies in ker d_{n-1}, so b = 0: a column depends
    on the earlier ones and e_J exactly when it depends on the earlier ones
    alone.  Each column is a pivot or not as without the seeds, the stream
    stops at the same column, and the rank is the pivot count less |J|,
    bounded by bound + |J| = dim C_{n-1}.  Only the fill on the rows J
    goes: an entry there only drops out.  A
    boundary streamed by rows (more rows than columns) is neither seeded
    nor a source of seeds."""
    ring = complex_.ring
    if not ring.is_field:
        raise HomologyError("homology_over_field needs a field")
    D = complex_.policy.max_degree
    if up_to is not None:
        D = min(D, up_to)
    ranks = {0: 0}
    stats = {}
    below: list = []
    for n in range(1, D + 2):
        d_n = complex_.boundary(n)
        bound = None
        if n >= 2:
            require_dsquared(complex_, n)
            bound = complex_.dimension(n - 1) - ranks[n - 1]
        pivots: list = []
        ranks[n] = field_rank(d_n, bound=bound,
                              stats=stats.setdefault(f"d{n}", {}),
                              seeds=below, pivots=pivots)
        below = pivots
    betti = []
    for n in range(D + 1):
        b = complex_.dimension(n) - ranks[n] - ranks[n + 1]
        betti.append(b)
    return HomologyResult(ring.name, betti, rank_stats=stats)


def homology_over_Z(complex_, up_to: int | None = None) -> HomologyResult:
    """Free rank and invariant factors per degree via Smith normal form.

    The kernel of an integer matrix is a direct summand, so the torsion of
    degree n is read off the normal form of the boundary from degree n+1;
    the same diagonal gives the boundary's rank as its nonzero count.  Each
    diagonal is the column stream's units followed by the dense finisher's
    diagonal of the lattice.  The diagonals are the complex's own
    (``TruncatedComplex.smith_diagonal``): each is computed once, on the
    first solve that needs it, and read by every later one.  The stream of
    d_n is cleared by the unit pivot columns of d_{n-1} and bounded by
    dim C_{n-1} - rank d_{n-1}, both after d_{n-1} d_n = 0 is certified
    (module docstring); a pair that is not zero raises ``HomologyError``,
    as over a field."""
    if complex_.ring != ZZ:
        raise HomologyError("homology_over_Z needs the integer ring")
    D = complex_.policy.max_degree
    if up_to is not None:
        D = min(D, up_to)
    ranks = {0: 0}
    torsions = {}
    stats = {}
    for n in range(1, D + 2):
        diag, stats[f"d{n}"] = complex_.smith_diagonal(n)
        ranks[n] = sum(1 for d in diag if d != 0)
        torsions[n] = _invariant_factors(diag)
    betti = []
    torsion = []
    for n in range(D + 1):
        betti.append(complex_.dimension(n) - ranks[n] - ranks[n + 1])
        torsion.append(torsions[n + 1])
    return HomologyResult("Z", betti, torsion, rank_stats=stats)


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
