"""Truncated chain complexes and the chain-level reduction machinery.

Everything here is finite and exact.  A complex is truncated by a policy
(N, D): chain generators are composable strings of morphisms among objects
0..N (plus the empty object in the extended category), and matrices are
built through degree D + 1 so that homology is available in degrees 0..D.

Normal coordinates for quotient complexes
-----------------------------------------

The under-category variant of the standard complex is a quotient: degree-n
chains are classes of (n+1)-morphism strings tensored with a coefficient at
the string's base.  Dropping the base morphism and pushing the coefficient
through the functor is a retraction onto a free module whose basis is the set
of n-morphism strings tensored with coefficient basis elements, i.e. the same
index set as the standard complex.  The retraction kills every defining
relation exactly when the functor is functorial on composable pairs, which is
what the relation certificate checks; with that certificate the quotient is
the free module on these normal coordinates and the comparison isomorphism
between the two variants is the identity matrix in them.

For an augmented algebra in an adapted basis the normal coordinates split by
the tensor tuple: the all-units tuple spans one summand (a copy of the nerve
of the truncated category) and the remaining tuples span the ideal summand.
Each summand is built as the standard complex of its own functor, and the
splitting is checked on the functor matrices (``ReducedMachinery``).  A
generator of the ideal summand decodes uniquely as (string, injection,
ideal-only tuple), which is the form the epimorphism construction, the
comparison chain map into the epimorphism complex and the presimplicial
homotopy act on.

Morphism ids
------------

Assembly runs on ints: a ``MorphismTable`` numbers the morphisms once, a
degree-n string is ``(source object, tuple of n morphism ids)``, and the
reduced machinery runs the epimorphism construction once per (string,
nonzero tensor positions), since the ideal letters only pick the tensor
index.  The degree-n strings come in blocks, one per object sequence s
with nonempty hom lists H_k = H(s_k, s_{k+1}), in product order, each the
product of its hom lists, the last varying fastest.  So a string is its
block and its local rank, the mixed-radix number of its ids' positions in
their hom lists, and every face is found by arithmetic on that rank
(``build_gz_complex``), not by looking a tuple up.  A complex keeps these
blocks, one entry per block with its first generator, and nothing per
string: the strings and their first generators are walked off the blocks,
and the lists and positions that the reduced machinery and the
zero-anchored cone look strings up in are derived on first use
(``TruncatedComplex``).  Boundary columns hold
plain scalars, reduced mod p over a prime field, and go straight into the
compressed columns of the boundary (``matrices``) through a
``ColumnWriter``; no list of dict columns is built.  The faces other than
face 0 are merged once per string.  When face 0 lands on another face's
string, or the string has one column, each column is a dict, reduced
where faces met, its leading row put first; otherwise all the string's
columns are laid out at once by a layout cached per shape of the
functor's columns (``_string_layout``).

Every complex built from a category comes from ``build_gz_complex``: the
full, extended, nerve and normalized epimorphism complexes with a
``BarFunctorView``, the two summands of the reduced machinery (the ideal
summand with an ``IdealSummandView``, the unit summand as the full complex
of the ground ring), the Slominska complex on the subset poset, and the
zero-anchored cone of ``zero_anchored_contraction``, which is the standard
complex of the representable functor k[Hom(0, -)] (``ZeroAnchoredView``).

The normalized epimorphism complex
----------------------------------

Strings of composable morphisms with coefficients form a simplicial module:
face i composes (or applies the functor to, or drops) a morphism, and
degeneracy j inserts an identity.  Its simplicial identities hold because
composition with an identity is the identity, because the functor is
functorial on composable pairs (the relation certificate, which checks
every pair of the morphism table, identities included) and because it
sends identities to identities (checked when the normalized complex is
built).  The strings with an identity arrow span the degenerate
subcomplex, which is acyclic, so the quotient by it has the same homology
over every ring, torsion included (the normalization theorem; Weibel,
*An Introduction to Homological Algebra*, Thm 8.3.8).  The quotient has
one basis element per (string with no identity arrow, coefficient basis
element), in the standard complex's relative order, and its boundary is
the standard one with every face whose composite is an identity dropped;
face 0 and the last face never make one.  The epi and slominska pipelines
eliminate this quotient.  Their reported ``sizes`` stay the standard
complex's counts, from hom-set cardinalities, and the generator cap acts
on those; the reduced machinery keeps the standard epimorphism complex,
whose strings its chain maps index.

Chain maps as index maps
------------------------

Chi, the inclusion, the nerve-to-standard comparison and the extra
degeneracies of the unit summand send each generator to one generator with
coefficient one, so a ``ChainMap`` stores the target index of each
generator, and d M = M d is checked column by column with no product
(``ChainMap.commutes_with_boundaries``).  Composites are composites of
index lists (chi o inclusion = id compares a list with ``range``; id -
inclusion o chi has at most two entries per column), and only the
homotopy, an alternating sum, is a matrix.
"""
from __future__ import annotations

import itertools
import random
from array import array
from bisect import bisect_right
from collections import namedtuple
from itertools import islice
from math import prod
from operator import add, itemgetter, sub

from . import croscat, homology
from .barfun import BarFunctor, FULL, IDEAL, EXTENDED
from .croscat import (EMPTY_OBJECT, IFasMorphism, factorize_ifas, ifas_compose,
                      ifas_identity, ifas_injection)
from .homology import HomologyError, check_dsquared_pair
from .invalg import (InvolutiveAlgebra, adapt_basis_to_augmentation,
                     AlgebraError, ground_ring_algebra)
from .matrices import ColumnWriter, SparseMatrix, combination, lead_first
from .rings import Ring, RingError, GF, ZZ

DEFAULT_MAX_GENERATORS = 2_000_000


class ComplexError(ValueError):
    pass


class ResourceCapExceeded(ComplexError):
    def __init__(self, label, degree, projected, cap):
        self.label = label
        self.degree = degree
        self.projected = projected
        self.cap = cap
        super().__init__(
            f"{label}: projected {projected} generators in degree {degree} "
            f"exceed the cap of {cap}")


class TruncationPolicy(namedtuple("TruncationPolicy", "max_object max_degree")):
    """Objects 0..max_object, homology degrees 0..max_degree; matrices are
    assembled one degree higher than max_degree."""

    __slots__ = ()

    def __new__(cls, max_object: int, max_degree: int):
        if max_object < 0 or max_degree < 0:
            raise ComplexError("truncation parameters must be non-negative")
        return tuple.__new__(cls, (max_object, max_degree))

    def tag(self):
        return f"(N={self.max_object}, D={self.max_degree})"


# ---------------------------------------------------------------------------
# category views over the combinatorics layer
# ---------------------------------------------------------------------------

class DeltaHCategory:
    name = "deltaH"
    variant = "all"

    def objects(self, max_object):
        return list(range(max_object + 1))

    def hom(self, a, b):
        return croscat.enumerate_hom(a, b, self.variant)

    def hom_size(self, a, b):
        return croscat.hom_size(a, b, self.variant)

    def identity(self, obj):
        return ifas_identity(obj)

    def compose(self, f2, f1):
        return ifas_compose(f2, f1)


class EpiDeltaHCategory(DeltaHCategory):
    name = "epideltaH"
    variant = "epi"


class ExtendedDeltaHCategory(DeltaHCategory):
    name = "deltaHplus"

    def objects(self, max_object):
        return [EMPTY_OBJECT] + list(range(max_object + 1))

    def hom(self, a, b):
        return croscat.extended_hom(a, b)

    def hom_size(self, a, b):
        return croscat.extended_hom_size(a, b)

    def identity(self, obj):
        if obj == EMPTY_OBJECT:
            return IFasMorphism(EMPTY_OBJECT, EMPTY_OBJECT, ())
        return ifas_identity(obj)


class BarFunctorView:
    """Functor adapter used by the assembler."""

    def __init__(self, functor: BarFunctor):
        self.functor = functor
        self.ring = functor.ring

    def dim(self, obj):
        return self.functor.dim(obj)

    def matrix(self, f):
        return self.functor.evaluate(f)


class IdealSummandView:
    """F_I for a functor F with F(f) = [[1, 0], [0, F_I(f)]]: ``matrix(f)``
    is F(f) with row 0 and column 0 dropped, once column 0 is checked to be
    exactly {0: 1} and no other column to have row 0; otherwise the
    splitting fails with ``ComplexError``."""

    def __init__(self, functor):
        self.functor = functor
        self.ring = functor.ring

    def dim(self, obj):
        return self.functor.dim(obj) - 1

    def matrix(self, f):
        M = self.functor.matrix(f)
        starts, rows, vals = M.starts, M.rows, M.vals
        if starts[1] != 1 or rows[0] != 0 or vals[0] != self.ring.one() \
                or 0 in rows[1:]:
            raise ComplexError(f"F({f}) does not preserve the splitting")
        return SparseMatrix.from_arrays(
            self.ring, M.nrows - 1, M.ncols - 1,
            array("q", [s - 1 for s in starts[1:]]),
            array(rows.typecode, [r - 1 for r in rows[1:]]), vals[1:])


class MorphismTable:
    """The morphisms among the objects of a truncated category, numbered once.

    Ids follow ``category.hom`` enumeration order, object pairs taken in the
    order of ``objects``, so ``hom[a, b]`` is a range of consecutive ids and
    the generator-index contract carries over to strings of ids.
    ``table[i]`` is the morphism with id ``i`` and ``id[f]`` the id of
    ``f``, and ``identities`` holds the ids of the identity morphisms.
    Composition is an int table, filled on first use: ``composites`` maps
    ``i2 * len(table) + i1`` to the id of ``table[i2] o table[i1]``.
    """

    def __init__(self, category, objects):
        self.category = category
        self.objects = list(objects)
        self.morphisms = []
        self.hom = {}
        for a in self.objects:
            for b in self.objects:
                start = len(self.morphisms)
                self.morphisms.extend(category.hom(a, b))
                self.hom[a, b] = range(start, len(self.morphisms))
        self.id = {f: i for i, f in enumerate(self.morphisms)}
        self.identities = frozenset(self.id[category.identity(o)]
                                    for o in self.objects)
        self.source = [f.source for f in self.morphisms]
        self.target = [f.target for f in self.morphisms]
        self.composites = {}

    def __len__(self):
        return len(self.morphisms)

    def __getitem__(self, i):
        return self.morphisms[i]

    def compose(self, i2, i1):
        """Id of ``table[i2] o table[i1]``."""
        key = i2 * len(self.morphisms) + i1
        out = self.composites.get(key)
        if out is None:
            out = self.composites[key] = self.id[self.category.compose(
                self.morphisms[i2], self.morphisms[i1])]
        return out


# ---------------------------------------------------------------------------
# truncated complexes
# ---------------------------------------------------------------------------

class TruncatedComplex:
    """Chain complex with explicit generator bookkeeping.

    dims[n] for n in 0..D+1; boundaries[n]: C_n -> C_{n-1} for n in 1..D+1.
    A complex assembled from a category (``build_gz_complex``) also keeps
    its ``functor``, its ``morphisms`` table and its string blocks, and
    nothing per string.  A degree-n string is ``(source object, tuple of n
    morphism ids)``, ids of the ``morphisms`` table, first morphism first.
    ``blocks[n]`` lists ``(object sequence, hom id lists, first
    generator)`` per block, in ``_blocks`` order; the block's strings are
    the product of its hom lists, the last varying fastest, and the string
    of local rank rho has its generators from first + rho dim F(s_0), one
    per functor basis element at the source.  ``walk(n)`` and ``firsts(n)``
    iterate the strings and their first generators in this order, the
    generator-index contract, with no list; the lists ``strings(n)`` and
    ``offsets(n)`` and the positions ``string_index(n)`` are derived from
    the blocks on first use and kept, for the lookups of the reduction
    machinery and the zero-anchored cone.  ``generator_counts`` are the
    standard complex's counts, which a normalized complex (see the module
    docstring) passes as ``counts``; ``dims`` are the generators it has.

    A complex is not changed after construction.  Its derived data, the
    lists above, the d^2 certificate of each pair (``dsquared_vanishes``)
    and the column stream of each boundary over the complex's ring
    (``boundary_stream``), is built on first use and never rebuilt, so
    every solve of the same complex reads one certificate per pair and one
    column stream per boundary.
    """

    def __init__(self, ring: Ring, policy: TruncationPolicy, dims, boundaries,
                 label="complex", blocks=None, functor=None, morphisms=None,
                 counts=None):
        self.ring = ring
        self.policy = policy
        self.dims = list(dims)
        self.counts = self.dims if counts is None else list(counts)
        self.boundaries = dict(boundaries)
        self.label = label
        self.blocks = blocks
        self._strings: dict = {}
        self._offsets: dict = {}
        self._string_index: dict = {}
        self.functor = functor
        self.morphisms = morphisms
        self._streams: dict = {}
        self._dsquared: dict = {}
        self._integral_dsquared: dict = {}
        if len(self.dims) != policy.max_degree + 2:
            raise ComplexError("dims must cover degrees 0..D+1")
        for n in range(1, policy.max_degree + 2):
            M = self.boundaries.get(n)
            if M is None:
                raise ComplexError(f"missing boundary in degree {n}")
            if (M.nrows, M.ncols) != (self.dims[n - 1], self.dims[n]):
                raise ComplexError(f"boundary {n} has the wrong shape")

    def dimension(self, n: int) -> int:
        if not 0 <= n <= self.policy.max_degree + 1:
            raise ComplexError(f"degree {n} outside the built range")
        return self.dims[n]

    def boundary(self, n: int) -> SparseMatrix:
        M = self.boundaries.get(n)
        if M is None:
            raise ComplexError(f"degree {n} boundary was not built")
        return M

    def walk(self, n: int):
        """The degree-n strings in generator order, walked off the blocks."""
        for seq, hs, _ in self.blocks[n]:
            src = seq[0]
            for ids in itertools.product(*hs):
                yield src, ids

    def firsts(self, n: int):
        """The first generator of every degree-n string, in order."""
        dim = self.functor.dim
        return itertools.chain.from_iterable(
            islice(itertools.count(first, dim(seq[0])), prod(map(len, hs)))
            for seq, hs, first in self.blocks[n])

    def strings(self, n: int) -> list:
        """The degree-n strings in order, derived on first use and kept."""
        out = self._strings.get(n)
        if out is None:
            out = self._strings[n] = list(self.walk(n))
        return out

    def offsets(self, n: int) -> list:
        """The first generator of every degree-n string, derived on first
        use and kept."""
        out = self._offsets.get(n)
        if out is None:
            out = self._offsets[n] = list(self.firsts(n))
        return out

    def string_index(self, n: int) -> dict:
        """Position of every degree-n string, derived on first use and
        kept."""
        index = self._string_index.get(n)
        if index is None:
            index = self._string_index[n] = _positions(self.walk(n))
        return index

    def boundary_stream(self, n: int) -> homology.ColumnStream:
        """The column stream of d_n over the complex's ring
        (``homology.column_stream``), built on first use: its rank,
        invariant factors, stats and pivot columns.  This is where the
        streams are chained (``homology`` module docstring): the stream of
        d_n, n >= 2, needs that of d_{n-1} and a certified d_{n-1} d_n = 0,
        and raises ``HomologyError`` without it; it is seeded by the pivot
        columns of d_{n-1} and stops at dim C_{n-1} - rank d_{n-1}, and d_1
        at dim C_0.  The stats are a new dict per call."""
        entry = self._streams.get(n)
        if entry is None:
            seeds, bound = (), self.dims[n - 1]
            if n >= 2:
                below = self.boundary_stream(n - 1)
                homology.require_dsquared(self, n)
                seeds, bound = below.pivots, bound - below.rank
            entry = self._streams[n] = homology.column_stream(
                self.boundary(n), bound, seeds)
        return entry._replace(stats={k: list(v) if type(v) is list else v
                                     for k, v in entry.stats.items()})

    def generator_counts(self):
        return list(self.counts)

    def dsquared_vanishes(self, n: int) -> bool:
        """Whether d_{n-1} d_n = 0 (``check_dsquared_pair``), checked on
        first use and kept.  A reduction mod p of an integer complex also
        reads the pairs that complex has found zero: zero over Z is zero
        mod p, but not conversely, so nothing a reduction finds goes back
        to the integer complex."""
        ok = self._dsquared.get(n)
        if ok is None:
            ok = self._integral_dsquared.get(n, False)
            if not ok:
                try:
                    check_dsquared_pair(self.boundary(n - 1),
                                        self.boundary(n), n)
                    ok = True
                except HomologyError:
                    ok = False
            self._dsquared[n] = ok
        return ok

    def check_dsquared(self) -> bool:
        """d_{n-1} d_n = 0 for every built pair, on integer columns."""
        return all(self.dsquared_vanishes(n)
                   for n in range(2, self.policy.max_degree + 2))

    def __repr__(self):
        return (f"TruncatedComplex({self.label}, {self.policy.tag()}, "
                f"dims={self.dims})")


def _positions(items) -> dict:
    return {s: i for i, s in enumerate(items)}


def projected_generator_counts(category, functor, policy: TruncationPolicy,
                               normalized: bool = False):
    """Per-degree generator counts from hom-set cardinalities alone; used by
    the resource guard and the size reports (no enumeration happens).
    ``normalized`` counts the strings with no identity arrow."""
    objs = category.objects(policy.max_object)
    sizes = {(a, b): category.hom_size(a, b) - (normalized and a == b)
             for a in objs for b in objs}
    ways = {o: 1 for o in objs}
    counts = [sum(functor.dim(o) * ways[o] for o in objs)]
    for _ in range(policy.max_degree + 1):
        ways = {o: sum(sizes[(o, o2)] * ways2 for o2, ways2 in ways.items())
                for o in objs}
        counts.append(sum(functor.dim(o) * ways[o] for o in objs))
    return counts


def _check_cap(label: str, projected, max_generators: int) -> None:
    """Raise ``ResourceCapExceeded`` at the first degree over the cap."""
    for degree, count in enumerate(projected):
        if count > max_generators:
            raise ResourceCapExceeded(label, degree, count, max_generators)


def _hom_lists(table: MorphismTable, normalized: bool = False) -> dict:
    """The nonempty hom lists ``H(a, b)`` of the truncated category, as id
    lists; ``normalized`` leaves out the identity ids."""
    homs = {}
    for (a, b), h in table.hom.items():
        if normalized and a == b:
            h = [i for i in h if i not in table.identities]
        if h:
            homs[a, b] = h
    return homs


def _blocks(objects, homs: dict, degree: int):
    """The blocks of degree-n strings: each object sequence ``s`` with
    nonempty hom lists, in product order, and its hom lists ``H_k =
    H(s_k, s_{k+1})``; the block's strings are their product, the last
    list varying fastest.  The sequences grow one object at a time along
    nonempty hom lists, which keeps the order of filtering
    ``itertools.product(objects, repeat=n + 1)`` without visiting the
    sequences that fail."""
    after = {a: [b for b in objects if (a, b) in homs] for a in objects}
    seqs = [(o,) for o in objects]
    for _ in range(degree):
        seqs = [seq + (b,) for seq in seqs for b in after[seq[-1]]]
    return [(seq, [homs[a, b] for a, b in zip(seq, seq[1:])]) for seq in seqs]


def _reduced(col: dict, p: int) -> dict:
    """A column accumulated in plain scalars, with zeros dropped and, for a
    prime field of characteristic ``p``, entries reduced mod ``p``."""
    if p:
        return {r: v % p for r, v in col.items() if v % p}
    if 0 in col.values():
        return {r: v for r, v in col.items() if v}
    return col


def _string_layout(lengths: tuple, m: int, faces_lead: bool) -> tuple:
    """Where the entries of one string's columns come from, for a string
    whose face 0 has functor columns of the given ``lengths`` and whose
    other faces are m rows.  With the string's m face rows, largest first,
    and then face 0's rows in one list, and their values in another, in
    the same order, entry e of the string's columns is row
    ``at(rows)[e] + shift[e]`` (shift the tensor index t of the column for
    a face, 0 for face 0) and value ``at(values)[e]``, and column t ends at
    ``ends[t]``.  The part on the higher string comes first in every
    column, its largest row first, so the column's leading row does."""
    at, shift, ends = [], [], []
    e = m
    for t, n in enumerate(lengths):
        own = (range(e, e + n), [0] * n)
        e += n
        faces = (range(m), [t] * m)
        for part in ((faces, own) if faces_lead else (own, faces)):
            at += part[0]
            shift += part[1]
        ends.append(len(at))
    # itemgetter gives no tuple for fewer than two indices
    return (itemgetter(*at) if len(at) > 1 else
            lambda seq: tuple(map(seq.__getitem__, at))), shift, ends


def build_gz_complex(category, functor, policy: TruncationPolicy,
                     max_generators: int = DEFAULT_MAX_GENERATORS,
                     label: str | None = None,
                     normalized: bool = False) -> TruncatedComplex:
    """Standard functor-homology complex over the truncated category.

    Degree-n generators are pairs (string of n composable morphisms, basis
    element of the functor at the string's source); the boundary is the
    alternating face sum (apply the functor to the first morphism, compose
    adjacent morphisms, truncate the top).  ``normalized`` builds the
    quotient by the degenerate strings instead (see the module docstring);
    its ``generator_counts`` and the cap stay the standard counts.

    Every face is located by arithmetic in the blocks of ``_blocks``.  Let
    stride_k = |H_{k+1}| ... |H_{n-1}|.  The string of local rank rho in
    the block of s has face 0 at rank rho mod stride_0 of block s[1:], its
    last face at rho // |H_{n-1}| of block s[:-1], and face i at
    (hi |H(s_{i-1}, s_{i+1})| + loc(c)) stride_i + lo of block s minus
    s_i.  There c is the composite of ids i-1 and i, loc(c) its position in
    its hom list (a normalized complex drops the face when c is an
    identity), and hi = rho // (|H_{i-1}| stride_{i-1}) and
    lo = rho mod stride_i are the digits above and below positions i-1, i.
    A string's first generator is its block's offset plus its rank times
    dim F(s_0).  The faces other than face 0 shift by the same tensor
    index, so they are merged once per string.
    """
    label = label or f"gz[{category.name}]"
    projected = projected_generator_counts(category, functor, policy)
    _check_cap(label, projected, max_generators)
    expected = projected_generator_counts(category, functor, policy, True) \
        if normalized else projected

    ring = functor.ring
    D = policy.max_degree
    table = MorphismTable(category, category.objects(policy.max_object))
    objects = table.objects
    fdim = {o: functor.dim(o) for o in objects}
    if normalized:
        for i in table.identities:
            if not functor.matrix(table[i]).equals(
                    SparseMatrix.identity(ring, fdim[table.source[i]])):
                raise ComplexError(f"{label}: the functor does not send "
                                   f"{table[i]} to the identity")
    homs = _hom_lists(table, normalized)
    # position of each id in its hom list; None for an identity of a
    # normalized complex, whose faces onto degenerate strings are zero
    loc = [None] * len(table)
    for h in homs.values():
        for k, i in enumerate(h):
            loc[i] = k

    p = ring.characteristic
    minus = p - 1 if p else -1
    size = len(table)
    composites = table.composites
    compose = table.compose
    # per first morphism: its functor columns, reduced once, each as its
    # rows (largest first, as stored) and values; all their rows and all
    # their values in one list each; and the numbered tuple of their lengths
    face0 = [None] * size
    # string layouts (``_string_layout``), and the functor column lengths
    # they depend on, numbered
    layouts, shapes = {}, {}
    blocks, dims = [], []
    boundaries = {}
    prev = None   # block offsets of degree n - 1
    for n in range(D + 2):
        level = []
        if n:
            writer = ColumnWriter(dims[-1])
            rows, vals, ends = writer.buffer
            flush_at = writer.FLUSH
            # columns written as dicts, their leading row first, not yet
            # handed to the writer: a few, as a dict takes far more memory
            pending = []
        here = {}
        total = 0
        for seq, hs in _blocks(objects, homs, n):
            f = fdim[seq[0]]
            here[seq] = total
            level.append((seq, hs, total))
            total += f * prod(map(len, hs))
            if not n:
                continue
            stride = [1] * n
            for k in range(n - 1, 0, -1):
                stride[k - 1] = stride[k] * len(hs[k])
            first_base, first_dim = prev[seq[1:]], fdim[seq[1]]
            last_base, last_size = prev[seq[:-1]], len(hs[-1])
            last_sign = minus if n % 2 else 1
            mids = [(i, minus if i % 2 else 1, prev.get(seq[:i] + seq[i + 1:]),
                     stride[i - 1] * len(hs[i - 1]),
                     len(homs.get((seq[i - 1], seq[i + 1]), ())), stride[i])
                    for i in range(1, n)]
            for rho, ids in enumerate(itertools.product(*hs)):
                if len(pending) >= 256:
                    writer.extend(pending)
                    pending.clear()
                if len(rows) >= flush_at:
                    writer.flush()
                first = ids[0]
                entry = face0[first]
                if entry is None:
                    F = functor.matrix(table[first])
                    fr = F.rows.tolist()
                    fv = [v % p for v in F.vals] if p else list(F.vals)
                    fcols = [(fr[a:b], fv[a:b])
                             for a, b in zip(F.starts, F.starts[1:])]
                    if 0 in fv:
                        # a value that vanishes mod p goes
                        fcols = [lead_first(dict(zip(*col))) for col in fcols]
                        fcols = [(list(c), list(c.values())) for c in fcols]
                    lengths = tuple(len(rs) for rs, _ in fcols)
                    entry = face0[first] = (
                        fcols, [r for rs, _ in fcols for r in rs],
                        [v for _, vs in fcols for v in vs],
                        shapes.setdefault(lengths, (len(shapes), lengths)))
                fcols, rows0, vals0, shape = entry
                base0 = first_base + rho % stride[0] * first_dim
                faces = {}
                count = 1
                for i, sign, base, above, width, below in mids:
                    c = composites.get(ids[i] * size + ids[i - 1])
                    if c is None:
                        c = compose(ids[i], ids[i - 1])
                    k = loc[c]
                    if k is not None:
                        r = base + ((rho // above * width + k) * below
                                    + rho % below) * f
                        faces[r] = faces.get(r, 0) + sign
                        count += 1
                r = last_base + rho // last_size * f
                faces[r] = faces.get(r, 0) + last_sign
                if len(faces) < count:
                    # two faces on one string: their sum may vanish
                    faces = _reduced(faces, p)
                if base0 in faces:
                    # face 0 is another face's string: add, then reduce
                    for t, (rs, vs) in enumerate(fcols):
                        col = dict(zip(map(base0.__add__, rs), vs))
                        for r, v in faces.items():
                            col[r + t] = col.get(r + t, 0) + v
                        pending.append(lead_first(_reduced(col, p)))
                    continue
                if f == 1:
                    # one column: face 0 joins the faces' dict
                    for r, v in zip(*fcols[0]):
                        faces[base0 + r] = v
                    pending.append({max(faces): 0, **faces} if faces else {})
                    continue
                if pending:
                    writer.extend(pending)
                    pending.clear()
                # face 0 and the other faces lie on different strings, so
                # the part on the higher string leads every column
                frows = sorted(faces, reverse=True)
                key = (shape[0], len(frows), bool(frows) and frows[0] > base0)
                layout = layouts.get(key)
                if layout is None:
                    layout = layouts[key] = _string_layout(shape[1], *key[1:])
                at, shift, cends = layout
                fvals = list(map(faces.__getitem__, frows))
                fvals += vals0
                frows += map(base0.__add__, rows0)
                end = len(writer.rows) + len(rows)
                rows += map(add, at(frows), shift)
                vals += at(fvals)
                ends += map(end.__add__, cends)
        if total != expected[n]:
            raise ComplexError("projected and enumerated sizes disagree")
        blocks.append(level)
        if n:
            writer.extend(pending)
            boundaries[n] = writer.matrix(ring, total)
        dims.append(total)
        prev = here

    return TruncatedComplex(ring, policy, dims, boundaries, label=label,
                            blocks=blocks, functor=functor, morphisms=table,
                            counts=projected)


# ---------------------------------------------------------------------------
# under-category variant and its certificate
# ---------------------------------------------------------------------------

class RelationCertificate(namedtuple("RelationCertificate",
                                     "pairs_checked pairs_failed")):
    """Record that the normal-form retraction kills the tensor relations.

    A relation column is indexed by a composable pair (alpha, g) with a
    string tail and a coefficient basis element; its image under the
    retraction is F(g o alpha) e_x - F(g) F(alpha) e_x for that basis
    element e_x, so it vanishes iff the functor is functorial on
    (g, alpha), whatever the tail.  The
    certificate therefore checks the pairs: all of them up to
    ``EXHAUSTIVE_PAIR_LIMIT``, a sample of ``SAMPLED_PAIRS`` drawn with the
    fixed seed ``SAMPLE_SEED`` beyond it.  A pair is checked column
    by column, with no product matrix: column x of F(g o alpha) against
    F(g) applied to column x of F(alpha)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.pairs_failed == 0


EXHAUSTIVE_PAIR_LIMIT = 200_000
SAMPLED_PAIRS = 2000
SAMPLE_SEED = 11


def relation_certificate(table: MorphismTable,
                         functor) -> RelationCertificate:
    objs, hom = table.objects, table.hom
    pair_count = sum(len(hom[a, b]) * len(hom[b, c])
                     for a in objs for b in objs for c in objs)
    rng = random.Random(SAMPLE_SEED)
    if pair_count <= EXHAUSTIVE_PAIR_LIMIT:
        triples = [(alpha, g) for a in objs for b in objs for c in objs
                   for alpha in hom[a, b] for g in hom[b, c]]
    else:
        triples = []
        flat = [(a, b) for a in objs for b in objs if hom[a, b]]
        while len(triples) < SAMPLED_PAIRS:
            a, b = rng.choice(flat)
            bc = [(x, y) for x, y in flat if x == b]
            if not bc:
                continue
            _, c = rng.choice(bc)
            triples.append((rng.choice(hom[a, b]), rng.choice(hom[b, c])))
    columns = [None] * len(table)

    def cols(i):
        # the columns of F(table[i]), read once through the accessor
        if columns[i] is None:
            M = functor.matrix(table[i])
            columns[i] = [M.column(x) for x in range(M.ncols)]
        return columns[i]

    return RelationCertificate(len(triples), sum(
        cols(table.compose(g, alpha)) != combination(functor.ring, cols(g),
                                                     cols(alpha))
        for alpha, g in triples))


def build_nerve_variant(category, functor, policy: TruncationPolicy,
                        max_generators: int = DEFAULT_MAX_GENERATORS,
                        label: str | None = None,
                        certificate: bool = True,
                        normalized: bool = False):
    """Under-category variant presented in normal coordinates.

    Returns (complex, certificate).  The generator index set coincides with
    the standard complex by construction (see the module docstring); what
    makes the quotient presentation legitimate is the relation certificate.
    ``normalized`` is passed on to ``build_gz_complex``.
    """
    label = label or f"nerve[{category.name}]"
    cpx = build_gz_complex(category, functor, policy, max_generators, label,
                           normalized)
    cert = relation_certificate(cpx.morphisms, functor) if certificate else None
    if cert is not None and not cert.ok:
        raise ComplexError(f"{label}: tensor relations are not killed by the "
                           f"normal-form retraction")
    return cpx, cert


def _moved(M: SparseMatrix, to, p: int):
    """Every column of ``M``, in order, with each row r moved to ``to[r]``,
    read in one pass over the arrays of ``M``; entries that land on one row
    are added and then reduced as ``_reduced`` does."""
    entries = zip(map(to.__getitem__, M.rows), M.vals)
    for length in map(sub, M.starts[1:], M.starts[:-1]):
        moved = list(islice(entries, length))
        col = dict(moved)
        if len(col) < length:
            col = {}
            for r, v in moved:
                col[r] = col.get(r, 0) + v
            col = _reduced(col, p)
        yield col


def _id_minus(first, second, p: int, sign: int = 1) -> list:
    """The columns of sign (id - second o first) for index maps."""
    plus, minus = 1, p - 1 if p else -1
    if sign < 0:
        plus, minus = minus, plus
    return [{} if (k := second[i]) == j else {j: plus, k: minus}
            for j, i in enumerate(first)]


class ChainMap(namedtuple("ChainMap", "source target images label")):
    """A chain map that sends each generator to one generator with
    coefficient one: ``images[n][j]`` is the target index of the degree-n
    generator j (see the module docstring)."""

    __slots__ = ()

    def __new__(cls, source: TruncatedComplex, target: TruncatedComplex,
                images: dict, label: str = "chain map"):
        if any(len(images[n]) != d for n, d in enumerate(source.dims)):
            raise ComplexError(f"{label}: images do not fit the source")
        return tuple.__new__(cls, (source, target, images, label))

    def commutes_with_boundaries(self) -> bool:
        """d_t M = M d_s: column j of d_t M is the target boundary's column
        ``images[n][j]``, and column j of M d_s the source boundary's column
        j with its rows moved by ``images[n - 1]``."""
        p = self.source.ring.characteristic
        for n in range(1, self.source.policy.max_degree + 2):
            target, seen = self.target.boundary(n), {}
            for k, col in zip(self.images[n], _moved(
                    self.source.boundary(n), self.images[n - 1], p)):
                want = seen.get(k)
                if want is None:
                    want = seen[k] = target.column(k)
                if want != col:
                    return False
        return True


def gz_nerve_iso(nerve: TruncatedComplex, gz: TruncatedComplex) -> ChainMap:
    """The comparison isomorphism in normal coordinates.

    Sends the class of a string with identity base to the standard generator
    with the same index, which is the identity degreewise, so it commutes
    with the boundaries exactly when the two boundaries are equal; validity
    rests on the certificate produced with the nerve variant."""
    if nerve.dims != gz.dims:
        raise ComplexError("variants disagree on generator counts")
    D = nerve.policy.max_degree
    for n in range(1, D + 2):
        if not nerve.boundary(n).equals(gz.boundary(n)):
            raise ComplexError("comparison map does not commute with "
                               "boundaries")
    return ChainMap(nerve, gz, {n: range(nerve.dims[n]) for n in range(D + 2)},
                    label="nerve-to-standard")


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

class CoefficientModule(namedtuple("CoefficientModule", "free_rank torsion")):
    """Finitely generated coefficients: free rank plus prime torsion orders.

    Torsion moduli are restricted to primes so that every component complex
    lives over a field or over the integers."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple = ()):
        if free_rank < 0:
            raise ComplexError("negative free rank")
        for m in torsion:
            try:
                GF(m)
            except RingError:
                raise ComplexError(f"torsion order {m} is not prime")
        return tuple.__new__(cls, (free_rank, torsion))


class TensoredComplex(namedtuple("TensoredComplex", "base module components")):
    """Degreewise tensor with a coefficient module, componentwise.

    components: list of (multiplicity, complex); homology of the tensored
    complex is the direct sum over components with multiplicity."""

    __slots__ = ()

    def dimension(self, n):
        return sum(mult * c.dimension(n) for mult, c in self.components)


def reduce_mod_p(complex_: TruncatedComplex, p: int) -> TruncatedComplex:
    if complex_.ring != ZZ:
        raise ComplexError("mod-p reduction starts from an integer complex")
    field = GF(p)
    boundaries = {n: _reduced_matrix(M, p, field)
                  for n, M in complex_.boundaries.items()}
    reduced = TruncatedComplex(field, complex_.policy, complex_.dims,
                               boundaries, label=f"{complex_.label} mod {p}",
                               blocks=complex_.blocks,
                               functor=complex_.functor,
                               morphisms=complex_.morphisms,
                               counts=complex_.counts)
    # read, never written: see TruncatedComplex.dsquared_vanishes
    reduced._integral_dsquared = complex_._dsquared
    return reduced


def _reduced_matrix(M: SparseMatrix, p: int, field) -> SparseMatrix:
    """``M`` mod ``p``.  The residues are written in one pass; only the
    columns where one vanishes are written again, their leading row found
    anew, and the column starts after each move down by the entries it
    dropped."""
    starts, rows = M.starts, M.rows
    vals = map(p.__rmod__, M.vals)
    vals = array("q", vals) if p < 1 << 63 else list(vals)
    if 0 not in vals:
        return SparseMatrix.from_arrays(field, M.nrows, M.ncols, starts,
                                        rows, vals)
    hit = []
    i = vals.index(0)
    while True:
        j = bisect_right(starts, i) - 1
        hit.append(j)
        try:
            i = vals.index(0, starts[j + 1])
        except ValueError:
            break
    writer = ColumnWriter(M.nrows)
    if type(vals) is list:
        writer.vals = []
    done = dropped = 0   # columns before ``done`` are written
    for j in hit + [M.ncols]:
        writer.flush()
        writer.starts.extend(map(dropped.__rsub__, starts[done + 1:j + 1]))
        writer.rows += rows[starts[done]:starts[j]]
        writer.vals += vals[starts[done]:starts[j]]
        if j < M.ncols:
            a, b = starts[j], starts[j + 1]
            writer.extend([lead_first(dict(zip(rows[a:b], vals[a:b])))])
            dropped = b - len(writer.rows) - len(writer.buffer[0])
            done = j + 1
    return writer.matrix(field, M.ncols)


def tensor_with_coefficients(complex_: TruncatedComplex,
                             module: CoefficientModule) -> TensoredComplex:
    """Degreewise tensor with boundary d (x) id, assembled per component.

    The free component is the complex itself, and each distinct prime is
    reduced once, the reduction listed once per occurrence."""
    components = []
    if module.free_rank:
        components.append((module.free_rank, complex_))
    if module.torsion and complex_.ring != ZZ:
        raise ComplexError("torsion coefficients need an integer complex")
    reduced = {m: reduce_mod_p(complex_, m) for m in set(module.torsion)}
    components.extend((1, reduced[m]) for m in module.torsion)
    if not components:
        raise ComplexError("zero coefficient module")
    return TensoredComplex(complex_, module, components)


# ---------------------------------------------------------------------------
# reduced machinery for augmented algebras
# ---------------------------------------------------------------------------

class ReducedMachinery:
    """All the chain-level data attached to an augmented algebra at a fixed
    truncation: the two summands of the adapted full complex, the
    epimorphism complex, the comparison chain maps and the homotopies.

    Tensor index 0 is the all-units tuple and face 0 the only face that
    applies F, so the nerve splits when every F(f) is [[1, 0], [0, F_I(f)]]
    (checked by ``IdealSummandView``).  Each summand is a
    ``build_gz_complex`` complex: C_I of F_I, and C_k, one generator per
    string, of the ground ring.  Their strings and morphism ids are the
    nerve's, and the cap acts on the nerve's projected count, their sum.
    """

    def __init__(self, algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                 max_generators: int = DEFAULT_MAX_GENERATORS,
                 certificate: bool = True):
        if algebra.augmentation is None:
            raise AlgebraError("the reduced machinery needs an augmented algebra")
        self.algebra = adapt_basis_to_augmentation(algebra)
        self.ring = algebra.ring
        self.policy = policy
        self.full_functor = BarFunctor(self.algebra, FULL)
        self.ideal_functor = BarFunctor(self.algebra, IDEAL)
        full = BarFunctorView(self.full_functor)
        _check_cap("nerve[deltaH]", projected_generator_counts(
            DeltaHCategory(), full, policy), max_generators)
        self.c_ideal = build_gz_complex(DeltaHCategory(),
                                        IdealSummandView(full), policy,
                                        max_generators, label="C_I")
        if certificate and not relation_certificate(self.c_ideal.morphisms,
                                                    full).ok:
            raise ComplexError("nerve[deltaH]: tensor relations are not "
                               "killed by the normal-form retraction")
        self.c_unit = build_gz_complex(
            DeltaHCategory(), BarFunctorView(BarFunctor(
                ground_ring_algebra(self.ring), FULL)),
            policy, max_generators, label="C_k")
        self.epi, _ = build_nerve_variant(
            EpiDeltaHCategory(), BarFunctorView(self.ideal_functor), policy,
            max_generators, label="epi", certificate=certificate)
        self._factors = [None] * len(self.c_ideal.morphisms)
        self._injections = {}
        self._decodings = {}
        self._full_indices = {}
        self._chi = None
        self._inclusion = None
        self._homotopy = None
        self._homotopy_sign = None

    # -- ideal generators on morphism ids --------------------------------------

    def _ideal_decoding(self, src):
        """Per full tensor index t >= 1 at ``src``: the nonzero positions of
        its tuple and the index of its ideal letters in the ideal basis at
        ``len(positions) - 1``."""
        out = self._decodings.get(src)
        if out is None:
            out = []
            for tpl in self.full_functor.basis(src).tuples[1:]:
                positions = tuple(p for p, letter in enumerate(tpl) if letter)
                letters = tuple(tpl[p] for p in positions)
                ideal = self.ideal_functor.basis(len(positions) - 1)
                out.append((positions, ideal.index[letters]))
            self._decodings[src] = out
        return out

    def _full_index(self, obj):
        """Full tensor index of every ideal tuple at ``obj``, in order."""
        out = self._full_indices.get(obj)
        if out is None:
            index = self.full_functor.basis(obj).index
            out = self._full_indices[obj] = [
                index[letters] for letters in self.ideal_functor.basis(obj).tuples]
        return out

    def _injection(self, positions, target):
        """Id of the order-preserving injection onto ``positions``."""
        key = (positions, target)
        out = self._injections.get(key)
        if out is None:
            out = self._injections[key] = self.c_ideal.morphisms.id[
                ifas_injection(positions, target)]
        return out

    def _epi_walk(self, iota, ids):
        """Run the epimorphism construction along a string anchored at a
        monomorphism: returns (epimorphism parts, monomorphism parts), as
        ids of the summands' morphism table."""
        table = self.c_ideal.morphisms
        factors = self._factors
        monos = [iota]
        epis = []
        m = iota
        for f in ids:
            c = table.compose(f, m)
            fac = factors[c]
            if fac is None:
                mono, epi = factorize_ifas(table[c])
                fac = factors[c] = (table.id[mono], table.id[epi])
            m, e = fac
            epis.append(e)
            monos.append(m)
        return epis, monos

    def _ci_base(self, n, key):
        """The ideal-summand generator (degree-n string ``key``, full tensor
        index t) has block index ``_ci_base(n, key) + t``."""
        si = self.c_ideal.string_index(n).get(key)
        if si is None:
            raise ComplexError("reduction left the truncation window")
        return self.c_ideal.offsets(n)[si] - 1

    # -- chain maps ------------------------------------------------------------

    def chi(self) -> ChainMap:
        """Comparison map from the ideal summand onto the epimorphism
        complex: apply the epimorphism construction to the whole string."""
        if self._chi is None:
            table, epi = self.c_ideal.morphisms, self.epi
            to_epi = {table.id[f]: e for e, f in enumerate(epi.morphisms.morphisms)}
            images = {}
            for n in range(self.policy.max_degree + 2):
                index, offs = epi.string_index(n), epi.offsets(n)
                out = []
                for src, ids in self.c_ideal.walk(n):
                    # the walk depends on the positions, not on the letters
                    bases = {}
                    for positions, t in self._ideal_decoding(src):
                        base = bases.get(positions)
                        if base is None:
                            epis, _ = self._epi_walk(
                                self._injection(positions, src), ids)
                            si = index.get((len(positions) - 1,
                                            tuple(to_epi[e] for e in epis)))
                            if si is None:
                                raise ComplexError("epimorphism string left "
                                                   "the truncation window")
                            base = bases[positions] = offs[si]
                        out.append(base + t)
                images[n] = out
            self._chi = ChainMap(self.c_ideal, self.epi, images, label="chi")
        return self._chi

    def inclusion(self) -> ChainMap:
        """Inclusion of the epimorphism complex into the ideal summand."""
        if self._inclusion is None:
            table = self.c_ideal.morphisms
            to_full = [table.id[f] for f in self.epi.morphisms.morphisms]
            images = {}
            for n in range(self.policy.max_degree + 2):
                out = []
                for src, ids in self.epi.walk(n):
                    base = self._ci_base(n, (src, tuple(to_full[e] for e in ids)))
                    out.extend(base + t for t in self._full_index(src))
                images[n] = out
            self._inclusion = ChainMap(self.epi, self.c_ideal, images,
                                       label="inclusion")
        return self._inclusion

    def homotopy(self):
        """Presimplicial homotopy between the identity of the ideal summand
        and inclusion-after-comparison: term j applies the epimorphism
        construction to the first j morphisms and inserts the j-th
        monomorphism part."""
        if self._homotopy is None:
            p = self.ring.characteristic
            mats = {}
            for n in range(self.policy.max_degree + 1):
                cols = []
                for src, ids in self.c_ideal.walk(n):
                    terms = {}
                    for positions, t in self._ideal_decoding(src):
                        hit = terms.get(positions)
                        if hit is None:
                            epis, monos = self._epi_walk(
                                self._injection(positions, src), ids)
                            anchor = len(positions) - 1
                            hit = terms[positions] = (
                                [self._ci_base(n + 1, (anchor, tuple(epis[:j])
                                                       + (monos[j],) + ids[j:]))
                                 for j in range(n + 1)],
                                self._full_index(anchor))
                        bases, full = hit
                        col = {}
                        sign = 1
                        for base in bases:
                            r = base + full[t]
                            col[r] = col.get(r, 0) + sign
                            sign = -sign
                        cols.append(_reduced(col, p))
                mats[n] = SparseMatrix(self.ring, self.c_ideal.dimension(n + 1),
                                       self.c_ideal.dimension(n), cols)
            self._homotopy = mats
        return self._homotopy

    def homotopy_identity_sign(self):
        """Empirical global sign: s with (d h + h d) == s (id - i chi)."""
        if self._homotopy_sign is None:
            lhs = self.c_ideal.boundary(1).matmul(self.homotopy()[0])
            lhs = [lhs.column(j) for j in range(lhs.ncols)]
            p = self.ring.characteristic
            chi, inc = self.chi().images[0], self.inclusion().images[0]
            if lhs == _id_minus(chi, inc, p):
                self._homotopy_sign = 1
            elif lhs == _id_minus(chi, inc, p, -1):
                self._homotopy_sign = -1
            else:
                raise ComplexError("homotopy identity fails in degree zero")
        return self._homotopy_sign

    def verify_chain_theorem(self) -> dict:
        """Exact verification of the reduction theorem at this truncation:
        both maps are chain maps, the comparison retracts the inclusion,
        and the homotopy witnesses the other composite.  The maps are index
        maps (see the module docstring); only d h + h d is a product."""
        chi, inc, h = self.chi(), self.inclusion(), self.homotopy()
        sign = self.homotopy_identity_sign()
        out = {
            "chi_chain_map": chi.commutes_with_boundaries(),
            "inclusion_chain_map": inc.commutes_with_boundaries(),
            "homotopy_sign": sign,
        }
        D = self.policy.max_degree
        p = self.ring.characteristic
        out["chi_after_inclusion_is_identity"] = all(
            [chi.images[n][k] for k in inc.images[n]]
            == list(range(self.epi.dimension(n))) for n in range(D + 2))
        ok_homotopy = True
        ok_on_image = True
        for n in range(D + 1):
            up = self.c_ideal.boundary(n + 1).matmul(h[n])
            cols = [up.column(j) for j in range(up.ncols)]
            if n >= 1:
                down = h[n - 1].matmul(self.c_ideal.boundary(n))
                for j, col in enumerate(cols):
                    for r, v in down.column(j).items():
                        col[r] = col.get(r, 0) + v
                    cols[j] = _reduced(col, p)
            if cols != _id_minus(chi.images[n], inc.images[n], p, sign):
                ok_homotopy = False
            if any(cols[k] for k in inc.images[n]):
                ok_on_image = False
        out["homotopy_identity"] = ok_homotopy
        out["homotopy_vanishes_on_epi_image"] = ok_on_image
        return out

    # -- contraction of the unit summand ---------------------------------------

    def unit_summand_contraction(self):
        """``(h, identities)``: the degree-raising maps of the unit summand,
        built from the canonical point-zero section, as index maps (``h[n]``
        sends generator j of degree n to generator ``h[n][j]`` of degree
        n + 1), and per degree whether the contraction identity holds
        (``_contraction_identities``, with the augmentation onto one point
        and its section).

        The degree-zero identity d h0 = id - (section o augmentation) holds
        exactly; in higher degrees the corresponding identity is a statement
        about the pre-quotient complex of strings anchored at the smallest
        object (see zero_anchored_contraction) and is reported, not assumed,
        on the quotient."""
        D = self.policy.max_degree
        h = {}
        for n in range(D + 1):
            index = self.c_unit.string_index(n + 1)
            h[n] = []
            for src, ids in self.c_unit.walk(n):
                # the unit generator of a string has the string's position
                row = index.get((0, (self._injection((0,), src),) + ids))
                if row is None:
                    raise ComplexError("contraction left the truncation window")
                h[n].append(row)
        # the section of the augmentation
        eta_row = self.c_unit.string_index(0)[0, ()]
        return h, _contraction_identities(
            self.c_unit.boundary, h, eta_row, self.ring.characteristic, D)


def _contraction_identities(boundary, h, eta_row: int, p: int,
                            top: int) -> dict:
    """Whether d h = id - eta eps in degree 0 and d h + h d = id in degrees
    1..top, per degree, for the index maps ``h[n]`` (degree n to n + 1), the
    augmentation eps onto one point and its section eta onto generator
    ``eta_row``: column j of d h is d's column ``h[n][j]``, and column j of
    h d is d's column j with its rows moved by ``h[n - 1]``."""
    out = {0: list(map(boundary(1).column, h[0]))
           == _id_minus([0] * len(h[0]), [eta_row], p)}
    for n in range(1, top + 1):
        upper, lower = boundary(n + 1), boundary(n)
        out[n] = True
        for j, k, col in zip(itertools.count(), h[n],
                             _moved(lower, h[n - 1], p)):
            for r, v in upper.column(k).items():
                col[r] = col.get(r, 0) + v
            if _reduced(col, p) != {j: 1}:
                out[n] = False
                break
    return out


class ZeroAnchoredView:
    """The representable functor k[Hom(0, -)] over Delta H: the basis at o
    is Hom(0, o) in ``croscat.enumerate_hom`` order, and f sends g to
    f o g."""

    def __init__(self, ring: Ring):
        self.ring = ring

    def dim(self, obj):
        return croscat.hom_size(0, obj)

    def matrix(self, f):
        rows = _positions(croscat.enumerate_hom(0, f.target))
        one = self.ring.one()
        return SparseMatrix(self.ring, len(rows), self.dim(f.source),
                            [{rows[ifas_compose(f, g)]: one}
                             for g in croscat.enumerate_hom(0, f.source)])


def zero_anchored_complex(policy: TruncationPolicy, ring: Ring,
                          max_generators: int = DEFAULT_MAX_GENERATORS
                          ) -> TruncatedComplex:
    """The complex of strings anchored at the smallest object: the standard
    complex of k[Hom(0, -)] over Delta H (``ZeroAnchoredView``).  Its
    generator (g; f_1, ..., f_n) is the string (g, f_1, ..., f_n) of n + 1
    composable morphisms from object 0; face 0 is F(f_1) g = f_1 o g, the
    middle faces compose and the last face drops.  ``max_generators`` caps
    each degree's projected count, before any string is enumerated."""
    return build_gz_complex(DeltaHCategory(), ZeroAnchoredView(ring), policy,
                            max_generators, label="zero-anchored")


def zero_anchored_contraction(policy: TruncationPolicy, ring: Ring,
                              max_generators: int = DEFAULT_MAX_GENERATORS) -> dict:
    """Exact cone contraction of the complex of strings anchored at the
    smallest object (pre-quotient form of the unit summand).

    Degree n is spanned by strings of n+1 composable morphisms whose first
    morphism starts at object 0 (``zero_anchored_complex``); prepending the
    identity of object 0 is an extra degeneracy and the contraction
    identities hold on the nose, inside the truncation, because only
    object 0 is inserted.  The degeneracy sends generator (g; f_1, ...,
    f_n) to (id_0; g, f_1, ..., f_n), an index map."""
    cpx = zero_anchored_complex(policy, ring, max_generators)
    D = policy.max_degree
    table = cpx.morphisms
    # position of id_0 in Hom(0, 0), the basis at the strings from 0
    unit = table.id[ifas_identity(0)] - table.hom[0, 0].start
    h = {}
    for n in range(D + 1):
        index, offsets = cpx.string_index(n + 1), cpx.offsets(n + 1)
        h[n] = [offsets[index[0, (g,) + ids]] + unit
                for src, ids in cpx.walk(n) for g in table.hom[0, src]]
    eta_row = cpx.offsets(0)[cpx.string_index(0)[0, ()]] + unit
    results = _contraction_identities(cpx.boundary, h, eta_row,
                                      ring.characteristic, D)
    return {"identities": results, "dims": cpx.dims,
            "ok": all(results.values())}


# ---------------------------------------------------------------------------
# builders of the single-complex pipelines
# ---------------------------------------------------------------------------

def build_epi_complex(algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                      max_generators: int = DEFAULT_MAX_GENERATORS
                      ) -> TruncatedComplex:
    """The normalized epimorphism complex (see the module docstring)."""
    adapted = adapt_basis_to_augmentation(algebra)
    functor = BarFunctor(adapted, IDEAL)
    cpx, _ = build_nerve_variant(EpiDeltaHCategory(), BarFunctorView(functor),
                                 policy, max_generators, label="epi",
                                 normalized=True)
    return cpx


def build_full_complex(algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                       max_generators: int = DEFAULT_MAX_GENERATORS
                       ) -> TruncatedComplex:
    functor = BarFunctor(algebra, FULL)
    return build_gz_complex(DeltaHCategory(), BarFunctorView(functor), policy,
                            max_generators, label="full")


def build_extended_complex(algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                           max_generators: int = DEFAULT_MAX_GENERATORS
                           ) -> TruncatedComplex:
    functor = BarFunctor(algebra, EXTENDED)
    return build_gz_complex(ExtendedDeltaHCategory(), BarFunctorView(functor),
                            policy, max_generators, label="extended")
