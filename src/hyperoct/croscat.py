"""Hyperoctahedral groups and the categories built on them.

Two presentations of the same category are implemented.

* The pair presentation: a morphism ``[n] -> [m]`` is a pair ``(phi, g)``
  where ``phi`` is an order-preserving map and ``g`` is an element of the
  hyperoctahedral group on ``n + 1`` letters (signed permutations).  Pairs
  compose through the star-relation tables for the face/degeneracy and group
  generators.

* The labeled-preimage presentation: a morphism is a map of finite sets in
  which the preimage of every target point carries a total order and a sign
  label on each point.  Composition is one uniform rule (ordered union of
  labeled fibers, with the sign action reversing order and flipping labels).

The labeled-preimage form is the canonical internal representation; pairs
are a view with conversions both ways.  The table-driven pair composition is
kept as an independent implementation so the isomorphism between the two
presentations can be tested rather than assumed.

Conventions fixed project-wide:

* permutations are one-line tuples ``perm[i] = image of i``;
* composition is "right acts first": ``compose(a, b)(i) = a(b(i))``;
* sign labels are ints, ``0`` for the trivial label and ``1`` for the flip;
* the object ``[n]`` is the set ``{0..n}``; the extended category adjoins an
  initial empty object encoded as index ``-1``.
"""
from __future__ import annotations

import itertools
import random
from collections import namedtuple
from math import comb, factorial

LABEL_ONE = 0
LABEL_T = 1

EMPTY_OBJECT = -1


class CategoryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# permutations (one-line tuples)
# ---------------------------------------------------------------------------

def perm_compose(a: tuple, b: tuple) -> tuple:
    """a after b."""
    return tuple(a[x] for x in b)


def perm_inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_identity(points: int) -> tuple:
    return tuple(range(points))


# ---------------------------------------------------------------------------
# hyperoctahedral group elements
# ---------------------------------------------------------------------------

class HypElement(namedtuple("HypElement", "signs perm")):
    """Element of the signed-permutation group on ``n + 1`` letters.

    ``signs[i]`` is the label attached to letter ``i`` before the permutation
    moves it; ``perm`` is one-line notation.
    """

    __slots__ = ()

    def __new__(cls, signs: tuple, perm: tuple):
        if len(signs) != len(perm):
            raise CategoryError("signs/perm length mismatch")
        if sorted(perm) != list(range(len(perm))):
            raise CategoryError(f"{perm} is not a permutation")
        if any(z not in (0, 1) for z in signs):
            raise CategoryError("labels must be 0 or 1")
        return tuple.__new__(cls, (signs, perm))

    @property
    def n(self) -> int:
        return len(self.perm) - 1

    def __str__(self):
        zs = "".join("t" if z else "1" for z in self.signs)
        return f"({zs};{','.join(map(str, self.perm))})"


def hyp_identity(n: int) -> HypElement:
    return HypElement((0,) * (n + 1), perm_identity(n + 1))


def hyp_t(n: int, i: int) -> HypElement:
    """Sign flip on letter ``i``."""
    if not 0 <= i <= n:
        raise CategoryError(f"t_{i} undefined on [{n}]")
    signs = [0] * (n + 1)
    signs[i] = 1
    return HypElement(tuple(signs), perm_identity(n + 1))


def hyp_theta(n: int, j: int) -> HypElement:
    """Adjacent transposition (j, j+1)."""
    if not 0 <= j <= n - 1:
        raise CategoryError(f"theta_{j} undefined on [{n}]")
    perm = list(range(n + 1))
    perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return HypElement((0,) * (n + 1), tuple(perm))


def hyp_compose(a: HypElement, b: HypElement) -> HypElement:
    """Group law of the semidirect product, ``b`` acting first.

    Signs live on source letters (the letter ``p`` of the composite carries
    ``b``'s label on ``p`` plus ``a``'s label on the letter ``b`` sends ``p``
    to), matching composition of labeled bijections.
    """
    if a.n != b.n:
        raise CategoryError(f"size mismatch: {a.n} vs {b.n}")
    signs = tuple(b.signs[p] ^ a.signs[b.perm[p]] for p in range(a.n + 1))
    return HypElement(signs, perm_compose(a.perm, b.perm))


def hyp_group_order(n: int) -> int:
    return (2 ** (n + 1)) * factorial(n + 1)


def hyp_closure(generators) -> set:
    """Closure of a generator set under the group law."""
    elems = set(generators)
    frontier = list(elems)
    while frontier:
        new = []
        for a in frontier:
            for b in list(elems):
                for c in (hyp_compose(a, b), hyp_compose(b, a)):
                    if c not in elems:
                        elems.add(c)
                        new.append(c)
        frontier = new
    return elems


# ---------------------------------------------------------------------------
# order-preserving maps
# ---------------------------------------------------------------------------

class DeltaMorphism(namedtuple("DeltaMorphism", "source target values")):
    """Order-preserving map [n] -> [m], stored by its value tuple."""

    __slots__ = ()

    def __new__(cls, source: int, target: int, values: tuple):
        if len(values) != source + 1:
            raise CategoryError("value tuple length mismatch")
        if any(not 0 <= v <= target for v in values):
            raise CategoryError("value out of range")
        if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
            raise CategoryError(f"{values} is not weakly increasing")
        return tuple.__new__(cls, (source, target, values))

    def __call__(self, x: int) -> int:
        return self.values[x]

    def __str__(self):
        return f"D[{self.source}->{self.target}:{','.join(map(str, self.values))}]"


def delta_identity(n: int) -> DeltaMorphism:
    return DeltaMorphism(n, n, tuple(range(n + 1)))


def delta_face(n: int, i: int) -> DeltaMorphism:
    """The injection [n] -> [n+1] omitting ``i``."""
    if not 0 <= i <= n + 1:
        raise CategoryError(f"delta_{i} undefined into [{n + 1}]")
    return DeltaMorphism(n, n + 1, tuple(x if x < i else x + 1 for x in range(n + 1)))


def delta_degeneracy(n: int, j: int) -> DeltaMorphism:
    """The surjection [n+1] -> [n] merging ``j`` and ``j+1``."""
    if not 0 <= j <= n:
        raise CategoryError(f"sigma_{j} undefined onto [{n}]")
    return DeltaMorphism(n + 1, n, tuple(x if x <= j else x - 1 for x in range(n + 2)))


def delta_compose(a: DeltaMorphism, b: DeltaMorphism) -> DeltaMorphism:
    if b.target != a.source:
        raise CategoryError("objects do not match")
    return DeltaMorphism(b.source, a.target, tuple(a.values[v] for v in b.values))


def enumerate_delta(n: int, m: int, kind: str = "all"):
    """Order-preserving maps [n] -> [m]; kind in {all, epi, mono}."""
    out = []
    for values in itertools.combinations_with_replacement(range(m + 1), n + 1):
        if kind == "epi" and len(set(values)) != m + 1:
            continue
        if kind == "mono" and len(set(values)) != n + 1:
            continue
        out.append(DeltaMorphism(n, m, values))
    return out


# ---------------------------------------------------------------------------
# pair presentation
# ---------------------------------------------------------------------------

class DeltaHMorphism(namedtuple("DeltaHMorphism", "phi g")):
    """Pair (order-preserving map, group element on the source object)."""

    __slots__ = ()

    def __new__(cls, phi: DeltaMorphism, g: HypElement):
        if g.n != phi.source:
            raise CategoryError("group element does not act on the source object")
        return tuple.__new__(cls, (phi, g))

    @property
    def source(self) -> int:
        return self.phi.source

    @property
    def target(self) -> int:
        return self.phi.target

    def __str__(self):
        return f"({self.phi}, {self.g})"


# words of group generators are lists of ("t", k) / ("th", k) in composition
# order (leftmost entry acts last); words of simplicial generators are lists
# of ("d", i, n) for the injection [n]->[n+1] omitting i and ("s", j, n) for
# the surjection [n+1]->[n] merging j, j+1, again in composition order.

def hyp_word(g: HypElement) -> list:
    """Generator word, composition order: ``g = (theta word) o (t word)``."""
    collected = []
    perm = list(g.perm)
    while True:
        desc = next((i for i in range(len(perm) - 1) if perm[i] > perm[i + 1]), None)
        if desc is None:
            break
        collected.append(desc)
        perm[desc], perm[desc + 1] = perm[desc + 1], perm[desc]
    word = [("th", c) for c in reversed(collected)]
    word.extend(("t", i) for i in range(g.n + 1) if g.signs[i])
    return word


def hyp_from_word(n: int, word) -> HypElement:
    out = hyp_identity(n)
    for kind, k in word:
        gen = hyp_t(n, k) if kind == "t" else hyp_theta(n, k)
        out = hyp_compose(out, gen)
    return out


def delta_word(phi: DeltaMorphism) -> list:
    """Face/degeneracy word for an order-preserving map, composition order
    (leftmost entry acts last)."""
    word = []
    # injective part: peel off omitted target points, largest first; the
    # first peeled face is the leftmost factor
    image = sorted(set(phi.values))
    missing = [i for i in range(phi.target + 1) if i not in set(image)]
    tgt = phi.target
    for i in reversed(missing):
        word.append(("d", i, tgt - 1))
        tgt -= 1
    # surjective part: merge equal neighbours, smallest position first; the
    # first extracted degeneracy acts first, hence goes rightmost
    rank = {v: k for k, v in enumerate(image)}
    vals = [rank[v] for v in phi.values]
    merges = []
    while len(vals) >= 2:
        j = next((j for j in range(len(vals) - 1) if vals[j] == vals[j + 1]), None)
        if j is None:
            break
        merges.append(("s", j, len(vals) - 2))
        vals = vals[:j] + vals[j + 1:]
    word.extend(reversed(merges))
    return word


def delta_from_word(source: int, word) -> DeltaMorphism:
    """Compose a word back into a map; rightmost entry acts first."""
    out = delta_identity(source)
    for kind, k, n in reversed(word):
        gen = delta_face(n, k) if kind == "d" else delta_degeneracy(n, k)
        out = delta_compose(gen, out)
    return out


def _theta_apply(k: int, x: int) -> int:
    if x == k:
        return k + 1
    if x == k + 1:
        return k
    return x


def _pass_gen_through_face(kind: str, k: int, i: int):
    """(gen on [n+1]) o delta_i = delta_{i'} o (word on [n])."""
    if kind == "th":
        new_i = _theta_apply(k, i)
        if k < i - 1:
            return new_i, [("th", k)]
        if k in (i - 1, i):
            return new_i, []
        return new_i, [("th", k - 1)]
    # kind == "t"
    if k < i:
        return i, [("t", k)]
    if k == i:
        return i, []
    return i, [("t", k - 1)]


def _pass_gen_through_degeneracy(kind: str, k: int, j: int):
    """(gen on [n]) o sigma_j = sigma_{j'} o (word on [n+1])."""
    if kind == "th":
        new_j = _theta_apply(k, j)
        if k < j - 1:
            return new_j, [("th", k)]
        if k == j - 1:
            return new_j, [("th", j), ("th", j - 1)]
        if k == j:
            return new_j, [("th", j), ("th", j + 1)]
        return new_j, [("th", k + 1)]
    # kind == "t"
    if k < j:
        return j, [("t", k)]
    if k == j:
        return j, [("th", j), ("t", j + 1), ("t", j)]
    return j, [("t", k + 1)]


def _pass_word_through_generator(word, item):
    """(word) o gen = gen' o (word'), one simplicial generator at a time."""
    kind, k, n = item
    out_word = []
    cur = k
    for wkind, wk in reversed(word):
        if kind == "d":
            cur, produced = _pass_gen_through_face(wkind, wk, cur)
        else:
            cur, produced = _pass_gen_through_degeneracy(wkind, wk, cur)
        out_word = produced + out_word
    return (kind, cur, n), out_word


def star_move(h: HypElement, phi: DeltaMorphism):
    """Normalize ``h o phi`` to ``(h_*(phi), phi^*(h))`` via the tables."""
    if h.n != phi.target:
        raise CategoryError("group element must act on the target of the map")
    word = hyp_word(h)
    new_delta_word = []
    for item in delta_word(phi):
        new_item, word = _pass_word_through_generator(word, item)
        new_delta_word.append(new_item)
    return delta_from_word(phi.source, new_delta_word), hyp_from_word(phi.source, word)


def deltah_compose(f2: DeltaHMorphism, f1: DeltaHMorphism) -> DeltaHMorphism:
    """Pair composition driven by the star-relation tables."""
    if f1.target != f2.source:
        raise CategoryError(f"objects do not match: {f1.target} vs {f2.source}")
    moved_phi, residual = star_move(f2.g, f1.phi)
    return DeltaHMorphism(delta_compose(f2.phi, moved_phi),
                          hyp_compose(residual, f1.g))


# ---------------------------------------------------------------------------
# labeled-preimage presentation
# ---------------------------------------------------------------------------

class IFasMorphism(namedtuple("IFasMorphism", "source target preimages")):
    """Set map with a labeled total order on every preimage.

    ``preimages[i]`` is the fiber over target point ``i`` as a tuple of
    ``(source point, label)`` pairs, listed in its total order.  The fibers
    partition ``{0..source}``.  ``source == -1`` encodes the empty object.
    """

    __slots__ = ()

    def __new__(cls, source: int, target: int, preimages: tuple):
        if len(preimages) != target + 1:
            raise CategoryError("one fiber per target point required")
        seen = []
        for fiber in preimages:
            for p, lab in fiber:
                seen.append(p)
                if lab not in (0, 1):
                    raise CategoryError("labels must be 0 or 1")
        if sorted(seen) != list(range(source + 1)):
            raise CategoryError("fibers must partition the source")
        return tuple.__new__(cls, (source, target, preimages))

    def is_epi(self) -> bool:
        return all(self.preimages)

    def __str__(self):
        fibers = "|".join(
            ",".join(f"{p}t" if lab else f"{p}" for p, lab in fiber)
            for fiber in self.preimages)
        return f"[{self.source}->{self.target}:{fibers}]"


def _make_ifas(source: int, target: int, preimages: tuple) -> IFasMorphism:
    """Trusted constructor skipping validation (composites of valid
    morphisms are valid; the public constructor still validates)."""
    return tuple.__new__(IFasMorphism, (source, target, preimages))


def ifas_injection(positions: tuple, target: int) -> IFasMorphism:
    """The order-preserving injection ``k -> positions[k]`` with trivial
    labels, for a strictly increasing tuple of points of ``[target]``."""
    fibers = [()] * (target + 1)
    for k, i in enumerate(positions):
        fibers[i] = ((k, 0),)
    return _make_ifas(len(positions) - 1, target, tuple(fibers))


def label_flip(fiber: tuple) -> tuple:
    """Sign action on a labeled ordered fiber: reverse and flip every label."""
    return tuple((p, lab ^ 1) for p, lab in reversed(fiber))


def ifas_identity(n: int) -> IFasMorphism:
    return IFasMorphism(n, n, tuple(((i, 0),) for i in range(n + 1)))


def ifas_compose(f2: IFasMorphism, f1: IFasMorphism) -> IFasMorphism:
    """Ordered union of labeled fibers; the canonical composition rule."""
    if f1.target != f2.source:
        raise CategoryError(f"objects do not match: {f1.target} vs {f2.source}")
    fibers = []
    inner = f1.preimages
    for fiber2 in f2.preimages:
        out = []
        for j, lab in fiber2:
            out.extend(label_flip(inner[j]) if lab else inner[j])
        fibers.append(tuple(out))
    return _make_ifas(f1.source, f2.target, tuple(fibers))


def pair_to_ifas(f: DeltaHMorphism) -> IFasMorphism:
    phi, g = f.phi, f.g
    pinv = perm_inverse(g.perm)
    fibers = []
    for i in range(phi.target + 1):
        fiber = []
        for q in range(phi.source + 1):
            if phi.values[q] == i:
                p = pinv[q]
                fiber.append((p, g.signs[p]))
        fibers.append(tuple(fiber))
    return IFasMorphism(phi.source, phi.target, tuple(fibers))


def ifas_to_pair(f: IFasMorphism) -> DeltaHMorphism:
    if f.source < 0:
        raise CategoryError("the empty object has no pair presentation")
    n, m = f.source, f.target
    perm = [None] * (n + 1)
    signs = [0] * (n + 1)
    values = [None] * (n + 1)
    counter = 0
    for i, fiber in enumerate(f.preimages):
        for p, lab in fiber:
            perm[p] = counter
            signs[p] = lab
            values[counter] = i
            counter += 1
    phi = DeltaMorphism(n, m, tuple(values))
    return DeltaHMorphism(phi, HypElement(tuple(signs), tuple(perm)))


def hyp_to_ifas(g: HypElement) -> IFasMorphism:
    return pair_to_ifas(DeltaHMorphism(delta_identity(g.n), g))


def delta_to_ifas(phi: DeltaMorphism) -> IFasMorphism:
    return pair_to_ifas(DeltaHMorphism(phi, hyp_identity(phi.source)))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

_hom_cache: dict = {}


def enumerate_hom(n: int, m: int, variant: str = "all"):
    """All labeled-preimage morphisms [n] -> [m], lexicographically ordered
    by underlying map values, then fiber orders, then labels.

    The ordering is part of the public contract: generator indices derived
    from it must be reproducible across runs.
    """
    if variant not in ("all", "epi"):
        raise CategoryError(f"unknown variant {variant!r}")
    if n < 0 or m < 0:
        raise CategoryError("enumerate_hom needs plain objects")
    key = (n, m, variant)
    cached = _hom_cache.get(key)
    if cached is not None:
        return cached
    out = []
    for u in itertools.product(range(m + 1), repeat=n + 1):
        if variant == "epi" and len(set(u)) != m + 1:
            continue
        fibers = [[p for p in range(n + 1) if u[p] == i] for i in range(m + 1)]
        order_choices = [list(itertools.permutations(fb)) for fb in fibers]
        for orders in itertools.product(*order_choices):
            for labels in itertools.product((0, 1), repeat=n + 1):
                pre = tuple(tuple((p, labels[p]) for p in fiber) for fiber in orders)
                out.append(IFasMorphism(n, m, pre))
    _hom_cache[key] = out
    return out


def hom_size(n: int, m: int, variant: str = "all") -> int:
    """Hom-set cardinality without enumerating (used for projected sizes).

    A morphism is an order-preserving map, an ordering of the source points
    and a label per point: C(n+m+1, n+1) weakly increasing maps (C(n, m)
    surjective ones for ``epi``) times (n+1)! orders times 2^(n+1) labels."""
    if variant not in ("all", "epi"):
        raise CategoryError(f"unknown variant {variant!r}")
    if n < 0 or m < 0:
        raise CategoryError("hom_size needs plain objects")
    maps = comb(n, m) if variant == "epi" else comb(n + m + 1, n + 1)
    return maps * hyp_group_order(n)


def random_ifas(rng: random.Random, n: int, m: int, variant: str = "all") -> IFasMorphism:
    while True:
        u = [rng.randrange(m + 1) for _ in range(n + 1)]
        if variant == "epi" and len(set(u)) != m + 1:
            continue
        break
    fibers = []
    for i in range(m + 1):
        pts = [p for p in range(n + 1) if u[p] == i]
        rng.shuffle(pts)
        fibers.append(tuple((p, rng.randrange(2)) for p in pts))
    return IFasMorphism(n, m, tuple(fibers))


# ---------------------------------------------------------------------------
# epi-mono factorization
# ---------------------------------------------------------------------------

def epi_mono_factorize(f: DeltaHMorphism):
    """Unique factorization through the image: f = (mono, id) o (epi, g)."""
    phi = f.phi
    image = sorted(set(phi.values))
    r = len(image)
    rank = {v: k for k, v in enumerate(image)}
    epi_phi = DeltaMorphism(phi.source, r - 1, tuple(rank[v] for v in phi.values))
    mono = DeltaMorphism(r - 1, phi.target, tuple(image))
    return mono, DeltaHMorphism(epi_phi, f.g)


def factorize_ifas(f: IFasMorphism):
    """Image factorization in the labeled-preimage presentation:
    ``f = mono o epi`` with the mono carrying canonical trivial labels."""
    nonempty = [i for i, fiber in enumerate(f.preimages) if fiber]
    epi = _make_ifas(f.source, len(nonempty) - 1,
                     tuple(f.preimages[i] for i in nonempty))
    return ifas_injection(nonempty, f.target), epi


# ---------------------------------------------------------------------------
# the extended category
# ---------------------------------------------------------------------------

def initial_morphism(m: int) -> IFasMorphism:
    """The unique morphism out of the empty object."""
    return IFasMorphism(EMPTY_OBJECT, m, tuple(() for _ in range(m + 1)))


def extended_hom(a: int, b: int):
    """Hom-sets of the extended category (objects >= -1)."""
    if a == EMPTY_OBJECT:
        return [initial_morphism(b)] if b >= EMPTY_OBJECT else []
    if b == EMPTY_OBJECT:
        return []
    return enumerate_hom(a, b, "all")


def extended_hom_size(a: int, b: int) -> int:
    if a == EMPTY_OBJECT:
        return 1
    if b == EMPTY_OBJECT:
        return 0
    return hom_size(a, b, "all")


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

def _hom_pairs(depth: int):
    pairs = []
    for a in range(depth + 1):
        for b in range(depth + 1):
            pairs.append((a, b, enumerate_hom(a, b)))
    return pairs


def _check_generator_relations(depth: int):
    failures = 0
    total = 0
    for n in range(depth + 1):
        ts = [hyp_t(n, i) for i in range(n + 1)]
        ths = [hyp_theta(n, j) for j in range(n)]
        ident = hyp_identity(n)
        for i in range(n + 1):
            total += 1
            failures += hyp_compose(ts[i], ts[i]) != ident
            for j in range(i + 1, n + 1):
                total += 1
                failures += (hyp_compose(ts[i], ts[j]) != hyp_compose(ts[j], ts[i]))
        for j in range(n):
            total += 1
            failures += hyp_compose(ths[j], ths[j]) != ident
            total += 2
            failures += (hyp_compose(ths[j], ts[j + 1]) != hyp_compose(ts[j], ths[j]))
            failures += (hyp_compose(ths[j], ts[j]) != hyp_compose(ts[j + 1], ths[j]))
            for i in range(n + 1):
                if i < j or i > j + 1:
                    total += 1
                    failures += (hyp_compose(ths[j], ts[i]) != hyp_compose(ts[i], ths[j]))
            for k in range(n):
                if abs(j - k) >= 2:
                    total += 1
                    failures += (hyp_compose(ths[j], ths[k]) != hyp_compose(ths[k], ths[j]))
            if j + 1 < n:
                total += 1
                lhs = hyp_compose(ths[j], hyp_compose(ths[j + 1], ths[j]))
                rhs = hyp_compose(ths[j + 1], hyp_compose(ths[j], ths[j + 1]))
                failures += lhs != rhs
        total += 1
        failures += len(hyp_closure([*ts, *ths])) != hyp_group_order(n)
    return total, failures


def _check_identity_laws(depth: int):
    failures = 0
    total = 0
    for a, b, homs in _hom_pairs(depth):
        ida, idb = ifas_identity(a), ifas_identity(b)
        for f in homs:
            total += 1
            if ifas_compose(f, ida) != f or ifas_compose(idb, f) != f:
                failures += 1
    return total, failures


def _check_associativity(depth: int, samples: int, seed: int):
    failures = 0
    total = 0
    # exhaustive on objects <= 1, sampled beyond (hom sets grow too fast)
    small = min(depth, 1)
    for a in range(small + 1):
        for b in range(small + 1):
            for c in range(small + 1):
                for d in range(small + 1):
                    for f in enumerate_hom(c, d):
                        for g in enumerate_hom(b, c):
                            fg = ifas_compose(f, g)
                            for h in enumerate_hom(a, b):
                                total += 1
                                if ifas_compose(fg, h) != ifas_compose(f, ifas_compose(g, h)):
                                    failures += 1
    rng = random.Random(seed)
    for _ in range(samples):
        a, b, c, d = (rng.randrange(depth + 1) for _ in range(4))
        f = random_ifas(rng, c, d)
        g = random_ifas(rng, b, c)
        h = random_ifas(rng, a, b)
        total += 1
        if ifas_compose(ifas_compose(f, g), h) != ifas_compose(f, ifas_compose(g, h)):
            failures += 1
        # pair presentation agrees on the same triple
        pf, pg, ph = ifas_to_pair(f), ifas_to_pair(g), ifas_to_pair(h)
        total += 1
        lhs = deltah_compose(deltah_compose(pf, pg), ph)
        rhs = deltah_compose(pf, deltah_compose(pg, ph))
        if lhs != rhs or pair_to_ifas(lhs) != ifas_compose(f, ifas_compose(g, h)):
            failures += 1
    return total, failures


def _check_iso(depth: int, pair_samples: int, seed: int):
    failures = 0
    total = 0
    for a, b, homs in _hom_pairs(depth):
        for f in homs:
            total += 1
            if pair_to_ifas(ifas_to_pair(f)) != f:
                failures += 1
    # composition preservation, sampled (the table route is the slow side)
    rng = random.Random(seed)
    for _ in range(pair_samples):
        a, b, c = (rng.randrange(depth + 1) for _ in range(3))
        f1 = random_ifas(rng, a, b)
        f2 = random_ifas(rng, b, c)
        total += 1
        composed = deltah_compose(ifas_to_pair(f2), ifas_to_pair(f1))
        if pair_to_ifas(composed) != ifas_compose(f2, f1):
            failures += 1
    return total, failures


def _check_hom_counts(depth: int):
    failures = 0
    total = 0
    for a in range(depth + 1):
        for b in range(depth + 1):
            total += 1
            brute = sum(
                1 for values in itertools.product(range(b + 1), repeat=a + 1)
                if all(values[i] <= values[i + 1] for i in range(a)))
            expected = brute * hyp_group_order(a)
            if len(enumerate_hom(a, b)) != expected or hom_size(a, b) != expected:
                failures += 1
    return total, failures


def _check_factorization(depth: int, samples: int, seed: int):
    rng = random.Random(seed)
    failures = 0
    total = 0
    for _ in range(samples):
        a = rng.randrange(depth + 1)
        b = rng.randrange(depth + 1)
        f = random_ifas(rng, a, b)
        mono, epi = factorize_ifas(f)
        total += 1
        if ifas_compose(mono, epi) != f or not epi.is_epi():
            failures += 1
            continue
        pair = ifas_to_pair(f)
        pmono, pepi = epi_mono_factorize(pair)
        total += 1
        if (delta_to_ifas(pmono) != mono or pair_to_ifas(pepi) != epi):
            failures += 1
    return total, failures


def run_invariant_suite(depth: int = 2, samples: int = 2000, seed: int = 2024) -> dict:
    """Category verification battery; returns name -> (checked, failed)."""
    return {
        "generator_relations": _check_generator_relations(depth),
        "identity_laws": _check_identity_laws(depth),
        "associativity": _check_associativity(depth, samples, seed),
        "iso_roundtrip_and_composition": _check_iso(depth, samples, seed + 1),
        "hom_cardinalities": _check_hom_counts(depth),
        "epi_mono_factorization": _check_factorization(depth, samples, seed + 2),
    }
