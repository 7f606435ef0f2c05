"""Characteristic-zero coinvariants pipeline over the subset poset.

The epimorphism category has the property that all its endomorphisms are
isomorphisms and all isomorphisms are automorphisms, so its homology
decomposes over the opposite poset of non-empty finite subsets: an object is
a chain of object indices, carrying the product of automorphism groups and
the product of epimorphism hom-sets between consecutive indices.  Over a
field of characteristic zero the group homology collapses onto coinvariants,
and the reduced homology of the algebra is the homology of the standard
complex of the coinvariants functor over the truncated poset.  The
coinvariants are computed as a quotient: the relations (s - 1)m, for s in a
generating set of the automorphism product (the Coxeter generators of each
factor), run through the one elimination kernel of ``homology``, and the
rows its pivots do not lead are the basis.  Nothing divides by a group
order or enumerates a group, and any involution takes the same path.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import croscat
from .barfun import BarFunctor, IDEAL
from .croscat import (hyp_enumerate, hyp_identity, hyp_inverse, hyp_t,
                      hyp_theta, hyp_to_ifas, ifas_compose)
from .complexes import (TruncationPolicy, TruncatedComplex, build_gz_complex,
                        DEFAULT_MAX_GENERATORS)
from .homology import _columns, _eliminate
from .invalg import InvolutiveAlgebra, adapt_basis_to_augmentation
from .matrices import SparseMatrix


class SlominskaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the truncated subset poset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PosetMorphism:
    """The unique arrow source -> target; exists iff target is a subset."""

    source: tuple
    target: tuple

    def __str__(self):
        return f"{self.source}>{self.target}"


class SubsetPoset:
    """Opposite poset of non-empty subsets of {0..N}, as a category view.

    Objects are ascending tuples; the largest entry is the anchor that
    carries the tensor coefficient downstream.
    """

    name = "subsetposet"

    def __init__(self, max_object: int):
        self.max_object = max_object
        elems = range(max_object + 1)
        objs = []
        for r in range(1, max_object + 2):
            objs.extend(itertools.combinations(elems, r))
        self._objects = sorted(objs)

    def objects(self, max_object=None):
        return list(self._objects)

    def hom(self, a, b):
        if set(b) <= set(a):
            return [PosetMorphism(a, b)]
        return []

    def hom_size(self, a, b):
        return 1 if set(b) <= set(a) else 0

    def identity(self, obj):
        return PosetMorphism(obj, obj)

    def compose(self, f2, f1):
        if f1.target != f2.source:
            raise SlominskaError("poset arrows do not match")
        return PosetMorphism(f1.source, f2.target)


def build_S0(max_object: int) -> SubsetPoset:
    return SubsetPoset(max_object)


# ---------------------------------------------------------------------------
# the automorphism and hom-chain functors
# ---------------------------------------------------------------------------

def chain_objects(X: tuple):
    """Object indices of the chain, anchor first (descending)."""
    return tuple(reversed(X))


def functor_A(X: tuple):
    """Product of the automorphism groups along the chain, anchor factor
    first.  Elements are tuples of signed permutations."""
    groups = [list(hyp_enumerate(y)) for y in chain_objects(X)]
    return list(itertools.product(*groups))


def functor_E(X: tuple):
    """Product of epimorphism hom-sets along the chain: element i maps the
    object at position i-1 (larger) onto the object at position i.  For a
    singleton chain the value is the one-point set (empty tuple here)."""
    ys = chain_objects(X)
    if len(ys) == 1:
        return [()]
    homs = [croscat.enumerate_hom(ys[i - 1], ys[i], "epi")
            for i in range(1, len(ys))]
    return list(itertools.product(*homs))


def automorphism_generators(X: tuple):
    """A generating set of ``functor_A(X)``, one factor at a time: the sign
    flip t_0 and the adjacent transpositions of that factor's group, with
    identities in the other slots."""
    ids = [hyp_identity(y) for y in chain_objects(X)]
    for i, y in enumerate(chain_objects(X)):
        for s in [hyp_t(y, 0)] + [hyp_theta(y, j) for j in range(y)]:
            yield tuple(ids[:i] + [s] + ids[i + 1:])


def chain_action(gs: tuple):
    """The twist of hom-chains by an automorphism tuple, as a function:
    entry i becomes g_i o f_i o g_{i-1}^{-1}.  The factors are turned into
    morphisms once, for every chain the function is applied to."""
    sides = [(hyp_to_ifas(gs[i + 1]), hyp_to_ifas(hyp_inverse(gs[i])))
             for i in range(len(gs) - 1)]

    def act(chain: tuple) -> tuple:
        return tuple(ifas_compose(left, ifas_compose(f, right))
                     for f, (left, right) in zip(chain, sides))
    return act


def act_on_chain(gs: tuple, chain: tuple):
    """Twist one hom-chain by an automorphism tuple (see ``chain_action``)."""
    return chain_action(gs)(chain)


def restrict_chain(X: tuple, Y: tuple, chain: tuple):
    """Image of a hom-chain under the poset arrow X -> Y: compose the chain
    segments between the surviving indices.  Returns (new chain, transport)
    where transport is the composite from the anchor of X down to the anchor
    of Y (None when the anchors agree)."""
    ys = chain_objects(X)
    pos = {y: i for i, y in enumerate(ys)}
    keep = [pos[y] for y in chain_objects(Y)]
    segments = []
    for a, b in zip(keep, keep[1:]):
        comp = chain[a]
        for i in range(a + 1, b):
            comp = ifas_compose(chain[i], comp)
        segments.append(comp)
    anchor_pos = keep[0]
    if anchor_pos == 0:
        transport = None
    else:
        transport = chain[0]
        for i in range(1, anchor_pos):
            transport = ifas_compose(chain[i], transport)
    return tuple(segments), transport


def check_action_compatibility(X: tuple, Y: tuple, samples: int | None = None,
                               seed: int = 0) -> bool:
    """Naturality of the action against the poset arrow X -> Y: twisting
    then restricting equals restricting then twisting by the surviving
    factors.  Exhaustive by default, sampled when ``samples`` is given."""
    import random
    ys = chain_objects(X)
    pos = {y: i for i, y in enumerate(ys)}
    keep = [pos[y] for y in chain_objects(Y)]
    chains = functor_E(X)
    group = functor_A(X)
    if samples is None:
        pairs = ((c, g) for c in chains for g in group)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(chains), rng.choice(group))
                 for _ in range(samples))
    for chain, gs in pairs:
        twisted = act_on_chain(gs, chain)
        lhs, _ = restrict_chain(X, Y, twisted)
        base, _ = restrict_chain(X, Y, chain)
        gs_kept = tuple(gs[i] for i in keep)
        rhs = act_on_chain(gs_kept, base)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# coinvariants
# ---------------------------------------------------------------------------

class CoinvariantModule:
    """Coinvariants of k[hom-chains] (x) ideal tensors: the quotient by the
    relations (s - 1)e, for s in ``automorphism_generators`` and e a basis
    vector of the ambient module.

    The relation columns go through the elimination kernel.  Its
    Gauss-Jordan form keeps every pivot's tail on rows that lead no pivot,
    so those rows, ascending, are the basis of the quotient, and a leading
    row r is congruent to -tails[r] / lead[r] on them."""

    def __init__(self, X: tuple, functor: BarFunctor):
        ring = functor.ring
        if ring.characteristic != 0 or not ring.is_field:
            raise SlominskaError("coinvariants need a characteristic-zero field")
        self.X = X
        self.ring = ring
        self.anchor = max(X)
        chains = functor_E(X)
        chain_index = {c: i for i, c in enumerate(chains)}
        tdim = len(functor.basis(self.anchor))
        relations = []
        for gs in automorphism_generators(X):
            tensor = functor.evaluate(hyp_to_ifas(gs[0])).cols
            act = chain_action(gs)
            for ci, chain in enumerate(chains):
                twisted = chain_index[act(chain)] * tdim
                for t in range(tdim):
                    rel = {twisted + r: v for r, v in tensor[t].items()}
                    e = ci * tdim + t
                    rel[e] = ring.sub(rel.get(e, ring.zero()), ring.one())
                    relations.append(rel)
        self.lead: dict = {}
        self.tails: dict = {}
        for _ in _eliminate(_columns(relations, 0), 0, lead=self.lead,
                            tails=self.tails):
            pass
        self.ambient_dim = dim = len(chains) * tdim
        self.tensor_dim = tdim
        self.chains = chains
        self.chain_index = chain_index
        self.basis = [r for r in range(dim) if r not in self.tails]
        self._position = {r: i for i, r in enumerate(self.basis)}
        self.dim = len(self.basis)

    def coordinates(self, vec: dict) -> dict:
        """Coordinates of the class of an ambient vector."""
        ring = self.ring
        coords: dict = {}
        for k, v in vec.items():
            tail = self.tails.get(k)
            if tail is None:
                terms = ((k, v),)
            else:
                c = ring.div(v, -self.lead.get(k, 1))
                terms = ((i, ring.mul(c, w)) for i, w in tail.items())
            for i, w in terms:
                j = self._position[i]
                coords[j] = ring.add(coords.get(j, ring.zero()), w)
        return {j: w for j, w in coords.items() if not ring.is_zero(w)}


def coinvariants(X: tuple, algebra: InvolutiveAlgebra) -> CoinvariantModule:
    adapted = adapt_basis_to_augmentation(algebra)
    return CoinvariantModule(X, BarFunctor(adapted, IDEAL))


# ---------------------------------------------------------------------------
# the coinvariants functor and its homology
# ---------------------------------------------------------------------------

class CoinvariantFunctorView:
    """Functor view over the subset poset for the generic assembler."""

    def __init__(self, algebra: InvolutiveAlgebra):
        self.algebra = adapt_basis_to_augmentation(algebra)
        self.ring = self.algebra.ring
        if self.ring.characteristic != 0 or not self.ring.is_field:
            raise SlominskaError("the pipeline needs a characteristic-zero field")
        self.bar = BarFunctor(self.algebra, IDEAL)
        self._modules = {}
        self._matrices = {}

    def module(self, X) -> CoinvariantModule:
        m = self._modules.get(X)
        if m is None:
            m = CoinvariantModule(X, self.bar)
            self._modules.setdefault(X, m)
        return m

    def dim(self, X):
        return self.module(X).dim

    def label(self, X, idx):
        return f"coinv{X}:{idx}"

    def matrix(self, f: PosetMorphism) -> SparseMatrix:
        cached = self._matrices.get(f)
        if cached is not None:
            return cached
        ring = self.ring
        src = self.module(f.source)
        tgt = self.module(f.target)
        out = SparseMatrix(ring, tgt.dim, src.dim)
        for j, row in enumerate(src.basis):
            ci, t = divmod(row, src.tensor_dim)
            new_chain, transport = restrict_chain(f.source, f.target,
                                                  src.chains[ci])
            base = tgt.chain_index[new_chain] * tgt.tensor_dim
            if transport is None:
                image = {base + t: ring.one()}
            else:
                image = {base + r: w for r, w in
                         self.bar.evaluate(transport).cols[t].items()}
            out.cols[j] = tgt.coordinates(image)
        self._matrices.setdefault(f, out)
        return out


def slominska_complex(algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                      max_generators: int = DEFAULT_MAX_GENERATORS
                      ) -> TruncatedComplex:
    """Standard complex of the coinvariants functor over the truncated
    subset poset; its homology is the reduced invariant of the algebra."""
    poset = SubsetPoset(policy.max_object)
    functor = CoinvariantFunctorView(algebra)
    return build_gz_complex(poset, functor, policy, max_generators,
                            label="slominska")


def slominska_homology(algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                       max_generators: int = DEFAULT_MAX_GENERATORS):
    from .homology import homology_over_field
    return homology_over_field(slominska_complex(algebra, policy, max_generators))
