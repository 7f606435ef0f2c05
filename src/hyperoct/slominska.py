"""Characteristic-zero coinvariants pipeline over the subset poset.

The epimorphism category has the property that all its endomorphisms are
isomorphisms and all isomorphisms are automorphisms, so its homology
decomposes over the opposite poset of non-empty finite subsets: an object is
a chain of object indices, carrying the product of automorphism groups and
the product of epimorphism hom-sets between consecutive indices.  Over a
field of characteristic zero the group homology collapses onto coinvariants,
computed here as the image of the averaging projector, and the reduced
homology of the algebra is the homology of the standard complex of the
coinvariants functor over the truncated poset.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import croscat
from .barfun import BarFunctor, IDEAL
from .croscat import hyp_enumerate, hyp_inverse, hyp_to_ifas, ifas_compose
from .complexes import (TruncationPolicy, TruncatedComplex, build_gz_complex,
                        DEFAULT_MAX_GENERATORS)
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


def act_on_chain(gs: tuple, chain: tuple):
    """Twist a hom-chain by an automorphism tuple:
    entry i becomes g_i o f_i o g_{i-1}^{-1}."""
    out = []
    for i, f in enumerate(chain):
        left = hyp_to_ifas(gs[i + 1])
        right = hyp_to_ifas(hyp_inverse(gs[i]))
        out.append(ifas_compose(left, ifas_compose(f, right)))
    return tuple(out)


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
    """Image of the averaging projector on k[hom-chains] (x) ideal tensors.

    In characteristic zero the image of the projector is canonically the
    coinvariants; its pivot-column basis doubles as the module basis."""

    def __init__(self, X: tuple, functor: BarFunctor):
        ring = functor.ring
        if ring.characteristic != 0 or not ring.is_field:
            raise SlominskaError("coinvariants need a characteristic-zero field")
        self.X = X
        self.ring = ring
        self.anchor = max(X)
        chains = functor_E(X)
        chain_index = {c: i for i, c in enumerate(chains)}
        tensor = functor.basis(self.anchor)
        tdim = len(tensor)
        dim = len(chains) * tdim
        group = functor_A(X)
        order = ring.from_int(len(group))
        inv_order = ring.div(ring.one(), order)
        projector = SparseMatrix(ring, dim, dim)
        for ci, chain in enumerate(chains):
            for t in range(tdim):
                col = projector.cols[ci * tdim + t]
                for gs in group:
                    twisted = chain_index[act_on_chain(gs, chain)]
                    tensor_mat = functor.evaluate(hyp_to_ifas(gs[0]))
                    for r, v in tensor_mat.cols[t].items():
                        row = twisted * tdim + r
                        cur = col.get(row)
                        add = ring.mul(inv_order, v)
                        col[row] = add if cur is None else ring.add(cur, add)
                for r in [r for r, v in col.items() if ring.is_zero(v)]:
                    del col[r]
        self.projector = projector
        self.ambient_dim = dim
        self.tensor_dim = tdim
        self.chains = chains
        self.chain_index = chain_index
        self._extract_basis()

    def _extract_basis(self):
        ring = self.ring
        basis = []
        pivots = {}
        for col in self.projector.cols:
            vec = dict(col)
            while vec:
                r = min(vec)
                piv = pivots.get(r)
                if piv is None:
                    inv = ring.div(ring.one(), vec[r])
                    norm = {k: ring.mul(inv, v) for k, v in vec.items()}
                    pivots[r] = norm
                    basis.append(norm)
                    break
                c = vec[r]
                for k, v in piv.items():
                    cur = vec.get(k)
                    s = ring.sub(cur if cur is not None else ring.zero(),
                                 ring.mul(c, v))
                    if ring.is_zero(s):
                        vec.pop(k, None)
                    else:
                        vec[k] = s
        self.basis = basis
        self.pivots = pivots
        self.pivot_rows = sorted(pivots)
        self.dim = len(basis)

    def coordinates(self, vec: dict) -> dict:
        """Coordinates of an ambient vector lying in the image."""
        ring = self.ring
        vec = dict(vec)
        coords = {}
        basis_by_pivot = {min(b): (i, b) for i, b in enumerate(self.basis)}
        while vec:
            r = min(vec)
            hit = basis_by_pivot.get(r)
            if hit is None:
                raise SlominskaError("vector is not in the projector image")
            i, b = hit
            c = vec[r]
            coords[i] = c
            for k, v in b.items():
                cur = vec.get(k)
                s = ring.sub(cur if cur is not None else ring.zero(),
                             ring.mul(c, v))
                if ring.is_zero(s):
                    vec.pop(k, None)
                else:
                    vec[k] = s
        return coords

    def project(self, vec: dict) -> dict:
        return self.projector.apply(vec)

    def is_idempotent(self) -> bool:
        return self.projector.matmul(self.projector).equals(self.projector)


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
        tdim_t = tgt.tensor_dim
        for j, bvec in enumerate(src.basis):
            image: dict = {}
            for pos, v in bvec.items():
                ci, t = divmod(pos, src.tensor_dim)
                new_chain, transport = restrict_chain(
                    f.source, f.target, src.chains[ci])
                nc = tgt.chain_index[new_chain]
                if transport is None:
                    row = nc * tdim_t + t
                    cur = image.get(row)
                    image[row] = v if cur is None else ring.add(cur, v)
                else:
                    tmat = self.bar.evaluate(transport)
                    for r, w in tmat.cols[t].items():
                        row = nc * tdim_t + r
                        cur = image.get(row)
                        add = ring.mul(v, w)
                        image[row] = add if cur is None else ring.add(cur, add)
            image = {k: v for k, v in image.items() if not ring.is_zero(v)}
            projected = tgt.project(image)
            out.cols[j] = tgt.coordinates(projected)
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
