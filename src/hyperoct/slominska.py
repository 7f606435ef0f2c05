"""Characteristic-zero coinvariants pipeline over the subset poset.

The epimorphism category has the property that all its endomorphisms are
isomorphisms and all isomorphisms are automorphisms, so its homology
decomposes over the opposite poset of non-empty finite subsets: an object is
a chain of object indices, carrying the product of automorphism groups and
the product of epimorphism hom-sets between consecutive indices.  Over a
field of characteristic zero the group homology collapses onto coinvariants,
and the reduced homology of the algebra is the homology of the standard
complex of the coinvariants functor over the truncated poset.

Coinvariants on a transversal
-----------------------------

Write a chain X with its objects y_0 > y_1 > ... > y_k, anchor first.  Its
hom-chains are tuples (f_1, ..., f_k) of epimorphisms f_i: [y_{i-1}] ->
[y_i], and the automorphism product A = H_{y_0} x ... x H_{y_k} acts on
k[hom-chains] (x) I^(x)(y_0 + 1) by

    g . (f, t) = ((g_i o f_i o g_{i-1}^{-1})_i, F(g_0) t),

F the bar functor on the augmentation ideal I.  Let K be the product of all
factors but the last, so A = K x H_{y_k}.

* An epimorphism f: [n] -> [m] is f = phi o a for exactly one
  order-preserving surjection phi and one a in H_n: reading the labeled
  fibres of f in order gives a's positions and signs (``ifas_to_pair``).
  So f o a^{-1} = f forces a = 1.  Hence K acts freely on hom-chains: if
  g . f = f with g in K (g_k = 1), the last entry f_k o g_{k-1}^{-1} = f_k
  gives g_{k-1} = 1, then the entry before gives g_{k-2} = 1, and so on.
* Each K-orbit holds exactly one Delta-chain, a hom-chain of order-preserving
  surjections.  Existence: split f_k = phi_k o a_{k-1}, hand a_{k-1} to the
  entry before, split a_{k-1} o f_{k-1} = phi_{k-1} o a_{k-2}, and so on up
  to the anchor component a_0; the element (a_0, ..., a_{k-1}) of K takes f
  to (phi_1, ..., phi_k).  Uniqueness: if delta and g . delta are both
  Delta-chains, the last entry delta_k o g_{k-1}^{-1} is order-preserving,
  so g_{k-1} = 1 by the uniqueness of the split, and so on downwards.
* So k[hom-chains] (x) I^(x) is the free K-module on Delta-chains (x) I^(x),
  and its K-coinvariants are k[Delta-chains] (x) I^(x) with no division by
  |K|: the class of (f, t) is (delta, F(a_0) t), delta and a_0 the normal
  form above.
* What is left is H_{y_k}, acting on the K-coinvariants through the normal
  form: s . (delta, t) = (delta', F(a_0) t), where the backward pass starts
  from s o delta_k.  At a singleton chain there is no entry and a_0 = s acts
  on the tensor.  Coinvariants of a group are the quotient by (s - 1)m for s
  in any generating set, since gh - 1 = (g - 1)h + (h - 1); the y_k + 1
  Coxeter generators t_0, theta_0, ..., theta_{y_k - 1} suffice.

These relations run through the one elimination kernel of ``homology``,
and the rows its pivots do not lead are the basis.  Restricting a
Delta-chain along a poset arrow composes order-preserving surjections, and
the transport to the new anchor is one too, so the functor's matrices need
no normal form.  Nothing divides by a group order or enumerates a group.
"""
from __future__ import annotations

import itertools
from collections import namedtuple

from .barfun import BarFunctor, IDEAL
from .croscat import (IFasMorphism, _make_ifas, delta_to_ifas,
                      enumerate_delta, hyp_t, hyp_theta, hyp_to_ifas,
                      ifas_compose)
from .complexes import (TruncationPolicy, TruncatedComplex, build_gz_complex,
                        DEFAULT_MAX_GENERATORS)
from .homology import _eliminate, _matrix_columns
from .invalg import InvolutiveAlgebra, adapt_basis_to_augmentation
from .matrices import SparseMatrix


class SlominskaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the truncated subset poset
# ---------------------------------------------------------------------------

class PosetMorphism(namedtuple("PosetMorphism", "source target")):
    """The unique arrow source -> target; exists iff target is a subset."""

    __slots__ = ()

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


# ---------------------------------------------------------------------------
# Delta-chains and the normal form
# ---------------------------------------------------------------------------

def chain_objects(X: tuple):
    """Object indices of the chain, anchor first (descending)."""
    return tuple(reversed(X))


def delta_chains(X: tuple):
    """The hom-chains of order-preserving surjections along the chain:
    element i maps the object at position i (larger) onto the object at
    position i + 1.  For a singleton chain the value is the one-point set
    (empty tuple here)."""
    ys = chain_objects(X)
    return list(itertools.product(*(
        [delta_to_ifas(phi) for phi in enumerate_delta(a, b, "epi")]
        for a, b in zip(ys, ys[1:]))))


def _normal_form(chain: tuple, a: IFasMorphism):
    """The Delta-chain in the K-orbit of ``chain`` with ``a`` post-composed
    on its last entry, and the anchor component a_0 that moves into the
    tensor: one backward pass splits each ``a o f`` as ``phi o a'`` and
    hands ``a'`` to the entry before.

    The split is read off the fibres of ``a o f``: number their labeled
    points 0, 1, ... in order, fibre by fibre.  Then phi sends the
    consecutive counters of fibre i to i, with trivial labels, and a'
    sends counter k to its point p with its label, a signed permutation.
    The fibre of phi o a' over i is the ordered union of the fibres of a'
    over the counters of fibre i, which is fibre i of ``a o f`` itself; phi
    is order-preserving, so (phi, a') is the unique split.  This is
    ``ifas_to_pair`` followed by ``delta_to_ifas`` and ``hyp_to_ifas``,
    without building the pair."""
    out = list(chain)
    for i in reversed(range(len(out))):
        f = ifas_compose(a, out[i])
        fibres, k = [], 0
        for fibre in f.preimages:
            fibres.append(tuple((c, 0) for c in range(k, k + len(fibre))))
            k += len(fibre)
        out[i] = _make_ifas(f.source, f.target, tuple(fibres))
        a = _make_ifas(f.source, f.source,
                       tuple((pt,) for fibre in f.preimages for pt in fibre))
    return tuple(out), a


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


# ---------------------------------------------------------------------------
# coinvariants
# ---------------------------------------------------------------------------

class CoinvariantModule:
    """Coinvariants of k[hom-chains] (x) ideal tensors, presented as
    k[Delta-chains] (x) ideal tensors (the K-coinvariants, see the module
    docstring) modulo the relations (delta', F(a_0) t) - (delta, t) for the
    Coxeter generators s of the last factor H_{y_k}, (delta', a_0) the
    normal form of s post-composed on the last entry of delta.

    The relation columns, one ``SparseMatrix``, stream through the
    elimination kernel as a boundary's do (``homology._matrix_columns``).
    Its Gauss-Jordan form keeps every pivot's tail on rows that lead no
    pivot, so those rows, ascending, are the basis of the quotient, and a
    leading row r is congruent to -tails[r] / lead[r] on them."""

    def __init__(self, X: tuple, functor: BarFunctor):
        ring = functor.ring
        if ring.characteristic != 0 or not ring.is_field:
            raise SlominskaError("coinvariants need a characteristic-zero field")
        self.ring = ring
        chains = delta_chains(X)
        chain_index = {c: i for i, c in enumerate(chains)}
        tdim = len(functor.basis(max(X)))
        last = min(X)
        coxeter = [hyp_t(last, 0)] + [hyp_theta(last, j) for j in range(last)]
        relations = []
        for s in map(hyp_to_ifas, coxeter):
            for ci, chain in enumerate(chains):
                image, a0 = _normal_form(chain, s)
                twisted = chain_index[image] * tdim
                tensor = functor.evaluate(a0)
                for t in range(tdim):
                    rel = {twisted + r: v
                           for r, v in tensor.column(t).items()}
                    e = ci * tdim + t
                    rel[e] = ring.sub(rel.get(e, ring.zero()), ring.one())
                    relations.append(rel)
        dim = len(chains) * tdim
        relations = SparseMatrix(ring, dim, len(relations), relations)
        self.lead: dict = {}
        self.tails: dict = {}
        p = ring.characteristic
        cols = _matrix_columns(relations, range(relations.ncols), p)
        for _ in _eliminate(cols, p, lead=self.lead, tails=self.tails):
            pass
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

    def module(self, X) -> CoinvariantModule:
        m = self._modules.get(X)
        if m is None:
            m = CoinvariantModule(X, self.bar)
            self._modules.setdefault(X, m)
        return m

    def dim(self, X):
        return self.module(X).dim

    def matrix(self, f: PosetMorphism) -> SparseMatrix:
        ring = self.ring
        src = self.module(f.source)
        tgt = self.module(f.target)
        cols = []
        for row in src.basis:
            ci, t = divmod(row, src.tensor_dim)
            new_chain, transport = restrict_chain(f.source, f.target,
                                                  src.chains[ci])
            base = tgt.chain_index[new_chain] * tgt.tensor_dim
            if transport is None:
                image = {base + t: ring.one()}
            else:
                image = {base + r: w for r, w in
                         self.bar.evaluate(transport).column(t).items()}
            cols.append(tgt.coordinates(image))
        return SparseMatrix(ring, tgt.dim, src.dim, cols)


def slominska_complex(algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                      max_generators: int = DEFAULT_MAX_GENERATORS
                      ) -> TruncatedComplex:
    """Standard complex of the coinvariants functor over the truncated
    subset poset; its homology is the reduced invariant of the algebra.

    The complex eliminated is its normalized quotient (see ``complexes``).
    No composite of strict arrows in a poset is an identity, so that
    quotient is the subcomplex of strict strings, which has no generator
    above degree N; ``generator_counts`` stay the standard counts."""
    poset = SubsetPoset(policy.max_object)
    functor = CoinvariantFunctorView(algebra)
    return build_gz_complex(poset, functor, policy, max_generators,
                            label="slominska", normalized=True)
