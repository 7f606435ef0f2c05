"""Covariant bar constructions as computable functors.

A functor value on the object ``[n]`` is the tensor power ``A^{n+1}`` (or the
ideal power ``I^{n+1}``, or the ground ring at the empty object); a morphism
becomes the exact sparse matrix that, per target point, multiplies the
labeled ordered preimage of that point, applying the involution where a
point carries the flip label and inserting the unit for an empty preimage.
"""
from __future__ import annotations

import itertools

from .croscat import IFasMorphism, EMPTY_OBJECT
from .invalg import InvolutiveAlgebra, BasicTensorBasis
from .matrices import SparseMatrix

FULL = "full"
IDEAL = "ideal"
EXTENDED = "extended"


class FunctorError(ValueError):
    pass


class BarFunctor:
    """One of the three bar-construction variants over a fixed algebra.

    * ``full``: defined on all plain morphisms, value ``A^{n+1}``.
    * ``ideal``: defined on epimorphisms only, value ``I^{n+1}`` in the
      adapted basis (every slot product of at least one ideal element stays
      in the ideal, which is asserted during evaluation).
    * ``extended``: ``full`` plus the empty object with value the ground
      ring; the unique morphism out of the empty object becomes the unit
      inclusion column.

    Evaluation is memoized per morphism; the memo table is insert-once.
    """

    def __init__(self, algebra: InvolutiveAlgebra, variant: str = FULL):
        if variant not in (FULL, IDEAL, EXTENDED):
            raise FunctorError(f"unknown variant {variant!r}")
        if variant == IDEAL and not algebra.is_adapted():
            raise FunctorError("the ideal variant needs an adapted algebra")
        self.algebra = algebra
        self.ring = algebra.ring
        self.variant = variant
        self._bases: dict = {}
        self._memo: dict = {}
        # involution images of basis vectors, reused in every slot product
        self._invol_rows = [algebra.involve(algebra.basis_vector(i))
                            for i in range(algebra.dim)]

    # -- bases -------------------------------------------------------------

    def basis(self, obj: int) -> BasicTensorBasis:
        b = self._bases.get(obj)
        if b is None:
            if obj == EMPTY_OBJECT and self.variant != EXTENDED:
                raise FunctorError("empty object outside the extended variant")
            kind = IDEAL if self.variant == IDEAL else FULL
            b = BasicTensorBasis(self.algebra, obj, kind)
            self._bases.setdefault(obj, b)
        return b

    def dim(self, obj: int) -> int:
        return len(self.basis(obj))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, f: IFasMorphism) -> SparseMatrix:
        """Exact matrix of the functor on a morphism, columns indexed by the
        source tensor basis."""
        cached = self._memo.get(f)
        if cached is not None:
            return cached
        if self.variant == IDEAL and not f.is_epi():
            raise FunctorError(f"{f} is not an epimorphism")
        if self.variant != EXTENDED and (f.source == EMPTY_OBJECT or
                                         f.target == EMPTY_OBJECT):
            raise FunctorError("empty-object morphism passed to a plain variant")
        src = self.basis(f.source)
        tgt = self.basis(f.target)
        algebra = self.algebra
        ring = self.ring
        ideal_only = self.variant == IDEAL
        mat = SparseMatrix(ring, len(tgt), len(src))
        unit = algebra.unit
        for col_index, letters in enumerate(src.tuples):
            # one product vector per target slot
            slot_vectors = []
            for fiber in f.preimages:
                if not fiber:
                    slot_vectors.append(unit)
                    continue
                acc = None
                for point, label in fiber:
                    vec = (self._invol_rows[letters[point]] if label
                           else algebra.basis_vector(letters[point]))
                    acc = vec if acc is None else algebra.multiply(acc, vec)
                slot_vectors.append(acc)
            if ideal_only:
                for v in slot_vectors:
                    if not ring.is_zero(v[0]):
                        raise FunctorError(
                            "slot product left the augmentation ideal")
            # expand the tensor product of the slot vectors over basis tuples
            supports = []
            for v in slot_vectors:
                sup = [(i, c) for i, c in enumerate(v) if not ring.is_zero(c)]
                supports.append(sup)
            col = mat.cols[col_index]
            for combo in itertools.product(*supports):
                coeff = ring.one()
                key = tuple(i for i, _ in combo)
                for _, c in combo:
                    coeff = ring.mul(coeff, c)
                row = tgt.index.get(key)
                if row is None:
                    raise FunctorError("tensor expansion left the basis")
                cur = col.get(row)
                col[row] = coeff if cur is None else ring.add(cur, coeff)
            for row in [r for r, v in col.items() if ring.is_zero(v)]:
                del col[row]
        self._memo.setdefault(f, mat)
        return mat
