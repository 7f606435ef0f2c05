"""Field solves, cycle samples and the is-a-boundary solver, which only the
tests use.

They run on the elimination kernel of ``hyperoct.homology`` with tracked
combinations: a column's combination of the streamed columns, by index, is
kept, so a column that reduces to zero gives a vanishing combination."""
from __future__ import annotations

from dataclasses import dataclass

from hyperoct.homology import (HomologyError, _columns, _eliminate, _modulus,
                               field_rank, integer_rank)
from hyperoct.matrices import SparseMatrix


def matrix_rank(M: SparseMatrix) -> int:
    return field_rank(M) if M.ring.is_field else integer_rank(M)


def field_solve(A: SparseMatrix, b: dict):
    """Solve ``A x = b`` over a field.

    ``b`` streams through the kernel after the columns of ``A``; it reduces
    to zero exactly when the system is consistent, and then its tracked
    combination gives the solution.  Returns a sparse solution dict or None
    (callers certify refusals with the rank criterion)."""
    ring = A.ring
    p = _modulus(ring)
    scales: list = []
    cols = _columns(A.cols + [b], p, scales)
    *_, (pivot, expr) = _eliminate(cols, p, track=True)
    if pivot:
        return None
    # sum_j expr[j] scales[j] A_j + expr[n] scales[n] b = 0
    den = ring.from_int(-expr.pop(A.ncols) * scales[A.ncols])
    return {j: ring.div(ring.from_int(c * scales[j]), den)
            for j, c in expr.items()}


def field_kernel_sample(complex_, degree: int, limit: int = 10):
    """Up to ``limit`` cycles in the given degree, as sparse vectors.

    Every degree-zero chain is a cycle; in higher degrees kernel vectors of
    the boundary are the tracked combinations of the columns that reduce to
    zero in the kernel."""
    ring = complex_.ring
    if degree == 0:
        dim = complex_.dimension(0)
        return [{i: ring.one()} for i in range(min(limit, dim))]
    A = complex_.boundary(degree)
    p = _modulus(ring)
    scales: list = []
    out = []
    for pivot, expr in _eliminate(_columns(A.cols, p, scales), p,
                                  track=True):
        if not pivot:
            out.append({j: ring.from_int(c * scales[j])
                        for j, c in expr.items()})
            if len(out) >= limit:
                break
    return out


@dataclass
class BoundaryWitness:
    degree: int
    witness: dict | None
    rank_matrix: int | None = None
    rank_augmented: int | None = None

    @property
    def is_boundary(self) -> bool:
        return self.witness is not None


def solve_is_boundary(complex_, degree: int, z: dict) -> BoundaryWitness:
    """Witness ``z = d w`` with ``w`` one degree up, or a certified refusal,
    over a field (over Z it raises ``HomologyError``).

    ``z`` must be a cycle; refusals come with the rank certificate
    rank(A) < rank(A | z)."""
    ring = complex_.ring
    if not ring.is_field:
        raise HomologyError("boundary solving needs a field")
    if degree >= 1:
        bz = complex_.boundary(degree).apply(z)
        if bz:
            raise HomologyError("input vector is not a cycle")
    A = complex_.boundary(degree + 1)
    sol = field_solve(A, z)
    if sol is not None:
        check = A.apply(sol)
        if check != {r: v for r, v in z.items() if not ring.is_zero(v)}:
            raise HomologyError("solver produced an invalid witness")
        return BoundaryWitness(degree, sol)
    # refusal certificate
    aug = SparseMatrix(ring, A.nrows, A.ncols + 1,
                       [dict(c) for c in A.cols] + [dict(z)])
    return BoundaryWitness(degree, None,
                           rank_matrix=matrix_rank(A),
                           rank_augmented=matrix_rank(aug))
