"""Field solves, cycle samples, the is-a-boundary solver and a dense Smith
form, which only the tests use.

The solves run on their own small Gauss-Jordan elimination over the
field's own arithmetic, not on the kernel of ``hyperoct.homology`` that the
tests check: each column keeps its combination of the streamed columns, by
index, so a column that reduces to zero gives a vanishing combination.
The Smith form runs row and column operations on a dense matrix, not the
lattice folds of ``hyperoct.homology``."""
from __future__ import annotations

from dataclasses import dataclass

from hyperoct.homology import HomologyError, field_rank, integer_rank
from hyperoct.matrices import SparseMatrix
from hyperoct.rings import ZZ, xgcd


def matrix_rank(M: SparseMatrix) -> int:
    return field_rank(M) if M.ring.is_field else integer_rank(M)


def _axpy(ring, target: dict, c, source: dict):
    """``target -= c * source`` in place, zeros dropped."""
    for i, w in source.items():
        x = ring.sub(target.get(i, ring.zero()), ring.mul(c, w))
        if ring.is_zero(x):
            target.pop(i, None)
        else:
            target[i] = x


def tracked_elimination(ring, cols):
    """Gauss-Jordan over a field, column by column: yields, per column,
    None when it became a pivot, and otherwise its vanishing combination of
    the streamed columns (itself with coefficient 1).

    A pivot is kept with leading entry 1 and zero at every other pivot's
    leading row, so subtracting the pivots of the leading rows a column has
    clears them all."""
    pivots: dict = {}
    for j, col in enumerate(cols):
        vec = {k: v for k, v in col.items() if not ring.is_zero(v)}
        expr = {j: ring.one()}
        for r in [k for k in vec if k in pivots]:
            c = vec[r]
            _axpy(ring, vec, c, pivots[r][0])
            _axpy(ring, expr, c, pivots[r][1])
        if not vec:
            yield expr
            continue
        r = max(vec)
        inv = ring.div(ring.one(), vec[r])
        vec = {i: ring.mul(inv, w) for i, w in vec.items()}
        expr = {i: ring.mul(inv, w) for i, w in expr.items()}
        for pv, pe in pivots.values():
            c = pv.get(r)
            if c is not None:
                _axpy(ring, pv, c, vec)
                _axpy(ring, pe, c, expr)
        pivots[r] = (vec, expr)
        yield None


def field_solve(A: SparseMatrix, b: dict):
    """Solve ``A x = b`` over a field.

    ``b`` streams after the columns of ``A``; it reduces to zero exactly
    when the system is consistent, and then its combination gives the
    solution.  Returns a sparse solution dict or None (callers certify
    refusals with the rank criterion)."""
    ring = A.ring
    *_, expr = tracked_elimination(
        ring, [A.column(j) for j in range(A.ncols)] + [b])
    if expr is None:
        return None
    # sum_j expr[j] A_j + expr[n] b = 0, with expr[n] = 1
    minus = ring.neg(expr.pop(A.ncols))
    return {j: ring.div(c, minus) for j, c in expr.items()}


def field_kernel_sample(complex_, degree: int, limit: int = 10):
    """Up to ``limit`` cycles in the given degree, as sparse vectors.

    Every degree-zero chain is a cycle; in higher degrees kernel vectors of
    the boundary are the combinations of the columns that reduce to zero."""
    ring = complex_.ring
    if degree == 0:
        dim = complex_.dimension(0)
        return [{i: ring.one()} for i in range(min(limit, dim))]
    out = []
    M = complex_.boundary(degree)
    for expr in tracked_elimination(
            ring, map(M.column, range(M.ncols))):
        if expr is not None:
            out.append(expr)
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
                       [A.column(j) for j in range(A.ncols)] + [dict(z)])
    return BoundaryWitness(degree, None,
                           rank_matrix=matrix_rank(A),
                           rank_augmented=matrix_rank(aug))


def dense_smith_diagonal(M: SparseMatrix):
    """Diagonal entries of a diagonal form D = S A T reached by unimodular
    row and column operations on a dense copy of ``M``, each pivot the
    smallest nonzero entry left.  Divisibility of the diagonal is not
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
