"""Column-major exact sparse matrices.

A matrix stores one dict per column mapping row index to a nonzero scalar of
the ambient ring.  Columns are indexed by generator position, which keeps the
complex-assembly code close to the chain-level description (one boundary
column per generator).
"""
from __future__ import annotations

from .rings import Ring


class SparseMatrix:
    __slots__ = ("ring", "nrows", "ncols", "cols")

    def __init__(self, ring: Ring, nrows: int, ncols: int, cols=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        if cols is None:
            cols = [dict() for _ in range(ncols)]
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        self.cols = cols

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, ring, n):
        one = ring.one()
        return cls(ring, n, n, [{i: one} for i in range(n)])

    @classmethod
    def from_entries(cls, ring, nrows, ncols, entries):
        """entries: iterable of (row, col, scalar)."""
        m = cls(ring, nrows, ncols)
        for r, c, v in entries:
            m.add_to(r, c, v)
        return m

    @classmethod
    def from_dense(cls, ring, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        m = cls(ring, nrows, ncols)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                v = ring.from_int(v) if isinstance(v, int) else v
                if not ring.is_zero(v):
                    m.cols[j][i] = v
        return m

    # -- entry access ------------------------------------------------------

    def get(self, r, c):
        return self.cols[c].get(r, self.ring.zero())

    def set(self, r, c, v):
        if self.ring.is_zero(v):
            self.cols[c].pop(r, None)
        else:
            self.cols[c][r] = v

    def add_to(self, r, c, v):
        col = self.cols[c]
        cur = col.get(r)
        if cur is None:
            if not self.ring.is_zero(v):
                col[r] = v
        else:
            s = self.ring.add(cur, v)
            if self.ring.is_zero(s):
                del col[r]
            else:
                col[r] = s

    def column(self, c) -> dict:
        return self.cols[c]

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    # -- algebra -----------------------------------------------------------

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other (composition: other applied first)."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        ring = self.ring
        out = SparseMatrix(ring, self.nrows, other.ncols)
        mul, add, is_zero = ring.mul, ring.add, ring.is_zero
        mycols = self.cols
        for j, ocol in enumerate(other.cols):
            acc: dict = {}
            for k, v in ocol.items():
                for r, w in mycols[k].items():
                    prod = mul(w, v)
                    cur = acc.get(r)
                    if cur is None:
                        acc[r] = prod
                    else:
                        s = add(cur, prod)
                        if is_zero(s):
                            del acc[r]
                        else:
                            acc[r] = s
            out.cols[j] = acc
        return out

    __matmul__ = matmul

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector (dict row -> scalar)."""
        ring = self.ring
        acc: dict = {}
        for k, v in vec.items():
            if ring.is_zero(v):
                continue
            for r, w in self.cols[k].items():
                prod = ring.mul(w, v)
                cur = acc.get(r)
                if cur is None:
                    if not ring.is_zero(prod):
                        acc[r] = prod
                else:
                    s = ring.add(cur, prod)
                    if ring.is_zero(s):
                        del acc[r]
                    else:
                        acc[r] = s
        return acc

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_same_shape(other)
        ring = self.ring
        out = SparseMatrix(ring, self.nrows, self.ncols)
        for j in range(self.ncols):
            col = dict(self.cols[j])
            for r, v in other.cols[j].items():
                cur = col.get(r)
                if cur is None:
                    col[r] = v
                else:
                    s = ring.add(cur, v)
                    if ring.is_zero(s):
                        del col[r]
                    else:
                        col[r] = s
            out.cols[j] = col
        return out

    def sub(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.add(other.scale(self.ring.neg(self.ring.one())))

    def scale(self, s) -> "SparseMatrix":
        ring = self.ring
        if ring.is_zero(s):
            return SparseMatrix(ring, self.nrows, self.ncols)
        out = SparseMatrix(ring, self.nrows, self.ncols)
        out.cols = [{r: ring.mul(s, v) for r, v in col.items()} for col in self.cols]
        return out

    def neg(self) -> "SparseMatrix":
        return self.scale(self.ring.neg(self.ring.one()))

    def transpose(self) -> "SparseMatrix":
        out = SparseMatrix(self.ring, self.ncols, self.nrows)
        for j, col in enumerate(self.cols):
            for r, v in col.items():
                out.cols[r][j] = v
        return out

    def submatrix(self, row_indices, col_indices) -> "SparseMatrix":
        """Extract the block with the given (old) row and column indices,
        renumbered in the given order."""
        row_map = {old: new for new, old in enumerate(row_indices)}
        out = SparseMatrix(self.ring, len(row_indices), len(col_indices))
        for new_j, old_j in enumerate(col_indices):
            col = {}
            for r, v in self.cols[old_j].items():
                nr = row_map.get(r)
                if nr is not None:
                    col[nr] = v
            out.cols[new_j] = col
        return out

    def restrict_rows_complement_is_zero(self, row_indices, col_indices) -> bool:
        """True iff every column in col_indices is supported inside row_indices."""
        keep = set(row_indices)
        for j in col_indices:
            for r in self.cols[j]:
                if r not in keep:
                    return False
        return True

    # -- predicates --------------------------------------------------------

    def is_zero_matrix(self) -> bool:
        return all(not c for c in self.cols)

    def equals(self, other: "SparseMatrix") -> bool:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.cols == other.cols

    def _check_same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def to_dense(self):
        zero = self.ring.zero()
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for r, v in col.items():
                rows[r][j] = v
        return rows

    def __repr__(self):
        return f"SparseMatrix({self.ring.name}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"
