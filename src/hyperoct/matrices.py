"""Column-major exact sparse matrices in compressed-column (CSC) form.

A matrix is three arrays: ``starts``, the ncols + 1 offsets of its columns
(int64); ``rows``, the row of every stored entry, column after column
(int32, int64 from 2^31 rows on); and ``vals``, their values at the same
positions, an int64 ``array`` when every value is a machine int and a
plain list otherwise (``Fraction`` entries over Q, ints beyond 64 bits over
Z).  Column j is the slice ``starts[j]:starts[j + 1]`` of both.  No stored
value is zero, and each column stores its leading (largest) row first, so
``rows[starts[j]]`` is that row, read without building the column.  An
entry costs 12 bytes, where a dict per column cost 70 to 90.

The arrays are the only form: ``column(j)`` builds column j as a dict for
a reader that needs one, and the kernels read the arrays.  The constructor
writes a list of dict columns through a ``ColumnWriter`` at once (small
matrices, tests); a large matrix is written column by column by one
(``complexes.build_gz_complex``), so no list of its dict columns exists.
"""
from __future__ import annotations

from array import array
from itertools import accumulate, chain, islice

from .rings import Ring


def row_array(nrows: int) -> array:
    """An empty row-index array for a matrix with ``nrows`` rows."""
    return array("i" if nrows < 1 << 31 else "q")


def lead_first(col: dict) -> dict:
    """The nonzero entries of ``col`` in a new dict, its leading row
    first."""
    if 0 in col.values():
        col = {r: v for r, v in col.items() if v}
    return {max(col): 0, **col} if col else {}


def combination(ring: Ring, cols, vecs) -> list:
    """sum_k vec[k] cols[k] for each vector ``vec`` in ``vecs``, dicts
    with no zero value like the columns ``cols[k]``, zeros dropped (a
    product of nonzero scalars is nonzero in every ring here)."""
    mul, add, is_zero = ring.mul, ring.add, ring.is_zero
    out = []
    for vec in vecs:
        acc: dict = {}
        for k, v in vec.items():
            for r, w in cols[k].items():
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
        out.append(acc)
    return out


class ColumnWriter:
    """Writes the arrays of a matrix column by column.  Entries go to list
    buffers (``buffer``: rows, values and the end of each column), which
    take an item several times faster than an ``array`` does, and
    ``flush`` moves them into the arrays once they hold ``FLUSH`` entries,
    and at the end.  The values stay an int64 array until one does not
    fit, and are a list from then on."""

    FLUSH = 1 << 12

    def __init__(self, nrows: int):
        self.nrows = nrows
        self.starts, self.rows = array("q", [0]), row_array(nrows)
        self.vals = array("q")
        self.buffer = ([], [], [])

    def extend(self, cols) -> None:
        """Append the columns ``cols``, dicts with no zero value, each with
        its leading row as its first key."""
        rows, vals, ends = self.buffer
        start = len(self.rows) + len(rows)
        rows += chain.from_iterable(cols)
        vals += chain.from_iterable(map(dict.values, cols))
        ends += islice(accumulate(map(len, cols), initial=start), 1, None)
        if len(rows) >= self.FLUSH:
            self.flush()

    def flush(self) -> None:
        rows, vals, ends = self.buffer
        self.rows.fromlist(rows)
        self.starts.fromlist(ends)
        if type(self.vals) is list:
            self.vals += vals
        else:
            try:
                self.vals.fromlist(vals)
            except (TypeError, OverflowError):
                self.vals = list(self.vals) + vals
        for part in self.buffer:
            part.clear()

    def matrix(self, ring: Ring, ncols: int) -> "SparseMatrix":
        self.flush()
        return SparseMatrix.from_arrays(ring, self.nrows, ncols, self.starts,
                                        self.rows, self.vals)


class SparseMatrix:
    __slots__ = ("ring", "nrows", "ncols", "starts", "rows", "vals")

    def __init__(self, ring: Ring, nrows: int, ncols: int, cols=None):
        """The matrix with dict columns ``cols`` (row -> value; zero values
        are dropped), or the zero matrix when ``cols`` is None."""
        if cols is None:
            cols = [{}] * ncols
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        writer = ColumnWriter(nrows)
        writer.extend(list(map(lead_first, cols)))
        writer.flush()
        self.ring, self.nrows, self.ncols = ring, nrows, ncols
        self.starts, self.rows, self.vals = (writer.starts, writer.rows,
                                             writer.vals)

    @classmethod
    def from_arrays(cls, ring: Ring, nrows: int, ncols: int, starts, rows,
                    vals) -> "SparseMatrix":
        """The matrix of arrays filled in the form of the module
        docstring, taken as they are."""
        if len(starts) != ncols + 1 or len(rows) != len(vals):
            raise ValueError("arrays do not fit the shape")
        m = cls.__new__(cls)
        m.ring, m.nrows, m.ncols = ring, nrows, ncols
        m.starts, m.rows, m.vals = starts, rows, vals
        return m

    @classmethod
    def identity(cls, ring, n):
        one = ring.one()
        return cls(ring, n, n, [{i: one} for i in range(n)])

    def column(self, j) -> dict:
        """Column ``j`` as a new dict, row -> value, leading row first."""
        a, b = self.starts[j], self.starts[j + 1]
        return dict(zip(self.rows[a:b], self.vals[a:b]))

    def nnz(self) -> int:
        return len(self.rows)

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other (composition: other applied first)."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        vecs = [other.column(j) for j in range(other.ncols)]
        cols = {k: self.column(k) for k in set().union(*vecs)}
        return SparseMatrix(self.ring, self.nrows, other.ncols,
                            combination(self.ring, cols, vecs))

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector (dict row -> scalar)."""
        vec = {k: v for k, v in vec.items() if not self.ring.is_zero(v)}
        cols = {k: self.column(k) for k in vec}
        return combination(self.ring, cols, [vec])[0]

    def transpose(self) -> "SparseMatrix":
        cols = [{} for _ in range(self.nrows)]
        for j in range(self.ncols):
            for r, v in self.column(j).items():
                cols[r][j] = v
        return SparseMatrix(self.ring, self.ncols, self.nrows, cols)

    def submatrix(self, row_indices, col_indices) -> "SparseMatrix":
        """Extract the block with the given (old) row and column indices,
        renumbered in the given order."""
        row_map = {old: new for new, old in enumerate(row_indices)}
        return SparseMatrix(self.ring, len(row_indices), len(col_indices), [
            {row_map[r]: v for r, v in self.column(j).items() if r in row_map}
            for j in col_indices])

    def equals(self, other: "SparseMatrix") -> bool:
        """Same shape and the same entries, column by column."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) \
                or self.starts != other.starts:
            return False
        if self.rows == other.rows and self.vals == other.vals:
            return True
        return all(self.column(j) == other.column(j)
                   for j in range(self.ncols))

    def __repr__(self):
        return f"SparseMatrix({self.ring.name}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"
