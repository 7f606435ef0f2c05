"""Small oracles that only the tests use: the inverse and the elements of
a hyperoctahedral group, dense and dict views of a sparse matrix and its
block support, the zero-anchored complex built string by string, and the
splitting of a nerve by tensor index."""
from __future__ import annotations

import itertools

from hyperoct import complexes as cx
from hyperoct.croscat import HypElement, ifas_identity, perm_inverse
from hyperoct.matrices import SparseMatrix


def hyp_inverse(a: HypElement) -> HypElement:
    pinv = perm_inverse(a.perm)
    signs = tuple(a.signs[pinv[p]] for p in range(a.n + 1))
    return HypElement(signs, pinv)


def hyp_enumerate(n: int):
    """All elements of the group on [n], in deterministic order."""
    for perm in itertools.permutations(range(n + 1)):
        for signs in itertools.product((0, 1), repeat=n + 1):
            yield HypElement(signs, perm)


def columns(M: SparseMatrix) -> list:
    """Every column of ``M`` as a dict, through ``SparseMatrix.column``."""
    return [M.column(j) for j in range(M.ncols)]


def from_dense(ring, rows) -> SparseMatrix:
    """The matrix of a list of rows; ints are taken into ``ring``."""
    ncols = len(rows[0]) if rows else 0
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            v = ring.from_int(v) if isinstance(v, int) else v
            if not ring.is_zero(v):
                cols[j][i] = v
    return SparseMatrix(ring, len(rows), ncols, cols)


def from_entries(ring, nrows, ncols, entries) -> SparseMatrix:
    """The matrix with the sum of the scalars of ``entries``, an iterable
    of (row, col, scalar), at each position."""
    cols = [{} for _ in range(ncols)]
    for r, c, v in entries:
        cols[c][r] = ring.add(cols[c].get(r, ring.zero()), v)
    return SparseMatrix(ring, nrows, ncols,
                        [{r: v for r, v in col.items() if not ring.is_zero(v)}
                         for col in cols])


def to_dense(M: SparseMatrix) -> list:
    rows = [[M.ring.zero()] * M.ncols for _ in range(M.nrows)]
    for j, col in enumerate(columns(M)):
        for r, v in col.items():
            rows[r][j] = v
    return rows


def is_zero_matrix(M: SparseMatrix) -> bool:
    return M.nnz() == 0


def add(A: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    ring = A.ring
    cols = columns(A)
    for col, other in zip(cols, columns(B)):
        for r, v in other.items():
            col[r] = ring.add(col.get(r, ring.zero()), v)
    return SparseMatrix(ring, A.nrows, A.ncols,
                        [{r: v for r, v in col.items() if not ring.is_zero(v)}
                         for col in cols])


def neg(M: SparseMatrix) -> SparseMatrix:
    ring = M.ring
    return SparseMatrix(ring, M.nrows, M.ncols,
                        [{r: ring.neg(v) for r, v in col.items()}
                         for col in columns(M)])


def map_matrix(f, n: int) -> SparseMatrix:
    """The degree-n matrix of the index chain map ``f``."""
    one = f.source.ring.one()
    return SparseMatrix(f.source.ring, f.target.dimension(n),
                        f.source.dimension(n), [{k: one} for k in f.images[n]])


def supported_in_rows(M, row_indices, col_indices) -> bool:
    """True iff every column in col_indices is supported inside row_indices."""
    keep = set(row_indices)
    return all(r in keep for j in col_indices for r in M.column(j))


def zero_anchored_by_strings(policy, ring):
    """The complex of strings anchored at object 0 and its cone
    contraction, built by enumerating the strings of n + 1 composable
    morphism ids from object 0 in degree n and looking each face up by its
    tuple: face i < n composes ids i and i + 1, face n drops the last id.

    Returns the position of each string per degree, the boundaries and
    the contraction's ``dims`` and ``identities``."""
    table = cx.MorphismTable(cx.DeltaHCategory(), range(policy.max_object + 1))
    D = policy.max_degree
    strings, index = [], []
    for n in range(D + 2):
        sts = []
        for objseq in itertools.product(table.objects, repeat=n + 1):
            seq = (0,) + objseq
            homs = [table.hom[seq[i], seq[i + 1]] for i in range(n + 1)]
            if all(homs):
                sts.extend(itertools.product(*homs))
        strings.append(sts)
        index.append({s: i for i, s in enumerate(sts)})
    p = ring.characteristic
    boundaries = {}
    for n in range(1, D + 2):
        cols = []
        for ids in strings[n]:
            col = {}
            sign = 1
            for i in range(n + 1):
                if i < n:
                    tgt = ids[:i] + (table.compose(ids[i + 1], ids[i]),) \
                        + ids[i + 2:]
                else:
                    tgt = ids[:-1]
                r = index[n - 1][tgt]
                col[r] = col.get(r, 0) + sign
                sign = -sign
            cols.append(cx._reduced(col, p))
        boundaries[n] = SparseMatrix(ring, len(strings[n - 1]),
                                     len(strings[n]), cols)
    ident0 = table.id[ifas_identity(0)]
    h = {n: [index[n + 1][(ident0,) + ids] for ids in strings[n]]
         for n in range(D + 1)}
    identities = cx._contraction_identities(boundaries.__getitem__, h,
                                            index[0][(ident0,)], p, D)
    return {"index": index, "boundaries": boundaries,
            "dims": [len(s) for s in strings], "identities": identities}


def split_by_tensor_index(nerve):
    """The splitting of the nerve of an adapted full functor by its tensor
    index, dict column by dict column: tensor index 0 of every string spans
    the unit summand and the other indices the ideal summand.

    Returns ``ci_index``, the nerve index of every ideal generator per
    degree, and the ideal and unit blocks of each boundary, its rows and
    columns renumbered in order within the summand (``submatrix``, which
    drops the entries of the other summand)."""
    ci_index, ck_index = [], []
    for n in range(len(nerve.dims)):
        first = 0
        ideal, unit = [], []
        for src, _ in nerve.walk(n):
            dim = nerve.functor.dim(src)
            unit.append(first)
            ideal.extend(range(first + 1, first + dim))
            first += dim
        assert first == nerve.dims[n]
        ci_index.append(ideal)
        ck_index.append(unit)
    ideal_blocks, unit_blocks = {}, {}
    for n in range(1, len(nerve.dims)):
        M = nerve.boundary(n)
        ideal_blocks[n] = M.submatrix(ci_index[n - 1], ci_index[n])
        unit_blocks[n] = M.submatrix(ck_index[n - 1], ck_index[n])
    return ci_index, ideal_blocks, unit_blocks
