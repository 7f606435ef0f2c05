"""Small oracles that only the tests use: the inverse and the elements of
a hyperoctahedral group, the block support of a sparse matrix, and the
zero-anchored complex built string by string."""
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


def supported_in_rows(M, row_indices, col_indices) -> bool:
    """True iff every column in col_indices is supported inside row_indices."""
    keep = set(row_indices)
    return all(r in keep for j in col_indices for r in M.cols[j])


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
