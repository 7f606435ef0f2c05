"""Small oracles that only the tests use: the inverse and the elements of
a hyperoctahedral group, and the block support of a sparse matrix."""
from __future__ import annotations

import itertools

from hyperoct.croscat import HypElement, perm_inverse


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
