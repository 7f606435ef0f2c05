"""Property tests of complex assembly on morphism ids against the face
formula evaluated on morphism objects, and of the normalized epimorphism
complex against the standard one.

The oracle never reads the complex's composition table or string index: it
turns a string's ids into morphisms once, composes them with
``ifas_compose``, pushes coefficients through a fresh ``BarFunctor`` and
locates each face by the morphisms it consists of."""
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from hyperoct import complexes as cx, croscat as cc, invalg as ia
from hyperoct import slominska as sl
from hyperoct.barfun import BarFunctor, EXTENDED, FULL, IDEAL
from hyperoct.homology import compute_homology
from hyperoct.matrices import SparseMatrix
from hyperoct.rings import GF, QQ, ZZ, ring_by_name
from oracles import columns

RINGS = {"q": QQ, "f3": GF(3), "z": ZZ}


def standard_epi_complex(algebra, policy):
    """The epimorphism complex before normalization: every string."""
    functor = BarFunctor(ia.adapt_basis_to_augmentation(algebra), IDEAL)
    return cx.build_gz_complex(cx.EpiDeltaHCategory(),
                               cx.BarFunctorView(functor), policy)


# (complex constructor, functor variant, group order, truncation)
KINDS = {
    "deltaH": (cx.build_full_complex, FULL, 2, (1, 1)),
    "epi": (standard_epi_complex, IDEAL, 3, (1, 2)),
    "extended": (cx.build_extended_complex, EXTENDED, 2, (1, 1)),
}
CATEGORIES = {"deltaH": cx.DeltaHCategory(), "epi": cx.EpiDeltaHCategory(),
              "extended": cx.ExtendedDeltaHCategory()}


@lru_cache(maxsize=None)
def built(kind, ring_name):
    """(complex, oracle functor, degree-wise position of each string keyed
    by its morphisms), built once per kind and ring."""
    construct, variant, order, (N, D) = KINDS[kind]
    algebra = ia.cyclic_group_algebra(order, RINGS[ring_name])
    C = construct(algebra, cx.TruncationPolicy(N, D))
    functor = BarFunctor(C.functor.functor.algebra, variant)
    by_morphisms = [
        {(src, tuple(C.morphisms[i] for i in ids)): pos
         for pos, (src, ids) in enumerate(C.strings(n))}
        for n in range(D + 2)]
    return C, functor, by_morphisms


def oracle_column(C, functor, by_morphisms, n, si, t):
    """Boundary column of generator (string si, tensor index t) in degree
    n: F(f_1) on the coefficient, then (-1)^i for composing f_{i+1} f_i,
    then (-1)^n for dropping f_n."""
    ring = C.ring
    src, ids = C.strings(n)[si]
    fs = [C.morphisms[i] for i in ids]
    faces = [(1, (fs[0].target, tuple(fs[1:])),
              functor.evaluate(fs[0]).column(t))]
    for i in range(1, n):
        composed = cc.ifas_compose(fs[i], fs[i - 1])
        faces.append(((-1) ** i, (src, tuple(fs[:i - 1]) + (composed,)
                                  + tuple(fs[i + 1:])), {t: ring.one()}))
    faces.append(((-1) ** n, (src, tuple(fs[:-1])), {t: ring.one()}))
    col = {}
    for sign, string, coeffs in faces:
        base = C.offsets(n - 1)[by_morphisms[n - 1][string]]
        for r, v in coeffs.items():
            term = ring.mul(ring.from_int(sign), v)
            col[base + r] = ring.add(col.get(base + r, ring.zero()), term)
    return {r: v for r, v in col.items() if not ring.is_zero(v)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(KINDS)), st.sampled_from(sorted(RINGS)),
       st.data())
def test_boundary_columns_match_the_face_formula(kind, ring_name, data):
    C, functor, by_morphisms = built(kind, ring_name)
    n = data.draw(st.integers(1, C.policy.max_degree + 1), label="degree")
    si = data.draw(st.integers(0, len(C.strings(n)) - 1), label="string")
    src, _ = C.strings(n)[si]
    t = data.draw(st.integers(0, functor.dim(src) - 1), label="tensor")
    col = C.boundary(n).column(C.offsets(n)[si] + t)
    assert col == oracle_column(C, functor, by_morphisms, n, si, t)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_ids_follow_hom_enumeration_and_d_squared_vanishes(kind, ring_name):
    C, _, _ = built(kind, ring_name)
    category = CATEGORIES[kind]
    table = C.morphisms
    objects = category.objects(C.policy.max_object)
    assert table.objects == objects
    expected = [f for a in objects for b in objects for f in category.hom(a, b)]
    assert table.morphisms == expected
    assert all(table.id[f] == i for i, f in enumerate(expected))
    assert C.check_dsquared()


# -- block arithmetic against string lookup ---------------------------------

def oracle_boundaries(C, normalized):
    """The boundaries of ``C`` with every face located by looking its
    string up in a table of all strings of the degree below, accumulated
    face by face and reduced once per column."""
    ring, functor, table = C.ring, C.functor, C.morphisms
    p = ring.characteristic
    degenerate = table.identities if normalized else frozenset()
    out = {}
    for n in range(1, C.policy.max_degree + 2):
        index = {s: i for i, s in enumerate(C.strings(n - 1))}
        offs = C.offsets(n - 1)
        cols = []
        for src, ids in C.strings(n):
            first = ids[0]
            fcols = columns(functor.matrix(table[first]))
            base0 = offs[index[table.target[first], ids[1:]]]
            faces = []
            sign = -1
            for i in range(1, n):
                c = table.compose(ids[i], ids[i - 1])
                if c not in degenerate:
                    faces.append((sign, offs[
                        index[src, ids[:i - 1] + (c,) + ids[i + 1:]]]))
                sign = -sign
            faces.append((sign, offs[index[src, ids[:-1]]]))
            for t in range(functor.dim(src)):
                col = {base0 + r: v for r, v in fcols[t].items()}
                for fsign, base in faces:
                    col[base + t] = col.get(base + t, 0) + fsign
                if p:
                    col = {r: v % p for r, v in col.items() if v % p}
                else:
                    col = {r: v for r, v in col.items() if v}
                cols.append(col)
        out[n] = cols
    return out


def typed(cols):
    """Each column as its (row, value, value type) triples, in row order."""
    return [sorted((r, v, type(v)) for r, v in col.items()) for col in cols]


ORACLE_KINDS = {
    "deltaH": (cx.build_full_complex, False),
    "epi": (cx.build_epi_complex, True),
    "epi-standard": (standard_epi_complex, False),
    "extended": (cx.build_extended_complex, False),
    "slominska": (sl.slominska_complex, True),
}
GRID = ((0, 2), (1, 1), (1, 2), (2, 1))
ORACLE_RINGS = ("q", "z", "f3", "f2147483647")
# the full and extended complexes project 3M generators at (2, 1), over the
# default cap, and take a second per ring at (1, 2); the coinvariant
# functor needs characteristic zero
ORACLE_CASES = (
    [(kind, "c2", N, D, ring_name) for kind in ("epi", "epi-standard")
     for N, D in GRID for ring_name in ORACLE_RINGS]
    + [(kind, "c2", N, D, ring_name) for kind in ("deltaH", "extended")
       for N, D in GRID[:2] for ring_name in ORACLE_RINGS]
    + [(kind, "c2", 1, 2, ring_name) for kind in ("deltaH", "extended")
       for ring_name in ("q", "f2147483647")]
    + [("slominska", "c2", N, D, "q") for N, D in GRID]
    + [(kind, "c2", 1, 3, ring_name) for kind in ("epi", "epi-standard")
       for ring_name in ("q", "f3")]
    + [("slominska", "c3", 3, 2, "q"), ("epi", "c3", 1, 2, "f3")])


@pytest.mark.parametrize("kind,algebra,N,D,ring_name", ORACLE_CASES)
def test_block_arithmetic_matches_string_lookup(kind, algebra, N, D,
                                                ring_name):
    construct, normalized = ORACLE_KINDS[kind]
    A = ia.builtin_algebra(algebra, ring_by_name(ring_name))
    C = construct(A, cx.TruncationPolicy(N, D))
    expected = oracle_boundaries(C, normalized)
    for n, cols in expected.items():
        built = columns(C.boundary(n))
        assert typed(built) == typed(cols)
        # each column stores its leading row first
        assert all(next(iter(col)) == max(col) for col in built if col)


# -- the normalized epimorphism complex --------------------------------------

@lru_cache(maxsize=None)
def epi_pair(algebra, ring_name, N, D):
    """(standard, normalized) epimorphism complexes of a builtin algebra."""
    A = ia.builtin_algebra(algebra, ring_by_name(ring_name))
    policy = cx.TruncationPolicy(N, D)
    return standard_epi_complex(A, policy), cx.build_epi_complex(A, policy)


def nondegenerate_rows(S, C, n):
    """Standard generator index -> normalized generator index, for the
    degree-n generators on strings with no identity arrow."""
    out = {}
    for si, (src, ids) in enumerate(C.strings(n)):
        base = S.offsets(n)[S.string_index(n)[src, ids]]
        for t in range(S.functor.dim(src)):
            out[base + t] = C.offsets(n)[si] + t
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["c2", "c3", "klein"]), st.sampled_from(sorted(RINGS)),
       st.data())
def test_normalized_columns_are_standard_columns_on_nondegenerate_rows(
        algebra, ring_name, data):
    S, C = epi_pair(algebra, ring_name, 1, 2)
    n = data.draw(st.integers(1, 3), label="degree")
    si = data.draw(st.integers(0, len(C.strings(n)) - 1), label="string")
    src, ids = C.strings(n)[si]
    assert not C.morphisms.identities.intersection(ids)
    t = data.draw(st.integers(0, C.functor.dim(src) - 1), label="tensor")
    rows = nondegenerate_rows(S, C, n - 1)
    std = S.boundary(n).column(
        S.offsets(n)[S.string_index(n)[src, ids]] + t)
    assert C.boundary(n).column(C.offsets(n)[si] + t) == {
        rows[r]: v for r, v in std.items() if r in rows}


@pytest.mark.parametrize("algebra", ["c2", "c3", "klein"])
def test_normalized_strings_keep_their_standard_order(algebra):
    S, C = epi_pair(algebra, "q", 1, 2)
    identities = C.morphisms.identities
    for n in range(4):
        assert C.strings(n) == [s for s in S.strings(n)
                                if not identities.intersection(s[1])]
    assert C.generator_counts() == S.dims
    assert C.dims == cx.projected_generator_counts(
        cx.EpiDeltaHCategory(), C.functor, C.policy, normalized=True)
    assert all(c < s for c, s in zip(C.dims[1:], S.dims[1:]))


def test_normalizing_needs_a_functor_that_keeps_identities():
    # the degenerate strings span a subcomplex only when F(id) = id
    class ZeroOnIdentities(cx.BarFunctorView):
        def matrix(self, f):
            M = super().matrix(f)
            if f == cc.ifas_identity(f.source):
                return SparseMatrix(self.ring, M.nrows, M.ncols)
            return M

    A = ia.adapt_basis_to_augmentation(ia.cyclic_group_algebra(2, QQ))
    functor = ZeroOnIdentities(BarFunctor(A, IDEAL))
    policy = cx.TruncationPolicy(1, 1)
    category = cx.EpiDeltaHCategory()
    cx.build_gz_complex(category, functor, policy)
    with pytest.raises(cx.ComplexError, match="to the identity"):
        cx.build_gz_complex(category, functor, policy, normalized=True)


CASES = [("c2", 1, 1), ("c2", 1, 2), ("c2", 2, 1),
         ("c4", 1, 1), ("c4", 1, 2)]


@pytest.mark.parametrize("ring_name", ["q", "f2", "f3", "z"])
@pytest.mark.parametrize("algebra,N,D", CASES)
def test_normalized_homology_is_the_standard_homology(algebra, N, D,
                                                      ring_name):
    S, C = epi_pair(algebra, ring_name, N, D)
    standard, normalized = compute_homology(S), compute_homology(C)
    assert normalized.betti == standard.betti
    assert normalized.torsion == standard.torsion
    if ring_name == "z" and (N, D) == (1, 1):
        expected = {"c2": [2, 2], "c4": [2, 2, 2]}[algebra]
        assert normalized.torsion[1] == expected
