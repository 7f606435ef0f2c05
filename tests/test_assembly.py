"""Property tests of complex assembly on morphism ids against the face
formula evaluated on morphism objects.

The oracle never reads the complex's composition table or string index: it
turns a string's ids into morphisms once, composes them with
``ifas_compose``, pushes coefficients through a fresh ``BarFunctor`` and
locates each face by the morphisms it consists of."""
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from hyperoct import complexes as cx, croscat as cc, invalg as ia
from hyperoct.barfun import BarFunctor, EXTENDED, FULL, IDEAL
from hyperoct.rings import GF, QQ, ZZ

RINGS = {"q": QQ, "f3": GF(3), "z": ZZ}
# (complex constructor, functor variant, group order, truncation)
KINDS = {
    "deltaH": (cx.build_full_complex, FULL, 2, (1, 1)),
    "epi": (cx.build_epi_complex, IDEAL, 3, (1, 2)),
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
         for pos, (src, ids) in enumerate(C.strings[n])}
        for n in range(D + 2)]
    return C, functor, by_morphisms


def oracle_column(C, functor, by_morphisms, n, si, t):
    """Boundary column of generator (string si, tensor index t) in degree
    n: F(f_1) on the coefficient, then (-1)^i for composing f_{i+1} f_i,
    then (-1)^n for dropping f_n."""
    ring = C.ring
    src, ids = C.strings[n][si]
    fs = [C.morphisms[i] for i in ids]
    faces = [(1, (fs[0].target, tuple(fs[1:])),
              functor.evaluate(fs[0]).cols[t])]
    for i in range(1, n):
        composed = cc.ifas_compose(fs[i], fs[i - 1])
        faces.append(((-1) ** i, (src, tuple(fs[:i - 1]) + (composed,)
                                  + tuple(fs[i + 1:])), {t: ring.one()}))
    faces.append(((-1) ** n, (src, tuple(fs[:-1])), {t: ring.one()}))
    col = {}
    for sign, string, coeffs in faces:
        base = C.offsets[n - 1][by_morphisms[n - 1][string]]
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
    si = data.draw(st.integers(0, len(C.strings[n]) - 1), label="string")
    src, _ = C.strings[n][si]
    t = data.draw(st.integers(0, functor.dim(src) - 1), label="tensor")
    col = C.boundary(n).column(C.offsets[n][si] + t)
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
