import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperoct.rings import QQ, ZZ, GF
from hyperoct import croscat as cc, invalg as ia
from hyperoct.barfun import BarFunctor
from hyperoct.cli import algebra_from_spec
from hyperoct import complexes as cx
from hyperoct.homology import homology_over_field
from hyperoct.matrices import SparseMatrix
from hyperoct.slominska import SubsetPoset

from oracles import (columns, map_matrix, neg, supported_in_rows,
                     zero_anchored_by_strings)
from solvers import field_kernel_sample, solve_is_boundary


def machinery(group_order, N=1, D=1, ring=QQ):
    A = ia.cyclic_group_algebra(group_order, ring)
    return cx.ReducedMachinery(A, cx.TruncationPolicy(N, D))


def test_policy_validation():
    with pytest.raises(cx.ComplexError):
        cx.TruncationPolicy(-1, 0)
    with pytest.raises(cx.ComplexError):
        cx.TruncationPolicy(0, -1)


def test_ground_ring_complex_matches_the_category_nerve():
    # with rank-one coefficients the complex is the chain complex of the
    # nerve: one generator per string, faces compose/truncate
    G = ia.ground_ring_algebra(QQ)
    C = cx.build_full_complex(G, cx.TruncationPolicy(1, 1))
    table = cx.MorphismTable(cx.DeltaHCategory(), [0, 1])
    counts = []
    for n in range(3):
        counts.append(len(block_strings(table, n)))
    assert C.dims == counts == [2, 38, 956]
    # independent nerve boundary on a sample of strings, with the morphisms
    # read through the complex's id table
    rng = random.Random(0)
    strings = C.strings[2]
    morphisms = C.morphisms
    for _ in range(50):
        si = rng.randrange(len(strings))
        src, (i1, i2) = strings[si]
        f1, f2 = morphisms[i1], morphisms[i2]
        col = C.boundary(2).column(C.offsets[2][si])
        expected = {}
        for tgt, sgn in (((f1.target, (f2,)), 1),
                         ((src, (cc.ifas_compose(f2, f1),)), -1),
                         ((src, (f1,)), 1)):
            key = (tgt[0], tuple(morphisms.id[f] for f in tgt[1]))
            idx = C.offsets[1][C.string_index(1)[key]]
            expected[idx] = expected.get(idx, 0) + sgn
        expected = {k: QQ.from_int(v) for k, v in expected.items() if v}
        assert col == expected


def block_strings(table, degree, normalized=False):
    """Degree-n strings read off the assembly's blocks: each object
    sequence's product of hom lists, in block order."""
    return [(seq[0], ids) for seq, hs in cx._blocks(
        table.objects, cx._hom_lists(table, normalized), degree)
        for ids in itertools.product(*hs)]


def product_filter_strings(table, degree, normalized):
    """Degree-n strings from every object tuple of the product, kept when
    all its hom-sets are nonempty; identity ids dropped when normalized."""
    out = []
    for objseq in itertools.product(table.objects, repeat=degree + 1):
        homs = [table.hom[a, b] for a, b in zip(objseq, objseq[1:])]
        if all(homs):
            out.extend((objseq[0], ids) for ids in itertools.product(*homs)
                       if not (normalized
                               and table.identities.intersection(ids)))
    return out


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("category,N", [(SubsetPoset(3), 3),
                                        (cx.EpiDeltaHCategory(), 2)],
                         ids=["poset", "epi"])
def test_string_walk_matches_the_product_filter(category, N, normalized):
    table = cx.MorphismTable(category, category.objects(N))
    for n in range(4):
        strings = block_strings(table, n, normalized)
        assert strings == product_filter_strings(table, n, normalized)
    assert strings


def test_minimal_truncation_dimensions():
    # at N = 0, D = 0 over the ground ring: one degree-zero generator and
    # one generator per endomorphism of the one-point object in degree one
    G = ia.ground_ring_algebra(QQ)
    C = cx.build_full_complex(G, cx.TruncationPolicy(0, 0))
    assert C.dims[0] == 1
    assert C.dims[1] == 2


def test_dsquared_small_instances():
    for order in (2, 3):
        m = machinery(order)
        assert m.nerve.check_dsquared()
        assert m.c_ideal.check_dsquared()
        assert m.c_unit.check_dsquared()
        assert m.epi.check_dsquared()


def test_projected_counts_match_enumeration():
    A = ia.cyclic_group_algebra(2, QQ)
    F = BarFunctor(A)
    view = cx.BarFunctorView(F)
    cat = cx.DeltaHCategory()
    policy = cx.TruncationPolicy(1, 1)
    projected = cx.projected_generator_counts(cat, view, policy)
    C = cx.build_gz_complex(cat, view, policy)
    assert projected == C.dims == [6, 140, 3544]


def test_resource_cap():
    A = ia.cyclic_group_algebra(2, QQ)
    with pytest.raises(cx.ResourceCapExceeded) as exc:
        cx.build_full_complex(A, cx.TruncationPolicy(2, 2), max_generators=10_000)
    assert exc.value.projected > 10_000
    assert exc.value.cap == 10_000


def test_nerve_variant_certificate_and_iso():
    A = ia.cyclic_group_algebra(2, QQ)
    F = cx.BarFunctorView(BarFunctor(A))
    policy = cx.TruncationPolicy(1, 1)
    nerve, cert = cx.build_nerve_variant(cx.DeltaHCategory(), F, policy)
    assert cert.ok and cert.pairs_checked == 956
    gz = cx.build_gz_complex(cx.DeltaHCategory(), F, policy)
    iso = cx.gz_nerve_iso(nerve, gz)
    assert iso.commutes_with_boundaries()
    assert homology_over_field(nerve).betti == homology_over_field(gz).betti


def test_one_wrong_functor_entry_fails_the_relation_certificate():
    # column x of F(g o alpha) is checked against F(g) applied to column x
    # of F(alpha), pair by pair, so one entry changed in one matrix fails
    A = ia.cyclic_group_algebra(2, QQ)
    table = cx.MorphismTable(cx.DeltaHCategory(), [0, 1])
    assert cx.relation_certificate(table, cx.BarFunctorView(
        BarFunctor(A))).ok
    wrong = table[max(table.hom[1, 1])]

    class OneEntryOff(cx.BarFunctorView):
        def matrix(self, f):
            M = super().matrix(f)
            if f != wrong:
                return M
            cols = columns(M)
            r, v = next(iter(cols[0].items()))
            cols[0][r] = v + 1 or 1
            return SparseMatrix(M.ring, M.nrows, M.ncols, cols)

    cert = cx.relation_certificate(table, OneEntryOff(BarFunctor(A)))
    assert cert.pairs_checked == 956
    assert 0 < cert.pairs_failed < cert.pairs_checked


def test_degree_zero_classes_collapse():
    # [f (x) x] and [id (x) F(f) x] agree in the quotient; in normal
    # coordinates this is the retraction applied to a flip morphism
    A = ia.adapt_basis_to_augmentation(ia.cyclic_group_algebra(3, QQ))
    F = BarFunctor(A)
    t0 = cc.hyp_to_ifas(cc.hyp_t(0, 0))
    col = F.evaluate(t0).column(1)
    # the class of (t0 (x) i1) equals (id (x) involution(i1)) = (id (x) i2)
    assert col == {2: QQ.one()}


def test_split_dimensions_and_blocks():
    m = machinery(3)
    nerve, ci, ck = m.nerve, m.c_ideal, m.c_unit
    for n in range(3):
        assert ci.dimension(n) + ck.dimension(n) == nerve.dimension(n)
    # one unit-summand generator per string
    assert ck.dims == [len(s) for s in nerve.strings]
    # block structure is genuinely diagonal in the nerve boundary
    for n in (1, 2):
        M = nerve.boundary(n)
        assert supported_in_rows(M, m.ci_index[n - 1], m.ci_index[n])


def test_ideal_summand_dimension_formula():
    # independent count: strings weighted by (monomorphisms into the source)
    # x (ideal tuples at the monomorphism's source)
    m = machinery(2)
    d = m.algebra.dim
    for n in range(2):
        total = 0
        for (src, _) in m.nerve.strings[n]:
            by_monos = 0
            for x in range(src + 1):
                monos = len(cc.enumerate_delta(x, src, "mono"))
                by_monos += monos * (d - 1) ** (x + 1)
            total += by_monos
        assert total == m.c_ideal.dimension(n)
    assert m.c_ideal.dims[:2] == [4, 102]


def test_ground_ring_has_zero_ideal_complex():
    G = ia.ground_ring_algebra(QQ)
    m = cx.ReducedMachinery(G, cx.TruncationPolicy(1, 1))
    assert m.c_ideal.dims == [0, 0, 0]
    assert m.c_unit.dims == [2, 38, 956]
    epi = cx.build_epi_complex(G, cx.TruncationPolicy(1, 1))
    assert epi.dims == [0, 0, 0]
    assert homology_over_field(epi).betti == [0, 0]


def test_epi_complex_degree_one_counts():
    # strings of one epimorphism at N = 1, tensored with ideal tuples; the
    # reported counts are the standard complex's, and the normalized
    # complex it eliminates has no string of one identity
    A = ia.cyclic_group_algebra(3, QQ)
    epi = cx.build_epi_complex(A, cx.TruncationPolicy(1, 1))
    d = 3
    expected = (len(cc.enumerate_hom(0, 0, "epi")) * (d - 1)
                + len(cc.enumerate_hom(1, 0, "epi")) * (d - 1) ** 2
                + len(cc.enumerate_hom(1, 1, "epi")) * (d - 1) ** 2)
    assert len(cc.enumerate_hom(1, 1, "epi")) == 8
    assert epi.generator_counts()[1] == expected == 2 * 2 + 8 * 4 + 8 * 4
    assert epi.dims[1] == 1 * 2 + 8 * 4 + 7 * 4


def test_epimorphism_construction_basics():
    rng = random.Random(3)
    # epimorphisms are fixed
    for _ in range(50):
        a = rng.randrange(3)
        b = rng.randrange(a + 1)
        e = cc.random_ifas(rng, a, b, "epi")
        assert cc.factorize_ifas(e)[1] == e
    # an injection collapses to the identity of its source
    d1 = cc.delta_to_ifas(cc.delta_face(0, 1))
    assert cc.factorize_ifas(d1)[1] == cc.ifas_identity(0)


def induced_epi_morphism(psi, under):
    """The unique epimorphism completing the image-factorization square, an
    oracle of the epimorphism construction.

    ``under`` is an object of the under-category (a morphism out of the
    anchor object) and ``psi`` maps it to ``psi o under``; the induced
    morphism connects the epimorphism parts of the two objects."""
    mono, _ = cc.factorize_ifas(under)
    mono2, epi2 = cc.factorize_ifas(cc.ifas_compose(psi, mono))
    target_mono, _ = cc.factorize_ifas(cc.ifas_compose(psi, under))
    assert mono2 == target_mono, "image factorization square failed to close"
    return epi2


def test_epimorphism_construction_functorial():
    rng = random.Random(17)
    checked = 0
    while checked < 500:
        x = rng.randrange(3)
        z1 = rng.randrange(3)
        z2 = rng.randrange(3)
        z3 = rng.randrange(3)
        f0 = cc.random_ifas(rng, x, z1)
        psi1 = cc.random_ifas(rng, z1, z2)
        psi2 = cc.random_ifas(rng, z2, z3)
        lhs = induced_epi_morphism(cc.ifas_compose(psi2, psi1), f0)
        step1 = induced_epi_morphism(psi1, f0)
        step2 = induced_epi_morphism(psi2, cc.ifas_compose(psi1, f0))
        assert lhs == cc.ifas_compose(step2, step1)
        checked += 1


def test_chain_theorem_c2():
    m = machinery(2)
    res = m.verify_chain_theorem()
    assert all(v is True for k, v in res.items() if k != "homotopy_sign")
    assert res["homotopy_sign"] == 1


def test_chain_theorem_c3():
    m = machinery(3)
    res = m.verify_chain_theorem()
    assert all(v is True for k, v in res.items() if k != "homotopy_sign")


def test_chain_theorem_over_positive_characteristic():
    # the identities are ring independent; exercise the prime-field branch
    m = machinery(2, ring=GF(3))
    res = m.verify_chain_theorem()
    assert all(v is True for k, v in res.items() if k != "homotopy_sign")


def test_chain_theorem_over_the_integers():
    # all matrices are integral after the unimodular adaptation
    m = machinery(3, ring=ZZ)
    res = m.verify_chain_theorem()
    assert all(v is True for k, v in res.items() if k != "homotopy_sign")
    for M in m.c_ideal.boundaries.values():
        assert all(isinstance(v, int)
                   for col in columns(M) for v in col.values())


def test_chi_is_identity_on_epi_strings():
    m = machinery(3)
    chi, inc = m.chi(), m.inclusion()
    for n in range(3):
        prod = map_matrix(chi, n).matmul(map_matrix(inc, n))
        assert prod.equals(SparseMatrix.identity(QQ, m.epi.dimension(n)))


def test_betti_agreement_ci_vs_epi():
    for order in (2, 3):
        m = machinery(order)
        hi = homology_over_field(m.c_ideal)
        he = homology_over_field(m.epi)
        assert hi.betti == he.betti


def test_cycles_differ_from_projection_by_boundaries():
    # for sampled cycles z, z - inclusion(chi(z)) is certified a boundary by
    # the independent linear solver
    m = machinery(3)
    chi, inc = m.chi(), m.inclusion()
    for n in (0, 1):
        for z in field_kernel_sample(m.c_ideal, n, limit=8):
            image = map_matrix(inc, n).apply(map_matrix(chi, n).apply(z))
            diff = dict(z)
            for k, v in image.items():
                cur = diff.get(k, QQ.zero())
                s = QQ.sub(cur, v)
                if QQ.is_zero(s):
                    diff.pop(k, None)
                else:
                    diff[k] = s
            witness = solve_is_boundary(m.c_ideal, n, diff)
            assert witness.is_boundary


def test_unit_summand_contraction():
    m = machinery(2)
    h, identities = m.unit_summand_contraction()
    assert identities[0] is True
    # the contraction raises degrees within the truncation: an index map
    # from every generator of degree 0 into degree 1
    assert len(h[0]) == m.c_unit.dimension(0)
    assert all(0 <= k < m.c_unit.dimension(1) for k in h[0])
    hk = homology_over_field(m.c_unit)
    assert hk.betti == [1, 0]


def test_zero_anchored_contraction_exact():
    out = cx.zero_anchored_contraction(cx.TruncationPolicy(1, 1), QQ)
    assert out["ok"]
    assert all(out["identities"].values())


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(2), GF(3)], ids=str)
@pytest.mark.parametrize("N,D", [(0, 2), (1, 1), (1, 2)])
def test_zero_anchored_complex_matches_the_string_oracle(N, D, ring):
    # generator offsets[n][si] + k is the string (id of g_k,) + ids, g_k
    # the k-th morphism of Hom(0, src) for the degree-n string (src, ids)
    policy = cx.TruncationPolicy(N, D)
    cpx = cx.zero_anchored_complex(policy, ring)
    oracle = zero_anchored_by_strings(policy, ring)
    hom = cpx.morphisms.hom
    to_old = [[oracle["index"][n][(g,) + ids]
               for src, ids in cpx.strings[n] for g in hom[0, src]]
              for n in range(D + 2)]
    assert cpx.dims == oracle["dims"]
    for n in range(1, D + 2):
        rows, old = to_old[n - 1], columns(oracle["boundaries"][n])
        for j, col in enumerate(columns(cpx.boundary(n))):
            assert {rows[r]: v for r, v in col.items()} == old[to_old[n][j]]
    out = cx.zero_anchored_contraction(policy, ring)
    assert out["dims"] == oracle["dims"]
    assert out["identities"] == oracle["identities"]
    assert out["ok"] and all(oracle["identities"].values())


def test_the_zero_anchored_cap_is_checked_per_degree_before_enumeration():
    with pytest.raises(cx.ResourceCapExceeded) as err:
        cx.zero_anchored_contraction(cx.TruncationPolicy(1, 1), QQ,
                                     max_generators=1000)
    exc = err.value
    assert (exc.label, exc.degree, exc.projected) == ("zero-anchored", 2, 3544)


# -- index-map checks, each shown to fail on a wrong map ----------------------

def test_moving_one_chi_image_fails_chi_chain_map():
    m = machinery(3)
    images, cols = m.chi().images[1], columns(m.epi.boundary(1))
    images[0] = next(k for k, col in enumerate(cols) if col != cols[images[0]])
    res = m.verify_chain_theorem()
    assert res["chi_chain_map"] is False
    assert res["inclusion_chain_map"] is True


def test_moving_one_inclusion_image_fails_the_retraction():
    m = machinery(3)
    images = m.inclusion().images[1]
    images[0] = images[1]
    res = m.verify_chain_theorem()
    assert res["chi_after_inclusion_is_identity"] is False
    assert res["chi_chain_map"] is True


def test_a_negated_homotopy_fails_the_homotopy_identity():
    # degree 0 fixes the sign, so negating the homotopy above it is wrong
    m = machinery(2)
    h = m.homotopy()
    h[1] = neg(h[1])
    res = m.verify_chain_theorem()
    assert res["homotopy_identity"] is False
    assert res["homotopy_sign"] == 1


def test_a_wrong_degeneracy_fails_the_zero_anchored_contraction(monkeypatch):
    # the extra degeneracy prepends the sign flip of [0], not its identity
    flip = cc.hyp_to_ifas(cc.hyp_t(0, 0))
    identity = cx.ifas_identity
    monkeypatch.setattr(cx, "ifas_identity",
                        lambda n: flip if n == 0 else identity(n))
    out = cx.zero_anchored_contraction(cx.TruncationPolicy(1, 1), QQ)
    assert out["ok"] is False


def test_an_entry_across_the_summands_breaks_the_split():
    m = machinery(2)
    # a unit generator's boundary column gains an ideal row
    d1 = m.nerve.boundary(1)
    cols = columns(d1)
    col = cols[m.nerve.offsets[1][0]]
    col[m.ci_index[0][0]] = QQ.one()
    m.nerve.boundaries[1] = SparseMatrix(QQ, d1.nrows, d1.ncols, cols)
    with pytest.raises(cx.ComplexError, match="splitting"):
        m._split()


def _index_map(source, target, images):
    return cx.ChainMap(source, target, images, label="test map")


def _product_oracle(f):
    """d_t M == M d_s on the matrices of the map, by sparse products."""
    return all(f.target.boundary(n).matmul(map_matrix(f, n)).equals(
        map_matrix(f, n - 1).matmul(f.source.boundary(n))) for n in (1, 2))


def _complex(ring, dims, d1, d2):
    return cx.TruncatedComplex(ring, cx.TruncationPolicy(0, 1), dims, {
        1: SparseMatrix(ring, dims[0], dims[1], d1),
        2: SparseMatrix(ring, dims[1], dims[2], d2)})


INDEX_MAP_RINGS = [QQ, ZZ, GF(3), GF(2147483647)]


def _scalars(ring):
    p = ring.characteristic
    if p:
        return st.integers(1, p - 1)
    ints = st.integers(-3, 3).filter(bool)
    if ring == ZZ:
        return ints
    return st.one_of(ints, st.fractions(-3, 3, max_denominator=4).filter(
        lambda q: q.denominator > 1))


@st.composite
def index_map_cases(draw):
    """A random map of small complexes that sends each generator to one
    generator, not injective in general.  Most source columns lift their
    target column: each entry goes to a row over its target row, or is split
    in two there, and a pair v, -v may land on one target row and cancel."""
    ring = draw(st.sampled_from(INDEX_MAP_RINGS))
    scalar = _scalars(ring)
    tdims = [draw(st.integers(1, 3)) for _ in range(3)]
    sdims = [draw(st.integers(1, 5)) for _ in range(3)]
    images = {n: draw(st.lists(st.integers(0, tdims[n] - 1),
                               min_size=sdims[n], max_size=sdims[n]))
              for n in range(3)}
    tcols = {n: [draw(st.dictionaries(st.integers(0, tdims[n - 1] - 1),
                                      scalar, max_size=3))
                 for _ in range(tdims[n])] for n in (1, 2)}
    scols = {}
    for n in (1, 2):
        over = {}
        for r, t in enumerate(images[n - 1]):
            over.setdefault(t, []).append(r)
        scols[n] = []
        for j in range(sdims[n]):
            if not draw(st.integers(0, 3)):
                scols[n].append(draw(st.dictionaries(
                    st.integers(0, sdims[n - 1] - 1), scalar, max_size=4)))
                continue
            col = {}
            for t, v in tcols[n][images[n][j]].items():
                rows = draw(st.permutations(over.get(t, [])))
                if len(rows) >= 2 and draw(st.booleans()):
                    a = draw(scalar)
                    b = ring.sub(v, a)
                    col[rows[0]] = a
                    if b:
                        col[rows[1]] = b
                elif rows:
                    col[rows[0]] = v
            pairs = [rs for rs in over.values()
                     if len([r for r in rs if r not in col]) >= 2]
            if pairs and draw(st.booleans()):
                r1, r2 = [r for r in draw(st.sampled_from(pairs))
                          if r not in col][:2]
                v = draw(scalar)
                col[r1], col[r2] = v, ring.neg(v)
            scols[n].append(col)
    source = _complex(ring, sdims, scols[1], scols[2])
    target = _complex(ring, tdims, tcols[1], tcols[2])
    return _index_map(source, target, images)


@settings(max_examples=300, deadline=None)
@given(index_map_cases())
def test_index_map_check_agrees_with_the_product_oracle(f):
    assert f.commutes_with_boundaries() == _product_oracle(f)


@pytest.mark.parametrize("ring", INDEX_MAP_RINGS, ids=str)
def test_index_map_collisions_that_cancel(ring):
    # source rows 0 and 1 both land on target row 0: v and -v cancel in
    # d_1's column 0, and over Q two halves add up to the integer 1
    v = 2 if ring.characteristic else Fraction(1, 2)
    half = Fraction(1, 2) if ring == QQ else 1
    one = 1 if ring == QQ else ring.add(half, half)
    source = _complex(ring, [2, 2, 1], [{0: v, 1: ring.neg(v)},
                                        {0: half, 1: half}], [{}])
    images = {0: [0, 0], 1: [0, 1], 2: [0]}
    for tcol, ok in (({}, True), ({0: 1}, False)):
        target = _complex(ring, [1, 2, 1], [tcol, {0: one}], [{}])
        f = _index_map(source, target, images)
        assert f.commutes_with_boundaries() is ok is _product_oracle(f)
    wrong = _complex(ring, [1, 2, 1], [{}, {}], [{}])
    f = _index_map(source, wrong, images)
    assert f.commutes_with_boundaries() is False is _product_oracle(f)


def test_extended_complex_agrees_with_full():
    A = ia.cyclic_group_algebra(2, QQ)
    policy = cx.TruncationPolicy(1, 1)
    full = cx.build_full_complex(A, policy)
    ext = cx.build_extended_complex(A, policy)
    assert ext.dims == [d + e for d, e in zip(full.dims, [1, 3, 41])]
    assert homology_over_field(full).betti == homology_over_field(ext).betti


def test_tensor_with_ground_ring_is_the_same_complex():
    A = ia.cyclic_group_algebra(3, ZZ)
    C = cx.build_epi_complex(A, cx.TruncationPolicy(1, 0))
    tens = cx.tensor_with_coefficients(C, cx.CoefficientModule(1))
    assert tens.components == [(1, C)]
    with pytest.raises(cx.ComplexError):
        cx.tensor_with_coefficients(C, cx.CoefficientModule(0, ()))


def test_mod_p_reduction_requires_integer_complex():
    A = ia.cyclic_group_algebra(3, QQ)
    C = cx.build_epi_complex(A, cx.TruncationPolicy(1, 0))
    with pytest.raises(cx.ComplexError):
        cx.tensor_with_coefficients(C, cx.CoefficientModule(0, (2,)))


def group_table(tag):
    """The multiplication table of a builtin group algebra's basis, read
    from the structure constants; element 0 is the identity."""
    A = ia.builtin_algebra(tag, QQ)
    assert A.unit[0] == 1
    return [[next(k for k, c in enumerate(v) if c) for v in plane]
            for plane in A.structure]


def characters(table):
    """Every homomorphism of the group to {1, -1}, as a list of signs."""
    n = len(table)
    return [chi for chi in itertools.product((1, -1), repeat=n)
            if all(chi[table[i][j]] == chi[i] * chi[j]
                   for i in range(n) for j in range(n))]


def twisted_spec(table, chi, rows):
    """JSON spec, with no augmentation, of the group algebra with involution
    g -> chi(g) g^-1, on the basis whose vectors have the integer
    coordinates ``rows`` over the group elements (a unimodular matrix)."""
    n = len(table)
    inverse = [table[i].index(0) for i in range(n)]
    R = ia._invert_matrix(ZZ, [list(c) for c in zip(*rows)])

    def coords(v):
        return [sum(r * x for r, x in zip(row, v)) for row in R]

    def mul(a, b):
        out = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[table[i][j]] += x * y
        return out

    def star(a):
        out = [0] * n
        for i, x in enumerate(a):
            out[inverse[i]] += chi[i] * x
        return out

    return {"dim": n,
            "structure": [[i, j, k, c, 1] for i, a in enumerate(rows)
                          for j, b in enumerate(rows)
                          for k, c in enumerate(coords(mul(a, b))) if c],
            "unit": coords([1] + [0] * (n - 1)),
            "involution": [coords(star(a)) for a in rows]}


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_twisted_involutions_in_random_bases(data):
    # g -> chi(g) g^-1 is an anti-involution for every character chi to
    # {1, -1}; in a random unimodular basis (row i += c row j, or row i
    # negated for i = j; row 0, the unit, is never changed) the full
    # complex over Q is a chain complex, its tensor relations are killed,
    # and its Betti numbers are those of the group basis
    tag = data.draw(st.sampled_from(["c2", "c3", "c4", "klein", "s3"]))
    table = group_table(tag)
    n = len(table)
    chi = data.draw(st.sampled_from(characters(table)))
    ops = data.draw(st.lists(st.tuples(
        st.integers(1, n - 1), st.integers(0, n - 1),
        st.sampled_from([-2, -1, 1, 2])), min_size=1, max_size=6))
    group_basis = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = list(group_basis)
    for i, j, c in ops:
        rows[i] = [-a for a in rows[i]] if i == j else \
            [a + c * b for a, b in zip(rows[i], rows[j])]
    policy = cx.TruncationPolicy(1, 1)
    betti = []
    for basis in (rows, group_basis):
        A = algebra_from_spec(twisted_spec(table, chi, basis), QQ)
        C = cx.build_full_complex(A, policy)
        assert C.check_dsquared()
        assert cx.relation_certificate(C.morphisms, C.functor).ok
        betti.append(homology_over_field(C).betti)
    assert betti[0] == betti[1]
