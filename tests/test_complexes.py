import random

import pytest

from hyperoct.rings import QQ, ZZ, GF
from hyperoct import croscat as cc, invalg as ia
from hyperoct.barfun import BarFunctor
from hyperoct import complexes as cx
from hyperoct.homology import homology_over_field, solve_is_boundary, field_kernel_sample
from hyperoct.matrices import SparseMatrix


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
    cat = cx.DeltaHCategory()
    counts = []
    for n in range(3):
        counts.append(len(cx._strings_for_degree(cat, cx.TruncationPolicy(1, 1), n)))
    assert C.dims == counts == [2, 38, 956]
    # independent nerve boundary on a sample of strings
    rng = random.Random(0)
    strings = C.strings[2]
    for _ in range(50):
        si = rng.randrange(len(strings))
        src, (f1, f2) = strings[si]
        col = C.boundary(2).column(C.offsets[2][si])
        expected = {}
        for tgt, sgn in (((f1.target, (f2,)), 1),
                         ((src, (cc.ifas_compose(f2, f1),)), -1),
                         ((src, (f1,)), 1)):
            idx = C.offsets[1][C.string_index[1][tgt]]
            expected[idx] = expected.get(idx, 0) + sgn
        expected = {k: QQ.from_int(v) for k, v in expected.items() if v}
        assert col == expected


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
        ci_rows = [m._nerve_index(n - 1, si, t) for si, t in m.ci_gens[n - 1]]
        ci_cols = [m._nerve_index(n, si, t) for si, t in m.ci_gens[n]]
        assert M.restrict_rows_complement_is_zero(ci_rows, ci_cols)


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
    # strings of one epimorphism at N = 1, tensored with ideal tuples
    A = ia.cyclic_group_algebra(3, QQ)
    epi = cx.build_epi_complex(A, cx.TruncationPolicy(1, 1))
    d = 3
    expected = (len(cc.enumerate_hom(0, 0, "epi")) * (d - 1)
                + len(cc.enumerate_hom(1, 0, "epi")) * (d - 1) ** 2
                + len(cc.enumerate_hom(1, 1, "epi")) * (d - 1) ** 2)
    assert len(cc.enumerate_hom(1, 1, "epi")) == 8
    assert epi.dims[1] == expected == 2 * 2 + 8 * 4 + 8 * 4


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
        lhs = cx.induced_epi_morphism(cc.ifas_compose(psi2, psi1), f0)
        step1 = cx.induced_epi_morphism(psi1, f0)
        step2 = cx.induced_epi_morphism(psi2, cc.ifas_compose(psi1, f0))
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
        assert all(isinstance(v, int) for col in M.cols for v in col.values())


def test_chi_is_identity_on_epi_strings():
    m = machinery(3)
    chi, inc = m.chi(), m.inclusion()
    for n in range(3):
        prod = chi.matrix(n).matmul(inc.matrix(n))
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
            image = inc.matrix(n).apply(chi.matrix(n).apply(z))
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
    h, eps, eta, identities = m.unit_summand_contraction()
    assert identities[0] is True
    # the contraction raises degrees within the truncation
    assert h[0].nrows == m.c_unit.dimension(1)
    hk = homology_over_field(m.c_unit)
    assert hk.betti == [1, 0]


def test_zero_anchored_contraction_exact():
    out = cx.zero_anchored_contraction(cx.TruncationPolicy(1, 1), QQ)
    assert out["ok"]
    assert all(out["identities"].values())


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


def test_generator_labels_render():
    m = machinery(2)
    label = m.nerve.generator_label(1, 0)
    assert "->" in label and label.startswith("(")
    label0 = m.nerve.generator_label(0, 0)
    assert label0.startswith("([0]")
