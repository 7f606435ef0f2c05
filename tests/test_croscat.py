import itertools
import random

import pytest

from hyperoct import croscat as cc
from oracles import hyp_enumerate, hyp_inverse


def deltah_identity(n):
    return cc.DeltaHMorphism(cc.delta_identity(n), cc.hyp_identity(n))


def object_sum(n, m):
    """Disjoint union of objects; the empty object (-1) is the unit."""
    return n + m + 1


def monoidal_product(f, h):
    """Block disjoint union of morphisms in the extended category."""
    shift_src = f.source + 1
    fibers = list(f.preimages)
    fibers.extend(tuple((p + shift_src, lab) for p, lab in fiber)
                  for fiber in h.preimages)
    return cc.IFasMorphism(object_sum(f.source, h.source),
                           object_sum(f.target, h.target), tuple(fibers))


def monoidal_symmetry(n, m):
    """Block transposition [n] + [m] -> [m] + [n], all labels trivial."""
    total = object_sum(n, m)
    if total == cc.EMPTY_OBJECT:
        return cc.IFasMorphism(cc.EMPTY_OBJECT, cc.EMPTY_OBJECT, ())
    fibers = [((j + n + 1, 0),) if j <= m else ((j - m - 1, 0),)
              for j in range(total + 1)]
    return cc.IFasMorphism(total, total, tuple(fibers))


def test_theta_t_relation_in_h2():
    # theta_0 t_1 = t_0 theta_0 on two letters
    lhs = cc.hyp_compose(cc.hyp_theta(1, 0), cc.hyp_t(1, 1))
    rhs = cc.hyp_compose(cc.hyp_t(1, 0), cc.hyp_theta(1, 0))
    assert lhs == rhs


def test_identity_neutral_on_random_elements():
    rng = random.Random(0)
    elems = list(hyp_enumerate(3))
    ident = cc.hyp_identity(3)
    for _ in range(20):
        a = rng.choice(elems)
        assert cc.hyp_compose(ident, a) == a
        assert cc.hyp_compose(a, ident) == a
        assert cc.hyp_compose(a, hyp_inverse(a)) == ident


def test_generator_closure_has_group_order():
    gens = [cc.hyp_t(1, 0), cc.hyp_t(1, 1), cc.hyp_theta(1, 0)]
    assert len(cc.hyp_closure(gens)) == 8 == cc.hyp_group_order(1)


def test_size_mismatch_rejected():
    with pytest.raises(cc.CategoryError):
        cc.hyp_compose(cc.hyp_identity(1), cc.hyp_identity(2))


def test_object_mismatch_rejected_in_both_presentations():
    with pytest.raises(cc.CategoryError):
        cc.ifas_compose(cc.ifas_identity(2), cc.ifas_identity(1))
    with pytest.raises(cc.CategoryError):
        cc.deltah_compose(deltah_identity(2), deltah_identity(1))


def test_star_relation_sigma0_t0():
    # passing t_0 backwards through sigma_0 produces theta_0 t_1 t_0
    f2 = cc.DeltaHMorphism(cc.delta_identity(0), cc.hyp_t(0, 0))
    f1 = cc.DeltaHMorphism(cc.delta_degeneracy(0, 0), cc.hyp_identity(1))
    res = cc.deltah_compose(f2, f1)
    want = cc.hyp_compose(cc.hyp_theta(1, 0),
                          cc.hyp_compose(cc.hyp_t(1, 1), cc.hyp_t(1, 0)))
    assert res.phi == cc.delta_degeneracy(0, 0)
    assert res.g == want


def test_pair_composition_trivial_cases():
    f2 = cc.DeltaHMorphism(cc.delta_degeneracy(0, 0), cc.hyp_identity(1))
    f1 = cc.DeltaHMorphism(cc.delta_identity(1), cc.hyp_t(1, 0))
    res = cc.deltah_compose(f2, f1)
    assert res == cc.DeltaHMorphism(cc.delta_degeneracy(0, 0), cc.hyp_t(1, 0))
    for i in (0, 1):
        face = cc.DeltaHMorphism(cc.delta_face(0, i), cc.hyp_identity(0))
        assert cc.deltah_compose(face, deltah_identity(0)) == face


def test_ifas_composition_example():
    sig0 = cc.delta_to_ifas(cc.delta_degeneracy(0, 0))
    t0 = cc.hyp_to_ifas(cc.hyp_t(1, 0))
    comp = cc.ifas_compose(sig0, t0)
    # the fiber over 0 is 0 with the flip label, then 1 plain
    assert comp.preimages == (((0, 1), (1, 0)),)
    ident = cc.ifas_identity(1)
    assert cc.ifas_compose(comp, ident) == comp
    assert cc.ifas_compose(cc.ifas_identity(0), comp) == comp


def test_ifas_associativity_brute_force():
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c, d = (rng.randrange(4) for _ in range(4))
        f = cc.random_ifas(rng, c, d)
        g = cc.random_ifas(rng, b, c)
        h = cc.random_ifas(rng, a, b)
        assert cc.ifas_compose(cc.ifas_compose(f, g), h) == \
            cc.ifas_compose(f, cc.ifas_compose(g, h))


def test_label_flip():
    assert cc.label_flip(((0, 0), (1, 1))) == ((1, 0), (0, 1))
    assert cc.label_flip(()) == ()
    rng = random.Random(5)
    for _ in range(100):
        f = cc.random_ifas(rng, 3, 1)
        for fiber in f.preimages:
            assert cc.label_flip(cc.label_flip(fiber)) == fiber


def test_pair_to_ifas_of_order_preserving_map():
    phi = cc.DeltaMorphism(2, 1, (0, 0, 1))
    f = cc.pair_to_ifas(cc.DeltaHMorphism(phi, cc.hyp_identity(2)))
    # canonical ascending fibers, all labels trivial
    assert f.preimages == (((0, 0), (1, 0)), ((2, 0),))


def test_roundtrip_on_hom_1_0():
    homs = cc.enumerate_hom(1, 0)
    assert len(homs) == 8
    for f in homs:
        assert cc.pair_to_ifas(cc.ifas_to_pair(f)) == f
    pairs = {cc.ifas_to_pair(f) for f in homs}
    assert len(pairs) == 8


def test_iso_preserves_composition():
    rng = random.Random(23)
    for _ in range(1000):
        a, b, c = (rng.randrange(4) for _ in range(3))
        f1 = cc.random_ifas(rng, a, b)
        f2 = cc.random_ifas(rng, b, c)
        via_tables = cc.deltah_compose(cc.ifas_to_pair(f2), cc.ifas_to_pair(f1))
        assert cc.pair_to_ifas(via_tables) == cc.ifas_compose(f2, f1)


def test_enumeration_counts():
    assert len(cc.enumerate_hom(1, 0)) == 8
    assert len(cc.enumerate_hom(0, 1, "epi")) == 0
    assert len(cc.enumerate_hom(1, 1)) == 24
    # counts match (order-preserving maps) x (group order), with the first
    # factor counted by brute force over all maps
    import itertools
    for a in range(3):
        for b in range(3):
            monotone = sum(
                1 for vals in itertools.product(range(b + 1), repeat=a + 1)
                if all(vals[i] <= vals[i + 1] for i in range(a)))
            assert len(cc.enumerate_hom(a, b)) == \
                monotone * cc.hyp_group_order(a) == cc.hom_size(a, b)


def test_hom_size_closed_forms_match_enumeration():
    for variant in ("all", "epi"):
        for a in range(4):
            for b in range(4):
                assert cc.hom_size(a, b, variant) == \
                    len(cc.enumerate_hom(a, b, variant))
    assert cc.hom_size(1, 2, "epi") == 0
    with pytest.raises(cc.CategoryError):
        cc.hom_size(1, 1, "mono")


def test_enumeration_is_deterministic_and_duplicate_free():
    homs = cc.enumerate_hom(2, 1)
    assert len(set(homs)) == len(homs)
    again = cc.enumerate_hom(2, 1)
    assert homs == again


def test_epi_mono_factorization_examples():
    # an injection factors through itself
    f = cc.DeltaHMorphism(cc.delta_face(0, 1), cc.hyp_identity(0))
    mono, epi = cc.epi_mono_factorize(f)
    assert mono == cc.delta_face(0, 1)
    assert epi == deltah_identity(0)
    # a surjection factors through the identity
    g = cc.DeltaHMorphism(cc.delta_degeneracy(1, 0), cc.hyp_t(2, 1))
    mono, epi = cc.epi_mono_factorize(g)
    assert mono == cc.delta_identity(1)
    assert epi == g


def test_factorize_ifas_matches_the_pair_route():
    # the former construction, through a delta morphism and the pair
    # presentation, is the oracle for the direct one
    for n in range(3):
        for m in range(3):
            for f in cc.enumerate_hom(n, m):
                nonempty = [i for i, fiber in enumerate(f.preimages) if fiber]
                epi = cc.IFasMorphism(f.source, len(nonempty) - 1,
                                      tuple(f.preimages[i] for i in nonempty))
                mono = cc.delta_to_ifas(cc.DeltaMorphism(
                    len(nonempty) - 1, f.target, tuple(nonempty)))
                assert cc.factorize_ifas(f) == (mono, epi)
                assert cc.ifas_compose(mono, epi) == f
    for m in range(4):
        for r in range(m + 1):
            for positions in itertools.combinations(range(m + 1), r + 1):
                assert cc.ifas_injection(positions, m) == cc.delta_to_ifas(
                    cc.DeltaMorphism(r, m, positions))


def test_epi_mono_uniqueness_random():
    # recomposition and uniqueness against exhaustive search over
    # factorizations at the image rank (other ranks cannot compose back)
    rng = random.Random(3)
    for _ in range(25):
        f = cc.random_ifas(rng, 3, 2)
        mono, epi = cc.factorize_ifas(f)
        assert cc.ifas_compose(mono, epi) == f
        r = mono.source
        count = 0
        for m in cc.enumerate_delta(r, 2, "mono"):
            m_ifas = cc.delta_to_ifas(m)
            for e in cc.enumerate_hom(3, r, "epi"):
                if cc.ifas_compose(m_ifas, e) == f:
                    count += 1
        assert count == 1


def test_monoidal_unit_and_associativity():
    rng = random.Random(7)
    empty_id = cc.IFasMorphism(cc.EMPTY_OBJECT, cc.EMPTY_OBJECT, ())
    for _ in range(200):
        f = cc.random_ifas(rng, rng.randrange(3), rng.randrange(3))
        assert monoidal_product(f, empty_id) == f
        assert monoidal_product(empty_id, f) == f
        g = cc.random_ifas(rng, rng.randrange(3), rng.randrange(3))
        h = cc.random_ifas(rng, rng.randrange(3), rng.randrange(3))
        lhs = monoidal_product(monoidal_product(f, g), h)
        rhs = monoidal_product(f, monoidal_product(g, h))
        assert lhs == rhs


def test_monoidal_symmetry_naturality():
    rng = random.Random(9)
    for _ in range(200):
        n, n1 = rng.randrange(3), rng.randrange(3)
        m, m1 = rng.randrange(3), rng.randrange(3)
        f = cc.random_ifas(rng, n, n1)
        h = cc.random_ifas(rng, m, m1)
        lhs = cc.ifas_compose(monoidal_symmetry(n1, m1),
                              monoidal_product(f, h))
        rhs = cc.ifas_compose(monoidal_product(h, f),
                              monoidal_symmetry(n, m))
        assert lhs == rhs
        # the block swap composes with its partner to the identity
        back = cc.ifas_compose(monoidal_symmetry(m, n),
                               monoidal_symmetry(n, m))
        assert back == cc.ifas_identity(n + m + 1)


def test_object_sum_with_unit():
    assert object_sum(1, 2) == 4
    assert object_sum(cc.EMPTY_OBJECT, 3) == 3


def test_extended_hom_sets():
    assert cc.extended_hom(cc.EMPTY_OBJECT, 2) == [cc.initial_morphism(2)]
    assert cc.extended_hom(1, cc.EMPTY_OBJECT) == []
    assert len(cc.extended_hom(cc.EMPTY_OBJECT, cc.EMPTY_OBJECT)) == 1
    assert cc.extended_hom_size(1, 1) == 24


def test_associativity_both_presentations_large_objects():
    # randomized composable triples with objects up to [3]
    rng = random.Random(42)
    for _ in range(10_000):
        a, b, c, d = (rng.randrange(4) for _ in range(4))
        f = cc.random_ifas(rng, c, d)
        g = cc.random_ifas(rng, b, c)
        h = cc.random_ifas(rng, a, b)
        left = cc.ifas_compose(cc.ifas_compose(f, g), h)
        right = cc.ifas_compose(f, cc.ifas_compose(g, h))
        assert left == right
        pf, pg, ph = (cc.ifas_to_pair(x) for x in (f, g, h))
        pl = cc.deltah_compose(cc.deltah_compose(pf, pg), ph)
        pr = cc.deltah_compose(pf, cc.deltah_compose(pg, ph))
        assert pl == pr
        assert cc.pair_to_ifas(pl) == left


def test_invariant_suite_depth_2_clean():
    results = cc.run_invariant_suite(depth=2, samples=500)
    for name, (checked, failed) in results.items():
        assert failed == 0, name
        assert checked > 0
