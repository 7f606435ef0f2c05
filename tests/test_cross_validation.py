"""Cross-pipeline consistency on algebras beyond the acceptance instances:
nilpotent products, noncommutative multiplication, bigger abelian groups."""
import pytest

from hyperoct.rings import QQ
from hyperoct import invalg as ia
from hyperoct import complexes as cx
from hyperoct.homology import homology_over_field
from hyperoct.slominska import slominska_complex


def dual_numbers():
    """1 and x with x^2 = 0, involution x -> -x, augmentation killing x.
    Not a group algebra: products can vanish."""
    one, zero = QQ.one(), QQ.zero()
    e = (one, zero)
    x = (zero, one)
    nil = (zero, zero)
    structure = [[e, x], [x, nil]]
    involution = [e, (zero, -one)]
    return ia.InvolutiveAlgebra(QQ, ("1", "x"), structure, e, involution,
                                (one, zero), name="dual")


def test_dual_numbers_validate_and_adapt():
    A = dual_numbers()
    assert A.is_adapted()
    assert A.involve((QQ.zero(), QQ.one())) == (QQ.zero(), QQ.from_int(-1))


def test_dual_numbers_chain_theorem_and_agreement():
    A = dual_numbers()
    m = cx.ReducedMachinery(A, cx.TruncationPolicy(1, 1))
    res = m.verify_chain_theorem()
    assert all(v is True for k, v in res.items() if k != "homotopy_sign")
    hi = homology_over_field(m.c_ideal).betti
    he = homology_over_field(m.epi).betti
    hs = homology_over_field(
        slominska_complex(A, cx.TruncationPolicy(1, 1))).betti
    assert hi == he == hs


def test_mod_two_reduction_matches_independent_assembly():
    # reducing the integral complex mod two must reproduce, entry for entry,
    # the complex assembled from scratch over the two-element field
    from hyperoct.rings import ZZ, GF
    policy = cx.TruncationPolicy(1, 1)
    over_z = cx.build_epi_complex(ia.cyclic_group_algebra(3, ZZ), policy)
    reduced = cx.reduce_mod_p(over_z, 2)
    direct = cx.build_epi_complex(ia.cyclic_group_algebra(3, GF(2)), policy)
    assert reduced.dims == direct.dims
    for n in (1, 2):
        assert reduced.boundary(n).equals(direct.boundary(n))


def test_rational_betti_equals_integral_rank():
    from hyperoct.rings import ZZ, GF
    from hyperoct.homology import homology_over_Z
    policy = cx.TruncationPolicy(1, 1)
    over_z = cx.build_epi_complex(ia.cyclic_group_algebra(3, ZZ), policy)
    over_q = cx.build_epi_complex(ia.cyclic_group_algebra(3, QQ), policy)
    rz = homology_over_Z(over_z)
    rq = homology_over_field(over_q)
    assert rz.betti == rq.betti
    # residue-field dimensions dominate, with equality forced by the
    # coefficient sequence dimension count
    for p in (2, 3):
        reduced = cx.reduce_mod_p(over_z, p)
        rp = homology_over_field(reduced)
        for n in range(2):
            p_torsion_here = sum(1 for t in rz.torsion[n] if t % p == 0)
            p_torsion_below = 0 if n == 0 else sum(
                1 for t in rz.torsion[n - 1] if t % p == 0)
            assert rp.betti[n] == rz.betti[n] + p_torsion_here + p_torsion_below
            assert rp.betti[n] >= rq.betti[n]


@pytest.mark.parametrize("builtin", ["klein", "s3", "c4"])
def test_builtin_cross_validation(builtin):
    A = ia.builtin_algebra(builtin, QQ)
    policy = cx.TruncationPolicy(1, 1)
    m = cx.ReducedMachinery(A, policy)
    res = m.verify_chain_theorem()
    assert all(v is True for k, v in res.items() if k != "homotopy_sign")
    hi = homology_over_field(m.c_ideal).betti
    he = homology_over_field(m.epi).betti
    hs = homology_over_field(slominska_complex(A, policy)).betti
    assert hi == he == hs
    # the total recovers the unit summand's single extra class in degree 0
    hk = homology_over_field(m.c_unit).betti
    assert hk == [1, 0]
