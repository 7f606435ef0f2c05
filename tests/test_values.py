import os
import pickle
import subprocess
import sys

import pytest

from hyperoct import cli, croscat as cc, homology as hm, invalg as ia
from hyperoct import complexes as cx, slominska as sl
from hyperoct.rings import QQ


def small_complex():
    return cx.build_full_complex(ia.ground_ring_algebra(QQ),
                                 cx.TruncationPolicy(0, 0))


def test_value_types_reject_invalid_input():
    with pytest.raises(cc.CategoryError):
        # point 1 of the source lies in no fiber
        cc.IFasMorphism(1, 0, (((0, 0),),))
    with pytest.raises(cc.CategoryError):
        cc.IFasMorphism(1, 1, (((0, 0), (1, 0)), ((1, 1),)))
    with pytest.raises(cx.ComplexError):
        cx.CoefficientModule(0, (4,))
    C = small_complex()
    assert C.dims == [1, 2]
    with pytest.raises(cx.ComplexError, match="images do not fit"):
        cx.ChainMap(C, C, {0: [0], 1: [0]})
    with pytest.raises(hm.HomologyError):
        hm.HomologyResult("Q", [1, -1])
    with pytest.raises(cli.SpecError, match="unknown pipeline"):
        cli.JobSpec("c2", "q", "bar", [1], 1)


def test_the_trusted_constructor_builds_equal_morphisms():
    for f in cc.enumerate_hom(1, 1):
        g = cc._make_ifas(*f)
        assert type(g) is cc.IFasMorphism
        assert g == f and hash(g) == hash(f)


def test_value_types_survive_pickling():
    C = small_complex()
    g = cc.hyp_t(1, 0)
    phi = cc.delta_face(0, 1)
    values = [
        g, phi, cc.DeltaHMorphism(phi, cc.hyp_identity(0)),
        cc.ifas_identity(2), cx.TruncationPolicy(1, 2),
        cx.RelationCertificate(956, 0),
        cx.ChainMap(C, C, {0: [0], 1: [0, 1]}, label="identity"),
        cx.CoefficientModule(1, (2, 3)),
        cx.TensoredComplex(C, cx.CoefficientModule(1), [(1, C)]),
        hm.HomologyResult("Z", [1, 0], [[], [2]], {"d1": {"cols": 2}}),
        hm.ColumnStream(1, (), {"cols": 2}, (0,)),
        sl.PosetMorphism((0, 1), (1,)),
        cli.JobSpec("c2", "z", "epi", [1], 2, coefficients="z/2"),
    ]
    for value in values:
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert repr(back) == repr(value)


def test_homology_results_compare_without_their_rank_stats():
    a = hm.HomologyResult("Q", [1, 0], rank_stats={"d1": {"cols": 1}})
    b = hm.HomologyResult("Q", [1, 0], [], {"d1": {"cols": 7}})
    assert a == b and not a != b
    assert a != hm.HomologyResult("Q", [1, 1])
    assert a.torsion == [] and hm.HomologyResult("Q", [0]).rank_stats == {}


def test_importing_the_cli_loads_no_dataclasses_typing_or_inspect():
    # -S keeps a site .pth file from importing any of them first
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys, hyperoct.cli; print(*sorted(m for m in "
            "('dataclasses', 'typing', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
