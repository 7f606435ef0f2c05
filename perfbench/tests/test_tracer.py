"""Tests of the benchmark's tracer.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_tree():
    clock = FakeClock()
    t = Tracer(clock)
    t.job = 0
    root = t.open("cli.run", "cli")            # 0 .. 10
    clock.now = 1.0
    a = t.open("complexes.build", "complexes")  # 1 .. 6
    clock.now = 2.0
    b = t.open("barfun.evaluate", "barfun")     # 2 .. 3
    clock.now = 3.0
    t.close(b)
    clock.now = 4.0
    c = t.open("barfun.evaluate", "barfun")     # 4 .. 4.5
    clock.now = 4.5
    t.close(c)
    clock.now = 6.0
    t.close(a)
    clock.now = 7.0
    d = t.open("homology.rank", "homology")     # 7 .. 9
    clock.now = 9.0
    t.close(d)
    clock.now = 10.0
    t.close(root)

    st = t.self_times()
    assert st[root["id"]] == 10 - 5 - 2
    assert st[a["id"]] == 5 - 1 - 0.5
    assert st[b["id"]] == 1 and st[c["id"]] == 0.5 and st[d["id"]] == 2
    assert sum(st.values()) == 10
    assert layers.check_accounting(t) == 0
    # nested spans of one name group count once
    assert t.outermost_time({"complexes.build", "barfun.evaluate"}) == 5
    assert t.outermost_time({"barfun.evaluate"}) == 1.5


def test_overlapping_children_are_counted_once():
    t = Tracer(FakeClock())
    t.spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 5.0},
        {"id": 3, "parent": 0, "start": 8.0, "end": 12.0},
    ]
    assert t.self_times()[0] == 10 - 4 - 2


def test_tracing_keeps_reports_byte_identical():
    from hyperoct import cli, complexes, homology, slominska
    jobs = [cli.JobSpec("c2", "q", "reduced", [0, 1], 1, verify=True),
            cli.JobSpec("c2", "q", "slominska", [1], 1),
            cli.JobSpec("c2", "z", "epi", [1], 1, coefficients="z/2",
                        verify=True)]
    plain = [cli.canonical_report_text(cli.run(j)[0]) for j in jobs]
    originals = (cli.compute_homology, cli.uct_check,
                 complexes.factorize_ifas, slominska.build_gz_complex)
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        # names imported with "from ... import" are rebound too
        assert cli.compute_homology is homology.compute_homology
        assert cli.compute_homology is not originals[0]
        assert slominska.build_gz_complex is complexes.build_gz_complex
        traced = []
        for k, j in enumerate(jobs):
            tracer.job = k
            traced.append(cli.canonical_report_text(cli.run(j)[0]))
    finally:
        tracer.uninstall()
    assert (cli.compute_homology, cli.uct_check, complexes.factorize_ifas,
            slominska.build_gz_complex) == originals
    assert traced == plain
    names = {s["name"] for s in tracer.spans}
    assert {"cli.run", "homology.compute_homology", "homology.uct_check",
            "slominska.slominska_complex",
            "complexes.build_gz_complex"} <= names
    assert tracer.counts["croscat.factorize_calls"] > 0
    layers.check_accounting(tracer)
    m = layers.pass_metrics(tracer)
    assert m["homology.over_z_calls"] == 2   # compute_homology and uct_check
    assert m["slominska.complex_s"] > 0 and m["homology.snf_s"] > 0


def test_benchmark_json_lists_what_the_benchmark_reports():
    import json
    import run
    from workloads import WORKLOADS
    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
