import hashlib
import json
import os
from fractions import Fraction

import pytest

from hyperoct import cli, complexes, homology
from hyperoct.rings import QQ


def run_cli(args):
    return cli.main(args)


def test_builtin_job_full_pipeline(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["compute", "--algebra", "ground", "--ring", "q",
                    "--pipeline", "full", "--max-object", "0..1",
                    "--max-degree", "1", "--verify", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["betti"]["full"]["N=1"] == [1, 0]
    assert report["stabilization"]["degree 0"]["stable"]
    assert report["verifications"]["N=1/dsquared[full]"] == "pass"
    assert any("truncated" in f for f in report["flags"])


def test_reports_are_byte_stable(tmp_path):
    texts = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        code = run_cli(["compute", "--algebra", "c2", "--ring", "q",
                        "--pipeline", "epi", "--max-object", "1",
                        "--max-degree", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        texts.append(cli.canonical_report_text(report))
    assert texts[0] == texts[1]


# sha256 of the canonical report text, pinned so that a refactor which
# changes any report byte fails here rather than passing unnoticed
PINNED_REPORTS = {
    ("c3", "q", "full", None): "c2d068c7a09af23a9f07686164d438af"
                               "83f6c77a06e6d9f61f3102c90b9504cf",
    ("c3", "q", "nerve", None): "361938af28aee824dda5ea4523f90334"
                                "9bcbb92c0f5d415efa7cdb298ff0eaa6",
    ("c3", "q", "reduced", None): "c6fa3c339da57cb34723aad2cff5374c"
                                  "f315d57b8f748bba630beb7aea8ad6b2",
    ("c3", "q", "epi", None): "0add995c0ebec986c60cc8f367620f7a"
                              "f4efeff2866802055a29f83a71d083bc",
    ("c3", "q", "slominska", None): "9e0a20f77e433ae84d263e91c6b91a91"
                                    "aca551eb05be9c6be313b2d5d737e424",
    ("c3", "q", "extended", None): "28880c21c890cedf436de06d07dcad3c"
                                   "bd281046ebd07fccf0029351d8861761",
    ("klein", "z", "epi", "z/2"): "982d9e7f77e8fa6eb7001e68f4cce4a7"
                                  "f4b79bb09105fd01026d149a27bc3c38",
}


@pytest.mark.parametrize("job", PINNED_REPORTS,
                         ids=lambda job: "-".join(filter(None, job)))
def test_canonical_reports_match_their_pinned_hashes(job):
    algebra, ring, pipeline, coefficients = job
    ns = [1] if coefficients else [0, 1]
    report, code = cli.run(cli.JobSpec(algebra, ring, pipeline, ns, 1,
                                       coefficients=coefficients,
                                       verify=True))
    assert code == 0
    text = cli.canonical_report_text(report)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[job]


def test_reports_byte_stable_across_processes(tmp_path):
    # fresh interpreters with different hash seeds must produce the same
    # canonical bytes
    import subprocess
    import sys
    texts = []
    for seed in ("1", "42"):
        out = tmp_path / f"r_{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "hyperoct.cli", "compute", "--algebra",
             "c3", "--ring", "q", "--pipeline", "slominska", "--max-object",
             "0..1", "--max-degree", "1", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        texts.append(cli.canonical_report_text(report))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("algebra", ["c3", "klein"])
def test_rational_boundaries_hold_ints_outside_slominska(algebra, monkeypatch):
    # only the coinvariant complex divides (by group orders); everywhere
    # else the rationals of a group algebra stay on the int fast path
    seen = []
    real = cli.compute_homology
    monkeypatch.setattr(cli, "compute_homology",
                        lambda cpx: seen.append(cpx) or real(cpx))
    for pipeline in cli.PIPELINES:
        seen.clear()
        cli.run(cli.JobSpec(algebra, "q", pipeline, [1], 1))
        assert seen
        for cpx in seen:
            types = {type(v) for M in cpx.boundaries.values()
                     for col in M.cols for v in col.values()}
            assert types <= {int, Fraction}
            if pipeline != "slominska":
                assert types == {int}


def test_verify_certifies_each_dsquared_pair_once(monkeypatch):
    pairs = []
    real = homology.check_dsquared_pair

    def counting(d_prev, d_n, n):
        pairs.append((d_prev, d_n))
        return real(d_prev, d_n, n)

    monkeypatch.setattr(homology, "check_dsquared_pair", counting)
    monkeypatch.setattr(complexes, "check_dsquared_pair", counting)
    report, code = cli.run(cli.JobSpec("c3", "q", "reduced", [1], 1,
                                       verify=True))
    assert code == 0
    assert report["verifications"]["N=1/dsquared[ideal]"] == "pass"
    assert report["verifications"]["N=1/dsquared[unit]"] == "pass"
    # the pair (d1, d2) of the ideal and of the unit summand
    assert len(pairs) == 2
    assert len({(id(a), id(b)) for a, b in pairs}) == 2


def test_custom_algebra_spec(tmp_path):
    # the sign algebra: two-element group over the rationals
    spec = {
        "dim": 2,
        "basis": ["e", "s"],
        "structure": [
            [0, 0, 0, 1, 1], [0, 1, 1, 1, 1],
            [1, 0, 1, 1, 1], [1, 1, 0, 1, 1],
        ],
        "unit": [1, 0],
        "involution": [[1, 0], [0, 1]],
        "augmentation": [1, 1],
    }
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "r.json"
    code = run_cli(["compute", "--algebra", str(path), "--ring", "q",
                    "--pipeline", "epi", "--max-object", "1",
                    "--max-degree", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["betti"]["epi"]["N=1"] == [1, 0]
    assert report["verifications"]["N=1/dsquared[epi]"] == "skipped"


def test_malformed_specs_name_the_field(tmp_path):
    with pytest.raises(cli.SpecError, match="dim"):
        cli.algebra_from_spec({"structure": []}, QQ)
    with pytest.raises(cli.SpecError, match="dim"):
        cli.algebra_from_spec({"dim": True, "structure": [[0, 0, 0, 1, 1]],
                               "unit": [1], "involution": [[1]]}, QQ)
    with pytest.raises(cli.SpecError, match="basis"):
        cli.algebra_from_spec({"dim": 1, "basis": 3}, QQ)
    with pytest.raises(cli.SpecError, match=r"structure\[0\]"):
        cli.algebra_from_spec(
            {"dim": 1, "structure": [[0, 0, 0, 1, 0]], "unit": [1],
             "involution": [[1]]}, QQ)
    with pytest.raises(cli.SpecError, match="unit"):
        cli.algebra_from_spec(
            {"dim": 1, "structure": [[0, 0, 0, 1, 1]], "involution": [[1]]}, QQ)
    with pytest.raises(cli.SpecError, match="ring"):
        cli.JobSpec("ground", "f6", "full", [0], 0)
    with pytest.raises(cli.SpecError, match="pipeline"):
        cli.JobSpec("ground", "f2", "slominska", [0], 0)
    with pytest.raises(cli.SpecError, match="coefficients"):
        cli.JobSpec("ground", "q", "full", [0], 0, coefficients="z/2")


def test_non_prime_ring_exits_with_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli(["compute", "--algebra", "ground", "--ring", "f4",
                    "--pipeline", "full", "--max-object", "0",
                    "--max-degree", "0", "--out", str(out)])
    assert code == 2
    assert "not prime" in capsys.readouterr().err


def test_resource_cap_produces_partial_report(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["compute", "--algebra", "c2", "--ring", "q",
                    "--pipeline", "reduced", "--max-object", "2",
                    "--max-degree", "2", "--max-generators", "100000",
                    "--out", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    entry = report["errors"]["N=2"]
    assert entry["error"] == "resource cap exceeded"
    assert entry["projected_generators"] > 100000


def test_coefficients_and_uct(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["compute", "--algebra", "c3", "--ring", "z",
                    "--pipeline", "epi", "--max-object", "1",
                    "--max-degree", "1", "--coefficients", "z/2",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verifications"]["N=1/uct[p=2]"] == "pass"
    assert report["coefficients"]["N=1"]["components"][0]["ring"] == "F2"
    assert report["torsion"]["epi"]["N=1"]


def test_verify_category_command():
    assert run_cli(["verify-category", "--depth", "1", "--samples", "100"]) == 0


def test_slominska_pipeline_via_cli(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["compute", "--algebra", "c2", "--ring", "q",
                    "--pipeline", "slominska", "--max-object", "1",
                    "--max-degree", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["betti"]["slominska"]["N=1"] == [1, 0]


def test_parse_max_object():
    assert cli._parse_max_object("2") == [2]
    assert cli._parse_max_object("0..2") == [0, 1, 2]
    with pytest.raises(cli.SpecError):
        cli._parse_max_object("2..0")
    with pytest.raises(cli.SpecError):
        cli._parse_max_object("x")


def test_parse_coefficients():
    m = cli.parse_coefficients("z+z/2")
    assert m.free_rank == 1 and m.torsion == (2,)
    with pytest.raises(cli.SpecError):
        cli.parse_coefficients("z/x")


def test_stabilization_needs_every_later_value_to_agree():
    ns = [0, 1, 2]
    assert cli.stabilization(ns, [1, 1, 2]) == {"stable": False}
    assert cli.stabilization(ns, [3, 1, 1]) == {"stable": True,
                                                "at_max_object": 2}
    assert cli.stabilization(ns, [1, 1, 1]) == {"stable": True,
                                                "at_max_object": 1}
    assert cli.stabilization(ns, [1, 2, 1]) == {"stable": False}
    assert cli.stabilization([3], [5]) == {"stable": False}
    assert cli.stabilization([], []) == {"stable": False}


def test_timing_records_streamed_columns_per_degree(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["compute", "--algebra", "c2", "--ring", "q",
                    "--pipeline", "epi", "--max-object", "1",
                    "--max-degree", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    sizes = report["sizes"]["epi"]["N=1"]
    rank = report["timing"]["N=1"]["rank"]["epi"]
    assert sorted(rank) == ["d1", "d2", "d3"]
    for n in (1, 2, 3):
        entry = rank[f"d{n}"]
        assert entry["of"] == max(sizes[n - 1], sizes[n])
        assert 0 < entry["cols"] <= entry["of"]
        assert entry["early_exit"] == (entry["cols"] < entry["of"])
    # rank d3 <= dim ker d2 stops the d3 stream well before its end
    assert rank["d3"]["early_exit"]


def test_timing_records_unit_pivots_over_the_integers(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["compute", "--algebra", "c2", "--ring", "z",
                    "--pipeline", "epi", "--max-object", "1",
                    "--max-degree", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    sizes = report["sizes"]["epi"]["N=1"]
    rank = report["timing"]["N=1"]["rank"]["epi"]
    assert sorted(rank) == ["d1", "d2", "d3"]
    for n in (1, 2, 3):
        units, (rows, cols) = rank[f"d{n}"]["units"], rank[f"d{n}"]["left"]
        assert units + rows <= sizes[n - 1] and units + cols <= sizes[n]
    # the dense finisher sees a small block of the boundary d3
    rows, cols = rank["d3"]["left"]
    assert rank["d3"]["units"] > 100
    assert rows * cols < sizes[2] * sizes[3] // 50
