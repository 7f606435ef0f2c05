import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from hyperoct import cli, complexes, homology
from hyperoct.rings import QQ
from test_slominska import c3_spec


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
    ("c2", "f3", "epi", None): "0be6a139c4433bf633d7e54b32950534"
                               "dc138ee93dc2cf053bf6d39df3d9dd70",
    # (N, D) = (1, 3): torsion [[], [2, 2], [2], [2, 2, 4]], a Z/4 class
    ("c2", "z", "epi", None, "N1D3"): "a6adbabeed1915f6f1039b771f00b7d8"
                                      "af9d2eb5191c4ccdae7463ca1df8d549",
}


@pytest.mark.parametrize("job", PINNED_REPORTS,
                         ids=lambda job: "-".join(filter(None, job)))
def test_canonical_reports_match_their_pinned_hashes(job):
    # N = 1 with coefficients, else N = 0..1, and D = 1, unless the key
    # names its window as "N<n>D<d>"
    algebra, ring, pipeline, coefficients, *window = job
    ns, degree = [1] if coefficients else [0, 1], 1
    if window:
        n, degree = map(int, window[0][1:].split("D"))
        ns = [n]
    report, code = cli.run(cli.JobSpec(algebra, ring, pipeline, ns, degree,
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
def test_rational_boundaries_hold_ints(algebra, monkeypatch):
    # no pipeline divides, so the rationals of a group algebra stay on the
    # int fast path, the coinvariant complex's included
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
                     for col in map(M.column, range(M.ncols))
                     for v in col.values()}
            assert types == {int}, pipeline


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


def test_integral_job_certifies_each_dsquared_pair_once(monkeypatch):
    # the integral solve certifies (d1, d2) and (d2, d3) for its bounds; the
    # report's dsquared status, the z/2 component and the coefficient check
    # read those certificates
    pairs = []
    real = homology.check_dsquared_pair

    def counting(d_prev, d_n, n):
        pairs.append(n)
        return real(d_prev, d_n, n)

    monkeypatch.setattr(homology, "check_dsquared_pair", counting)
    monkeypatch.setattr(complexes, "check_dsquared_pair", counting)
    report, code = cli.run(cli.JobSpec("c2", "z", "epi", [1], 2,
                                       coefficients="z/2", verify=True))
    assert code == 0
    assert report["verifications"]["N=1/dsquared[epi]"] == "pass"
    assert report["verifications"]["N=1/uct[p=2]"] == "pass"
    assert pairs == [2, 3]


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
    # booleans are ints to Python, but neither scalars nor indices in a spec
    with pytest.raises(cli.SpecError, match=r"structure\[0\]: booleans"):
        cli.algebra_from_spec(
            {"dim": 1, "structure": [[0, 0, 0, True, True]], "unit": [1],
             "involution": [[1]]}, QQ)
    with pytest.raises(cli.SpecError, match=r"unit\[0\]: booleans"):
        cli.algebra_from_spec(
            {"dim": 1, "structure": [[0, 0, 0, 1, 1]], "unit": [[1, True]],
             "involution": [[1]]}, QQ)
    for pos, name in enumerate("ijk"):
        entry = [0, 0, 0, 1, 1]
        entry[pos] = True
        with pytest.raises(cli.SpecError,
                           match=rf"structure\[0\]\.{name}: booleans"):
            cli.algebra_from_spec(
                {"dim": 2, "structure": [entry], "unit": [1, 0],
                 "involution": [[1, 0], [0, 1]]}, QQ)
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


def test_non_positive_generator_cap_exits_with_error(tmp_path, capsys):
    for cap in (0, -5):
        with pytest.raises(cli.SpecError, match="max-generators"):
            cli.JobSpec("ground", "q", "full", [0], 0, max_generators=cap)
    out = tmp_path / "r.json"
    code = run_cli(["compute", "--algebra", "ground", "--ring", "q",
                    "--pipeline", "full", "--max-object", "0",
                    "--max-degree", "0", "--max-generators", "-5",
                    "--out", str(out)])
    assert code == 2
    assert "error: max-generators: " in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_algebra_source_exits_with_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"dim": 1, "name": "caf\xe9"}')
    out = tmp_path / "r.json"
    # a directory, and a file that is not UTF-8
    for source in (tmp_path, latin1):
        with pytest.raises(cli.SpecError, match="algebra: cannot read"):
            cli.load_algebra(str(source), QQ)
        code = run_cli(["compute", "--algebra", str(source), "--ring", "q",
                        "--pipeline", "full", "--max-object", "0",
                        "--max-degree", "0", "--out", str(out)])
        assert code == 2
        assert "error: algebra: cannot read" in capsys.readouterr().err
        assert not out.exists()


def test_report_in_a_missing_directory_exits_before_any_work(
        tmp_path, capsys, monkeypatch):
    def run(job):
        raise AssertionError("ran a job whose report cannot be written")

    monkeypatch.setattr(cli, "run", run)
    for out, reason in ((tmp_path / "missing" / "r.json", "no directory"),
                        (tmp_path, "is a directory")):
        code = run_cli(["compute", "--algebra", "c2", "--ring", "q",
                        "--pipeline", "epi", "--max-object", "1",
                        "--max-degree", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out: ") and reason in err
    assert not (tmp_path / "missing").exists()


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


@pytest.mark.parametrize("algebra,pipeline", [("c2", "epi"),
                                              ("klein", "nerve")])
def test_generator_cap_refuses_large_objects_without_enumerating(
        tmp_path, algebra, pipeline):
    # projected sizes come from closed forms for hom-sets and functor
    # values, so a job far over the cap is refused at once; process CPU
    # time is measured in a fresh interpreter
    import subprocess
    import sys
    script = ("import sys, time\n"
              "from hyperoct import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(code, time.process_time())\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "compute", "--algebra", algebra,
         "--pipeline", pipeline, "--max-object", "12", "--max-degree", "1",
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=60)
    code, cpu = proc.stdout.split()[-2:]
    assert int(code) == 3, proc.stderr
    assert float(cpu) < 2.0
    entry = json.loads((tmp_path / "r.json").read_text())["errors"]["N=12"]
    assert entry["error"] == "resource cap exceeded"


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


def test_uct_check_runs_once_per_distinct_prime(monkeypatch):
    # a repeated prime is checked once; the canonical report is the one
    # the check per occurrence gave (pinned sha256)
    calls = []
    check = cli.uct_check

    def counted(complex_, p, modp=None):
        calls.append(p)
        return check(complex_, p, modp)

    monkeypatch.setattr(cli, "uct_check", counted)
    report, code = cli.run(cli.JobSpec("c2", "z", "epi", [1], 1,
                                       coefficients="z/2+z/2", verify=True))
    assert code == 0 and calls == [2]
    assert report["verifications"]["N=1/uct[p=2]"] == "pass"
    text = cli.canonical_report_text(report)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aeb545ce285587802321d84484d46ec5a547140b4812c718a25a2a4924911197")


@pytest.mark.parametrize("module,digest", [
    ("z+z/2",
     "25474c8c5ce9738cd076db2335af99cb7762729e3a610ec9b4097440bcfe6c52"),
    ("z/2+z/2",
     "aeb545ce285587802321d84484d46ec5a547140b4812c718a25a2a4924911197"),
])
def test_each_coefficient_ring_is_solved_once(module, digest, monkeypatch):
    # the free component reuses the job's integral homology and a repeated
    # prime is reduced and solved once; the second integral call is the
    # coefficient check's, which reads the complex's Smith diagonals.  The
    # canonical reports are the ones each component solved on its own gave
    # (pinned sha256)
    rings, reduced = [], []
    over_z, over_field = homology.homology_over_Z, homology.homology_over_field
    reduce = complexes.reduce_mod_p
    monkeypatch.setattr(homology, "homology_over_Z", lambda c, up_to=None:
                        rings.append(c.ring.name) or over_z(c, up_to))
    monkeypatch.setattr(homology, "homology_over_field", lambda c, up_to=None:
                        rings.append(c.ring.name) or over_field(c, up_to))
    monkeypatch.setattr(complexes, "reduce_mod_p", lambda c, p:
                        reduced.append(p) or reduce(c, p))
    report, code = cli.run(cli.JobSpec("c2", "z", "epi", [1], 1,
                                       coefficients=module, verify=True))
    assert code == 0
    assert rings == ["Z", "F2", "Z"] and reduced == [2]
    text = cli.canonical_report_text(report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("module", ["z/2", "z+z/2"])
def test_each_boundary_is_streamed_once_over_the_integers(module,
                                                          monkeypatch):
    # the report and the coefficient check read one Smith diagonal per
    # boundary, d1 .. d(D+1), of the one truncation
    calls = []
    smith = homology._smith_diagonal

    def counted(M, *args):
        calls.append(M)
        return smith(M, *args)

    monkeypatch.setattr(homology, "_smith_diagonal", counted)
    report, code = cli.run(cli.JobSpec("c2", "z", "epi", [1], 2,
                                       coefficients=module, verify=True))
    assert code == 0
    assert report["verifications"]["N=1/uct[p=2]"] == "pass"
    assert report["verifications"]["N=1/dsquared[epi]"] == "pass"
    assert len(calls) == 2 + 1


def test_uct_check_reuses_the_mod_p_homology_of_the_job(monkeypatch):
    # the F_2 coefficient component is solved once, and the coefficient
    # check reads that result
    rings = []
    over_field = homology.homology_over_field

    def counted(complex_, up_to=None):
        rings.append(complex_.ring.name)
        return over_field(complex_, up_to)

    monkeypatch.setattr(homology, "homology_over_field", counted)
    report, code = cli.run(cli.JobSpec("c2", "z", "epi", [1], 1,
                                       coefficients="z/2", verify=True))
    assert code == 0
    assert report["verifications"]["N=1/uct[p=2]"] == "pass"
    assert rings == ["F2"]


def test_non_prime_torsion_order_exits_before_building(tmp_path, capsys,
                                                       monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("built a complex for a job that cannot run")

    monkeypatch.setattr(cli, "build_epi_complex", build)
    for text, reason in (("z/4", "torsion order 4 is not prime"),
                         ("z+z/1", "torsion order 1 is not prime"),
                         ("", "empty module")):
        with pytest.raises(cli.SpecError, match=reason):
            cli.JobSpec("c2", "z", "epi", [0], 1, coefficients=text)
        out = tmp_path / "r.json"
        code = run_cli(["compute", "--algebra", "c2", "--ring", "z",
                        "--pipeline", "epi", "--max-object", "0",
                        "--max-degree", "1", "--coefficients", text,
                        "--out", str(out)])
        assert code == 2
        assert f"error: coefficients: {reason}" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(complexes.ComplexError, match="not prime"):
        complexes.CoefficientModule(0, (2, 6))


def test_verify_category_command(capsys, monkeypatch):
    assert run_cli(["verify-category", "--depth", "1", "--samples", "100"]) == 0
    assert "EMPTY" not in capsys.readouterr().out
    for depth, samples in (("-1", "-3"), ("2", "0"), ("-1", "5")):
        assert run_cli(["verify-category", "--depth", depth,
                        "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "--samples >= 1" in captured.err and not captured.out
    # a check that ran no case is not a pass
    monkeypatch.setattr(cli.croscat, "run_invariant_suite",
                        lambda depth, samples: {"ran": (3, 0),
                                                "idle": (0, 0)})
    assert run_cli(["verify-category"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "pass  ran: 3 checked, 0 failed", "EMPTY  idle: 0 checked, 0 failed"]


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
    sizes = report["timing"]["N=1"]["eliminated"]["epi"]
    rank = report["timing"]["N=1"]["rank"]["epi"]
    assert sorted(rank) == ["d1", "d2", "d3"]
    for n in (1, 2, 3):
        entry = rank[f"d{n}"]
        assert entry["of"] == max(sizes[n - 1], sizes[n])
        assert 0 < entry["cols"] <= entry["of"]
        assert entry["early_exit"] == (entry["cols"] < entry["of"])
    # rank d3 <= dim ker d2 stops the d3 stream well before its end, and
    # echelon-first order reaches that bound within half of d3's columns
    assert rank["d3"]["early_exit"]
    assert 2 * rank["d3"]["cols"] < rank["d3"]["of"]


@pytest.mark.parametrize("pipeline", ["epi", "reduced"])
def test_timing_records_boundary_nnz_per_degree(pipeline, monkeypatch):
    seen = []
    real = cli.compute_homology
    monkeypatch.setattr(cli, "compute_homology",
                        lambda cpx: seen.append(cpx) or real(cpx))
    report, code = cli.run(cli.JobSpec("c3", "q", pipeline, [1], 2))
    assert code == 0
    nnz = report["timing"]["N=1"]["nnz"]
    assert list(nnz) == list(report["timing"]["N=1"]["eliminated"])
    assert len(seen) == len(nnz)
    for cpx, counts in zip(seen, nnz.values()):
        assert counts == [cpx.boundary(n).nnz() for n in (1, 2, 3)]
        assert all(counts)


def integral_rank_timing(tmp_path, n, degree):
    """Sizes and rank stats of c2 epi over Z at (n, degree), after checking
    that every boundary's unit pivots and lattice fit its shape, and that
    the lattice, the dense finisher's input, has no more vectors than rows."""
    out = tmp_path / f"r{n}{degree}.json"
    code = run_cli(["compute", "--algebra", "c2", "--ring", "z",
                    "--pipeline", "epi", "--max-object", str(n),
                    "--max-degree", str(degree), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    sizes = report["timing"][f"N={n}"]["eliminated"]["epi"]
    rank = report["timing"][f"N={n}"]["rank"]["epi"]
    assert sorted(rank) == [f"d{k}" for k in range(1, degree + 2)]
    for k in range(1, degree + 2):
        units, (rows, cols) = rank[f"d{k}"]["units"], rank[f"d{k}"]["left"]
        assert units + rows <= sizes[k - 1] and units + cols <= sizes[k]
        assert cols <= rows
        stats = rank[f"d{k}"]
        assert stats["of"] == sizes[k] and stats["cols"] <= stats["of"]
        assert stats["early_exit"] == (stats["cols"] < stats["of"])
    return report, sizes, rank


def test_timing_records_unit_pivots_over_the_integers(tmp_path):
    report, sizes, rank = integral_rank_timing(tmp_path, 1, 2)
    # every pivot of d3 but the one of the torsion class [2] is a unit, so
    # the dense finisher sees a small block of d3
    betti = report["betti"]["epi"]["N=1"]
    assert report["torsion"]["epi"]["N=1"] == [[], [2, 2], [2]]
    rank_d2 = sizes[1] - betti[1] - (sizes[0] - betti[0])
    assert rank["d3"]["units"] == sizes[2] - betti[2] - rank_d2 - 1
    rows, cols = rank["d3"]["left"]
    assert rows * cols < sizes[2] * sizes[3] // 50
    # the torsion of d2 and d3 is certified mod 2 before their last columns
    assert rank["d2"]["early_exit"] and rank["d3"]["early_exit"]
    # at N = 2 thousands of columns of d2 are left over after the unit
    # pivots; the lattice folds them into no more vectors than rows
    report, sizes, rank = integral_rank_timing(tmp_path, 2, 1)
    assert report["torsion"]["epi"]["N=2"] == [[], [2, 2]]


# row i += c row j on the coordinates of a basis of C3's group algebra over
# 1, g, g^2, with i = j negating row i; row 0, the unit, is never changed
ROW_OPS = st.tuples(st.sampled_from([1, 2]), st.sampled_from([0, 1, 2]),
                    st.sampled_from([-2, -1, 1, 2]))


@settings(max_examples=8, deadline=None)
@given(st.lists(ROW_OPS, min_size=1, max_size=6))
def test_integral_homology_does_not_see_a_change_of_basis(tmp_path_factory,
                                                          ops):
    # a unimodular change of basis gives the same algebra over Z, so epi
    # (1, 2) with Z/3 coefficients reads as for the builtin c3
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for i, j, c in ops:
        rows[i] = [-a for a in rows[i]] if i == j else \
            [a + c * b for a, b in zip(rows[i], rows[j])]
    path = tmp_path_factory.mktemp("basis") / "c3.json"
    path.write_text(json.dumps(c3_spec(rows)))
    out = path.with_name("r.json")
    code = run_cli(["compute", "--algebra", str(path), "--ring", "z",
                    "--pipeline", "epi", "--max-object", "1",
                    "--max-degree", "2", "--coefficients", "z/3",
                    "--verify", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["betti"]["epi"]["N=1"] == [0, 1, 0]
    assert report["torsion"]["epi"]["N=1"] == [[], [], [2]]
    assert report["verifications"]["N=1/dsquared[epi]"] == "pass"
    assert report["verifications"]["N=1/uct[p=3]"] == "pass"
