"""Benchmark of hyperoct: closed-loop passes of ``hyperoct.cli.run`` jobs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process at a time, no threads: each pass starts a fresh
interpreter (so ``croscat._hom_cache`` and every per-job memo start cold, as
for a CLI user) and runs the workload's jobs one after another, each job
starting when the previous one returned.  The seed fixes the job order.
Passes repeat until another pass would not fit in S seconds.  After each
untraced pass, a few set-up-only interpreters measure start-up alone, so
the set-up samples are spread over the whole run.

Times are CPU seconds of the program scaled to a machine of fixed speed
(calibrate.py): a CPU-time timer runs a fixed pure-Python reference all
through each pass's jobs, and the pass divides by its speed, because on a
shared host the speed of a core drifts by a third for minutes at a time and
CPU time drifts with it.  The unscaled CPU and wall times go to the results
file and the summary.

``--trace 0`` reports the end-to-end metrics: ``solve_s`` (summed time of
the pass's job calls, averaged over the run's passes), ``setup_s``
(interpreter start to first job call, covering the ``hyperoct`` import and
the job specs; median over the passes and the set-up probes) and
``peak_rss_mb`` (``ru_maxrss`` of the pass process, less the reference's
own data; median).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
layers.py (medians over traced passes, times scaled like ``solve_s``), with
``trace.overhead_s`` the median, over adjacent (untraced, traced) pass
pairs, of the traced minus the untraced ``solve_s``; ``trace.spans`` counts
the tracer's work exactly.

Every job of every pass goes through the correctness gate against
expected.json (Betti numbers, torsion, generator counts), plus the
cross-checks between pipelines and the universal-coefficient checks; a
traced report must also be byte-identical to the untraced one.  Failed jobs
are counted against jobs attempted, and any failure makes the exit code 1.
The last line of standard output is the JSON result; a results file with an
environment stamp goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, ordered_jobs, job_id  # noqa: E402

PROBES_PER_PASS = 3
# a run must end within 180 s, so no pass may outlive this many seconds
# after the run's first pass started
RUN_DEADLINE_S = 160
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment():
    """Machine stamp, read from /proc only."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu_model": cpu}


def loadavg_1m():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return float(fh.read().split()[0])
    except OSError:
        return None


def spawn(root, workload, seed, mode, timeout, span_file=""):
    """Run child.py once and return its JSON result (or an error entry)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload,
             str(seed), repr(t_spawn), mode, span_file],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return {"crash": f"{mode} pass did not end within the run's "
                         f"{RUN_DEADLINE_S} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"crash": f"{mode} pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _uct_primes(coefficients):
    return [int(p[2:]) for p in coefficients.split("+") if p.startswith("z/")]


def gate(workload, seed, passes, expected):
    """Failure reasons per (pass index, job id); an empty dict means every
    job of every pass is correct."""
    specs = {job_id(j): j for j in ordered_jobs(workload, seed)}
    failures = {}
    plain_sha = {}
    for k, p in enumerate(passes):
        for entry in p["jobs"]:
            jid = entry["id"]
            why = []
            if "error" in entry:
                why.append("exception: " + entry["error"].strip()
                           .splitlines()[-1])
            else:
                rep = entry["report"]
                if entry["exit_code"] != 0:
                    why.append(f"exit code {entry['exit_code']}")
                bad = [key for key, v in rep["verifications"].items()
                       if v == "fail"]
                if bad:
                    why.append("failed verifications " + ", ".join(bad))
                want = expected.get(jid)
                got = {key: rep[key] for key in ("betti", "torsion", "sizes")}
                if want != got:
                    why.append(f"expected {want}, got {got}")
                coeff, ns = specs[jid][5], specs[jid][3]
                if coeff:
                    for n in ns:
                        for q in _uct_primes(coeff):
                            key = f"N={n}/uct[p={q}]"
                            if rep["verifications"].get(key) != "pass":
                                why.append(f"{key} did not pass")
                if p["mode"] == "plain":
                    plain_sha[jid] = entry["sha256"]
                elif jid in plain_sha and plain_sha[jid] != entry["sha256"]:
                    why.append("traced report differs from untraced report")
            if why:
                failures[(k, jid)] = why
        for jid, why in cross_checks(p["jobs"], specs).items():
            failures.setdefault((k, jid), []).extend(why)
    return failures


def cross_checks(jobs, specs):
    """The four constructions must agree at each truncation: epi == reduced
    ideal == slominska, and full == extended == nerve == reduced total."""
    groups = {}
    for entry in jobs:
        if "report" not in entry:
            continue
        alg, ring, pipeline, ns, degree, _, _ = specs[entry["id"]]
        groups.setdefault((alg, ring, ns, degree), {})[pipeline] = entry
    failures = {}
    for (alg, _, ns, _), by_pipeline in groups.items():
        for n in ns:
            key = f"N={n}"
            for families in ((("epi", "epi"), ("reduced", "ideal"),
                              ("slominska", "slominska")),
                             (("full", "full"), ("extended", "extended"),
                              ("nerve", "nerve"), ("reduced", "total"))):
                seen = {(pl, tag): by_pipeline[pl]["report"]["betti"]
                        .get(tag, {}).get(key)
                        for pl, tag in families if pl in by_pipeline}
                if len(set(map(json.dumps, seen.values()))) > 1:
                    for pl, _ in seen:
                        failures.setdefault(by_pipeline[pl]["id"], []).append(
                            f"{alg} {key}: pipelines disagree {seen}")
    return failures


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(root, workload, seed, seconds, traced, out_dir):
    t0 = time.monotonic()
    setups, passes, rounds = [], [], []
    modes = ("plain", "traced") if traced else ("plain",)
    while True:
        t_round = time.monotonic()
        mode = modes[len(passes) % len(modes)]
        span_file = os.path.join(
            out_dir, f"spans-{workload}-seed{seed}-pass{len(passes)}.jsonl") \
            if mode == "traced" else ""
        p = spawn(root, workload, seed, mode,
                  t0 + RUN_DEADLINE_S - time.monotonic(), span_file)
        p["mode"] = mode
        passes.append(p)
        if "crash" in p:
            break
        setups.append(p["setup_s"])
        for _ in range(0 if traced else PROBES_PER_PASS):
            probe = spawn(root, workload, seed, "setup",
                          t0 + RUN_DEADLINE_S - time.monotonic())
            if "crash" in probe:
                probe["mode"] = "setup"
                passes.append(probe)
                return setups, passes
            setups.append(probe["setup_s"])
        rounds.append(time.monotonic() - t_round)
        elapsed = time.monotonic() - t0
        if len(passes) >= len(modes) and \
                elapsed + statistics.median(rounds) > seconds:
            break
    return setups, passes


def summarize(passes, setups, trace):
    """Metric name -> (unit, samples), one sample per pass (per set-up for
    ``setup_s``)."""
    plain = [p for p in passes if p["mode"] == "plain"]
    if not trace:
        samples = {"solve_s": [p["solve_s"] for p in plain],
                   "setup_s": setups,
                   "peak_rss_mb": [p["peak_rss_mb"] for p in plain]}
        return {name: (unit, samples[name])
                for name, unit in END_TO_END.items()}
    import layers
    traced = [p for p in passes if p["mode"] == "traced"]
    out = {name: (unit, [p["layers"][name] for p in traced])
           for name, (unit, _) in layers.PER_LAYER.items()
           if name != "trace.overhead_s"}
    # each traced pass against the untraced pass just before it, so that
    # drift of the machine's speed between distant passes cancels out
    out["trace.overhead_s"] = ("s", [
        t["solve_s"] - u["solve_s"] for u, t in zip(plain, traced)])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    package = os.path.join(root, "src", "hyperoct")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no hyperoct sources under {root}/src; run from the "
              f"repository root", file=sys.stderr)
        return 2
    if not compileall.compile_dir(package, quiet=1):
        print("error: hyperoct sources do not compile", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    stamp = environment()
    stamp["loadavg_1m_start"] = loadavg_1m()
    setups, passes = measure(root, args.workload, args.seed, args.seconds,
                             bool(args.trace), out_dir)
    stamp["loadavg_1m_end"] = loadavg_1m()

    crashes = [p["crash"] for p in passes if "crash" in p]
    good = [p for p in passes if "crash" not in p]
    failures = gate(args.workload, args.seed, good, expected)
    jobs_per_pass = len(WORKLOADS[args.workload])
    attempted = jobs_per_pass * len(passes)
    failed = len(failures) + jobs_per_pass * len(crashes)

    metrics, samples = {}, {}
    if not crashes:
        for name, (unit, values) in summarize(good, setups,
                                              args.trace).items():
            # machine speed switches between states within seconds; the mean
            # over all the run's passes averages them and is steadier than
            # their median
            value = statistics.fmean(values) if name == "solve_s" \
                else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            samples[name] = len(values)

    result = {"correct": not failures and not crashes,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": stamp, "result": result, "samples": samples,
              "setup_samples_s": setups,
              "passes": [dict({k: v for k, v in p.items() if k != "jobs"},
                              job_cpu_s={e["id"]: e["cpu_s"]
                                         for e in p.get("jobs", ())})
                         for p in passes],
              "failures": [{"pass": k, "job": jid, "why": why}
                           for (k, jid), why in sorted(failures.items())],
              "crashes": crashes}
    with open(os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    for text in crashes:
        print(f"CRASH {text}")
    for (k, jid), why in sorted(failures.items()):
        print(f"FAIL pass {k} {jid}: {'; '.join(why)}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"failed_jobs {failed}/{attempted}, nproc {stamp['nproc']}, "
          f"load {stamp['loadavg_1m_start']} -> {stamp['loadavg_1m_end']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6f} {m['unit']:6s} "
              f"({samples[name]} samples)")
    plain = [p for p in good if p["mode"] == "plain"]
    if plain:
        print("  unscaled, mean over untraced passes: solve "
              f"{statistics.fmean(p['solve_cpu_s'] for p in plain):.3f} s CPU"
              f" / {statistics.fmean(p['solve_wall_s'] for p in plain):.3f}"
              " s wall; scale "
              + " ".join(f"{p['scale']:.3f}" for p in plain))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
