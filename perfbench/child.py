"""One pass of a workload in a fresh interpreter (started by run.py).

Usage: child.py WORKLOAD SEED SPAWN_TIME MODE [SPAN_FILE]

MODE is ``setup`` (import and build the job specs, then stop), ``plain``
(run every job untraced) or ``traced`` (run every job under the tracer and
write the spans to SPAN_FILE).  SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process.

Times are CPU seconds of the program, scaled by the reference computation
of calibrate.py to a machine of fixed speed.  The reference runs
``SETUP_CALLS`` times right after set-up, which scale ``setup_s``, and then
from a CPU-time timer all through the jobs, which together with the first
ones scale the pass's job times.  ``setup_s`` is the CPU time spent before
the first job call, so it covers interpreter start, the ``hyperoct`` import
and the job specs.  The unscaled CPU and wall times (the latter including
the reference calls) are reported beside the scaled ones.  The peak
resident set leaves out the reference's own data.
The result is one JSON line on standard output.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

SETUP_CALLS = 3


def main(argv):
    workload, seed, spawn, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    from hyperoct import cli
    from workloads import ordered_jobs, job_id

    jobs = [(job_id(j), cli.JobSpec(
        algebra_source=j[0], ring_name=j[1], pipeline=j[2],
        n_values=list(j[3]), max_degree=j[4], coefficients=j[5],
        verify=j[6])) for j in ordered_jobs(workload, seed)]
    setup_cpu, setup_wall = time.thread_time(), time.monotonic() - spawn
    import calibrate
    gauge = calibrate.Gauge()
    for _ in range(SETUP_CALLS):
        gauge.run()
    out = {"setup_s": setup_cpu * gauge.scale(), "setup_cpu_s": setup_cpu,
           "setup_wall_s": setup_wall}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "traced":
        import layers
        from tracer import Tracer
        tracer = Tracer(gauge.program_time)
        tracer.install(layers.targets())
    results = []
    gauge.start()
    solve_cpu = solve_wall = 0.0
    for index, (jid, spec) in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        entry = {"id": jid}
        c, t = gauge.program_time(), time.monotonic()
        try:
            entry["report"], entry["exit_code"] = cli.run(spec)
        except Exception:  # a failing job is a result, not a crash
            entry["error"] = traceback.format_exc(limit=3)
        entry["cpu_s"] = gauge.program_time() - c
        solve_wall += time.monotonic() - t
        solve_cpu += entry["cpu_s"]
        results.append(entry)
    gauge.stop()
    scale = gauge.scale()
    for entry in results:
        if "report" in entry:
            text = cli.canonical_report_text(entry["report"])
            entry["report"] = json.loads(text)
            entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    out.update(solve_s=solve_cpu * scale, solve_cpu_s=solve_cpu,
               solve_wall_s=solve_wall, scale=scale,
               reference_calls=len(gauge.calls), jobs=results,
               peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss - calibrate.FOOTPRINT_KB) / 1024)
    if tracer is not None:
        tracer.uninstall()
        out["accounting_error_s"] = layers.check_accounting(tracer)
        out["layers"] = {
            name: value * scale if layers.PER_LAYER[name][0] == "s"
            else value for name, value in layers.pass_metrics(tracer).items()}
        tracer.write(argv[5])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
