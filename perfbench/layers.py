"""What the traced pass wraps in each ``hyperoct`` module, and the per-layer
metrics computed from its spans.

``*_s`` metrics of named functions are inclusive times summed over the pass,
counting a span only when no enclosing span carries a name from the same
metric.  ``<layer>.self_s`` is the summed self time of the layer's spans;
the self times of all layers together equal the summed ``cli.run`` spans.
Hot small functions are counted, not timed, so their time stays in the self
time of their caller.
"""
from __future__ import annotations

from tracer import LAYERS

# metric -> (unit, end-to-end metric and workload it should move).  The
# shares are of the traced pass time at the seed baseline (trajectory.json);
# a share below the workload's run-to-run spread of solve_s (about 5%)
# cannot move solve_s by a resolvable amount there.
PER_LAYER = {
    "homology.field_rank_s.q": ("s", "solve_s on rank-q (about 94%) and crossval (about 30%)"),
    "homology.field_rank_s.fp": ("s", "solve_s on rank-fp (about 93%); about 2% of integral, not resolvable there"),
    "homology.rank_cols": ("count", "solve_s on rank-q, rank-fp, crossval"),
    "homology.rank_nnz_in": ("count", "solve_s on rank-q, rank-fp, crossval"),
    "homology.snf_s": ("s", "solve_s, peak_rss_mb on integral (about 94%)"),
    "homology.snf_dense_cells": ("count", "peak_rss_mb on integral (computed m x n)"),
    "homology.integer_rank_s": ("s", "solve_s on integral (about 4%, not resolvable)"),
    "homology.over_z_calls": ("count", "solve_s on integral"),
    "homology.uct_s": ("s", "solve_s on integral (about 47%, including its own Smith forms)"),
    "complexes.assemble_s": ("s", "solve_s on crossval (about 10%); about 5% of rank-q and rank-fp"),
    "complexes.generators": ("count", "solve_s, peak_rss_mb everywhere"),
    "complexes.boundary_nnz": ("count", "solve_s, peak_rss_mb everywhere"),
    "complexes.certificate_s": ("s", "solve_s on crossval (about 5%)"),
    "complexes.chi_s": ("s", "solve_s on crossval (about 16%)"),
    "complexes.inclusion_s": ("s", "solve_s on crossval (under 1%, not resolvable)"),
    "complexes.homotopy_s": ("s", "solve_s on crossval (under 1%, not resolvable)"),
    "complexes.theorem_s": ("s", "solve_s on crossval (about 22%)"),
    "complexes.dsquared_s": ("s", "solve_s on crossval (about 18%)"),
    "complexes.contraction_s": ("s", "solve_s on crossval (about 2%, not resolvable)"),
    "complexes.tensor_s": ("s", "solve_s on integral (under 1%, not resolvable)"),
    "croscat.enumerate_hom_s": ("s", "solve_s on crossval (under 1%, not resolvable)"),
    "croscat.compose_calls": ("count", "solve_s on crossval"),
    "croscat.factorize_calls": ("count", "solve_s on crossval"),
    "barfun.evaluate_calls": ("count", "solve_s on crossval"),
    "barfun.evaluate_misses": ("count", "solve_s on crossval"),
    "barfun.memo_hit_ratio": ("ratio", "solve_s on crossval (base: barfun.evaluate_calls)"),
    "barfun.evaluate_s": ("s", "solve_s on crossval (about 3%, not resolvable)"),
    "matrices.matmul_calls": ("count", "solve_s on crossval"),
    "matrices.matmul_s": ("s", "solve_s on crossval (about 35%)"),
    "slominska.complex_s": ("s", "solve_s on crossval (about 2%, not resolvable)"),
    "invalg.load_s": ("s", "setup_s, solve_s everywhere (about 2% of crossval)"),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = (
        "s", "expected near 0 (report assembly, stabilization)"
        if _layer == "cli" else "solve_s where the layer runs")
PER_LAYER["trace.overhead_s"] = (
    "s", "none (traced minus untraced solve_s over adjacent pass pairs)")
PER_LAYER["trace.spans"] = ("count", "none (size of the trace)")

# function-name groups of the inclusive-time metrics
TIMED = {
    "homology.snf_s": {"homology.diagonalize_integer_matrix"},
    "homology.integer_rank_s": {"homology.integer_rank"},
    "homology.uct_s": {"homology.uct_check"},
    "complexes.assemble_s": {"complexes.build_gz_complex"},
    "complexes.certificate_s": {"complexes.relation_certificate"},
    "complexes.chi_s": {"complexes.ReducedMachinery.chi"},
    "complexes.inclusion_s": {"complexes.ReducedMachinery.inclusion"},
    "complexes.homotopy_s": {"complexes.ReducedMachinery.homotopy"},
    "complexes.theorem_s": {"complexes.ReducedMachinery.verify_chain_theorem"},
    "complexes.dsquared_s": {"complexes.TruncatedComplex.check_dsquared"},
    "complexes.contraction_s": {
        "complexes.zero_anchored_contraction",
        "complexes.ReducedMachinery.unit_summand_contraction"},
    "complexes.tensor_s": {"complexes.tensor_with_coefficients",
                           "complexes.reduce_mod_p"},
    "croscat.enumerate_hom_s": {"croscat.enumerate_hom"},
    "barfun.evaluate_s": {"barfun.BarFunctor.evaluate"},
    "matrices.matmul_s": {"matrices.SparseMatrix.matmul"},
    "slominska.complex_s": {"slominska.slominska_complex"},
    "invalg.load_s": {"invalg.builtin_algebra",
                      "invalg.adapt_basis_to_augmentation"},
}


def _field_rank_before(args, kwargs):
    M = args[0]
    return {"kind": "fp" if M.ring.characteristic else "q",
            "cols": max(M.nrows, M.ncols), "nnz": M.nnz()}


def _snf_before(args, kwargs):
    M = args[0]
    return {"cells": M.nrows * M.ncols}


def _memo_before(args, kwargs):
    return {"memo": len(args[0]._memo)}


def _memo_after(result, args, attrs):
    attrs["miss"] = len(args[0]._memo) > attrs.pop("memo")


def _assembled(result, args, attrs):
    attrs["generators"] = sum(result.dims)
    attrs["nnz"] = sum(M.nnz() for M in result.boundaries.values())


def targets():
    """(owner, attribute, kind, span name, layer, before, after) for every
    wrapped function; imports the package on first use."""
    from hyperoct import (rings, matrices, croscat, invalg, barfun,
                          complexes, slominska, homology, cli)
    spans = {
        rings: ["ring_by_name"],
        matrices.SparseMatrix: ["matmul", "transpose", "submatrix"],
        croscat: ["enumerate_hom"],
        invalg: ["builtin_algebra", "adapt_basis_to_augmentation"],
        invalg.BasicTensorBasis: ["__init__"],
        barfun.BarFunctor: ["evaluate"],
        complexes: ["build_gz_complex", "relation_certificate",
                    "build_nerve_variant", "gz_nerve_iso",
                    "build_epi_complex", "build_full_complex",
                    "build_extended_complex", "zero_anchored_contraction",
                    "tensor_with_coefficients", "reduce_mod_p"],
        complexes.ReducedMachinery: [
            "__init__", "chi", "inclusion", "homotopy",
            "homotopy_identity_sign", "verify_chain_theorem",
            "unit_summand_contraction"],
        complexes.TruncatedComplex: ["check_dsquared"],
        complexes.ChainMap: ["commutes_with_boundaries"],
        slominska: ["slominska_complex"],
        slominska.CoinvariantModule: ["__init__"],
        slominska.CoinvariantFunctorView: ["matrix"],
        homology: ["compute_homology", "homology_over_field",
                   "homology_over_Z", "field_rank", "integer_rank",
                   "diagonalize_integer_matrix", "invariant_factors",
                   "uct_check"],
        cli: ["run"],
    }
    hooks = {
        "homology.field_rank": (_field_rank_before, None),
        "homology.diagonalize_integer_matrix": (_snf_before, None),
        "barfun.BarFunctor.evaluate": (_memo_before, _memo_after),
        "complexes.build_gz_complex": (None, _assembled),
    }
    out = []
    for owner, attrs in spans.items():
        layer = owner.__module__.rsplit(".", 1)[-1] \
            if isinstance(owner, type) else owner.__name__.rsplit(".", 1)[-1]
        prefix = f"{layer}.{owner.__name__}." if isinstance(owner, type) \
            else f"{layer}."
        for attr in attrs:
            name = prefix + attr
            before, after = hooks.get(name, (None, None))
            out.append((owner, attr, "span", name, layer, before, after))
    out.append((croscat, "ifas_compose", "count", "croscat.compose_calls",
                "croscat", None, None))
    out.append((croscat, "factorize_ifas", "count", "croscat.factorize_calls",
                "croscat", None, None))
    return out


def pass_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass (overhead is added by the caller,
    which also holds the untraced passes)."""
    spans = tracer.spans
    self_t = tracer.self_times()
    m = {name: 0.0 if unit == "s" else 0
         for name, (unit, _) in PER_LAYER.items() if name != "trace.overhead_s"}
    for name, group in TIMED.items():
        m[name] = tracer.outermost_time(group)
    for s in spans:
        a, dur = s["attrs"], s["end"] - s["start"]
        m[f"{s['layer']}.self_s"] += self_t[s["id"]]
        if s["name"] == "homology.field_rank":
            m[f"homology.field_rank_s.{a['kind']}"] += dur
            m["homology.rank_cols"] += a["cols"]
            m["homology.rank_nnz_in"] += a["nnz"]
        elif s["name"] == "homology.diagonalize_integer_matrix":
            m["homology.snf_dense_cells"] += a["cells"]
        elif s["name"] == "homology.homology_over_Z":
            m["homology.over_z_calls"] += 1
        elif s["name"] == "complexes.build_gz_complex":
            m["complexes.generators"] += a["generators"]
            m["complexes.boundary_nnz"] += a["nnz"]
        elif s["name"] == "barfun.BarFunctor.evaluate":
            m["barfun.evaluate_calls"] += 1
            m["barfun.evaluate_misses"] += a["miss"]
        elif s["name"] == "matrices.SparseMatrix.matmul":
            m["matrices.matmul_calls"] += 1
    calls = m["barfun.evaluate_calls"]
    m["barfun.memo_hit_ratio"] = \
        (calls - m["barfun.evaluate_misses"]) / calls if calls else 0.0
    m["croscat.compose_calls"] = tracer.counts.get("croscat.compose_calls", 0)
    m["croscat.factorize_calls"] = tracer.counts.get("croscat.factorize_calls", 0)
    m["trace.spans"] = len(spans)
    return m


def check_accounting(tracer, tolerance=1e-6):
    """Per job, the self times of all spans must add up to the job's
    ``cli.run`` span; returns the largest discrepancy in seconds."""
    self_t = tracer.self_times()
    root, total = {}, {}
    for s in tracer.spans:
        if s["parent"] is None:
            if s["name"] != "cli.run":
                raise RuntimeError(f"span {s['name']} outside any job")
            root[s["job"]] = root.get(s["job"], 0.0) + s["end"] - s["start"]
        total[s["job"]] = total.get(s["job"], 0.0) + self_t[s["id"]]
    worst = max((abs(root[j] - total[j]) for j in root), default=0.0)
    if worst > tolerance:
        raise RuntimeError(f"self times miss a job span by {worst:.3g} s")
    return worst
