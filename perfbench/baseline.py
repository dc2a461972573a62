#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print every metric with its unit.

    python3 perfbench/baseline.py [--seed 1] [--out perfbench/baseline.json]

Also times the command list of the hand-measured ROADMAP baseline, so that
its table is reproduced from this harness.  With ``--out`` the results, the
host description and the layer-to-metric expectations are written as JSON.
Exits 1 when any verdict is wrong or any operation errs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
from runner import run_op
from workloads import NOMINAL_PASS_S, WORKLOADS, Op, check_answer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# The commands of the hand-measured table in ROADMAP.md; all pass by theory.
ROADMAP_OPS = (
    Op("lie validate sl4", ("lie", "validate", "sl4"), 0, {"dim": 15}),
    Op("lie bialgebra su3", ("lie", "bialgebra", "--algebra", "su3"), 0, {"double_dim": 16, "chi": True}),
    Op("lie bialgebra sl4", ("lie", "bialgebra", "--algebra", "sl4"), 0, {"double_dim": 30, "chi": True}),
    Op("dynr cdybe sl4", ("dynr", "cdybe", "--algebra", "sl4"), 0),
    Op("group crosscheck n5 3", ("group", "crosscheck", "--n", "5", "--samples", "3"), 0),
    Op("group stokes 20", ("group", "stokes"), 0, expect_abs={"kappa": (2.0, 1e-6)}),
    Op("oracle schouten dim5", ("oracle", "schouten", "--dim", "5"), 0, {"mismatches": 0}),
)
ROADMAP_REPEATS = 3

# Which per-layer metrics should move which end-to-end metric, on which workload.
EXPECTATIONS = (
    {
        "layers": ["exactalg.scalar_ops", "exactalg.scalar_mul.zero_share", "linalg.solve.calls",
                   "linalg.solve.self_s", "linalg.rref.self_s", "linalg.nullspace.self_s", "linalg.inverse.self_s",
                   "liealg.builds", "liealg.build.total_s", "liealg.validate_lie.self_s",
                   "liealg.coboundary_check.self_s", "liealg.symmetric_bialgebra_check.self_s",
                   "liealg.drinfeld_double.self_s", "liealg.chi_check.self_s", "liealg.alg_schouten.calls",
                   "liealg.alg_schouten.self_s", "oracle.alg_schouten_oracle.self_s"],
        "moves": {"exact-lie": ["pass_s", "verdict_tail_s"], "numeric-group": ["pass_s (slightly)"],
                  "symbolic-charts": []},
    },
    {
        "layers": ["exactalg.schouten.calls", "exactalg.schouten.self_s", "exactalg.parse_poly.self_s",
                   "oracle.schouten_oracle.self_s", "poisson.jacobiator.self_s", "poisson.modular_vf.self_s",
                   "poisson.is_casimir.self_s", "poisson.relative_modular.self_s",
                   "dirac.check_aligned_dirac.self_s", "dirac.fixed_locus_symbolic.self_s",
                   "dirac.leaf_slice_obstruction.self_s", "dirac.affine_lie_poisson_dirac.self_s",
                   "dirac.transverse_from_reductive.self_s"],
        "moves": {"exact-lie": [], "numeric-group": [], "symbolic-charts": ["pass_s"]},
    },
    {
        "layers": ["chartio.parse_chart_file.self_s", "chartio.load_algebra.self_s", "cli.run_command.self_s"],
        "moves": {"symbolic-charts": ["verdict_p50_s"]},
    },
    {
        "layers": ["groupnum.group_build.total_s", "groupnum.samples", "groupnum.per_sample_ms",
                   "groupnum.pl_bivector.self_s", "groupnum.pi_q_projection.self_s",
                   "groupnum.pi_q_formula.self_s", "groupnum.rank_relation_holds.self_s",
                   "groupnum.dual_group_bivector.self_s", "groupnum.report.self_s", "dynr.residual_scan.self_s",
                   "dynr.cdybe_residual.self_s", "dynr.r_derivative.self_s", "dynr.eval_r.self_s"],
        "moves": {"exact-lie": [], "numeric-group": ["pass_s"], "symbolic-charts": []},
    },
)


def host() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    import numpy
    import scipy

    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "machine": platform.machine()}


def roadmap_rows() -> tuple[list[dict], list[str]]:
    rows, failures = [], []
    for op in ROADMAP_OPS:
        walls, times = [], []
        for _ in range(ROADMAP_REPEATS):
            result = run_op(list(op.argv), timeout_s=run.OP_TIMEOUT_S)
            why = result.get("error") or check_answer(op, result["exit"], result.get("values", {}))
            if why:
                failures.append(f"{op.label}: {why}")
            walls.append(result["elapsed_s"])
            times.append(result.get("verdict_s", result["elapsed_s"]))
        # median_s is wall time, as in the hand-measured table; verdict_median_s is at reference host speed
        rows.append({"command": " ".join(op.argv), "median_s": statistics.median(walls),
                     "verdict_median_s": statistics.median(times), "samples": len(times)})
    return rows, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    run.import_program()

    seconds = SPEC["run_seconds"]
    # untraced runs first: a later fork inherits the parent's memory, and the
    # traced runs leave their spans in it
    plain = {w: run.measure(w, args.seed, seconds, traced=False) for w in WORKLOADS}
    traced = {w: run.measure(w, args.seed, seconds, traced=True) for w in WORKLOADS}
    results, failures = {}, []
    for workload in WORKLOADS:
        for measured in (plain[workload], traced[workload]):
            print("\n".join(run.report_lines(measured)) + "\n")
            failures += measured["failures"]
        untraced = plain[workload]
        results[workload] = {
            "passes": max(1, round(seconds / NOMINAL_PASS_S[workload])),
            "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in untraced["metrics"].items()},
            "wrong_verdict_rate": untraced["wrong_verdict_rate"],
            "error_rate": untraced["error_rate"],
            "notes": untraced["notes"],
            "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in traced[workload]["metrics"].items()},
            "top_self_time_s": traced[workload]["top_self_time"],
            "operations": [{"label": label, "median_s": statistics.median(t), "samples": len(t)}
                           for label, t in untraced["op_times"].items()],
        }
    rows, roadmap_failures = roadmap_rows()
    failures += roadmap_failures
    print(f"ROADMAP commands (median time-to-verdict of {ROADMAP_REPEATS} forked runs, wall and corrected):")
    for row in rows:
        print(f"  {row['command']:<45} {row['median_s']:.4f} s  {row['verdict_median_s']:.4f} s  "
              f"(n={row['samples']})")

    if args.out:
        args.out.write_text(json.dumps({
            "host": host(),
            "seed": args.seed,
            "run_seconds": seconds,
            "expectations": EXPECTATIONS,
            "workloads": results,
            "roadmap_commands": rows,
        }, indent=1) + "\n")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
