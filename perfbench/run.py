#!/usr/bin/env python3
"""Time-to-verdict benchmark for the poissonkit command line.

    python3 perfbench/run.py --workload exact-lie --seed 1 --seconds 20 --trace 0

Runs the workload's seeded CLI invocations through ``poissonkit.cli.run_command``
in a closed loop, one operation at a time, each in a child forked from a
parent that has only imported ``poissonkit.cli`` (see runner.py).  Every
verdict is compared with its known answer (workloads.py).  With ``--trace 0``
the last stdout line is a JSON object holding the end-to-end metrics, whose
times are corrected for the shared host's drifting speed (hostspeed.py); with
``--trace 1`` it holds the per-layer metrics of one traced pass, measured by
wrappers installed from outside ``src/`` (tracing.py).  The exit code is 1
when any verdict is wrong or any operation errs, and 2 when the program
cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One operation uses one core.  On the 2-core host the second OpenBLAS thread
# only spins over groupnum's 3x3..9x9 matrices: it doubles CPU use, adds no
# speed (group stokes --samples 200 takes 2.2 s either way) and makes wall
# time depend on the other tenants of the machine.  Set before numpy loads,
# so the parent, its forked children and the set-up interpreters all inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

from runner import run_op  # noqa: E402
from tracing import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import NOMINAL_PASS_S, WORKLOADS, build_pass, check_answer  # noqa: E402

SETUP_REPEATS = 9
OP_TIMEOUT_S = 60.0
# A run must end within 180 s even if the program becomes much slower: no pass
# starts after LAST_PASS_START_S, and no operation runs past RUN_DEADLINE_S
# (an operation cut off by either limit counts as an error).
LAST_PASS_START_S = 100.0
RUN_DEADLINE_S = 150.0


def import_program() -> None:
    """Import poissonkit.cli from the checkout's src/; the parent runs no other program code."""
    if not (SRC / "poissonkit" / "cli.py").is_file():
        raise ImportError(f"no poissonkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import poissonkit.cli  # noqa: F401


SETUP_SCRIPT = """
import json
from hostspeed import SpeedProbe
speed = SpeedProbe()
speed.start()
import poissonkit.cli
speed.stop()
print(json.dumps([sum(speed.bracket) + sum(speed.during), speed.factor()]))
"""


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Time for fresh interpreters to start and import poissonkit.cli, at reference host speed.

    Each interpreter samples the host's speed while it imports (hostspeed.py); its wall time, less
    the probes, is scaled by that.  A first, untimed interpreter writes the bytecode.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)] + ([path] if path else [])))
    cmd = [sys.executable, "-c", SETUP_SCRIPT]
    times = []
    for k in range(repeats + 1):
        start = time.perf_counter()
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True).stdout
        wall = time.perf_counter() - start
        probe_s, factor = json.loads(out.splitlines()[-1])
        if k:
            times.append((wall - probe_s) * factor)
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """The value with exactly ten operations above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Outcomes:
    """Every operation run, with its verdict checked against the known answer."""

    def __init__(self, deadline: float):
        self.deadline = deadline  # time.monotonic() after which no operation runs
        self.rows: list[tuple] = []  # (op, result, errored, why wrong or None)

    def run_pass(self, ops, traced: bool = False) -> list[dict]:
        results = []
        for op in ops:
            timeout_s = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
            if timeout_s > 0:
                result = run_op(list(op.argv), traced=traced, timeout_s=timeout_s)
            else:
                result = {"exit": None, "elapsed_s": 0.0, "peak_rss_mb": 0.0, "error": "run deadline passed"}
            result.setdefault("verdict_s", result["elapsed_s"])  # traced or unfinished: wall time only
            errored = result["exit"] is None or result["exit"] == 2
            self.rows.append((op, result, errored, check_answer(op, result["exit"], result.get("values", {}))))
            results.append(result)
        return results

    @property
    def errors(self) -> int:
        return sum(1 for _, _, errored, _ in self.rows if errored)

    @property
    def wrong(self) -> int:
        return sum(1 for _, _, errored, why in self.rows if why is not None and not errored)

    def failures(self) -> list[str]:
        return [f"{op.label}: {' '.join(op.argv)}: {result.get('error') or why}"
                for op, result, errored, why in self.rows if errored or why is not None]


def write_spans(path: Path, ops, results: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for op_id, (op, result) in enumerate(zip(ops, results)):
            for name, start, end, parent in result.get("trace", {}).get("spans", []):
                out.write(json.dumps({"op": op_id, "label": op.label, "name": name,
                                      "start": start, "end": end, "parent": parent}) + "\n")


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns metrics {name: (value, unit)}, sample notes and per-operation times."""
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    chart_dir = Path(tempfile.mkdtemp(prefix="charts-", dir=WORK))
    try:
        outcomes = Outcomes(deadline=started + RUN_DEADLINE_S)
        metrics: dict[str, tuple[float, str]] = {}
        notes: list[str] = []
        op_times: dict[str, list[float]] = {}
        top: list = []
        if traced:
            ops = build_pass(workload, seed, 0, chart_dir)
            plain = outcomes.run_pass(ops)
            spanned = outcomes.run_pass(ops, traced=True)
            plain_s = sum(r["elapsed_s"] for r in plain)
            traced_s = sum(r["elapsed_s"] for r in spanned)
            layers, top = layer_metrics([r["trace"] for r in spanned if "trace" in r], traced_s, plain_s)
            metrics = {name: (layers[name], unit) for name, unit in LAYER_METRICS}
            write_spans(WORK / "trace" / f"{workload}-seed{seed}.jsonl", ops, spanned)
            notes.append(f"traced pass of {len(ops)} operations: {traced_s:.4f} s, untraced {plain_s:.4f} s")
            notes.append("top self time: " + ", ".join(f"{name} {s:.4f} s" for name, s in top))
        else:
            setup = measure_setup()
            passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
            pass_sums, times, rss = [], [], []
            wall_s = 0.0
            for p in range(passes):
                if p and time.monotonic() - started > LAST_PASS_START_S:
                    notes.append(f"stopped after {p} of {passes} passes: time limit")
                    break
                ops = build_pass(workload, seed, p, chart_dir)
                results = outcomes.run_pass(ops)
                pass_sums.append(sum(r["verdict_s"] for r in results))
                wall_s += sum(r["elapsed_s"] for r in results)
                for op, r in zip(ops, results):
                    times.append(r["verdict_s"])
                    rss.append(r["peak_rss_mb"])
                    op_times.setdefault(op.label, []).append(r["verdict_s"])
            tail_s, tail_pct = tail(times)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "pass_s": (statistics.median(pass_sums), "s"),
                "verdict_p50_s": (statistics.median(times), "s"),
                "verdict_tail_s": (tail_s, "s"),
                "peak_rss_mb": (max(rss), "MB"),
            }
            notes.append("all times at reference host speed (hostspeed.py); "
                         f"the operations took {wall_s:.4f} s of wall time, {sum(times):.4f} s corrected")
            notes.append(f"setup_s: median of {len(setup)} interpreter starts")
            notes.append(f"pass_s: median of {len(pass_sums)} passes of {len(times) // len(pass_sums)} operations")
            notes.append(f"verdict_p50_s: median of {len(times)} operations")
            notes.append(f"verdict_tail_s: p{tail_pct:.1f} of {len(times)} operations (10 above it)")
            notes.append(f"peak_rss_mb: largest of {len(rss)} operations")
        attempted = len(outcomes.rows)
        return {
            "workload": workload,
            "seed": seed,
            "trace": int(traced),
            "metrics": metrics,
            "attempted": attempted,
            "wrong": outcomes.wrong,
            "errors": outcomes.errors,
            "wrong_verdict_rate": outcomes.wrong / attempted,
            "error_rate": outcomes.errors / attempted,
            "failures": outcomes.failures(),
            "notes": notes,
            "top_self_time": top,
            "op_times": op_times,
        }
    finally:
        shutil.rmtree(chart_dir, ignore_errors=True)


def report_lines(run: dict) -> list[str]:
    lines = [f"workload {run['workload']} seed {run['seed']} trace {run['trace']}"]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in run["metrics"].items()]
    lines.append(f"wrong_verdict_rate {run['wrong_verdict_rate']:.6g} ratio")
    lines.append(f"error_rate {run['error_rate']:.6g} ratio")
    return lines + run["notes"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as err:
        print(f"error: cannot import poissonkit.cli: {err}", file=sys.stderr)
        return 2

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(run):
        print(line)
    correct = run["wrong"] == 0 and run["errors"] == 0
    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not correct:
        print(f"INCORRECT: {run['wrong']} wrong verdicts and {run['errors']} errors "
              f"in {run['attempted']} operations", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["wrong"] + run["errors"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
