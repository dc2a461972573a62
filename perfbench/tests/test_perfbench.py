"""The benchmark's own checks: seeded generators, known answers, metric names, isolation.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
from baseline import EXPECTATIONS  # noqa: E402
import workloads  # noqa: E402
from runner import run_op  # noqa: E402
from tracing import LAYER_METRICS, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (0, 1, 7, 12345)


def _pass_text(workload: str, seed: int, pass_index: int, workdir: Path) -> list:
    """A pass with paths made relative and every generated file's contents inlined."""
    out = []
    for op in workloads.build_pass(workload, seed, pass_index, workdir):
        argv = []
        for arg in op.argv:
            path = Path(arg)
            argv.append(("file", path.name, path.read_text()) if path.parent == workdir else arg)
        out.append((op.label, tuple(argv), op.expect_exit, op.expect_values, op.expect_abs, op.expect_vf))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for seed in SEEDS:
        assert _pass_text(workload, seed, 0, a) == _pass_text(workload, seed, 0, b)
    assert _pass_text(workload, 1, 0, a) != _pass_text(workload, 2, 0, a)


def _log_canonical_matrix(text: str) -> tuple[int, dict, int]:
    """Back from chart text to (dim, c, constant added to {y1, y2})."""
    dim = int(re.search(r"^dim (\d+)$", text, re.M).group(1))
    c = {(i, j): 0 for i in range(dim) for j in range(i + 1, dim)}
    constant = 0
    for i, j, expr in re.findall(r"^bracket y(\d+) y(\d+) = (.*)$", text, re.M):
        for term in re.findall(r"[+-]?[^+-]+", expr.replace(" ", "")):
            m = re.fullmatch(r"([+-]?)(\d*)\*?y\d+\*y\d+", term)
            if m:
                c[(int(i) - 1, int(j) - 1)] = (-1 if m.group(1) == "-" else 1) * int(m.group(2) or 1)
            else:
                constant = int(term)
    return dim, c, constant


def test_known_bad_charts_break_jacobi(tmp_path):
    for seed in range(40):
        for op in workloads.build_pass("symbolic-charts", seed, 0, tmp_path):
            if op.label.startswith("check jacobi logcan") and op.label.endswith(" bad"):
                dim, c, constant = _log_canonical_matrix(Path(op.argv[-1]).read_text())
                assert constant != 0
                assert any(workloads.entry(c, 0, k) + workloads.entry(c, 1, k) != 0 for k in range(2, dim))
                assert op.expect_exit == 1


def test_log_canonical_answers_follow_from_the_matrix(tmp_path):
    ops = workloads.build_pass("symbolic-charts", 3, 0, tmp_path)
    for op in ops:
        if op.label.startswith("modular vf logcan"):
            dim, c, constant = _log_canonical_matrix(Path(op.argv[-1]).read_text())
            assert constant == 0
            rows = {f"y{i + 1}": sum(workloads.entry(c, i, k) for k in range(dim)) for i in range(dim)}
            assert op.expect_vf == {name: s for name, s in rows.items() if s}
        if "cyclic product" in op.label:
            dim, c, _ = _log_canonical_matrix(Path(op.argv[2]).read_text())
            assert not any(workloads.column_sums(c, dim))
        if "product (not Casimir)" in op.label:
            dim, c, _ = _log_canonical_matrix(Path(op.argv[2]).read_text())
            assert any(workloads.column_sums(c, dim))


def test_parse_linear_vf():
    assert workloads.parse_linear_vf("0") == {}
    assert workloads.parse_linear_vf("(-y1) d/dy1 + (-y2) d/dy2 + (2*y3) d/dy3") == {"y1": -1, "y2": -1, "y3": 2}
    assert workloads.parse_linear_vf("(y1*y2) d/dy1") is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_operation_has_a_known_answer(workload, tmp_path):
    headline = {"lie bialgebra": "double_dim", "oracle": "mismatches", "group stokes": "kappa",
                "lie validate": "dim"}
    for seed in SEEDS:
        for op in workloads.build_pass(workload, seed, 0, tmp_path):
            assert op.expect_exit in (0, 1), op.label
            for prefix, key in headline.items():
                if op.label.startswith(prefix):
                    assert key in op.expect_values or key in op.expect_abs, op.label
    labels = [op.label for op in workloads.build_pass(workload, 0, 0, tmp_path)]
    assert len(labels) == len(set(labels))


def test_a_flipped_answer_is_caught(tmp_path):
    op = workloads.build_pass("exact-lie", 0, 0, tmp_path)[0]
    assert workloads.check_answer(op, 0, {"dim": "8"}) is None
    assert workloads.check_answer(op, 1, {"dim": "8"}) is not None
    assert workloads.check_answer(op, 0, {"dim": "9"}) is not None


def test_tail_has_ten_operations_above_it():
    values = [float(v) for v in range(36)]
    value, percentile = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 26 / 36)


def test_speed_correction():
    speed = hostspeed.SpeedProbe()
    ref = hostspeed.REFERENCE_PROBE_S
    # a host twice as slow as the reference; one probe cut by a context switch is left out
    speed.bracket = [2 * ref] * 16
    speed.during = [2 * ref] * 9 + [40 * ref]
    assert speed.factor() == pytest.approx(0.5)
    assert speed.correct(1.0) == pytest.approx((1.0 - 58 * ref) * 0.5)


def test_speed_probe_samples_and_restores_the_timer():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    speed = hostspeed.SpeedProbe()
    speed.start()
    end = time.process_time() + 0.1
    while time.process_time() < end:
        pass
    speed.stop()
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(speed.bracket) == 2 * hostspeed.BRACKET_PROBES
    assert len(speed.during) >= 3
    assert speed.factor() > 0


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(LAYER_METRICS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "pass_s", "verdict_p50_s", "verdict_tail_s", "peak_rss_mb"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    expected = {name for row in EXPECTATIONS for name in row["layers"]}
    assert expected <= {name for name, _ in LAYER_METRICS}


def test_layer_metrics_self_time():
    # run_command [0, 10] > sl_chevalley [1, 7] > solve [2, 5]; chi_check [8, 9]
    spans = [("cli.run_command", 0.0, 10.0, -1), ("liealg.sl_chevalley", 1.0, 7.0, 0),
             ("linalg.solve", 2.0, 5.0, 1), ("liealg.chi_check", 8.0, 9.0, 0)]
    trace = {"spans": spans, "scalar_ops": 4, "scalar_mul": 2, "scalar_mul_zero": 1, "samples": 0, "errors": {}}
    metrics, top = layer_metrics([trace], traced_pass_s=12.0, untraced_pass_s=10.0)
    assert metrics["cli.run_command.self_s"] == pytest.approx(3.0)
    assert metrics["linalg.solve.self_s"] == pytest.approx(3.0)
    assert metrics["liealg.build.total_s"] == pytest.approx(6.0)
    assert metrics["liealg.builds"] == 1
    assert metrics["exactalg.scalar_mul.zero_share"] == pytest.approx(0.5)
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.2)
    assert top[0][1] == pytest.approx(3.0)


@pytest.fixture(scope="module")
def program():
    run.import_program()


def _builds(argv: list[str]) -> int:
    result = run_op(argv, traced=True)
    assert result["exit"] == 0
    return sum(1 for name, *_ in result["trace"]["spans"] if name in ("liealg.sl_chevalley", "liealg.su_compact_basis"))


def test_operations_are_isolated(program):
    argv = ["lie", "bialgebra", "--algebra", "su3"]
    first = _builds(argv)
    for heavy in (["lie", "bialgebra", "--algebra", "sl4"], ["lie", "validate", "su3"], argv):
        assert run_op(heavy)["exit"] == 0
    assert _builds(argv) == first > 0


def test_only_untraced_operations_are_corrected(program):
    plain = run_op(["lie", "validate", "sl3"])
    traced = run_op(["lie", "validate", "sl3"], traced=True)
    assert plain["exit"] == traced["exit"] == 0
    assert plain["verdict_s"] > 0 and "verdict_s" not in traced


def test_tracer_restores_the_program(program):
    from poissonkit import exactalg, groupnum, liealg
    from tracing import Tracer

    before = (liealg.sl_chevalley, groupnum.sl_chevalley, exactalg.Scalar.__dict__["__mul__"])
    tracer = Tracer()
    tracer.install()
    assert groupnum.sl_chevalley is liealg.sl_chevalley is not before[0]
    liealg.builtin_algebra("sl2")
    tracer.remove()
    assert (liealg.sl_chevalley, groupnum.sl_chevalley, exactalg.Scalar.__dict__["__mul__"]) == before
    names = [span[0] for span in tracer.spans]
    assert names[0] == "liealg.sl_chevalley" and "linalg.solve" in names
    assert tracer.scalar_ops > 0


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass_prints_declared_metrics(trace):
    proc = _bench("--workload", "symbolic-charts", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split()[0] for line in lines[1:-1] if re.fullmatch(r"\S+ \S+ \S+", line)}
    # the two rates are zero on a correct program, so they are printed but gated by "correct" instead
    assert printed == set(declared) | {"wrong_verdict_rate", "error_rate"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "exact-lie", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
