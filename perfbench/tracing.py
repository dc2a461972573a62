"""Spans and counters recorded from outside poissonkit.

A ``Tracer`` replaces the public functions listed in ``SPANNED`` with
wrappers, in every poissonkit module namespace that binds the same function
object (``schouten`` is bound in exactalg, poisson, dirac and cli;
``sl_chevalley`` in liealg and groupnum), and replaces ``Scalar``'s arithmetic
dunders with counting wrappers.  ``remove`` puts every original back.

Each span is (name, start, end, parent index); spans stay in memory until the
caller collects them.  ``layer_metrics`` turns the spans and counters of a
traced pass into the per-layer metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

MODULES = ("exactalg", "linalg", "oracle", "poisson", "dirac", "liealg", "groupnum", "dynr", "chartio", "cli")

SPANNED = {
    "exactalg": ("schouten", "parse_poly"),
    "linalg": ("solve", "rref", "nullspace", "inverse"),
    "oracle": ("schouten_oracle", "alg_schouten_oracle"),
    "poisson": ("jacobiator", "modular_vf", "is_casimir", "relative_modular"),
    "dirac": ("check_aligned_dirac", "fixed_locus_symbolic", "leaf_slice_obstruction",
              "affine_lie_poisson_dirac", "transverse_from_reductive"),
    "liealg": ("sl_chevalley", "su_compact_basis", "validate_lie", "coboundary_check",
               "symmetric_bialgebra_check", "drinfeld_double", "chi_check", "alg_schouten"),
    "groupnum": ("sl_group", "su_group", "dual_group", "pl_bivector", "pi_q_projection", "pi_q_formula",
                 "rank_relation_holds", "dual_group_bivector", "crosscheck_report", "stokes_report"),
    "dynr": ("residual_scan", "cdybe_residual", "r_derivative", "eval_r"),
    "chartio": ("parse_chart_file", "load_algebra"),
    "cli": ("run_command",),
}

SCALAR_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__neg__", "__pow__")

BUILDS = ("liealg.sl_chevalley", "liealg.su_compact_basis")
GROUP_BUILDS = ("groupnum.sl_group", "groupnum.su_group", "groupnum.dual_group")
REPORTS = ("groupnum.crosscheck_report", "groupnum.stokes_report")

# per-layer metric -> spans whose self time it sums
SELF_TIME = {
    "linalg.solve.self_s": ("linalg.solve",),
    "linalg.rref.self_s": ("linalg.rref",),
    "linalg.nullspace.self_s": ("linalg.nullspace",),
    "linalg.inverse.self_s": ("linalg.inverse",),
    "liealg.validate_lie.self_s": ("liealg.validate_lie",),
    "liealg.coboundary_check.self_s": ("liealg.coboundary_check",),
    "liealg.symmetric_bialgebra_check.self_s": ("liealg.symmetric_bialgebra_check",),
    "liealg.drinfeld_double.self_s": ("liealg.drinfeld_double",),
    "liealg.chi_check.self_s": ("liealg.chi_check",),
    "liealg.alg_schouten.self_s": ("liealg.alg_schouten",),
    "oracle.alg_schouten_oracle.self_s": ("oracle.alg_schouten_oracle",),
    "exactalg.schouten.self_s": ("exactalg.schouten",),
    "exactalg.parse_poly.self_s": ("exactalg.parse_poly",),
    "oracle.schouten_oracle.self_s": ("oracle.schouten_oracle",),
    "poisson.jacobiator.self_s": ("poisson.jacobiator",),
    "poisson.modular_vf.self_s": ("poisson.modular_vf",),
    "poisson.is_casimir.self_s": ("poisson.is_casimir",),
    "poisson.relative_modular.self_s": ("poisson.relative_modular",),
    "dirac.check_aligned_dirac.self_s": ("dirac.check_aligned_dirac",),
    "dirac.fixed_locus_symbolic.self_s": ("dirac.fixed_locus_symbolic",),
    "dirac.leaf_slice_obstruction.self_s": ("dirac.leaf_slice_obstruction",),
    "dirac.affine_lie_poisson_dirac.self_s": ("dirac.affine_lie_poisson_dirac",),
    "dirac.transverse_from_reductive.self_s": ("dirac.transverse_from_reductive",),
    "chartio.parse_chart_file.self_s": ("chartio.parse_chart_file",),
    "chartio.load_algebra.self_s": ("chartio.load_algebra",),
    "cli.run_command.self_s": ("cli.run_command",),
    "groupnum.pl_bivector.self_s": ("groupnum.pl_bivector",),
    "groupnum.pi_q_projection.self_s": ("groupnum.pi_q_projection",),
    "groupnum.pi_q_formula.self_s": ("groupnum.pi_q_formula",),
    "groupnum.rank_relation_holds.self_s": ("groupnum.rank_relation_holds",),
    "groupnum.dual_group_bivector.self_s": ("groupnum.dual_group_bivector",),
    "groupnum.report.self_s": REPORTS,
    "dynr.residual_scan.self_s": ("dynr.residual_scan",),
    "dynr.cdybe_residual.self_s": ("dynr.cdybe_residual",),
    "dynr.r_derivative.self_s": ("dynr.r_derivative",),
    "dynr.eval_r.self_s": ("dynr.eval_r",),
}

CALLS = {
    "linalg.solve.calls": "linalg.solve",
    "liealg.alg_schouten.calls": "liealg.alg_schouten",
    "exactalg.schouten.calls": "exactalg.schouten",
}

LAYER_METRICS = (
    ("exactalg.scalar_ops", "count"),
    ("exactalg.scalar_mul.zero_share", "ratio"),
    ("liealg.builds", "count/op"),
    ("liealg.build.total_s", "s"),
    ("groupnum.group_build.total_s", "s"),
    ("groupnum.samples", "count"),
    ("groupnum.per_sample_ms", "ms"),
    *((name, "count") for name in CALLS),
    *((name, "s") for name in SELF_TIME),
    *((f"{module}.errors", "count") for module in MODULES),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Installs span and counter wrappers into the loaded poissonkit modules."""

    def __init__(self):
        self.spans: list = []
        self.scalar_ops = 0
        self.scalar_mul = 0
        self.scalar_mul_zero = 0
        self.samples = 0
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._counted: list[BaseException] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [sys.modules[name] for name in sorted(sys.modules)
                   if name == "poissonkit" or name.startswith("poissonkit.")]
        for module_name, functions in SPANNED.items():
            home = importlib.import_module(f"poissonkit.{module_name}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._span_wrapper(f"{module_name}.{fn_name}", module_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        scalar = importlib.import_module("poissonkit.exactalg").Scalar
        for dunder in SCALAR_DUNDERS:
            original = scalar.__dict__[dunder]
            self._restore.append((scalar, dunder, original))
            setattr(scalar, dunder, self._count_wrapper(dunder, original, scalar))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _span_wrapper(self, name: str, module_name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_report = name in REPORTS

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if not any(err is seen for seen in self._counted):
                    self._counted.append(err)
                    self.errors[module_name] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if is_report:
                self.samples += result.samples
            return result

        return functools.wraps(fn)(wrapper)

    def _count_wrapper(self, dunder: str, fn, scalar: type):
        def is_zero(value) -> bool:
            if isinstance(value, scalar):
                return not value.re and not value.im
            return value == 0

        if dunder in ("__mul__", "__rmul__"):
            def counted(a, b):
                self.scalar_ops += 1
                self.scalar_mul += 1
                if is_zero(a) or is_zero(b):
                    self.scalar_mul_zero += 1
                return fn(a, b)
        elif dunder == "__neg__":
            def counted(a):
                self.scalar_ops += 1
                return fn(a)
        else:
            def counted(a, b):
                self.scalar_ops += 1
                return fn(a, b)
        counted.__name__ = dunder
        return counted

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "scalar_ops": self.scalar_ops,
            "scalar_mul": self.scalar_mul,
            "scalar_mul_zero": self.scalar_mul_zero,
            "samples": self.samples,
            "errors": dict(self.errors),
        }


def span_self_times(spans: list) -> list[float]:
    """Self time of each span of one operation: duration minus its children's."""
    self_s = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def _outermost_total(spans: list, names: tuple[str, ...], within: tuple[str, ...] = ()) -> float:
    """Summed duration of spans in names not nested in another such span (and, if given, inside within)."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        inside = not within
        while parent >= 0 and spans[parent][0] not in names:
            inside = inside or spans[parent][0] in within
            parent = spans[parent][3]
        if parent < 0 and inside:
            total += end - start
    return total


def layer_metrics(traces: list[dict], traced_pass_s: float, untraced_pass_s: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, and the three spans with the most self time."""
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    builds = 0
    build_s = group_build_s = report_s = report_build_s = 0.0
    totals = defaultdict(int)
    for trace in traces:
        spans = trace["spans"]
        for (name, _, _, _), s in zip(spans, span_self_times(spans)):
            self_by_name[name] += s
            calls[name] += 1
            builds += name in BUILDS
        build_s += _outermost_total(spans, BUILDS)
        group_build_s += _outermost_total(spans, GROUP_BUILDS)
        report_s += _outermost_total(spans, REPORTS)
        report_build_s += _outermost_total(spans, GROUP_BUILDS, within=REPORTS)
        for key in ("scalar_ops", "scalar_mul", "scalar_mul_zero", "samples"):
            totals[key] += trace[key]
        for module, count in trace["errors"].items():
            totals[f"{module}.errors"] += count
    metrics = {
        "exactalg.scalar_ops": totals["scalar_ops"],
        "exactalg.scalar_mul.zero_share":
            totals["scalar_mul_zero"] / totals["scalar_mul"] if totals["scalar_mul"] else 0.0,
        "liealg.builds": builds / len(traces),
        "liealg.build.total_s": build_s,
        "groupnum.group_build.total_s": group_build_s,
        "groupnum.samples": totals["samples"],
        "groupnum.per_sample_ms": 1e3 * (report_s - report_build_s) / totals["samples"] if totals["samples"] else 0.0,
    }
    for metric, name in CALLS.items():
        metrics[metric] = calls[name]
    for metric, names in SELF_TIME.items():
        metrics[metric] = sum(self_by_name[n] for n in names)
    for module in MODULES:
        metrics[f"{module}.errors"] = totals[f"{module}.errors"]
    metrics["trace.overhead_ratio"] = traced_pass_s / untraced_pass_s
    top = sorted(self_by_name.items(), key=lambda item: -item[1])[:3]
    return metrics, top
