"""Command-line front end.

Subcommand tree: check | dirac | modular | lie | group | dynr | oracle.
Exit codes: 0 on pass, 1 on a verification failure, 2 on usage or parse
errors.  ``--porcelain`` switches to machine-readable ``key=value`` lines;
reports are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import chartio, dirac, dynr, groupnum, liealg, poisson
from .exactalg import ParseError, Scalar, parse_poly, parse_scalar, print_poly
from .oracle import alg_schouten_oracle, schouten_oracle

__all__ = ["Report", "run_command", "main"]


@dataclass
class Report:
    command: str
    passed: bool
    values: dict = field(default_factory=dict)
    witness: str | None = None
    seed: int | None = None

    def lines(self, porcelain: bool) -> list[str]:
        items = dict(self.values)
        if self.seed is not None:
            items["seed"] = self.seed
        if self.witness is not None:
            items["witness"] = self.witness
        items["pass"] = self.passed
        if porcelain:
            return [f"{k}={v}" for k, v in items.items()]
        width = max(len(str(k)) for k in items)
        out = [f"[{self.command}]"]
        out += [f"  {k:<{width}}  {v}" for k, v in items.items()]
        return out


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 without argparse's sys.exit noise
        raise _UsageError(message)


def _int_in_range(low: int, high: int | None = None):
    """argparse type for an int of at least ``low`` and, if given, at most ``high``;
    outside that range a command would check nothing or reject its input."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_sample_count = _int_in_range(1)  # --samples, --pairs, --dim
_degree = _int_in_range(0)
_group_n = _int_in_range(2, groupnum.N_CAP)  # group crosscheck|bruhat --n


def _build_parser() -> _Parser:
    top = _Parser(prog="poissonkit", description=__doc__)
    top.add_argument("--porcelain", action="store_true", help="machine-readable key=value output")
    sub = top.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="chart-level checks").add_subparsers(dest="sub", required=True)
    p = check.add_parser("jacobi", help="verify [pi, pi] = 0 for a chart file")
    p.add_argument("chart")
    p = check.add_parser("casimir", help="verify a polynomial is a Casimir")
    p.add_argument("chart")
    p.add_argument("--f", required=True, help="polynomial over the chart coordinates")
    p = check.add_parser("bracket", help="print {f, g}")
    p.add_argument("chart")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    dsub = sub.add_parser("dirac", help="Dirac-submanifold criteria").add_subparsers(dest="sub", required=True)
    p = dsub.add_parser("aligned", help="aligned criterion for Q = {y = 0}")
    p.add_argument("chart")
    p.add_argument("--x", help="comma-separated Q coordinates (overrides the file)")
    p.add_argument("--skip-jacobi", action="store_true", help="trust the file to be Poisson")
    p = dsub.add_parser("fixed-locus", help="fixed locus of a linear Poisson involution")
    p.add_argument("chart")
    p.add_argument("--matrix", required=True, help="rows 'a,b;c,d' of an exact involution")
    p.add_argument("--skip-jacobi", action="store_true", help="trust the file to be Poisson")
    p = dsub.add_parser("affine-lie", help="affine subspace of a Lie-Poisson dual")
    p.add_argument("--algebra", required=True)
    p.add_argument("--l", required=True, help="comma-separated basis labels of l")
    p.add_argument("--m", required=True, help="comma-separated basis labels of m")
    p.add_argument("--mu", required=True, help="comma-separated exact covector entries")
    p = dsub.add_parser("slice", help="leaf-slice coboundary obstruction")
    p.add_argument("chart")
    p.add_argument("--t", required=True, help="comma-separated parameter coordinates")
    p.add_argument("--t0", required=True, help="comma-separated exact parameter values")
    p.add_argument("--degree", type=_degree, default=1)
    p = dsub.add_parser("transverse", help="transverse structure via a reductive split")
    p.add_argument("--algebra", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--mu", required=True)

    msub = sub.add_parser("modular", help="modular vector fields").add_subparsers(dest="sub", required=True)
    p = msub.add_parser("vf", help="modular vector field of a chart")
    p.add_argument("chart")
    p.add_argument("--skip-jacobi", action="store_true", help="trust the file to be Poisson")
    p = msub.add_parser("relative", help="relative modular field of an aligned submanifold")
    p.add_argument("chart")
    p.add_argument("--x", help="comma-separated Q coordinates (overrides the file)")
    p.add_argument("--skip-jacobi", action="store_true", help="trust the file to be Poisson")

    lsub = sub.add_parser("lie", help="Lie-algebra checks").add_subparsers(dest="sub", required=True)
    p = lsub.add_parser("validate", help="antisymmetry + Jacobi for an algebra")
    p.add_argument("algebra")
    p = lsub.add_parser("bialgebra", help="r-matrix, anti-morphism, double and chi checks")
    p.add_argument("--algebra", required=True, choices=["sl2", "sl3", "sl4", "su2", "su3"])

    gsub = sub.add_parser("group", help="matrix-group numerics").add_subparsers(dest="sub", required=True)
    for name, help_text in (
        ("stokes", "Stokes-matrix bracket from the dual group"),
        ("crosscheck", "two-route fixed-locus tensor on SL(n, R)"),
        ("bruhat", "two-route fixed-locus tensor on SU(n)"),
    ):
        p = gsub.add_parser(name, help=help_text)
        if name == "stokes":
            p.add_argument("--n", type=int, default=3, choices=[3])
        else:
            p.add_argument("--n", type=_group_n, default=3)
        p.add_argument("--samples", type=_sample_count, default=20 if name == "stokes" else 10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("dynr", help="dynamical r-matrix checks").add_subparsers(dest="sub", required=True)
    q = p.add_parser("cdybe", help="residual constancy, invariance, gradient check")
    q.add_argument("--algebra", required=True, choices=["sl2", "sl3", "sl4"])
    q.add_argument("--family", default="trig", choices=["trig", "rational", "tanh-corrupted"])
    q.add_argument("--samples", type=_sample_count, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--tol", type=float, default=1e-7)

    osub = sub.add_parser("oracle", help="brute-force cross-checks").add_subparsers(dest="sub", required=True)
    p = osub.add_parser("schouten", help="chart bracket vs monomial-expansion oracle")
    p.add_argument("--dim", type=_sample_count, default=3)
    p.add_argument("--pairs", type=_sample_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p = osub.add_parser("alg", help="algebraic bracket vs recursive-Leibniz oracle")
    p.add_argument("--algebra", default="sl2")
    p.add_argument("--pairs", type=_sample_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    return top


def _split_csv(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _coord_indices(chart, text: str, flag: str) -> list[int]:
    """Indices of the comma-separated coordinate names given to ``flag``."""
    names = _split_csv(text)
    unknown = [n for n in names if n not in chart.coords]
    if unknown:
        raise _UsageError(f"unknown coordinate {unknown[0]!r} in {flag}; the chart has {', '.join(chart.coords)}")
    return [chart.coords.index(n) for n in names]


def _load_chart(args, need_sub: bool = False):
    chart, sub = chartio.parse_chart_file(args.chart, check_jacobi=not getattr(args, "skip_jacobi", False))
    x_override = getattr(args, "x", None)
    if x_override:
        xs = tuple(_coord_indices(chart, x_override, "--x"))
        ys = tuple(i for i in range(chart.dim) if i not in xs)
        sub = dirac.AlignedSubmanifold(chart, xs, ys)
    if need_sub and sub is None:
        raise _UsageError("chart file has no submanifold block; pass --x")
    return chart, sub


def _dispatch(args) -> Report:
    cmd = f"{args.command} {args.sub}"

    if args.command == "check":
        chart, _ = chartio.parse_chart_file(args.chart, check_jacobi=False)
        if args.sub == "jacobi":
            jac = poisson.jacobiator(chart)
            report = Report(cmd, jac.is_zero(), {"chart": args.chart, "jacobiator": "0" if jac.is_zero() else "nonzero"})
            if not jac.is_zero():
                key, witness = sorted(jac.comps.items())[0]
                names = ",".join(chart.coords[i] for i in key)
                report.witness = f"({names}): {print_poly(witness, chart.coords)}"
            return report
        f = parse_poly(args.f, chart.coords)
        if args.sub == "casimir":
            verdict = poisson.is_casimir(chart, f)
            report = Report(cmd, verdict.ok, {"chart": args.chart, "f": args.f})
            if not verdict.ok:
                report.witness = (
                    f"X_f({chart.coords[verdict.witness_index]}) = {print_poly(verdict.witness, chart.coords)}"
                )
            return report
        g = parse_poly(args.g, chart.coords)
        value = poisson.bracket(chart, f, g)
        return Report(cmd, True, {"bracket": print_poly(value, chart.coords)})

    if args.command == "dirac":
        if args.sub == "aligned":
            _, sub = _load_chart(args, need_sub=True)
            verdict = dirac.check_aligned_dirac(sub)
            report = Report(cmd, verdict.ok, {"chart": args.chart})
            if verdict.ok:
                induced = dirac.induced_poisson(sub)
                report.values["induced"] = chartio.emit_chart(induced).replace("\n", "; ").rstrip("; ")
            else:
                report.witness = f"{verdict.reason}: {print_poly(verdict.witness, sub.chart.coords)}"
            return report
        if args.sub == "fixed-locus":
            chart, _ = chartio.parse_chart_file(args.chart, check_jacobi=not args.skip_jacobi)
            rows = [[parse_scalar(v) for v in row.split(",")] for row in args.matrix.split(";")]
            s = dirac.LinearInvolution.from_rows(rows)
            sub, induced = dirac.fixed_locus_symbolic(chart, s)
            return Report(cmd, True, {
                "fixed_dim": len(sub.x_indices),
                "induced": chartio.emit_chart(induced).replace("\n", "; ").rstrip("; "),
            })
        if args.sub in ("affine-lie", "transverse"):
            g = chartio.load_algebra(args.algebra)
            l_basis = _split_csv(args.l)
            m_basis = _split_csv(args.m)
            mu = [parse_scalar(v) for v in _split_csv(args.mu)]
            if args.sub == "affine-lie":
                verdict = dirac.affine_lie_poisson_dirac(g, l_basis, m_basis, mu)
                report = Report(cmd, verdict.ok, {"algebra": args.algebra})
                if verdict.ok:
                    report.values["induced"] = chartio.emit_chart(verdict.induced).replace("\n", "; ").rstrip("; ")
                else:
                    report.witness = verdict.reason
                return report
            chart = dirac.transverse_from_reductive(g, l_basis, m_basis, mu)
            return Report(cmd, True, {
                "algebra": args.algebra,
                "transverse": chartio.emit_chart(chart).replace("\n", "; ").rstrip("; "),
            })
        chart, _ = chartio.parse_chart_file(args.chart, check_jacobi=False)
        t_names = _split_csv(args.t)
        ts = _coord_indices(chart, args.t, "--t")
        t0 = [parse_scalar(v) for v in _split_csv(args.t0)]
        report_obj = dirac.leaf_slice_obstruction(chart, ts, t0, args.degree)
        report = Report(cmd, report_obj.solvable, {"degree_bound": args.degree})
        if report_obj.solvable:
            xs = [c for i, c in enumerate(chart.coords) if i not in ts]
            for pos, w in enumerate(report_obj.witnesses):
                parts = [f"({print_poly(p, xs)}) d/d{xs[i[0]]}" for i, p in sorted(w.comps.items())] or ["0"]
                report.values[f"X_{t_names[pos]}"] = " + ".join(parts)
        else:
            report.values["status"] = f"unsolvable up to degree {args.degree} (not a proof of non-existence)"
            report.passed = False
        return report

    if args.command == "modular":
        if args.sub == "vf":
            chart, _ = chartio.parse_chart_file(args.chart, check_jacobi=not args.skip_jacobi)
            nu = poisson.modular_vf(chart)
            parts = [f"({print_poly(p, chart.coords)}) d/d{chart.coords[i[0]]}" for i, p in sorted(nu.comps.items())]
            return Report(cmd, True, {"modular_vf": " + ".join(parts) or "0"})
        chart, sub = _load_chart(args, need_sub=True)
        rel = poisson.relative_modular(chart, sub)
        names = rel.chart_q.coords

        def show(mv):
            parts = [f"({print_poly(p, names)}) d/d{names[i[0]]}" for i, p in sorted(mv.comps.items())]
            return " + ".join(parts) or "0"

        return Report(cmd, rel.relation_holds, {
            "nu_r": show(rel.nu_r),
            "pr_nu_P": show(rel.pr_nu_p),
            "nu_Q": show(rel.nu_q),
            "relation nu_r = pr nu_P - nu_Q": rel.relation_holds,
        })

    if args.command == "lie":
        if args.sub == "validate":
            g = chartio.load_algebra(args.algebra)
            verdict = liealg.validate_lie(g)
            return Report(cmd, verdict.ok, {"algebra": args.algebra, "dim": g.dim},
                          witness=None if verdict.ok else verdict.reason)
        if args.algebra.startswith("su"):
            g, r = liealg.su_compact_basis(int(args.algebra[2:]))
        else:
            g = chartio.load_algebra(args.algebra)
            r = liealg.standard_r_matrix(g)
        phi = liealg.transpose_antimorphism(g)
        cob = liealg.coboundary_check(g, r)
        sym = liealg.symmetric_bialgebra_check(g, r, phi)
        double = liealg.drinfeld_double(g, r)
        chi = liealg.chi_check(double, phi)
        ok = bool(cob and sym and chi)
        return Report(cmd, ok, {
            "algebra": args.algebra,
            "coboundary": cob.ok,
            "symmetric": sym.ok,
            "double_dim": double.sigma.dim,
            "chi": chi.ok,
        }, witness=None if ok else (cob.reason or sym.reason or chi.reason))

    if args.command == "group":
        if args.sub == "stokes":
            rep = groupnum.stokes_report(args.n, args.samples, args.seed, args.tol)
            values = dict(item.split("=", 1) for item in rep.lines()[:-1])
            return Report(cmd, rep.ok, values, seed=args.seed)
        kind = "sl" if args.sub == "crosscheck" else "su"
        rep = groupnum.crosscheck_report(kind, args.samples, args.seed, args.tol, args.n)
        values = dict(item.split("=", 1) for item in rep.lines()[:-1])
        return Report(cmd, rep.ok, values, seed=args.seed)

    if args.command == "dynr":
        g = chartio.load_algebra(args.algebra)
        family = dynr.DynamicalRFamily(g, args.family)
        rep = dynr.residual_scan(family, args.samples, args.seed, args.tol)
        return Report(cmd, rep.ok, {
            "algebra": args.algebra,
            "family": args.family,
            "spread": repr(rep.spread),
            "invariance_defect": repr(rep.invariance_defect),
            "derivative_defect": repr(rep.derivative_defect),
            "tol": repr(args.tol),
        }, seed=args.seed)

    if args.command == "oracle":
        import random

        rng = random.Random(args.seed)
        if args.sub == "schouten":
            from .exactalg import Poly, PolyMultiVec, schouten
            import itertools

            def rand_poly():
                terms = {}
                for _ in range(rng.randint(0, 3)):
                    exps = [0] * args.dim
                    for _ in range(rng.randint(0, 2)):
                        exps[rng.randrange(args.dim)] += 1
                    terms[tuple(exps)] = Scalar(rng.randint(-3, 3))
                return Poly(args.dim, terms)

            def rand_mv(deg):
                comps = {}
                for idxs in itertools.combinations(range(args.dim), deg):
                    if rng.random() < 0.7:
                        comps[idxs] = rand_poly()
                return PolyMultiVec(args.dim, deg, comps)

            mismatches = 0
            for _ in range(args.pairs):
                a = rand_mv(rng.randint(0, 2))
                b = rand_mv(rng.randint(0, 2))
                if not (schouten(a, b) - schouten_oracle(a, b)).is_zero():
                    mismatches += 1
            return Report(cmd, mismatches == 0, {"pairs": args.pairs, "mismatches": mismatches}, seed=args.seed)

        g = chartio.load_algebra(args.algebra)
        import itertools

        def rand_elem(deg):
            comps = {}
            for idxs in itertools.combinations(range(g.dim), deg):
                if rng.random() < (0.5 if g.dim < 5 else 0.15):
                    comps[idxs] = Scalar(rng.randint(-3, 3))
            return liealg.AlgElement(g, deg, comps)

        mismatches = 0
        for _ in range(args.pairs):
            a = rand_elem(rng.randint(0, 2))
            b = rand_elem(rng.randint(0, 2))
            if not (liealg.alg_schouten(a, b) - alg_schouten_oracle(a, b)).is_zero():
                mismatches += 1
        return Report(cmd, mismatches == 0, {"algebra": args.algebra, "pairs": args.pairs, "mismatches": mismatches}, seed=args.seed)

    raise _UsageError(f"unknown command {args.command!r}")


def run_command(argv: list[str]) -> tuple[int, Report | None]:
    """Execute a CLI invocation; returns (exit code, report)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2, None
    try:
        report = _dispatch(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2, None
    except (chartio.ChartFileError, ParseError, FileNotFoundError, dirac.InvalidInput) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2, None
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1, None
    for line in report.lines(args.porcelain):
        print(line)
    return (0 if report.passed else 1), report


def main() -> None:
    code, _ = run_command(sys.argv[1:])
    raise SystemExit(code)


if __name__ == "__main__":
    main()
