"""Command-line front end.

Subcommand tree: check | dirac | modular | lie | group | dynr | oracle.
Exit codes: 0 on pass, 1 on a verification failure (a report ending
``pass=False``), 2 on usage or input errors.  ``--porcelain`` switches to
machine-readable ``key=value`` lines; reports are deterministic for fixed
inputs and seeds.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from . import chartio, dirac, dynr, groupnum, liealg, linalg, oracle, poisson
from .exactalg import parse_poly, parse_scalar, print_poly, schouten
from .report import InvalidInput, Report

__all__ = ["run_command", "main"]


class _UsageError(Exception):
    pass


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 without argparse's sys.exit noise
        raise _UsageError(message)

    def exit(self, status=0, message=None):  # reached only from -h/--help, after the help is printed
        raise _HelpShown()


def _int_in_range(low: int, high: int | None = None):
    """argparse type for an int of at least ``low`` and, if given, at most ``high``;
    outside that range a command would check nothing or reject its input."""

    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid <__name__> value: 'text'"
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float of at least 0.  Every residual is at
    most inf, and none is at most nan or a negative value, so those check nothing."""
    value = float(text)  # argparse reports a ValueError as "invalid float value: 'text'"
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


_tolerance.__name__ = "float"
_sample_count = _int_in_range(1)  # --samples, --pairs, --dim
_nonnegative = _int_in_range(0)  # --degree, --seed
_group_n = _int_in_range(2, groupnum.N_CAP)  # group crosscheck|bruhat --n


def _split_csv(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _coord_indices(chart, text: str, flag: str) -> list[int]:
    """Indices of the comma-separated coordinate names given to ``flag``."""
    names = _split_csv(text)
    unknown = [n for n in names if n not in chart.coords]
    if unknown:
        raise _UsageError(f"unknown coordinate {unknown[0]!r} in {flag}; the chart has {', '.join(chart.coords)}")
    return [chart.coords.index(n) for n in names]


def _load_chart(args, need_sub: bool = False, check_jacobi: bool = True):
    """The chart ``args.chart`` and its aligned submanifold, a non-Poisson chart rejected
    unless ``check_jacobi`` is off (``check *`` and ``dirac slice`` read any chart)."""
    chart, sub = chartio.parse_chart_file(args.chart, check_jacobi)
    x_override = getattr(args, "x", None)
    if x_override is not None:
        xs = tuple(_coord_indices(chart, x_override, "--x"))
        if not xs:  # Q would be a point, and the criterion would check nothing
            raise InvalidInput("--x must name at least one coordinate")
        ys = tuple(i for i in range(chart.dim) if i not in xs)
        sub = dirac.AlignedSubmanifold(chart, xs, ys)
    if need_sub and sub is None:
        raise _UsageError("chart file has no submanifold block; pass --x")
    return chart, sub


def _one_line(chart) -> str:
    """A chart file on one line, its lines joined by '; '."""
    return chartio.emit_chart(chart).replace("\n", "; ").rstrip("; ")


def _vector_field(mv, names) -> str:
    """A vector field as '(p) d/dx + ...', or '0'."""
    return " + ".join(f"({print_poly(p, names)}) d/d{names[i[0]]}" for i, p in sorted(mv.comps.items())) or "0"


def _component(item, names) -> str:
    """A multivector component (index tuple, polynomial) as '(x,y,z): p'."""
    key, poly = item
    return f"({','.join(names[i] for i in key)}): {print_poly(poly, names)}"


def _reductive_split(args, check, key: str) -> Report:
    """``dirac affine-lie|transverse``: ``check`` on the algebra, l and m bases and mu, with
    the induced chart under ``key`` on success and the reason as witness on failure."""
    g = chartio.load_algebra(args.algebra)
    ls = _split_csv(args.l)
    if not ls:  # Q would be a point, and the criterion would check nothing
        raise InvalidInput("--l must name at least one basis label")
    verdict = check(g, ls, _split_csv(args.m), [parse_scalar(v) for v in _split_csv(args.mu)])
    if verdict.ok:
        return Report(True, {"algebra": args.algebra, key: _one_line(verdict.values["induced"])})
    return Report(False, {"algebra": args.algebra}, witness=verdict.reason)


# -- handlers, one per leaf command ------------------------------------------


def _check_jacobi(args) -> Report:
    chart, _ = _load_chart(args, check_jacobi=False)
    jac = poisson.jacobiator(chart)
    ok = jac.is_zero()
    witness = None if ok else _component(sorted(jac.comps.items())[0], chart.coords)
    return Report(ok, {"chart": args.chart, "jacobiator": "0" if ok else "nonzero"}, witness=witness)


def _check_casimir(args) -> Report:
    chart, _ = _load_chart(args, check_jacobi=False)
    verdict = poisson.is_casimir(chart, parse_poly(args.f, chart.coords))
    witness = None if verdict.ok else f"{verdict.reason} = {print_poly(verdict.witness[1], chart.coords)}"
    return Report(verdict.ok, {"chart": args.chart, "f": args.f}, witness=witness)


def _check_bracket(args) -> Report:
    chart, _ = _load_chart(args, check_jacobi=False)
    f = parse_poly(args.f, chart.coords)
    g = parse_poly(args.g, chart.coords)
    return Report(True, {"bracket": print_poly(poisson.bracket(chart, f, g), chart.coords)})


def _dirac_aligned(args) -> Report:
    _, sub = _load_chart(args, need_sub=True)
    verdict = dirac.check_aligned_dirac(sub)
    if verdict.ok:
        return Report(True, {"chart": args.chart, "induced": _one_line(verdict.values["induced"])})
    witness = f"{verdict.reason}: {print_poly(verdict.witness[1], sub.chart.coords)}"
    return Report(False, {"chart": args.chart}, witness=witness)


def _dirac_fixed_locus(args) -> Report:
    chart, _ = _load_chart(args)
    rows = [[parse_scalar(v) for v in row.split(",")] for row in args.matrix.split(";")]
    s = dirac.LinearInvolution.from_rows(rows)
    if linalg.mat_eq(s.rows(), linalg.mat_scale(linalg.identity(chart.dim), -1)):
        raise InvalidInput("--matrix fixes only the origin (-I): the fixed locus would be a point")
    verdict = dirac.fixed_locus_symbolic(chart, s)
    if not verdict.ok:  # S_* pi - pi; the chart itself passed the load-time Jacobi check
        return Report(False, witness=_component(verdict.witness, chart.coords))
    fixed_dim = len(verdict.values["submanifold"].x_indices)
    return Report(True, {"fixed_dim": fixed_dim, "induced": _one_line(verdict.values["induced"])})


def _dirac_affine_lie(args) -> Report:
    return _reductive_split(args, dirac.affine_lie_poisson_dirac, "induced")


def _dirac_transverse(args) -> Report:
    return _reductive_split(args, dirac.transverse_from_reductive, "transverse")


def _dirac_slice(args) -> Report:
    chart, _ = _load_chart(args, check_jacobi=False)
    ts = _coord_indices(chart, args.t, "--t")
    if not ts:  # no slice parameter: the obstruction would be checked over no fields
        raise InvalidInput("--t must name at least one coordinate")
    t0 = [parse_scalar(v) for v in _split_csv(args.t0)]
    obstruction = dirac.leaf_slice_obstruction(chart, ts, t0, args.degree)
    xs = [c for i, c in enumerate(chart.coords) if i not in ts]
    values = {"degree_bound": args.degree}
    if obstruction.ok:
        for t, w in zip(ts, obstruction.witness):
            values[f"X_{chart.coords[t]}"] = _vector_field(w, xs)
        return Report(True, values)
    if obstruction.witness is not None:  # the slice bivector at t0 is not Poisson
        return Report(False, values, witness=_component(obstruction.witness, xs))
    return Report(False, {**values, "status": obstruction.reason})


def _modular_vf(args) -> Report:
    chart, _ = _load_chart(args)
    return Report(True, {"modular_vf": _vector_field(poisson.modular_vf(chart), chart.coords)})


def _modular_relative(args) -> Report:
    _, sub = _load_chart(args, need_sub=True)
    rel = poisson.relative_modular(sub)
    names = rel.values["chart_q"].coords
    return Report(rel.ok, {
        "nu_r": _vector_field(rel.values["nu_r"], names),
        "pr_nu_P": _vector_field(rel.values["pr_nu_P"], names),
        "nu_Q": _vector_field(rel.values["nu_Q"], names),
        "relation nu_r = pr nu_P - nu_Q": rel.ok,
    })


def _lie_validate(args) -> Report:
    g = chartio.load_algebra(args.algebra)
    verdict = liealg.validate_lie(g)
    return Report(verdict.ok, {"algebra": args.algebra, "dim": g.dim}, witness=None if verdict.ok else verdict.reason)


def _lie_bialgebra(args) -> Report:
    g = chartio.load_algebra(args.algebra)
    r = liealg.standard_r_matrix(g)
    phi = liealg.transpose_antimorphism(g)
    cob = liealg.coboundary_check(g, r)
    sym = liealg.symmetric_bialgebra_check(g, r, phi)
    double = liealg.drinfeld_double(g, r)
    chi = liealg.chi_check(double, phi)
    ok = bool(cob and sym and chi)
    return Report(ok, {
        "algebra": args.algebra,
        "coboundary": cob.ok,
        "symmetric": sym.ok,
        "double_dim": double.sigma.dim,
        "chi": chi.ok,
    }, witness=None if ok else (cob.reason or sym.reason or chi.reason))


def _group_report(args) -> Report:
    """``group stokes|crosscheck|bruhat``: the groupnum report as it is."""
    if args.sub == "stokes":
        return groupnum.stokes_report(args.n, args.samples, args.seed, args.tol)
    kind = "sl" if args.sub == "crosscheck" else "su"
    return groupnum.crosscheck_report(kind, args.samples, args.seed, args.tol, args.n)


def _dynr_cdybe(args) -> Report:
    family = dynr.DynamicalRFamily(chartio.load_algebra(args.algebra), args.family)
    return dynr.residual_scan(family, args.samples, args.seed, args.tol)


def _oracle_schouten(args) -> Report:
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.pairs):
        a = oracle.rand_multivec(rng, args.dim, rng.randrange(0, 3), with_i=False)
        b = oracle.rand_multivec(rng, args.dim, rng.randrange(0, 3), with_i=False)
        if schouten(a, b) != oracle.schouten_oracle(a, b):
            mismatches += 1
    values = {"dim": args.dim, "pairs": args.pairs, "mismatches": mismatches}
    return Report(mismatches == 0, values, seed=args.seed)


def _oracle_alg(args) -> Report:
    g = chartio.load_algebra(args.algebra)
    rng = random.Random(args.seed)
    density = 0.5 if g.dim < 5 else 0.15
    mismatches = 0
    for _ in range(args.pairs):
        a = oracle.rand_alg_element(rng, g, rng.randrange(0, 3), density)
        b = oracle.rand_alg_element(rng, g, rng.randrange(0, 3), density)
        if liealg.alg_schouten(a, b) != oracle.alg_schouten_oracle(a, b):
            mismatches += 1
    values = {"algebra": args.algebra, "pairs": args.pairs, "mismatches": mismatches}
    return Report(mismatches == 0, values, seed=args.seed)


# -- the command tree ----------------------------------------------------------


def _build_parser() -> _Parser:
    """The command tree; each leaf parser carries its handler as ``handler``."""
    top = _Parser(prog="poissonkit", description=__doc__)
    top.add_argument("--porcelain", action="store_true", help="machine-readable key=value output")
    sub = top.add_subparsers(dest="command", required=True)

    # arguments shared by several leaves, declared once
    chart_file = argparse.ArgumentParser(add_help=False)
    chart_file.add_argument("chart")
    x_override = argparse.ArgumentParser(add_help=False)
    x_override.add_argument("--x", help="comma-separated Q coordinates (overrides the file)")
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--algebra", required=True)
    split.add_argument("--l", required=True, help="comma-separated basis labels of l")
    split.add_argument("--m", required=True, help="comma-separated basis labels of m")
    split.add_argument("--mu", required=True, help="comma-separated exact covector entries")

    def group(name: str, help_text: str):
        return sub.add_parser(name, help=help_text).add_subparsers(dest="sub", required=True)

    def leaf(parent, name: str, handler, help_text: str, *shared) -> _Parser:
        p = parent.add_parser(name, help=help_text, parents=list(shared))
        p.set_defaults(handler=handler)
        return p

    check = group("check", "chart-level checks")
    leaf(check, "jacobi", _check_jacobi, "verify [pi, pi] = 0 for a chart file", chart_file)
    p = leaf(check, "casimir", _check_casimir, "verify a polynomial is a Casimir", chart_file)
    p.add_argument("--f", required=True, help="polynomial over the chart coordinates")
    p = leaf(check, "bracket", _check_bracket, "print {f, g}", chart_file)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    dsub = group("dirac", "Dirac-submanifold criteria")
    leaf(dsub, "aligned", _dirac_aligned, "aligned criterion for Q = {y = 0}", chart_file, x_override)
    p = leaf(dsub, "fixed-locus", _dirac_fixed_locus, "fixed locus of a linear Poisson involution", chart_file)
    p.add_argument("--matrix", required=True, help="rows 'a,b;c,d' of an exact involution")
    leaf(dsub, "affine-lie", _dirac_affine_lie, "affine subspace of a Lie-Poisson dual", split)
    p = leaf(dsub, "slice", _dirac_slice, "leaf-slice coboundary obstruction", chart_file)
    p.add_argument("--t", required=True, help="comma-separated parameter coordinates")
    p.add_argument("--t0", required=True, help="comma-separated exact parameter values")
    p.add_argument("--degree", type=_nonnegative, default=1)
    leaf(dsub, "transverse", _dirac_transverse, "transverse structure via a reductive split", split)

    msub = group("modular", "modular vector fields")
    leaf(msub, "vf", _modular_vf, "modular vector field of a chart", chart_file)
    leaf(msub, "relative", _modular_relative, "relative modular field of an aligned submanifold",
         chart_file, x_override)

    lsub = group("lie", "Lie-algebra checks")
    p = leaf(lsub, "validate", _lie_validate, "antisymmetry + Jacobi for an algebra")
    p.add_argument("algebra")
    p = leaf(lsub, "bialgebra", _lie_bialgebra, "r-matrix, anti-morphism, double and chi checks")
    p.add_argument("--algebra", required=True, choices=["sl2", "sl3", "sl4", "su2", "su3"])

    gsub = group("group", "matrix-group numerics")
    for name, help_text in (
        ("stokes", "Stokes-matrix bracket from the dual group"),
        ("crosscheck", "two-route fixed-locus tensor on SL(n, R)"),
        ("bruhat", "two-route fixed-locus tensor on SU(n)"),
    ):
        p = leaf(gsub, name, _group_report, help_text)
        if name == "stokes":
            p.add_argument("--n", type=int, default=3, choices=[3])
        else:
            p.add_argument("--n", type=_group_n, default=3)
        p.add_argument("--samples", type=_sample_count, default=20 if name == "stokes" else 10)
        p.add_argument("--seed", type=_nonnegative, default=1)
        p.add_argument("--tol", type=_tolerance, default=1e-8)

    p = leaf(group("dynr", "dynamical r-matrix checks"), "cdybe", _dynr_cdybe,
             "residual constancy, invariance, gradient check")
    p.add_argument("--algebra", required=True, choices=["sl2", "sl3", "sl4"])
    p.add_argument("--family", default="trig", choices=["trig", "rational", "tanh-corrupted"])
    p.add_argument("--samples", type=_int_in_range(2), default=10)  # a spread over one sample is 0
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-7)

    osub = group("oracle", "brute-force cross-checks")
    p = leaf(osub, "schouten", _oracle_schouten, "chart bracket vs monomial-expansion oracle")
    p.add_argument("--dim", type=_sample_count, default=3)
    p.add_argument("--pairs", type=_sample_count, default=100)
    p.add_argument("--seed", type=_nonnegative, default=0)
    p = leaf(osub, "alg", _oracle_alg, "algebraic bracket vs recursive-Leibniz oracle")
    p.add_argument("--algebra", default="sl2")
    p.add_argument("--pairs", type=_sample_count, default=100)
    p.add_argument("--seed", type=_nonnegative, default=0)
    return top


_PARSER = _build_parser()  # built once: building takes about a hundred times as long as parsing


def run_command(argv: list[str]) -> tuple[int, Report | None]:
    """Execute a CLI invocation; returns (exit code, report), and (0, None) after
    printing the help for -h/--help."""
    try:
        args = _PARSER.parse_args(argv)
        report = args.handler(args)
    except _HelpShown:
        return 0, None
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2, None
    except (InvalidInput, FileNotFoundError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2, None
    for line in report.lines(args.porcelain, f"{args.command} {args.sub}"):
        print(line)
    return (0 if report.ok else 1), report


def main() -> None:
    code, _ = run_command(sys.argv[1:])
    raise SystemExit(code)


if __name__ == "__main__":
    main()
