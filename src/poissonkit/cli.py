"""Command-line front end.

Commands: check | dirac | modular | lie | group | dynr | oracle, each with its
subcommands.  Exit codes: 0 on pass, 1 on a verification failure (a report
ending ``pass=False``), 2 on usage or input errors.  ``--porcelain``, before
the command, switches to machine-readable ``key=value`` lines; reports are
deterministic for fixed inputs and seeds.  An option is ``--name=value`` or
``--name value``: the value is the next token, whatever it starts with, the
last occurrence wins, and no name is abbreviated.  ``-h``/``--help`` prints
this help, or after a command and its subcommand that leaf's options.
"""

from __future__ import annotations

import random
import sys
from functools import partial
from types import SimpleNamespace

from . import chartio, dirac, dynr, groupnum, liealg, oracle, poisson
from .exactalg import SCALAR_ONE, parse_poly, parse_scalar, print_poly, schouten
from .report import InvalidInput, Report

__all__ = ["run_command", "main"]


class _UsageError(Exception):
    pass


def _number(kind, text: str):
    """``kind(text)`` for ``kind`` int or float; a ValueError names the kind and the text."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"invalid {kind.__name__} value: {text!r}") from None


def _int_in_range(low: int, high: int | None = None):
    """Parser of an int of at least ``low`` and, if given, at most ``high``; outside
    that range a command would check nothing or reject its input."""

    def parse(text: str) -> int:
        value = _number(int, text)
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise ValueError(f"must be {bound}, got {value}")
        return value

    return parse


_sample_count = _int_in_range(1)  # --samples, --pairs, --dim
_nonnegative = _int_in_range(0)  # --degree, --seed


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
    failed = poisson._not_poisson(chart)
    ok = failed is None
    witness = None if ok else _component(failed.witness, chart.coords)
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
    if s.columns == tuple(((j, -SCALAR_ONE),) for j in range(chart.dim)):
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
        return groupnum.stokes_report(args.n, args.samples, args.seed)
    kind = "sl" if args.sub == "crosscheck" else "su"
    return groupnum.crosscheck_report(kind, args.samples, args.seed, args.n)


def _dynr_cdybe(args) -> Report:
    family = dynr.DynamicalRFamily(chartio.load_algebra(args.algebra), args.family)
    return dynr.residual_scan(family, args.samples, args.seed)


def _oracle_report(args, head: dict, draw, kernel, reference) -> Report:
    """``oracle``: ``kernel`` against ``reference`` on ``args.pairs`` pairs (a, b), each drawn a
    then b by ``draw`` from one generator seeded with ``args.seed``; ``head`` leads the values."""
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.pairs):
        a, b = draw(rng), draw(rng)
        mismatches += kernel(a, b) != reference(a, b)
    return Report(mismatches == 0, {**head, "pairs": args.pairs, "mismatches": mismatches}, seed=args.seed)


def _oracle_schouten(args) -> Report:
    return _oracle_report(args, {"dim": args.dim}, lambda rng: oracle.rand_multivec(
        rng, args.dim, rng.randrange(0, 3), with_i=False), schouten, oracle.schouten_oracle)


def _oracle_alg(args) -> Report:
    g = chartio.load_algebra(args.algebra)
    density = 0.5 if g.dim < 5 else 0.15
    return _oracle_report(args, {"algebra": args.algebra}, lambda rng: oracle.rand_alg_element(
        rng, g, rng.randrange(0, 3), density), liealg.alg_schouten, oracle.alg_schouten_oracle)


# -- the command table ---------------------------------------------------------
# _LEAVES: (command, sub) -> (handler, help, positionals, options); each option is
# name -> (parse, default, required, choices, help), choices checked on the parsed value

_CHART = ("chart",)
_X = {"x": (str, None, False, None, "comma-separated Q coordinates (overrides the file)")}
_SPLIT = {
    "algebra": (str, None, True, None, "algebra name or file"),
    "l": (str, None, True, None, "comma-separated basis labels of l"),
    "m": (str, None, True, None, "comma-separated basis labels of m"),
    "mu": (str, None, True, None, "comma-separated exact covector entries"),
}
_GROUP = {
    "n": (_int_in_range(2, groupnum.N_CAP), 3, False, None, "matrix size"),
    "samples": (_sample_count, 10, False, None, "number of samples"),
    "seed": (_nonnegative, 1, False, None, "seed of the per-sample generators"),
}
_F = (str, None, True, None, "polynomial over the chart coordinates")
_PAIRS = (_sample_count, 100, False, None, "number of random pairs")
_SEED = (_nonnegative, 0, False, None, "seed of the random pairs")

_LEAVES = {
    ("check", "jacobi"): (_check_jacobi, "verify [pi, pi] = 0 for a chart file", _CHART, {}),
    ("check", "casimir"): (_check_casimir, "verify a polynomial is a Casimir", _CHART, {"f": _F}),
    ("check", "bracket"): (_check_bracket, "print {f, g}", _CHART, {"f": _F, "g": _F}),
    ("dirac", "aligned"): (_dirac_aligned, "aligned criterion for Q = {y = 0}", _CHART, _X),
    ("dirac", "fixed-locus"): (_dirac_fixed_locus, "fixed locus of a linear Poisson involution", _CHART, {
        "matrix": (str, None, True, None, "rows 'a,b;c,d' of an exact involution")}),
    ("dirac", "affine-lie"): (_dirac_affine_lie, "affine subspace of a Lie-Poisson dual", (), _SPLIT),
    ("dirac", "slice"): (_dirac_slice, "leaf-slice coboundary obstruction", _CHART, {
        "t": (str, None, True, None, "comma-separated parameter coordinates"),
        "t0": (str, None, True, None, "comma-separated exact parameter values"),
        "degree": (_nonnegative, 1, False, None, "degree bound of the vector fields")}),
    ("dirac", "transverse"): (_dirac_transverse, "transverse structure via a reductive split", (), _SPLIT),
    ("modular", "vf"): (_modular_vf, "modular vector field of a chart", _CHART, {}),
    ("modular", "relative"): (_modular_relative, "relative modular field of an aligned submanifold", _CHART, _X),
    ("lie", "validate"): (_lie_validate, "Jacobi identity for an algebra", ("algebra",), {}),
    ("lie", "bialgebra"): (_lie_bialgebra, "r-matrix, anti-morphism, double and chi checks", (), {
        "algebra": (str, None, True, ("sl2", "sl3", "sl4", "su2", "su3"), "built-in algebra")}),
    ("group", "stokes"): (_group_report, "Stokes-matrix bracket from the dual group", (), {
        **_GROUP, "n": (partial(_number, int), 3, False, (3,), "matrix size"),
        "samples": (_sample_count, 20, False, None, "number of samples")}),
    ("group", "crosscheck"): (_group_report, "two-route fixed-locus tensor on SL(n, R)", (), _GROUP),
    ("group", "bruhat"): (_group_report, "two-route fixed-locus tensor on SU(n)", (), _GROUP),
    ("dynr", "cdybe"): (_dynr_cdybe, "residual constancy, invariance, gradient check", (), {
        "algebra": (str, None, True, ("sl2", "sl3", "sl4"), "built-in algebra"),
        "family": (str, "trig", False, ("trig", "rational", "tanh-corrupted"), "r-matrix family"),
        "samples": (_int_in_range(2), 10, False, None, "number of samples (a spread over one is 0)"),
        "seed": (_nonnegative, 0, False, None, "seed of the per-sample generators")}),
    ("oracle", "schouten"): (_oracle_schouten, "chart bracket vs monomial-expansion oracle", (), {
        "dim": (_sample_count, 3, False, None, "chart dimension"), "pairs": _PAIRS, "seed": _SEED}),
    ("oracle", "alg"): (_oracle_alg, "algebraic bracket vs recursive-Leibniz oracle", (), {
        "algebra": (str, "sl2", False, None, "algebra name or file"), "pairs": _PAIRS, "seed": _SEED}),
}


def _check_choice(what: str, value, choices) -> None:
    if value not in choices:
        raise _UsageError(f"argument {what}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")


def _help(key: tuple[str, ...] = ()) -> str:
    """The usage line and the commands, or for a leaf ``key`` its options."""
    if not key:
        usage, text = "<command> <sub> ...", __doc__.strip()
        rows = {" ".join(k): leaf[1] for k, leaf in _LEAVES.items()}
    else:
        _, text, positionals, options = _LEAVES[key]
        flags = {f"--{name} {name.upper()}": spec for name, spec in options.items()}
        usage = " ".join([*key, *positionals, *(f if spec[2] else f"[{f}]" for f, spec in flags.items())])
        rows = {f: spec[4] + (f"; one of {', '.join(map(str, spec[3]))}" if spec[3] else "")
                + ("" if spec[1] is None else f"; default {spec[1]}") for f, spec in flags.items()}
    width = max(map(len, rows), default=0) + 2
    lines = [f"usage: poissonkit [--porcelain] {usage}", "", text, "", *(f"  {k:<{width}}{v}" for k, v in rows.items())]
    return "\n".join(lines)


def _read(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` read against ``_LEAVES``: the command, the sub, ``porcelain`` and one attribute
    per positional and option of the leaf, or None once -h/--help has printed its help."""
    i = 0
    while argv[i:i + 1] == ["--porcelain"]:
        i += 1
    porcelain, key = i > 0, ()
    for what in ("command", "sub"):
        if i == len(argv):
            raise _UsageError(f"the following arguments are required: {what}")
        if argv[i] in ("-h", "--help"):
            print(_help())
            return None
        _check_choice(what, argv[i], dict.fromkeys(k[len(key)] for k in _LEAVES if k[:len(key)] == key))
        key, i = (*key, argv[i]), i + 1
    _, _, positionals, options = _LEAVES[key]
    values = {name: spec[1] for name, spec in options.items() if not spec[2]}
    found, extras, tokens = [], [], iter(argv[i:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(key))
            return None
        flag, eq, text = token.partition("=")
        spec = options.get(flag[2:]) if flag.startswith("--") else None
        if spec is None:  # a positional, or an argument no option of the leaf takes
            (found if len(found) < len(positionals) and not token.startswith("-") else extras).append(token)
            continue
        if not eq and (text := next(tokens, None)) is None:
            raise _UsageError(f"argument {flag}: expected one argument")
        try:
            values[flag[2:]] = spec[0](text)
        except ValueError as err:
            raise _UsageError(f"argument {flag}: {err}") from None
        if spec[3] is not None:
            _check_choice(flag, values[flag[2:]], spec[3])
    missing = [*positionals[len(found):], *(f"--{name}" for name in options if name not in values)]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=key[0], sub=key[1], porcelain=porcelain, **dict(zip(positionals, found)), **values)


def run_command(argv: list[str]) -> tuple[int, Report | None]:
    """Execute a CLI invocation; returns (exit code, report), and (0, None) after
    printing the help for -h/--help."""
    try:
        args = _read(argv)
        if args is None:
            return 0, None
        report = _LEAVES[args.command, args.sub][0](args)
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
