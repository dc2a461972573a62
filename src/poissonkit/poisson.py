"""Poisson structures on coordinate charts.

A chart is a dimension, a list of coordinate names, a degree-2 multivector pi
claimed to be Poisson, and an optional polynomial volume density rho (the
volume form being rho dx_1 ^ ... ^ dx_n).  Everything is exact.

Divergences are computed as div(X) = (1/rho) sum_i d(rho X^i)/dx_i, which
stays polynomial exactly when rho divides every d(rho X^i)/dx_i; charts with
rho = 1 always qualify.  A non-dividing density raises ``UnsupportedDensity``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .exactalg import Poly, PolyMultiVec, parse_poly, schouten
from .report import InvalidInput, Report

__all__ = [
    "PoissonChart",
    "UnsupportedDensity",
    "jacobiator",
    "bracket",
    "hamiltonian_vf",
    "sharp",
    "is_casimir",
    "modular_vf",
    "relative_modular",
    "RelativeModularReport",
    "contract_forms",
]


class UnsupportedDensity(InvalidInput):
    """A divergence that is not polynomial for the density: bad input, as nothing can be checked."""


@dataclass(frozen=True)
class PoissonChart:
    """A coordinate chart carrying a bivector field and a volume density."""

    dim: int
    coords: tuple[str, ...]
    pi: PolyMultiVec
    rho: Poly = None  # type: ignore[assignment]

    def __post_init__(self):
        if len(self.coords) != self.dim:
            raise ValueError("coordinate list length must equal dim")
        if len(set(self.coords)) != self.dim:
            raise ValueError("coordinate names must be distinct")
        if self.pi.dim != self.dim or (self.pi.degree != 2 and not self.pi.is_zero()):
            raise ValueError("pi must be a degree-2 multivector on the chart")
        if self.rho is None:
            object.__setattr__(self, "rho", Poly.const(self.dim, 1))
        if self.rho.is_zero():
            raise ValueError("volume density must not be identically zero")

    @staticmethod
    def from_brackets(coords: Sequence[str], entries: dict[tuple[int, int], str | Poly], rho: Poly | None = None) -> "PoissonChart":
        """Build a chart from {x_i, x_j} strings or polynomials, i < j."""
        dim = len(coords)
        comps = {}
        for (i, j), val in entries.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            poly = parse_poly(val, coords) if isinstance(val, str) else val
            comps[(i, j)] = poly
        return PoissonChart(dim, tuple(coords), PolyMultiVec(dim, 2, comps), rho)

    def parse(self, text: str) -> Poly:
        return parse_poly(text, self.coords)


def jacobiator(chart: PoissonChart) -> PolyMultiVec:
    """[pi, pi]; the chart is Poisson iff this degree-3 field vanishes."""
    return schouten(chart.pi, chart.pi)


def sharp(chart: PoissonChart, covector: Sequence[Poly]) -> PolyMultiVec:
    """pi^#(alpha) for a covector with polynomial components."""
    if len(covector) != chart.dim:
        raise ValueError("covector has wrong length")
    # pi = sum p_ij d_i ^ d_j gives pi^#(alpha) = sum p_ij (alpha_i d_j - alpha_j d_i)
    zero = Poly.zero(chart.dim)
    out: dict[tuple, Poly] = {}
    for (i, j), poly in chart.pi.comps.items():
        if covector[i]:
            out[(j,)] = out.get((j,), zero) + poly * covector[i]
        if covector[j]:
            out[(i,)] = out.get((i,), zero) - poly * covector[j]
    return PolyMultiVec(chart.dim, 1, out)


def hamiltonian_vf(chart: PoissonChart, f: Poly) -> PolyMultiVec:
    """X_f with X_f(g) = {f, g}."""
    if f.nvars != chart.dim:
        raise ValueError("function lives on the wrong chart")
    return sharp(chart, [f.diff(i) for i in range(chart.dim)])


def bracket(chart: PoissonChart, f: Poly, g: Poly) -> Poly:
    """{f, g} = pi(df, dg)."""
    if f.nvars != chart.dim or g.nvars != chart.dim:
        raise ValueError("variable-count mismatch with the chart")
    total = Poly.zero(chart.dim)
    for (i, j), poly in chart.pi.comps.items():
        total = total + poly * (f.diff(i) * g.diff(j) - f.diff(j) * g.diff(i))
    return total


def is_casimir(chart: PoissonChart, f: Poly) -> Report:
    """Passes iff X_f vanishes identically.  Otherwise the witness is the first
    nonzero component as (index, polynomial) and the reason names it, X_f(<coord>)."""
    xf = hamiltonian_vf(chart, f)
    if xf.is_zero():
        return Report(True)
    (idx,), poly = sorted(xf.comps.items())[0]
    return Report(False, reason=f"X_f({chart.coords[idx]})", witness=(idx, poly))


def _divergence(chart: PoissonChart, vf: PolyMultiVec) -> Poly:
    """div(X) = (1/rho) sum_i d(rho X^i)/dx_i, exact or UnsupportedDensity."""
    total = Poly.zero(chart.dim)
    for (i,), poly in vf.comps.items():
        total = total + (chart.rho * poly).diff(i)
    if chart.rho == Poly.const(chart.dim, 1):
        return total
    quot = total.divide_exact(chart.rho)
    if quot is None:
        raise UnsupportedDensity("rho does not divide the divergence numerator exactly")
    return quot


def modular_vf(chart: PoissonChart) -> PolyMultiVec:
    """The modular vector field nu, nu(f) = div(X_f), for the chart's volume.

    The density must not vanish on the region of interest; that is the
    caller's responsibility.
    """
    comps = {}
    for j in range(chart.dim):
        comps[j] = _divergence(chart, hamiltonian_vf(chart, Poly.var(chart.dim, j)))
    return PolyMultiVec.from_terms(chart.dim, 1, [((j,), p) for j, p in comps.items()])


@dataclass(frozen=True)
class RelativeModularReport:
    nu_r: PolyMultiVec
    pr_nu_p: PolyMultiVec
    nu_q: PolyMultiVec
    relation_holds: bool
    chart_q: PoissonChart = field(repr=False, default=None)  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return self.relation_holds


def relative_modular(chart: PoissonChart, submanifold) -> RelativeModularReport:
    """Relative modular field of an aligned Dirac submanifold Q = {y = 0}.

    nu_r is computed from its definition: for f(x) extended constantly in y,
    nu_r(f) is the y-divergence of X_f restricted to Q.  The ambient modular
    field uses the y-constant extension of the restricted density, so that
    the volume splits as rho(x, 0) dx ^ dy; the report then checks the exact
    identity nu_r = pr_* nu_P - nu_Q.  A submanifold that fails the aligned
    criterion, or a density that vanishes on Q, raises ``InvalidInput``.
    """
    from .dirac import check_aligned_dirac

    verdict = check_aligned_dirac(submanifold)
    if not verdict:
        raise InvalidInput(f"submanifold fails the aligned Dirac criterion: {verdict.reason}")

    xs = list(submanifold.x_indices)
    ys = list(submanifold.y_indices)
    dim = chart.dim

    rho0 = chart.rho.set_vars_zero(ys)
    if rho0.is_zero():
        raise InvalidInput("volume density vanishes on the submanifold")
    flat_chart = PoissonChart(dim, chart.coords, chart.pi, rho0)

    # nu_r: y-divergence of Hamiltonian fields of the x-coordinates, on Q
    nu_r_items = []
    for pos, i in enumerate(xs):
        xf = hamiltonian_vf(chart, Poly.var(dim, i))
        div_y = Poly.zero(dim)
        for l in ys:
            div_y = div_y + xf.component((l,)).diff(l)
        value = div_y.set_vars_zero(ys).restrict(xs)
        nu_r_items.append(((pos,), value))
    nu_r = PolyMultiVec.from_terms(len(xs), 1, nu_r_items)

    # pr_* nu_P: x-components of the ambient modular field, restricted to Q
    nu_p = modular_vf(flat_chart)
    pr_items = []
    for pos, i in enumerate(xs):
        pr_items.append(((pos,), nu_p.component((i,)).set_vars_zero(ys).restrict(xs)))
    pr_nu_p = PolyMultiVec.from_terms(len(xs), 1, pr_items)

    # nu_Q: modular field of the induced chart with the restricted density
    induced = verdict.values["induced"]
    chart_q = PoissonChart(induced.dim, induced.coords, induced.pi, rho0.restrict(xs))
    nu_q = modular_vf(chart_q)

    holds = (pr_nu_p - nu_q) == nu_r
    return RelativeModularReport(nu_r, pr_nu_p, nu_q, holds, chart_q)


def contract_forms(mv: PolyMultiVec, functions: Sequence[Poly]) -> Poly:
    """mv(df_1, ..., df_k): full contraction with exact differentials."""
    k = mv.degree
    if len(functions) != k:
        raise ValueError("need exactly deg(mv) functions")
    grads = [[f.diff(i) for i in range(mv.dim)] for f in functions]
    total = Poly.zero(mv.dim)
    for idxs, poly in mv.comps.items():
        det = _det([[grads[a][idxs[b]] for b in range(k)] for a in range(k)], mv.dim)
        total = total + poly * det
    return total


def _det(rows: list[list[Poly]], nvars: int) -> Poly:
    n = len(rows)
    if n == 0:
        return Poly.const(nvars, 1)
    if n == 1:
        return rows[0][0]
    total = Poly.zero(nvars)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _det(minor, nvars)
        total = total + term if j % 2 == 0 else total - term
    return total
