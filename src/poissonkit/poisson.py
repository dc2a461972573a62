"""Poisson structures on coordinate charts.

A chart is a dimension, a list of coordinate names, a degree-2 multivector pi
claimed to be Poisson, and an optional polynomial volume density rho (the
volume form being rho dx_1 ^ ... ^ dx_n).  Everything is exact.

Brackets use ``exactalg.schouten``, the one contraction kernel: the Jacobiator
is [pi, pi], X_f = pi^#(df) = -[pi, f], and {f, g} = [X_f, g] = X_f(g).

Divergences are computed as div(X) = (1/rho) sum_i d(rho X^i)/dx_i, which
stays polynomial exactly when rho divides every d(rho X^i)/dx_i; charts with
rho = 1 always qualify.  A non-dividing density raises ``UnsupportedDensity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactalg import Poly, PolyMultiVec, schouten
from .report import InvalidInput, Report

__all__ = [
    "PoissonChart",
    "UnsupportedDensity",
    "jacobiator",
    "bracket",
    "hamiltonian_vf",
    "is_casimir",
    "modular_vf",
    "relative_modular",
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

    @cached_property
    def _jacobiator(self) -> PolyMultiVec:
        """[pi, pi], formed once: the chart is immutable, so a load check and a command's own
        check read the same field."""
        return schouten(self.pi, self.pi)


def jacobiator(chart: PoissonChart) -> PolyMultiVec:
    """[pi, pi]; the chart is Poisson iff this degree-3 field vanishes."""
    return chart._jacobiator


def hamiltonian_vf(chart: PoissonChart, f: Poly) -> PolyMultiVec:
    """X_f with X_f(g) = {f, g}: X_f = pi^#(df) = -[pi, f], formed as [pi, -f]."""
    if f.nvars != chart.dim:
        raise ValueError("function lives on the wrong chart")
    return schouten(chart.pi, PolyMultiVec.function(-f))


def bracket(chart: PoissonChart, f: Poly, g: Poly) -> Poly:
    """{f, g} = [X_f, g] = X_f(g)."""
    if f.nvars != chart.dim or g.nvars != chart.dim:
        raise ValueError("variable-count mismatch with the chart")
    return schouten(hamiltonian_vf(chart, f), PolyMultiVec.function(g)).component(())


def is_casimir(chart: PoissonChart, f: Poly) -> Report:
    """Passes iff X_f vanishes identically.  Otherwise the witness is the first
    nonzero component as (index, polynomial) and the reason names it, X_f(<coord>)."""
    xf = hamiltonian_vf(chart, f)
    if xf.is_zero():
        return Report(True)
    (idx,), poly = sorted(xf.comps.items())[0]
    return Report(False, reason=f"X_f({chart.coords[idx]})", witness=(idx, poly))


def modular_vf(chart: PoissonChart) -> PolyMultiVec:
    """The modular vector field nu, nu(f) = div(X_f), for the chart's volume.

    nu_a = div(X_{x_a}) = (1/rho) sum_b d_b(rho pi^ab), where pi^ab = p_ab
    for a < b and -p_ba for a > b.  So one sweep over the components p_ab
    (a < b) of pi gives every numerator: with q = rho p_ab, it adds d_b q to
    the numerator of nu_a and subtracts d_a q from that of nu_b.  Then each
    numerator is divided by rho once, exactly, or ``UnsupportedDensity`` is
    raised.  The density must not vanish on the region of interest; that is
    the caller's responsibility.
    """
    dim, rho = chart.dim, chart.rho
    unit = rho == Poly.const(dim, 1)
    nums = [Poly.zero(dim)] * dim
    for (a, b), poly in chart.pi.comps.items():
        q = poly if unit else rho * poly
        nums[a] = nums[a] + q.diff(b)
        nums[b] = nums[b] - q.diff(a)
    if not unit:
        for a, num in enumerate(nums):
            nums[a] = num.divide_exact(rho)
            if nums[a] is None:
                raise UnsupportedDensity("rho does not divide the divergence numerator exactly")
    return PolyMultiVec.from_terms(dim, 1, [((a,), num) for a, num in enumerate(nums)])


def relative_modular(submanifold) -> Report:
    """Relative modular field of an aligned Dirac submanifold Q = {y = 0} of
    the chart ``submanifold.chart``.

    nu_r is computed from its definition: for f(x) extended constantly in y,
    nu_r(f) is the y-divergence of X_f restricted to Q.  The ambient modular
    field uses the y-constant extension of the restricted density, so that
    the volume splits as rho(x, 0) dx ^ dy; the report then checks the exact
    identity nu_r = pr_* nu_P - nu_Q.  Its ``values`` are ``nu_r``,
    ``pr_nu_P`` and ``nu_Q``, vector fields on Q, and ``chart_q``, the induced
    chart with the restricted density.  A submanifold that fails the aligned
    criterion, or a density that vanishes on Q, raises ``InvalidInput``.
    """
    from .dirac import check_aligned_dirac

    verdict = check_aligned_dirac(submanifold)
    if not verdict:
        raise InvalidInput(f"submanifold fails the aligned Dirac criterion: {verdict.reason}")

    chart = submanifold.chart
    xs = submanifold.x_indices
    ys = submanifold.y_indices
    to_q = submanifold.to_q
    dim = chart.dim

    rho0 = chart.rho.compose(submanifold.zero_y)
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
        nu_r_items.append(((pos,), div_y.compose(to_q)))
    nu_r = PolyMultiVec.from_terms(len(xs), 1, nu_r_items)

    # pr_* nu_P: x-components of the ambient modular field, restricted to Q
    pr_nu_p = modular_vf(flat_chart).project(xs, to_q)

    # nu_Q: modular field of the induced chart with the restricted density
    induced = verdict.values["induced"]
    chart_q = PoissonChart(induced.dim, induced.coords, induced.pi, chart.rho.compose(to_q))
    nu_q = modular_vf(chart_q)

    holds = (pr_nu_p - nu_q) == nu_r
    return Report(holds, {"nu_r": nu_r, "pr_nu_P": pr_nu_p, "nu_Q": nu_q, "chart_q": chart_q},
                  reason="" if holds else "nu_r != pr_* nu_P - nu_Q")
