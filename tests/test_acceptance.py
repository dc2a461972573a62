"""The claims ledger: one row per claim of the paper's abstract, each checked through the CLI.

A row names its sentence of the abstract, what it checks, the route (exact or sampled) and
the scope, an argv for ``cli.run_command``, the exit code and the headline porcelain values
that theory predicts, a control that must exit 1, and a runtime budget.  A control is an
argv, or a patch of one module attribute of poissonkit that breaks a convention the claim
rests on.  A claim with no check yet is an open row: no argv, and the ROADMAP item that
would check it.  ``test_claim`` runs every other row and its control; README's claims table
is rendered from the rows (``render``), and ``test_readme_claims_table`` pins it.

Run ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail line per claim.
"""

import contextlib
import importlib
import io
import re
import shlex
import time
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from conftest import pi_q_formula_swapped
from poissonkit import linalg
from poissonkit.cli import run_command
from poissonkit.liealg import LinearAlgMap

REPO = Path(__file__).resolve().parents[1]

# the abstract of the paper, one sentence each, with PAPER.md's TeX markup dropped
ABSTRACT = (
    "Dirac submanifolds are a natural generalization in the Poisson category for symplectic submanifolds of a "
    "symplectic manifold.",
    "In a certain sense they correspond to symplectic subgroupoids of the symplectic groupoid of the given Poisson "
    "manifold.",
    "In particular, Dirac submanifolds arise as the stable locus of a Poisson involution.",
    "In this paper, we provide a general study for these submanifolds including both local and global aspects.",
    "In the second part of the paper, we study Poisson involutions and the induced Poisson structures on their stable "
    "locuses.",
    "We discuss the Poisson involutions on a special class of Poisson groups, and more generally Poisson groupoids, "
    "called symmetric Poisson groups (and symmetric Poisson groupoids).",
    "Many well-known examples, including the standard Poisson group structures on semi-simple Lie groups, Bruhat "
    "Poisson structures on compact semi-simple Lie groups, and Poisson groupoids connecting with dynamical r-matrices "
    "of semi-simple Lie algebras are symmetric, so they admit a Poisson involution.",
    "For symmetric Poisson groups, the relation between the stable locus Poisson structure and Poisson symmetric spaces "
    "is discussed.",
    "As a consequence, we show that the Dubrovin-Ugaglia-Boalch-Bondal Poisson structure on the space of Stokes "
    "matrices U+ appearing in Dubrovin's theory of Frobenius manifolds is indeed a Poisson symmetric space for the "
    "Poisson group B+*B-.",
)


class Near(NamedTuple):
    """A porcelain float within a bound constant, ``module.NAME`` of poissonkit, of a target."""

    target: float
    bound: str

    def holds(self, text: str) -> bool:
        return abs(float(text) - self.target) <= getattr(*_attribute(self.bound))

    def __str__(self) -> str:
        return f"{self.target:g} ± `{self.bound}`"


class Patch(NamedTuple):
    """A control: the attribute ``target``, ``module.NAME`` of poissonkit, set to
    ``change(current value)``; ``text`` says what the change does."""

    target: str
    change: Callable
    text: str

    def __str__(self) -> str:
        return f"`{self.target}` {self.text}"


class Row(NamedTuple):
    id: str
    sentence: int  # 1-based, in ABSTRACT
    check: str
    route: str  # "exact", "sampled" or "open"
    scope: str  # for an open row, the ROADMAP item that would check it
    argv: tuple = ()
    expect: dict = {}  # porcelain key -> its value, or a Near
    control: tuple | Patch = ()  # an argv, or a Patch of the row's argv
    budget: float = 0.0  # seconds for the row's argv
    code: int = 0


def _attribute(target: str):
    """The module of poissonkit and the attribute name that ``module.NAME`` names."""
    module, name = target.split(".")
    return importlib.import_module(f"poissonkit.{module}"), name


def _identity_map(g):
    """The identity of g, a morphism and no anti-morphism."""
    return LinearAlgMap(g, g, tuple(tuple(row) for row in linalg.identity(g.dim)))


def _with_minus_half_rr(residual):
    """``dynr._residual`` with -(1/2)[r, r] for +(1/2)[r, r]: the residual at r = 0 is the
    h ^ dr/dlambda part, so the changed residual is twice that part less the residual."""
    return lambda family, r, dr: 2 * residual(family, 0 * r, dr) - residual(family, r, dr)


_STOKES_READ_WRONG = Patch(
    "chartio._read_text",
    lambda read: lambda name: read(name).replace("bracket y z = y*z - 2*x", "bracket y z = 2*(y*z - 2*x)"),
    "reads dubrovin3.chart with {y, z} doubled: κ = 2 there and 1 in the other brackets")
_NOT_ANTI = Patch("liealg.transpose_antimorphism", lambda _: _identity_map,
                  "returns the identity, which is no anti-morphism and keeps r")
_SWAPPED_ARROWS = Patch("groupnum.pi_q_formula", lambda _: pi_q_formula_swapped,
                        "with the invariant-field arrows swapped, X^L(g) = Xg")
_MINUS_HALF_RR = Patch("dynr._residual", _with_minus_half_rr, "with −½[r, r] in place of +½[r, r]")
_CDYBE = {key: Near(0.0, "dynr.TOL_CDYBE") for key in ("spread", "invariance_defect", "derivative_defect")}
_ROUTES = {"max_route_difference": Near(0.0, "groupnum.TOL_CROSS"), "rank_relation_ok": "True"}


def _symmetric(algebra, sentence, check, budget):
    dim = int(algebra[2:]) ** 2 - 1  # of sl(n) and su(n); the double's is twice it
    return Row(
        f"symmetric-{algebra}", sentence, check, "exact", f"{algebra[:2]}({algebra[2:]})",
        ("lie", "bialgebra", "--algebra", algebra),
        {"coboundary": "True", "symmetric": "True", "double_dim": str(2 * dim), "chi": "True"}, _NOT_ANTI, budget)


def _cdybe(algebra, family, control):
    kind = {"trig": "trigonometric (coth)", "rational": "rational (1/x)"}[family]
    return Row(
        f"cdybe-{algebra}-{family}", 7,
        f"the {kind} dynamical r-matrix solves the CDYBE: Σ h_m ∧ ∂r/∂λ_m + ½[r, r] is constant and ad-invariant",
        "sampled", f"{algebra[:2]}({algebra[2:]}), seed 5, 10 samples",
        ("dynr", "cdybe", "--algebra", algebra, "--family", family, "--samples", "10", "--seed", "5"),
        _CDYBE, control, 2.5)


ROWS = (
    Row("aligned-symplectic", 1,
        "a symplectic submanifold of a symplectic manifold is Dirac, with the induced bracket its own",
        "exact", "R⁴ with two symplectic blocks, Q = {x3 = x4 = 0}",
        ("dirac", "aligned", "product22.chart"), {"induced": "dim 2; coords x1 x2; bracket x1 x2 = 1"},
        ("dirac", "aligned", "product22_bad.chart"), 1.0),
    Row("schouten-oracle", 1,
        "the Schouten bracket, which decides [π, π] = 0 in every exact row, agrees with the pair-sum oracle",
        "exact", "dim 3, 100 seeded pairs of degree 0-2",
        ("oracle", "schouten", "--dim", "3", "--pairs", "100", "--seed", "0"), {"mismatches": "0"},
        Patch("cli.schouten", lambda kernel: lambda a, b: kernel(b, a), "with its arguments swapped"), 10.0),
    Row("symplectic-subgroupoids", 2, "Dirac submanifolds as symplectic subgroupoids of the symplectic groupoid",
        "open", "no ROADMAP item yet"),
    Row("fixed-locus-so3", 3,
        "the stable locus of the Poisson involution diag(−1, −1, 1) of so(3)* is Dirac: the x3-axis",
        "exact", "so(3)*, a linear involution",
        ("dirac", "fixed-locus", "so3.chart", "--matrix=-1,0,0;0,-1,0;0,0,1"),
        {"fixed_dim": "1", "induced": "dim 1; coords z1"},
        ("dirac", "fixed-locus", "so3.chart", "--matrix=0,1,0;1,0,0;0,0,1"), 1.0),
    Row("affine-so3", 4,
        "an affine subspace μ + m⊥ of a Lie–Poisson dual is Dirac when l is a subalgebra, [l, m] ⊂ m and μ meets "
        "the ad* condition: the x3-axis of so(3)*",
        "exact", "so(3)", ("dirac", "affine-lie", "--algebra", "so3", "--l", "x3", "--m", "x1,x2", "--mu", "0,0,1"),
        {"induced": "dim 1; coords l1"},
        ("dirac", "affine-lie", "--algebra", "so3", "--l", "x1,x2", "--m", "x3", "--mu", "0,0,1"), 0.5),
    Row("affine-sl2", 4, "the same criterion on the Cartan line of sl(2)*", "exact", "sl(2)",
        ("dirac", "affine-lie", "--algebra", "sl2", "--l", "h1", "--m", "e12,f12", "--mu", "0,0,1"),
        {"induced": "dim 1; coords l1"},
        ("dirac", "affine-lie", "--algebra", "sl2", "--l", "h1", "--m", "e12,f12", "--mu", "1,0,0"), 0.5),
    Row("leaf-slice", 4,
        "a slice of a family π_t is Dirac when ∂π/∂t at t0 is a coboundary −[X, π_0]: X = x2 ∂2 for "
        "(1 + t) ∂1∧∂2 at t = 0",
        "exact", "R³, fields of degree ≤ 1",
        ("dirac", "slice", "slice_family.chart", "--t", "t", "--t0", "0", "--degree", "1"), {"X_t": "(x2) d/dx2"},
        ("dirac", "slice", "slice_family.chart", "--t", "t", "--t0", "0", "--degree", "0"), 1.0),
    Row("transverse-sl2", 4, "the transverse structure of a reductive split l ⊕ m at μ: l = span(h) in sl(2)",
        "exact", "sl(2)", ("dirac", "transverse", "--algebra", "sl2", "--l", "h1", "--m", "e12,f12", "--mu", "0,0,1"),
        {"transverse": "dim 1; coords l1"},
        ("dirac", "transverse", "--algebra", "sl2", "--l", "h1", "--m", "e12,f12", "--mu", "1,0,0"), 1.0),
    Row("relative-modular", 4,
        "on a Dirac submanifold the relative modular field is ν_r = pr ν_P − ν_Q, exactly",
        "exact", "Q = {y = 0} for π = y ∂x∧∂y", ("modular", "relative", "relmod2.chart"),
        {"nu_r": "(1) d/dx", "pr_nu_P": "(1) d/dx", "nu_Q": "0", "relation nu_r = pr nu_P - nu_Q": "True"},
        Patch("poisson.hamiltonian_vf", lambda vf: lambda chart, f: -vf(chart, f), "negated, X_f = +[π, f]"), 1.0),
    Row("global-aspects", 4, "global aspects of Dirac submanifolds", "open", "no ROADMAP item yet"),
    Row("fixed-locus-block22", 5,
        "the structure induced on the stable locus {y = 0} of diag(1, 1, −1, −1) on a symplectic plane times a "
        "y-quadratic block is the plane's",
        "exact", "R⁴, a linear involution",
        ("dirac", "fixed-locus", "block22.chart", "--matrix=1,0,0,0;0,1,0,0;0,0,-1,0;0,0,0,-1"),
        {"fixed_dim": "2", "induced": "dim 2; coords z1 z2; bracket z1 z2 = 1"},
        ("dirac", "fixed-locus", "block22.chart", "--matrix=0,1,0,0;1,0,0,0;0,0,1,0;0,0,0,1"), 1.0),
    Row("crosscheck-sl3", 5,
        "the structure induced on the stable locus of g ↦ gᵀ in SL(3, R) with its standard structure: the leg "
        "projection equals the invariant-field formula, and rank π_Q^# = dim(im π^# ∩ T_xQ)",
        "sampled", "n = 3, seed 2, 10 samples", ("group", "crosscheck", "--n", "3", "--samples", "10", "--seed", "2"),
        _ROUTES, _SWAPPED_ARROWS, 15.0),
    _symmetric("sl2", 6,
               "sl(2) with its standard r-matrix and the transpose φ is a symmetric Lie bialgebra: [r, r] "
               "ad-invariant, φ an involutive anti-morphism with φ r = −r, and χ an anti-morphism of the double", 7.5),
    Row("symmetric-groupoids", 6, "symmetric Poisson groupoids", "open", "ROADMAP item 9"),
    _symmetric("sl3", 7, "the standard structure of sl(3) is symmetric", 7.5),
    _symmetric("su2", 7, "the compact r-matrix of su(2), the Bruhat structure's, is symmetric", 7.5),
    _symmetric("su3", 7, "the compact r-matrix of su(3), the Bruhat structure's, is symmetric", 7.5),
    Row("bruhat-su3", 7,
        "the structure induced by the Bruhat structure of SU(3) on the symmetric unitaries, the stable locus of "
        "g ↦ gᵀ, by the same two routes and rank relation",
        "sampled", "n = 3, seed 2, 10 samples", ("group", "bruhat", "--n", "3", "--samples", "10", "--seed", "2"),
        _ROUTES, _SWAPPED_ARROWS, 15.0),
    _cdybe("sl2", "trig", _MINUS_HALF_RR),
    _cdybe("sl2", "rational", _MINUS_HALF_RR),
    _cdybe("sl3", "trig", ("dynr", "cdybe", "--algebra", "sl3", "--family", "tanh-corrupted", "--samples", "6",
                           "--seed", "5")),
    _cdybe("sl3", "rational", _MINUS_HALF_RR),
    Row("rmatrix-groupoids", 7, "the Poisson groupoids of dynamical r-matrices are symmetric", "open",
        "ROADMAP item 9"),
    Row("symmetric-spaces", 8, "the stable locus structure and Poisson symmetric spaces", "open",
        "ROADMAP items 7 and 21"),
    Row("stokes-jacobi", 9, "the bracket on 3×3 Stokes matrices, {x, y} = xy − 2z and cyclically, is Poisson",
        "exact", "n = 3", ("check", "jacobi", "dubrovin3.chart"), {"jacobiator": "0"}, _STOKES_READ_WRONG, 1.0),
    Row("stokes-markoff", 9, "the Markoff polynomial x² + y² + z² − xyz is a Casimir of that bracket", "exact",
        "n = 3", ("check", "casimir", "dubrovin3.chart", "--f", "x^2+y^2+z^2-x*y*z"), {},
        ("check", "casimir", "dubrovin3.chart", "--f", "x"), 1.0),
    Row("stokes-kappa", 9,
        "the structure induced on the stable locus of (B, C) ↦ (Cᵀ, Bᵀ) in B+ * B−, read on the Stokes matrices, "
        "is that bracket times the predicted κ = +2, its pushforward along (B, C) ↦ BCᵀ is 2κ times it, and the "
        "rank relation holds",
        "sampled", "n = 3, seed 1, 20 samples", ("group", "stokes", "--n", "3", "--samples", "20", "--seed", "1"),
        {"kappa": Near(2.0, "groupnum.TOL_CROSS"), "max_dubrovin_residual": Near(0.0, "groupnum.TOL_CROSS"),
         "max_pushforward_residual": Near(0.0, "groupnum.TOL_CROSS"), "rank_relation_ok": "True"},
        Patch("liealg.DOUBLE_R_SCALE", lambda scale: -scale, "negated, so κ = −2"), 30.0),
    Row("stokes-symmetric-space", 9,
        "U+ as a Poisson symmetric space of B+ * B−, and the Stokes bracket at n = 4..6", "open",
        "ROADMAP items 1 and 7"),
)


def _command(argv) -> str:
    return f"`{shlex.join(['poissonkit', *argv])}`"


def _cells(row: Row) -> list[str]:
    if row.route == "open":
        return [str(row.sentence), row.id, row.check, "open", row.scope, "—", "—", "—", "—"]
    expect = [f"exit {row.code}"] + [f"`{key}` = {want}" if isinstance(want, Near) else f"`{key}={want}`"
                                     for key, want in row.expect.items()]
    control = str(row.control) if isinstance(row.control, Patch) else _command(row.control)
    return [str(row.sentence), row.id, row.check, row.route, row.scope, _command(row.argv), "; ".join(expect),
            control, f"{row.budget:g} s"]


def render() -> str:
    """README's claims table: the abstract, numbered, then one line per row."""
    lines = [f"{k}. {sentence}" for k, sentence in enumerate(ABSTRACT, 1)]
    lines += ["", "| sentence | id | claim | route | scope | command | expect | control (exits 1) | budget |",
              "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    lines += ["| " + " | ".join(_cells(row)) + " |" for row in ROWS]
    return "\n".join(lines)


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS if row.route != "open"])
def test_claim(row, monkeypatch):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code, _ = run_command(["--porcelain", *row.argv])
    elapsed = time.perf_counter() - start
    lines = out.getvalue().splitlines()
    got = {key: [line[len(key) + 1:] for line in lines if line.startswith(f"{key}=")] for key in row.expect}
    if isinstance(row.control, Patch):
        module, name = _attribute(row.control.target)
        monkeypatch.setattr(module, name, row.control.change(getattr(module, name)))
        control = row.argv
    else:
        control = row.control
    with contextlib.redirect_stdout(io.StringIO()):
        control_code, _ = run_command(list(control))
    print(f"[sentence {row.sentence}] {row.id}: exit {code} in {elapsed:.3f} s, control exit {control_code}")
    assert code == row.code, lines
    for key, want in row.expect.items():
        assert len(got[key]) == 1, (key, lines)
        assert want.holds(got[key][0]) if isinstance(want, Near) else got[key][0] == want, (key, got[key])
    assert elapsed < row.budget
    assert control_code == 1


def test_every_sentence_of_the_abstract_has_a_row():
    # ABSTRACT is PAPER.md's abstract, and each of its sentences has a row, checked or open
    text = (REPO / "PAPER.md").read_text().split("\n\n")[2]
    assert re.split(r"(?<=\.) ", re.sub(r"[${}_]", "", text.strip())) == list(ABSTRACT)
    assert {row.sentence for row in ROWS} == set(range(1, len(ABSTRACT) + 1))
    assert len({row.id for row in ROWS}) == len(ROWS)
    for row in ROWS:
        assert row.route in ("exact", "sampled", "open"), row.id
        assert (row.route == "open") == (not row.argv) == (not row.control) == (not row.budget), row.id


def test_readme_claims_table():
    # README's claims table is the rendered rows, so neither can change alone
    readme = (REPO / "README.md").read_text()
    table = readme.split("<!-- claims: rendered from tests/test_acceptance.py -->\n")[1].split("\n<!-- end of claims -->")[0]
    assert table == render()
