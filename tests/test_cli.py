"""Command-line surface: exit codes, file formats, report determinism."""

import ast
import importlib.util
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gl_chart, pair_brackets, subprocess_env, transpose_rows

import poissonkit
from poissonkit import cli, dynr, groupnum, liealg, poisson
from poissonkit.chartio import (
    ChartFileError,
    emit_chart,
    fixture_path,
    load_algebra,
    parse_algebra_text,
    parse_chart_file,
    parse_chart_text,
)
from poissonkit.cli import run_command
from poissonkit.exactalg import Poly, PolyMultiVec, Scalar, parse_poly, print_poly
from poissonkit.liealg import LieAlgebraData, builtin_algebra, lie_poisson_chart, validate_lie
from poissonkit.poisson import PoissonChart


def _by_argv(rows):
    """One pytest param per row, whose first item is an argv, with the argv as its id, so a
    row inserted above shifts no other row's id."""
    params = [pytest.param(*row, id=shlex.join(row[0])) for row in rows]
    assert len({param.id for param in params}) == len(params)
    return params


# -- chart files -----------------------------------------------------------------


def test_parse_dubrovin_fixture():
    chart, sub = parse_chart_file("dubrovin3.chart")
    assert chart.coords == ("x", "y", "z")
    assert sub is None
    assert chart.pi.comps[(0, 1)] == parse_poly("x*y - 2*z", chart.coords)


def test_chart_round_trip_exact():
    for name in ("dubrovin3.chart", "so3.chart", "product22.chart", "relmod2.chart"):
        chart, sub = parse_chart_file(name)
        text = emit_chart(chart, sub)
        chart2, sub2 = parse_chart_text(text)
        assert chart2 == chart
        if sub is not None:
            assert sub2.x_indices == sub.x_indices


CHART_NAMES = ["x", "y2", "_z", "a_b", "w10"]
small_parts = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=4))


@st.composite
def chart_files(draw):
    """A chart file, written with every freedom the format allows, and the chart and x indices it
    declares: names or 0-based indices, pairs in either order with the polynomial negated, lines in
    any order, comments, blank lines, CRLF endings, a volume and a submanifold."""
    dim = draw(st.integers(1, len(CHART_NAMES)))
    names = CHART_NAMES[:dim]

    def poly():
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), st.tuples(small_parts, small_parts),
                                     max_size=3))
        return Poly(dim, {e: Scalar(re, im) for e, (re, im) in terms.items()})

    def token(i):
        return draw(st.sampled_from([names[i], str(i)]))

    comps, lines = {}, [f"dim {dim}", "coords " + " ".join(names)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        p = comps[(i, j)] = poly()
        if draw(st.booleans()):  # the reversed pair carries -p
            lines.append(f"bracket {token(j)} {token(i)} = {print_poly(-p, names)}")
        else:
            lines.append(f"bracket {token(i)} {token(j)} = {print_poly(p, names)}")
    volume = None
    if draw(st.booleans()):
        volume = poly() or Poly.const(dim, draw(st.integers(1, 3)))
        lines.append(f"volume = {print_poly(volume, names)}")
    xs = None
    if draw(st.booleans()):
        xs = tuple(draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True)))
        lines.append("submanifold x = " + " ".join(token(i) for i in xs))
    lines = draw(st.permutations(lines))
    lines = [line + draw(st.sampled_from(["", "  ", " # note", "# note"])) for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   ", "# only a comment"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    return text, PoissonChart(dim, tuple(names), PolyMultiVec(dim, 2, comps), volume), xs


@settings(max_examples=200, deadline=None)
@given(chart_files())
def test_chart_reader_reads_back_the_chart_it_was_written_from(case):
    # the reader builds pi without the constructor's checks, so the law also holds pi to them
    text, chart, xs = case
    got, sub = parse_chart_text(text, check_jacobi=False)
    assert got == chart
    assert PolyMultiVec(got.dim, 2, got.pi.comps).comps == got.pi.comps
    assert got.pi.degree == 2 and got.pi.dim == got.dim
    if xs is None:
        assert sub is None
    else:
        assert sub.x_indices == xs and sub.y_indices == tuple(i for i in range(got.dim) if i not in xs)


def test_duplicate_bracket_rejected():
    text = "dim 2\ncoords x y\nbracket x y = 1\nbracket y x = -1\n"
    with pytest.raises(ChartFileError) as err:
        parse_chart_text(text)
    assert "twice" in str(err.value)


def test_non_poisson_chart_rejected():
    text = "dim 3\ncoords x y z\nbracket x y = z\nbracket y z = y\n"
    with pytest.raises(ChartFileError) as err:
        parse_chart_text(text)
    assert "Jacobiator" in str(err.value)
    assert err.value.line is None and not str(err.value).startswith("line")
    # loading without the check succeeds
    chart, _ = parse_chart_text(text, check_jacobi=False)
    assert chart.dim == 3


def test_parse_error_carries_line():
    with pytest.raises(ChartFileError) as err:
        parse_chart_text("dim 2\ncoords x y\nbracket x q = 1\n")
    assert err.value.line == 3


def test_so3_fixture_matches_builtin():
    chart, _ = parse_chart_file("so3.chart")
    assert chart == lie_poisson_chart(builtin_algebra("so3"))


def test_algebra_jacobi_error_names_the_failing_triple():
    # the message names validate_lie's witness, the smallest failing triple, by its labels
    sl3 = load_algebra("sl3.alg")
    brackets = pair_brackets(sl3)
    e12, f12, h1 = (sl3.labels.index(name) for name in ("e12", "f12", "h1"))
    brackets[(e12, f12)][h1] = brackets[(e12, f12)][h1] * 2
    verdict = validate_lie(LieAlgebraData(sl3.labels, brackets))
    names = ", ".join(sl3.labels[i] for i in verdict.witness)
    assert names == "e12, e13, f12"
    with pytest.raises(ChartFileError) as err:
        parse_algebra_text(BAD_FILES["nonjacobi.alg"])  # sl3.alg with c e12 f12 h1 = 2
    assert str(err.value) == f"structure constants invalid: Jacobi identity fails on ({names})"
    assert err.value.line is None


def test_algebra_fixture_files_validate():
    for name in ("sl2.alg", "sl3.alg", "su3.alg", "so3.alg"):
        assert validate_lie(load_algebra(name)).ok
    assert fixture_path("dubrovin3.chart") == str(Path(poissonkit.__file__).parent / "data" / "dubrovin3.chart")


# -- exit codes ------------------------------------------------------------------


def test_exit_zero_on_pass():
    code, report = run_command(["check", "jacobi", "dubrovin3.chart"])
    assert code == 0 and report.ok


def test_exit_zero_markoff_casimir():
    code, _ = run_command(["check", "casimir", "dubrovin3.chart", "--f", "x^2+y^2+z^2-x*y*z"])
    assert code == 0


def test_exit_one_on_verification_failure():
    code, report = run_command(["check", "casimir", "dubrovin3.chart", "--f", "x"])
    assert code == 1 and not report.ok
    code, _ = run_command(["dirac", "aligned", "product22_bad.chart"])
    assert code == 1


def test_exit_two_on_usage_and_parse_errors():
    assert run_command(["frobnicate"])[0] == 2
    assert run_command(["check", "jacobi", "missing.chart"])[0] == 2
    assert run_command(["check", "casimir", "dubrovin3.chart", "--f", "x +* y"])[0] == 2


@pytest.mark.parametrize("argv", _by_argv([(["-h"],), (["check", "jacobi", "-h"],),
                                           (["--porcelain", "group", "stokes", "--help"],)]))
def test_help_exits_zero_without_a_report(argv, capsys):
    # the help used to leave run_command as argparse's SystemExit(0)
    assert run_command(argv) == (0, None)
    out, err = capsys.readouterr()
    assert out.startswith("usage: poissonkit") and err == ""


def test_group_stokes_cli():
    code, report = run_command([
        "group", "stokes", "--n", "3", "--samples", "5", "--seed", "1",
    ])
    assert code == 0
    assert abs(float(report.values["kappa"]) - 2.0) < 1e-8


@pytest.mark.parametrize("scale, code", [(Fraction(-4), 1), (Fraction(2), 1), (Fraction(4), 0)],
                         ids=["sign-flipped", "halved", "stated"])
def test_stokes_checks_the_predicted_kappa(scale, code, monkeypatch):
    # kappa = +2 is predicted, not fitted: r with its sign flipped measures kappa = -2 and r at
    # scale 2 measures kappa = 1, and each fails; the scale has one exact source, read per build
    monkeypatch.setattr(liealg, "DOUBLE_R_SCALE", scale)
    got, report = run_command(["group", "stokes", "--n", "3", "--samples", "20", "--seed", "1"])
    assert got == code
    assert report.values["kappa"] == pytest.approx(float(scale) / 2, abs=1e-8)


def test_porcelain_deterministic(capsys):
    argv = ["--porcelain", "group", "stokes", "--n", "3", "--samples", "4", "--seed", "3"]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second
    assert "pass=True" in first


def test_dynr_cli_negative_control():
    code, _ = run_command([
        "dynr", "cdybe", "--algebra", "sl3", "--family", "tanh-corrupted",
        "--samples", "4", "--seed", "0",
    ])
    assert code == 1


def test_oracle_cli():
    code, report = run_command(["oracle", "schouten", "--pairs", "25", "--seed", "1"])
    assert code == 0 and report.values["mismatches"] == 0
    code, report = run_command(["oracle", "alg", "--algebra", "sl3", "--pairs", "25", "--seed", "1"])
    assert code == 0 and report.values["mismatches"] == 0


def _with_extra_component(kernel, wrong):
    """``kernel`` with a unit added to the first component of every nonzero result; each such
    result is appended to ``wrong``."""
    def patched(a, b):
        out = kernel(a, b)
        if out.is_zero():
            return out
        wrong.append(out)
        return out + type(out)(out.space, out.degree, {min(out.comps): out._const(out.space, 1)})
    return patched


@pytest.mark.parametrize("argv, module, name", _by_argv([
    (["oracle", "schouten", "--pairs", "25", "--seed", "1"], cli, "schouten"),
    (["oracle", "alg", "--algebra", "sl3", "--pairs", "25", "--seed", "1"], liealg, "alg_schouten"),
]))
def test_oracle_cli_catches_a_wrong_kernel(argv, module, name, monkeypatch):
    # the kernel as the handler calls it, wrong on every nonzero bracket: each of those pairs is a
    # mismatch, and the command fails; with the kernel as it is, none is
    assert run_command(argv)[1].values["mismatches"] == 0
    wrong = []
    monkeypatch.setattr(module, name, _with_extra_component(getattr(module, name), wrong))
    code, report = run_command(argv)
    assert wrong and code == 1 and not report.ok
    assert report.values["mismatches"] == len(wrong)


def test_modular_relative_cli():
    code, report = run_command(["modular", "relative", "relmod2.chart"])
    assert code == 0
    assert report.values["nu_r"] == "(1) d/dx"


def test_aligned_keeps_the_order_of_x():
    # Q's coordinates follow --x, so swapping them flips the sign of the induced bracket
    code, report = run_command(["dirac", "aligned", "product22.chart", "--x", "x2,x1"])
    assert code == 0
    assert report.values["induced"] == "dim 2; coords x2 x1; bracket x2 x1 = -1"


def test_lie_bialgebra_cli():
    code, report = run_command(["lie", "bialgebra", "--algebra", "su2"])
    assert code == 0
    assert report.values["double_dim"] == 6


@pytest.mark.parametrize("argv", _by_argv([
    (["group", "stokes"],),
    (["group", "crosscheck"],),
    (["group", "bruhat"],),
    (["dynr", "cdybe", "--algebra", "sl3"],),
]))
def test_sample_count_below_one_is_a_usage_error(argv, capsys):
    # zero samples used to crash (stokes) or pass without checking anything
    for samples in ("0", "-1"):
        assert run_command([*argv, "--samples", samples]) == (2, None)
        assert "--samples" in capsys.readouterr().err


# charts and algebras that are bad input, alone or with one option value, written into the working
# directory of the tests that use them
BAD_FILES = {
    # only even brackets, so -I preserves it and only the -I guard of `dirac fixed-locus` stops the pair
    "even3.chart": "dim 3\ncoords x y z\nbracket x y = x*y\nbracket y z = y*z\nbracket x z = x*z\n",
    "nonfamily.chart": "dim 3\ncoords x y z\nbracket x y = z\nbracket y z = y\n",
    "nonpoisson.chart": "dim 4\ncoords x y z w\nbracket x y = z\nbracket y z = y\n",
    "nondirac.chart": "dim 2\ncoords x y\nbracket x y = x\nsubmanifold x = x\n",
    "imaginary.chart": "dim 2\ncoords x i\nbracket x i = 1\n",
    "repeated.chart": "dim 2\ncoords x x\n",
    "zerovolume.chart": "dim 2\ncoords x y\nbracket x y = 1\nvolume = 0\n",
    "volume_x.chart": "dim 2\ncoords x y\nbracket x y = y\nvolume = x\nsubmanifold x = x\n",
    "volume_y.chart": "dim 2\ncoords x y\nbracket x y = y\nvolume = y\nsubmanifold x = x\n",
    "zerodenominator.chart": "dim 2\ncoords x y\nbracket x y = 1/0\n",
    "superscript.chart": "dim 3\ncoords x y z\nbracket x y = ²*z\n",
    "emptysub.chart": "dim 2\ncoords x y\nbracket x y = 1\nsubmanifold x =\n",
    "dim0.chart": "dim 0\ncoords\n",
    "dimx.alg": "dim x\nlabels a b\n",
    "dim0.alg": "dim 0\nlabels\n",
    "zerodenominator.alg": "dim 2\nlabels a b\nc a b a = 1/0\n",
    "nonjacobi.alg": Path(fixture_path("sl3.alg")).read_text().replace("c e12 f12 h1 = 1", "c e12 f12 h1 = 2"),
    # one file per check of the reader, each failing on its last line
    "selfbracket.chart": "dim 2\ncoords x y\nbracket x x = 1\n",
    "twice.chart": "dim 2\ncoords x y\nbracket x y = 1\nbracket y x = -1\n",
    "index2.chart": "dim 2\ncoords x y\nbracket 0 2 = 1\n",
    "indexminus.chart": "dim 2\ncoords x y\nbracket -1 1 = 1\n",
    "unknowncoord.chart": "dim 2\ncoords x y\nbracket x q = 1\n",
    "unknownname.chart": "dim 2\ncoords x y\nbracket x y = x*w\n",
    "directive.chart": "dim 2\ncoords x y\nbrackets x y = 1\n",
    "bracketform.chart": "dim 2\ncoords x y\nbracket x = 1\n",
    "subform.chart": "dim 2\ncoords x y\nbracket x y = 1\nsubmanifold y = x\n",
    "subname.chart": "dim 2\ncoords x y\nbracket x y = 1\nsubmanifold x = q\n",
    "nocoords.chart": "dim 2\nbracket x y = 1\n",
    "shortcoords.chart": "dim 3\ncoords x y\n",
    "badvolume.chart": "dim 2\ncoords x y\nbracket x y = 1\nvolume = x +\n",
    "diagonal.alg": "dim 2\nlabels a b\nc a a b = 1\n",
    "cform.alg": "dim 2\nlabels a b\nc a b = 1\n",
    "unknownlabel.alg": "dim 2\nlabels a b\nc a q a = 1\n",
    # a directive that may stand once, given twice: the second line is the error, not a new value
    "dim2.chart": "dim 2\ndim 3\ncoords x y z\n",
    "coords2.chart": "dim 2\ncoords x y\ncoords y x\nbracket x y = 1\n",
    "volume2.chart": "dim 2\ncoords x y\nbracket x y = 1\nvolume = 1\nvolume = x\n",
    "submanifold2.chart": "dim 2\ncoords x y\nbracket x y = 1\nsubmanifold x = x\nsubmanifold x = y\n",
    "dim2.alg": "dim 2\ndim 3\nlabels a b c\n",
    "labels2.alg": "dim 2\nlabels a b\nlabels b a\n",
}
# files that are not UTF-8 text, written as bytes
BAD_BYTES = {
    "latin1.chart": b"dim 2\ncoords x y\nbracket x y = \xff\n",
    "latin1.alg": b"dim 2\nlabels a b\nc a b a = \xff\n",
}


def _write_bad_files(directory):
    for name, text in BAD_FILES.items():
        (directory / name).write_text(text)
    for name, data in BAD_BYTES.items():
        (directory / name).write_bytes(data)


BAD_INPUT = [
    (["dirac", "aligned", "product22.chart", "--x", "q"], "unknown coordinate 'q' in --x"),
    (["modular", "relative", "relmod2.chart", "--x", "q"], "unknown coordinate 'q' in --x"),
    (["dirac", "slice", "slice_family.chart", "--t", "q", "--t0", "0"], "unknown coordinate 'q' in --t"),
    (["dirac", "slice", "slice_family.chart", "--t", "t", "--t0", "0", "--degree", "-1"], "--degree"),
    (["oracle", "schouten", "--dim", "0"], "--dim"),
    (["oracle", "schouten", "--pairs", "0"], "--pairs"),
    (["oracle", "alg", "--pairs", "0"], "--pairs"),
    (["group", "stokes", "--n", "4"], "--n"),
    (["dirac", "fixed-locus", "so3.chart", "--matrix=-1,0;0,-1"], "dimension does not match"),
    (["dirac", "fixed-locus", "so3.chart", "--matrix=1,0,0;0,1;0,0,1"], "must be square"),
    (["dirac", "fixed-locus", "so3.chart", "--matrix=1,1,0;0,1,0;0,0,1"], "not an involution"),
    (["group", "crosscheck", "--n", "1"], "--n: must be between 2 and 6, got 1"),
    (["group", "bruhat", "--n", "7"], "--n: must be between 2 and 6, got 7"),
    (["dirac", "slice", "slice_family.chart", "--t", "t", "--t0", "0,1"], "t0 must list one value"),
    (["dirac", "affine-lie", "--algebra", "so3", "--l", "x3", "--m", "x1,x2", "--mu", "0,0"], "mu has the wrong"),
    (["dirac", "aligned", "product22.chart", "--x", "x1,x1"], "must partition the coordinates"),
    (["dirac", "affine-lie", "--algebra", "so3", "--l", "x3", "--m", "x1", "--mu", "0,0,1"], "wrong total dimension"),
    (["dirac", "affine-lie", "--algebra", "so3", "--l", "x1", "--m", "x1,x2", "--mu", "0,0,1"], "do not form a basis"),
    (["dynr", "cdybe", "--algebra", "sl3", "--samples", "1"], "--samples: must be at least 2, got 1"),
    (["dirac", "slice", "nonfamily.chart", "--t", "z", "--t0", "0"], "components along the slice only"),
    (["dirac", "transverse", "--algebra", "sl2", "--l", "h1", "--m", "e12,f12", "--mu", "1"], "mu has the wrong"),
    (["modular", "relative", "nondirac.chart"], "submanifold fails the aligned Dirac criterion: lambda_(0,1)"),
    (["check", "jacobi", "imaginary.chart"], "line 2: name 'i' collides with the imaginary unit"),
    (["check", "jacobi", "repeated.chart"], "line 2: repeated name in coords"),
    (["check", "jacobi", "zerovolume.chart"], "line 4: volume density must not be identically zero"),
    (["lie", "validate", "dimx.alg"], "line 1: bad dimension 'x'"),
    (["modular", "vf", "volume_x.chart"], "rho does not divide"),
    (["modular", "relative", "volume_x.chart"], "rho does not divide"),
    (["dirac", "transverse", "--algebra", "so3", "--l", "x9", "--m", "x1,x2", "--mu", "0,0,1"], "unknown label 'x9'"),
    (["dirac", "affine-lie", "--algebra", "so3", "--l", "x3", "--m", "x9", "--mu", "0,0,1"], "unknown label 'x9'"),
    (["check", "casimir", "dubrovin3.chart", "--f", "x + 1/0"], "zero denominator (at position 4)"),
    (["dirac", "slice", "slice_family.chart", "--t", "t", "--t0", "1/0"], "zero denominator"),
    (["dirac", "transverse", "--algebra", "so3", "--l", "x3", "--m", "x1,x2", "--mu", "0,0,1/0"], "zero denominator"),
    (["dirac", "fixed-locus", "so3.chart", "--matrix=1/0,0,0;0,1,0;0,0,1"], "zero denominator"),
    (["check", "jacobi", "zerodenominator.chart"], "line 3: bad polynomial: zero denominator"),
    (["lie", "validate", "zerodenominator.alg"], "line 3: bad scalar: zero denominator"),
    (["dirac", "slice", "slice_family.chart", "--t", "t,t", "--t0", "0,0"], "t coordinates must be distinct"),
    (["modular", "relative", "volume_y.chart"], "volume density vanishes on the submanifold"),
    (["oracle", "schouten", "--pairs", "x"], "--pairs: invalid int value: 'x'"),
    (["dirac", "slice", "slice_family.chart", "--t", "", "--t0", ""], "--t must name at least one coordinate"),
    (["dynr", "cdybe", "--algebra", "sl3", "--family", "tanh-corrupted", "--samples", "5", "--tol", "inf"],
     "unrecognized arguments: --tol inf"),  # every bound is fixed in the check, so no --tol moves it
    (["dynr", "cdybe", "--algebra", "sl3", "--tol", "nan"], "unrecognized arguments: --tol nan"),
    (["group", "stokes", "--tol", "-1"], "unrecognized arguments: --tol -1"),
    (["group", "crosscheck", "--tol=-inf"], "unrecognized arguments: --tol=-inf"),
    (["group", "bruhat", "--tol", "x"], "unrecognized arguments: --tol x"),
    (["group", "stokes", "--seed", "-1"], "--seed: must be at least 0, got -1"),
    (["dynr", "cdybe", "--algebra", "sl2", "--seed=-1"], "--seed: must be at least 0, got -1"),
    (["oracle", "schouten", "--seed", "-1"], "--seed: must be at least 0, got -1"),
    *((["group", sub, "--seed", str(2**128)], f"a seed must be between 0 and 2^128 - 1, got {2**128}")
      for sub in ("stokes", "crosscheck", "bruhat")),  # a Philox key holds 128 bits
    (["dynr", "cdybe", "--algebra", "sl2", f"--seed={2**128}"], "a seed must be between 0 and 2^128 - 1"),
    (["dirac", "aligned", "product22.chart", "--x="], "--x must name at least one coordinate"),
    (["modular", "relative", "relmod2.chart", "--x", ""], "--x must name at least one coordinate"),
    (["dirac", "affine-lie", "--algebra", "so3", "--l", "", "--m", "x1,x2,x3", "--mu", "0,0,1"],
     "--l must name at least one basis label"),
    (["dirac", "transverse", "--algebra", "sl2", "--l", "", "--m", "h1,e12,f12", "--mu", "0,0,1"],
     "--l must name at least one basis label"),
    (["dirac", "fixed-locus", "product22.chart", "--matrix=-1,0,0,0;0,-1,0,0;0,0,-1,0;0,0,0,-1"],
     "--matrix fixes only the origin (-I): the fixed locus would be a point"),
    (["dirac", "fixed-locus", "so3.chart", "--matrix=-1,0,0;0,-1,0;0,0,-1"],
     "--matrix fixes only the origin (-I): the fixed locus would be a point"),
    (["check", "casimir", "dubrovin3.chart", "--f", "x^²"], "unexpected character '²' (at position 2)"),
    (["check", "casimir", "dubrovin3.chart", "--f", "1/²"], "malformed rational literal (at position 1)"),
    (["check", "jacobi", "superscript.chart"], "line 3: bad polynomial: unexpected character '²' (at position 0)"),
    (["dirac", "fixed-locus", "so3.chart", "--matrix=²,0,0;0,1,0;0,0,1"], "unexpected character '²' (at position 0)"),
    (["check", "jacobi", "."], "cannot read .: Is a directory"),
    (["lie", "validate", "."], "cannot read .: Is a directory"),
    (["dirac", "affine-lie", "--algebra", ".", "--l", "a", "--m", "b", "--mu", "0,0"], "cannot read .: Is a directory"),
    (["check", "jacobi", "latin1.chart"], "cannot read latin1.chart: 'utf-8' codec can't decode byte 0xff in position 31"),
    (["lie", "validate", "latin1.alg"], "cannot read latin1.alg: 'utf-8' codec can't decode byte 0xff in position 27"),
    (["dirac", "aligned", "emptysub.chart"], "line 4: submanifold must name at least one coordinate"),
    (["modular", "relative", "emptysub.chart"], "line 4: submanifold must name at least one coordinate"),
    (["check", "jacobi", "dim0.chart"], "line 1: bad dimension '0': must be at least 1"),
    (["check", "casimir", "dim0.chart", "--f", "1"], "line 1: bad dimension '0': must be at least 1"),
    (["lie", "validate", "dim0.alg"], "line 1: bad dimension '0': must be at least 1"),
    (["oracle", "alg", "--algebra", "dim0.alg"], "line 1: bad dimension '0': must be at least 1"),
    (["lie", "validate", "nonjacobi.alg"], "structure constants invalid: Jacobi identity fails on (e12, e13, f12)"),
    (["check", "jacobi", "selfbracket.chart"], "line 3: bracket of a coordinate with itself"),
    (["check", "jacobi", "twice.chart"], "line 4: bracket (x, y) declared twice"),
    (["check", "jacobi", "index2.chart"], "line 3: coordinate index 2 out of range"),
    (["check", "jacobi", "indexminus.chart"], "line 3: coordinate index -1 out of range"),
    (["check", "jacobi", "unknowncoord.chart"], "line 3: unknown coordinate 'q'"),
    (["check", "jacobi", "unknownname.chart"], "line 3: bad polynomial: unknown identifier 'w' (at position 2)"),
    (["check", "jacobi", "directive.chart"], "line 3: unknown directive 'brackets'"),
    (["check", "jacobi", "bracketform.chart"], "line 3: expected 'bracket i j = <poly>'"),
    (["dirac", "aligned", "subform.chart"], "line 4: expected 'submanifold x = <names>'"),
    (["dirac", "aligned", "subname.chart"], "line 4: unknown coordinate 'q'"),
    (["check", "jacobi", "nocoords.chart"], "line 1: file must declare dim and coords"),
    (["check", "jacobi", "shortcoords.chart"], "line 2: expected 3 coordinate names, got 2"),
    (["modular", "vf", "badvolume.chart"], "line 4: bad volume density: unexpected end of input (at position 3)"),
    (["lie", "validate", "diagonal.alg"], "line 3: diagonal structure constant"),
    (["lie", "validate", "cform.alg"], "line 3: expected 'c i j k = <scalar>'"),
    (["lie", "validate", "unknownlabel.alg"], "line 3: unknown coordinate 'q'"),
    (["check", "jacobi", "dim2.chart"], "line 2: dim declared twice"),
    (["check", "jacobi", "coords2.chart"], "line 3: coords declared twice"),
    (["modular", "vf", "volume2.chart"], "line 5: volume declared twice"),
    (["dirac", "aligned", "submanifold2.chart"], "line 5: submanifold declared twice"),
    (["lie", "validate", "dim2.alg"], "line 2: dim declared twice"),
    (["lie", "validate", "labels2.alg"], "line 3: labels declared twice"),
    (["check", "jacobi", "so3.chart/"], "no such file or bundled fixture: so3.chart/"),  # a file has no trailing /
    (["check", "jacobi", ""], "cannot read : Is a directory"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'check', 'dirac', 'modular', "),
    (["check", "frobnicate"], "argument sub: invalid choice: 'frobnicate' (choose from 'jacobi', 'casimir', 'bracket')"),
    (["check", "casimir", "dubrovin3.chart"], "the following arguments are required: --f"),
    (["dirac", "affine-lie", "--l", "x3"], "the following arguments are required: --algebra, --m, --mu"),
    (["check", "casimir", "dubrovin3.chart", "--f"], "argument --f: expected one argument"),
    (["check", "jacobi", "dubrovin3.chart", "so3.chart"], "unrecognized arguments: so3.chart"),
    (["check", "jacobi", "dubrovin3.chart", "--porcelain"], "unrecognized arguments: --porcelain"),
    (["group", "crosscheck", "--sam", "5"], "unrecognized arguments: --sam 5"),  # no abbreviated names
    (["check", "casimir", "dubrovin3.chart", "--f=x=y"], "unexpected character '=' (at position 1)"),
    (["group", "stokes", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["lie", "bialgebra", "--algebra", "so3"], "argument --algebra: invalid choice: 'so3' (choose from 'sl2', 'sl3', "),
]


@pytest.mark.parametrize("argv, needle", _by_argv(BAD_INPUT))
def test_bad_input_is_a_usage_error(argv, needle, capsys, tmp_path, monkeypatch):
    # each of these used to exit 1, as if a verification had failed, to pass having checked nothing,
    # or to raise out of run_command
    monkeypatch.chdir(tmp_path)  # the named charts resolve among the fixtures; BAD_FILES are written here
    _write_bad_files(tmp_path)
    assert run_command(argv) == (2, None)
    assert needle in capsys.readouterr().err


def test_option_value_is_the_next_token(capsys):
    # a value that starts with '-' is read as the value, as in the --name=value form
    spaced = run_command(["--porcelain", "dirac", "fixed-locus", "so3.chart", "--matrix", "-1,0,0;0,-1,0;0,0,1"])
    first = capsys.readouterr()
    joined = run_command(["--porcelain", "dirac", "fixed-locus", "so3.chart", "--matrix=-1,0,0;0,-1,0;0,0,1"])
    assert (spaced[0], first) == (joined[0], capsys.readouterr()) and spaced[0] == 0
    assert first.out == PINNED["dirac fixed-locus"]


@pytest.mark.parametrize("fs, code", [pytest.param(["x", "x^2+y^2+z^2-x*y*z"], 0, id="markoff-last"),
                                      pytest.param(["x^2+y^2+z^2-x*y*z", "x"], 1, id="x-last")])
def test_last_occurrence_of_an_option_wins(fs, code):
    argv = ["check", "casimir", "dubrovin3.chart", "--f", fs[0], f"--f={fs[1]}"]
    got, report = run_command(argv)
    assert got == code and report.values["f"] == fs[1]


@pytest.mark.parametrize("argv, code", _by_argv([
    (["check", "jacobi"], 1),
    (["check", "casimir", "--f", "x"], 1),
    (["check", "bracket", "--f", "x", "--g", "y"], 0),
    (["dirac", "slice", "--t", "w", "--t0", "0"], 1),
    (["modular", "vf"], 2),
    (["modular", "vf", "--skip-jacobi"], 2),
    (["dirac", "aligned", "--x", "x,y"], 2),
    (["dirac", "aligned", "--x", "x,y", "--skip-jacobi"], 2),
    (["dirac", "fixed-locus", "--matrix=1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"], 2),
]))
def test_load_time_jacobi_check(argv, code, tmp_path):
    # check * and dirac slice read charts that need not be Poisson; dirac aligned|fixed-locus and
    # modular * reject a non-Poisson chart at load time (exit 2), and --skip-jacobi is no option.
    # The bracket is a family along the slice t = w, so dirac slice gets as far as its own check at t0
    chart = tmp_path / "nonpoisson.chart"
    chart.write_text(BAD_FILES["nonpoisson.chart"])
    assert run_command([*argv[:2], str(chart), *argv[2:]])[0] == code


@pytest.mark.parametrize("command, code, stream, line", [
    pytest.param("check jacobi", 1, "out", "witness=(x,y,z): 2*z", id="check jacobi"),
    pytest.param("modular vf", 2, "err", "input error: bracket is not Poisson: Jacobiator component (x, y, z) = 2*z",
                 id="load check"),
])
def test_a_non_poisson_witness_is_the_first_jacobiator_component(command, code, stream, line, tmp_path, capsys):
    # check jacobi and the load check print one witness: of this chart's three Jacobiator
    # components, (x,y,z), (x,y,w) and (y,z,w), the first in index order
    chart = tmp_path / "jacobi3.chart"
    chart.write_text("dim 4\ncoords x y z w\nbracket x y = z\nbracket y z = y\nbracket z w = x\n")
    assert run_command(["--porcelain", *command.split(), str(chart)])[0] == code
    assert line in getattr(capsys.readouterr(), stream).splitlines()


@pytest.mark.parametrize("argv, dims", [
    pytest.param(["dirac", "aligned", "product22.chart"], [4, 2], id="dirac aligned"),
    pytest.param(["dirac", "fixed-locus", "so3.chart", "--matrix=-1,0,0;0,-1,0;0,0,1"], [3, 1], id="dirac fixed-locus"),
    pytest.param(["modular", "relative", "relmod2.chart"], [2, 1], id="modular relative"),
])
def test_one_jacobiator_per_input_chart(argv, dims, monkeypatch):
    # the load check and the command's own Poisson check read one Jacobiator of the input chart;
    # the other is the induced chart's, checked once as a guard.  [pi, pi] is the one Schouten
    # call of poisson whose two arguments are one object
    seen = []
    kernel = poisson.schouten

    def counting(a, b):
        if a is b:
            seen.append(a.dim)
        return kernel(a, b)

    monkeypatch.setattr(poisson, "schouten", counting)
    assert run_command(argv)[0] == 0
    assert seen == dims


def test_dirac_slice_reports_a_non_poisson_slice(capsys, tmp_path):
    # a slice bivector that is not Poisson at t0 fails with check jacobi's witness, not an error
    chart = tmp_path / "nonpoisson.chart"
    chart.write_text(BAD_FILES["nonpoisson.chart"])
    code, report = run_command(["--porcelain", "dirac", "slice", str(chart), "--t", "w", "--t0", "0"])
    assert code == 1 and not report.ok
    out = capsys.readouterr()
    assert out.out.splitlines()[-2:] == ["witness=(x,y,z): 2*z", "pass=False"] and out.err == ""


def test_non_poisson_involution_is_a_verification_failure(capsys):
    code, report = run_command(["--porcelain", "dirac", "fixed-locus", "so3.chart", "--matrix=1,0,0;0,1,0;0,0,-1"])
    assert code == 1 and not report.ok
    # the first component of S_* pi - pi, in check jacobi's form
    assert capsys.readouterr().out == "witness=(x1,x2): -2*x3\npass=False\n"


_SO4 = ("dim 6; coords z1 z2 z3 z4 z5 z6; bracket z1 z2 = 1/2*z3; bracket z1 z3 = -1/2*z2; bracket z1 z4 = 1/2*z5; "
        "bracket z1 z5 = -1/2*z4; bracket z2 z3 = 1/2*z1; bracket z2 z4 = 1/2*z6; bracket z2 z6 = -1/2*z4; "
        "bracket z3 z5 = 1/2*z6; bracket z3 z6 = -1/2*z5; bracket z4 z5 = 1/2*z1; bracket z4 z6 = 1/2*z2; "
        "bracket z5 z6 = 1/2*z3")


@pytest.mark.parametrize("sign, code, out", [
    pytest.param(-1, 0, f"fixed_dim=6\ninduced={_SO4}\npass=True\n", id="minus-transpose"),
    pytest.param(1, 1, "witness=(x11,x12): -2*x12\npass=False\n", id="transpose"),
])
def test_fixed_locus_on_the_sixteen_coordinates_of_gl4(sign, code, out, capsys, tmp_path):
    # X -> -X^T is an automorphism of gl(4), so its dual is a Poisson involution whose fixed locus is
    # so(4)*, of dimension 6, in the eigenbasis x_ij - x_ji; X -> X^T reverses brackets, and the first
    # component of S_* pi - pi is its witness
    path = tmp_path / "gl4.chart"
    path.write_text(emit_chart(gl_chart(4)))
    matrix = ";".join(",".join(map(str, row)) for row in transpose_rows(4, sign))
    assert run_command(["--porcelain", "dirac", "fixed-locus", str(path), f"--matrix={matrix}"])[0] == code
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("argv, witness", _by_argv([
    (["dirac", "fixed-locus", "so3.chart", "--matrix=0,1,0;1,0,0;0,0,1"], "(x1,x2): -2*x3"),
    (["dirac", "transverse", "--algebra", "so3", "--l", "x1,x2", "--m", "x3", "--mu", "0,0,0"],
     "l is not a subalgebra: [l_0, l_1] leaves l"),
    (["dirac", "transverse", "--algebra", "so3", "--l", "x3", "--m", "x1,x2", "--mu", "1,0,0"],
     "l is not contained in the isotropy algebra of mu (element 0)"),
]))
def test_failed_check_prints_a_report(argv, witness, capsys):
    # these exited 1 with only an error line, and no report, witness or pass= line (so did
    # diag(1, 1, -1), above); the transverse witnesses are what dirac affine-lie prints on the same split
    code, report = run_command(["--porcelain", *argv])
    out = capsys.readouterr()
    assert code == 1 and not report.ok and out.err == ""
    assert out.out.splitlines()[-2:] == [f"witness={witness}", "pass=False"]


def test_dynr_porcelain_values_are_plain_floats(capsys):
    code, _ = run_command(["--porcelain", "dynr", "cdybe", "--algebra", "sl3", "--samples", "3", "--seed", "0"])
    assert code == 0
    values = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    for key in ("spread", "invariance_defect", "derivative_defect", "tol"):
        assert "np." not in values[key]
        float(values[key])


@pytest.mark.parametrize("module", ["poissonkit", "poissonkit.cli"])
def test_module_invocation(module):
    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True,
                              env=subprocess_env(), timeout=120)

    done = run("--porcelain", "lie", "validate", "sl3")
    assert done.returncode == 0, done.stderr
    assert "pass=True" in done.stdout.splitlines()
    assert run("lie", "frobnicate").returncode == 2


def test_exact_half_loads_no_numpy():
    code = ("import sys, poissonkit, poissonkit.chartio, poissonkit.dirac, poissonkit.liealg; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_numeric_commands_load_no_module():
    # numpy 2 imports numpy.random lazily, so a command drawing the first sample would pay that import
    # inside its time-to-verdict; importing the CLI loads all that a numeric command needs, and no scipy
    argvs = [["group", "crosscheck", "--samples", "2"], ["group", "stokes", "--samples", "2"],
             ["dynr", "cdybe", "--algebra", "sl2", "--samples", "2"]]
    code = "\n".join([
        "import contextlib, io, sys, poissonkit.cli",
        "assert 'scipy' not in sys.modules",
        "before = set(sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    codes = [poissonkit.cli.run_command(argv)[0] for argv in {argvs!r}]",
        "print(codes, sorted(set(sys.modules) - before))",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0, 0] []"


def test_cli_loads_no_argument_parser_module():
    # the CLI reads argv itself: importing argparse and gettext took about 5 ms per process
    code = "\n".join([
        "import contextlib, io, sys, poissonkit.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code, _ = poissonkit.cli.run_command(['check', 'jacobi', 'dubrovin3.chart'])",
        "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"


# -- the README's CLI block, pinned --------------------------------------------------


def _readme_commands():
    """Argument vectors of the example lines in README's CLI block."""
    block = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## CLI")[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("poissonkit ") and "<" not in line]


def _leaf_commands():
    """'command sub' of every leaf of the CLI's table, each asserted to carry a handler."""
    assert all(callable(handler) for handler, *_ in cli._LEAVES.values())
    return [" ".join(key) for key in cli._LEAVES]


def test_readme_layout_names_every_module():
    # a module cannot ship without its row in README's Layout table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Layout")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `poissonkit\.(\w+)` \|", table, flags=re.MULTILINE)
    modules = [p.stem for p in Path(poissonkit.__file__).parent.glob("*.py") if p.stem not in ("__init__", "__main__")]
    assert sorted(listed) == sorted(modules)


def test_readme_dotted_names_resolve():
    # a backticked name `head.attr...` whose head is a poissonkit module or a public class
    # must resolve, so README cannot go on naming what was renamed or deleted
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stems = [p.stem for p in Path(poissonkit.__file__).parent.glob("*.py") if p.stem not in ("__init__", "__main__")]
    modules = {stem: importlib.import_module(f"poissonkit.{stem}") for stem in stems}
    heads = {"poissonkit": poissonkit, **modules}
    heads.update((name, obj) for m in modules.values() for name in getattr(m, "__all__", ())
                 if isinstance(obj := getattr(m, name), type))
    checked = []
    for span in re.findall(r"`([^`\n]+)`", readme):
        dotted = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if dotted and dotted[0].split(".")[0] in heads:
            head, *attrs = dotted[0].split(".")
            obj = heads[head]
            for attr in attrs:
                assert hasattr(obj, attr), f"README names `{dotted[0]}`, which does not resolve"
                obj = getattr(obj, attr)
            checked.append(dotted[0])
    assert "report.sample_blocks" in checked and "liealg.AlgElement" in checked


def test_readme_lists_every_bound():
    # README names each bound of a sampled check by its constant, with the constant's value
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## Reproducibility")[1]
    listed = {name: float(value) for name, value in re.findall(r"^\* `(\w+\.TOL_\w+)` = (\S+):", section, re.M)}
    assert listed == {f"{m.__name__.split('.')[-1]}.{name}": getattr(m, name)
                      for m in (groupnum, dynr) for name in vars(m) if name.startswith("TOL_")}


def _names_in(tree):
    """(name, line) of every identifier a module names: a variable, an attribute, or a
    string that is an identifier (``__all__`` and the getattr tables)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def _module_uses(tree, stem, in_perfbench):
    """((module, name), line) of every use of a name through its module: ``m.f`` (also as
    ``pkg.m.f``), ``from .m import f``, a bare ``f`` inside m itself (``stem``), and in
    perfbench an entry ``"m": ("f", ...)`` of a table such as the tracer's ``SPANNED``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute)):
            yield (getattr(node.value, "id", None) or node.value.attr, node.attr), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from (((node.module.split(".")[-1], alias.name), node.lineno) for alias in node.names)
        elif isinstance(node, ast.Name):
            yield (stem, node.id), node.lineno
        elif in_perfbench and isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(value, ast.Tuple):
                    yield from (((key.value, item.value), item.lineno) for item in value.elts
                                if isinstance(item, ast.Constant))


def _all_lines(tree) -> range:
    """The lines of a module's ``__all__`` assignment, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def test_every_function_in_src_has_a_caller_outside_tests():
    # code that only the tests call lives in tests/: every function or method defined in
    # src/poissonkit, dunders exempt, is named in src/ or perfbench/ outside its own body
    # and outside its own module's __all__, which exports it but calls nothing.  A module-level
    # function is named only through its module (``_module_uses``), so a local variable or a
    # method of the same name does not count; methods and nested functions are matched by name
    repo = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text(), str(path))
             for root in ("src", "perfbench") for path in sorted((repo / root).rglob("*.py"))}
    src = [path for path in trees if path.is_relative_to(repo / "src")]
    top_level = {node for path in src for node in trees[path].body}
    defined = [(node, path, range(node.lineno, node.end_lineno + 1)) for path in src for node in ast.walk(trees[path])
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    exports = {path: _all_lines(tree) for path, tree in trees.items()}
    named, qualified = {}, {}
    for path, tree in trees.items():
        for name, line in _names_in(tree):
            named.setdefault(name, []).append((path, line))
        for key, line in _module_uses(tree, path.stem, path.is_relative_to(repo / "perfbench")):
            qualified.setdefault(key, []).append((path, line))
    uncalled = [f"{path.relative_to(repo)}:{body.start} {node.name}" for node, path, body in defined
                if not any(where != path or not (line in body or line in exports[path])
                           for where, line in (qualified.get((path.stem, node.name), ()) if node in top_level
                                               else named.get(node.name, ())))]
    assert len(defined) > 200
    assert not uncalled, uncalled


def test_every_name_the_tracer_spans_resolves():
    # perfbench's tracer wraps the functions SPANNED names; its own tests are not part of this
    # suite, so a function dropped or renamed in src/ would otherwise break only traced runs
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [(module, name) for module, names in tracing.SPANNED.items() for name in names]
    missing = [f"{module}.{name}" for module, name in pairs
               if not callable(getattr(importlib.import_module(f"poissonkit.{module}"), name, None))]
    assert not missing, missing
    spanned = {f"{module}.{name}" for module, name in pairs}
    assert {*tracing.BUILDS, *tracing.GROUP_BUILDS, *tracing.REPORTS} <= spanned
    assert len(spanned) > 40


# exact commands: the full porcelain stdout; numeric ones: the porcelain keys
PINNED = {
    "check jacobi": "chart=dubrovin3.chart\njacobiator=0\npass=True\n",
    "check casimir": "chart=dubrovin3.chart\nf=x^2+y^2+z^2-x*y*z\npass=True\n",
    "check bracket": "bracket=x*y - 2*z\npass=True\n",
    "dirac aligned": "chart=product22.chart\ninduced=dim 2; coords x1 x2; bracket x1 x2 = 1\npass=True\n",
    "dirac fixed-locus": "fixed_dim=1\ninduced=dim 1; coords z1\npass=True\n",
    "dirac affine-lie": "algebra=so3\ninduced=dim 1; coords l1\npass=True\n",
    "dirac slice": "degree_bound=1\nX_t=(x2) d/dx2\npass=True\n",
    "dirac transverse": "algebra=sl2\ntransverse=dim 1; coords l1\npass=True\n",
    "modular vf": "modular_vf=0\npass=True\n",
    "modular relative": (
        "nu_r=(1) d/dx\npr_nu_P=(1) d/dx\nnu_Q=0\nrelation nu_r = pr nu_P - nu_Q=True\npass=True\n"
    ),
    "lie validate": "algebra=sl3\ndim=8\npass=True\n",
    "lie bialgebra": "algebra=su3\ncoboundary=True\nsymmetric=True\ndouble_dim=16\nchi=True\npass=True\n",
    "oracle schouten": "dim=3\npairs=100\nmismatches=0\nseed=0\npass=True\n",
    "oracle alg": "algebra=sl3\npairs=100\nmismatches=0\nseed=0\npass=True\n",
    "group stokes": ["kappa", "kappa_two_defect", "max_dubrovin_residual", "max_pushforward_residual",
                     "max_tangency_residual", "max_markoff_defect", "max_plus_residual", "rank_relation_ok", "seed",
                     "pass"],
    "group crosscheck": ["group", "max_route_difference", "max_plus_residual", "rank_relation_ok", "seed", "pass"],
    "group bruhat": ["group", "max_route_difference", "max_plus_residual", "rank_relation_ok", "seed", "pass"],
    "dynr cdybe": ["algebra", "family", "spread", "invariance_defect", "derivative_defect", "tol", "seed", "pass"],
}


@pytest.mark.parametrize("leaf", sorted(PINNED))
def test_readme_commands_porcelain_output(leaf, capsys):
    readme = _readme_commands()
    # the README block names each leaf command of the table once, and nothing else
    assert sorted(" ".join(argv[:2]) for argv in readme) == sorted(_leaf_commands()) == sorted(PINNED)
    (argv,) = [argv for argv in readme if " ".join(argv[:2]) == leaf]
    code, _ = run_command(["--porcelain", *argv])
    out = capsys.readouterr().out
    assert code == 0
    if isinstance(PINNED[leaf], str):
        assert out == PINNED[leaf]
    else:
        assert [line.split("=", 1)[0] for line in out.splitlines()] == PINNED[leaf]


@pytest.mark.parametrize("leaf", _leaf_commands())
def test_leaf_help_names_every_option(leaf, capsys):
    # the help is read off the table, so it names each argument the leaf takes
    assert run_command([*leaf.split(), "-h"]) == (0, None)
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: poissonkit [--porcelain] {leaf}") and err == ""
    _, _, positionals, options = cli._LEAVES[tuple(leaf.split())]
    usage = out.splitlines()[0].split()
    assert all(name in usage for name in positionals)
    assert all(f"\n  --{name} {name.upper()} " in out for name in options)


# -- the exit-code contract, fuzzed ----------------------------------------------------

# values per argument name, good and bad mixed; an optional flag may also be left out
FUZZ_POOLS = {
    "chart": ["dubrovin3.chart", "so3.chart", "product22.chart", "product22_bad.chart", "relmod2.chart",
              "slice_family.chart", "missing.chart",
              *(name for name in BAD_FILES if name.endswith(".chart")), ".", "latin1.chart"],
    "algebra": ["sl2", "su2", "so3", "missing.alg", *(name for name in BAD_FILES if name.endswith(".alg")), ".",
                "latin1.alg"],
    "samples": ["0", "1", "2", "3", "x"],
    "pairs": ["0", "1", "2", "3", "x"],
    "dim": ["0", "1", "3"],
    "n": ["1", "3", "4", "7"],
    "seed": ["0", "1", "-1", "4294967296", str(2**128)],
    "degree": ["-1", "0", "1"],
    "family": ["trig", "tanh-corrupted"],
    "f": ["x", "1/0", "x +* y", "q", "x^²"],
    "g": ["y", "q"],
    "x": ["x", "x1,x2", "x2,x1", "x1,x1", "q", ""],
    "t": ["t", "t,t", "w", "q", ""],
    "t0": ["0", "0,0", "1/0"],
    "mu": ["0,0,1", "1,0,0", "0", "0,0,1/0"],
    "matrix": ["-1,0,0;0,-1,0;0,0,1", "1,0,0;0,1,0;0,0,-1", "1,0;0,1", "1,1,0;0,1,0;0,0,1", "1/0,0,0;0,1,0;0,0,1",
               "-1,0,0;0,-1,0;0,0,-1"],
    "l": ["x3", "h1", "x1,x2", "x9", ""],
    "m": ["x1,x2", "e12,f12", "x3", "x9"],
    "help": ["-h", "--help"],
}


def _leaf_arguments(leaf):
    """(name, kind) of every argument of a leaf in the CLI's table: the flag -h/--help, named
    "help", then each positional and each option, of kind "flag", "positional", "required"
    or "optional"."""
    _, _, positionals, options = cli._LEAVES[tuple(leaf.split())]
    return [("help", "flag"), *((name, "positional") for name in positionals),
            *((name, "required" if spec[2] else "optional") for name, spec in options.items())]


def _draw_argv(data):
    """An argv for one leaf of the CLI's own table, its values drawn from FUZZ_POOLS."""
    leaf = data.draw(st.sampled_from(_leaf_commands()))
    argv = [*(["--porcelain"] if data.draw(st.booleans()) else []), *leaf.split()]
    for name, kind in _leaf_arguments(leaf):
        value = data.draw(st.sampled_from(FUZZ_POOLS[name]))
        if kind == "positional":
            argv.append(value)
        elif kind == "flag":  # -h/--help: drawn into about one argv in six
            if data.draw(st.integers(0, 5)) == 0:
                argv.append(value)
        elif kind == "required" or data.draw(st.booleans()):
            argv.append(f"--{name}={value}")
    return argv


def _assert_exit_code_contract(argv, code, report, out, err):
    """README: 0 passes, 1 always prints a failed report, 2 is bad input with one error line."""
    if code == 2:
        assert report is None and out == "" and err.startswith(("usage error: ", "input error: ")), argv
        return
    if report is None:  # -h/--help: the help, and no verdict
        assert code == 0 and out.startswith("usage:") and err == "", argv
        return
    last = out.splitlines()[-1]
    verdict = last if "--porcelain" in argv else "=".join(last.split())
    assert (code, report.ok, verdict) in ((0, True, "pass=True"), (1, False, "pass=False")), argv
    if code == 0:  # no pass that checks nothing
        assert report.samples is None or report.samples >= 1, argv
        if "oracle" in argv:
            assert report.values["pairs"] >= 1, argv
        if "fixed-locus" in argv:
            assert report.values["fixed_dim"] >= 1, argv


def test_exit_code_contract(capsys, tmp_path, monkeypatch):
    # anything raised out of run_command is a bug
    monkeypatch.chdir(tmp_path)
    _write_bad_files(tmp_path)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        argv = _draw_argv(data)
        code, report = run_command(argv)
        out, err = capsys.readouterr()
        _assert_exit_code_contract(argv, code, report, out, err)

    check()


# the cheapest valid value of each option that sets a command's cost; dynr cdybe compares samples
CHEAPEST = {"samples": "1", "pairs": "1", ("dynr cdybe", "samples"): "2"}
# options of a leaf whose values are bad input only together, such as even3.chart with -I
PAIRED = {"dirac fixed-locus": ("chart", "matrix")}


def _with_value(argv, argument, value):
    """argv with the value of one argument, a (name, kind) pair, replaced, or added when argv
    leaves it out."""
    name, kind = argument
    if kind == "positional":  # the positional follows the two command words
        return [*argv[:2], value, *argv[3:]]
    if kind == "flag":
        return [*argv, value]
    opt, kept, skip = f"--{name}", [], False
    for token in argv:
        if skip:
            skip = False
        elif token == opt:
            skip = True
        elif not token.startswith(f"{opt}="):
            kept.append(token)
    return [*kept, f"{opt}={value}"]


def _at_cheapest(leaf, argv, arguments):
    """argv with each cost option among ``arguments``, (name, kind) pairs, at its cheapest valid value."""
    for argument in arguments:
        cheap = CHEAPEST.get((leaf, argument[0]), CHEAPEST.get(argument[0]))
        if cheap is not None:
            argv = _with_value(argv, argument, cheap)
    return argv


def _reach_rows():
    """One argv per leaf, option of that leaf and FUZZ_POOLS value of the option: the README's
    argv for the leaf, with that value and every cost option at its cheapest valid value.  For
    the options PAIRED in a leaf, one argv per pair of their values as well."""
    rows = []
    for readme in _readme_commands():
        leaf = " ".join(readme[:2])
        arguments = _leaf_arguments(leaf)
        base = _at_cheapest(leaf, readme, arguments)
        rows += [pytest.param(_with_value(base, argument, value), id=f"{leaf}-{argument[0]}={value}")
                 for argument in arguments for value in FUZZ_POOLS[argument[0]]]
        if leaf in PAIRED:
            first, second = ((name, dict(arguments)[name]) for name in PAIRED[leaf])
            rows += [pytest.param(_with_value(_with_value(base, first, u), second, v),
                                  id=f"{leaf}-{first[0]}={u}+{second[0]}={v}")
                     for u in FUZZ_POOLS[first[0]] for v in FUZZ_POOLS[second[0]]]
    return rows


@pytest.fixture(scope="module")
def bad_files_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bad_files")
    _write_bad_files(directory)
    return directory


@pytest.mark.parametrize("argv", _reach_rows())
def test_every_pool_value_reaches_every_leaf(argv, bad_files_dir, capsys, monkeypatch):
    # the random fuzz reaches a value of a small pool in few of its argvs; these rows reach each
    # value in each leaf that takes it, by construction
    monkeypatch.chdir(bad_files_dir)
    code, report = run_command(argv)
    out, err = capsys.readouterr()
    _assert_exit_code_contract(argv, code, report, out, err)


def test_every_argument_has_a_pool():
    # the fuzz and the reach rows draw each argument from its pool; a pool that no argument takes is stale
    assert {name for leaf in _leaf_commands() for name, _ in _leaf_arguments(leaf)} == set(FUZZ_POOLS)


# argvs that README or perfbench expects to exit 1, each with the options that make it a control:
# --x replaces the chart's split, and tanh solves the rank-one equation, so sl2 passes by right
CONTROLS = {
    "dynr cdybe": (["dynr", "cdybe", "--algebra", "sl3", "--family", "tanh-corrupted"], ("algebra", "family")),
    "dirac aligned": (["dirac", "aligned", "product22_bad.chart"], ("x",)),
    "check casimir": (["check", "casimir", "dubrovin3.chart", "--f", "x"], ()),
}


def _control_rows():
    """Each control with every cost option at its cheapest valid value, and one argv per option
    of its leaf other than those that make it a control and FUZZ_POOLS value of that option."""
    rows = []
    for leaf, (control, held) in CONTROLS.items():
        options = [arg for arg in _leaf_arguments(leaf) if arg[1] in ("required", "optional") and arg[0] not in held]
        control = _at_cheapest(leaf, control, options)
        rows += [pytest.param(control, id=leaf)]
        rows += [pytest.param(_with_value(control, argument, value), id=f"{leaf}-{argument[0]}={value}")
                 for argument in options for value in FUZZ_POOLS[argument[0]]]
    return rows


@pytest.mark.parametrize("argv", _control_rows())
def test_a_control_stays_a_control(argv, bad_files_dir, monkeypatch, capsys):
    # no value of another option turns a negative control into a pass: it fails (1) or is bad input (2)
    monkeypatch.chdir(bad_files_dir)
    code, report = run_command(argv)
    out, err = capsys.readouterr()
    _assert_exit_code_contract(argv, code, report, out, err)
    assert code != 0, argv


@pytest.mark.parametrize("argv", [
    *(pytest.param([*readme, "--tol", value], id=f"{readme[0]} {readme[1]}-tol={value}")
      for readme in _readme_commands() if readme[0] in ("group", "dynr") for value in ("1e-8", "-1", "nan", "inf")),
    pytest.param(["dynr", "cdybe", "--algebra", "sl3", "--family", "tanh-corrupted", "--samples", "5", "--tol", "1e300"],
                 id="dynr cdybe-tanh-corrupted-tol=1e300"),
])
def test_no_sampled_check_takes_a_tolerance(argv, capsys):
    # the bounds are fixed in each check; a --tol of 1e300 once passed the tanh-corrupted control
    assert run_command(argv) == (2, None)
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: --tol {argv[-1]}\n"
