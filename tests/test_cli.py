"""Command-line surface: exit codes, file formats, report determinism."""

import argparse
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

from poissonkit.chartio import (
    ChartFileError,
    emit_chart,
    list_fixtures,
    load_algebra,
    parse_chart_file,
    parse_chart_text,
)
from poissonkit.cli import _build_parser, run_command
from poissonkit.liealg import builtin_algebra, lie_poisson_chart, validate_lie


# -- chart files -----------------------------------------------------------------


def test_parse_dubrovin_fixture():
    chart, sub = parse_chart_file("dubrovin3.chart")
    assert chart.coords == ("x", "y", "z")
    assert sub is None
    assert chart.pi.comps[(0, 1)] == chart.parse("x*y - 2*z")


def test_chart_round_trip_exact():
    for name in ("dubrovin3.chart", "so3.chart", "product22.chart", "relmod2.chart"):
        chart, sub = parse_chart_file(name)
        text = emit_chart(chart, sub)
        chart2, sub2 = parse_chart_text(text)
        assert chart2 == chart
        if sub is not None:
            assert sub2.x_indices == sub.x_indices


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


def test_algebra_fixture_files_validate():
    for name in ("sl2.alg", "sl3.alg", "su3.alg", "so3.alg"):
        assert validate_lie(load_algebra(name)).ok
    assert "dubrovin3.chart" in list_fixtures()


# -- exit codes ------------------------------------------------------------------


def test_exit_zero_on_pass():
    code, report = run_command(["check", "jacobi", "dubrovin3.chart"])
    assert code == 0 and report.passed


def test_exit_zero_markoff_casimir():
    code, _ = run_command(["check", "casimir", "dubrovin3.chart", "--f", "x^2+y^2+z^2-x*y*z"])
    assert code == 0


def test_exit_one_on_verification_failure():
    code, report = run_command(["check", "casimir", "dubrovin3.chart", "--f", "x"])
    assert code == 1 and not report.passed
    code, _ = run_command(["dirac", "aligned", "product22_bad.chart"])
    assert code == 1


def test_exit_two_on_usage_and_parse_errors():
    assert run_command(["frobnicate"])[0] == 2
    assert run_command(["check", "jacobi", "missing.chart"])[0] == 2
    assert run_command(["check", "casimir", "dubrovin3.chart", "--f", "x +* y"])[0] == 2


def test_group_stokes_cli():
    code, report = run_command([
        "group", "stokes", "--n", "3", "--samples", "5", "--seed", "1", "--tol", "1e-8",
    ])
    assert code == 0
    assert abs(abs(float(report.values["kappa"])) - 2.0) < 1e-8


def test_porcelain_deterministic(capsys):
    argv = ["--porcelain", "group", "stokes", "--n", "3", "--samples", "4", "--seed", "3", "--tol", "1e-8"]
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


def test_modular_relative_cli():
    code, report = run_command(["modular", "relative", "relmod2.chart"])
    assert code == 0
    assert report.values["nu_r"] == "(1) d/dx"


def test_lie_bialgebra_cli():
    code, report = run_command(["lie", "bialgebra", "--algebra", "su2"])
    assert code == 0
    assert report.values["double_dim"] == 6


@pytest.mark.parametrize("argv", [
    ["group", "stokes"],
    ["group", "crosscheck"],
    ["group", "bruhat"],
    ["dynr", "cdybe", "--algebra", "sl3"],
])
def test_sample_count_below_one_is_a_usage_error(argv, capsys):
    # zero samples used to crash (stokes) or pass without checking anything
    for samples in ("0", "-1"):
        assert run_command([*argv, "--samples", samples]) == (2, None)
        assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
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
])
def test_bad_input_is_a_usage_error(argv, needle, capsys, tmp_path, monkeypatch):
    # each of these used to exit 1, as if a verification had failed, or to pass having checked nothing
    monkeypatch.chdir(tmp_path)  # the named charts resolve among the fixtures; nonfamily.chart is written here
    (tmp_path / "nonfamily.chart").write_text("dim 3\ncoords x y z\nbracket x y = z\nbracket y z = y\n")
    assert run_command(argv) == (2, None)
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["check", "jacobi"], 1),
    (["check", "casimir", "--f", "x"], 1),
    (["check", "bracket", "--f", "x", "--g", "y"], 0),
    (["dirac", "slice", "--t", "w", "--t0", "0"], 1),
    (["modular", "vf"], 2),
    (["modular", "vf", "--skip-jacobi"], 0),
    (["dirac", "aligned", "--x", "x,y"], 2),
    (["dirac", "aligned", "--x", "x,y", "--skip-jacobi"], 1),
    (["dirac", "fixed-locus", "--matrix=1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"], 2),
])
def test_load_time_jacobi_check(argv, code, tmp_path):
    # check * and dirac slice read charts that need not be Poisson; the commands that take
    # --skip-jacobi reject a non-Poisson chart at load time (exit 2) unless given it.  The bracket
    # is a family along the slice t = w, so dirac slice gets as far as its own check at t0
    chart = tmp_path / "nonpoisson.chart"
    chart.write_text("dim 4\ncoords x y z w\nbracket x y = z\nbracket y z = y\n")
    assert run_command([*argv[:2], str(chart), *argv[2:]])[0] == code


def test_non_poisson_involution_is_a_verification_failure():
    assert run_command(["dirac", "fixed-locus", "so3.chart", "--matrix=1,0,0;0,1,0;0,0,-1"]) == (1, None)


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


# -- the README's CLI block, pinned --------------------------------------------------


def _readme_commands():
    """Argument vectors of the example lines in README's CLI block."""
    block = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## CLI")[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("poissonkit ") and "<" not in line]


def _leaf_commands(parser, prefix=()):
    """'command sub' of every leaf parser, each asserted to carry a handler."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        assert callable(parser.get_default("handler")), prefix
        return [" ".join(prefix)]
    return [leaf for name, p in subparsers[0].choices.items() for leaf in _leaf_commands(p, (*prefix, name))]


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
                     "max_tangency_residual", "max_markoff_defect", "rank_relation_ok", "seed", "pass"],
    "group crosscheck": ["group", "max_route_difference", "max_plus_residual", "rank_relation_ok", "seed", "pass"],
    "group bruhat": ["group", "max_route_difference", "max_plus_residual", "rank_relation_ok", "seed", "pass"],
    "dynr cdybe": ["algebra", "family", "spread", "invariance_defect", "derivative_defect", "tol", "seed", "pass"],
}


@pytest.mark.parametrize("leaf", sorted(PINNED))
def test_readme_commands_porcelain_output(leaf, capsys):
    readme = _readme_commands()
    # the README block names each leaf command of the parser once, and nothing else
    assert sorted(" ".join(argv[:2]) for argv in readme) == sorted(_leaf_commands(_build_parser())) == sorted(PINNED)
    (argv,) = [argv for argv in readme if " ".join(argv[:2]) == leaf]
    code, _ = run_command(["--porcelain", *argv])
    out = capsys.readouterr().out
    assert code == 0
    if isinstance(PINNED[leaf], str):
        assert out == PINNED[leaf]
    else:
        assert [line.split("=", 1)[0] for line in out.splitlines()] == PINNED[leaf]
