"""Command-line surface: exit codes, file formats, report determinism."""

import pytest

from poissonkit.chartio import (
    ChartFileError,
    emit_chart,
    list_fixtures,
    load_algebra,
    parse_chart_file,
    parse_chart_text,
)
from poissonkit.cli import run_command
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
