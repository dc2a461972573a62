"""Command-line surface: exit codes, file formats, report determinism."""

import argparse
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subprocess_env

import poissonkit
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


@pytest.mark.parametrize("argv", [["-h"], ["check", "jacobi", "-h"], ["--porcelain", "group", "stokes", "--help"]])
def test_help_exits_zero_without_a_report(argv, capsys):
    # the help used to leave run_command as argparse's SystemExit(0)
    assert run_command(argv) == (0, None)
    out, err = capsys.readouterr()
    assert out.startswith("usage: poissonkit") and err == ""


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


# charts and algebras that are bad input, written into the working directory of the tests that use them
BAD_FILES = {
    "nonfamily.chart": "dim 3\ncoords x y z\nbracket x y = z\nbracket y z = y\n",
    "nonpoisson.chart": "dim 4\ncoords x y z w\nbracket x y = z\nbracket y z = y\n",
    "nondirac.chart": "dim 2\ncoords x y\nbracket x y = x\nsubmanifold x = x\n",
    "imaginary.chart": "dim 2\ncoords x i\nbracket x i = 1\n",
    "repeated.chart": "dim 2\ncoords x x\n",
    "zerovolume.chart": "dim 2\ncoords x y\nbracket x y = 1\nvolume = 0\n",
    "volume_x.chart": "dim 2\ncoords x y\nbracket x y = y\nvolume = x\nsubmanifold x = x\n",
    "volume_y.chart": "dim 2\ncoords x y\nbracket x y = y\nvolume = y\nsubmanifold x = x\n",
    "zerodenominator.chart": "dim 2\ncoords x y\nbracket x y = 1/0\n",
    "dimx.alg": "dim x\nlabels a b\n",
    "zerodenominator.alg": "dim 2\nlabels a b\nc a b a = 1/0\n",
}


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
     "--tol: must be finite and at least 0, got inf"),
    (["dynr", "cdybe", "--algebra", "sl3", "--tol", "nan"], "--tol: must be finite and at least 0, got nan"),
    (["group", "stokes", "--tol", "-1"], "--tol: must be finite and at least 0, got -1"),
    (["group", "crosscheck", "--tol=-inf"], "--tol: must be finite and at least 0, got -inf"),
    (["group", "bruhat", "--tol", "x"], "--tol: invalid float value: 'x'"),
])
def test_bad_input_is_a_usage_error(argv, needle, capsys, tmp_path, monkeypatch):
    # each of these used to exit 1, as if a verification had failed, to pass having checked nothing,
    # or to raise out of run_command
    monkeypatch.chdir(tmp_path)  # the named charts resolve among the fixtures; BAD_FILES are written here
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    assert run_command(argv) == (2, None)
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["check", "jacobi"], 1),
    (["check", "casimir", "--f", "x"], 1),
    (["check", "bracket", "--f", "x", "--g", "y"], 0),
    (["dirac", "slice", "--t", "w", "--t0", "0"], 1),
    (["modular", "vf"], 2),
    (["modular", "vf", "--skip-jacobi"], 2),
    (["dirac", "aligned", "--x", "x,y"], 2),
    (["dirac", "aligned", "--x", "x,y", "--skip-jacobi"], 2),
    (["dirac", "fixed-locus", "--matrix=1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"], 2),
])
def test_load_time_jacobi_check(argv, code, tmp_path):
    # check * and dirac slice read charts that need not be Poisson; dirac aligned|fixed-locus and
    # modular * reject a non-Poisson chart at load time (exit 2), and --skip-jacobi is no option.
    # The bracket is a family along the slice t = w, so dirac slice gets as far as its own check at t0
    chart = tmp_path / "nonpoisson.chart"
    chart.write_text(BAD_FILES["nonpoisson.chart"])
    assert run_command([*argv[:2], str(chart), *argv[2:]])[0] == code


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


@pytest.mark.parametrize("argv, witness", [
    (["dirac", "fixed-locus", "so3.chart", "--matrix=0,1,0;1,0,0;0,0,1"], "(x1,x2): -2*x3"),
    (["dirac", "transverse", "--algebra", "so3", "--l", "x1,x2", "--m", "x3", "--mu", "0,0,0"],
     "l is not a subalgebra: [l_0, l_1] leaves l"),
    (["dirac", "transverse", "--algebra", "so3", "--l", "x3", "--m", "x1,x2", "--mu", "1,0,0"],
     "l is not contained in the isotropy algebra of mu (element 0)"),
])
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


def test_readme_layout_names_every_module():
    # a module cannot ship without its row in README's Layout table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Layout")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `poissonkit\.(\w+)` \|", table, flags=re.MULTILINE)
    modules = [p.stem for p in Path(poissonkit.__file__).parent.glob("*.py") if p.stem not in ("__init__", "__main__")]
    assert sorted(listed) == sorted(modules)


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


# -- the exit-code contract, fuzzed ----------------------------------------------------

# values per argparse dest, good and bad mixed; an optional flag may also be left out
FUZZ_POOLS = {
    "chart": ["dubrovin3.chart", "so3.chart", "product22.chart", "product22_bad.chart", "relmod2.chart",
              "slice_family.chart", "missing.chart",
              *(name for name in BAD_FILES if name.endswith(".chart"))],
    "algebra": ["sl2", "su2", "so3", "missing.alg", "dimx.alg", "zerodenominator.alg"],
    "samples": ["0", "1", "2", "3", "x"],
    "pairs": ["0", "1", "2", "3", "x"],
    "dim": ["0", "1", "3"],
    "n": ["1", "3", "4", "7"],
    "tol": ["1e-8", "-1", "nan", "inf"],
    "seed": ["0", "1"],
    "degree": ["-1", "0", "1"],
    "family": ["trig", "tanh-corrupted"],
    "f": ["x", "1/0", "x +* y", "q"],
    "g": ["y", "q"],
    "x": ["x", "x1,x2", "x1,x1", "q"],
    "t": ["t", "t,t", "w", "q", ""],
    "t0": ["0", "0,0", "1/0"],
    "mu": ["0,0,1", "1,0,0", "0", "0,0,1/0"],
    "matrix": ["-1,0,0;0,-1,0;0,0,1", "1,0,0;0,1,0;0,0,-1", "1,0;0,1", "1,1,0;0,1,0;0,0,1", "1/0,0,0;0,1,0;0,0,1"],
    "l": ["x3", "h1", "x1,x2", "x9"],
    "m": ["x1,x2", "e12,f12", "x3", "x9"],
    "help": ["-h", "--help"],
}


def _leaf_parser(parser, leaf):
    for name in leaf.split():
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
    return parser


def _draw_argv(data, parser):
    """An argv for one leaf of the parser's own command tree, its values drawn from FUZZ_POOLS."""
    leaf = data.draw(st.sampled_from(_leaf_commands(parser)))
    argv = [*(["--porcelain"] if data.draw(st.booleans()) else []), *leaf.split()]
    for action in _leaf_parser(parser, leaf)._actions:
        if action.dest not in FUZZ_POOLS:
            continue
        value = data.draw(st.sampled_from(FUZZ_POOLS[action.dest]))
        if not action.option_strings:
            argv.append(value)
        elif action.nargs == 0:  # a flag, -h/--help: drawn into about one argv in six
            if data.draw(st.integers(0, 5)) == 0:
                argv.append(value)
        elif action.required or data.draw(st.booleans()):
            argv.append(f"{action.option_strings[0]}={value}")
    return argv


def test_exit_code_contract(capsys, tmp_path, monkeypatch):
    # README: 0 passes, 1 always prints a failed report, 2 is bad input with one error line;
    # anything raised out of run_command is a bug
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    parser = _build_parser()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        argv = _draw_argv(data, parser)
        code, report = run_command(argv)
        out, err = capsys.readouterr()
        if code == 2:
            assert report is None and out == "" and err.startswith(("usage error: ", "input error: ")), argv
            return
        if report is None:  # -h/--help: the help, and no verdict
            assert code == 0 and out.startswith("usage:") and err == "", argv
            return
        last = out.splitlines()[-1]
        verdict = last if "--porcelain" in argv else "=".join(last.split())
        assert (code, report.ok, verdict) in ((0, True, "pass=True"), (1, False, "pass=False")), argv

    check()
