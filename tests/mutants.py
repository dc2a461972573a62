"""Named mutants of ``src/poissonkit``, each with the tests expected to kill it.

A mutant is one exact text substitution in the source of one function of the
package: ``pattern`` occurs in that source exactly once, and ``replacement``
takes its place.  ``killed_by`` lists test ids, as pytest prints them, that fail
on the mutant, a few of them where many do; each mutant was applied to a copy
of the package and the whole suite run.  ``tests/test_mutants.py`` checks in
tier-1 that each pattern still occurs exactly once, so the table cannot rot
silently, and so fails on any applied mutant by design.

Run ``python tests/mutants.py`` to apply the mutants; it is not part of tier-1.
It copies the repository into a temporary directory, checks that every listed
test passes there, then applies each mutant in turn and runs only its
``killed_by`` tests, ``tests/test_mutants.py`` left out.  A mutant is killed
when every one of its tests fails.  The runner names each mutant that survives
any of its tests and then exits 1.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str  # poissonkit.<module>
    function: str  # the function's name in the module, dotted for a method
    pattern: str
    replacement: str
    killed_by: tuple[str, ...]


MUTANTS = (
    # every bound of a sampled check is a module constant, read at call time
    Mutant("crosscheck-route-bound-literal", "groupnum", "crosscheck_report",
           "max_diff <= TOL_CROSS", "max_diff <= 1e-8", (
               "tests/test_groupnum.py::test_crosscheck_pass_rule[sl]",
               "tests/test_groupnum.py::test_crosscheck_pass_rule[su]",
               "tests/test_groupnum.py::test_every_bound_of_a_pass_rule_is_a_module_constant[groupnum-crosscheck_report]",
           )),
    Mutant("stokes-route-bound-literal", "groupnum", "stokes_report",
           "values[key] <= TOL_CROSS", "values[key] <= 1e-8", (
               "tests/test_groupnum.py::test_stokes_pass_rule[1]",
               "tests/test_groupnum.py::test_stokes_pass_rule[2]",
               "tests/test_groupnum.py::test_stokes_pass_rule[3]",
               "tests/test_groupnum.py::test_stokes_fails_through_one_gate[dubrovin]",
               "tests/test_groupnum.py::test_every_bound_of_a_pass_rule_is_a_module_constant[groupnum-stokes_report]",
           )),
    Mutant("stokes-markoff-bound-literal", "groupnum", "stokes_report",
           "<= TOL_MARKOFF", "<= 1e-7", (
               "tests/test_groupnum.py::test_every_bound_of_a_pass_rule_is_a_module_constant[groupnum-stokes_report]",
           )),
    Mutant("stokes-tangency-ungated", "groupnum", "stokes_report",
           '"max_pushforward_residual", "max_tangency_residual"))', '"max_pushforward_residual"))', (
               "tests/test_groupnum.py::test_stokes_fails_through_one_gate[tangency]",
           )),
    # the cdybe gate at TOL_CROSS's value; the trig scans' derivative defect is near 2e-8
    Mutant("cdybe-bound-at-route-value", "dynr", "residual_scan",
           "<= TOL_CDYBE, values", "<= 1e-8, values", (
               "tests/test_dynr.py::test_scan_sl3_both_families",
               "tests/test_dynr.py::test_residual_scan_pass_rule[trig_family]",
               "tests/test_dynr.py::test_residual_scan_fails_through_the_spread_alone",
               "tests/test_cli.py::test_readme_commands_porcelain_output[dynr cdybe]",
               "tests/test_groupnum.py::test_every_bound_of_a_pass_rule_is_a_module_constant[dynr-residual_scan]",
           )),
    Mutant("cdybe-bound-literal", "dynr", "residual_scan",
           "<= TOL_CDYBE, values", "<= 1e-7, values", (
               "tests/test_dynr.py::test_residual_scan_pass_rule[trig_family]",
               "tests/test_dynr.py::test_residual_scan_pass_rule[corrupted_family]",
               "tests/test_groupnum.py::test_every_bound_of_a_pass_rule_is_a_module_constant[dynr-residual_scan]",
           )),
    # the rank cut moving with the route bound: at a route bound near 1e-16 the SU(3) rank relation fails
    Mutant("rank-cut-at-route-bound", "groupnum", "_rank",
           "> TOL_RANK", "> TOL_CROSS", (
               "tests/test_groupnum.py::test_crosscheck_pass_rule[su]",
           )),
    # the CLI takes no option its leaf does not declare
    Mutant("cli-unknown-option-ignored", "cli", "_read",
           "    if extras:", "    if False:", (
               "tests/test_cli.py::test_no_sampled_check_takes_a_tolerance[group stokes-tol=1e-8]",
               "tests/test_cli.py::test_no_sampled_check_takes_a_tolerance[group bruhat-tol=nan]",
               "tests/test_cli.py::test_no_sampled_check_takes_a_tolerance[dynr cdybe-tanh-corrupted-tol=1e300]",
           )),
    # the Dirac checks keep their order and their reasons
    Mutant("affine-l-part-read-as-m-part", "dirac", "affine_lie_poisson_dirac",
           "coords(w)[:k]", "coords(w)[k:]", (
               "tests/test_dirac.py::test_affine_checks_l_m_before_the_ad_condition",
               "tests/test_dirac.py::test_affine_so3_axis_passes",
               "tests/test_dirac.py::test_transverse_sl2",
               "tests/test_acceptance.py::test_claim[affine-so3]",
           )),
    Mutant("transverse-isotropy-first-element-only", "dirac", "transverse_from_reductive",
           "for x in basis:", "for x in basis[:1]:", (
               "tests/test_dirac.py::test_transverse_rejects_non_isotropy",
           )),
    Mutant("slice-jacobi-skipped", "dirac", "leaf_slice_obstruction",
           "if failed is not None:", "if False:", (
               "tests/test_dirac.py::test_slice_rejects_non_poisson_slice",
               "tests/test_cli.py::test_dirac_slice_reports_a_non_poisson_slice",
           )),
    Mutant("slice-reason-dropped", "dirac", "leaf_slice_obstruction",
           'replace(failed, reason="slice bivector at t0 is not Poisson")', "failed", (
               "tests/test_dirac.py::test_slice_rejects_non_poisson_slice",
           )),
)


def _apply(root: Path, mutant: Mutant) -> None:
    """Substitute the mutant's pattern, once, in its function's source under ``root``."""
    path = root / "src" / "poissonkit" / f"{mutant.module}.py"
    text = path.read_text()
    node = ast.parse(text)
    for name in mutant.function.split("."):
        node = next(n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    lines = text.splitlines(keepends=True)
    head, body, tail = ("".join(part) for part in (lines[:node.lineno - 1], lines[node.lineno - 1:node.end_lineno],
                                                   lines[node.end_lineno:]))
    if body.count(mutant.pattern) != 1:
        raise ValueError(f"{mutant.name}: the pattern does not occur exactly once in {mutant.function}")
    path.write_text(head + body.replace(mutant.pattern, mutant.replacement) + tail)


def _failed(root: Path, ids) -> dict[str, bool | None]:
    """Whether each test id fails when pytest runs the ids under ``root``; None for an id not run."""
    report = root / "mutants-junit.xml"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py",
                    f"--junitxml={report}", *ids], cwd=root, env=env, capture_output=True)
    outcome = {f"{case.get('classname').replace('.', '/')}.py::{case.get('name')}":
               case.find("failure") is not None or case.find("error") is not None
               for case in ET.parse(report).iter("testcase")}
    return {test_id: outcome.get(test_id) for test_id in ids}


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(Path(__file__).resolve().parents[1], root,
                        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        unkilled = [test_id for test_id, failed in _failed(root, sorted({i for m in MUTANTS for i in m.killed_by})).items()
                    if failed is not False]
        if unkilled:
            print("these tests fail or do not run without a mutant:", *unkilled, sep="\n  ")
            return 1
        survivors = []
        for mutant in MUTANTS:
            path = root / "src" / "poissonkit" / f"{mutant.module}.py"
            original = path.read_text()
            t0 = time.perf_counter()
            _apply(root, mutant)
            try:
                passed = [test_id for test_id, failed in _failed(root, mutant.killed_by).items() if not failed]
            finally:
                path.write_text(original)
            print(f"{'survived' if passed else 'killed':<9} {mutant.name} ({time.perf_counter() - t0:.1f} s)")
            for test_id in passed:
                print(f"  not killed by {test_id}")
            survivors += [mutant.name] if passed else []
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    if survivors:
        print("survived:", ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
