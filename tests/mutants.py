"""Named mutants of ``src/poissonkit``, each with the tests expected to kill it.

A mutant is one exact text substitution in the source of one function of the
package: ``pattern`` occurs in that source exactly once, and ``replacement``
takes its place.  ``killed_by`` lists test ids, as pytest prints them, that fail
on the mutant, a few of them where many do; each mutant was applied to a copy
of the package and the whole suite run.  ``tests/test_mutants.py`` checks in
tier-1 that each pattern still occurs exactly once, so the table cannot rot
silently, and so fails on any applied mutant by design; applying the mutants
and running their tests is not part of tier-1.
"""

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
               "tests/test_acceptance.py::test_c04_dirac_criterion_examples",
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
