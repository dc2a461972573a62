"""Named mutants of ``src/poissonkit``, each with the tests expected to kill it.

A mutant is one exact text substitution in the source of one function, or of
one module constant's assignment, of the package: ``pattern`` occurs in that
source exactly once, and ``replacement`` takes its place.  ``killed_by`` lists
test ids, as pytest prints them, that fail on the mutant, a few of them where
many do; each mutant was applied to a copy of the package and the whole suite
run.  ``tests/test_mutants.py`` checks in tier-1 that each pattern still occurs
exactly once, so the table cannot rot silently, and so fails on any applied
mutant by design.

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
    function: str  # the function's name in the module, dotted for a method, or a module constant's name
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
               "tests/test_groupnum.py::test_every_bound_of_a_pass_rule_is_a_module_constant[dynr-residual_scan]",
           )),
    Mutant("cdybe-bound-literal", "dynr", "residual_scan",
           "<= TOL_CDYBE, values", "<= 1e-7, values", (
               "tests/test_dynr.py::test_residual_scan_pass_rule[trig_family]",
               "tests/test_dynr.py::test_residual_scan_pass_rule[corrupted_family]",
               "tests/test_groupnum.py::test_every_bound_of_a_pass_rule_is_a_module_constant[dynr-residual_scan]",
           )),
    # the root-coordinate CDYBE kernel: the 1/2 of (1/2)[r, r] on the diagonal features c_a^2, the
    # sign (-1)^s of the slot an ad-image replaces, and the scan's own difference quotient, which
    # the per-sample loop forms as (r(lambda + h) - r(lambda - h)) * (1 / 2h): a division by 2h
    # moves the derivative defect by rounding alone, so only its exact agreement kills it
    Mutant("cdybe-diagonal-half-dropped", "dynr", "DynamicalRFamily._trivectors",
           "(half if a == b else Scalar(1))", "Scalar(1)", (
               "tests/test_dynr.py::test_residual_constant_two_points_sl2",
               "tests/test_dynr.py::test_root_coordinate_residual_matches_the_dense_route[3-trig]",
               "tests/test_dynr.py::test_scan_sl3_both_families",
               "tests/test_acceptance.py::test_claim[cdybe-sl2-trig]",
           )),
    Mutant("ad-image-slot-parity-flipped", "dynr", "DynamicalRFamily._trivectors",
           "(-1.0) ** (below + slot)", "(-1.0) ** below", (
               "tests/test_batched.py::test_max_ad_defect_matches_the_dense_reference[3]",
               "tests/test_batched.py::test_max_ad_defect_matches_the_dense_reference[4]",
               "tests/test_dynr.py::test_scan_sl3_both_families",
               "tests/test_acceptance.py::test_claim[cdybe-sl3-trig]",
           )),
    Mutant("cdybe-difference-quotient-reordered", "dynr", "residual_scan",
           "* (1.0 / (2 * step))", "/ (2 * step)", (
               "tests/test_batched.py::test_residual_scan_matches_the_per_sample_loop[4-4-1-trig]",
               "tests/test_batched.py::test_residual_scan_matches_the_per_sample_loop[4-5-1-rational]",
               "tests/test_batched.py::test_residual_scan_matches_the_per_sample_loop[4-5-1-trig]",
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
    Mutant("affine-mu-shift-sign", "dirac", "affine_lie_poisson_dirac",
           "Poly.var(n, i) + offset[i]", "Poly.var(n, i) - offset[i]", (
               "tests/test_dirac.py::test_affine_reads_l_m_and_ad_in_pair_order",
               "tests/test_dirac.py::test_affine_lie_agrees_with_the_three_condition_loop[sl2]",
               "tests/test_dirac.py::test_affine_lie_agrees_with_the_three_condition_loop[sl3]",
           )),
    Mutant("affine-lambda-split-negated", "dirac", "affine_lie_poisson_dirac",
           "if any(any(e) for e in lam.terms):", "if not any(any(e) for e in lam.terms):", (
               "tests/test_dirac.py::test_affine_ad_condition_fails",
               "tests/test_dirac.py::test_affine_l_part_alone",
               "tests/test_dirac.py::test_affine_lie_agrees_with_the_three_condition_loop[sl3]",
           )),
    Mutant("transverse-isotropy-first-element-only", "dirac", "transverse_from_reductive",
           "for b in range(g.dim):", "for b in range(1):", (
               "tests/test_dirac.py::test_transverse_rejects_non_isotropy",
           )),
    # a fixed locus is read off an involution, through the pushforward along the eigenbasis, and never off -I
    Mutant("involution-square-unchecked", "dirac", "LinearInvolution.__post_init__",
           "if not linalg.is_involution(self.columns):", "if False:", (
               "tests/test_dirac.py::test_involution_validation[not-an-involution]",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[dirac fixed-locus so3.chart '--matrix=1,1,0;0,1,0;0,0,1']",
           )),
    Mutant("pushforward-composes-with-a", "dirac", "_pushforward",
           "linalg.transpose(a_inv, n)", "linalg.transpose(a, n)", (
               "tests/test_dirac.py::test_pushforward_matches_leg_wedge_reference",
               "tests/test_dirac.py::test_fixed_locus_two_routes_agree",
               "tests/test_dirac.py::test_affine_lie_agrees_with_the_three_condition_loop[sl3]",
           )),
    Mutant("fixed-locus-minus-identity-unguarded", "cli", "_dirac_fixed_locus",
           "if s.columns == tuple(((j, -SCALAR_ONE),) for j in range(chart.dim)):", "if False:", (
               "tests/test_cli.py::test_bad_input_is_a_usage_error[dirac fixed-locus so3.chart '--matrix=-1,0,0;0,-1,0;0,0,-1']",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[dirac fixed-locus product22.chart "
               "'--matrix=-1,0,0,0;0,-1,0,0;0,0,-1,0;0,0,0,-1']",
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
    Mutant("slice-monomials-lexicographic", "dirac", "_monomials_up_to",
           "key=lambda e: (sum(e), e)", "key=lambda e: e", (
               "tests/test_dirac.py::test_slice_monomials_are_every_exponent_in_graded_order[2]",
               "tests/test_dirac.py::test_slice_monomials_are_every_exponent_in_graded_order[3]",
               "tests/test_dirac.py::test_slice_monomials_are_every_exponent_in_graded_order[4]",
           )),
    # the exact kernel and the checks over it
    Mutant("hook-parity-ignored", "exactalg", "_hook",
           "if (below_b & rest).bit_count() & 1:", "if False:", (
               "tests/test_exactalg.py::test_schouten_graded_leibniz",
               "tests/test_oracle.py::test_schouten_oracle_dim3_100_pairs",
               "tests/test_poisson.py::test_jacobiator_dubrovin_zero",
               "tests/test_acceptance.py::test_claim[stokes-jacobi]",
           )),
    Mutant("hook-overlap-unchecked", "exactalg", "_hook",
           "if rest & mask_b:", "if False:", (
               "tests/test_poisson.py::test_jacobiator_dubrovin_zero",
               "tests/test_oracle.py::test_schouten_oracle_dim3_100_pairs",
               "tests/test_acceptance.py::test_claim[stokes-jacobi]",
           )),
    Mutant("hook-imaginary-square-sign", "exactalg", "schouten",
           "out[k - one] = out.get(k - one, 0) - v", "out[k - one] = out.get(k - one, 0) + v", (
               "tests/test_exactalg.py::test_schouten_two_imaginary_factors_give_a_real_product",
           )),
    # the constructor owns the table's invariants: distinct labels, indices in range, each pair given once
    Mutant("lie-labels-unchecked", "liealg", "LieAlgebraData.__init__",
           "if len(set(self.labels)) != len(self.labels):", "if False:", (
               "tests/test_liealg.py::test_repeated_labels_raise",
               "tests/test_liealg.py::test_double_of_an_algebra_with_a_starred_label_raises_when_it_builds_sigma",
           )),
    Mutant("lie-bracket-index-unchecked", "liealg", "LieAlgebraData.__init__",
           "if not all(0 <= x < self.dim for x in (i, j, *entry)):", "if False:", (
               "tests/test_liealg.py::test_bracket_index_out_of_range_raises[j]",
               "tests/test_liealg.py::test_bracket_index_out_of_range_raises[i]",
               "tests/test_liealg.py::test_bracket_index_out_of_range_raises[k]",
           )),
    Mutant("lie-bracket-twice-unchecked", "liealg", "LieAlgebraData.__init__",
           "if (i, j) in self.table:", "if False:", (
               "tests/test_liealg.py::test_bracket_given_twice_raises[antisymmetric]",
               "tests/test_liealg.py::test_bracket_given_twice_raises[symmetric]",
           )),
    # validate_lie's Jacobi verdict is its Lie-Poisson chart's, and its witness that chart's first failing
    # component, not another
    Mutant("lie-jacobi-verdict-ignored", "liealg", "validate_lie",
           "if failed is None:", "if True:", (
               "tests/test_cli.py::test_algebra_jacobi_error_names_the_failing_triple",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[lie validate nonjacobi.alg]",
               "tests/test_liealg.py::test_validate_jacobi_failure_perturbed_sl2",
               "tests/test_liealg.py::test_double_of_a_non_r_matrix_raises_value_error",
               "tests/test_liealg.py::test_explicit_zero_constants_build_the_same_table_and_chart[nonjacobi-sl3]",
           )),
    Mutant("lie-jacobi-witness-not-first", "liealg", "validate_lie",
           "witness=failed.witness[0]", "witness=max(g._lie_poisson_chart._jacobiator.comps)", (
               "tests/test_cli.py::test_algebra_jacobi_error_names_the_failing_triple",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[lie validate nonjacobi.alg]",
               "tests/test_liealg.py::test_explicit_zero_constants_build_the_same_table_and_chart[nonjacobi-sl3]",
           )),
    # the matrix builds' expansion residual, run on the nonzeros of the sparse solution
    Mutant("coordinates-residual-skipped", "liealg", "_coordinates",
           "if {rc: v for rc, v in image.items() if v} != target:", "if False:", (
               "tests/test_liealg.py::test_coordinates_residual_catches_a_changed_coordinate[first]",
               "tests/test_liealg.py::test_coordinates_residual_catches_a_changed_coordinate[middle]",
               "tests/test_liealg.py::test_coordinates_residual_catches_a_changed_coordinate[last]",
           )),
    # a linear map is its nonzero columns, and its constructor owns their form
    Mutant("alg-map-columns-unchecked", "liealg", "LinearAlgMap.__post_init__",
           "if not (len(self.columns) == self.source.dim and linalg.is_columns(self.columns, dim)):", "if False:", (
               "tests/test_liealg.py::test_alg_map_rejects_columns_that_break_its_form[one-column-per-target-element]",
               "tests/test_liealg.py::test_alg_map_rejects_columns_that_break_its_form[too-few-columns]",
               "tests/test_liealg.py::test_alg_map_rejects_columns_that_break_its_form[index-past-the-target]",
               "tests/test_liealg.py::test_alg_map_rejects_columns_that_break_its_form[negative-index]",
               "tests/test_liealg.py::test_alg_map_rejects_columns_that_break_its_form[zero-coefficient]",
               "tests/test_liealg.py::test_alg_map_rejects_columns_that_break_its_form[descending-indices]",
               "tests/test_liealg.py::test_alg_map_rejects_columns_that_break_its_form[repeated-index]",
           )),
    Mutant("bialgebra-phi-r-unchecked", "liealg", "symmetric_bialgebra_check",
           "if not (phi.apply(r) + r).is_zero():", "if False:", (
               "tests/test_liealg.py::test_symmetric_fails_for_an_r_that_phi_does_not_negate",
           )),
    # the sparse elimination clears each new pivot column from the pivot rows found before it
    Mutant("rref-back-substitution-skipped", "linalg", "rref",
           "_clear(other, lead, row)", "pass", (
               "tests/test_linalg.py::test_rref_of_fixed_matrices[back-substitution]",
           )),
    Mutant("solve-inconsistency-ignored", "linalg", "solve",
           "if pivots and pivots[-1] >= ncols:", "if False:", (
               "tests/test_linalg.py::test_one_inconsistent_column_fails_the_whole_solve",
               "tests/test_dirac.py::test_slice_unsolvable_at_degree_zero",
               "tests/test_acceptance.py::test_claim[leaf-slice]",
           )),
    Mutant("modular-sweep-sign", "poisson", "modular_vf",
           "-c if k == 1 else c * -k", "c if k == 1 else c * k", (
               "tests/test_poisson.py::test_modular_linear_example",
               "tests/test_poisson.py::test_modular_sweep_matches_per_coordinate_route",
           )),
    Mutant("sample-rerun-dropped", "report", "sample_blocks",
           "for k in ks:", "for k in ks[:0]:", (
               "tests/test_batched.py::test_non_fixed_point_raises_as_the_loop_does",
               "tests/test_batched.py::test_non_invariant_bivector_raises_as_the_loop_does",
               "tests/test_batched.py::test_near_singular_moved_lambda_raises_as_the_loop_does",
           )),
    # each sample reads its own words: its own counter in any block, its own stream per round of
    # lambda candidates, and only from a key that holds the seed
    Mutant("sample-words-block-restarts", "report", "sample_words",
           "(stream << 128) + ks.start * WORDS // 4", "(stream << 128)", (
               "tests/test_batched.py::test_sample_words_are_each_samples_own_philox_words",
               "tests/test_batched.py::test_drawn_points_match_the_per_sample_loop[sl-3]",
               "tests/test_batched.py::test_sample_lambdas_match_the_per_sample_loop[2]",
               "tests/test_batched.py::test_membership_failure_raises_as_the_loop_does",
               "tests/test_batched.py::test_stokes_membership_failure_raises_as_the_loop_does",
           )),
    Mutant("lambda-rounds-share-a-stream", "dynr", "_sample_lambdas",
           "sample_words(seed, ks, stream)", "sample_words(seed, ks, 0)", (
               "tests/test_batched.py::test_sample_lambdas_match_the_per_sample_loop[4]",
           )),
    Mutant("sample-words-seed-unchecked", "report", "sample_words",
           "if not 0 <= seed < 1 << 128:", "if False:", (
               "tests/test_batched.py::test_sample_words_reject_a_seed_a_philox_key_cannot_hold[-1]",
               "tests/test_batched.py::test_sample_words_reject_a_seed_a_philox_key_cannot_hold[2^128]",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[group stokes --seed 340282366920938463463374607431768211456]",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[dynr cdybe --algebra sl2 --seed=340282366920938463463374607431768211456]",
           )),
    # each shared decision has one home, which every caller reads
    Mutant("stokes-coordinates-swapped", "groupnum", "STOKES_COORDS",
           "((0, 1), (0, 2), (1, 2))", "((0, 2), (0, 1), (1, 2))", (
               "tests/test_groupnum.py::test_dubrovin_target_is_the_exact_chart_at_dyadic_points",
               "tests/test_groupnum.py::test_stokes_report_passes",
               "tests/test_acceptance.py::test_claim[stokes-kappa]",
           )),
    Mutant("witness-last-component", "poisson", "_not_poisson",
           "witness=min(jac.comps.items())", "witness=max(jac.comps.items())", (
               "tests/test_cli.py::test_a_non_poisson_witness_is_the_first_jacobiator_component[check jacobi]",
               "tests/test_cli.py::test_a_non_poisson_witness_is_the_first_jacobiator_component[load check]",
               "tests/test_poisson.py::test_witnesses_are_the_first_nonzero_components",
           )),
    Mutant("power-drops-factors", "exactalg", "_power",
           "out = out * base", "out = base", (
               "tests/test_exactalg.py::test_scalar_field_arithmetic",
               "tests/test_exactalg.py::test_power_takes_no_square_after_the_last_bit",
               "tests/test_parser.py::test_parser_matches_reference_on_fixed_rows",
           )),
    # the chart reader's checks: each pair once and off the diagonal, each index in range, each name
    # declared, and each directive that may stand once given once
    Mutant("chart-bracket-twice-unchecked", "chartio", "parse_chart_text",
           "if (i, j) in entries:", "if False:", (
               "tests/test_cli.py::test_duplicate_bracket_rejected",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[check jacobi twice.chart]",
           )),
    Mutant("chart-self-bracket-unchecked", "chartio", "parse_chart_text",
           "if i == j:", "if False:", (
               "tests/test_cli.py::test_bad_input_is_a_usage_error[check jacobi selfbracket.chart]",
           )),
    Mutant("chart-index-range-unchecked", "chartio", "_coord_index",
           "if not 0 <= j < len(index):", "if False:", (
               "tests/test_cli.py::test_bad_input_is_a_usage_error[check jacobi index2.chart]",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[check jacobi indexminus.chart]",
           )),
    Mutant("parser-unknown-identifier-unnamed", "exactalg", "PolyParser._sum",
           'elif tok[:1].isalpha() or tok[:1] == "_":', "elif False:", (
               "tests/test_cli.py::test_bad_input_is_a_usage_error[check jacobi unknownname.chart]",
               "tests/test_parser.py::test_parser_matches_reference_on_fixed_rows",
           )),
    Mutant("chart-dim-twice-unchecked", "chartio", "_header",
           "if dim is not None:", "if False:", (
               "tests/test_cli.py::test_bad_input_is_a_usage_error[check jacobi dim2.chart]",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[lie validate dim2.alg]",
           )),
    Mutant("chart-names-twice-unchecked", "chartio", "_header",
           "if names is not None:", "if False:", (
               "tests/test_cli.py::test_bad_input_is_a_usage_error[check jacobi coords2.chart]",
               "tests/test_cli.py::test_bad_input_is_a_usage_error[lie validate labels2.alg]",
           )),
    Mutant("chart-volume-twice-unchecked", "chartio", "parse_chart_text",
           "if volume is not None:", "if False:", (
               "tests/test_cli.py::test_bad_input_is_a_usage_error[modular vf volume2.chart]",
           )),
    Mutant("chart-submanifold-twice-unchecked", "chartio", "parse_chart_text",
           'raise ChartFileError("submanifold declared twice", lineno)', "pass", (
               "tests/test_cli.py::test_bad_input_is_a_usage_error[dirac aligned submanifold2.chart]",
           )),
    Mutant("oracle-compares-kernel-with-itself", "cli", "_oracle_report",
           "kernel(a, b) != reference(a, b)", "kernel(a, b) != kernel(a, b)", (
               "tests/test_acceptance.py::test_claim[schouten-oracle]",
               "tests/test_cli.py::test_oracle_cli_catches_a_wrong_kernel[oracle schouten --pairs 25 --seed 1]",
               "tests/test_cli.py::test_oracle_cli_catches_a_wrong_kernel[oracle alg --algebra sl3 --pairs 25 --seed 1]",
           )),
)


def _defines(node: ast.stmt, name: str) -> bool:
    """Whether the statement defines ``name``: a function or class of that name, or an assignment to it."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]


def split(text: str, function: str) -> tuple[str, str, str]:
    """A module's source as the text before the definition ``function`` names, its lines, and the text after."""
    node = ast.parse(text)
    for name in function.split("."):
        node = next(n for n in node.body if _defines(n, name))
    lines = text.splitlines(keepends=True)
    return tuple("".join(part) for part in (lines[:node.lineno - 1], lines[node.lineno - 1:node.end_lineno],
                                            lines[node.end_lineno:]))


def _apply(root: Path, mutant: Mutant) -> None:
    """Substitute the mutant's pattern, once, in its function's source under ``root``."""
    path = root / "src" / "poissonkit" / f"{mutant.module}.py"
    head, body, tail = split(path.read_text(), mutant.function)
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
