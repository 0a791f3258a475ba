"""Hand-written source mutants that the test suite must kill.

    python tests/mutants.py [NAME ...]

Each mutant is a one-line plain-text substitution in one file of src/. For
each, src/ is copied to a temporary directory, the substitution is applied
there (its old text must occur exactly once), and pytest runs the mutant's
named tests with that copy first on PYTHONPATH. A mutant is killed when
those tests fail (pytest exit status 1). The named tests of every mutant
also run once on the unmutated copy, where they must pass, so that a kill
is the mutant's doing. pytest runs in the temporary directory, so
hypothesis keeps the failing examples it finds there and not in the
checkout.

Prints one line per run and exits 1 unless every mutant is killed and the
unmutated run passes. Needs only the test extra: no mutation-testing
package is used. Not collected by pytest (its name does not start with
``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
# two runs at a time: each is a pytest process of about 150 MB
WORKERS = 2
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/magnoncavity
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids relative to tests/


ORACLE = ("test_magnetostatics.py::test_field_maps_and_table_rows_are_the_scalar_oracle_bit_for_bit",)
RESIDUAL = (
    "test_magnetostatics.py::TestBatchedSolver::test_float_residual_has_the_bits_of_the_complex_one",
    "test_magnetostatics.py::test_legendre_pair_matches_the_polynomials_and_the_complex_recurrence",
)
DENSE = ("test_magnetostatics.py::TestBatchedSolver::test_roots_equal_those_of_a_dense_scan_of_the_residual",)
SATURATION = ORACLE + (
    "test_magnetostatics.py::"
    "test_a_field_that_does_not_saturate_the_sphere_is_one_error_wherever_it_meets_the_material",
)
PARALLEL = "test_cli.py::TestParallelMap::"
MODES = "test_cli.py::TestModesCommand::"
CELLS = "test_cli.py::TestCells::"
FINITE_F_M = 'magnetostatics._Rule(np.isfinite(values), ValueError, lambda k: "f_m must be finite")'

MUTANTS = [
    # the validity rules of the field maps and the Walker table rows
    Mutant(
        "walker FieldMap without the integer check", "model.py",
        "if not all(isinstance(k, (int, np.integer)) for k in (self.i, self.j)):", "if False:",
        ("test_model.py::test_walker_field_map_rejects_non_integer_indices_with_the_index_rule_text",),
    ),
    # one saturation rule: a field that meets a material is finite and above mu0_Ms/3
    Mutant(
        "saturation rule dropped", "magnetostatics.py",
        "np.isfinite(B_ext) & (internal_field(B_ext, material) > 0)", "np.isfinite(B_ext)", SATURATION,
    ),
    Mutant(
        "B = mu0_Ms/3 accepted", "magnetostatics.py",
        "(internal_field(B_ext, material) > 0)", "(internal_field(B_ext, material) >= 0)", SATURATION,
    ),
    Mutant(
        "table rows without the index check", "magnetostatics.py",
        "_index_rules(i, j, B_ext.shape) + saturated + window", "saturated + window", ORACLE,
    ),
    Mutant(
        "table rows without the field check", "magnetostatics.py",
        "_index_rules(i, j, B_ext.shape) + saturated + window", "_index_rules(i, j, B_ext.shape) + window", ORACLE,
    ),
    # each input of the amplitude kernel is checked once, where it enters: f_m per mode as its map resolves, f by
    # the one-field calls (sweep_map and the fit check their grids); a value that is not finite is a domain error
    Mutant(
        "finite check before the map rules", "scattering.py", f"[rules + [{FINITE_F_M}]", f"[[{FINITE_F_M}] + rules",
        ("test_magnetostatics.py::test_field_map_resolution_raises_the_first_failing_field_and_mode_of_the_oracle",),
    ),
    Mutant(
        "no per-mode finite rule", "scattering.py", f"[rules + [{FINITE_F_M}]", "[rules",
        ("test_scattering.py::test_each_f_m_is_checked_where_the_field_maps_resolve",),
    ),
    Mutant(
        "amplitudes without its f check", "scattering.py", 'raise ValueError("f must be finite")', "pass",
        ("test_model.py::test_the_one_field_calls_reject_a_non_finite_frequency",),
    ),
    Mutant(
        "SweepMap raising ValueError again", "scattering.py",
        'raise DomainError(f"{self.observable} is', 'raise ValueError(f"{self.observable} is',
        ("test_cli.py::TestExitCodes::test_a_non_finite_cell_is_one_domain_error_line",),
    ),
    # the float64 Walker residual: numpy's complex division multiplies by 1.0/c, and imaginary factors flip signs
    Mutant(
        "a / c for a * (1.0 / c)", "magnetostatics.py",
        "* (1.0 / (n - j))", "/ (n - j)", RESIDUAL,
    ),
    Mutant(
        "inverted parity choice of z", "magnetostatics.py",
        "z_n = z_flip if (n - j) % 2 == 0 else z", "z_n = z if (n - j) % 2 == 0 else z_flip", RESIDUAL,
    ),
    # the cleared Walker residual's j * f_M * f * P term, its P_{i-1} term, its negation above the chi pole, and the
    # (2,0) closed form the `modes` table compares roots with
    Mutant(
        "a wrong sign of j in the Walker residual", "magnetostatics.py",
        "+ j * f_M * f * p", "- j * f_M * f * p",
        ("test_magnetostatics.py::TestSolver::test_matches_linear_closed_forms[ij1]",),
    ),
    Mutant(
        "a wrong sign on the P_{i-1} term", "magnetostatics.py", "- (i + j) * p_im1", "+ (i + j) * p_im1", DENSE,
    ),
    Mutant(
        "C not negated above the chi pole", "magnetostatics.py",
        "-value, value)", "value, value)", DENSE,
    ),
    # R is NaN only where the recurrence sees xi0^2 = 1 or its value is not finite: finite next to the chi pole
    # for the pairs without a pole there
    Mutant(
        "the pole guard put back", "magnetostatics.py",
        "value, defined = value / (p * den), seen != 1",
        "value, defined = value / (p * den), (seen != 1) & (np.abs(den) >= 1e-12 * np.maximum(x * x, f * f))",
        ("test_magnetostatics.py::TestCharacteristicEquation::"
         "test_a_pair_without_a_pole_at_the_internal_field_frequency_is_finite_next_to_it",),
    ),
    Mutant(
        "a (2,0) closed form scaled by 1 + 1e-8", "magnetostatics.py",
        "f_M * np.sqrt((r - 1.0 / 3.0) * (r + 7.0 / 15.0)), rules",
        "f_M * np.sqrt((r - 1.0 / 3.0) * (r + 7.0 / 15.0)) * (1 + 1e-8), rules",
        ("test_magnetostatics.py::TestClosedForms::test_mode20_value_and_domain",),
    ),
    # the Walker candidates: a zero edge is a root, and Brent refines only the panels that change sign strictly
    Mutant(
        "zero-touch panels handed to Brent again", "magnetostatics.py",
        "(signs[:-1] * signs[1:] < 0)", "(signs[:-1] * signs[1:] <= 0)",
        ("test_magnetostatics.py::TestBatchedSolver::test_a_root_on_a_panel_edge_is_one_edge_root",),
    ),
    Mutant(
        "zero edges not taken as roots", "magnetostatics.py",
        "zeros.append((query[zero], edges[zero]))", "pass",
        ("test_magnetostatics.py::TestBatchedSolver::test_a_root_on_a_panel_edge_is_one_edge_root",),
    ),
    # the scanned panels: those next to the root of the characteristic polynomial that a window can hold, or all of a
    # row where it is not known
    Mutant(
        "only a root's own panel scanned", "magnetostatics.py",
        "np.maximum(panel - 1, 0), np.minimum(panel + 2, n_panels)",
        "np.maximum(panel, 0), np.minimum(panel + 1, n_panels)",
        ("test_magnetostatics.py::TestBatchedSolver::test_a_root_up_to_a_panel_from_its_polynomial_root_is_found",),
    ),
    Mutant(
        "a row without known roots scanned like any other", "magnetostatics.py",
        "first[unknown], last[unknown] = 0, n_panels[unknown]", "first[unknown], last[unknown] = 0, -1",
        ("test_magnetostatics.py::TestBatchedSolver::test_a_row_without_known_roots_scans_every_panel",),
    ),
    # the scan's blocks: whole queries whose spans start within one multiple of _SCAN_EDGES, not a count of queries
    Mutant(
        "scan blocks cut by query count", "magnetostatics.py",
        "heads = np.flatnonzero(np.diff((ends - lengths) // _SCAN_EDGES, prepend=-1)).tolist()",
        "heads = list(range(0, pair_of.size, 256))",
        ("test_magnetostatics.py::TestBatchedSolver::test_a_scan_block_holds_at_most_scan_edges_and_one_span",),
    ),
    Mutant(
        "the panels of a narrow band not doubled", "magnetostatics.py",
        "h < 1 / 15, counts, base)", "h < 1 / 15, base, base)", DENSE,
    ),
    Mutant(
        "the band factor held at 2", "magnetostatics.py", "counts = 2 * np.round(base / 2 * factor)",
        "counts = 2 * np.round(base / 2 * 2.0)",
        ("test_magnetostatics.py::TestBatchedSolver::"
         "test_roots_equal_those_of_a_dense_scan_of_the_residual_next_to_a_third_of_mu0_ms",),
    ),
    Mutant(
        "the j = 0 root at the chi pole", "magnetostatics.py", "np.sqrt(h * h + 4 * h / (2 * i + 1))", "h",
        ("test_magnetostatics.py::TestSolver::test_matches_mode20_closed_form",),
    ),
    # the `modes` table ends at its first row whose window holds no root or several
    Mutant(
        "a no-root window not ending the table", "magnetostatics.py",
        "failing = np.flatnonzero(n_roots != 1)", "failing = np.flatnonzero(n_roots > 1)",
        (MODES + "test_failing_row_ends_the_table_where_it_stands[2_-1_no_root]",),
    ),
    Mutant(
        "the table ending at its last failing row", "magnetostatics.py",
        "stop = int(failing[0])", "stop = int(failing[-1])",
        (MODES + "test_a_table_that_fails_early_builds_only_its_first_error",),
    ),
    # the conversion amplitude
    Mutant(
        "a dropped sqrt(beta) in S31", "scattering.py",
        "math.sqrt(mode.beta * mode.delta / kappa_e)", "math.sqrt(mode.delta / kappa_e)",
        ("test_scattering.py::test_conversion_power_is_linear_in_beta",),
    ),
    # the shared denominator, and the fit's Jacobian rows built on it
    Mutant(
        "kappa_e for kappa_t in D", "scattering.py", "1j * cav.kappa_t", "1j * cav.kappa_e",
        (
            "test_scattering.py::test_power_balance_holds_for_any_set_of_modes",
            "test_scattering.py::test_shared_denominator_is_det_f_minus_h_over_the_mode_poles",
        ),
    ),
    Mutant(
        "the wrong sign of the gamma row", "fitting.py", "-1j * modes[m].gamma", "1j * modes[m].gamma",
        ("test_fitting.py::test_jacobian_rows_are_s_times_the_log_derivative_oracle[s21-complex_residual]",),
    ),
    Mutant(
        "the g row without the observed mode's S", "fitting.py", "np.add(row, s, out=row)", "pass",
        ("test_fitting.py::test_jacobian_rows_are_s_times_the_log_derivative_oracle[s31.kittel-complex_residual]",),
    ),
    # a fit's trial is checked by the rules of the constructors that apply_params would call: a free f_m by those of
    # a fixed field map
    Mutant(
        "trial check accepts f_m = 0", "fitting.py",
        '("frequency" if field == "f_m" else field, m)', "(field, m)",
        ("test_fitting.py::test_a_trial_raises_what_apply_params_raises_or_evaluates_its_model_bit_for_bit"
         "[s21-complex_residual]",),
    ),
    # the fit loop's end: iterations counts accepted steps, rejected_steps the others, and only the gradient and
    # cost-floor ends converge
    Mutant(
        "rejected_steps counts accepted steps", "fitting.py",
        "rejected_steps=rejected,", "rejected_steps=len(trace) - 1,",
        ("test_fitting.py::test_every_trial_is_checked_once_and_counted_once[gradient]",),
    ),
    Mutant(
        "a zero start gradient converging unseen", "fitting.py",
        'end = "gradient" if grad0 == 0.0 and not _singular(jac.T @ jac) else None',
        'end = "gradient" if grad0 == 0.0 else None',
        ("test_fitting.py::TestFitSpectrum::test_a_zero_start_gradient_converges_only_where_every_parameter_moves_the_model",),
    ),
    Mutant(
        "a rejected trial counted as an iteration", "fitting.py",
        "lam *= 10.0", "lam, trace = lam * 10.0, trace + [trace[-1]]",
        ("test_fitting.py::test_every_end_of_the_fit_counts_only_its_accepted_steps[damping_exhausted]",),
    ),
    Mutant(
        "the iteration cap reported as converged", "fitting.py",
        'converged = end in ("gradient", "cost_floor")', 'converged = end in ("gradient", "cost_floor", "iteration_cap")',
        ("test_fitting.py::test_every_end_of_the_fit_counts_only_its_accepted_steps[iteration_cap]",),
    ),
    # the map template: each frequency row is the B, f and value cells, in that order
    Mutant(
        "the f and value cells of map swapped", "cli.py", 'b",%b,%%b\\r\\n" % f', 'b",%%b,%b\\r\\n" % f',
        ("test_cli.py::TestCsvContract::test_map_bytes_equal_a_row_by_row_reference[s21_power-wrapped-3x7]",),
    ),
    # the table writer: a `modes` table that ends at a failing row ends within its last field
    Mutant(
        "the failing field's tails not cut", "cli.py",
        "cells[n - 1].join(pieces[: last + 1])", "cells[n - 1].join(pieces)",
        ("test_cli.py::TestCsvContract::test_modes_bytes_equal_a_row_by_row_reference",),
    ),
    # the vectorized "%.17g" cells: the double-double product's tail, and %g's switch to exponent notation at X = 17
    Mutant(
        "a double-double product without x * lo", "cells.py", "e += x * lo", "e += 0.0 * lo",
        (CELLS + "test_any_finite_float",),
    ),
    Mutant(
        "fixed notation up to X = 17", "cells.py", "fixed = (-4 <= X) & (X < 17)", "fixed = (-4 <= X) & (X <= 17)",
        (CELLS + "test_any_finite_float",),
    ),
    # the runs of equal bits whose first value's cell the rest reuse, and the zeros written without the layout
    Mutant(
        "repeats found by float ==", "cells.py",
        "np.not_equal(raw[1:], raw[:-1], out=first[1:])", "np.not_equal(v[1:], v[:-1], out=first[1:])",
        (CELLS + "test_runs_of_a_small_pool",),
    ),
    Mutant(
        "a negative zero written as 0", "cells.py",
        "len(out) - 2 + np.signbit(v[zeros])", "len(out) - 2 + 0 * np.signbit(v[zeros])",
        (CELLS + "test_runs_of_a_small_pool",),
    ),
    # the forked map formatters
    Mutant(
        "no kill and reap of the formatters", "cli.py",
        "for pid, reader in children:", "for pid, reader in []:", (PARALLEL + "test_success_leaves_no_process",),
    ),
    Mutant(
        "the table writer without contextlib.closing", "cli.py",
        "with closing(_parallel_blocks(block, -(-n_fields // per_block))) as blocks:",
        "with nullcontext(_parallel_blocks(block, -(-n_fields // per_block))) as blocks:",
        (PARALLEL + "test_an_interrupted_write_leaves_no_process",),
    ),
    Mutant(
        "no flush after each formatted block", "cli.py",
        "pipe.flush()  # a small block too", "pass  # a small block too",
        (PARALLEL + "test_a_child_killed_mid_stream_is_a_write_error",),
    ),
    Mutant(
        "no short-frame check", "cli.py",
        "if len(header) < 8 or len(data) < size:", "if False:",
        (PARALLEL + "test_a_child_killed_mid_stream_is_a_write_error",),
    ),
    Mutant(
        "no warnings filter around os.fork", "cli.py",
        'warnings.simplefilter("ignore", DeprecationWarning)', "pass",
        (PARALLEL + "test_success_leaves_no_process",),
    ),
]


def run(mutant: Mutant | None, tests) -> tuple[str, float]:
    """Run ``tests`` on a copy of src/ with ``mutant`` applied (none: unmutated); returns (verdict, seconds)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        src = Path(work) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "magnoncavity" / mutant.path
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return f"does not apply: {mutant.old!r} occurs {text.count(mutant.old)} times", 0.0
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        argv += [str(REPO / "tests" / test) for test in tests]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
    status = done.returncode
    if mutant is None:
        verdict = "passes" if status == 0 else f"FAILS unmutated (pytest exit {status})"
    else:
        verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exit {status}")
    return verdict, time.perf_counter() - start


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    baseline = tuple(dict.fromkeys(test for m in mutants for test in m.tests))
    start = time.perf_counter()
    with ThreadPoolExecutor(WORKERS) as pool:
        unmutated = pool.submit(run, None, baseline)
        outcomes = list(pool.map(lambda m: run(m, m.tests), mutants))
        verdict, seconds = unmutated.result()
    print(f"{'unmutated':40s} {verdict} ({seconds:.1f} s)")
    for mutant, (verdict, seconds) in zip(mutants, outcomes):
        print(f"{mutant.name:40s} {verdict} ({seconds:.1f} s)")
    killed = sum(verdict == "killed" for verdict, _ in outcomes)
    print(f"{killed} of {len(mutants)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(mutants) and unmutated.result()[0] == "passes" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
