import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import magnoncavity as mc
from magnoncavity import fitting, scattering
from magnoncavity.fitting import (
    LOSSES,
    _from_internal,
    _residuals_and_jacobian,
    _to_internal,
    finite_difference_jacobian,
)

from conftest import ASSEMBLIES, CAVITY, kittel_system, saturation_pattern, two_mode_system

F_GRID = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 801)


def pinned_kittel_system(name="0.45mm"):
    """Kittel mode pinned at the cavity frequency (triple resonance)."""
    return two_mode_system(name).modes[0], None


def truth_system(name="0.45mm"):
    a = ASSEMBLIES[name]
    mode = mc.MagnonMode(
        label="kittel", g=a["g_K"], gamma=a["gamma_K"], delta=a["delta_K"],
        field_map=mc.FieldMap(kind="fixed", frequency=CAVITY.f_c),
    )
    return mc.HybridSystem(cavity=CAVITY, modes=(mode,))


class TestSynthesis:
    def test_zero_noise_reproduces_the_model(self):
        sys_ = truth_system()
        spec = mc.synthesize_noisy_spectrum(sys_, 0.0, F_GRID, noise_sigma=0.0, seed=3)
        assert np.array_equal(spec.values, np.asarray(mc.s21(F_GRID, sys_, 0.0)))

    def test_deterministic_given_seed(self):
        sys_ = truth_system()
        a = mc.synthesize_noisy_spectrum(sys_, 0.0, F_GRID, noise_sigma=0.01, seed=42)
        b = mc.synthesize_noisy_spectrum(sys_, 0.0, F_GRID, noise_sigma=0.01, seed=42)
        c = mc.synthesize_noisy_spectrum(sys_, 0.0, F_GRID, noise_sigma=0.01, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_noise_level_matches_declared_model(self):
        sys_ = truth_system()
        grid = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 10_000)
        model = np.asarray(mc.s21(grid, sys_, 0.0))
        spec = mc.synthesize_noisy_spectrum(sys_, 0.0, grid, noise_sigma=0.01, seed=11)
        noise = spec.values - model
        target = 0.01 * np.max(np.abs(model))
        assert np.std(noise.real) == pytest.approx(target, rel=0.05)
        assert np.std(noise.imag) == pytest.approx(target, rel=0.05)

    def test_empty_grid_and_negative_sigma_rejected(self):
        sys_ = truth_system()
        with pytest.raises(ValueError):
            mc.synthesize_noisy_spectrum(sys_, 0.0, [], noise_sigma=0.0)
        with pytest.raises(ValueError):
            mc.synthesize_noisy_spectrum(sys_, 0.0, F_GRID, noise_sigma=-0.1)

    def test_complex_grid_rejected(self):
        with pytest.raises(ValueError, match="^f_grid must be real$"):
            mc.synthesize_noisy_spectrum(truth_system(), 0.0, F_GRID + 5e6j, noise_sigma=0.0)

    def test_other_observables(self):
        sys_ = truth_system()
        spec = mc.synthesize_noisy_spectrum(sys_, 0.0, F_GRID, observable="s31.kittel")
        assert np.array_equal(spec.values, np.asarray(mc.s31_mode(F_GRID, sys_, 0.0, "kittel")))


class TestApplyParams:
    def test_cavity_and_mode_updates(self):
        sys_ = truth_system()
        out = mc.apply_params(sys_, {"f_c": 10.7e9, "kappa_e": 3e6, "g.kittel": 30e6})
        assert out.cavity.f_c == 10.7e9
        assert out.cavity.kappa_e == 3e6
        assert out.mode("kittel").g == 30e6
        # the original is untouched
        assert sys_.cavity.f_c == CAVITY.f_c

    def test_mode_frequency_pins_a_fixed_map(self):
        sys_ = kittel_system()
        out = mc.apply_params(sys_, {"f_m.kittel": 10.66e9})
        assert out.mode("kittel").field_map == mc.FieldMap(kind="fixed", frequency=10.66e9)

    def test_unknown_names_rejected(self):
        sys_ = truth_system()
        with pytest.raises(ValueError):
            mc.apply_params(sys_, {"q_factor": 1.0})
        with pytest.raises(KeyError):
            mc.apply_params(sys_, {"g.ghost": 1.0})


def replace_params(system, values):
    """apply_params built with nested ``dataclasses.replace``: the reference for its direct constructors."""
    cavity_updates, mode_updates = {}, {}
    for name, value in values.items():
        field, _, label = name.partition(".")
        if label:
            mode_updates.setdefault(label, {})[field] = float(value)
        else:
            cavity_updates[field] = float(value)
    cavity = dataclasses.replace(system.cavity, **cavity_updates) if cavity_updates else system.cavity
    modes = []
    for mode in system.modes:
        updates = mode_updates.get(mode.label, {})
        if "f_m" in updates:
            mode = dataclasses.replace(mode, field_map=mc.FieldMap(kind="fixed", frequency=updates.pop("f_m")))
        if updates:
            mode = dataclasses.replace(mode, **updates)
        modes.append(mode)
    return dataclasses.replace(system, cavity=cavity, modes=tuple(modes))


PARAMETER_NAMES = ("f_c", "kappa_e", "kappa_i") + tuple(
    f"{field}.{label}" for field in ("g", "gamma", "f_m", "delta", "beta") for label in ("kittel", "msm")
)
parameter_names = st.sampled_from(PARAMETER_NAMES)
valid_values = st.floats(min_value=1e-3, max_value=2e10)
# values that some constructor rejects: non-finite, negative (g, delta,
# kappa_i < 0) and zero (gamma, beta, kappa_e, f_m, f_c <= 0)
invalid_values = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -2.5e6, math.nan, math.inf, -math.inf]), st.floats(max_value=-1e-300)
)


class TestApplyParamsMatchesReplace:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(parameter_names, valid_values),
        st.dictionaries(parameter_names, invalid_values, max_size=3),
    )
    def test_same_system_or_same_error(self, valid, invalid):
        values = {**valid, **invalid}
        system = two_mode_system()
        try:
            expected = replace_params(system, values)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                mc.apply_params(system, values)
            assert str(raised.value) == str(error)
        else:
            built = mc.apply_params(system, values)
            assert built == expected
            assert built.cavity == expected.cavity and built.modes == expected.modes

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(parameter_names, valid_values),
        st.sampled_from([("q_factor", ValueError), ("tau.kittel", ValueError), ("g.ghost", KeyError)]),
        st.data(),
    )
    def test_unknown_names_fail_before_anything_is_built(self, values, unknown, data):
        name, error = unknown
        items = list(values.items())
        items.insert(data.draw(st.integers(0, len(items))), (name, 1.0))

        def forbidden(*args, **kwargs):
            raise AssertionError("built before every name was checked")

        with pytest.MonkeyPatch.context() as patch:
            for constructor in ("CavityParams", "MagnonMode", "FieldMap", "HybridSystem"):
                patch.setattr(fitting, constructor, forbidden)
            with pytest.raises(error):
                mc.apply_params(two_mode_system(), dict(items))


def make_problem(observed, system, free, loss="complex_residual"):
    return mc.FitProblem(observed=observed, system=system, free=free, B=0.0, loss=loss)


WIDE = {
    "f_c": (10.0e9, 11.2e9),
    "kappa_e": (1e5, 1e8),
    "g.kittel": (1e6, 1e9),
    "gamma.kittel": (1e4, 1e8),
    "f_m.kittel": (10.0e9, 11.2e9),
}


class TestFitSpectrum:
    def test_noiseless_recovery_from_perturbed_start(self):
        truth = truth_system()
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID, noise_sigma=0.0)
        # start every free parameter off by up to +/-20%
        start = mc.apply_params(
            truth,
            {
                "f_c": CAVITY.f_c + 20e6,
                "kappa_e": CAVITY.kappa_e * 1.2,
                "g.kittel": truth.mode("kittel").g * 0.8,
                "gamma.kittel": truth.mode("kittel").gamma * 1.2,
                "f_m.kittel": CAVITY.f_c - 20e6,
            },
        )
        problem = make_problem(observed, start, WIDE)
        init = {
            "f_c": start.cavity.f_c,
            "kappa_e": start.cavity.kappa_e,
            "g.kittel": start.mode("kittel").g,
            "gamma.kittel": start.mode("kittel").gamma,
            "f_m.kittel": 10.612e9,
        }
        result = mc.fit_spectrum(problem, init)
        assert result.converged
        truth_values = {
            "f_c": CAVITY.f_c,
            "kappa_e": CAVITY.kappa_e,
            "g.kittel": truth.mode("kittel").g,
            "gamma.kittel": truth.mode("kittel").gamma,
            "f_m.kittel": CAVITY.f_c,
        }
        for name, expected in truth_values.items():
            assert result.estimates[name] == pytest.approx(expected, rel=1e-6), name
        assert result.rms_residual < 1e-9

    def test_residual_trace_is_monotone(self):
        truth = truth_system()
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID, noise_sigma=0.01, seed=5)
        problem = make_problem(observed, truth, WIDE)
        init = {
            "f_c": CAVITY.f_c + 10e6,
            "kappa_e": 2.5e6,
            "g.kittel": 25e6,
            "gamma.kittel": 3e6,
            "f_m.kittel": CAVITY.f_c - 10e6,
        }
        result = mc.fit_spectrum(problem, init)
        trace = np.array(result.residual_trace)
        assert np.all(np.diff(trace) <= 1e-15)

    def test_bit_identical_reruns(self):
        truth = truth_system()
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID, noise_sigma=0.02, seed=9)
        problem = make_problem(observed, truth, WIDE)
        init = {
            "f_c": CAVITY.f_c + 5e6,
            "kappa_e": 2.2e6,
            "g.kittel": 30e6,
            "gamma.kittel": 2e6,
            "f_m.kittel": CAVITY.f_c,
        }
        first = mc.fit_spectrum(problem, init)
        second = mc.fit_spectrum(problem, init)
        assert first == second

    def test_noisy_recovery_within_stated_tolerances(self):
        truth = truth_system()
        grid = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 2001)
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, grid, noise_sigma=0.01, seed=77)
        problem = mc.FitProblem(observed=observed, system=truth, free=WIDE, B=0.0)
        init = {
            "f_c": CAVITY.f_c + 5e6,
            "kappa_e": 2.4e6,
            "g.kittel": 32e6,
            "gamma.kittel": 2.0e6,
            "f_m.kittel": CAVITY.f_c - 5e6,
        }
        result = mc.fit_spectrum(problem, init)
        assert result.converged
        assert result.estimates["g.kittel"] == pytest.approx(28.6e6, rel=0.02)
        assert result.estimates["gamma.kittel"] == pytest.approx(2.3e6, rel=0.02)
        assert result.estimates["f_c"] == pytest.approx(CAVITY.f_c, rel=1e-4)

    def test_two_mode_recovery_with_co_fitted_kittel(self):
        truth = two_mode_system("0.75mm", f_M=CAVITY.f_c + 55e6)
        grid = np.linspace(CAVITY.f_c - 250e6, CAVITY.f_c + 250e6, 3001)
        free = dict(WIDE)
        free.update({"g.msm": (1e5, 1e8), "gamma.msm": (1e4, 1e8), "f_m.msm": (10.3e9, 11.0e9)})

        # noiseless: a far start still lands exactly on the truth
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, grid, noise_sigma=0.0)
        problem = mc.FitProblem(observed=observed, system=truth, free=free, B=0.0)
        init = {
            "f_c": CAVITY.f_c + 3e6,
            "kappa_e": 2.3e6,
            "g.kittel": 60e6,
            "gamma.kittel": 1.4e6,
            "f_m.kittel": CAVITY.f_c - 4e6,
            "g.msm": 3e6,
            "gamma.msm": 1.2e6,
            "f_m.msm": CAVITY.f_c + 50e6,
        }
        result = mc.fit_spectrum(problem, init)
        assert result.converged
        assert result.estimates["g.msm"] == pytest.approx(4.0e6, rel=1e-6)

        # with noise the weak mode is a shallow feature, so start moderately close
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, grid, noise_sigma=0.005, seed=21)
        problem = mc.FitProblem(observed=observed, system=truth, free=free, B=0.0)
        init.update(
            {
                "f_c": CAVITY.f_c + 1.5e6,
                "g.kittel": 65e6,
                "gamma.kittel": 1.2e6,
                "f_m.kittel": CAVITY.f_c - 2e6,
                "g.msm": 3.8e6,
                "gamma.msm": 1.4e6,
                "f_m.msm": CAVITY.f_c + 53e6,
            }
        )
        result = mc.fit_spectrum(problem, init)
        assert result.converged
        assert result.estimates["g.msm"] == pytest.approx(4.0e6, rel=0.05)
        assert result.estimates["g.kittel"] == pytest.approx(67.3e6, rel=0.01)

    def test_fit_at_the_cost_floor_stops_as_converged(self):
        # Kittel mode and the (2,0) mode of the 1.0 mm offset assembly at
        # noise 1e-2: this fit reaches the noise floor within 20 iterations,
        # then its steps leave the cost bit-identical while the gradient stays
        # above GRADIENT_RTOL of its start; such a step must end the fit.
        kittel = mc.MagnonMode(label="kittel", g=83.4e6, gamma=1.1e6, field_map=mc.FieldMap(kind="fixed", frequency=10.632e9))
        msm = mc.MagnonMode(label="msm20", g=25.0e6, gamma=0.5e6, field_map=mc.FieldMap(kind="fixed", frequency=10.781e9))
        truth = mc.HybridSystem(cavity=CAVITY, modes=(kittel, msm))
        grid = np.linspace(10.382e9, 10.882e9, 1501)
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, grid, noise_sigma=1e-2, seed=32)
        free = dict(WIDE)
        free.update({"g.msm20": (1e5, 1e9), "gamma.msm20": (1e4, 1e8), "f_m.msm20": (10.0e9, 11.2e9)})
        init = {
            "f_c": 10.637e9,
            "kappa_e": 2.4e6,
            "g.kittel": 93.3e6,
            "gamma.kittel": 0.96e6,
            "f_m.kittel": 10.627e9,
            "g.msm20": 28.0e6,
            "gamma.msm20": 0.43e6,
            "f_m.msm20": 10.776e9,
        }
        result = mc.fit_spectrum(mc.FitProblem(observed=observed, system=truth, free=free, B=0.0), init)
        assert result.converged
        assert result.iterations < 30
        assert result.residual_trace[-1] == result.residual_trace[-2]
        assert result.estimates["g.kittel"] == pytest.approx(83.4e6, rel=0.01)
        assert result.estimates["g.msm20"] == pytest.approx(25.0e6, rel=0.05)

    def test_power_and_phase_loss_also_recovers(self):
        truth = truth_system()
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID, noise_sigma=0.0)
        free = {"g.kittel": (1e6, 1e9), "gamma.kittel": (1e4, 1e8)}
        problem = make_problem(observed, truth, free, loss="power_and_phase_residual")
        result = mc.fit_spectrum(problem, {"g.kittel": 24e6, "gamma.kittel": 2.8e6})
        assert result.converged
        assert result.estimates["g.kittel"] == pytest.approx(28.6e6, rel=1e-6)
        assert result.estimates["gamma.kittel"] == pytest.approx(2.3e6, rel=1e-6)

    def test_a_zero_start_gradient_converges_only_where_every_parameter_moves_the_model(self):
        truth = truth_system()
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID)
        # started at the truth in parameters fitted as they are (not as logs): every residual is 0
        free = {"f_c": WIDE["f_c"], "f_m.kittel": WIDE["f_m.kittel"]}
        exact = mc.fit_spectrum(make_problem(observed, truth, free), {"f_c": CAVITY.f_c, "f_m.kittel": CAVITY.f_c})
        assert (exact.converged, exact.iterations, exact.rms_residual) == (True, 0, 0.0)
        # delta has a zero gradient there too, but s21 cannot see it: singular, not converged
        free = {"f_c": WIDE["f_c"], "delta.kittel": (1e-4, 1.0)}
        blind = mc.fit_spectrum(make_problem(observed, truth, free), {"f_c": CAVITY.f_c, "delta.kittel": 3.61e-3})
        assert blind.rms_residual == 0.0
        assert not blind.converged
        assert blind.jacobian_condition_estimate == np.inf

    @pytest.mark.parametrize("loss", LOSSES)
    def test_a_start_cost_that_is_not_finite_is_a_domain_error(self, loss):
        truth = truth_system()
        observed = mc.ComplexSpectrum(F_GRID[:2], np.array([1e308 + 1e308j, 1e308 + 0.2j]))
        problem = make_problem(observed, truth, {"g.kittel": (1e6, 1e9)}, loss)
        with pytest.raises(mc.DomainError, match="^the fit's start cost is inf: "):
            mc.fit_spectrum(problem, {"g.kittel": 28.6e6})

    def test_optimum_outside_bounds_is_clipped_and_flagged(self):
        truth = truth_system()
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID)
        free = {"g.kittel": (20e6, 25e6)}  # truth is 28.6e6
        problem = make_problem(observed, truth, free)
        result = mc.fit_spectrum(problem, {"g.kittel": 24e6})
        assert result.estimates["g.kittel"] == 25e6
        assert not result.converged

    def test_validation_of_problem_and_init(self):
        truth = truth_system()
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID)
        with pytest.raises(ValueError):
            mc.FitProblem(observed=observed, system=truth, free={})
        with pytest.raises(ValueError):
            mc.FitProblem(observed=observed, system=truth, free={"f_c": (1.0, 1.0)})
        with pytest.raises(ValueError):
            mc.FitProblem(observed=observed, system=truth, free={"f_c": (0.0, float("inf"))})
        with pytest.raises(ValueError):
            mc.FitProblem(observed=observed, system=truth, free=WIDE, loss="huber")
        problem = make_problem(observed, truth, {"f_c": (10.0e9, 11.2e9)})
        with pytest.raises(ValueError):
            mc.fit_spectrum(problem, {"f_c": 9.0e9})  # outside bounds
        with pytest.raises(ValueError):
            mc.fit_spectrum(problem, {})  # missing init


# Two modes off degeneracy, with kappa_i, delta and beta all non-trivial, so
# every parameter kind has its own column; the evaluation point is 5% (rates)
# or 2 MHz (frequencies) away from the truth the noisy data came from.
JACOBIAN_TRUTH = mc.apply_params(
    two_mode_system("0.75mm", f_K=CAVITY.f_c - 6e6, f_M=CAVITY.f_c + 55e6),
    {"beta.kittel": 0.5, "beta.msm": 2.0},
)
JACOBIAN_GRID = np.linspace(CAVITY.f_c - 250e6, CAVITY.f_c + 250e6, 801)
CAVITY_KINDS = ("f_c", "kappa_e", "kappa_i")
MODE_KINDS = ("g", "gamma", "f_m", "delta", "beta")


def offset_value(system, name):
    field, _, label = name.partition(".")
    if field in ("f_c", "f_m"):
        base = system.cavity.f_c if not label else system.mode(label).field_map.frequency
        return base + 2e6
    return 1.05 * getattr(system.cavity if not label else system.mode(label), field)


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("observable", ["s21", "s11", "s31.kittel"])
@pytest.mark.parametrize("kind", CAVITY_KINDS + MODE_KINDS)
def test_analytic_jacobian_matches_four_point_stencil(kind, observable, loss):
    names = [kind] if kind in CAVITY_KINDS else [f"{kind}.kittel", f"{kind}.msm"]
    observed = mc.synthesize_noisy_spectrum(JACOBIAN_TRUTH, 0.0, JACOBIAN_GRID, observable, noise_sigma=0.01, seed=2)
    problem = mc.FitProblem(
        observed=observed, system=JACOBIAN_TRUTH, free={n: (1e-9, 1e12) for n in names},
        observable=observable, loss=loss,
    )
    evaluate = _residuals_and_jacobian(problem, names, problem.system)
    u0 = np.array([_to_internal(n, offset_value(JACOBIAN_TRUTH, n)) for n in names])
    r0, jacobian = evaluate(u0)
    analytic = jacobian()

    # Richardson extrapolation of two central differences is the four-point stencil
    def residuals(u):
        return evaluate(u)[0]

    scales = np.array([JACOBIAN_GRID[-1] - JACOBIAN_GRID[0] if kind in ("f_c", "f_m") else 1.0] * len(names))
    h = 1e-5
    four_point = (
        4.0 * finite_difference_jacobian(residuals, u0, scales, h) - finite_difference_jacobian(residuals, u0, scales, 2 * h)
    ) / 3.0

    for k, name in enumerate(names):
        # delta and beta enter only the observed mode's S31: elsewhere the column is exactly zero
        invisible = kind in ("delta", "beta") and name != f"{kind}.{observable.partition('.')[2]}"
        assert np.any(analytic[:, k]) != invisible, name
        # element by element, plus an absolute allowance far above the stencil's round-off, taken per
        # part of the residual vector: the interleaved re/im rows (even/odd), or the power and phase halves
        indices = np.arange(r0.size)
        for rows in (indices[0::2], indices[1::2]) if loss == "complex_residual" else np.split(indices, 2):
            error = np.abs(analytic[rows, k] - four_point[rows, k])
            allowance = 1e-8 * np.max(np.abs(r0[rows])) / scales[k]
            assert np.all(error <= 1e-4 * np.abs(four_point[rows, k]) + allowance), name


def eager_residuals_and_jacobian(problem, names, u):
    """Residuals and Jacobian at ``u`` from one model evaluation that forms every row at once.

    Each row is a scalar multiple of W = S/D, W*chi_m or W*chi_m^2, plus S, S/2 or S*chi_m where S
    itself holds the parameter; the complex residuals and rows are laid out Re, Im interleaved.
    """
    system = mc.apply_params(problem.system, {n: _from_internal(n, ui) for n, ui in zip(names, u)})
    d, chis = scattering.shared_denominator(
        problem.observed.frequencies, system, scattering.mode_frequencies(system, problem.B)
    )
    s21, s31 = scattering.amplitudes_from_denominator(d, chis, system)
    observed_mode = problem.observable.partition(".")[2] or None
    s = s21 if observed_mode is None else s31[observed_mode]
    model = 1.0 + s21 if problem.observable == "s11" else s
    w = s / d
    chi_of = {mode.label: chi for mode, chi in zip(system.modes, chis)}

    def row(field, label):
        cavity = system.cavity
        if not label:
            return {
                "f_c": w,
                "kappa_i": w * (-1j * cavity.kappa_i),
                "kappa_e": w * (-1j * cavity.kappa_e) + (s if observed_mode is None else 0.5 * s),
            }[field]
        mode, chi, own = system.mode(label), chi_of[label], label == observed_mode
        if field in ("delta", "beta"):
            return s * (0.5 if own else 0.0)
        if field == "g":
            g_row = (w * chi) * (2.0 * mode.g**2)
            return g_row + s if own else g_row
        f_m_row = ((w * chi) * chi) * mode.g**2
        if own:
            f_m_row = f_m_row + s * chi
        return f_m_row if field == "f_m" else f_m_row * (-1j * mode.gamma)

    d_model = np.array([row(field, label) for field, _, label in (n.partition(".") for n in names)])
    data = problem.observed.values
    if problem.loss == "complex_residual":
        diff = model - data
        residuals = np.stack([diff.real, diff.imag], axis=-1).ravel()
        jacobian = np.stack([d_model.real, d_model.imag], axis=-1).reshape(len(names), -1).T
    else:
        power = np.abs(model) ** 2 - np.abs(data) ** 2
        phase = np.unwrap(np.angle(model)) - np.unwrap(np.angle(data))
        residuals = np.concatenate([power, phase])
        jacobian = np.concatenate([2.0 * (model.conj() * d_model).real, (d_model / model).imag], axis=1).T
    return residuals, jacobian


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def internal_point(names, rng):
    """Internal values of ``names`` around JACOBIAN_TRUTH: rates within a factor 2, frequencies within 30 MHz."""
    u = []
    for name in names:
        field, _, label = name.partition(".")
        if field in ("f_c", "f_m"):
            base = JACOBIAN_TRUTH.cavity.f_c if not label else JACOBIAN_TRUTH.mode(label).field_map.frequency
            u.append(base + rng.uniform(-30e6, 30e6))
        else:
            owner = JACOBIAN_TRUTH.cavity if not label else JACOBIAN_TRUTH.mode(label)
            u.append(math.log(rng.uniform(0.5, 2.0) * getattr(owner, field)))
    return np.array(u)


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("observable", ["s21", "s11", "s31.kittel", "s31.msm"])
def test_lazy_jacobian_matches_an_eager_build(observable, loss):
    names = sorted(PARAMETER_NAMES)
    observed = mc.synthesize_noisy_spectrum(JACOBIAN_TRUTH, 0.0, JACOBIAN_GRID, observable, noise_sigma=0.01, seed=4)
    problem = mc.FitProblem(
        observed=observed, system=JACOBIAN_TRUTH, free={n: (1e-9, 1e12) for n in names},
        observable=observable, loss=loss,
    )
    evaluate = _residuals_and_jacobian(problem, names, problem.system)
    rng = np.random.default_rng(5)
    points = [internal_point(names, rng) for _ in range(20)]
    evaluations = [evaluate(u) for u in points]
    # each jacobian() belongs to its own evaluation, even when later ones were made since
    for u, (residuals, jacobian) in reversed(list(zip(points, evaluations))):
        expected_residuals, expected_jacobian = eager_residuals_and_jacobian(problem, names, u)
        assert same_bits(residuals, expected_residuals)
        assert same_bits(jacobian(), expected_jacobian)


# internal values u of every free field: f_c and f_m are their own values, a log-space parameter's value is exp(u),
# so 0.0 comes from an exp that underflows (u = -800 or -inf) and an OverflowError from one that overflows (u = 710)
ODD_LINEAR = [0.0, -0.0, -1.0, -2.5e6, math.nan, math.inf, -math.inf]
ODD_LOG = [-800.0, -math.inf, math.inf, math.nan, 710.0]


def internal_value(name, odd):
    """The internal value u of parameter ``name``: one that gives a valid value, or with ``odd`` one that may not."""
    linear = name.partition(".")[0] in ("f_c", "f_m")
    if not odd:
        return st.floats(9.0e9, 1.2e10) if linear else st.floats(-7.0, 23.7)
    if linear:
        return st.one_of(st.sampled_from(ODD_LINEAR), st.floats(max_value=-1e-300))
    return st.one_of(st.sampled_from(ODD_LOG), st.floats(-1e4, 1e3))


def trial_points(odd, max_size=None):
    entry = st.sampled_from(PARAMETER_NAMES).flatmap(lambda name: st.tuples(st.just(name), internal_value(name, odd)))
    return st.lists(entry, max_size=max_size).map(dict)


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("observable", ["s21", "s11", "s31.kittel"])
@settings(max_examples=60, deadline=None)
@given(valid=trial_points(False), odd=trial_points(True, max_size=2))
@example(valid={}, odd={"f_c": 0.0})
@example(valid={}, odd={"f_m.kittel": -0.0})
@example(valid={}, odd={"f_m.msm": -2.5e6, "g.kittel": 17.0})
@example(valid={}, odd={"f_c": math.inf, "kappa_e": 15.0})
@example(valid={}, odd={"f_m.kittel": -math.inf})
@example(valid={}, odd={"kappa_e": math.nan})
@example(valid={}, odd={"gamma.kittel": -800.0})  # exp underflows: gamma = 0.0, which must be positive
@example(valid={}, odd={"g.msm": -800.0, "kappa_i": -math.inf, "delta.kittel": -800.0})  # 0.0: valid g, kappa_i, delta
@example(valid={}, odd={"beta.kittel": 710.0})  # exp overflows
@example(valid={}, odd={"f_c": -1.0, "kappa_e": math.nan})  # every finite check comes before the sign checks
@example(valid={}, odd={"g.kittel": math.nan, "f_m.kittel": 0.0})  # a mode's fixed field map is built first
@example(valid={}, odd={"f_m.msm": math.nan, "gamma.kittel": -800.0})  # the modes in order
def test_a_trial_raises_what_apply_params_raises_or_evaluates_its_model_bit_for_bit(observable, loss, valid, odd):
    point = {**valid, **odd}
    assume(point)
    names = sorted(point)
    u = np.array([point[n] for n in names])
    observed = mc.synthesize_noisy_spectrum(JACOBIAN_TRUTH, 0.0, JACOBIAN_GRID, observable, noise_sigma=0.01, seed=9)
    problem = mc.FitProblem(
        observed=observed, system=JACOBIAN_TRUTH, free={n: (1e-9, 1e12) for n in names},
        observable=observable, loss=loss,
    )
    evaluate = _residuals_and_jacobian(problem, names, problem.system)
    with np.errstate(all="ignore"):
        try:  # the reference builds the trial's system with apply_params and runs the kernel on it
            expected = eager_residuals_and_jacobian(problem, names, u)
        except (ValueError, OverflowError) as error:
            with pytest.raises(type(error)) as raised:
                evaluate(u)
            assert str(raised.value) == str(error)
        else:
            residuals, jacobian = evaluate(u)
            assert same_bits(residuals, expected[0])
            assert same_bits(jacobian(), expected[1])


def oracle_log_derivative(field, label, system, inv_d, chis, observed_mode):
    """d log S / du for the internal parameter u of the parameter ``(field, label)``, over the grid.

    The per-parameter closed forms, one call per row: an oracle for the shared-product rows.
    S is S21 for ``observed_mode`` None and S31 of that mode otherwise;
    ``inv_d`` is 1/D and ``chis`` maps each label to its chi_m, all of
    ``system``. With dD/df_c = -1, dD/dkappa = i, dD/dg_m = -2*g_m*chi_m,
    dchi_m/dgamma_m = -i*chi_m^2 and dchi_m/df_m = chi_m^2, the S21 forms
    are d log S21/dtheta = d log kappa_e/dtheta - (dD/dtheta)/D; S31_m adds
    d log(g_m*chi_m*sqrt(beta_m*delta_m/kappa_e))/dtheta. A log-space
    parameter's column is theta * d log S/dtheta, so no form divides by theta.
    """
    if label is None:
        if field == "f_c":
            return inv_d
        if field == "kappa_i":
            return -1j * system.cavity.kappa_i * inv_d
        # kappa_e: S21 is proportional to kappa_e, S31_m to sqrt(kappa_e)
        return (1.0 if observed_mode is None else 0.5) - 1j * system.cavity.kappa_e * inv_d
    mode = system.mode(label)
    chi = chis[label]
    own = label == observed_mode
    if field in ("delta", "beta"):
        return np.full(inv_d.shape, 0.5 if own else 0.0, dtype=complex)
    if field == "g":
        return 2.0 * mode.g**2 * chi * inv_d + (1.0 if own else 0.0)
    # -dD/df_m = g_m^2*chi_m^2, and S31_m's own chi_m adds chi_m
    d_f = mode.g**2 * chi**2 * inv_d + (chi if own else 0.0)
    return -1j * mode.gamma * d_f if field == "gamma" else d_f


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("observable", ["s21", "s11", "s31.kittel", "s31.msm"])
def test_jacobian_rows_are_s_times_the_log_derivative_oracle(observable, loss, monkeypatch):
    names = sorted(PARAMETER_NAMES)
    observed = mc.synthesize_noisy_spectrum(JACOBIAN_TRUTH, 0.0, JACOBIAN_GRID, observable, noise_sigma=0.01, seed=6)
    problem = mc.FitProblem(
        observed=observed, system=JACOBIAN_TRUTH, free={n: (1e-9, 1e12) for n in names},
        observable=observable, loss=loss,
    )
    rows = []
    residual_jacobian = fitting._residual_jacobian

    def capture(loss, model_values, d_model):
        rows.append(d_model.copy())
        return residual_jacobian(loss, model_values, d_model)

    monkeypatch.setattr(fitting, "_residual_jacobian", capture)
    evaluate = _residuals_and_jacobian(problem, names, problem.system)
    observed_mode = observable.partition(".")[2] or None
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = internal_point(names, rng)
        evaluate(u)[1]()
        system = mc.apply_params(JACOBIAN_TRUTH, {n: _from_internal(n, ui) for n, ui in zip(names, u)})
        d, chis = scattering.shared_denominator(JACOBIAN_GRID, system, scattering.mode_frequencies(system, 0.0))
        s21, s31 = scattering.amplitudes_from_denominator(d, chis, system)
        s = s21 if observed_mode is None else s31[observed_mode]
        chi_of = {mode.label: chi for mode, chi in zip(system.modes, chis)}
        for name, row in zip(names, rows.pop()):
            field, _, label = name.partition(".")
            expected = s * oracle_log_derivative(field, label or None, system, 1.0 / d, chi_of, observed_mode)
            assert np.all(np.abs(row - expected) <= 1e-12 * np.abs(expected) + 1e-13 * np.max(np.abs(row))), name


@pytest.mark.parametrize("f_m_free", [False, True], ids=["f_m_mapped", "f_m_free"])
def test_field_maps_resolve_once_per_fit(f_m_free, monkeypatch):
    B = 0.37
    truth = kittel_system("0.45mm")
    f_K = mc.mode_frequency(truth.mode("kittel").field_map, B, truth.material)
    grid = np.linspace(f_K - 150e6, f_K + 150e6, 801)
    observed = mc.synthesize_noisy_spectrum(truth, B, grid, noise_sigma=1e-3, seed=12)
    free = {"f_c": (10.0e9, 11.2e9), "kappa_e": (1e5, 1e8), "g.kittel": (1e6, 1e9), "gamma.kittel": (1e4, 1e8)}
    truth_values = mc.read_params(truth, free, B)
    if f_m_free:
        free["f_m.kittel"] = (f_K - 100e6, f_K + 100e6)
        truth_values["f_m.kittel"] = f_K
    init = {n: v * (1.001 if n in ("f_c", "f_m.kittel") else 1.15) for n, v in truth_values.items()}
    problem = mc.FitProblem(observed=observed, system=truth, free=free, B=B)

    calls = []
    resolve = scattering._resolve_field_maps

    def counted(*args):
        calls.append(1)
        return resolve(*args)

    monkeypatch.setattr(scattering, "_resolve_field_maps", counted)
    result = mc.fit_spectrum(problem, init)
    assert len(calls) == 1
    assert result.converged
    for name, value in truth_values.items():
        assert result.estimates[name] == pytest.approx(value, rel=0.02), name


def test_a_free_f_m_replaces_a_field_map_that_fails_at_the_fit_field():
    # a walker map needs a field that saturates the sphere; with its f_m free the fit at B = 0 never resolves it
    walker = mc.MagnonMode(label="w", g=20e6, gamma=2e6, field_map=mc.FieldMap(kind="walker", i=2, j=2))
    template = mc.HybridSystem(cavity=CAVITY, modes=(walker,))
    with pytest.raises(ValueError, match=saturation_pattern(0.0)):
        scattering.mode_frequencies(template, 0.0)
    truth = mc.apply_params(template, {"f_m.w": CAVITY.f_c + 5e6})
    observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID, noise_sigma=1e-3, seed=3)
    problem = mc.FitProblem(observed=observed, system=template, free={"f_m.w": (10.0e9, 11.2e9), "g.w": (1e6, 1e8)})
    result = mc.fit_spectrum(problem, {"f_m.w": CAVITY.f_c, "g.w": 22e6})
    assert result.converged
    assert result.estimates["f_m.w"] == pytest.approx(CAVITY.f_c + 5e6, rel=1e-5)


def eight_parameter_problem():
    """A noisy two-mode spectrum with every cavity and mode parameter but kappa_i free, and a start."""
    truth = two_mode_system("0.75mm", f_M=CAVITY.f_c + 55e6)
    grid = np.linspace(CAVITY.f_c - 250e6, CAVITY.f_c + 250e6, 1501)
    observed = mc.synthesize_noisy_spectrum(truth, 0.0, grid, noise_sigma=1e-3, seed=8)
    free = dict(WIDE)
    free.update({"g.msm": (1e5, 1e8), "gamma.msm": (1e4, 1e8), "f_m.msm": (10.3e9, 11.0e9)})
    problem = mc.FitProblem(observed=observed, system=truth, free=free, B=0.0)
    init = {
        "f_c": CAVITY.f_c + 1.5e6, "kappa_e": 2.3e6,
        "g.kittel": 65e6, "gamma.kittel": 1.2e6, "f_m.kittel": CAVITY.f_c - 2e6,
        "g.msm": 3.8e6, "gamma.msm": 1.4e6, "f_m.msm": CAVITY.f_c + 53e6,
    }
    return problem, init


def test_estimates_are_plain_floats():
    # linear-space parameters (f_c, f_m.*) once leaked numpy scalars
    problem, init = eight_parameter_problem()
    result = mc.fit_spectrum(problem, init)
    assert len(result.estimates) == 8
    assert all(type(value) is float for value in result.estimates.values()), result.estimates


def test_converged_fit_builds_one_denominator_per_trial(monkeypatch):
    problem, init = eight_parameter_problem()
    free = problem.free

    calls = []
    original = scattering.shared_denominator

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("fit_spectrum must not take finite differences")

    monkeypatch.setattr(scattering, "shared_denominator", counted)
    monkeypatch.setattr(fitting, "finite_difference_jacobian", forbidden)
    result = mc.fit_spectrum(problem, init)
    assert result.converged and len(free) == 8
    assert 0 < len(calls) <= 2 * result.iterations + 1


def test_jacobian_is_formed_once_per_accepted_step(monkeypatch):
    problem, init = eight_parameter_problem()
    jacobians = []
    residual_jacobian = fitting._residual_jacobian

    def counted_jacobian(*args):
        jacobians.append(1)
        return residual_jacobian(*args)

    monkeypatch.setattr(fitting, "_residual_jacobian", counted_jacobian)
    result = mc.fit_spectrum(problem, init)
    assert result.converged
    # the fit rejected some trials, and formed no Jacobian for them
    assert result.rejected_steps > 0
    assert len(jacobians) == result.iterations + 1


def capped_fit(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 3)
    return eight_parameter_problem()


def rejecting_fit(monkeypatch):
    """The eight-parameter fit with every trial check after the start's raising the ValueError of an invalid trial."""
    trial_values, calls = fitting._trial_values, []

    def start_only(*args):
        calls.append(1)
        if len(calls) > 1:
            raise ValueError("every trial is invalid")
        return trial_values(*args)

    monkeypatch.setattr(fitting, "_trial_values", start_only)
    return eight_parameter_problem()


def invisible_parameter_fit(monkeypatch):
    # delta does not enter s21: its Jacobian column is exactly zero
    truth = truth_system()
    observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID)
    free = {"g.kittel": (1e6, 1e9), "delta.kittel": (1e-4, 1.0)}
    return make_problem(observed, truth, free), {"g.kittel": 25e6, "delta.kittel": 3.61e-3}


def blind_s31_fit(monkeypatch):
    """An s31 fit of a delta-0 mode: S31 is 0 whatever the parameters, so the start gradient is 0 and J^T J singular."""
    truth = truth_system()
    observed = mc.synthesize_noisy_spectrum(truth, 0.0, F_GRID, observable="s31.kittel")
    blind = mc.HybridSystem(cavity=CAVITY, modes=(dataclasses.replace(truth.mode("kittel"), delta=0.0),))
    problem = mc.FitProblem(observed=observed, system=blind, free=WIDE, B=0.0, observable="s31.kittel")
    return problem, mc.read_params(blind, WIDE, 0.0)


# each way the fit loop ends: its fit, whether it converges, its accepted steps (None: more than the
# capped fit's 3), whether its condition estimate is inf, and its stop reason
ENDS = {
    "gradient": (lambda monkeypatch: eight_parameter_problem(), True, None, False, "gradient"),
    "iteration_cap": (capped_fit, False, 3, False, "iteration_cap"),
    "damping_exhausted": (rejecting_fit, False, 0, False, "damping_exhausted"),
    "singular": (invisible_parameter_fit, False, 0, True, "singular"),
    # a zero start gradient where J^T J is singular does not converge on it: the loop's singular test ends it
    "zero_start_gradient": (blind_s31_fit, False, 0, True, "singular"),
}


@pytest.mark.parametrize("end", ENDS)
def test_every_end_of_the_fit_counts_only_its_accepted_steps(end, monkeypatch):
    fit, converged, steps, singular, stop_reason = ENDS[end]
    result = mc.fit_spectrum(*fit(monkeypatch))
    assert result.stop_reason == stop_reason
    assert result.iterations == len(result.residual_trace) - 1
    assert result.rms_residual == result.residual_trace[-1]
    assert result.converged is converged  # a plain bool at every end
    assert result.iterations > 3 if steps is None else result.iterations == steps
    assert math.isinf(result.jacobian_condition_estimate) is singular


@pytest.mark.parametrize("end", ENDS)
def test_every_trial_is_checked_once_and_counted_once(end, monkeypatch):
    """The start and each trial pass the trial check once; a trial it passes evaluates the model once."""
    problem, init = ENDS[end][0](monkeypatch)  # the damping_exhausted fit patches the trial check
    checks, raised, denominators = [], [], []
    trial_values, shared_denominator = fitting._trial_values, scattering.shared_denominator

    def counted_check(*args):
        checks.append(1)
        try:
            return trial_values(*args)
        except (ValueError, OverflowError):
            raised.append(1)
            raise

    def counted_denominator(*args, **kwargs):
        denominators.append(1)
        return shared_denominator(*args, **kwargs)

    monkeypatch.setattr(fitting, "_trial_values", counted_check)
    monkeypatch.setattr(scattering, "shared_denominator", counted_denominator)
    result = mc.fit_spectrum(problem, init)
    assert len(checks) == 1 + result.iterations + result.rejected_steps
    assert len(denominators) == len(checks) - len(raised)
    if end == "damping_exhausted":  # lambda from 1e-3 up to 1e15, one rejected trial per factor of 10
        assert (result.rejected_steps, len(denominators)) == (18, 1)
    else:  # the model rejects no trial of these fits
        assert raised == []
