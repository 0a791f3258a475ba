"""Spectrum synthesis and resonance-parameter extraction.

Replaces by-hand lineshape fitting with a damped (Levenberg-Marquardt
style) least-squares loop over named system parameters. Strictly positive
parameters are fitted in log space so positivity never needs active bound
handling; bounds act as a validity box checked on the way in and out.

The Jacobian is analytic. S21 = -2i*kappa_e/D and
S31_m = -i*g_m*chi_m*sqrt(beta_m*delta_m/kappa_e)*S21 depend on the
parameters only through kappa_e, D and the chi_m, so every column
dS/dtheta = S * dlog S/dtheta follows in closed form from the same
shared denominator D and susceptibilities chi_m that the model value is
built from: one model evaluation per Levenberg-Marquardt trial gives both
the residuals and their Jacobian.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import magnetostatics, scattering
from .model import FieldMap, HybridSystem
from .scattering import ComplexSpectrum

MAX_ITERATIONS = 200
GRADIENT_RTOL = 1e-10
JACOBIAN_REL_STEP = 1e-6

_CAVITY_PARAMS = ("f_c", "kappa_e", "kappa_i")
_MODE_PARAMS = ("g", "gamma", "f_m", "delta", "beta")
# rate-like parameters are strictly positive and fitted as log values
_LOG_FIELDS = {"kappa_e", "kappa_i", "g", "gamma", "delta", "beta"}

LOSSES = ("complex_residual", "power_and_phase_residual")


def _split_name(name: str) -> tuple[str, str | None]:
    field, _, label = name.partition(".")
    return field, (label or None)


def _validate_name(name: str, system: HybridSystem) -> None:
    field, label = _split_name(name)
    if label is None:
        if field not in _CAVITY_PARAMS:
            raise ValueError(f"unknown cavity parameter {name!r}")
    else:
        if field not in _MODE_PARAMS:
            raise ValueError(f"unknown mode parameter {name!r}")
        system.mode(label)  # raises KeyError for unknown labels


def validate_names(system: HybridSystem, names, observable: str) -> None:
    """Check that every parameter name and ``observable`` address ``system``.

    Raises ValueError for an unknown parameter or observable and KeyError
    for a mode label ``system`` does not have.
    """
    for name in names:
        _validate_name(name, system)
    _observed_mode(observable, system)


def apply_params(system: HybridSystem, values: dict[str, float]) -> HybridSystem:
    """Return a copy of ``system`` with the named parameters replaced.

    Cavity parameters are addressed as ``f_c``, ``kappa_e``, ``kappa_i``;
    mode parameters as ``<field>.<label>``, e.g. ``g.kittel``. Setting
    ``f_m.<label>`` pins that mode to a fixed frequency.
    """
    cavity_updates: dict[str, float] = {}
    mode_updates: dict[str, dict[str, float]] = {}
    for name, value in values.items():
        _validate_name(name, system)
        field, label = _split_name(name)
        if label is None:
            cavity_updates[field] = float(value)
        else:
            mode_updates.setdefault(label, {})[field] = float(value)

    cavity = dataclasses.replace(system.cavity, **cavity_updates) if cavity_updates else system.cavity
    modes = []
    for mode in system.modes:
        updates = mode_updates.get(mode.label, {})
        if "f_m" in updates:
            f_m = updates.pop("f_m")
            mode = dataclasses.replace(mode, field_map=FieldMap(kind="fixed", frequency=f_m))
        if updates:
            mode = dataclasses.replace(mode, **updates)
        modes.append(mode)
    return dataclasses.replace(system, cavity=cavity, modes=tuple(modes))


def read_params(system: HybridSystem, names, B: float) -> dict[str, float]:
    """The values of the named parameters in ``system``: the inverse of :func:`apply_params`.

    ``f_m.<label>`` reads that mode's frequency off its field map at bias field ``B``.
    """
    values = {}
    for name in names:
        _validate_name(name, system)
        field, label = _split_name(name)
        owner = system.cavity if label is None else system.mode(label)
        if field == "f_m":
            values[name] = magnetostatics.mode_frequency(owner.field_map, B, system.material)
        else:
            values[name] = getattr(owner, field)
    return values


@dataclass(frozen=True)
class FitProblem:
    """Observed complex spectrum plus the parameter subset to extract.

    ``free`` maps parameter names to finite (lower, upper) bounds; every
    parameter not named stays at its template value. ``observable``
    states which scattering amplitude the data represent ("s21", "s11",
    or "s31.<label>").
    """

    observed: ComplexSpectrum
    system: HybridSystem
    free: dict[str, tuple[float, float]]
    B: float = 0.0
    observable: str = "s21"
    loss: str = "complex_residual"

    def __post_init__(self):
        if not self.free:
            raise ValueError("at least one free parameter is required")
        validate_names(self.system, self.free, self.observable)
        for name, (lo, hi) in self.free.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounds for {name!r} must be finite")
            if not lo < hi:
                raise ValueError(f"bounds for {name!r} must satisfy lower < upper")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}; choose from {LOSSES}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: estimates, convergence report, and diagnostics.

    ``residual_trace`` holds the rms residual after each accepted step
    (monotone non-increasing); ``loss`` records the objective that was
    minimized.
    """

    estimates: dict[str, float]
    rms_residual: float
    iterations: int
    converged: bool
    jacobian_condition_estimate: float
    loss: str
    residual_trace: tuple[float, ...]


def _observed_mode(observable: str, system: HybridSystem) -> str | None:
    """The mode label of an ``s31.<label>`` observable, None for ``s21`` and ``s11``."""
    if observable in ("s21", "s11"):
        return None
    field, label = _split_name(observable)
    if field == "s31" and label is not None:
        system.mode(label)  # raises KeyError for unknown labels
        return label
    raise ValueError(f"unknown observable {observable!r}; choose s21, s11 or s31.<mode label>")


def _observed_values(observable: str, s21, s31: dict):
    """The amplitude ``observable`` names, from the ``(s21, s31)`` of :func:`scattering.amplitudes`."""
    if observable == "s21":
        return s21
    if observable == "s11":
        return 1.0 + s21
    return s31[_split_name(observable)[1]]


def synthesize_noisy_spectrum(
    system: HybridSystem,
    B: float,
    f_grid,
    observable: str = "s21",
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> ComplexSpectrum:
    """Model spectrum plus additive complex Gaussian noise.

    The per-quadrature standard deviation is ``noise_sigma * max|S|``;
    the same seed always reproduces the same spectrum.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    f_grid = np.asarray(f_grid, dtype=float)
    if f_grid.size == 0:
        raise ValueError("frequency grid must be non-empty")
    _observed_mode(observable, system)
    values = _observed_values(observable, *scattering.amplitudes(f_grid, system, B))
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        sigma = noise_sigma * np.max(np.abs(values))
        values = values + sigma * (rng.standard_normal(f_grid.size) + 1j * rng.standard_normal(f_grid.size))
    return ComplexSpectrum(f_grid, values)


def _to_internal(name: str, value: float) -> float:
    field, _ = _split_name(name)
    if field in _LOG_FIELDS:
        if value <= 0:
            raise ValueError(f"{name!r} is fitted in log space and needs a positive value")
        return math.log(value)
    return value


def _from_internal(name: str, value: float) -> float:
    field, _ = _split_name(name)
    return math.exp(value) if field in _LOG_FIELDS else float(value)


def _residual_vector(problem: FitProblem, model_values: np.ndarray) -> np.ndarray:
    data = problem.observed.values
    if problem.loss == "complex_residual":
        diff = model_values - data
        return np.concatenate([diff.real, diff.imag])
    power = np.abs(model_values) ** 2 - np.abs(data) ** 2
    phase = np.unwrap(np.angle(model_values)) - np.unwrap(np.angle(data))
    return np.concatenate([power, phase])


def _residual_jacobian(loss: str, model_values: np.ndarray, d_model: np.ndarray) -> np.ndarray:
    """Jacobian of :func:`_residual_vector` from ``d_model``, the model's derivative rows (one per parameter).

    A power row is 2*Re(conj(S)*dS) and a phase row Im(dS/S): the offsets
    ``np.unwrap`` adds are piecewise constant and drop out of the derivative.
    """
    if loss == "complex_residual":
        return np.concatenate([d_model.real, d_model.imag], axis=1).T
    power = 2.0 * (model_values.conj() * d_model).real
    phase = (d_model / model_values).imag
    return np.concatenate([power, phase], axis=1).T


def _log_derivative(name: str, system: HybridSystem, inv_d, chis: dict, observed_mode: str | None):
    """d log S / du for the internal parameter u of ``name``, over the grid.

    S is S21 for ``observed_mode`` None and S31 of that mode otherwise;
    ``inv_d`` is 1/D and ``chis`` maps each label to its chi_m, all of
    ``system``. With dD/df_c = -1, dD/dkappa = i, dD/dg_m = -2*g_m*chi_m,
    dchi_m/dgamma_m = -i*chi_m^2 and dchi_m/df_m = chi_m^2, the S21 forms
    are d log S21/dtheta = d log kappa_e/dtheta - (dD/dtheta)/D; S31_m adds
    d log(g_m*chi_m*sqrt(beta_m*delta_m/kappa_e))/dtheta. A log-space
    parameter's column is theta * d log S/dtheta, so no form divides by
    theta.
    """
    field, label = _split_name(name)
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
    shift = mode.g**2 * chi**2 * inv_d  # -dD/df_m
    if field == "gamma":
        return -1j * mode.gamma * (shift + (chi if own else 0.0))
    return shift + (chi if own else 0.0)  # f_m


def _residuals_and_jacobian(problem: FitProblem, names):
    """``evaluate(u) -> (residuals, jacobian)`` at internal values ``u`` of ``names``, from one model evaluation."""
    observed_mode = _observed_mode(problem.observable, problem.system)
    f_grid = problem.observed.frequencies

    def evaluate(u: np.ndarray):
        sys_ = apply_params(problem.system, {n: _from_internal(n, ui) for n, ui in zip(names, u)})
        d, chis = scattering.shared_denominator(f_grid, sys_, scattering.mode_frequencies(sys_, problem.B))
        s21, s31 = scattering.amplitudes_from_denominator(d, chis, sys_)
        model_values = _observed_values(problem.observable, s21, s31)
        inv_d = 1.0 / d
        chi_of = {mode.label: chi for mode, chi in zip(sys_.modes, chis)}
        d_log = np.array([_log_derivative(n, sys_, inv_d, chi_of, observed_mode) for n in names])
        # dS11 = dS21, so S11 differentiates through S21's logarithm
        base = s21 if observed_mode is None else s31[observed_mode]
        return _residual_vector(problem, model_values), _residual_jacobian(problem.loss, model_values, base * d_log)

    return evaluate


def finite_difference_jacobian(fun, u: np.ndarray, scales=None, rel_step: float = JACOBIAN_REL_STEP) -> np.ndarray:
    """Central-difference Jacobian of ``fun`` at ``u``, step ``rel_step * scale``.

    A reference for checking the analytic Jacobian; :func:`fit_spectrum` does not use it.
    """
    if scales is None:
        scales = np.maximum(np.abs(u), 1.0)
    r0 = fun(u)
    jac = np.empty((r0.size, u.size))
    for k in range(u.size):
        h = rel_step * scales[k]
        up, um = u.copy(), u.copy()
        up[k] += h
        um[k] -= h
        jac[:, k] = (fun(up) - fun(um)) / (2.0 * h)
    return jac


def fit_spectrum(problem: FitProblem, init: dict[str, float]) -> FitResult:
    """Damped least-squares extraction of the free parameters.

    Starts from ``init`` (which must lie inside the bounds), iterates
    Levenberg-Marquardt steps, accepts only cost-non-increasing steps,
    and stops when the gradient norm drops below 1e-10 of its initial
    value, when an accepted step leaves the cost exactly unchanged (the
    cost is then at its round-off floor; both count as converged), or
    after 200 iterations. Each trial step evaluates the model
    once and gets the residuals together with their analytic Jacobian
    (see the module docstring); an accepted step keeps that Jacobian.
    Singular normal equations end the fit with ``converged=False`` and a
    large condition estimate instead of raising.
    """
    names = sorted(problem.free)
    for name in names:
        if name not in init:
            raise ValueError(f"init is missing a value for {name!r}")
        lo, hi = problem.free[name]
        if not lo <= init[name] <= hi:
            raise ValueError(f"init for {name!r} is outside its bounds")

    evaluate = _residuals_and_jacobian(problem, names)
    u = np.array([_to_internal(n, init[n]) for n in names])
    r, jac = evaluate(u)
    cost = float(r @ r)
    n_points = r.size
    trace = [math.sqrt(cost / n_points)]

    grad = jac.T @ r
    grad0 = np.linalg.norm(grad)
    lam = 1e-3
    converged = grad0 == 0.0
    singular = False
    iterations = 0

    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        if np.any(diag == 0.0) or not np.all(np.isfinite(jtj)):
            singular = True  # a parameter the data cannot see, or a blown-up column
            break
        accepted = False
        while lam < 1e15:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                singular = True
                break
            if not np.all(np.isfinite(step)):
                singular = True
                break
            u_try = u + step
            try:
                r_try, jac_try = evaluate(u_try)
            except (ValueError, OverflowError):
                r_try = None
            if r_try is not None and np.all(np.isfinite(r_try)):
                cost_try = float(r_try @ r_try)
                if cost_try <= cost:
                    # an accepted step that leaves the cost unchanged has reached its round-off floor
                    stalled = cost_try == cost
                    u, r, jac, cost = u_try, r_try, jac_try, cost_try
                    lam = max(lam / 3.0, 1e-12)
                    accepted = True
                    break
            lam *= 10.0
        if singular:
            break
        if not accepted:
            break  # damping exhausted without progress: not converged
        trace.append(math.sqrt(cost / n_points))
        grad = jac.T @ r
        if stalled or np.linalg.norm(grad) < GRADIENT_RTOL * grad0:
            converged = True

    with np.errstate(all="ignore"):
        try:
            cond = float(np.linalg.cond(jac))
        except np.linalg.LinAlgError:
            cond = float("inf")
    if singular and math.isfinite(cond):
        cond = float("inf")

    estimates = {}
    for name, ui in zip(names, u):
        value = _from_internal(name, ui)
        lo, hi = problem.free[name]
        if not lo <= value <= hi:
            value = min(max(value, lo), hi)
            converged = False
        estimates[name] = value

    return FitResult(
        estimates=estimates,
        rms_residual=math.sqrt(cost / n_points),
        iterations=iterations,
        converged=converged,
        jacobian_condition_estimate=cond,
        loss=problem.loss,
        residual_trace=tuple(trace),
    )
