"""Spectrum synthesis and resonance-parameter extraction.

Replaces by-hand lineshape fitting with a damped (Levenberg-Marquardt
style) least-squares loop over named system parameters. Strictly positive
parameters are fitted in log space so positivity never needs active bound
handling; bounds act as a validity box checked on the way in and out.

The Jacobian is analytic. S21 = -2i*kappa_e/D and
S31_m = -i*g_m*chi_m*sqrt(beta_m*delta_m/kappa_e)*S21 depend on the
parameters only through kappa_e, D and the chi_m, and dD/df_c = -1,
dD/dkappa = i, dD/dg_m = -2*g_m*chi_m, dchi_m/df_m = chi_m^2 and
dchi_m/dgamma_m = -i*chi_m^2. So with W = S/D, each row dS/du is one scalar
multiple of W, W*chi_m or W*chi_m^2 (which a mode's f_m and gamma rows
share), plus S, S/2 or S*chi_m where S itself holds the parameter. The
complex residuals are a float64 view of model - data, Re and Im
interleaved, and their Jacobian the (2N, P) float64 view of the rows. B is
fixed for a fit, so the field maps resolve once per fit and each model
evaluation puts the trial's free f_m in place. Each trial evaluates the
model once; the Jacobian is formed only at the start point and for
accepted steps, from the model evaluation that gave their residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import magnetostatics, scattering
from .errors import DomainError
from .model import CavityParams, FieldMap, HybridSystem, MagnonMode
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


def _parse_name(name: str, system: HybridSystem) -> tuple[str, str | None]:
    """``(field, label)`` of the parameter ``name`` of ``system``; label None for a cavity parameter.

    Raises ValueError for an unknown parameter and KeyError for a mode
    label ``system`` does not have.
    """
    field, label = _split_name(name)
    if label is None:
        if field not in _CAVITY_PARAMS:
            raise ValueError(f"unknown cavity parameter {name!r}")
    else:
        if field not in _MODE_PARAMS:
            raise ValueError(f"unknown mode parameter {name!r}")
        system.mode(label)  # raises KeyError for unknown labels
    return field, label


def validate_names(system: HybridSystem, names, observable: str) -> None:
    """Check that every parameter name and ``observable`` address ``system``.

    Raises ValueError for an unknown parameter or observable and KeyError
    for a mode label ``system`` does not have.
    """
    for name in names:
        _parse_name(name, system)
    _observed_mode(observable, system)


def apply_params(system: HybridSystem, values: dict[str, float]) -> HybridSystem:
    """Return a copy of ``system`` with the named parameters replaced.

    Cavity parameters are addressed as ``f_c``, ``kappa_e``, ``kappa_i``;
    mode parameters as ``<field>.<label>``, e.g. ``g.kittel``. Setting
    ``f_m.<label>`` pins that mode to a fixed frequency. Every name is
    checked before anything is built; the new cavity and modes are then
    built by their constructors, which validate the values, cavity first
    and modes in order.
    """
    cavity_updates: dict[str, float] = {}
    mode_updates: dict[str, dict[str, float]] = {}
    for name, value in values.items():
        field, label = _parse_name(name, system)
        if label is None:
            cavity_updates[field] = float(value)
        else:
            mode_updates.setdefault(label, {})[field] = float(value)

    cavity = system.cavity
    if cavity_updates:
        get = cavity_updates.get
        cavity = CavityParams(get("f_c", cavity.f_c), get("kappa_e", cavity.kappa_e), get("kappa_i", cavity.kappa_i))
    modes = []
    for mode in system.modes:
        updates = mode_updates.get(mode.label)
        if updates:
            get = updates.get
            field_map = FieldMap(kind="fixed", frequency=updates["f_m"]) if "f_m" in updates else mode.field_map
            mode = MagnonMode(
                mode.label, get("g", mode.g), get("gamma", mode.gamma),
                get("delta", mode.delta), get("beta", mode.beta), field_map,
            )
        modes.append(mode)
    return HybridSystem(cavity, tuple(modes), system.material, system.optical)


def read_params(system: HybridSystem, names, B: float) -> dict[str, float]:
    """The values of the named parameters in ``system``: the inverse of :func:`apply_params`.

    ``f_m.<label>`` reads that mode's frequency off its field map at bias field ``B``.
    """
    values = {}
    for name in names:
        field, label = _parse_name(name, system)
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

    ``residual_trace`` holds the rms residual at the start and after each
    accepted step (monotone non-increasing), so ``iterations``, the number
    of accepted steps, is one less than its length; ``stop_reason`` names how
    the loop ended: "gradient" or "cost_floor" (converged), "singular",
    "damping_exhausted" or "iteration_cap". An estimate clamped to its bounds
    clears ``converged`` and leaves ``stop_reason`` as it was. ``loss``
    records the objective that was minimized.
    """

    estimates: dict[str, float]
    rms_residual: float
    iterations: int
    converged: bool
    stop_reason: str
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
    f_grid = scattering._real(f_grid, "f_grid")
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


def _residual_function(data: np.ndarray, loss: str):
    """``model_values -> residuals`` of ``loss`` against the observed ``data``.

    The complex residual is a float64 view of ``model - data``, its Re and
    Im interleaved. The terms that depend on the data alone are formed here, once.
    """
    if loss == "complex_residual":
        return lambda model_values: (model_values - data).view(np.float64)
    power_data = np.abs(data) ** 2
    phase_data = np.unwrap(np.angle(data))

    def residuals(model_values):
        power = np.abs(model_values) ** 2 - power_data
        phase = np.unwrap(np.angle(model_values)) - phase_data
        return np.concatenate([power, phase])
    return residuals


def _residual_jacobian(loss: str, model_values: np.ndarray, d_model: np.ndarray) -> np.ndarray:
    """Jacobian of the residuals of :func:`_residual_function` from ``d_model``, the model's derivative rows (one per parameter).

    For the complex residual it is the ``(2N, P)`` float64 view of the
    ``(P, N)`` rows, in the residuals' interleaved order. A power row is
    2*Re(conj(S)*dS) and a phase row Im(dS/S): the offsets ``np.unwrap``
    adds are piecewise constant and drop out of the derivative.
    """
    if loss == "complex_residual":
        return d_model.view(np.float64).T
    power = 2.0 * (model_values.conj() * d_model).real
    phase = (d_model / model_values).imag
    return np.concatenate([power, phase], axis=1).T


def _residuals_and_jacobian(problem: FitProblem, names):
    """``evaluate(u) -> (residuals, jacobian)`` at internal values ``u`` of ``names``.

    ``evaluate`` builds the model once and returns its residuals and
    ``jacobian``, a zero-argument function that forms their Jacobian from
    that evaluation's D, chi_m and S; a caller that rejects ``u`` never
    calls it. The names are parsed, and the field maps of the modes whose
    ``f_m`` is not free are resolved at ``problem.B``, once here, not per evaluation.
    """
    system = problem.system
    parsed = [_parse_name(n, system) for n in names]
    logs = [field in _LOG_FIELDS for field, _ in parsed]
    index = {mode.label: m for m, mode in enumerate(system.modes)}
    rows = [(field, None if label is None else index[label]) for field, label in parsed]
    f_m_row = {m: k for k, (field, m) in enumerate(rows) if field == "f_m"}
    chi_modes = {m for field, m in rows if field in ("g", "f_m", "gamma")}
    chi2_modes = {m for field, m in rows if field in ("f_m", "gamma")}
    observed_mode = _observed_mode(problem.observable, system)
    observed = index.get(observed_mode)
    # only the observed mode's S31 is formed: none for s21 and s11
    labels = () if observed_mode is None else (observed_mode,)
    s11 = problem.observable == "s11"
    f_grid = problem.observed.frequencies
    residuals = _residual_function(problem.observed.values, problem.loss)
    # B is fixed for the fit: the maps of the modes without a free f_m resolve once, here
    kept = HybridSystem(system.cavity, [mode for m, mode in enumerate(system.modes) if m not in f_m_row], system.material)
    resolved = iter(scattering.mode_frequencies(kept, problem.B))
    fixed_f_ms = [None if m in f_m_row else next(resolved) for m in range(len(system.modes))]

    def evaluate(u: np.ndarray):
        values = [math.exp(ui) if log else ui for ui, log in zip(u.tolist(), logs)]
        # validates the trial: an f_c or f_m <= 0 is a ValueError
        sys_ = apply_params(system, dict(zip(names, values)))
        f_ms = [values[f_m_row[m]] if m in f_m_row else f_m for m, f_m in enumerate(fixed_f_ms)]
        d, chis = scattering.shared_denominator(f_grid, sys_, f_ms)
        s21, s31 = scattering.amplitudes_from_denominator(d, chis, sys_, labels)
        # dS11 = dS21, so S11 differentiates through S21
        s = s21 if observed_mode is None else s31[observed_mode]
        model_values = 1.0 + s21 if s11 else s

        def jacobian() -> np.ndarray:
            w = s / d
            w_chi = {m: w * chis[m] for m in chi_modes}
            cavity, modes = sys_.cavity, sys_.modes
            d_model = np.empty((len(rows), f_grid.size), dtype=complex)
            # each mode's f_m row, in place if f_m is free, which its gamma row scales
            d_f = {
                m: np.multiply(w_chi[m] * chis[m], modes[m].g ** 2, out=d_model[f_m_row[m]] if m in f_m_row else None)
                for m in chi2_modes
            }
            if observed in d_f:  # S31_m's own chi_m
                np.add(d_f[observed], s * chis[observed], out=d_f[observed])
            for (field, m), row in zip(rows, d_model):
                if field == "f_c":
                    row[...] = w
                elif field == "kappa_i":
                    np.multiply(w, -1j * cavity.kappa_i, out=row)
                elif field == "kappa_e":  # S21 is proportional to kappa_e, S31_m to sqrt(kappa_e)
                    np.add(np.multiply(w, -1j * cavity.kappa_e, out=row), s if observed is None else 0.5 * s, out=row)
                elif field in ("delta", "beta"):  # S31_m is proportional to sqrt(delta_m * beta_m)
                    np.multiply(s, 0.5 if m == observed else 0.0, out=row)
                elif field == "g":
                    np.multiply(w_chi[m], 2.0 * modes[m].g ** 2, out=row)
                    if m == observed:
                        np.add(row, s, out=row)
                elif field == "gamma":
                    np.multiply(d_f[m], -1j * modes[m].gamma, out=row)
            return _residual_jacobian(problem.loss, model_values, d_model)

        return residuals(model_values), jacobian

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


def _singular(jtj: np.ndarray) -> bool:
    """Whether the normal matrix J^T J has a zero diagonal (a parameter the data cannot see) or a non-finite entry."""
    return bool((jtj.diagonal() == 0.0).any() or not np.isfinite(jtj).all())


@np.errstate(all="ignore")  # an overflowing start is the DomainError below, an overflowing trial a rejected step
def fit_spectrum(problem: FitProblem, init: dict[str, float]) -> FitResult:
    """Damped least-squares extraction of the free parameters.

    Starts from ``init`` (which must lie inside the bounds), iterates
    Levenberg-Marquardt steps, accepts only cost-non-increasing steps,
    and stops when the gradient norm drops below 1e-10 of its initial
    value, when an accepted step leaves the cost exactly unchanged (the
    cost is then at its round-off floor; both count as converged), or
    after 200 accepted steps. Each trial step evaluates the model once; the
    analytic Jacobian (see the module docstring) is formed only for the
    start point and for accepted steps.
    Singular normal equations end the fit with ``converged=False`` and an
    ``inf`` condition estimate instead of raising; so does a zero start
    gradient when they are singular there. A start cost that is not finite
    (residuals that overflow, or are not finite) raises DomainError.
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
    r, jacobian = evaluate(u)
    jac = jacobian()
    cost = float(r @ r)
    if not math.isfinite(cost):  # also where a residual is not finite
        raise DomainError(f"the fit's start cost is {cost}: its residuals are not finite or overflow when squared")
    trace = [math.sqrt(cost / r.size)]

    grad = jac.T @ r
    grad0 = np.linalg.norm(grad)
    lam = 1e-3
    # how the fit ended: None while it runs, set once where the loop ends; a zero start
    # gradient is the gradient test, met unless a parameter cannot move the model there
    end = "gradient" if grad0 == 0.0 and not _singular(jac.T @ jac) else None
    while end is None:
        if len(trace) > MAX_ITERATIONS:
            end = "iteration_cap"
            break
        jtj = jac.T @ jac
        if _singular(jtj):
            end = "singular"
            break
        diag = jtj.diagonal().copy()
        while lam < 1e15:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.isfinite(step).all():
                end = "singular"
                break
            u_try = u + step
            try:
                r_try, jacobian = evaluate(u_try)
                cost_try = float(r_try @ r_try)
            except (ValueError, OverflowError):  # a trial the model rejects
                cost_try = math.inf
            # a residual that is not finite makes the cost inf or nan, which rejects the trial
            if cost_try <= cost:
                # an accepted step that leaves the cost unchanged has reached its round-off floor
                if cost_try == cost:
                    end = "cost_floor"
                u, r, cost = u_try, r_try, cost_try
                jac = jacobian()
                lam = max(lam / 3.0, 1e-12)
                trace.append(math.sqrt(cost / r.size))
                grad = jac.T @ r
                if end is None and np.linalg.norm(grad) < GRADIENT_RTOL * grad0:
                    end = "gradient"
                break
            lam *= 10.0
        else:
            end = "damping_exhausted"

    converged = end in ("gradient", "cost_floor")
    try:
        cond = math.inf if end == "singular" else float(np.linalg.cond(jac))
    except np.linalg.LinAlgError:
        cond = math.inf

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
        rms_residual=trace[-1],
        iterations=len(trace) - 1,
        converged=converged,
        stop_reason=end,
        jacobian_condition_estimate=cond,
        loss=problem.loss,
        residual_trace=tuple(trace),
    )
