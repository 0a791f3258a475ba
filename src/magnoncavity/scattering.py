"""S-parameters and microwave-to-optical conversion spectra.

Every operation takes probe frequencies in Hz (scalar or ndarray) and a
:class:`~magnoncavity.model.HybridSystem` whose magnon-mode frequencies
are resolved from the bias field through each mode's field map. The
shared denominator

    D(f) = (f - f_c) + i*kappa_t - sum_m g_m^2 * chi_m(f)

has strictly positive imaginary part for real f, so all spectra are
finite and the phase of i*S21 stays inside (-pi, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import magnetostatics
from .model import CavityParams, HybridSystem, MagnonMode, susceptibility_magnon

OBSERVABLES = ("s21_power", "s11_power", "eta", "s21_phase", "s31_phase")
# Grid cells per shared-denominator call of sweep_map: each block of
# max(1, _SWEEP_CELLS // f.size) bias fields is one call, which bounds the
# kernel's temporaries to about _SWEEP_CELLS complex values per mode
# whatever the grid size. Larger blocks fall out of the cache and run slower.
_SWEEP_CELLS = 12_000


@dataclass(frozen=True)
class ComplexSpectrum:
    """Complex scattering amplitude on an ascending frequency grid."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("frequency grid must be a non-empty 1D array")
        if v.shape != f.shape:
            raise ValueError("values must match the frequency grid length")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(v))):
            raise ValueError("spectrum contains non-finite entries")
        if not np.all(np.diff(f) > 0):
            raise ValueError("frequency grid must be strictly ascending")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SweepMap:
    """Real observable on a (bias field x frequency) grid.

    ``values[k, l]`` corresponds to ``fields[k]`` and ``frequencies[l]``.
    Power-like observables (|S|^2, eta) must be non-negative; phase maps
    hold principal values in (-pi, pi].
    """

    fields: np.ndarray
    frequencies: np.ndarray
    values: np.ndarray
    observable: str = "s21_power"

    def __post_init__(self):
        B = np.asarray(self.fields, dtype=float)
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        _check_grids(B, f)
        if v.shape != (B.size, f.size):
            raise ValueError(f"values shape {v.shape} does not match grids ({B.size}, {f.size})")
        if not np.all(np.isfinite(v)):
            raise ValueError("map contains non-finite values")
        if self.observable not in OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}")
        if not self.observable.endswith("_phase") and np.any(v < 0):
            raise ValueError("power-like map values must be non-negative")
        object.__setattr__(self, "fields", B)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)


def _check_grids(B: np.ndarray, f: np.ndarray) -> None:
    """Reject bias-field and frequency grids that are not non-empty, 1-D, finite and strictly ascending."""
    if B.ndim != 1 or f.ndim != 1 or B.size == 0 or f.size == 0:
        raise ValueError("grids must be non-empty 1D arrays")
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(f))):
        raise ValueError("grids must be finite")
    if np.any(np.diff(B) <= 0) or np.any(np.diff(f) <= 0):
        raise ValueError("grids must be strictly ascending")


def mode_frequencies(system: HybridSystem, B) -> list:
    """Every mode's frequency at the scalar bias field ``B``, in mode order.

    The one place where the amplitude kernel's field maps are resolved. The
    first failing mode raises: its field map's error, or ValueError for a
    non-finite frequency.
    """
    f_ms = []
    for mode in system.modes:
        f_m = magnetostatics.mode_frequency(mode.field_map, B, system.material)
        if not math.isfinite(f_m):
            raise ValueError("f_m must be finite")
        f_ms.append(f_m)
    return f_ms


def shared_denominator(f, system: HybridSystem, f_ms):
    """D(f) = (f - f_c) + i*kappa_t - sum_m g_m^2 chi_m(f), and the chi_m in mode order.

    ``f_ms`` holds every mode's resolved frequency, in mode order (see
    :func:`mode_frequencies`), each broadcasting against ``f``: scalars give
    spectra of ``f``'s shape, and ``f`` of shape (rows, F) with each
    ``f_m`` of shape (rows, 1) gives one spectrum per bias field. Element
    for element the values equal those of the scalar-``f_m`` calls.
    """
    if not np.all(np.isfinite(f)):
        raise ValueError("f must be finite")
    cav = system.cavity
    d = (np.asarray(f, dtype=float) - cav.f_c) + 1j * cav.kappa_t
    chis = []
    for mode, f_m in zip(system.modes, f_ms, strict=True):
        chi = susceptibility_magnon(f, mode, f_m)
        d = d - mode.g**2 * chi
        chis.append(chi)
    return d, chis


def amplitudes(f, system: HybridSystem, B: float = 0.0):
    """Transmission and every mode's conversion amplitude over one shared denominator.

    Returns ``(s21, s31)``: S21(f) = -i * 2*kappa_e / D(f), and ``s31``
    maps each mode label, in mode order, to
    S31_m(f) = -i * g_m * chi_m(f) * sqrt(beta_m*delta_m/kappa_e) * S21(f),
    which is algebraically identical to the closed two-mode coefficients
    (their numerator dressing factor collapses into the shared
    denominator) and extends them to any number of modes.

    Supports any number of magnon modes, including zero (bare cavity).
    ``B`` resolves the mode frequencies and is irrelevant for a bare
    cavity or fixed-frequency modes.
    """
    return amplitudes_from_denominator(*shared_denominator(f, system, mode_frequencies(system, B)), system)


def amplitudes_from_denominator(d, chis, system: HybridSystem, labels=None):
    """``(s21, s31)`` of :func:`amplitudes` from an already built ``(D, chis)`` of ``system``.

    ``labels``, if given, names the modes whose S31 is formed; ``s31`` then
    holds only those, in mode order. None forms every mode's.
    """
    kappa_e = system.cavity.kappa_e
    t = -1j * 2.0 * kappa_e / d
    s31 = {
        mode.label: -1j * mode.g * chi * math.sqrt(mode.beta * mode.delta / kappa_e) * t
        for mode, chi in zip(system.modes, chis)
        if labels is None or mode.label in labels
    }
    return t, s31


def s21(f, system: HybridSystem, B: float = 0.0):
    """Transmission amplitude -i * 2*kappa_e / D(f) (see :func:`amplitudes`)."""
    return amplitudes(f, system, B)[0]


def s11(f, system: HybridSystem, B: float = 0.0):
    """Reflection amplitude 1 + S21(f) = 1 - i * 2*kappa_e / D(f)."""
    return 1.0 + s21(f, system, B)


def s31_mode(f, system: HybridSystem, B: float, mode_label: str):
    """Microwave-to-optical conversion amplitude S31_m of one magnon mode (see :func:`amplitudes`)."""
    system.mode(mode_label)  # KeyError for an unknown label, before any work
    return amplitudes(f, system, B)[1][mode_label]


def eta_spectrum(f, system: HybridSystem, B: float = 0.0):
    """Total conversion efficiency: sum over modes of |S31_m(f)|^2."""
    if not system.modes:
        raise ValueError("conversion requires at least one magnon mode")
    return eta_from_amplitudes(amplitudes(f, system, B)[1])


def eta_from_amplitudes(s31: dict):
    """Total conversion efficiency sum_m |S31_m|^2 of the ``s31`` that :func:`amplitudes` returns.

    Summed in mode order from 0.0, so no modes give the scalar 0.0.
    """
    return sum((np.abs(values) ** 2 for values in s31.values()), 0.0)


def eta_resonant(system: HybridSystem) -> float:
    """Conversion efficiency at triple resonance, in terms of cooperativities.

    eta = 4*kappa_e / (1 + sum_m C_m)^2 * sum_m beta_m*delta_m*C_m^2/g_m^2
    with C_m = g_m^2/(kappa_t*gamma_m). Each term is computed as
    beta*delta*g^2/(kappa_t*gamma)^2, so a mode with g = 0 contributes 0
    (the continuity limit) instead of dividing by zero.
    """
    if not system.modes:
        raise ValueError("conversion requires at least one magnon mode")
    kappa_t = system.cavity.kappa_t
    total_c = sum(m.g**2 / (kappa_t * m.gamma) for m in system.modes)
    acc = sum(m.beta * m.delta * m.g**2 / (kappa_t * m.gamma) ** 2 for m in system.modes)
    return 4.0 * system.cavity.kappa_e / (1.0 + total_c) ** 2 * acc


def eta_single_resonant(g: float, gamma: float, delta: float, cavity: CavityParams) -> float:
    """Single-mode resonant conversion efficiency.

    eta = (2*sqrt(delta*kappa_e) * C / (g*(1 + C)))^2 with
    C = g^2/(kappa_t*gamma). Saturates at 4*delta*kappa_e/g^2 for large C.
    """
    if g <= 0:
        raise ValueError("single-mode resonant efficiency requires g > 0")
    c = g * g / (cavity.kappa_t * gamma)
    return (2.0 * math.sqrt(delta * cavity.kappa_e) * c / (g * (1.0 + c))) ** 2


def _kittel_mode(system: HybridSystem) -> MagnonMode:
    for mode in system.modes:
        if mode.field_map.kind == "kittel":
            return mode
    raise ValueError("system has no Kittel-mapped mode")


def dispersion_branches(system: HybridSystem, B: float, f_K: float | None = None):
    """Hybridized branch frequencies (f_plus, f_minus) of cavity + Kittel mode.

    f_pm = (f_c + f_K)/2 +/- sqrt(4 g_K^2 + (f_c - f_K)^2)/2. The gap at
    degeneracy (f_K = f_c) equals 2*g_K. If ``f_K`` is omitted it is
    resolved from the Kittel mode's field map at ``B``.
    """
    mode = _kittel_mode(system)
    if f_K is None:
        f_K = magnetostatics.mode_frequency(mode.field_map, B, system.material)
    f_c = system.cavity.f_c
    center = 0.5 * (f_c + f_K)
    half_gap = 0.5 * math.hypot(2.0 * mode.g, f_c - f_K)
    return center + half_gap, center - half_gap


def principal_phase(values) -> np.ndarray:
    """Phase as a principal value in (-pi, pi] (no unwrapping)."""
    phase = np.angle(values)
    return np.where(phase == -np.pi, np.pi, phase)


def sweep_map(
    system: HybridSystem,
    B_grid,
    f_grid,
    observable: str = "s21_power",
    mode_label: str | None = None,
) -> SweepMap:
    """Evaluate one observable over a (bias field x frequency) grid.

    ``mode_label`` selects the mode for ``s31_phase`` (defaults to the
    first mode). Rows follow ``B_grid`` order, columns ``f_grid`` order.
    Both grids must be finite, 1-D and strictly ascending; they are checked
    before any kernel work. Every mode's frequency at every field is then
    resolved once, so a failing field map raises the error of the first
    failing (field, mode) in row-major order, still before any kernel work.
    The kernel runs on blocks of bias fields (see ``_SWEEP_CELLS``), so its
    temporaries stay bounded by the block and not the grid; every value
    equals the one-field evaluation bit for bit.
    """
    if observable not in OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}; choose from {OBSERVABLES}")
    B_grid = np.atleast_1d(np.asarray(B_grid, dtype=float))
    f_grid = np.atleast_1d(np.asarray(f_grid, dtype=float))
    _check_grids(B_grid, f_grid)

    if observable in ("eta", "s31_phase") and not system.modes:
        raise ValueError(f"{observable} requires at least one magnon mode")
    reads = None if observable == "eta" else ()  # the modes whose S31 the observable reads
    if observable == "s31_phase":
        label = mode_label if mode_label is not None else system.modes[0].label
        system.mode(label)  # KeyError for an unknown label, before any work
        reads = (label,)
    reduce = {
        "s21_power": lambda t, s31: np.abs(t) ** 2,
        "s11_power": lambda t, s31: np.abs(1.0 + t) ** 2,
        "eta": lambda t, s31: eta_from_amplitudes(s31),
        "s21_phase": lambda t, s31: principal_phase(t),
        "s31_phase": lambda t, s31: principal_phase(s31[label]),
    }[observable]

    # every (field, mode) frequency, field by field, so the first failing one
    # in row-major order raises before any kernel work: shape (modes, fields)
    f_ms = np.array([mode_frequencies(system, B) for B in B_grid.tolist()], dtype=float).T
    values = np.empty((B_grid.size, f_grid.size))
    rows = max(1, _SWEEP_CELLS // f_grid.size)
    for start in range(0, B_grid.size, rows):
        stop = min(start + rows, B_grid.size)
        # f at the block's full shape: one frequency point per output cell
        f_block = np.broadcast_to(f_grid, (stop - start, f_grid.size))
        d, chis = shared_denominator(f_block, system, f_ms[:, start:stop, None])
        values[start:stop] = reduce(*amplitudes_from_denominator(d, chis, system, reads))
    return SweepMap(B_grid, f_grid, values, observable)
