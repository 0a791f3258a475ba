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
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import magnetostatics
from .errors import DomainError
from .model import HybridSystem, susceptibility_magnon

OBSERVABLES = ("s21_power", "s11_power", "eta", "s21_phase", "s31_phase")
# Grid cells per shared-denominator call of sweep_map: each block of
# max(1, _SWEEP_CELLS // f.size) bias fields is one call, which bounds each
# worker's kernel buffers to about _SWEEP_CELLS complex values per mode
# whatever the grid size. On two x86-64 CPUs (two workers) the 8-mode eta
# map took 27.6 ms at 401 x 1501 and 12.0 ms at 401 x 601 with 24 000; 48 000
# took 27.0 and 13.1 ms, 12 000 34 and 15 ms, and 6 000 52 and 20 ms, where the
# per-block Python work of the workers contends for the interpreter.
_SWEEP_CELLS = 24_000


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
    Every value must be finite (DomainError names the first cell, in
    row-major order, that is not). Power-like observables (|S|^2, eta) must
    be non-negative; phase maps hold principal values in (-pi, pi].
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
        if not np.isfinite(v).all():
            k, l = np.unravel_index(np.argmin(np.isfinite(v)), v.shape)
            raise DomainError(f"{self.observable} is {v[k, l]} at B = {B[k].item()!r} T, f = {f[l].item()!r} Hz")
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
    """Every mode's frequency at the scalar bias field ``B``, in mode order: a one-field :func:`_resolve_field_maps`."""
    return _resolve_field_maps(system, np.array([float(B)]))[:, 0].tolist()


def _resolve_field_maps(system: HybridSystem, B_grid) -> np.ndarray:
    """Every mode's frequency at every field of the 1-D float array ``B_grid``: shape (modes, fields).

    The first failing (field, mode) in row-major order raises the error of its first failing rule: its field map's
    rules, then ValueError("f_m must be finite") where the frequency is not finite (a map that overflows to +/-inf).
    """
    resolved = [magnetostatics._mode_frequency_grid(mode.field_map, B_grid, system.material) for mode in system.modes]
    f_ms = np.array([values for values, _ in resolved]).reshape(len(system.modes), B_grid.size)
    failure = magnetostatics._first_failure(
        [rules + [magnetostatics._Rule(np.isfinite(values), ValueError, lambda k: "f_m must be finite")]
         for (_, rules), values in zip(resolved, f_ms)]
    )
    if failure is not None:
        raise failure[1]
    return f_ms


class KernelBuffers(NamedTuple):
    """Arrays that one kernel call fills in place instead of allocating its results.

    :func:`shared_denominator` writes D into ``d`` and chi_m into
    ``chis[m]``, with ``scratch`` and ``real`` as its temporaries;
    :func:`amplitudes_from_denominator` then overwrites D with S21 and each
    formed chi_m with S31_m, again through ``scratch``. Every array has the
    kernel's broadcast shape.
    """

    d: np.ndarray
    chis: list
    scratch: np.ndarray
    real: np.ndarray

    @classmethod
    def empty(cls, shape, n_modes: int) -> KernelBuffers:
        """Uninitialised buffers of ``shape`` for a system of ``n_modes`` modes."""
        return cls(
            np.empty(shape, complex), [np.empty(shape, complex) for _ in range(n_modes)],
            np.empty(shape, complex), np.empty(shape),
        )

    def head(self, rows: int) -> KernelBuffers:
        """Views of the first ``rows`` rows, for a block shorter than the buffers."""
        return KernelBuffers(self.d[:rows], [chi[:rows] for chi in self.chis], self.scratch[:rows], self.real[:rows])


def shared_denominator(f, system: HybridSystem, f_ms, *, out: KernelBuffers | None = None):
    """D(f) = (f - f_c) + i*kappa_t - sum_m g_m^2 chi_m(f), and the chi_m in mode order.

    ``f_ms`` holds every mode's resolved frequency, in mode order (see
    :func:`mode_frequencies`), each broadcasting against ``f``: scalars give
    spectra of ``f``'s shape, and ``f`` of shape (rows, F) with each
    ``f_m`` of shape (rows, 1) gives one spectrum per bias field. Element
    for element the values equal those of the scalar-``f_m`` calls. Each
    chi_m is :func:`~magnoncavity.model.susceptibility_magnon`. Arithmetic
    only: ``f`` and ``f_ms`` are trusted, each checked where it enters (see
    :func:`amplitudes` and :func:`_resolve_field_maps`). With ``out``
    the results are written into its arrays (see :class:`KernelBuffers`);
    the values are the same bit for bit, for a one-cell block too.
    """
    f = np.asarray(f, dtype=float)
    cav = system.cavity
    d_out, chi_outs, scratch, real = (None, [None] * len(system.modes), None, None) if out is None else out
    d = np.add(np.subtract(f, cav.f_c, out=real), 1j * cav.kappa_t, out=d_out)
    chis = []
    for mode, f_m, chi in zip(system.modes, f_ms, chi_outs, strict=True):
        chi = susceptibility_magnon(f, mode, f_m, chi, real)
        d = np.subtract(d, np.multiply(mode.g**2, chi, out=scratch), out=d_out)
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
    cavity or fixed-frequency modes. A failing field map raises first, then
    ValueError("f must be finite"); an overflow in the kernel is not checked.
    """
    f_ms = mode_frequencies(system, B)
    if not np.isfinite(f).all():
        raise ValueError("f must be finite")
    return amplitudes_from_denominator(*shared_denominator(f, system, f_ms), system)


def amplitudes_from_denominator(d, chis, system: HybridSystem, labels=None, *, out: KernelBuffers | None = None):
    """``(s21, s31)`` of :func:`amplitudes` from an already built ``(D, chis)`` of ``system``.

    ``labels``, if given, names the modes whose S31 is formed; ``s31`` then
    holds only those, in mode order. None forms every mode's. ``out``, the
    buffers :func:`shared_denominator` filled, takes S21 in place of D and
    each formed S31_m in place of its chi_m, with ``scratch`` as its
    temporary; the values are those of the allocating call bit for bit.
    """
    kappa_e = system.cavity.kappa_e
    t_out, chi_outs, scratch = (
        (None, [None] * len(system.modes), None) if out is None else (out.d, out.chis, out.scratch)
    )
    t = np.divide(-1j * 2.0 * kappa_e, d, out=t_out)
    s31 = {}
    for mode, chi, s31_out in zip(system.modes, chis, chi_outs):
        if labels is None or mode.label in labels:
            # no complex product is taken in place: numpy's in-place loop
            # may round a one-element array differently in the last bit
            s = np.multiply(-1j * mode.g, chi, out=scratch)
            s = np.multiply(s, math.sqrt(mode.beta * mode.delta / kappa_e), out=scratch)
            s31[mode.label] = np.multiply(s, t, out=s31_out)
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


def eta_from_amplitudes(s31: dict, out=None, scratch=None):
    """Total conversion efficiency sum_m |S31_m|^2 of the ``s31`` that :func:`amplitudes` returns.

    Summed in mode order from 0.0, so no modes give the scalar 0.0. ``out``
    and ``scratch``, real arrays of the amplitudes' shape, if given, take the
    sum and each |S31_m|^2.
    """
    total = 0.0
    for values in s31.values():
        total = np.add(total, _power(values, scratch), out=out)
    return total


def _power(values, out=None):
    """|values|^2, into ``out`` if given, computed as ``np.abs(values) ** 2`` computes it."""
    power = np.abs(values, out=out)
    power **= 2
    return power


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


def principal_phase(values, out=None) -> np.ndarray:
    """Phase as a principal value in (-pi, pi] (no unwrapping), into ``out`` if given."""
    # np.angle's arctan2, into an array even for a scalar
    phase = np.arctan2(np.imag(values), np.real(values), out=np.empty(np.shape(values)) if out is None else out)
    np.copyto(phase, np.pi, where=phase == -np.pi)
    return phase


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, or every CPU where there is no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    resolved once (:func:`_resolve_field_maps`): a failing field map raises
    the first failing (field, mode)'s error, still before any kernel work.
    The kernel runs on blocks of bias fields (see ``_SWEEP_CELLS``), spread
    round-robin over min(CPUs this process may run on, blocks) worker
    threads. Each worker fills one set of kernel buffers per call, so the
    temporaries stay bounded by workers x block and not the grid, and writes
    each block into its own rows of the result. Every value equals the
    one-field evaluation bit for bit, whatever the worker count. An
    exception raised in a block reaches the caller once every worker has
    stopped.
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
    # each writes a block's values into `out`; `t` and `s31` are buffers it may overwrite
    reduce = {
        "s21_power": lambda t, s31, out, real: _power(t, out),
        "s11_power": lambda t, s31, out, real: _power(np.add(1.0, t, out=t), out),
        "eta": lambda t, s31, out, real: eta_from_amplitudes(s31, out, real),
        "s21_phase": lambda t, s31, out, real: principal_phase(t, out),
        "s31_phase": lambda t, s31, out, real: principal_phase(s31[label], out),
    }[observable]

    f_ms = _resolve_field_maps(system, B_grid)  # before any kernel work
    values = np.empty((B_grid.size, f_grid.size))
    rows = min(max(1, _SWEEP_CELLS // f_grid.size), B_grid.size)
    starts = range(0, B_grid.size, rows)

    def run_blocks(share):
        buffers = KernelBuffers.empty((rows, f_grid.size), len(system.modes))
        with np.errstate(all="ignore"):  # a value that overflows is SweepMap's DomainError, not a warning
            for start in share:
                stop = min(start + rows, B_grid.size)
                out = buffers.head(stop - start)
                # f at the block's full shape: one frequency point per output cell
                f_block = np.broadcast_to(f_grid, (stop - start, f_grid.size))
                d, chis = shared_denominator(f_block, system, f_ms[:, start:stop, None], out=out)
                t, s31 = amplitudes_from_denominator(d, chis, system, reads, out=out)
                reduce(t, s31, values[start:stop], out.real)

    # imported here so that importing the package does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    workers = min(_cpu_count(), len(starts))
    with ThreadPoolExecutor(workers) as pool:  # leaving the block joins every worker
        for share in [pool.submit(run_blocks, starts[k::workers]) for k in range(workers)]:
            share.result()
    return SweepMap(B_grid, f_grid, values, observable)
