"""Parameter types and response functions for the magnon-cavity hybrid model.

Unit convention: every rate-like quantity (resonance frequencies, loss
rates, linewidths, coupling strengths) is stored as an ordinary frequency
nu = omega/2pi in Hz. All scattering quantities built on these rates are
homogeneous of degree zero, so evaluating them with nu-values yields the
same dimensionless S-parameters as angular-frequency values would.
Magnetic fields are flux densities in tesla, lengths in meters, powers
in watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _require_finite(name: str, value) -> None:
    """Reject a non-finite scalar; ``math.isfinite`` because fits rebuild parameters on every trial."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class CavityParams:
    """Microwave cavity mode: resonance frequency and loss rates.

    Parameters
    ----------
    f_c : float
        Resonance frequency [Hz].
    kappa_e : float
        External (port) coupling rate [Hz].
    kappa_i : float
        Internal loss rate [Hz].
    """

    f_c: float
    kappa_e: float
    kappa_i: float

    def __post_init__(self):
        for name in ("f_c", "kappa_e", "kappa_i"):
            _require_finite(name, getattr(self, name))
        if self.f_c <= 0:
            raise ValueError("f_c must be positive")
        if self.kappa_e <= 0:
            raise ValueError("kappa_e must be positive")
        if self.kappa_i < 0:
            raise ValueError("kappa_i must be non-negative")

    @property
    def kappa_t(self) -> float:
        """Total loss rate, always the sum of external and internal rates."""
        return self.kappa_e + self.kappa_i


@dataclass(frozen=True)
class FieldMap:
    """Rule mapping an external bias flux density B [T] to a mode frequency.

    ``kind`` selects the rule:

    * ``"kittel"`` -- uniform-precession mode, linear in B.
    * ``"walker"`` -- closed-form magnetostatic-mode frequency for the
      index families i = j or i = j + 1 with j >= 1 (requires ``i`` and ``j``).
    * ``"msm20"`` -- the (2,0) magnetostatic mode closed form.
    * ``"fixed"`` -- constant frequency, independent of B (requires
      ``frequency``).

    Evaluation lives in :mod:`magnoncavity.magnetostatics`.
    """

    kind: str = "kittel"
    i: int | None = None
    j: int | None = None
    frequency: float | None = None

    def __post_init__(self):
        if self.kind not in ("kittel", "walker", "msm20", "fixed"):
            raise ValueError(f"unknown field map kind {self.kind!r}")
        if self.kind == "walker":
            if self.i is None or self.j is None:
                raise ValueError("walker field map requires indices i, j")
            if self.j < 1 or self.i not in (self.j, self.j + 1):
                raise ValueError(f"walker field map needs j >= 1 and i in (j, j + 1), got ({self.i}, {self.j})")
        if self.kind == "fixed":
            if self.frequency is None or not math.isfinite(self.frequency):
                raise ValueError("fixed field map requires a finite frequency")
            if self.frequency <= 0:
                raise ValueError("fixed mode frequency must be positive")


@dataclass(frozen=True)
class MagnonMode:
    """One collective spin mode coupled to the cavity.

    Parameters
    ----------
    label : str
        Unique identifier within a system.
    g : float
        Magnon-photon coupling strength [Hz].
    gamma : float
        Magnon linewidth [Hz].
    delta : float
        Optical photon-magnon coupling rate [Hz]; zero disables conversion.
    beta : float
        Dimensionless amplification factor absorbed into the conversion
        coefficient (detection-chain gain); defaults to 1.
    field_map : FieldMap
        Bias-field-to-frequency rule.
    """

    label: str
    g: float
    gamma: float
    delta: float = 0.0
    beta: float = 1.0
    field_map: FieldMap = field(default_factory=FieldMap)

    def __post_init__(self):
        if not self.label:
            raise ValueError("mode label must be non-empty")
        for name in ("g", "gamma", "delta", "beta"):
            _require_finite(name, getattr(self, name))
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class MaterialParams:
    """Magnetic-sphere material constants.

    mu0_Ms is the saturation magnetization expressed as a flux density [T],
    gamma_e the gyromagnetic ratio [Hz/T], verdet the Verdet constant
    [rad/m], spin the spin quantum number per site, diameter the sphere
    diameter [m], and xi the dimensionless spatial-overlap coefficient
    between the cavity field and the spin mode (0 < xi <= 1).
    """

    mu0_Ms: float = 0.178
    gamma_e: float = 28.0e9
    verdet: float = 380.0
    spin: float = 2.5
    diameter: float = 0.45e-3
    xi: float = 1.0

    def __post_init__(self):
        for name in ("mu0_Ms", "gamma_e", "verdet", "spin", "diameter", "xi"):
            _require_finite(name, getattr(self, name))
        if self.mu0_Ms <= 0:
            raise ValueError("mu0_Ms must be positive")
        if self.gamma_e <= 0:
            raise ValueError("gamma_e must be positive")
        if self.diameter <= 0:
            raise ValueError("diameter must be positive")
        if not 0 < self.xi <= 1:
            raise ValueError("xi must lie in (0, 1]")


@dataclass(frozen=True)
class OpticalDrive:
    """Traveling optical probe: vacuum wavelength [m] and power at the sample [W]."""

    wavelength: float = 1.55e-6
    power: float = 15e-3

    def __post_init__(self):
        _require_finite("wavelength", self.wavelength)
        _require_finite("power", self.power)
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.power < 0:
            raise ValueError("power must be non-negative")


@dataclass(frozen=True)
class HybridSystem:
    """A cavity, its magnon modes, and the material/optical context.

    Zero modes are allowed (bare-cavity spectra); conversion operations
    require at least one mode. Mode labels must be unique.
    """

    cavity: CavityParams
    modes: tuple[MagnonMode, ...] = ()
    material: MaterialParams = field(default_factory=MaterialParams)
    optical: OpticalDrive = field(default_factory=OpticalDrive)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"mode labels must be unique, got {labels}")

    def mode(self, label: str) -> MagnonMode:
        for m in self.modes:
            if m.label == label:
                return m
        raise KeyError(f"no mode labeled {label!r}")


def susceptibility_magnon(f, mode: MagnonMode, f_m, out=None, scratch=None):
    """Complex magnon susceptibility chi_m = 1 / ((f - f_m) + i*gamma) [1/Hz]: the amplitude kernel's chi_m.

    ``f_m`` is the mode frequency already resolved at the bias field of
    interest, broadcasting against ``f``. Arithmetic only: the caller owns
    the finiteness of ``f`` and ``f_m``, and for finite ones the value is
    finite because gamma > 0. ``out``, a complex array of the broadcast
    shape, takes chi_m, and ``scratch``, a real one, f - f_m.
    """
    return np.divide(1.0, np.add(np.subtract(f, f_m, out=scratch), 1j * mode.gamma, out=out), out=out)
