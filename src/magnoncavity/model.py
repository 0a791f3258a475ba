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


# Every scalar rule of the parameter types, written once: each value must be
# finite, then > 0 ("positive") or >= 0 ("non-negative") where it is listed.
# The constructors check their fields by the rule lists below, and a fit
# checks each trial's free values by the same lists (see fitting).
_SIGNS = {
    "f_c": "positive", "kappa_e": "positive", "kappa_i": "non-negative",
    "g": "non-negative", "gamma": "positive", "delta": "non-negative", "beta": "positive",
    "frequency": "positive",  # a fixed field map's
    "mu0_Ms": "positive", "gamma_e": "positive", "diameter": "positive",
    "wavelength": "positive", "power": "non-negative",
}
_TESTS = {"finite": math.isfinite, "positive": lambda value: value > 0, "non-negative": lambda value: value >= 0}
# the texts that differ from "<name> must be <rule>": those of a fixed field map name the map
_TEXTS = {
    ("frequency", "finite"): "fixed field map requires a finite frequency",
    ("frequency", "positive"): "fixed mode frequency must be positive",
}


def _value_rules(names) -> list:
    """``(name, test, error text)`` of each rule of one object's fields ``names``, in the order its constructor checks.

    Each name's finiteness comes first, then each listed name's sign rule,
    both in the order of ``names``. A value breaks a rule where ``test(value)`` is false.
    """
    rules = [(name, "finite") for name in names] + [(name, _SIGNS[name]) for name in names if name in _SIGNS]
    return [(name, _TESTS[rule], _TEXTS.get((name, rule), f"{name} must be {rule}")) for name, rule in rules]


def _check(obj, rules) -> None:
    """Raise the ValueError of the first of ``rules`` (see :func:`_value_rules`) that a field of ``obj`` breaks."""
    for name, test, text in rules:
        if not test(getattr(obj, name)):
            raise ValueError(text)


CAVITY_RULES = _value_rules(("f_c", "kappa_e", "kappa_i"))
FIXED_MAP_RULES = _value_rules(("frequency",))
MODE_RULES = _value_rules(("g", "gamma", "delta", "beta"))
MATERIAL_RULES = _value_rules(("mu0_Ms", "gamma_e", "verdet", "spin", "diameter", "xi"))
OPTICAL_RULES = _value_rules(("wavelength", "power"))


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
        _check(self, CAVITY_RULES)

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
      index families i = j or i = j + 1 with j >= 1 (requires ``i`` and ``j``,
      Python or numpy integers).
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
            if not all(isinstance(k, (int, np.integer)) for k in (self.i, self.j)):  # the Walker index rule's text
                raise ValueError(f"mode indices must be integers, got ({self.i}, {self.j})")
            if self.j < 1 or self.i not in (self.j, self.j + 1):
                raise ValueError(f"walker field map needs j >= 1 and i in (j, j + 1), got ({self.i}, {self.j})")
        if self.kind == "fixed":
            if self.frequency is None:
                raise ValueError(_TEXTS["frequency", "finite"])
            _check(self, FIXED_MAP_RULES)


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
        _check(self, MODE_RULES)


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
        _check(self, MATERIAL_RULES)
        if not 0 < self.xi <= 1:
            raise ValueError("xi must lie in (0, 1]")


@dataclass(frozen=True)
class OpticalDrive:
    """Traveling optical probe: vacuum wavelength [m] and power at the sample [W]."""

    wavelength: float = 1.55e-6
    power: float = 15e-3

    def __post_init__(self):
        _check(self, OPTICAL_RULES)


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


def susceptibility_magnon(f, mode: MagnonMode, f_m, out=None):
    """Complex magnon susceptibility chi_m = 1 / ((f - f_m) + i*gamma) [1/Hz]: the amplitude kernel's chi_m.

    ``f_m`` is the mode frequency already resolved at the bias field of
    interest, broadcasting against ``f``. Arithmetic only: the caller owns
    the finiteness of ``f`` and ``f_m``, and for finite ones the value is
    finite because gamma > 0. ``out``, a complex array of the broadcast
    shape, takes chi_m. The denominator is one complex subtraction,
    f - (f_m - i*gamma): its real part is f - f_m and its imaginary part
    0 - (-gamma) = gamma exactly.
    """
    return np.divide(1.0, np.subtract(f, f_m - 1j * mode.gamma, out=out), out=out)
