"""Derived system parameters and size-scaling fits.

Chains the measured coupling strengths and linewidths of a sphere-cavity
assembly into the quantities that determine its microwave-to-optical
conversion efficiency: single-spin coupling, net spin count, spin
density, Faraday coefficient, optical coupling rate, and cooperativity.
Also fits the empirical size-scaling laws of those quantities across
sphere diameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import C_LIGHT, H_PLANCK, HBAR, MU0
from .model import CavityParams, MaterialParams, OpticalDrive

SCALING_MODELS = {
    # model name -> exponents of x = sqrt(sphere volume in mm^3) per coefficient
    "linear_in_sqrtV": (1,),
    "quadratic_in_sqrtV": (2,),
    "quartic_in_sqrtV": (4,),
    "offset_plus_inverse": (0, -1),
    "inverse_square": (-2,),
}


@dataclass(frozen=True)
class DerivedParams:
    """Derived quantities for one magnon mode of one assembly.

    All rates are /2pi values in Hz; volumes in m^3, densities in m^-3,
    the Faraday coefficient in m^2.
    """

    g_B: float
    N: float
    C: float
    V_m: float
    n: float
    G: float
    delta: float

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")


@dataclass(frozen=True)
class ScalingFitResult:
    """Least-squares fit of one scaling law over (diameter, value) points."""

    model: str
    coefficients: tuple[float, ...]
    included_points: tuple[bool, ...]
    rms_residual: float

    def __post_init__(self):
        if self.model not in SCALING_MODELS:
            raise ValueError(f"unknown scaling model {self.model!r}")
        if len(self.coefficients) != len(SCALING_MODELS[self.model]):
            raise ValueError("coefficient count does not match the model")

    def predict(self, diameter: float) -> float:
        x = sqrt_volume_mm(diameter)
        return sum(c * x**p for c, p in zip(self.coefficients, SCALING_MODELS[self.model]))


def single_spin_coupling(cavity: CavityParams, material: MaterialParams, V_c: float) -> float:
    """Coupling of a single Bohr magneton to the cavity mode, as a /2pi value [Hz].

    g_B = (xi * gamma / 2) * sqrt(hbar * omega_c * mu0 / V_c), evaluated
    with the angular gyromagnetic ratio and omega_c = 2pi*f_c, then
    reported divided by 2pi like every other rate.
    """
    if V_c <= 0:
        raise ValueError("cavity volume must be positive")
    omega_c = 2.0 * math.pi * cavity.f_c
    return material.xi * material.gamma_e / 2.0 * math.sqrt(HBAR * omega_c * MU0 / V_c)


def spins_from_coupling(g: float, g_B: float, s: float) -> float:
    """Net spin count N = (g/g_B)^2 / (2s) of the collective coupling g = g_B * sqrt(2*N*s)."""
    if g_B <= 0:
        raise ValueError("g_B must be positive")
    if s <= 0:
        raise ValueError("spin number must be positive")
    return (g / g_B) ** 2 / (2.0 * s)


def cooperativity(g: float, kappa_t: float, gamma: float) -> float:
    """C = g^2 / (kappa_t * gamma)."""
    if kappa_t <= 0 or gamma <= 0:
        raise ValueError("kappa_t and gamma must be positive")
    return g * g / (kappa_t * gamma)


def mode_volume_and_density(diameter: float, N: float) -> tuple[float, float]:
    """Sphere volume V_m = (4/3) pi (d/2)^3 and spin density n = N / V_m."""
    if diameter <= 0:
        raise ValueError("diameter must be positive")
    V_m = 4.0 / 3.0 * math.pi * (diameter / 2.0) ** 3
    return V_m, N / V_m


def faraday_coefficient(verdet: float, n: float) -> float:
    """Faraday coefficient G = 4 * verdet / n [m^2] of a mode with spin density n."""
    if n <= 0:
        raise ValueError("spin density must be positive")
    return 4.0 * verdet / n


def photon_flux(optical: OpticalDrive) -> float:
    """Optical photon flux P0 / (hbar * Omega0) = P0 * lambda / (h c) [1/s]."""
    return optical.power * optical.wavelength / (H_PLANCK * C_LIGHT)


def optical_coupling_rate(G: float, l: float, V_m: float, n: float, optical: OpticalDrive) -> float:
    """Optical photon-magnon coupling rate, as a /2pi value [Hz].

    delta = G^2 l^2 / (16 V_m) * n * P0/(hbar*Omega0), divided by 2pi so
    the result lands on the same /2pi footing as every other tabulated
    rate (the raw expression is an angular rate).
    """
    if G < 0 or l <= 0 or V_m <= 0 or n <= 0:
        raise ValueError("G must be non-negative and l, V_m, n positive")
    raw = G * G * l * l / (16.0 * V_m) * n * photon_flux(optical)
    return raw / (2.0 * math.pi)


def derive_mode_params(
    g: float,
    gamma: float,
    cavity: CavityParams,
    material: MaterialParams,
    optical: OpticalDrive,
    V_c: float,
    g_B: float | None = None,
) -> DerivedParams:
    """Full pipeline from a measured (g, gamma) to the derived Table of one mode.

    ``g_B`` may be supplied to override the value computed from the
    cavity geometry (useful when comparing against an externally quoted
    single-spin coupling). The optical path length is taken equal to the
    sphere diameter.
    """
    if g_B is None:
        g_B = single_spin_coupling(cavity, material, V_c)
    N = spins_from_coupling(g, g_B, material.spin)
    V_m, n = mode_volume_and_density(material.diameter, N)
    G = faraday_coefficient(material.verdet, n)
    delta = optical_coupling_rate(G, material.diameter, V_m, n, optical)
    C = cooperativity(g, cavity.kappa_t, gamma)
    return DerivedParams(g_B=g_B, N=N, C=C, V_m=V_m, n=n, G=G, delta=delta)


def sqrt_volume_mm(diameter: float) -> float:
    """x-coordinate of the scaling fits: sqrt of the sphere volume in mm^3."""
    if diameter <= 0:
        raise ValueError("diameter must be positive")
    d_mm = diameter * 1e3
    return math.sqrt(4.0 / 3.0 * math.pi * (d_mm / 2.0) ** 3)


def fit_scaling_laws(points, model: str, include=None) -> ScalingFitResult:
    """Least-squares fit of one scaling law to (diameter [m], value) points.

    ``include`` optionally masks points out of the fit (they are still
    recorded in the result); values carry whatever unit the caller uses,
    so the coefficients inherit it. Every point, masked or not, must be
    finite and have a positive diameter.
    """
    if model not in SCALING_MODELS:
        raise ValueError(f"unknown scaling model {model!r}; choose from {sorted(SCALING_MODELS)}")
    points = list(points)
    for k, (diameter, value) in enumerate(points):
        if not (math.isfinite(diameter) and math.isfinite(value)):
            raise ValueError(f"point {k}: diameter and value must be finite, got ({diameter}, {value})")
        if diameter <= 0:
            raise ValueError(f"point {k}: diameter must be positive, got {diameter}")
    if include is None:
        include = [True] * len(points)
    include = [bool(v) for v in include]
    if len(include) != len(points):
        raise ValueError("include mask length must match the number of points")
    used = [(d, v) for (d, v), keep in zip(points, include) if keep]
    powers = SCALING_MODELS[model]
    if len(used) < len(powers):
        raise ValueError(f"model {model!r} needs at least {len(powers)} points, got {len(used)}")

    x = np.array([sqrt_volume_mm(d) for d, _ in used])
    y = np.array([v for _, v in used], dtype=float)
    design = np.column_stack([x**p for p in powers])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = design @ coef - y
    rms = float(np.sqrt(np.mean(residual**2)))
    return ScalingFitResult(
        model=model,
        coefficients=tuple(float(c) for c in coef),
        included_points=tuple(include),
        rms_residual=rms,
    )
