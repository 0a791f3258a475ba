"""Shared fixtures: reference parameter sets for the three sphere assemblies."""

import numpy as np
import pytest

import magnoncavity as mc

# Measured parameter sets (rates are /2pi values in Hz) for the three
# sphere diameters. delta values are the derived optical coupling rates;
# the 0.45 mm MSM entries are inequality bounds treated as values.
ASSEMBLIES = {
    "0.45mm": dict(
        diameter=0.45e-3,
        g_K=28.6e6, gamma_K=2.3e6, delta_K=3.61e-3,
        g_M=1.0e6, gamma_M=2.0e6, delta_M=2.95,
    ),
    "0.75mm": dict(
        diameter=0.75e-3,
        g_K=67.3e6, gamma_K=1.1e6, delta_K=1.80e-3,
        g_M=4.0e6, gamma_M=1.5e6, delta_M=0.512,
    ),
    "1.0mm": dict(
        diameter=1.0e-3,
        g_K=91.0e6, gamma_K=0.95e6, delta_K=1.75e-3,
        g_M=12.0e6, gamma_M=0.9e6, delta_M=0.101,
    ),
}

CAVITY = mc.CavityParams(f_c=10.632e9, kappa_e=2.1e6, kappa_i=0.6e6)
CAVITY_VOLUME = 20e-3 * 20e-3 * 4e-3  # m^3


@pytest.fixture
def cavity():
    return CAVITY


@pytest.fixture
def material():
    return mc.MaterialParams()


def kittel_system(name="0.45mm", delta=None, cavity=CAVITY):
    """Single Kittel-mode system from one assembly's measured values."""
    a = ASSEMBLIES[name]
    mode = mc.MagnonMode(
        label="kittel",
        g=a["g_K"],
        gamma=a["gamma_K"],
        delta=a["delta_K"] if delta is None else delta,
    )
    return mc.HybridSystem(
        cavity=cavity,
        modes=(mode,),
        material=mc.MaterialParams(diameter=a["diameter"]),
    )


def two_mode_system(name="0.75mm", f_K=None, f_M=None, cavity=CAVITY):
    """Kittel + one MSM. Fixed frequencies pin both modes (defaults: both at f_c)."""
    a = ASSEMBLIES[name]
    f_K = cavity.f_c if f_K is None else f_K
    f_M = cavity.f_c if f_M is None else f_M
    modes = (
        mc.MagnonMode(
            label="kittel", g=a["g_K"], gamma=a["gamma_K"], delta=a["delta_K"],
            field_map=mc.FieldMap(kind="fixed", frequency=f_K),
        ),
        mc.MagnonMode(
            label="msm", g=a["g_M"], gamma=a["gamma_M"], delta=a["delta_M"],
            field_map=mc.FieldMap(kind="fixed", frequency=f_M),
        ),
    )
    return mc.HybridSystem(cavity=cavity, modes=modes, material=mc.MaterialParams(diameter=a["diameter"]))


def cavity_susceptibility(f, cavity):
    """chi_c = 1 / ((f - f_c) + i*kappa_t), written out here rather than taken from the package."""
    return 1.0 / ((np.asarray(f, dtype=float) - cavity.f_c) + 1j * cavity.kappa_t)


def magnon_susceptibility(f, mode, f_m):
    """chi_m = 1 / ((f - f_m) + i*gamma_m), written out here rather than taken from the package."""
    return 1.0 / ((np.asarray(f, dtype=float) - f_m) + 1j * mode.gamma)


def hybrid_matrix(system, B):
    """H = [[f_c - i*kappa_t, g_1 ... g_M], [g_m, diag(f_m - i*gamma_m)]], with every f_m resolved at B.

    Written out here rather than taken from the package: det(f - H) / prod_m (f - f_m + i*gamma_m) is the
    kernel's shared denominator D(f), by the Schur complement of the modes' diagonal block.
    """
    n = len(system.modes) + 1
    h = np.zeros((n, n), dtype=complex)
    h[0, 0] = system.cavity.f_c - 1j * system.cavity.kappa_t
    for m, mode in enumerate(system.modes, 1):
        h[0, m] = h[m, 0] = mode.g
        h[m, m] = mc.mode_frequency(mode.field_map, B, system.material) - 1j * mode.gamma
    return h


def normal_modes(system, B):
    """The hybrid normal modes: the eigenvalues of :func:`hybrid_matrix`, in ascending order of their real parts.

    They are found for H - f_c and shifted back, so that their round-off scales with the detunings, couplings and
    rates rather than with f_c.
    """
    h, f_c = hybrid_matrix(system, B), system.cavity.f_c
    return np.sort_complex(np.linalg.eigvals(h - f_c * np.eye(len(h)))) + f_c


def two_mode_direct_conversion(f, system, B, label):
    """Independent oracle: the closed two-mode conversion coefficients.

    Written directly in terms of the dressing factors, exactly as the
    two-mode theory states them, without reusing the package's shared
    denominator shortcut.
    """
    assert len(system.modes) == 2
    this = system.mode(label)
    other = [m for m in system.modes if m.label != label][0]
    chi_c = cavity_susceptibility(f, system.cavity)
    chi_this = magnon_susceptibility(f, this, mc.mode_frequency(this.field_map, B, system.material))
    chi_other = magnon_susceptibility(f, other, mc.mode_frequency(other.field_map, B, system.material))
    t_other = 1.0 / (1.0 - other.g**2 * chi_other * chi_c)
    dressed = 1.0 + other.g**2 * chi_other * chi_c * t_other
    prefactor = -2.0 * np.sqrt(this.beta * this.delta * system.cavity.kappa_e)
    numerator = this.g * chi_this * chi_c * dressed
    return prefactor * numerator / (1.0 - this.g**2 * chi_this * chi_c * dressed)


def scaled_system(system, lam):
    """Scale every rate of a fixed-frequency system by lam (unit-scale helper)."""
    cavity = mc.CavityParams(
        f_c=system.cavity.f_c * lam,
        kappa_e=system.cavity.kappa_e * lam,
        kappa_i=system.cavity.kappa_i * lam,
    )
    modes = []
    for m in system.modes:
        assert m.field_map.kind == "fixed"
        modes.append(
            mc.MagnonMode(
                label=m.label, g=m.g * lam, gamma=m.gamma * lam,
                delta=m.delta * lam, beta=m.beta,
                field_map=mc.FieldMap(kind="fixed", frequency=m.field_map.frequency * lam),
            )
        )
    return mc.HybridSystem(cavity=cavity, modes=tuple(modes), material=system.material)
