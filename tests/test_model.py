import dataclasses

import numpy as np
import pytest

import magnoncavity as mc

from conftest import ASSEMBLIES, CAVITY


def test_kappa_t_is_always_the_sum():
    cav = mc.CavityParams(f_c=10.632e9, kappa_e=2.1e6, kappa_i=0.6e6)
    assert cav.kappa_t == 2.7e6
    with pytest.raises(dataclasses.FrozenInstanceError):
        cav.kappa_e = 1.0


def test_cavity_susceptibility_on_resonance():
    chi = mc.susceptibility_cavity(CAVITY.f_c, CAVITY)
    assert chi == pytest.approx(-1j / 2.7e6, rel=1e-12)
    # direct evaluation with the reference cavity numbers
    assert chi.imag == pytest.approx(-3.7037037037037037e-7, rel=1e-12)
    assert chi.real == 0.0


def test_cavity_susceptibility_45_degree_point():
    chi = mc.susceptibility_cavity(CAVITY.f_c + CAVITY.kappa_t, CAVITY)
    assert chi == pytest.approx((1 - 1j) / (2 * CAVITY.kappa_t), rel=1e-12)


def test_magnon_susceptibility_on_resonance_and_decay():
    mode = mc.MagnonMode(label="m", g=28.6e6, gamma=2.3e6)
    f_m = 10.632e9
    chi = mc.susceptibility_magnon(f_m, mode, f_m)
    assert chi == pytest.approx(-1j * 4.3478260869565216e-7, rel=1e-12)
    # large-detuning decay
    assert abs(mc.susceptibility_magnon(f_m + 1e15, mode, f_m)) < 1e-14
    far = [abs(mc.susceptibility_magnon(f_m + df, mode, f_m)) for df in (1e9, 1e11, 1e13)]
    assert far == sorted(far, reverse=True)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_susceptibilities_reject_non_finite_frequency(bad):
    mode = mc.MagnonMode(label="m", g=1e6, gamma=1e6)
    with pytest.raises(ValueError):
        mc.susceptibility_cavity(bad, CAVITY)
    with pytest.raises(ValueError):
        mc.susceptibility_magnon(bad, mode, 1e9)
    with pytest.raises(ValueError):
        mc.susceptibility_magnon(1e9, mode, bad)


def test_dressing_factor_uncoupled_limit():
    mode = mc.MagnonMode(label="m", g=0.0, gamma=2.3e6)
    f = np.linspace(10.5e9, 10.8e9, 11)
    assert np.allclose(mc.dressing_factor(f, mode, 10.632e9, CAVITY), 1.0, rtol=0, atol=0)


def test_dressing_factor_triple_resonance_is_inverse_one_plus_cooperativity():
    a = ASSEMBLIES["0.45mm"]
    mode = mc.MagnonMode(label="m", g=a["g_K"], gamma=a["gamma_K"])
    t = mc.dressing_factor(CAVITY.f_c, mode, CAVITY.f_c, CAVITY)
    # substituting chi_c = -i/kappa_t and chi_m = -i/gamma gives 1/(1 + C)
    c = a["g_K"] ** 2 / (CAVITY.kappa_t * a["gamma_K"])
    assert t == pytest.approx(1.0 / (1.0 + c), rel=1e-12)
    assert abs(t) == pytest.approx(1.0 / 132.7165861513688, rel=1e-10)


def test_dressing_identity_holds_on_a_wide_grid():
    a = ASSEMBLIES["0.75mm"]
    mode = mc.MagnonMode(label="m", g=a["g_K"], gamma=a["gamma_K"])
    f = np.linspace(10.0e9, 11.3e9, 4001)
    f_m = 10.60e9
    chi_c = mc.susceptibility_cavity(f, CAVITY)
    chi_m = mc.susceptibility_magnon(f, mode, f_m)
    t = mc.dressing_factor(f, mode, f_m, CAVITY)
    lhs = 1.0 + mode.g**2 * chi_m * chi_c * t
    assert np.max(np.abs(lhs - t) / np.abs(t)) <= 1e-12


def test_dressing_factor_finite_everywhere_on_real_axis():
    # positive kappa_t and gamma keep 1/chi off the real axis, so no poles
    mode = mc.MagnonMode(label="m", g=91e6, gamma=0.95e6)
    f = np.linspace(1e9, 20e9, 20011)
    t = mc.dressing_factor(f, mode, CAVITY.f_c, CAVITY)
    assert np.all(np.isfinite(t))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(f_c=-1e9, kappa_e=1e6, kappa_i=0.0),
        dict(f_c=1e9, kappa_e=0.0, kappa_i=0.0),
        dict(f_c=1e9, kappa_e=-1e6, kappa_i=0.0),
        dict(f_c=1e9, kappa_e=1e6, kappa_i=-1.0),
        dict(f_c=float("nan"), kappa_e=1e6, kappa_i=0.0),
    ],
)
def test_cavity_params_validation(kwargs):
    with pytest.raises(ValueError):
        mc.CavityParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(g=-1.0, gamma=1e6),
        dict(g=1e6, gamma=0.0),
        dict(g=1e6, gamma=1e6, delta=-1.0),
        dict(g=1e6, gamma=1e6, beta=0.0),
    ],
)
def test_magnon_mode_validation(kwargs):
    with pytest.raises(ValueError):
        mc.MagnonMode(label="m", **kwargs)


def test_material_and_optical_validation():
    with pytest.raises(ValueError):
        mc.MaterialParams(xi=0.0)
    with pytest.raises(ValueError):
        mc.MaterialParams(xi=1.5)
    with pytest.raises(ValueError):
        mc.MaterialParams(mu0_Ms=-0.1)
    with pytest.raises(ValueError):
        mc.OpticalDrive(wavelength=0.0)
    with pytest.raises(ValueError):
        mc.OpticalDrive(power=-1e-3)
    # defaults are a valid YIG sphere in a 1550 nm beam
    assert mc.MaterialParams().spin == 2.5
    assert mc.OpticalDrive().wavelength == 1.55e-6


def test_system_rejects_duplicate_labels():
    m1 = mc.MagnonMode(label="m", g=1e6, gamma=1e6)
    m2 = mc.MagnonMode(label="m", g=2e6, gamma=1e6)
    with pytest.raises(ValueError):
        mc.HybridSystem(cavity=CAVITY, modes=(m1, m2))


def test_system_mode_lookup():
    m1 = mc.MagnonMode(label="a", g=1e6, gamma=1e6)
    sys_ = mc.HybridSystem(cavity=CAVITY, modes=(m1,))
    assert sys_.mode("a") is m1
    with pytest.raises(KeyError):
        sys_.mode("b")


def test_zero_mode_system_is_allowed():
    sys_ = mc.HybridSystem(cavity=CAVITY)
    assert sys_.modes == ()


def test_field_map_validation():
    with pytest.raises(ValueError):
        mc.FieldMap(kind="nope")
    with pytest.raises(ValueError):
        mc.FieldMap(kind="walker")  # indices required
    # only the closed-form families i = j and i = j + 1 with j >= 1
    for i, j in ((3, 0), (1, 0), (0, 0), (2, -1), (1, 2), (4, 2)):
        with pytest.raises(ValueError):
            mc.FieldMap(kind="walker", i=i, j=j)
    for i, j in ((1, 1), (2, 1), (3, 3), (4, 3)):
        assert mc.FieldMap(kind="walker", i=i, j=j).i == i
    with pytest.raises(ValueError):
        mc.FieldMap(kind="fixed")  # frequency required
    assert mc.FieldMap(kind="fixed", frequency=1e9).frequency == 1e9
