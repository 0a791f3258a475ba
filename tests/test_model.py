import dataclasses

import numpy as np
import pytest

import magnoncavity as mc
from magnoncavity.model import susceptibility_magnon
from magnoncavity.scattering import shared_denominator

from conftest import ASSEMBLIES, CAVITY, cavity_susceptibility, magnon_susceptibility

BARE = mc.HybridSystem(cavity=CAVITY)


def one_mode_system(g, gamma, f_m):
    mode = mc.MagnonMode(label="m", g=g, gamma=gamma, field_map=mc.FieldMap(kind="fixed", frequency=f_m))
    return mc.HybridSystem(cavity=CAVITY, modes=(mode,))


def test_kappa_t_is_always_the_sum():
    cav = mc.CavityParams(f_c=10.632e9, kappa_e=2.1e6, kappa_i=0.6e6)
    assert cav.kappa_t == 2.7e6
    with pytest.raises(dataclasses.FrozenInstanceError):
        cav.kappa_e = 1.0


def test_cavity_susceptibility_on_resonance():
    # the kernel's denominator of a bare cavity is 1/chi_c
    d, _ = shared_denominator(CAVITY.f_c, BARE, [])
    chi = 1.0 / complex(d)
    assert chi == pytest.approx(-1j / 2.7e6, rel=1e-12)
    # direct evaluation with the reference cavity numbers
    assert chi.imag == pytest.approx(-3.7037037037037037e-7, rel=1e-12)
    assert chi.real == 0.0


def test_cavity_susceptibility_45_degree_point():
    d, _ = shared_denominator(CAVITY.f_c + CAVITY.kappa_t, BARE, [])
    assert 1.0 / complex(d) == pytest.approx((1 - 1j) / (2 * CAVITY.kappa_t), rel=1e-12)


def test_magnon_susceptibility_on_resonance_and_decay():
    mode = mc.MagnonMode(label="m", g=28.6e6, gamma=2.3e6)
    f_m = 10.632e9
    chi = susceptibility_magnon(f_m, mode, f_m)
    assert chi == pytest.approx(-1j * 4.3478260869565216e-7, rel=1e-12)
    # large-detuning decay
    assert abs(susceptibility_magnon(f_m + 1e15, mode, f_m)) < 1e-14
    far = [abs(susceptibility_magnon(f_m + df, mode, f_m)) for df in (1e9, 1e11, 1e13)]
    assert far == sorted(far, reverse=True)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_the_one_field_calls_reject_a_non_finite_frequency(bad):
    # the kernel trusts f: the one-field calls check it once, after the field maps
    f = np.array([1e9, bad])
    fixed = one_mode_system(1e6, 1e6, 1e9)
    for system in (BARE, fixed):
        for call in (mc.amplitudes, mc.s21, mc.s11):
            with pytest.raises(ValueError, match="^f must be finite$"):
                call(f, system)
    with pytest.raises(ValueError, match="^f must be finite$"):
        mc.eta_spectrum(bad, fixed)
    with pytest.raises(ValueError, match="^f must be finite$"):
        mc.s31_mode(f, fixed, 0.0, "m")
    # where the field map fails as well, its error comes first
    kittel = mc.HybridSystem(cavity=CAVITY, modes=(mc.MagnonMode(label="m", g=1e6, gamma=1e6),))
    with pytest.raises(ValueError, match="^B_ext must be finite$"):
        mc.amplitudes(f, kittel, bad)
    with pytest.raises(ValueError, match="^f_m must be finite$"):  # gamma_e * B overflows
        mc.s21(f, kittel, 1e300)


def test_the_one_field_calls_reject_a_complex_frequency():
    # a float cast would keep 10.6 GHz of 10.6 GHz + 5 MHz j, and warn only
    f = np.array([10.6e9 + 5e6j])
    kittel = mc.HybridSystem(cavity=CAVITY, modes=(mc.MagnonMode(label="m", g=1e6, gamma=1e6),))
    for call in (mc.amplitudes, mc.s21, mc.s11):
        with pytest.raises(ValueError, match="^f must be real$"):
            call(f, kittel, 0.38)
    with pytest.raises(ValueError, match="^f must be real$"):
        mc.s21(10.6e9 + 0j, kittel, 0.38)


def test_the_kernel_chi_is_susceptibility_magnon():
    # one chi_m formula: the kernel's chi_m are susceptibility_magnon's bits, with or without buffers
    system = one_mode_system(28.6e6, 2.3e6, 10.632e9)
    f = np.linspace(10.5e9, 10.8e9, 31)
    _, (chi,) = shared_denominator(f, system, [10.632e9])
    assert chi.tobytes() == susceptibility_magnon(f, system.modes[0], 10.632e9).tobytes()
    out, scratch = np.empty(31, complex), np.empty(31)
    assert susceptibility_magnon(f, system.modes[0], 10.632e9, out, scratch) is out
    assert out.tobytes() == chi.tobytes()
    assert np.array_equal(scratch, f - 10.632e9)


def test_dressing_factor_uncoupled_limit():
    # a mode with g = 0 leaves the kernel's transmission that of the bare cavity, bit for bit
    f = np.linspace(10.5e9, 10.8e9, 11)
    uncoupled = one_mode_system(0.0, 2.3e6, 10.632e9)
    assert np.array_equal(mc.s21(f, uncoupled), mc.s21(f, BARE))


def test_dressing_factor_triple_resonance_is_inverse_one_plus_cooperativity():
    a = ASSEMBLIES["0.45mm"]
    coupled = one_mode_system(a["g_K"], a["gamma_K"], CAVITY.f_c)
    t = complex(mc.s21(CAVITY.f_c, coupled) / mc.s21(CAVITY.f_c, BARE))
    # substituting chi_c = -i/kappa_t and chi_m = -i/gamma gives 1/(1 + C)
    c = a["g_K"] ** 2 / (CAVITY.kappa_t * a["gamma_K"])
    assert t == pytest.approx(1.0 / (1.0 + c), rel=1e-12)
    assert abs(t) == pytest.approx(1.0 / 132.7165861513688, rel=1e-10)


def test_dressing_identity_holds_on_a_wide_grid():
    # S21 = -2i*kappa_e*chi_c*T with T = 1/(1 - g^2*chi_m*chi_c), and T = 1 + g^2*chi_m*chi_c*T
    a = ASSEMBLIES["0.75mm"]
    f = np.linspace(10.0e9, 11.3e9, 4001)
    f_m = 10.60e9
    coupled = one_mode_system(a["g_K"], a["gamma_K"], f_m)
    chi_c = cavity_susceptibility(f, CAVITY)
    chi_m = magnon_susceptibility(f, coupled.modes[0], f_m)
    t = 1.0 / (1.0 - a["g_K"] ** 2 * chi_m * chi_c)
    lhs = 1.0 + a["g_K"] ** 2 * chi_m * chi_c * t
    assert np.max(np.abs(lhs - t) / np.abs(t)) <= 1e-12
    expected = -2j * CAVITY.kappa_e * chi_c * t
    assert np.max(np.abs(mc.s21(f, coupled) - expected) / np.abs(expected)) <= 1e-12


def test_dressing_factor_finite_everywhere_on_real_axis():
    # positive kappa_t and gamma keep D off zero on the real axis, so no poles
    f = np.linspace(1e9, 20e9, 20011)
    s21, s31 = mc.amplitudes(f, one_mode_system(91e6, 0.95e6, CAVITY.f_c))
    assert np.all(np.isfinite(s21))
    assert np.all(np.isfinite(s31["m"]))


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


@pytest.mark.parametrize("i, j", [(2.5, 1.5), (2.0, 1), (2, 1.0), (np.float64(3.0), np.int64(2))])
def test_walker_field_map_rejects_non_integer_indices_with_the_index_rule_text(i, j):
    with pytest.raises(ValueError) as field_map:
        mc.FieldMap(kind="walker", i=i, j=j)
    with pytest.raises(ValueError) as rule:
        mc.magnetostatics.check_mode_indices(i, j)
    assert str(field_map.value) == str(rule.value) == f"mode indices must be integers, got ({i}, {j})"
    assert mc.closed_form_map(i, j) is None


@pytest.mark.parametrize("i, j", [(2, 1), (np.int64(2), np.int32(1)), (np.uint8(2), 1)])
def test_walker_field_map_takes_python_and_numpy_integers(i, j):
    field_map = mc.FieldMap(kind="walker", i=i, j=j)
    material = mc.MaterialParams()
    assert mc.mode_frequency(field_map, 0.3, material) == mc.mode_frequency(mc.FieldMap("walker", 2, 1), 0.3, material)
