import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import magnoncavity as mc

from conftest import (
    ASSEMBLIES,
    CAVITY,
    hybrid_matrix,
    kittel_system,
    magnon_susceptibility,
    normal_modes,
    scaled_system,
    saturation_pattern,
    two_mode_direct_conversion,
    two_mode_system,
)


class TestTransmission:
    def test_bare_cavity_resonance_is_real_negative(self):
        sys_ = mc.HybridSystem(cavity=CAVITY)
        value = complex(mc.s21(CAVITY.f_c, sys_))
        assert value == pytest.approx(-2 * CAVITY.kappa_e / CAVITY.kappa_t, rel=1e-12)
        # the stated formula puts the bare peak above unity for these rates
        assert abs(value) == pytest.approx(2 * 2.1 / 2.7, rel=1e-12)

    def test_far_detuning_decays(self):
        sys_ = kittel_system("0.45mm")
        B = mc.field_for_frequency(CAVITY.f_c, sys_.material)
        assert abs(mc.s21(CAVITY.f_c + 1e12, sys_, B)) < 1e-5
        assert abs(mc.s21(CAVITY.f_c + 1e14, sys_, B)) < 1e-7

    def test_single_mode_triple_resonance_magnitude(self):
        a = ASSEMBLIES["0.45mm"]
        sys_ = two_mode_system("0.45mm")
        sys_ = mc.HybridSystem(cavity=CAVITY, modes=sys_.modes[:1], material=sys_.material)
        c = a["g_K"] ** 2 / (CAVITY.kappa_t * a["gamma_K"])
        expected = 2 * CAVITY.kappa_e / (CAVITY.kappa_t * (1 + c))
        assert abs(mc.s21(CAVITY.f_c, sys_, 0.0)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.1721e-2, rel=1e-3)

    def test_non_finite_frequency_rejected(self):
        sys_ = mc.HybridSystem(cavity=CAVITY)
        with pytest.raises(ValueError):
            mc.s21(float("nan"), sys_)


class TestReflection:
    def test_weak_port_reflects_everything(self):
        cav = mc.CavityParams(f_c=10.632e9, kappa_e=1.0, kappa_i=0.6e6)
        sys_ = mc.HybridSystem(cavity=cav)
        f = np.linspace(cav.f_c - 50e6, cav.f_c + 50e6, 101)
        assert np.max(np.abs(mc.s11(f, sys_) - 1.0)) < 1e-4

    def test_critically_coupled_phase_flip(self):
        cav = mc.CavityParams(f_c=10.632e9, kappa_e=2.1e6, kappa_i=0.0)
        sys_ = mc.HybridSystem(cavity=cav)
        assert complex(mc.s11(cav.f_c, sys_)) == pytest.approx(-1.0, rel=1e-12)

    def test_single_mode_triple_resonance_value(self):
        a = ASSEMBLIES["0.45mm"]
        sys_ = two_mode_system("0.45mm")
        sys_ = mc.HybridSystem(cavity=CAVITY, modes=sys_.modes[:1], material=sys_.material)
        c = a["g_K"] ** 2 / (CAVITY.kappa_t * a["gamma_K"])
        expected = 1 - 2 * CAVITY.kappa_e / (CAVITY.kappa_t * (1 + c))
        value = complex(mc.s11(CAVITY.f_c, sys_, 0.0))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value.real == pytest.approx(0.98828, abs=5e-5)

    def test_shares_denominator_with_transmission(self):
        # s11 = 1 - i*2*kappa_e/D and s21 = -i*2*kappa_e/D, so s11 = 1 + s21
        sys_ = two_mode_system("1.0mm", f_M=CAVITY.f_c + 40e6)
        f = np.linspace(10.4e9, 10.9e9, 501)
        np.testing.assert_array_equal(mc.s11(f, sys_), 1.0 + mc.s21(f, sys_))


class TestConversion:
    def test_zero_optical_coupling_means_zero_conversion(self):
        sys_ = kittel_system("0.45mm", delta=0.0)
        f = np.linspace(10.5e9, 10.8e9, 101)
        B = mc.field_for_frequency(CAVITY.f_c, sys_.material)
        assert np.all(mc.s31_mode(f, sys_, B, "kittel") == 0)

    def test_unknown_label_rejected(self):
        sys_ = kittel_system()
        with pytest.raises(KeyError):
            mc.s31_mode(10.6e9, sys_, 0.38, "ghost")

    def test_two_mode_coefficients_match_direct_closed_form(self):
        """The shared-denominator form against the dressed two-mode expressions."""
        sys_ = two_mode_system("0.75mm", f_K=CAVITY.f_c, f_M=CAVITY.f_c + 55e6)
        f = np.linspace(CAVITY.f_c - 300e6, CAVITY.f_c + 300e6, 2001)
        for label in ("kittel", "msm"):
            direct = two_mode_direct_conversion(f, sys_, 0.0, label)
            ours = mc.s31_mode(f, sys_, 0.0, label)
            assert np.max(np.abs(ours - direct) / np.abs(direct)) <= 1e-12

    def test_single_mode_resonant_power_equals_closed_form(self):
        sys_ = kittel_system("0.45mm")
        B = mc.field_for_frequency(CAVITY.f_c, sys_.material)
        power = abs(mc.s31_mode(CAVITY.f_c, sys_, B, "kittel")) ** 2
        closed = mc.eta_resonant(sys_)
        assert power == pytest.approx(closed, rel=1e-10)
        assert closed == pytest.approx(3.6516e-11, rel=1e-3)

    def test_eta_is_sum_of_mode_conversion_powers(self):
        sys_ = two_mode_system("0.75mm", f_M=CAVITY.f_c + 55e6)
        f = np.linspace(10.55e9, 10.7e9, 301)
        total = 0.0
        for mode in sys_.modes:
            total = total + np.abs(mc.s31_mode(f, sys_, 0.0, mode.label)) ** 2
        np.testing.assert_array_equal(mc.eta_spectrum(f, sys_, 0.0), total)

    def test_kernel_returns_transmission_and_every_mode(self):
        sys_ = two_mode_system("0.75mm", f_M=CAVITY.f_c + 55e6)
        f = np.linspace(10.55e9, 10.7e9, 301)
        s21, s31 = mc.amplitudes(f, sys_, 0.0)
        np.testing.assert_array_equal(s21, mc.s21(f, sys_, 0.0))
        assert list(s31) == ["kittel", "msm"]
        for label, values in s31.items():
            np.testing.assert_array_equal(values, mc.s31_mode(f, sys_, 0.0, label))
        s21, s31 = mc.amplitudes(f, mc.HybridSystem(cavity=CAVITY))
        assert s31 == {} and s21.shape == f.shape


class TestResonantEfficiency:
    def test_two_mode_reference_values(self):
        # frozen by direct evaluation of the cooperativity form
        expected = {"0.45mm": 8.45263e-11, "0.75mm": 5.10894e-12, "1.0mm": 3.62361e-12}
        for name, value in expected.items():
            assert mc.eta_resonant(two_mode_system(name)) == pytest.approx(value, rel=1e-5)

    def test_single_mode_reduction(self):
        # one mode: eta = (2*sqrt(delta*kappa_e) * C / (g*(1 + C)))^2 with C = g^2/(kappa_t*gamma)
        a = ASSEMBLIES["1.0mm"]
        c = a["g_K"] ** 2 / (CAVITY.kappa_t * a["gamma_K"])
        closed = (2.0 * np.sqrt(a["delta_K"] * CAVITY.kappa_e) * c / (a["g_K"] * (1.0 + c))) ** 2
        assert mc.eta_resonant(kittel_system("1.0mm")) == pytest.approx(closed, rel=1e-12)

    def test_matches_spectrum_at_triple_resonance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(1, 4)
            modes = tuple(
                mc.MagnonMode(
                    label=f"m{k}",
                    g=float(rng.uniform(1e5, 1e8)),
                    gamma=float(rng.uniform(1e4, 1e7)),
                    delta=float(rng.uniform(0.0, 5.0)),
                    beta=float(rng.uniform(0.5, 2.0)),
                    field_map=mc.FieldMap(kind="fixed", frequency=CAVITY.f_c),
                )
                for k in range(n)
            )
            sys_ = mc.HybridSystem(cavity=CAVITY, modes=modes)
            spectral = float(mc.eta_spectrum(CAVITY.f_c, sys_, 0.0))
            resonant = mc.eta_resonant(sys_)
            assert spectral == pytest.approx(resonant, rel=1e-10)

    def test_mode_with_zero_coupling_contributes_nothing(self):
        sys_ = two_mode_system("0.75mm")
        dead = mc.apply_params(sys_, {"g.msm": 0.0})
        lone = mc.HybridSystem(cavity=CAVITY, modes=sys_.modes[:1], material=sys_.material)
        assert mc.eta_resonant(dead) == pytest.approx(mc.eta_resonant(lone), rel=1e-12)

    def test_requires_at_least_one_mode(self):
        bare = mc.HybridSystem(cavity=CAVITY)
        with pytest.raises(ValueError):
            mc.eta_resonant(bare)
        with pytest.raises(ValueError):
            mc.eta_spectrum(10.6e9, bare, 0.0)

    def test_single_mode_saturation_limit(self):
        def one_mode(g, gamma, delta):
            mode = mc.MagnonMode(label="m", g=g, gamma=gamma, delta=delta)
            return mc.HybridSystem(cavity=CAVITY, modes=(mode,))

        g, gamma, delta = 28.6e6, 2.3e-3, 3.61e-3  # tiny gamma drives C huge
        saturated = 4 * delta * CAVITY.kappa_e / g**2
        assert mc.eta_resonant(one_mode(g, gamma, delta)) == pytest.approx(saturated, rel=1e-5)
        assert mc.eta_resonant(one_mode(g, 2.3e6, 0.0)) == 0.0
        # an uncoupled mode converts nothing
        assert mc.eta_resonant(one_mode(0.0, 2.3e6, delta)) == 0.0


class TestDispersion:
    """The normal-mode branches, read off the |S31|^2 maxima of the kernel's spectrum."""

    @staticmethod
    def branches(B, lo, hi):
        sys_ = kittel_system("0.45mm")
        f = np.arange(lo, hi, 1e3)  # 1 kHz steps
        power = np.abs(mc.s31_mode(f, sys_, B, "kittel")) ** 2
        peaks = np.flatnonzero((power[1:-1] > power[:-2]) & (power[1:-1] > power[2:])) + 1
        return f[peaks]

    def test_degeneracy_point(self):
        # the branches sit at f_c +/- g, pulled in by about kappa_t*gamma/(2g^2) = 0.4% by the damping
        g = ASSEMBLIES["0.45mm"]["g_K"]
        minus, plus = self.branches(CAVITY.f_c / 28e9, CAVITY.f_c - 60e6, CAVITY.f_c + 60e6)
        assert plus - CAVITY.f_c == pytest.approx(g, rel=1e-2)
        assert CAVITY.f_c - minus == pytest.approx(g, rel=1e-2)
        assert (plus + minus) / 2 == pytest.approx(CAVITY.f_c, abs=1e3)

    def test_far_detuned_branches_approach_bare_frequencies(self):
        # 5 GHz apart, each branch is pushed out by the dispersive shift g^2/5 GHz = 164 kHz
        g = ASSEMBLIES["0.45mm"]["g_K"]
        f_K = CAVITY.f_c + 5e9
        (minus,) = self.branches(f_K / 28e9, CAVITY.f_c - 10e6, CAVITY.f_c + 10e6)
        (plus,) = self.branches(f_K / 28e9, f_K - 10e6, f_K + 10e6)
        assert plus == pytest.approx(f_K, rel=1e-4)
        assert minus == pytest.approx(CAVITY.f_c, rel=1e-4)
        assert plus - f_K == pytest.approx(g**2 / 5e9, abs=3e3)
        assert CAVITY.f_c - minus == pytest.approx(g**2 / 5e9, abs=3e3)

    def test_field_map_resolution_and_ordering(self):
        # 1 mT above degeneracy the Kittel map puts f_K 28 MHz above f_c: the branches centre on
        # (f_c + f_K)/2 and lie sqrt(4g^2 + 28 MHz^2) apart, up to the damping shift
        g = ASSEMBLIES["0.45mm"]["g_K"]
        B = mc.field_for_frequency(CAVITY.f_c, kittel_system("0.45mm").material) + 0.001
        f_K = CAVITY.f_c + 28e6
        minus, plus = self.branches(B, CAVITY.f_c - 80e6, CAVITY.f_c + 100e6)
        assert plus > minus
        assert (plus + minus) / 2 == pytest.approx((CAVITY.f_c + f_K) / 2, abs=20e3)
        assert plus - minus == pytest.approx(np.sqrt(4 * g**2 + 28e6**2), rel=1e-2)


MIXED_SYSTEM = mc.HybridSystem(
    cavity=CAVITY,
    modes=(
        mc.MagnonMode(label="kittel", g=67.3e6, gamma=1.1e6, delta=1.80e-3),
        mc.MagnonMode(label="msm20", g=4.0e6, gamma=1.5e6, delta=0.512, field_map=mc.FieldMap(kind="msm20")),
        mc.MagnonMode(
            label="w32", g=2.5e6, gamma=0.9e6, delta=0.40, field_map=mc.FieldMap(kind="walker", i=3, j=2)
        ),
        mc.MagnonMode(
            label="spur", g=2.0e6, gamma=2.0e6, delta=0.05, field_map=mc.FieldMap(kind="fixed", frequency=10.7e9)
        ),
    ),
    material=mc.MaterialParams(diameter=0.75e-3),
)


def counting_denominator(monkeypatch) -> list:
    """Wrap ``scattering.shared_denominator``; the returned list gets ``np.size(f)`` of every call."""
    points = []
    kernel = mc.scattering.shared_denominator

    def counted(f, *args, **kwargs):
        points.append(np.size(f))
        return kernel(f, *args, **kwargs)

    monkeypatch.setattr(mc.scattering, "shared_denominator", counted)
    return points


class TestSweepMap:
    def test_single_point_grid_reduces_to_point_operation(self):
        sys_ = kittel_system("0.45mm")
        B = 0.3797
        swept = mc.sweep_map(sys_, [B], [CAVITY.f_c], "s21_power")
        assert swept.values.shape == (1, 1)
        assert swept.values[0, 0] == pytest.approx(abs(mc.s21(CAVITY.f_c, sys_, B)) ** 2, rel=1e-12)

    def test_avoided_crossing_shows_two_branches_at_degeneracy(self):
        sys_ = kittel_system("0.45mm")
        g = ASSEMBLIES["0.45mm"]["g_K"]
        B = np.linspace(0.3797, 0.3818, 5)
        f = np.linspace(CAVITY.f_c - 120e6, CAVITY.f_c + 120e6, 1201)
        swept = mc.sweep_map(sys_, B, f, "s21_power")
        # at the degeneracy field the two peaks sit near f_c +/- g
        row = swept.values[0]
        left = f[np.argmax(np.where(f < CAVITY.f_c, row, -1))]
        right = f[np.argmax(np.where(f > CAVITY.f_c, row, -1))]
        assert left == pytest.approx(CAVITY.f_c - g, abs=2e6)
        assert right == pytest.approx(CAVITY.f_c + g, abs=2e6)
        # and the on-axis transmission dip sits between them
        assert row[600] < 0.05 * max(row)

    def test_eta_map_zero_when_optical_coupling_off(self):
        sys_ = kittel_system("0.45mm", delta=0.0)
        swept = mc.sweep_map(sys_, [0.3797, 0.3818], np.linspace(10.5e9, 10.8e9, 21), "eta")
        assert np.all(swept.values == 0)

    def test_phase_map_range_and_observable_validation(self):
        sys_ = kittel_system("0.45mm")
        swept = mc.sweep_map(sys_, [0.3797], np.linspace(10.5e9, 10.8e9, 51), "s21_phase")
        assert np.all(swept.values > -np.pi) and np.all(swept.values <= np.pi)
        with pytest.raises(ValueError):
            mc.sweep_map(sys_, [0.38], [10.6e9], "s12_power")
        with pytest.raises(ValueError, match="grids must be non-empty 1D arrays"):
            mc.sweep_map(sys_, [], [10.6e9], "s21_power")

    def test_s31_phase_uses_selected_mode(self):
        sys_ = two_mode_system("0.75mm", f_M=CAVITY.f_c + 55e6)
        f = np.linspace(10.55e9, 10.7e9, 11)
        by_label = mc.sweep_map(sys_, [0.38], f, "s31_phase", mode_label="msm")
        expected = np.angle(mc.s31_mode(f, sys_, 0.38, "msm"))
        assert np.allclose(by_label.values[0], expected)

    @pytest.mark.parametrize("rows", [1, 3, None], ids=["rows1", "rows3", "default"])
    @pytest.mark.parametrize(
        "observable, system",
        [(o, "modes") for o in mc.scattering.OBSERVABLES] + [("s21_power", "bare"), ("s11_power", "bare")],
    )
    def test_rows_equal_point_functions(self, observable, system, rows, monkeypatch):
        # 7 fields in blocks of 1, of 3 (the last block holds one field) and in the default block
        sys_ = MIXED_SYSTEM if system == "modes" else mc.HybridSystem(cavity=CAVITY)
        B = np.linspace(0.3797, 0.3818, 7)
        f = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 301)
        if rows is not None:
            monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", rows * f.size)
        point = {
            "s21_power": lambda b: np.abs(mc.s21(f, sys_, b)) ** 2,
            "s11_power": lambda b: np.abs(mc.s11(f, sys_, b)) ** 2,
            "eta": lambda b: mc.eta_spectrum(f, sys_, b),
            "s21_phase": lambda b: mc.principal_phase(mc.s21(f, sys_, b)),
            "s31_phase": lambda b: mc.principal_phase(mc.s31_mode(f, sys_, b, "kittel")),
        }[observable]
        swept = mc.sweep_map(sys_, B, f, observable)
        for k, b in enumerate(B):
            assert np.array_equal(swept.values[k], point(b))

    @pytest.mark.parametrize(
        "observable, label, formed",
        [
            ("s21_power", None, []),
            ("s11_power", None, []),
            ("s21_phase", None, []),
            ("eta", None, ["kittel", "msm20", "w32", "spur"]),
            ("s31_phase", None, ["kittel"]),
            ("s31_phase", "w32", ["w32"]),
        ],
    )
    def test_only_the_s31_the_observable_reads_is_formed(self, observable, label, formed, monkeypatch):
        kernel = mc.scattering.amplitudes_from_denominator
        seen = []

        def recorded(*args, **kwargs):
            t, s31 = kernel(*args, **kwargs)
            seen.append(list(s31))
            return t, s31

        monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", 3 * 101)
        monkeypatch.setattr(mc.scattering, "amplitudes_from_denominator", recorded)
        B = np.linspace(0.3797, 0.3818, 7)
        f = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 101)
        swept = mc.sweep_map(MIXED_SYSTEM, B, f, observable, mode_label=label)
        assert seen == [formed] * 3
        if label is not None:
            for k, b in enumerate(B):
                expected = mc.principal_phase(mc.s31_mode(f, MIXED_SYSTEM, b, label))
                assert np.array_equal(swept.values[k], expected)

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_denominator_sees_each_cell_once(self, rows, monkeypatch):
        f = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 301)
        if rows is not None:
            monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", rows * f.size)
        points = counting_denominator(monkeypatch)
        B = np.linspace(0.3797, 0.3818, 7)
        mc.sweep_map(MIXED_SYSTEM, B, f, "eta")
        assert sum(points) == B.size * f.size
        assert len(points) == (7 if rows == 1 else 3 if rows == 3 else 1)

    @pytest.mark.parametrize(
        "B, f, message",
        [
            ([0.3818, 0.3797], [10.6e9, 10.7e9], "grids must be strictly ascending"),
            ([0.3797, 0.3797], [10.6e9, 10.7e9], "grids must be strictly ascending"),
            ([0.3797, 0.3818], [10.7e9, 10.6e9], "grids must be strictly ascending"),
            ([0.3797, np.nan], [10.6e9, 10.7e9], "grids must be finite"),
            ([0.3797, 0.3818], [10.6e9, np.inf], "grids must be finite"),
            ([[0.3797, 0.3818]], [10.6e9, 10.7e9], "grids must be non-empty 1D arrays"),
            # a float cast would drop the imaginary parts
            ([0.3797, 0.3818 + 1e-3j], [10.6e9, 10.7e9], "^B_grid must be real$"),
            ([0.3797, 0.3818], np.array([10.6e9, 10.7e9 + 5e6j]), "^f_grid must be real$"),
        ],
    )
    def test_bad_grids_are_rejected_before_any_kernel_work(self, B, f, message, monkeypatch):
        points = counting_denominator(monkeypatch)
        with pytest.raises(ValueError, match=message):
            mc.sweep_map(MIXED_SYSTEM, B, f, "s21_power")
        assert points == []

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_failing_block_raises_the_first_failing_field_and_mode(self, rows, monkeypatch):
        # every field-mapped mode fails the saturation rule at -0.1 T: the first field's error, a ValueError
        f = np.linspace(10.5e9, 10.7e9, 5)
        if rows is not None:
            monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", rows * f.size)
        with pytest.raises(ValueError, match=saturation_pattern(-0.1)) as raised:
            mc.sweep_map(MIXED_SYSTEM, np.linspace(-0.1, 0.5, 7), f, "eta")
        assert type(raised.value) is ValueError
        # msm20's r * r overflows from 2.4e153 T, where the kittel and walker maps are finite: the second mode fails
        with pytest.raises(ValueError, match="^f_m must be finite$"):
            mc.sweep_map(MIXED_SYSTEM, [0.38, 1e160], f, "eta")
        # every field map overflows to inf at 1e300 T: the first mode's frequency is not finite
        with pytest.raises(ValueError, match="^f_m must be finite$"):
            mc.sweep_map(MIXED_SYSTEM, [0.38, 1e300], f, "eta")

    def test_conversion_maps_need_a_mode(self):
        bare = mc.HybridSystem(cavity=CAVITY)
        for observable in ("eta", "s31_phase"):
            with pytest.raises(ValueError):
                mc.sweep_map(bare, [0.38], [10.6e9], observable)

    @pytest.mark.parametrize("rows", [1, None])
    def test_a_value_that_is_not_finite_is_a_domain_error_naming_its_cell(self, rows, monkeypatch):
        # g**2 * chi = 1e20 * 1e300i overflows D where the kittel mode sits on a grid frequency; no numpy warning
        mode = mc.MagnonMode(label="kittel", g=1.0e10, gamma=1.0e-300, delta=3.61e-3)
        system = mc.HybridSystem(cavity=CAVITY, modes=(mode,))
        f = np.linspace(10.482e9, 10.782e9, 1501)
        if rows is not None:
            monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", rows * f.size)
        with pytest.raises(mc.DomainError, match=r"^eta is nan at B = 0\.3797 T, f = 10631600000\.0 Hz$"):
            mc.sweep_map(system, [0.3, 0.3797, 0.38], f, "eta")
        assert np.isfinite(mc.sweep_map(system, [0.3, 0.3797, 0.38], f, "s21_power").values).all()
        with pytest.raises(mc.DomainError, match=r"^s21_phase is inf at B = 0\.1 T, f = 2\.0 Hz$"):
            mc.SweepMap(np.array([0.1]), np.array([1.0, 2.0]), np.array([[0.5, np.inf]]), "s21_phase")

    def test_map_validation_rejects_negative_power(self):
        with pytest.raises(ValueError):
            mc.SweepMap(np.array([0.1]), np.array([1.0]), np.array([[-1.0]]), "s21_power")
        # phases may be negative
        mc.SweepMap(np.array([0.1]), np.array([1.0]), np.array([[-1.0]]), "s21_phase")


def recording_executor(monkeypatch) -> list:
    """Record the ``max_workers`` of every thread pool ``sweep_map`` opens."""
    import concurrent.futures

    pools = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    return pools


class TestSweepWorkers:
    B = np.linspace(0.3797, 0.3818, 7)
    f = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 101)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("rows, blocks", [(1, 7), (3, 3), (None, 1)])
    def test_worker_count_is_the_smaller_of_cpus_and_blocks(self, cpus, rows, blocks, monkeypatch):
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
        if rows is not None:
            monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", rows * self.f.size)
        pools = recording_executor(monkeypatch)
        points = counting_denominator(monkeypatch)
        mc.sweep_map(MIXED_SYSTEM, self.B, self.f, "eta")
        assert pools == [min(cpus, blocks)]
        assert len(points) == blocks

    def test_cpu_count_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(mc.scattering.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        monkeypatch.setattr(mc.scattering.os, "cpu_count", lambda: 64)
        assert mc.scattering._cpu_count() == 3
        monkeypatch.delattr(mc.scattering.os, "sched_getaffinity")
        assert mc.scattering._cpu_count() == 64
        monkeypatch.setattr(mc.scattering.os, "cpu_count", lambda: None)
        assert mc.scattering._cpu_count() == 1

    def test_more_workers_than_cores_with_fast_thread_switches(self, monkeypatch):
        # one-row blocks on 4 workers, switching threads as often as the interpreter allows
        monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", self.f.size)
        B = np.linspace(0.3797, 0.3818, 41)
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: 1)
        expected = mc.sweep_map(MIXED_SYSTEM, B, self.f, "eta").values
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert mc.sweep_map(MIXED_SYSTEM, B, self.f, "eta").values.tobytes() == expected.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_no_thread_outlives_the_sweep(self, cpus, monkeypatch):
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", self.f.size)
        before = threading.active_count()
        mc.sweep_map(MIXED_SYSTEM, self.B, self.f, "eta")
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_a_block_exception_reaches_the_caller_unchanged(self, cpus, monkeypatch):
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", self.f.size)
        kernel = mc.scattering.shared_denominator
        calls = itertools.count()
        error = ArithmeticError("second block")

        def second_block_raises(*args, **kwargs):
            if next(calls) == 1:
                raise error
            return kernel(*args, **kwargs)

        monkeypatch.setattr(mc.scattering, "shared_denominator", second_block_raises)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as raised:
            mc.sweep_map(MIXED_SYSTEM, self.B, self.f, "eta")
        assert raised.value is error
        assert threading.active_count() == before


def test_a_scalar_frequency_gives_the_bits_of_the_array_call():
    # the kernel runs the same ufunc loops for a scalar f as for an array
    f = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 31)
    t, s31 = mc.amplitudes(f, MIXED_SYSTEM, 0.38)
    eta = mc.eta_spectrum(f, MIXED_SYSTEM, 0.38)
    for k, f_k in enumerate(f):
        t_k, s31_k = mc.amplitudes(f_k, MIXED_SYSTEM, 0.38)
        assert t_k == t[k]
        assert [s31_k[label] for label in s31] == [values[k] for values in s31.values()]
        assert mc.eta_spectrum(f_k, MIXED_SYSTEM, 0.38) == eta[k]


def test_kernel_buffers_give_the_allocated_values():
    f = np.broadcast_to(np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 41), (3, 41))
    f_ms = np.array([mc.scattering.mode_frequencies(MIXED_SYSTEM, b) for b in (0.379, 0.380, 0.381)]).T[:, :, None]
    d, chis = mc.scattering.shared_denominator(f, MIXED_SYSTEM, f_ms)
    t, s31 = mc.scattering.amplitudes_from_denominator(d, chis, MIXED_SYSTEM)
    out = mc.scattering.KernelBuffers.empty((5, 41), len(MIXED_SYSTEM.modes)).head(3)
    d_out, chis_out = mc.scattering.shared_denominator(f, MIXED_SYSTEM, f_ms, out=out)
    assert d_out is out.d and all(a is b for a, b in zip(chis_out, out.chis))
    assert d_out.tobytes() == d.tobytes() and [c.tobytes() for c in chis_out] == [c.tobytes() for c in chis]
    t_out, s31_out = mc.scattering.amplitudes_from_denominator(d_out, chis_out, MIXED_SYSTEM, out=out)
    assert t_out is out.d and t_out.tobytes() == t.tobytes()
    assert {k: v.tobytes() for k, v in s31_out.items()} == {k: v.tobytes() for k, v in s31.items()}
    eta = mc.scattering.eta_from_amplitudes(s31)
    assert mc.scattering.eta_from_amplitudes(s31_out, np.empty((3, 41)), out.real).tobytes() == eta.tobytes()


def test_each_f_m_is_checked_where_the_field_maps_resolve():
    # every field map overflows to inf at 1e300 T; the fixed mode does not, and the first failing mode raises
    with pytest.raises(ValueError, match="^f_m must be finite$"):
        mc.scattering.mode_frequencies(MIXED_SYSTEM, 1e300)
    fixed_first = mc.HybridSystem(cavity=CAVITY, modes=MIXED_SYSTEM.modes[::-1], material=MIXED_SYSTEM.material)
    with pytest.raises(ValueError, match="^f_m must be finite$"):
        mc.sweep_map(fixed_first, [0.38, 1e300], [10.6e9, 10.7e9], "eta")
    assert mc.scattering.mode_frequencies(fixed_first, 0.38)[0] == 10.7e9


def test_the_kernel_trusts_its_inputs():
    # arithmetic only: a non-finite f or f_m gives non-finite values in its own cells, and the others keep their bits
    f = np.array([10.5e9, np.nan, 10.6e9])
    f_ms = [10.6e9, 10.6e9, np.array([10.6e9, 10.6e9, np.nan]), 10.6e9]
    with np.errstate(invalid="ignore"):
        d, chis = mc.scattering.shared_denominator(f, MIXED_SYSTEM, f_ms)
    clean_d, clean_chis = mc.scattering.shared_denominator(f[[0]], MIXED_SYSTEM, [10.6e9] * 4)
    assert np.isfinite(d).tolist() == [True, False, False]
    assert d[0] == clean_d[0] and [chi[0] for chi in chis] == [chi[0] for chi in clean_chis]


@st.composite
def field_mapped_systems(draw):
    """Zero to four magnon modes that draw every field-map kind, around the reference cavity."""
    maps = st.one_of(
        st.just(mc.FieldMap()),
        st.just(mc.FieldMap(kind="msm20")),
        st.integers(1, 4).flatmap(
            lambda j: st.sampled_from([j, j + 1]).map(lambda i: mc.FieldMap(kind="walker", i=i, j=j))
        ),
        st.floats(10.4e9, 10.9e9).map(lambda f_m: mc.FieldMap(kind="fixed", frequency=f_m)),
    )
    modes = tuple(
        mc.MagnonMode(
            label=f"m{k}",
            g=draw(st.floats(0.0, 1e8)),
            gamma=draw(st.floats(1e5, 1e7)),
            delta=draw(st.floats(0.0, 3.0)),
            beta=draw(st.floats(0.2, 5.0)),
            field_map=draw(maps),
        )
        for k in range(draw(st.integers(0, 4)))
    )
    return mc.HybridSystem(cavity=CAVITY, modes=modes, material=mc.MaterialParams(diameter=0.75e-3))


MSM20 = mc.FieldMap(kind="msm20")


def one_mode_system(**mode):
    """A field_mapped_systems() draw with the one mode ``mode``."""
    return mc.HybridSystem(
        cavity=CAVITY, modes=(mc.MagnonMode(label="m0", **mode),), material=mc.MaterialParams(diameter=0.75e-3)
    )


@settings(max_examples=25, deadline=None)
@given(
    sys_=field_mapped_systems(),
    n_fields=st.integers(1, 8),
    n_freqs=st.integers(1, 40),
    rows=st.sampled_from([1, 3, None]),
)
# one-cell blocks: numpy may round an in-place complex product of one element differently
@example(sys_=one_mode_system(g=234.0, gamma=1e5, delta=1.0, beta=1.0), n_fields=1, n_freqs=1, rows=1)
@example(sys_=one_mode_system(g=1.0, gamma=170987.0, delta=1.5, beta=2.5), n_fields=1, n_freqs=1, rows=1)
def test_sweep_values_do_not_depend_on_the_worker_count(sys_, n_fields, n_freqs, rows):
    B = np.linspace(0.37, 0.39, n_fields)
    f = np.linspace(CAVITY.f_c - 200e6, CAVITY.f_c + 200e6, n_freqs)
    label = sys_.modes[0].label if sys_.modes else None
    point = {
        "s21_power": lambda b: np.abs(mc.s21(f, sys_, b)) ** 2,
        "s11_power": lambda b: np.abs(mc.s11(f, sys_, b)) ** 2,
        "eta": lambda b: mc.eta_spectrum(f, sys_, b),
        "s21_phase": lambda b: mc.principal_phase(mc.s21(f, sys_, b)),
        "s31_phase": lambda b: mc.principal_phase(mc.s31_mode(f, sys_, b, label)),
    }
    for observable in mc.scattering.OBSERVABLES:
        if not sys_.modes and observable in ("eta", "s31_phase"):
            continue
        expected = np.array([point[observable](b) for b in B])
        for cpus in (1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
                if rows is not None:
                    patch.setattr(mc.scattering, "_SWEEP_CELLS", rows * f.size)
                swept = mc.sweep_map(sys_, B, f, observable)
            assert swept.values.tobytes() == expected.tobytes(), (observable, cpus)


def test_degenerate_mode_frequencies_stay_finite():
    # two modes pinned to exactly the same frequency is a legal system
    sys_ = two_mode_system("0.75mm", f_K=CAVITY.f_c, f_M=CAVITY.f_c)
    f = np.linspace(CAVITY.f_c - 200e6, CAVITY.f_c + 200e6, 801)
    for values in (mc.s21(f, sys_, 0.0), mc.s11(f, sys_, 0.0), mc.eta_spectrum(f, sys_, 0.0)):
        assert np.all(np.isfinite(values))
    assert np.isfinite(mc.eta_resonant(sys_))


def test_principal_phase_convention():
    assert mc.principal_phase(np.array([-1.0 + 0j]))[0] == np.pi  # fold -pi onto +pi
    assert mc.principal_phase(np.array([1.0 + 0j]))[0] == 0.0
    assert mc.principal_phase(np.array([-1j]))[0] == -np.pi / 2


def test_complex_spectrum_rejects_complex_frequencies():
    # a float cast would keep 1, 2 and 3 Hz and warn only
    with pytest.raises(ValueError, match="^frequencies must be real$"):
        mc.ComplexSpectrum(np.array([1.0, 2.0, 3.0]) + 1j, np.zeros(3, dtype=complex))


def test_complex_spectrum_validation():
    f = np.array([1.0, 2.0, 3.0])
    mc.ComplexSpectrum(f, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        mc.ComplexSpectrum(f[::-1], np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        mc.ComplexSpectrum(f, np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        mc.ComplexSpectrum(f, np.array([1.0, np.nan, 2.0], dtype=complex))
    # a NaN frequency is reported as what it is, not as a grid out of order
    with pytest.raises(ValueError, match="non-finite"):
        mc.ComplexSpectrum(np.array([1.0, np.nan, 3.0]), np.zeros(3, dtype=complex))


def test_phase_of_rotated_transmission_confined_to_lower_half():
    sys_ = kittel_system("0.45mm")
    for B in np.linspace(0.3797, 0.3818, 9):
        f = np.linspace(CAVITY.f_c - 200e6, CAVITY.f_c + 200e6, 2001)
        phases = np.angle(1j * mc.s21(f, sys_, B))
        assert np.all(phases > -np.pi)
        assert np.all(phases < 0)


@pytest.mark.parametrize("lam", [1e-3, 1e3])
def test_unit_scale_invariance_of_scattering(lam):
    sys_ = two_mode_system("0.75mm", f_M=CAVITY.f_c + 55e6)
    scaled = scaled_system(sys_, lam)
    f = np.linspace(CAVITY.f_c - 200e6, CAVITY.f_c + 200e6, 401)
    ours = mc.s21(f, sys_, 0.0)
    theirs = mc.s21(f * lam, scaled, 0.0)
    assert np.max(np.abs(ours - theirs) / np.abs(ours)) <= 1e-12
    assert mc.eta_resonant(scaled) == pytest.approx(mc.eta_resonant(sys_), rel=1e-12)


PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def fixed_systems(draw, resonant=False):
    """One to three magnon modes pinned near (or, if ``resonant``, at) a random cavity."""
    cavity = mc.CavityParams(
        f_c=CAVITY.f_c, kappa_e=draw(st.floats(1e5, 1e7)), kappa_i=draw(st.floats(0.0, 1e7))
    )
    modes = tuple(
        mc.MagnonMode(
            label=f"m{k}",
            g=draw(st.floats(1e5, 2e8)),
            gamma=draw(st.floats(1e4, 2e7)),
            delta=draw(st.floats(1e-4, 5.0)),
            beta=draw(st.floats(0.2, 5.0)),
            field_map=mc.FieldMap(
                kind="fixed", frequency=CAVITY.f_c + (0.0 if resonant else draw(st.floats(-3e8, 3e8)))
            ),
        )
        for k in range(draw(st.integers(1, 3)))
    )
    return mc.HybridSystem(cavity=cavity, modes=modes)


detunings = st.lists(st.floats(-5e8, 5e8), min_size=1, max_size=8)
# a system of every field-map kind at a bias field above saturation, or of fixed modes around a random cavity
systems = st.one_of(field_mapped_systems(), fixed_systems())


@PROPERTY
@given(systems, st.floats(0.3, 0.45), detunings)
# the 0.75 mm assembly with its MSM 55 MHz above the cavity, over +/-300 MHz
@example(two_mode_system("0.75mm", f_M=CAVITY.f_c + 55e6), 0.0, np.linspace(-300e6, 300e6, 1001).tolist())
def test_conversion_is_transmission_times_minus_i_g_chi_sqrt_beta_delta_over_kappa_e(sys_, B, detuning):
    # S31_m = -i * g_m * chi_m * sqrt(beta_m*delta_m/kappa_e) * S21, with chi_m written out here
    f = sys_.cavity.f_c + np.array(detuning)
    s21 = mc.s21(f, sys_, B)
    for mode in sys_.modes:
        chi = magnon_susceptibility(f, mode, mc.mode_frequency(mode.field_map, B, sys_.material))
        expected = -1j * mode.g * chi * np.sqrt(mode.beta * mode.delta / sys_.cavity.kappa_e) * s21
        # below the smallest normal double a relative comparison means nothing
        np.testing.assert_allclose(mc.s31_mode(f, sys_, B, mode.label), expected, rtol=1e-12, atol=np.finfo(float).tiny)


@PROPERTY
@given(systems, st.floats(0.3, 0.45), detunings, st.floats(1e-3, 1e3))
# the 0.75 mm assembly at triple resonance, every beta times 1000
@example(two_mode_system("0.75mm"), 0.0, np.linspace(-82e6, 68e6, 301).tolist(), 1000.0)
def test_conversion_power_is_linear_in_beta(sys_, B, detuning, scale):
    # beta enters S31_m only through sqrt(beta_m), and D not at all
    assume(sys_.modes)
    f = sys_.cavity.f_c + np.array(detuning)
    boosted = mc.apply_params(sys_, {f"beta.{mode.label}": mode.beta * scale for mode in sys_.modes})
    np.testing.assert_allclose(
        mc.eta_spectrum(f, boosted, B), scale * mc.eta_spectrum(f, sys_, B), rtol=1e-12, atol=np.finfo(float).tiny
    )


@PROPERTY
@given(fixed_systems(), detunings)
def test_reflection_is_one_plus_transmission(sys_, detuning):
    f = CAVITY.f_c + np.array(detuning)
    np.testing.assert_array_equal(mc.s11(f, sys_), 1.0 + mc.s21(f, sys_))


@PROPERTY
@given(fixed_systems(), detunings, st.floats(1e-3, 1e3))
def test_powers_are_invariant_under_one_unit_scale(sys_, detuning, lam):
    f = CAVITY.f_c + np.array(detuning)
    scaled = scaled_system(sys_, lam)
    np.testing.assert_allclose(np.abs(mc.s21(f * lam, scaled)) ** 2, np.abs(mc.s21(f, sys_)) ** 2, rtol=1e-9)
    np.testing.assert_allclose(mc.eta_spectrum(f * lam, scaled), mc.eta_spectrum(f, sys_), rtol=1e-9)


@PROPERTY
@given(fixed_systems(resonant=True))
def test_spectrum_at_triple_resonance_equals_the_closed_form(sys_):
    assert float(mc.eta_spectrum(CAVITY.f_c, sys_)) == pytest.approx(mc.eta_resonant(sys_), rel=1e-10)


@PROPERTY
@given(fixed_systems(resonant=True))
def test_transmission_at_triple_resonance_is_real_and_dressed_by_every_cooperativity(sys_):
    # chi_m = -i/gamma_m at f = f_c = f_m, so D = i*kappa_t*(1 + sum_m C_m): a few roundings in each C_m
    kappa_t = sys_.cavity.kappa_t
    total_c = sum(m.g**2 / (kappa_t * m.gamma) for m in sys_.modes)
    expected = -2.0 * sys_.cavity.kappa_e / (kappa_t * (1.0 + total_c))
    assert complex(mc.s21(CAVITY.f_c, sys_)) == pytest.approx(expected, rel=1e-12)


@PROPERTY
@given(
    st.floats(1e5, 2e8), st.floats(2.0, 9.0), st.floats(1e-4, 5.0), st.floats(0.2, 5.0),
    st.floats(1e5, 1e7), st.floats(0.0, 1e7),
)
def test_single_mode_efficiency_saturates_at_four_beta_delta_kappa_e_over_g_squared(
    g, log_c, delta, beta, kappa_e, kappa_i
):
    # eta / (4*beta*delta*kappa_e/g^2) = (C/(1 + C))^2, which falls short of 1 by (1 + 2C)/(1 + C)^2 < 2/C;
    # 1e-12 allows for the rounding of C and of the ratio
    cavity = mc.CavityParams(f_c=CAVITY.f_c, kappa_e=kappa_e, kappa_i=kappa_i)
    c = 10.0**log_c
    mode = mc.MagnonMode(label="m", g=g, gamma=g**2 / (cavity.kappa_t * c), delta=delta, beta=beta)
    ratio = mc.eta_resonant(mc.HybridSystem(cavity=cavity, modes=(mode,))) / (4 * beta * delta * kappa_e / g**2)
    assert ratio == pytest.approx((c / (1.0 + c)) ** 2, rel=1e-12)
    assert -1e-12 <= 1.0 - ratio <= 2.0 / c + 1e-12


@PROPERTY
@given(field_mapped_systems(), st.floats(0.3, 0.45), detunings)
# both sides of the S31 balance underflow to the smallest subnormals
@example(one_mode_system(g=2115.0, gamma=1e5, delta=2.225073858507e-311, beta=5.0, field_map=MSM20), 0.375, [0.0])
@example(one_mode_system(g=7776.0, gamma=1e5, delta=2.2250738585072014e-308, beta=5.0, field_map=MSM20), 0.3125, [0.0])
def test_power_balance_holds_for_any_set_of_modes(sys_, B, detuning):
    # Im D = kappa_t + sum_m g_m^2 gamma_m |chi_m|^2 >= kappa_e for real f, hence
    # 1 - |S11|^2 = |S21|^2 (kappa_i + sum_m g_m^2 gamma_m |chi_m|^2) / kappa_e
    # and |S31_m|^2 = (beta_m delta_m / kappa_e) g_m^2 |chi_m|^2 |S21|^2
    f = CAVITY.f_c + np.array(detuning)
    s21, s31 = mc.amplitudes(f, sys_, B)
    _, chis = mc.scattering.shared_denominator(f, sys_, mc.scattering.mode_frequencies(sys_, B))
    kappa_e = sys_.cavity.kappa_e
    p21 = np.abs(s21) ** 2
    dressed = [mode.g**2 * np.abs(chi) ** 2 for mode, chi in zip(sys_.modes, chis)]
    loss = sys_.cavity.kappa_i + sum(mode.gamma * d for mode, d in zip(sys_.modes, dressed))
    s11 = mc.s11(f, sys_, B)
    # 1 - |S11|^2 carries the round-off of |S11|^2, which is about 1
    np.testing.assert_allclose(1.0 - np.abs(s11) ** 2, p21 * loss / kappa_e, rtol=1e-9, atol=1e-14)
    assert np.all(np.abs(s11) <= 1.0 + 1e-15)
    for mode, d in zip(sys_.modes, dressed):
        # below the smallest normal double a relative comparison means nothing
        expected = mode.beta * mode.delta / kappa_e * d * p21
        np.testing.assert_allclose(np.abs(s31[mode.label]) ** 2, expected, rtol=1e-12, atol=np.finfo(float).tiny)


@PROPERTY
@given(field_mapped_systems(), st.floats(0.3, 0.45), detunings)
def test_shared_denominator_is_det_f_minus_h_over_the_mode_poles(sys_, B, detuning):
    # D(f) = det(f - H) / prod_m (f - f_m + i*gamma_m), with H the normal-mode matrix of the oracle; 1e-12 of the
    # sum of the magnitudes of D's terms (f - f_c, i*kappa_t and each g_m^2 chi_m) allows for the rounding of
    # the determinant's LU factors (2.3e-14 at most over 3000 random draws of 0-4 modes)
    f = CAVITY.f_c + np.array(detuning)
    f_ms = mc.scattering.mode_frequencies(sys_, B)
    d, _ = mc.scattering.shared_denominator(f, sys_, f_ms)
    h = hybrid_matrix(sys_, B)
    shifts = [f - f_m + 1j * mode.gamma for mode, f_m in zip(sys_.modes, f_ms)]
    expected = np.linalg.det(f[:, None, None] * np.eye(len(h)) - h) / np.prod(shifts, axis=0)
    terms = np.abs(f - CAVITY.f_c) + CAVITY.kappa_t + sum(m.g**2 / np.abs(s) for m, s in zip(sys_.modes, shifts))
    assert np.all(np.abs(d - expected) <= 1e-12 * terms)


@PROPERTY
@given(field_mapped_systems(), st.floats(0.3, 0.45))
def test_a_mode_at_the_cavity_splits_the_normal_modes_by_the_rabi_splitting(sys_, B):
    # each drawn mode alone, moved onto f_c: the eigenvalues of [[f_c - i*kappa_t, g], [g, f_c - i*gamma]] are
    # f_c - i*(kappa_t + gamma)/2 +/- sqrt(g^2 - ((kappa_t - gamma)/2)^2), split along the real axis where
    # g > |kappa_t - gamma|/2. The tolerance, 1e-6 of g + kappa_t + gamma (a bound on the norm of H - f_c), allows
    # for the sqrt(eps)-sized round-off of the eigenvalues near the exceptional point and for their shift by f_c
    kappa_t = CAVITY.kappa_t
    for mode in sys_.modes:
        if not mode.g > abs(kappa_t - mode.gamma) / 2:
            continue
        at_cavity = dataclasses.replace(mode, field_map=mc.FieldMap(kind="fixed", frequency=CAVITY.f_c))
        low, high = normal_modes(mc.HybridSystem(cavity=CAVITY, modes=(at_cavity,)), B)
        splitting = 2 * math.sqrt(mode.g**2 - ((kappa_t - mode.gamma) / 2) ** 2)
        tolerance = 1e-6 * (mode.g + kappa_t + mode.gamma)
        assert high.real - low.real == pytest.approx(splitting, rel=0, abs=tolerance)
        for value in (low, high):
            assert value.imag == pytest.approx(-(kappa_t + mode.gamma) / 2, rel=0, abs=tolerance)
