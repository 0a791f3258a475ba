import math

import numpy as np
import pytest

import magnoncavity as mc

from conftest import ASSEMBLIES, CAVITY, CAVITY_VOLUME

MAT = mc.MaterialParams()
OPT = mc.OpticalDrive()

# Published reference cells for the three assemblies (the 0.45 mm MSM row
# uses the printed inequality bounds as values).
REFERENCE = {
    "0.45mm": dict(N_K=1.51e17, N_M=1.84e14, V_m=4.77e-11, n_K=3.16e27, n_M=3.87e24,
                   G_K=4.81e-25, G_M=3.93e-22, delta_K=3.61e-3, delta_M=2.95,
                   C_K=132.0, C_M=0.19),
    "0.75mm": dict(N_K=8.36e17, N_M=2.95e15, V_m=2.21e-10, n_K=3.79e27, n_M=1.34e25,
                   G_K=4.02e-25, G_M=1.14e-22, delta_K=1.80e-3, delta_M=0.512,
                   C_K=1373.0, C_M=3.6),
    "1.0mm": dict(N_K=1.53e18, N_M=2.66e16, V_m=5.24e-10, n_K=2.92e27, n_M=5.07e25,
                   G_K=5.21e-25, G_M=2.99e-23, delta_K=1.75e-3, delta_M=0.101,
                   C_K=3487.0, C_M=64.0),
}


class TestSingleSpinCoupling:
    def test_reference_geometry_value(self):
        g_B = mc.single_spin_coupling(CAVITY, MAT, CAVITY_VOLUME)
        assert g_B == pytest.approx(0.032931269647786116, rel=1e-12)

    def test_consistent_with_published_spin_counts(self):
        # the geometric formula, not the separately quoted 0.325 Hz, is
        # what reproduces the published N values (they differ by ~10x)
        g_B = mc.single_spin_coupling(CAVITY, MAT, CAVITY_VOLUME)
        n = mc.spins_from_coupling(ASSEMBLIES["0.45mm"]["g_K"], g_B, MAT.spin)
        assert n == pytest.approx(1.51e17, rel=0.01)

    def test_volume_and_overlap_scaling(self):
        g_B = mc.single_spin_coupling(CAVITY, MAT, CAVITY_VOLUME)
        assert mc.single_spin_coupling(CAVITY, MAT, 4 * CAVITY_VOLUME) == pytest.approx(g_B / 2, rel=1e-12)
        half_overlap = mc.MaterialParams(xi=0.5)
        assert mc.single_spin_coupling(CAVITY, half_overlap, CAVITY_VOLUME) == pytest.approx(g_B / 2, rel=1e-12)

    def test_requires_positive_volume(self):
        with pytest.raises(ValueError):
            mc.single_spin_coupling(CAVITY, MAT, 0.0)


class TestSpinCounting:
    def test_round_trip_identity(self):
        # g = g_B * sqrt(2*N*s) for N spins of spin number s
        g_B = 0.0329
        for g in (1e6, 28.6e6, 91e6):
            n = mc.spins_from_coupling(g, g_B, 2.5)
            assert g_B * math.sqrt(2.0 * n * 2.5) == pytest.approx(g, rel=1e-12)

    def test_quadratic_in_coupling(self):
        n1 = mc.spins_from_coupling(10e6, 0.033, 2.5)
        n2 = mc.spins_from_coupling(20e6, 0.033, 2.5)
        assert n2 == pytest.approx(4 * n1, rel=1e-12)

    def test_zero_single_spin_coupling_rejected(self):
        with pytest.raises(ValueError):
            mc.spins_from_coupling(1e6, 0.0, 2.5)


def test_cooperativity_reference_values():
    assert mc.cooperativity(28.6e6, 2.7e6, 2.3e6) == pytest.approx(131.7165861513688, rel=1e-12)
    assert mc.cooperativity(28.6e6, 2.7e6, 2.3e6) == pytest.approx(132.0, rel=3e-3)
    assert mc.cooperativity(67.3e6, 2.7e6, 1.1e6) == pytest.approx(1525.0, rel=1e-4)
    assert mc.cooperativity(0.0, 2.7e6, 2.3e6) == 0.0
    with pytest.raises(ValueError):
        mc.cooperativity(1e6, 0.0, 1e6)


class TestGeometry:
    def test_sphere_volumes(self):
        for name, ref in REFERENCE.items():
            d = ASSEMBLIES[name]["diameter"]
            v, _ = mc.mode_volume_and_density(d, 1.0)
            assert v == pytest.approx(ref["V_m"], rel=5e-3)
        v, _ = mc.mode_volume_and_density(0.45e-3, 1.0)
        assert v == pytest.approx(4 / 3 * math.pi * (0.225e-3) ** 3, rel=1e-14)

    def test_density_is_exact_ratio(self):
        v, n = mc.mode_volume_and_density(0.45e-3, 1.51e17)
        assert n == 1.51e17 / v
        assert n == pytest.approx(3.16e27, rel=0.01)

    def test_faraday_coefficient(self):
        assert mc.faraday_coefficient(380.0, 3.16e27) == pytest.approx(4.81e-25, rel=2e-3)
        assert mc.faraday_coefficient(380.0, 3.79e27) == pytest.approx(4.02e-25, rel=3e-3)
        assert mc.faraday_coefficient(380.0, 2e27) == pytest.approx(mc.faraday_coefficient(380.0, 4e27) * 2, rel=1e-12)


def test_photon_flux_for_reference_drive():
    assert mc.photon_flux(OPT) == pytest.approx(1.17043210195368e17, rel=1e-12)
    assert mc.photon_flux(OPT) == pytest.approx(1.17e17, rel=1e-3)


class TestOpticalCouplingRate:
    # published (G, V_m, n) cells per assembly, delta expected back within 2%
    CASES = {
        "0.45mm": (4.81e-25, 0.45e-3, 4.77e-11, 3.16e27, 3.61e-3),
        "0.75mm": (4.02e-25, 0.75e-3, 2.21e-10, 3.79e27, 1.80e-3),
        "1.0mm": (5.21e-25, 1.0e-3, 5.24e-10, 2.92e27, 1.75e-3),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_reference_inputs(self, name):
        G, l, V_m, n, expected = self.CASES[name]
        assert mc.optical_coupling_rate(G, l, V_m, n, OPT) == pytest.approx(expected, rel=0.02)

    def test_zero_power(self):
        dark = mc.OpticalDrive(wavelength=1.55e-6, power=0.0)
        assert mc.optical_coupling_rate(4.81e-25, 0.45e-3, 4.77e-11, 3.16e27, dark) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc.optical_coupling_rate(4.81e-25, 0.0, 4.77e-11, 3.16e27, OPT)


class TestPipelineClosure:
    """Whole chain from measured (g, gamma) to every derived cell."""

    @pytest.mark.parametrize("name", sorted(ASSEMBLIES))
    @pytest.mark.parametrize("which", ["K", "M"])
    def test_reproduces_reference_columns(self, name, which):
        a = ASSEMBLIES[name]
        ref = REFERENCE[name]
        params = mc.derive_mode_params(
            g=a[f"g_{which}"],
            gamma=a[f"gamma_{which}"],
            cavity=CAVITY,
            material=mc.MaterialParams(diameter=a["diameter"]),
            optical=OPT,
            V_c=CAVITY_VOLUME,
        )
        assert params.N == pytest.approx(ref[f"N_{which}"], rel=0.01)
        assert params.V_m == pytest.approx(ref["V_m"], rel=5e-3)
        assert params.n == pytest.approx(ref[f"n_{which}"], rel=0.01)
        assert params.G == pytest.approx(ref[f"G_{which}"], rel=0.01)
        assert params.delta == pytest.approx(ref[f"delta_{which}"], rel=0.02)
        assert params.C == pytest.approx(ref[f"C_{which}"], rel=0.16)
        assert params.n == params.N / params.V_m  # exact by construction

    def test_explicit_single_spin_coupling_override(self):
        a = ASSEMBLIES["0.45mm"]
        params = mc.derive_mode_params(
            g=a["g_K"], gamma=a["gamma_K"], cavity=CAVITY,
            material=mc.MaterialParams(diameter=a["diameter"]),
            optical=OPT, V_c=CAVITY_VOLUME, g_B=0.325,
        )
        # a 10x larger single-spin coupling implies 100x fewer spins
        assert params.g_B == 0.325
        assert params.N == pytest.approx(1.51e17 / (0.325 / 0.032931269647786116) ** 2, rel=0.01)


SCALING_POINTS = {
    "g_K": ([(0.45e-3, 28.6), (0.75e-3, 67.3), (1.0e-3, 91.0)], None),
    "g_M": ([(0.45e-3, 1.0), (0.75e-3, 4.0), (1.0e-3, 12.0)], [False, True, True]),
    "C_K": ([(0.45e-3, 132.0), (0.75e-3, 1373.0), (1.0e-3, 3487.0)], None),
    "C_M": ([(0.45e-3, 0.19), (0.75e-3, 3.6), (1.0e-3, 64.0)], [False, True, True]),
    "delta_K": ([(0.45e-3, 3.61), (0.75e-3, 1.80), (1.0e-3, 1.75)], None),
    "delta_M": ([(0.45e-3, 2.95), (0.75e-3, 0.512), (1.0e-3, 0.101)], None),
}


class TestScalingFits:
    def test_sqrt_volume_coordinate(self):
        assert mc.derived.sqrt_volume_mm(0.45e-3) == pytest.approx(0.2184329, rel=1e-6)
        assert mc.derived.sqrt_volume_mm(1.0e-3) == pytest.approx(0.7236012, rel=1e-6)

    def test_linear_coupling_coefficient(self):
        points, include = SCALING_POINTS["g_K"]
        fit = mc.fit_scaling_laws(points, "linear_in_sqrtV", include)
        assert fit.coefficients[0] == pytest.approx(130.97, rel=0.01)
        assert fit.included_points == (True, True, True)

    def test_quadratic_coupling_coefficient_two_point_algebra(self):
        points, include = SCALING_POINTS["g_M"]
        fit = mc.fit_scaling_laws(points, "quadratic_in_sqrtV", include)
        # exact two-point least squares: a = sum(z*y)/sum(z^2) with z = x^2
        z = np.array([mc.derived.sqrt_volume_mm(d) ** 2 for d, _ in points[1:]])
        y = np.array([v for _, v in points[1:]])
        assert fit.coefficients[0] == pytest.approx(float(z @ y / (z @ z)), rel=1e-12)
        assert fit.coefficients[0] == pytest.approx(22.19, rel=0.01)

    def test_cooperativity_coefficients(self):
        points, _ = SCALING_POINTS["C_K"]
        fit = mc.fit_scaling_laws(points, "quadratic_in_sqrtV")
        assert fit.coefficients[0] == pytest.approx(6569.43, rel=0.01)
        points, include = SCALING_POINTS["C_M"]
        fit = mc.fit_scaling_laws(points, "quartic_in_sqrtV", include)
        assert fit.coefficients[0] == pytest.approx(228.79, rel=0.01)

    def test_optical_rate_coefficients(self):
        points, _ = SCALING_POINTS["delta_M"]
        fit = mc.fit_scaling_laws(points, "inverse_square")
        assert fit.coefficients[0] == pytest.approx(0.139, rel=0.02)
        points, _ = SCALING_POINTS["delta_K"]
        fit = mc.fit_scaling_laws(points, "offset_plus_inverse")
        a, b = fit.coefficients
        assert a == pytest.approx(0.693, rel=0.05)
        assert b == pytest.approx(0.625, rel=0.05)

    def test_two_parameter_fit_matches_normal_equations(self):
        points, _ = SCALING_POINTS["delta_K"]
        x = np.array([mc.derived.sqrt_volume_mm(d) for d, _ in points])
        y = np.array([v for _, v in points])
        design = np.column_stack([np.ones_like(x), 1 / x])
        expected = np.linalg.solve(design.T @ design, design.T @ y)
        fit = mc.fit_scaling_laws(points, "offset_plus_inverse")
        assert np.allclose(fit.coefficients, expected, rtol=1e-10)

    def test_predict_goes_through_the_points_when_exact(self):
        fit = mc.fit_scaling_laws([(0.5e-3, 2.0), (1.0e-3, 2 * mc.derived.sqrt_volume_mm(1.0e-3) / mc.derived.sqrt_volume_mm(0.5e-3))], "linear_in_sqrtV")
        assert fit.rms_residual < 1e-12

    def test_underdetermined_and_unknown_model(self):
        with pytest.raises(ValueError):
            mc.fit_scaling_laws([(0.45e-3, 1.0)], "offset_plus_inverse")
        with pytest.raises(ValueError):
            mc.fit_scaling_laws([(0.45e-3, 1.0)], "cubic")
        with pytest.raises(ValueError):
            mc.fit_scaling_laws([(0.45e-3, 1.0), (0.75e-3, 2.0)], "linear_in_sqrtV", [True])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_points_are_rejected_by_index(self, bad, column):
        points = [(0.45e-3, 28.6), (0.75e-3, 67.3), (1.0e-3, 91.0)]
        points[2] = (bad, 91.0) if column == 0 else (1.0e-3, bad)
        # masked out or not, a non-finite point is an error that names it
        for include in (None, [True, True, False]):
            with pytest.raises(ValueError, match="^point 2: diameter and value must be finite"):
                mc.fit_scaling_laws(points, "linear_in_sqrtV", include)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1e-3])
    def test_non_positive_diameters_are_rejected_by_index(self, bad):
        points = [(0.45e-3, 28.6), (0.75e-3, 67.3), (bad, 91.0)]
        for include in (None, [True, True, False]):
            with pytest.raises(ValueError, match=f"^point 2: diameter must be positive, got {bad}$"):
                mc.fit_scaling_laws(points, "linear_in_sqrtV", include)


def test_derived_params_validation():
    with pytest.raises(ValueError):
        mc.DerivedParams(g_B=-1.0, N=1, C=1, V_m=1, n=1, G=1, delta=1)
    with pytest.raises(ValueError):
        mc.ScalingFitResult(model="linear_in_sqrtV", coefficients=(1.0, 2.0), included_points=(True,), rms_residual=0.0)
