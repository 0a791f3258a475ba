"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Tolerances are fixed here, not tuned: published reference cells carry
measurement rounding (2-16%), algebraic identities hold to floating
precision (1e-10 to 1e-12), the root solver is held to 1e-9, and the
normal-mode splitting to the 1% that its damping shift stays within.
"""

import numpy as np
import pytest

import magnoncavity as mc

from conftest import (
    ASSEMBLIES,
    CAVITY,
    kittel_system,
    magnon_susceptibility,
    scaled_system,
    two_mode_direct_conversion,
    two_mode_system,
)

MAT = mc.MaterialParams()
OPT = mc.OpticalDrive()


def report(number: int, slug: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {slug}: {status}{suffix}")


def test_01_optical_coupling_pipeline():
    cases = {  # published (G, l, V_m, n) -> expected optical coupling rate
        "0.45mm": (4.81e-25, 0.45e-3, 4.77e-11, 3.16e27, 3.61e-3),
        "0.75mm": (4.02e-25, 0.75e-3, 2.21e-10, 3.79e27, 1.80e-3),
        "1.0mm": (5.21e-25, 1.0e-3, 5.24e-10, 2.92e27, 1.75e-3),
    }
    deviations = {}
    for name, (G, l, V_m, n, expected) in cases.items():
        delta = mc.optical_coupling_rate(G, l, V_m, n, OPT)
        deviations[name] = abs(delta - expected) / expected
    passed = all(dev <= 0.02 for dev in deviations.values())
    report(1, "optical-coupling-rates", passed, f"max dev {max(deviations.values()):.2%}")
    assert passed, deviations


def test_02_cooperativities():
    expected = {
        "0.45mm": (132.0, 0.19),
        "0.75mm": (1373.0, 3.6),
        "1.0mm": (3487.0, 64.0),
    }
    worst = 0.0
    for name, (c_k, c_m) in expected.items():
        a = ASSEMBLIES[name]
        got_k = mc.cooperativity(a["g_K"], 2.7e6, a["gamma_K"])
        got_m = mc.cooperativity(a["g_M"], 2.7e6, a["gamma_M"])
        worst = max(worst, abs(got_k - c_k) / c_k, abs(got_m - c_m) / c_m)
    passed = worst <= 0.16
    report(2, "cooperativities", passed, f"max dev {worst:.2%}")
    assert passed


def test_03_resonant_efficiency_reference_values():
    expected = {"0.45mm": 8.45e-11, "0.75mm": 5.12e-12, "1.0mm": 3.46e-12}
    deviations = {}
    for name, value in expected.items():
        eta = mc.eta_resonant(two_mode_system(name))
        deviations[name] = abs(eta - value) / value
    passed = all(dev <= 0.06 for dev in deviations.values())
    report(3, "resonant-efficiencies", passed, f"max dev {max(deviations.values()):.2%}")
    assert passed, deviations


def test_04_resonant_equivalence_randomized():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for draw in range(100):
        n_modes = 1 + draw % 3
        modes = tuple(
            mc.MagnonMode(
                label=f"m{k}",
                g=float(rng.uniform(1e5, 2e8)),
                gamma=float(rng.uniform(1e4, 2e7)),
                delta=float(rng.uniform(1e-4, 5.0)),
                beta=float(rng.uniform(0.2, 5.0)),
                field_map=mc.FieldMap(kind="fixed", frequency=CAVITY.f_c),
            )
            for k in range(n_modes)
        )
        cavity = mc.CavityParams(
            f_c=CAVITY.f_c,
            kappa_e=float(rng.uniform(1e5, 1e7)),
            kappa_i=float(rng.uniform(0.0, 1e7)),
        )
        sys_ = mc.HybridSystem(cavity=cavity, modes=modes)
        spectral = float(mc.eta_spectrum(cavity.f_c, sys_, 0.0))
        resonant = mc.eta_resonant(sys_)
        worst = max(worst, abs(spectral - resonant) / resonant)
    passed = worst <= 1e-10
    report(4, "resonant-equivalence-100-draws", passed, f"max rel {worst:.2e}")
    assert passed


def test_05_conversion_ratio_identity():
    sys_ = two_mode_system("0.75mm", f_K=CAVITY.f_c, f_M=CAVITY.f_c + 55e6)
    f = np.linspace(CAVITY.f_c - 400e6, CAVITY.f_c + 400e6, 10_000)
    s21 = mc.s21(f, sys_, 0.0)
    worst_ratio = worst_direct = 0.0
    for mode in sys_.modes:
        f_m = mc.mode_frequency(mode.field_map, 0.0, sys_.material)
        chi = magnon_susceptibility(f, mode, f_m)
        via_ratio = -1j * mode.g * chi * np.sqrt(mode.beta * mode.delta / CAVITY.kappa_e) * s21
        got = mc.s31_mode(f, sys_, 0.0, mode.label)
        direct = two_mode_direct_conversion(f, sys_, 0.0, mode.label)
        worst_ratio = max(worst_ratio, float(np.max(np.abs(got - via_ratio) / np.abs(got))))
        worst_direct = max(worst_direct, float(np.max(np.abs(got - direct) / np.abs(got))))
    passed = worst_ratio <= 1e-12 and worst_direct <= 1e-12
    report(5, "conversion-ratio-identity", passed, f"ratio {worst_ratio:.1e}, direct {worst_direct:.1e}")
    assert passed


def test_06_walker_solver_matches_closed_forms():
    pairs = [(j, j) for j in range(1, 6)] + [(j + 1, j) for j in range(1, 5)]
    half = 0.03 * MAT.gamma_e * MAT.mu0_Ms
    worst = 0.0
    for B in np.linspace(0.30, 0.45, 20):
        for (i, j) in pairs:
            q = mc.WalkerModeQuery(i=i, j=j, B_ext=float(B))
            target = mc.msm_frequency_linear(q, MAT)
            root = mc.solve_walker_mode(q, MAT, (target - half, target + half))
            worst = max(worst, abs(root - target) / target)
        q20 = mc.WalkerModeQuery(i=2, j=0, B_ext=float(B))
        target = mc.msm20_frequency(float(B), MAT)
        root = mc.solve_walker_mode(q20, MAT, (target - half, target + half))
        worst = max(worst, abs(root - target) / target)
    passed = worst <= 1e-9
    report(6, "walker-characteristic-oracle", passed, f"max rel {worst:.2e}")
    assert passed


def test_07_degeneracy_field():
    B = mc.field_for_frequency(10.632e9, MAT)
    passed = abs(B - 0.3797) <= 2e-4
    report(7, "degeneracy-field", passed, f"B = {B:.5f} T")
    assert passed


def test_08_scaling_fit_coefficients():
    checks = []

    fit = mc.fit_scaling_laws([(0.45e-3, 28.6), (0.75e-3, 67.3), (1.0e-3, 91.0)], "linear_in_sqrtV")
    checks.append(abs(fit.coefficients[0] - 130.97) / 130.97 <= 0.01)

    fit = mc.fit_scaling_laws(
        [(0.45e-3, 1.0), (0.75e-3, 4.0), (1.0e-3, 12.0)], "quadratic_in_sqrtV", [False, True, True]
    )
    checks.append(abs(fit.coefficients[0] - 22.19) / 22.19 <= 0.01)

    fit = mc.fit_scaling_laws([(0.45e-3, 132.0), (0.75e-3, 1373.0), (1.0e-3, 3487.0)], "quadratic_in_sqrtV")
    checks.append(abs(fit.coefficients[0] - 6569.43) / 6569.43 <= 0.01)

    fit = mc.fit_scaling_laws(
        [(0.45e-3, 0.19), (0.75e-3, 3.6), (1.0e-3, 64.0)], "quartic_in_sqrtV", [False, True, True]
    )
    checks.append(abs(fit.coefficients[0] - 228.79) / 228.79 <= 0.01)

    fit = mc.fit_scaling_laws([(0.45e-3, 2.95), (0.75e-3, 0.512), (1.0e-3, 0.101)], "inverse_square")
    checks.append(abs(fit.coefficients[0] - 0.139) / 0.139 <= 0.02)

    fit = mc.fit_scaling_laws([(0.45e-3, 3.61), (0.75e-3, 1.80), (1.0e-3, 1.75)], "offset_plus_inverse")
    checks.append(abs(fit.coefficients[0] - 0.693) / 0.693 <= 0.05)
    checks.append(abs(fit.coefficients[1] - 0.625) / 0.625 <= 0.05)

    passed = all(checks)
    report(8, "size-scaling-fits", passed, f"{sum(checks)}/7 coefficients in tolerance")
    assert passed, checks


def test_09_noisy_fit_round_trip():
    a = ASSEMBLIES["0.45mm"]
    mode = mc.MagnonMode(
        label="kittel", g=a["g_K"], gamma=a["gamma_K"], delta=a["delta_K"],
        field_map=mc.FieldMap(kind="fixed", frequency=CAVITY.f_c),
    )
    truth = mc.HybridSystem(cavity=CAVITY, modes=(mode,))
    grid = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 2001)
    free = {
        "f_c": (10.0e9, 11.2e9),
        "kappa_e": (1e5, 1e8),
        "g.kittel": (1e6, 1e9),
        "gamma.kittel": (1e4, 1e8),
        "f_m.kittel": (10.0e9, 11.2e9),
    }
    init = {
        "f_c": CAVITY.f_c + 5e6,
        "kappa_e": 2.4e6,
        "g.kittel": 32e6,
        "gamma.kittel": 2.0e6,
        "f_m.kittel": CAVITY.f_c - 5e6,
    }
    successes = 0
    for seed in range(20):
        observed = mc.synthesize_noisy_spectrum(truth, 0.0, grid, noise_sigma=0.01, seed=seed)
        problem = mc.FitProblem(observed=observed, system=truth, free=free, B=0.0)
        result = mc.fit_spectrum(problem, init)
        ok = (
            result.converged
            and abs(result.estimates["g.kittel"] - a["g_K"]) / a["g_K"] <= 0.02
            and abs(result.estimates["gamma.kittel"] - a["gamma_K"]) / a["gamma_K"] <= 0.02
            and abs(result.estimates["f_c"] - CAVITY.f_c) / CAVITY.f_c <= 1e-4
        )
        successes += ok
    passed = successes >= 19
    report(9, "noisy-fit-round-trip", passed, f"{successes}/20 seeds")
    assert passed


def test_10_normal_mode_splitting():
    # the two |S21|^2 maxima of the 0.45 mm Kittel assembly at the degeneracy
    # field lie 2g apart, up to a damping shift of about kappa_t*gamma/(2g^2) = 0.38%
    sys_ = kittel_system("0.45mm")
    g = ASSEMBLIES["0.45mm"]["g_K"]
    B = CAVITY.f_c / sys_.material.gamma_e
    f = np.linspace(CAVITY.f_c - 60e6, CAVITY.f_c + 60e6, 120_001)  # 1 kHz steps
    power = np.abs(mc.amplitudes(f, sys_, B)[0]) ** 2
    peaks = np.flatnonzero((power[1:-1] > power[:-2]) & (power[1:-1] > power[2:])) + 1
    gap = float(f[peaks[-1]] - f[peaks[0]])
    rel = abs(gap - 2 * g) / (2 * g)
    passed = len(peaks) == 2 and 2 * g == 57.2e6 and rel <= 1e-2
    report(10, "normal-mode-splitting", passed, f"gap {gap / 1e6:.4f} MHz, {rel:.2%} from 2g")
    assert passed


def test_11_phase_confinement_over_sweep_domain():
    sys_ = kittel_system("0.45mm")
    f = np.linspace(CAVITY.f_c - 150e6, CAVITY.f_c + 150e6, 1001)
    confined = True
    for B in np.linspace(0.3797, 0.3818, 22):
        phases = np.angle(1j * mc.s21(f, sys_, float(B)))
        confined &= bool(np.all((phases > -np.pi) & (phases < 0)))
    report(11, "phase-confinement", confined)
    assert confined


def test_12_unit_scale_invariance():
    sys_ = two_mode_system("0.75mm", f_M=CAVITY.f_c + 55e6)
    f = np.linspace(CAVITY.f_c - 200e6, CAVITY.f_c + 200e6, 801)
    base_s21 = mc.s21(f, sys_, 0.0)
    base_s11 = mc.s11(f, sys_, 0.0)
    base_eta = mc.eta_spectrum(f, sys_, 0.0)
    worst = 0.0
    for lam in (1e-3, 1.0, 1e3):
        other = scaled_system(sys_, lam)
        worst = max(worst, float(np.max(np.abs(mc.s21(f * lam, other, 0.0) - base_s21) / np.abs(base_s21))))
        worst = max(worst, float(np.max(np.abs(mc.s11(f * lam, other, 0.0) - base_s11) / np.abs(base_s11))))
        worst = max(worst, float(np.max(np.abs(mc.eta_spectrum(f * lam, other, 0.0) - base_eta) / base_eta)))
        worst = max(worst, abs(mc.eta_resonant(other) - mc.eta_resonant(sys_)) / mc.eta_resonant(sys_))
    passed = worst <= 1e-12
    report(12, "unit-scale-invariance", passed, f"max rel {worst:.2e}")
    assert passed


def test_13_offset_position_efficiency_order_of_magnitude():
    modes = (
        mc.MagnonMode(label="kittel", g=83.4e6, gamma=1.1e6, delta=1.75e-3,
                      field_map=mc.FieldMap(kind="fixed", frequency=CAVITY.f_c)),
        mc.MagnonMode(label="msm", g=25.0e6, gamma=0.5e6, delta=0.101,
                      field_map=mc.FieldMap(kind="fixed", frequency=CAVITY.f_c)),
    )
    sys_ = mc.HybridSystem(cavity=CAVITY, modes=modes)
    eta = mc.eta_resonant(sys_)
    ratio = eta / 1.02e-11
    passed = 0.1 <= ratio <= 10.0
    report(13, "offset-position-efficiency", passed, f"eta {eta:.2e}, ratio {ratio:.2f}")
    assert passed
