import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import lpmv

import magnoncavity as mc
from magnoncavity import magnetostatics
from magnoncavity.errors import DomainError
from magnoncavity.magnetostatics import default_search_window, solve_walker_modes

from conftest import CAVITY, saturation_pattern

MAT = mc.MaterialParams()
F_M = MAT.gamma_e * MAT.mu0_Ms  # 4.984 GHz for the default material


# Explicit closed forms (Condon-Shortley phase) for degree <= 3, used as
# the oracle for the recurrence-based evaluation.
def _s(x):
    return math.sqrt(1 - x * x)


LEGENDRE_TABLE = {
    (1, 0): (lambda x: x, lambda x: 1.0),
    (1, 1): (lambda x: -_s(x), lambda x: x / _s(x)),
    (2, 0): (lambda x: (3 * x * x - 1) / 2, lambda x: 3 * x),
    (2, 1): (lambda x: -3 * x * _s(x), lambda x: (6 * x * x - 3) / _s(x)),
    (2, 2): (lambda x: 3 * (1 - x * x), lambda x: -6 * x),
    (3, 0): (lambda x: (5 * x**3 - 3 * x) / 2, lambda x: (15 * x * x - 3) / 2),
    (3, 1): (
        lambda x: -1.5 * (5 * x * x - 1) * _s(x),
        lambda x: -1.5 * x * (11 - 15 * x * x) / _s(x),
    ),
    (3, 2): (lambda x: 15 * x * (1 - x * x), lambda x: 15 - 45 * x * x),
    (3, 3): (lambda x: -15 * (1 - x * x) ** 1.5, lambda x: 45 * x * _s(x)),
}


def _oracle_legendre_pair(i, m, z):
    """P_i^m(z) and N = (z^2 - 1) dP_i^m/dz for 0 <= m <= i in CPython complex arithmetic (forward recurrences)."""
    p_mm = 1.0 + 0.0j
    for k in range(1, m + 1):
        p_mm *= -(2 * k - 1) * (1.0 - z * z) ** 0.5
    p_prev, p_curr = 0.0 + 0.0j, p_mm
    for n in range(m + 1, i + 1):
        p_prev, p_curr = p_curr, ((2 * n - 1) * z * p_curr - (n - 1 + m) * p_prev) / (n - m)
    return p_curr, i * z * p_curr - (i + m) * p_prev


def assoc_legendre(i: int, j: int, x):
    """Associated Legendre function P_i^j and its first derivative at x, from the recurrence of the residual oracle.

    Negative j is mapped through the proportionality
    P_i^{-m} = (-1)^m (i-m)!/(i+m)! P_i^m. Real input yields real output
    whenever the function is real there (always for even j, and for odd j
    when |x| <= 1); otherwise a complex pair is returned.
    """
    if i < 1:
        raise ValueError("degree i must be >= 1")
    if not -i <= j <= i:
        raise ValueError("order j must satisfy -i <= j <= i")
    if not (isinstance(x, complex) or math.isfinite(x)):
        raise ValueError("x must be finite")
    z = complex(x)
    if z * z - 1.0 == 0:
        raise DomainError("Legendre derivative is singular at z = +/-1")
    m = abs(j)
    p, n = _oracle_legendre_pair(i, m, z)
    dp = n / (z * z - 1.0)
    if j < 0:
        scale = (-1) ** m * math.factorial(i - m) / math.factorial(i + m)
        p, dp = scale * p, scale * dp
    if not isinstance(x, complex):
        mag = max(abs(p), abs(dp), 1.0)
        if abs(p.imag) <= 1e-13 * mag and abs(dp.imag) <= 1e-13 * mag:
            return p.real, dp.real
    return p, dp


class TestAssocLegendre:
    @pytest.mark.parametrize("ij", sorted(LEGENDRE_TABLE))
    def test_against_explicit_closed_forms(self, ij):
        i, j = ij
        p_ref, dp_ref = LEGENDRE_TABLE[ij]
        for x in (-0.9, -0.35, 0.12, 0.5, 0.83):
            p, dp = assoc_legendre(i, j, x)
            assert p == pytest.approx(p_ref(x), rel=1e-12, abs=1e-14)
            assert dp == pytest.approx(dp_ref(x), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("ij", [(1, 1), (2, 1), (3, 2), (4, 3), (5, 5)])
    def test_against_scipy_reference(self, ij):
        i, j = ij
        for x in np.linspace(-0.95, 0.95, 7):
            p, _ = assoc_legendre(i, j, float(x))
            assert p == pytest.approx(float(lpmv(j, i, x)), rel=1e-10, abs=1e-12)

    def test_polynomial_orders_outside_unit_interval(self):
        p, dp = assoc_legendre(2, 0, 2.0)
        assert p == 5.5
        assert dp == 6.0
        p, dp = assoc_legendre(1, 0, 0.3)
        assert (p, dp) == (0.3, 1.0)

    def test_derivative_consistent_with_central_differences(self):
        h = 1e-6
        for (i, j) in [(2, 2), (3, 1), (4, 2), (5, 4)]:
            for x in (-0.6, 0.2, 0.7):
                _, dp = assoc_legendre(i, j, x)
                pp, _ = assoc_legendre(i, j, x + h)
                pm, _ = assoc_legendre(i, j, x - h)
                assert dp == pytest.approx((pp - pm) / (2 * h), rel=1e-7)

    def test_negative_order_proportionality(self):
        for x in (-0.4, 0.25, 0.8):
            p_pos, dp_pos = assoc_legendre(2, 1, x)
            p_neg, dp_neg = assoc_legendre(2, -1, x)
            scale = -math.factorial(1) / math.factorial(3)
            assert p_neg == pytest.approx(scale * p_pos, rel=1e-12)
            assert dp_neg == pytest.approx(scale * dp_pos, rel=1e-12)

    def test_imaginary_argument_keeps_ratio_real(self):
        # the characteristic equation evaluates these when xi0^2 < 0
        for (i, j) in [(4, 4), (5, 5), (5, 4)]:
            z = 0.37j
            p, dp = assoc_legendre(i, j, z)
            ratio = z * dp / p
            assert abs(ratio.imag) < 1e-12 * max(1.0, abs(ratio.real))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            assoc_legendre(0, 0, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre(2, 3, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre(2, 1, float("nan"))


def polynomial_legendre_pair(i, j, xi):
    """P_i^j and dP_i^j/dxi at complex xi from P_i^j = (-1)^j (1 - xi^2)^{j/2} d^j P_i/dxi^j, principal branch."""
    q = np.polynomial.legendre.Legendre.basis(i).deriv(j)
    root = np.emath.sqrt((1 - xi * xi).real)  # 1 - xi^2 is real for real and imaginary xi
    sign = (-1) ** j
    return sign * root**j * q(xi), sign * (root**j * q.deriv()(xi) - j * xi * root ** (j - 2) * q(xi))


# the arguments of the float recurrence (z, z_flip) and the complex xi they stand for
LEGENDRE_ARGUMENTS = {
    "real in (-1, 1)": np.linspace(-0.95, 0.95, 39),
    "real beyond +/-1": np.concatenate([-np.geomspace(3.0, 1.05, 20), np.geomspace(1.05, 3.0, 20)]),
    "imaginary": np.linspace(-3.0, 3.0, 40),
}


@pytest.mark.parametrize("kind", sorted(LEGENDRE_ARGUMENTS))
@pytest.mark.parametrize("i", range(1, 7))
def test_legendre_pair_matches_the_polynomials_and_the_complex_recurrence(i, kind):
    z = LEGENDRE_ARGUMENTS[kind]
    imaginary = kind == "imaginary"
    z_flip, xi = (-z, 1j * z) if imaginary else (z, z + 0j)
    for j in range(i + 1):
        p, n = magnetostatics._legendre_pair(i, j, z, z_flip)
        assert p.dtype == n.dtype == np.float64
        # which of P and N = (xi^2 - 1) dP/dxi is imaginary: the docstring's rule
        p_imaginary = (i - j) % 2 == 1 if imaginary else (j % 2 == 1 and "beyond" in kind)
        n_imaginary = (i - j) % 2 == 0 if imaginary else p_imaginary
        p_c, n_c = p * (1j if p_imaginary else 1), n * (1j if n_imaginary else 1)
        p_ref, dp_ref = polynomial_legendre_pair(i, j, xi)
        n_ref = dp_ref * (xi * xi - 1)
        scale = np.abs(p_ref).max()
        np.testing.assert_allclose(p_c, p_ref, rtol=1e-10, atol=1e-13 * scale)
        np.testing.assert_allclose(n_c, n_ref, rtol=1e-10, atol=1e-12 * np.abs(n_ref).max())
        # and the values of the complex recurrence, bit for bit but for the sign of a zero
        p_o, n_o = complex_legendre_pair(i, j, xi)
        assert p.tolist() == (p_o.imag if p_imaginary else p_o.real).tolist()
        assert n.tolist() == (n_o.imag if n_imaginary else n_o.real).tolist()
        assert not np.any(p_o.real if p_imaginary else p_o.imag)
        assert not np.any(n_o.real if n_imaginary else n_o.imag)
        if kind == "real in (-1, 1)":  # against scipy and its central differences
            x, h = z, 1e-6
            np.testing.assert_allclose(p, lpmv(j, i, x), rtol=1e-10, atol=1e-12 * scale)
            central = (lpmv(j, i, x + h) - lpmv(j, i, x - h)) / (2 * h)
            np.testing.assert_allclose(n / (x * x - 1), central, rtol=1e-6, atol=1e-6 * scale)


class TestClosedForms:
    def test_kittel_line(self):
        assert mc.kittel_frequency(0.3797, MAT) == pytest.approx(1.06316e10, rel=1e-5)
        with pytest.raises(ValueError, match=saturation_pattern(0.0)):  # the line holds for a saturated sphere only
            mc.kittel_frequency(0.0, MAT)
        assert mc.kittel_frequency(0.76, MAT) == pytest.approx(2 * mc.kittel_frequency(0.38, MAT), rel=1e-14)

    def test_degeneracy_field_of_reference_cavity(self):
        B = mc.field_for_frequency(10.632e9, MAT)
        assert B == pytest.approx(0.37971, abs=1e-5)
        assert mc.kittel_frequency(B, MAT) == pytest.approx(10.632e9, rel=1e-14)

    def test_lowest_index_reduces_to_kittel(self):
        for B in np.linspace(0.30, 0.45, 7):
            q = mc.WalkerModeQuery(i=1, j=1, B_ext=float(B))
            assert mc.msm_frequency_linear(q, MAT) == pytest.approx(mc.kittel_frequency(B, MAT), rel=1e-14)

    def test_equal_index_offset(self):
        q = mc.WalkerModeQuery(i=2, j=2, B_ext=0.38)
        offset = mc.msm_frequency_linear(q, MAT) - mc.kittel_frequency(0.38, MAT)
        assert offset == pytest.approx((2 / 5 - 1 / 3) * F_M, rel=1e-12)
        assert offset == pytest.approx(0.33227e9, rel=1e-4)

    def test_adjacent_index_offset(self):
        q = mc.WalkerModeQuery(i=2, j=1, B_ext=0.38)
        offset = mc.msm_frequency_linear(q, MAT) - mc.kittel_frequency(0.38, MAT)
        assert offset == pytest.approx((1 / 5 - 1 / 3) * F_M, rel=1e-12)
        assert offset == pytest.approx(-0.66453e9, rel=1e-4)

    def test_linear_in_field_with_slope_gamma(self):
        q1 = mc.WalkerModeQuery(i=3, j=2, B_ext=0.30)
        q2 = mc.WalkerModeQuery(i=3, j=2, B_ext=0.45)
        slope = (mc.msm_frequency_linear(q2, MAT) - mc.msm_frequency_linear(q1, MAT)) / 0.15
        assert slope == pytest.approx(MAT.gamma_e, rel=1e-12)

    def test_rejects_wrong_index_patterns(self):
        with pytest.raises(ValueError):
            mc.msm_frequency_linear(mc.WalkerModeQuery(i=3, j=1, B_ext=0.38), MAT)
        with pytest.raises(ValueError):
            mc.msm_frequency_linear(mc.WalkerModeQuery(i=2, j=0, B_ext=0.38), MAT)
        with pytest.raises(ValueError):
            mc.msm_frequency_linear(mc.WalkerModeQuery(i=2, j=-2, B_ext=0.38), MAT)

    def test_mode20_value_and_domain(self):
        r = 0.38 / MAT.mu0_Ms
        expected = F_M * math.sqrt((r - 1 / 3) * (r + 7 / 15))
        assert mc.msm20_frequency(0.38, MAT) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.079e10, rel=1e-3)
        with pytest.raises(ValueError, match=saturation_pattern(MAT.mu0_Ms / 3)) as raised:
            mc.msm20_frequency(MAT.mu0_Ms / 3, MAT)
        assert not isinstance(raised.value, DomainError)

    def test_mode20_large_field_asymptote(self):
        B = 100 * MAT.mu0_Ms
        asymptote = MAT.gamma_e * B + F_M / 15
        assert mc.msm20_frequency(B, MAT) == pytest.approx(asymptote, rel=2e-5)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            mc.WalkerModeQuery(i=0, j=0, B_ext=0.38)
        with pytest.raises(ValueError):
            mc.WalkerModeQuery(i=2, j=3, B_ext=0.38)
        # a query checks only its indices; its field is checked where it meets the material
        q = mc.WalkerModeQuery(i=2, j=1, B_ext=-0.1)
        with pytest.raises(ValueError, match=saturation_pattern(-0.1)):
            mc.solve_walker_mode(q, MAT)


class TestCharacteristicEquation:
    def test_residual_vanishes_at_kittel_frequency(self):
        q = mc.WalkerModeQuery(i=1, j=1, B_ext=0.38)
        f0 = mc.kittel_frequency(0.38, MAT)
        assert abs(mc.walker_characteristic(f0, q, MAT)) < 1e-9

    @pytest.mark.parametrize("ij", [(2, 2), (3, 3), (2, 1), (3, 2)])
    def test_residual_sign_change_brackets_closed_forms(self, ij):
        i, j = ij
        q = mc.WalkerModeQuery(i=i, j=j, B_ext=0.38)
        f0 = mc.msm_frequency_linear(q, MAT)
        w = 0.02 * F_M
        left = mc.walker_characteristic(f0 - w, q, MAT)
        right = mc.walker_characteristic(f0 + w, q, MAT)
        assert left * right < 0

    def test_residual_nonzero_away_from_roots(self):
        q = mc.WalkerModeQuery(i=2, j=2, B_ext=0.38)
        f0 = mc.msm_frequency_linear(q, MAT)
        assert abs(mc.walker_characteristic(f0 + 0.2 * F_M, q, MAT)) > 0.1

    def test_pole_at_internal_field_frequency_reported(self):
        q = mc.WalkerModeQuery(i=2, j=2, B_ext=0.38)
        f_pole = MAT.gamma_e * mc.internal_field(0.38, MAT)
        with pytest.raises(DomainError):
            mc.walker_characteristic(f_pole, q, MAT)

    @pytest.mark.parametrize("offset", [-1e-13, 1e-13])
    def test_a_pair_without_a_pole_at_the_internal_field_frequency_is_finite_next_to_it(self, offset):
        # R of (1,-1) has no pole at f = x: it tends to 3 + f_M/(x + f) there, and raises only exactly at f = x,
        # where the recurrence sees xi0^2 = 1
        q = mc.WalkerModeQuery(i=1, j=-1, B_ext=0.38)
        x = MAT.gamma_e * mc.internal_field(0.38, MAT)
        f = x * (1.0 + offset)
        assert mc.walker_characteristic(f, q, MAT) == pytest.approx(3 + F_M / (x + f), abs=1e-3)
        with pytest.raises(DomainError, match=r"characteristic residual of \(1,-1\) is undefined"):
            mc.walker_characteristic(x, q, MAT)

    def test_non_finite_frequency_rejected(self):
        q = mc.WalkerModeQuery(i=1, j=1, B_ext=0.38)
        with pytest.raises(ValueError):
            mc.walker_characteristic(float("inf"), q, MAT)


class TestSolver:
    @pytest.mark.parametrize("ij", [(1, 1), (2, 2), (4, 4), (2, 1), (4, 3), (5, 4)])
    def test_matches_linear_closed_forms(self, ij):
        i, j = ij
        for B in (0.31, 0.38, 0.44):
            q = mc.WalkerModeQuery(i=i, j=j, B_ext=B)
            target = mc.msm_frequency_linear(q, MAT)
            w = 0.03 * F_M
            root = mc.solve_walker_mode(q, MAT, (target - w, target + w))
            assert root == pytest.approx(target, rel=1e-9)

    def test_matches_mode20_closed_form(self):
        for B in (0.32, 0.38, 0.43):
            target = mc.msm20_frequency(B, MAT)
            q = mc.WalkerModeQuery(i=2, j=0, B_ext=B)
            w = 0.03 * F_M
            root = mc.solve_walker_mode(q, MAT, (target - w, target + w))
            assert root == pytest.approx(target, rel=1e-9)

    def test_default_window_finds_the_single_root(self):
        q = mc.WalkerModeQuery(i=2, j=2, B_ext=0.38)
        root = mc.solve_walker_mode(q, MAT)
        assert root == pytest.approx(mc.msm_frequency_linear(q, MAT), rel=1e-9)

    def test_empty_bracket_is_an_error_not_a_root(self):
        q = mc.WalkerModeQuery(i=1, j=1, B_ext=0.38)
        f0 = mc.kittel_frequency(0.38, MAT)
        with pytest.raises(DomainError):
            mc.solve_walker_mode(q, MAT, (f0 + 0.05 * F_M, f0 + 0.10 * F_M))

    def test_ambiguous_window_is_an_error(self):
        # the (3,1) family has two magnetostatic roots inside the default window
        q = mc.WalkerModeQuery(i=3, j=1, B_ext=0.38)
        with pytest.raises(DomainError, match="2 roots") as raised:
            mc.solve_walker_mode(q, MAT)
        # the message names them, in ascending order: the roots of the windows that isolate them
        roots = [mc.solve_walker_mode(q, MAT, window) for window in ((9.4e9, 9.8e9), (10.8e9, 11.1e9))]
        assert str(raised.value).endswith(f" for (3,1) at {roots[0]:.6e}, {roots[1]:.6e} Hz; narrow it")

    def test_bad_window_rejected(self):
        q = mc.WalkerModeQuery(i=1, j=1, B_ext=0.38)
        with pytest.raises(ValueError):
            mc.solve_walker_mode(q, MAT, (1e10, 1e9))

    def test_higher_family_roots_are_genuine(self):
        # both (3,1) roots satisfy the characteristic equation when isolated
        q = mc.WalkerModeQuery(i=3, j=1, B_ext=0.38)
        for window in ((9.4e9, 9.8e9), (10.8e9, 11.1e9)):
            root = mc.solve_walker_mode(q, MAT, window)
            assert abs(mc.walker_characteristic(root, q, MAT)) < 1e-6


def panels_of(q, material=MAT) -> int:
    """The number of panels the solver splits the windows of ``q`` into: _n_panels at its internal field."""
    h = material.gamma_e * mc.internal_field(q.B_ext, material) / (material.gamma_e * material.mu0_Ms)
    return int(magnetostatics._n_panels(q.i, np.array([h])).item())


def one_point_cleared(q, material=MAT):
    """The cleared residual of ``q`` as a scalar function: a one-point _cleared_grid, DomainError at a NaN."""

    def cleared(f):
        value = magnetostatics._cleared_grid(np.array([f]), np.array([q.B_ext]), q.i, q.j, material).item()
        if math.isnan(value):
            raise DomainError(f"the cleared residual of ({q.i},{q.j}) is NaN at f = {f!r}")
        return value

    return cleared


def scalar_scan_reference(q, window, f_tol=1.0, material=MAT):
    """The Walker solve as one scalar loop: every panel edge through the one-point cleared residual.

    An edge where it is 0.0 is a root, and so is the root that scipy's
    brentq finds in each panel whose edges change sign strictly, unless the
    search meets a NaN. The batched solver, which scans only the panels
    next to a root of the characteristic polynomial, must return exactly
    this root, or raise exactly this error.
    """
    lo, hi = default_search_window(q, material) if window is None else window
    cleared = one_point_cleared(q, material)
    n_panels = panels_of(q, material)
    edges = [lo + (hi - lo) * k / n_panels for k in range(n_panels + 1)]
    values = [math.nan if isinstance(r, str) else r for r in (outcome(cleared, f) for f in edges)]
    roots = [f for f, r in zip(edges, values) if r == 0]
    for (fa, ra), (fb, rb) in zip(zip(edges, values), zip(edges[1:], values[1:])):
        if not (ra < 0 < rb or rb < 0 < ra):  # no strict sign change, or a NaN edge
            continue
        try:
            roots.append(brentq(cleared, fa, fb, xtol=f_tol))
        except DomainError:
            continue
    if not roots:
        raise DomainError(f"no root of the ({q.i},{q.j}) characteristic equation in ({lo:.6e}, {hi:.6e}) Hz")
    if len(roots) > 1:
        at = ", ".join(f"{root:.6e}" for root in sorted(roots))
        raise DomainError(
            f"window ({lo:.6e}, {hi:.6e}) Hz contains {len(roots)} roots for ({q.i},{q.j}) at {at} Hz; narrow it"
        )
    return roots[0]


def outcome(solve, *args):
    try:
        return solve(*args)
    except DomainError as exc:
        return str(exc)


def scalar_residual_oracle(f, q):
    """The characteristic residual at one point in CPython float and complex arithmetic.

    Returns the residual and chi1, or None where it is undefined: at the
    chi pole f^2 = x^2, for chi1 == 0, xi0^2 = 1, P_i^j == 0, and a residual
    that is not real.
    """
    x = MAT.gamma_e * mc.internal_field(q.B_ext, MAT)
    den = x * x - f * f
    if den == 0 or x == 0:
        return None
    xi0 = complex(1.0 + den / (F_M * x)) ** 0.5  # xi0^2 = 1 + 1/chi1
    if xi0 * xi0 == 1:
        return None
    p, n = _oracle_legendre_pair(q.i, abs(q.j), xi0)
    if p == 0:
        return None
    # dP = N/(xi0^2 - 1) = N chi1, with chi1 from x and f rather than from the rounded xi0
    chi1 = F_M * x / den
    value = (q.i + 1) + xi0 * n * chi1 / p + q.j * F_M * f / den
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        return None
    return value.real, chi1


# The cleared residual's complex evaluation, which the float64 one replaces bit for bit.


def complex_legendre_pair(i: int, j: int, z):
    """P_i^j(z) and N = i z P_i^j - (i + j) P_{i-1}^j = (z^2 - 1) dP_i^j/dz for 0 <= j <= i via forward recurrences.

    Complex-capable: the seed (1 - z^2)^{j/2} uses the principal branch.
    Includes the Condon-Shortley phase (matches scipy.special.lpmv on
    real arguments in (-1, 1)). Plain arithmetic, so ``z`` may be a complex
    scalar or a complex array.
    """
    somx2 = (1.0 - z * z) ** 0.5
    p_jj = 1.0 + 0.0j
    for k in range(1, j + 1):
        p_jj *= -(2 * k - 1) * somx2
    if i == j:
        p_im1, p_i = 0.0 + 0.0j, p_jj  # P_{j-1}^j vanishes
    else:
        p_prev, p_curr = p_jj, z * (2 * j + 1) * p_jj
        for n in range(j + 2, i + 1):
            p_prev, p_curr = p_curr, ((2 * n - 1) * z * p_curr - (n - 1 + j) * p_prev) / (n - j)
        p_im1, p_i = p_prev, p_curr
    return p_i, i * z * p_i - (i + j) * p_im1


def complex_cleared_grid(f, B_ext, i: int, j: int, material, negate=True):
    """The cleared residual C = (i+1) P (x^2 - f^2) + xi0 N f_M x + j f_M f P in numpy complex arithmetic.

    C is real or imaginary; this returns its one nonzero component, the imaginary part where P is imaginary. As
    in the package (with ``negate``), it is negated where f^2 > x^2 for the pairs whose C changes sign at the chi
    pole of a saturating field (x > 0), those with (floor(|j|/2) odd) == (j > 0), and it is NaN where xi0^2 is 0
    or 1 and where it is not finite.
    """
    x = material.gamma_e * mc.internal_field(B_ext, material)
    f_M = material.gamma_e * material.mu0_Ms
    m = abs(j)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = x * x - f * f
        square = 1.0 + den / (f_M * x)
        xi0 = square.astype(complex) ** 0.5
        p, n = complex_legendre_pair(i, m, xi0)
        value = (i + 1) * p * den + xi0 * n * (f_M * x) + j * f_M * f * p
        imaginary = ((square < 0) & ((i - m) % 2 == 1)) | ((square > 1) & (m % 2 == 1))
        component = np.where(imaginary, value.imag, value.real)
        if negate:
            component = np.where((den < 0) & ((m // 2 % 2 == 1) == (j > 0)), -component, component)
        seen = xi0 * xi0  # the xi0^2 of the recurrence
        undefined = (seen == 0) | (seen == 1) | ~np.isfinite(component)
    return np.where(undefined, np.nan, component)


def assert_same_residual_bits(got, expected):
    """The same NaNs, and the same bits everywhere else (the sign of a zero included)."""
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].view(np.uint64).tolist() == expected[~nan].view(np.uint64).tolist()


@st.composite
def residual_arrays(draw):
    """A random material, an index pair (i <= 8, either sign of j), a bias field and probe frequencies.

    The field saturates the sphere: it lies just above mu0_Ms/3 (where chi1
    vanishes, and a few ulps from it, where xi0 is largest), in the usual
    range or up to 1e30 T. The probes lie in the default window, next to the chi pole (as
    in :func:`residual_points`), at 1 Hz, or from 1e20 up to 1e40 Hz, where
    the terms of the residual overflow next to mu0_Ms/3.
    """
    material = mc.MaterialParams(
        mu0_Ms=draw(st.floats(-3.0, 1.0).map(lambda e: 10.0**e)),
        gamma_e=draw(st.floats(8.0, 11.0).map(lambda e: 10.0**e)),
    )
    i = draw(st.integers(1, 8))
    j = draw(st.integers(-i, i))
    third = material.mu0_Ms / 3
    B = draw(st.one_of(
        st.floats(0.0, 1e-6, exclude_min=True).map(lambda u: third * (1.0 + u)),
        st.integers(1, 4).map(lambda k: ulps_from(third, k)),
        st.floats(1.0 / 3.0, 3.0, exclude_min=True).map(lambda r: r * material.mu0_Ms),
        st.floats(-6.0, 30.0).map(lambda e: 10.0**e),
    ).filter(lambda B: B > third))
    f_M = material.gamma_e * material.mu0_Ms
    pole = abs(material.gamma_e * mc.internal_field(B, material))
    probe = st.one_of(
        st.floats(-1.5, 1.5).map(lambda u: material.gamma_e * B + u * f_M),
        st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(2.0, 16.0)).map(
            lambda d: pole * (1.0 + d[0] * 10.0 ** -d[1])
        ),
        st.just(1.0),
        st.floats(20.0, 40.0).map(lambda e: 10.0**e),
    )
    return material, i, j, B, np.array(draw(st.lists(probe, min_size=8, max_size=32)))


def scan_every_panel(monkeypatch):
    """Make the solver scan every panel edge of every window, as though a root were next to each."""

    monkeypatch.setattr(magnetostatics, "_walker_root", lambda i, j, h: np.full(h.size, math.nan))


def record_grid(monkeypatch, nan_at=()):
    """Record every (B_ext, f) point each call of the array cleared residual evaluates, in a list of calls.

    The cleared residual is NaN at the frequencies in ``nan_at``.
    """
    calls = []
    grid = magnetostatics._cleared_grid

    def recorded(f, B_ext, i, j, material, residual=False):
        fs, fields = np.broadcast_arrays(f, B_ext)
        calls.append(list(zip(fields.ravel().tolist(), fs.ravel().tolist())))
        values = grid(f, B_ext, i, j, material, residual)
        return np.where(np.isin(fs, list(nan_at)), np.nan, values)

    monkeypatch.setattr(magnetostatics, "_cleared_grid", recorded)
    return calls


@st.composite
def residual_points(draw):
    """A Walker query and a probe frequency: in its default window, or next to the chi pole."""
    i = draw(st.integers(1, 4))
    j = draw(st.integers(-i, i))
    B = draw(st.floats(0.07, 0.6))
    q = mc.WalkerModeQuery(i=i, j=j, B_ext=B)
    if draw(st.booleans()):
        # within relative offsets of 1e-2 to 1e-13 of the chi pole, where R is finite for j <= 0
        pole = MAT.gamma_e * mc.internal_field(B, MAT)
        return q, pole * (1.0 + draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** -draw(st.floats(2.0, 13.0)))
    lo, hi = default_search_window(q, MAT)
    return q, lo + (hi - lo) * draw(st.floats(0.0, 1.0))


# (2,2) at 0.365 T: the array cleared residual is exactly 0.0 at the closed
# form, which is the centre edge of its closed-form window
EDGE_ROOT = mc.WalkerModeQuery(i=2, j=2, B_ext=0.365)


@st.composite
def walker_solves(draw, max_n=7, field_range="any"):
    """A material, an index pair (n <= max_n, either sign of j), and one to four fields of it, each with its window.

    mu0_Ms is drawn from 0.05 to 0.8 T and gamma_e from 20 to 35 GHz/T. A
    field saturates the sphere: it lies above mu0_Ms/3, up to 1 T above it;
    with ``field_range`` "above", from mu0_Ms/3 + 0.01 T, and with "near",
    at an internal field h mu0_Ms, h log-uniform from _H_FLOOR to 0.0125,
    where the panel count grows as the band narrows. A window is the
    default one, the closed-form window of (n, |j|) where it has a closed
    form there, or a narrow window 1e-6 to 0.03 gamma_e*mu0_Ms wide around
    that closed form or a point of the default window. Returns (material,
    (n, j), fields, windows), None for a default window.
    """
    material = mc.MaterialParams(mu0_Ms=draw(st.floats(0.05, 0.8)), gamma_e=draw(st.floats(20e9, 35e9)))
    n = draw(st.integers(1, max_n))
    j = draw(st.integers(-n, n))
    third = material.mu0_Ms / 3
    if field_range == "near":
        h = st.floats(math.log10(magnetostatics._H_FLOOR), math.log10(0.0125)).map(lambda e: 10.0**e)
        field = h.map(lambda h: third + h * material.mu0_Ms)
    else:
        field = st.floats(*{"any": (third, third + 1.0), "above": (third + 0.01, third + 1.0)}[field_range],
                          exclude_min=True)
    fields = draw(st.lists(field, min_size=1, max_size=4))
    closed_map = magnetostatics.closed_form_map(n, abs(j))
    windows = []
    for B in fields:
        kind = draw(st.sampled_from(["default", "closed", "narrow"]))
        try:
            closed = mc.mode_frequency(closed_map, B, material) if closed_map is not None else None
            closed_window = magnetostatics.closed_form_window(closed, material) if closed is not None else None
        except ValueError:  # no closed form at this field, or no window around it
            closed = closed_window = None
        if kind == "closed" and closed_window is not None:
            windows.append(closed_window)
        elif kind == "narrow":
            lo, hi = default_search_window(mc.WalkerModeQuery(n, j, B), material)
            centre = closed if closed is not None and draw(st.booleans()) else lo + (hi - lo) * draw(st.floats(0, 1))
            half = material.gamma_e * material.mu0_Ms * 10.0 ** draw(st.floats(-6.3, -1.8))
            windows.append((max(centre - half, 1.0), centre + half))
        else:
            windows.append(None)
    return material, (n, j), fields, windows


def table_solves(i, j, fields):
    """The queries of (i, j) in a `modes` table of the default material over ``fields``, as walker_solves draws them."""
    _, lo, hi, _ = magnetostatics._table_rows(i, j, np.array(fields), MAT)
    return MAT, (i, j), fields, list(zip(lo.tolist(), hi.tolist()))


# the fields of the `modes` table that CI runs as fails_at_row.yaml
FAILS_AT_ROW = np.linspace(0.06, 0.3, 9).tolist()
# the highest degree n of the dense-reference property below
DENSE_MAX_N = 10


def dense_reference_roots(q, window, material, points=200_001):
    """The roots of R in ``window`` from ``points`` equally spaced probes, and their spacing.

    A root is a probe where the complex C (:func:`complex_cleared_grid`) is 0, or the midpoint of two adjacent
    probes where it changes sign strictly: C changes sign at the roots of R and nowhere else, whatever |R| next to
    them.
    """
    lo, hi = window
    f = np.linspace(lo, hi, points)
    c = complex_cleared_grid(f, np.full(points, q.B_ext), q.i, q.j, material)
    cells = np.flatnonzero(c[:-1] * c[1:] < 0)
    return np.sort(np.concatenate([(f[cells] + f[cells + 1]) / 2, f[c == 0]])), f[1] - f[0]


def solver_roots(queries, material, windows):
    """Each query's roots as solve_walker_modes finds them: its root, or those its error text names."""
    solved = solve_walker_modes(queries, material, windows)
    roots = []
    for found in solved.outcomes:
        named = None if isinstance(found, float) else re.search(r" at (.*) Hz; narrow it$", str(found))
        roots.append([found] if isinstance(found, float) else [float(v) for v in named[1].split(", ")] if named else [])
    return roots


class TestBatchedSolver:
    @settings(max_examples=150, deadline=None)
    @given(residual_points())
    def test_array_residual_is_nan_exactly_where_the_scalar_one_raises(self, point):
        q, f = point
        grid = magnetostatics._cleared_grid(np.array([f]), np.array([q.B_ext]), q.i, q.j, MAT, residual=True).item()
        oracle = scalar_residual_oracle(f, q)
        if oracle is None:
            assert math.isnan(grid)
            with pytest.raises(DomainError, match=r"characteristic residual of .* is undefined at f = "):
                mc.walker_characteristic(f, q, MAT)
            return
        r, chi1 = oracle
        # round-off is amplified by chi1 = 1/(xi0^2 - 1) next to the chi pole,
        # and by the residual itself next to a zero of P_i^j
        assert abs(grid - r) <= 1e-12 * max(1.0, abs(r)) * max(1.0, abs(r), abs(chi1))
        assert mc.walker_characteristic(f, q, MAT) == grid

    @settings(max_examples=400, deadline=None)
    @given(residual_arrays())
    # an internal field of one ulp: the float terms overflow to inf where the complex ones turn NaN
    @example((MAT, 8, 3, math.nextafter(MAT.mu0_Ms / 3, 1.0), np.array([1e38])))
    def test_float_residual_has_the_bits_of_the_complex_one(self, drawn):
        # the cleared residual C, whose bits reach the solver's roots
        material, i, j, B, f = drawn
        fields = np.full(f.shape, B)
        got = magnetostatics._cleared_grid(f, fields, i, j, material)
        assert_same_residual_bits(got, complex_cleared_grid(f, fields, i, j, material))

    @pytest.mark.parametrize("ij", [(1, 0), (2, 1), (3, 0), (3, -2), (4, 4), (5, -1)])
    def test_cleared_residual_is_nan_where_the_recurrence_sees_xi0_squared_0_or_1(self, ij):
        # f_M = 3 Hz and x = (B - 1 T) * 1 Hz/T: at f = 2 Hz and B = 2 T, xi0^2 = 0, where C touches zero for odd
        # i - |j| (and R is NaN there, P_i^j being zero); at B = 1 T, x = 0 and chi1 == 0
        material = mc.MaterialParams(mu0_Ms=3.0, gamma_e=1.0)
        f, fields = np.array([2.0, 0.5]), np.array([2.0, 1.0])
        got = magnetostatics._cleared_grid(f, fields, *ij, material)
        assert_same_residual_bits(got, complex_cleared_grid(f, fields, *ij, material))
        assert np.isnan(got).all()
        residual = magnetostatics._cleared_grid(f, fields, *ij, material, residual=True)
        assert np.isnan(residual[0]) == ((ij[0] - abs(ij[1])) % 2 == 1) and np.isnan(residual[1])
        # xi0^2 rounds to exactly 1 at some probes next to the chi pole of a small internal field: C and R are NaN
        # there, and C only there
        B = MAT.mu0_Ms / 3 + 1e-7
        x = MAT.gamma_e * mc.internal_field(B, MAT)
        f = x * (1.0 + np.linspace(-1e-7, 1e-7, 20001))
        den = x * x - f * f
        with np.errstate(divide="ignore"):
            square = 1.0 + den / (F_M * x)
        xi0 = np.sqrt(np.abs(square))
        unit = xi0 * np.copysign(xi0, square) == 1.0  # the xi0^2 of the recurrence
        assert unit.sum() > 0
        fields = np.full(f.shape, B)
        got = magnetostatics._cleared_grid(f, fields, *ij, MAT)
        assert_same_residual_bits(got, complex_cleared_grid(f, fields, *ij, MAT))
        np.testing.assert_array_equal(np.isnan(got), unit)
        assert np.isnan(magnetostatics._cleared_grid(f, fields, *ij, MAT, residual=True)[unit]).all()

    def test_array_residual_bits_do_not_depend_on_the_array_size(self):
        q = mc.WalkerModeQuery(i=3, j=2, B_ext=0.38)
        lo, hi = default_search_window(q, MAT)
        f = np.linspace(lo, hi, 3000)
        for residual in (False, True):
            whole = magnetostatics._cleared_grid(f, np.full(f.shape, q.B_ext), q.i, q.j, MAT, residual)
            for size in (1, 3, 7, 17):
                for start in range(0, 400, size):
                    part = magnetostatics._cleared_grid(
                        f[start : start + size], np.full(size, q.B_ext), q.i, q.j, MAT, residual
                    )
                    np.testing.assert_array_equal(part, whole[start : start + size])

    def test_the_cleared_residual_keeps_its_sign_across_the_chi_pole(self):
        # C = R P (x^2 - f^2) vanishes at the chi pole f = x > 0. It changes sign there exactly for j = 0, for j > 0
        # with floor(|j|/2) odd and for j < 0 with floor(|j|/2) even. The package negates C above the pole for
        # those pairs, so that C keeps its sign across it.
        rng = np.random.default_rng(12)
        for _ in range(40):
            material = mc.MaterialParams(mu0_Ms=rng.uniform(0.05, 0.8), gamma_e=rng.uniform(20e9, 35e9))
            h = rng.uniform(0.01, 2.0)
            B = np.full(2, material.mu0_Ms / 3 + h * material.mu0_Ms)
            f = material.gamma_e * mc.internal_field(B, material) * (1.0 + np.array([-1e-6, 1e-6]))
            for i in range(1, 13):
                for j in range(-i, i + 1):
                    raw = complex_cleared_grid(f, B, i, j, material, negate=False)
                    assert (raw[0] * raw[1] < 0) == (j == 0 or (abs(j) // 2 % 2 == 1) == (j > 0)), (i, j, B)
                    got = magnetostatics._cleared_grid(f, B, i, j, material)
                    assert got[0] * got[1] > 0, (i, j, B)

    @pytest.mark.parametrize("budget", [1, 3])
    @pytest.mark.parametrize(
        "ij, narrow",
        [((2, 2), True), ((3, 1), False), ((2, -1), False), ((2, 0), True), ((1, 1), False), ((3, -2), True)],
    )
    def test_roots_equal_the_scalar_scan_at_any_block_size(self, monkeypatch, budget, ij, narrow):
        # scan blocks of one query each
        monkeypatch.setattr(magnetostatics, "_SCAN_EDGES", budget)
        fields = np.linspace(0.25, 0.5, 7).tolist()
        queries = [mc.WalkerModeQuery(i=ij[0], j=ij[1], B_ext=B) for B in fields]
        half = 0.03 * F_M
        windows = [(mc.kittel_frequency(q.B_ext, MAT) - half, mc.kittel_frequency(q.B_ext, MAT) + 9 * half)
                   if narrow else None for q in queries]
        solved = solve_walker_modes(queries, MAT, windows)
        expected = [outcome(scalar_scan_reference, q, w) for q, w in zip(queries, windows)]
        assert [outcome(solved.root, k) for k in range(len(queries))] == expected
        assert [outcome(mc.solve_walker_mode, q, MAT, w) for q, w in zip(queries, windows)] == expected

    @pytest.mark.parametrize("ij", [(1, 1), (1, -1), (1, 0), (2, 2), (3, 0)])
    def test_the_chi_pole_is_no_sign_change_scanned_or_not(self, monkeypatch, ij):
        # the default window at 0.38 T holds the chi pole at gamma_e * B_internal; the cleared residual, negated
        # above it where it changes sign there, takes the same sign on either side, so a scan of every panel
        # refines only the roots, as the scan of the root's panels does
        q = mc.WalkerModeQuery(*ij, B_ext=0.38)
        lo, hi = default_search_window(q, MAT)
        assert lo < MAT.gamma_e * mc.internal_field(0.38, MAT) < hi
        solved = solve_walker_modes([q], MAT, [None])
        expected = outcome(scalar_scan_reference, q, None)
        assert outcome(solved.root, 0) == expected
        scan_every_panel(monkeypatch)
        every = solve_walker_modes([q], MAT, [None])
        assert outcome(every.root, 0) == expected
        assert every.brent_calls + every.edge_roots == (1 if isinstance(expected, float) else 0)

    def test_counters_sum_over_queries(self, monkeypatch):
        queries = [mc.WalkerModeQuery(i=1, j=1, B_ext=B) for B in (0.38, 0.38)]
        solved = solve_walker_modes(queries, MAT, [None, None])
        assert solved.outcomes == (solved.root(0), solved.root(0))
        assert (solved.edge_roots, solved.brent_calls) == (0, 2)
        assert solved.residual_evals == 2 * solve_walker_modes(queries[:1], MAT, [None]).residual_evals > 0
        scan_every_panel(monkeypatch)
        solved = solve_walker_modes(queries, MAT, [None, None])
        assert (solved.edge_roots, solved.brent_calls) == (0, 2)

    def test_a_root_on_a_panel_edge_is_one_edge_root(self):
        # the cleared residual is exactly 0.0 at the centre edge: a root, and neither panel it bounds goes to Brent
        q = EDGE_ROOT
        closed = mc.msm_frequency_linear(q, MAT)
        assert one_point_cleared(q)(closed) == 0.0 == mc.walker_characteristic(closed, q, MAT)
        window = magnetostatics.closed_form_window(closed, MAT)
        assert panels_of(q) == 64
        assert window[0] + (window[1] - window[0]) * 32 / 64 == closed
        solved = solve_walker_modes([q], MAT, [window])
        assert solved.root(0) == closed == scalar_scan_reference(q, window)
        assert (solved.edge_roots, solved.brent_calls, solved.residual_evals) == (1, 0, 0)

    @pytest.mark.parametrize("ij", [(1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (2, 0), (3, 1), (4, 1)])
    def test_each_probe_of_a_query_is_evaluated_once(self, monkeypatch, ij):
        calls = record_grid(monkeypatch)
        queries = [mc.WalkerModeQuery(i=ij[0], j=ij[1], B_ext=B) for B in (0.3, 0.375, 0.38, 0.45)]
        closed_map = magnetostatics.closed_form_map(*ij)
        # the default windows (two roots, or the chi pole at 0.38 T),
        # and the closed-form windows where there is a closed form
        window_sets = [[None] * len(queries)]
        if closed_map is not None:
            window_sets.append([
                magnetostatics.closed_form_window(mc.mode_frequency(closed_map, q.B_ext, MAT), MAT) for q in queries
            ])
        for windows in window_sets:
            calls.clear()
            solved = solve_walker_modes(queries, MAT, windows)
            points = [point for call in calls for point in call]
            assert len(calls) > 1 and len(set(points)) == len(points)
            # the first call is the panel scan, of some edges of each window where the pair's polynomial is a
            # quadratic and of all of them where it is not; every later one holds Brent's probes
            bounds = [w or default_search_window(q, MAT) for q, w in zip(queries, windows)]
            edges = {
                (q.B_ext, lo + (hi - lo) * k / panels_of(q))
                for q, (lo, hi) in zip(queries, bounds) for k in range(panels_of(q) + 1)
            }
            assert set(calls[0]) < edges if ij not in [(3, 1), (4, 1)] else set(calls[0]) == edges
            assert solved.residual_evals == len(points) - len(calls[0])
            expected = [outcome(scalar_scan_reference, q, w) for q, w in zip(queries, windows)]
            assert [outcome(solved.root, k) for k in range(len(queries))] == expected

    def test_a_nan_residual_is_evaluated_once_and_rejects_its_panels(self, monkeypatch):
        # NaN at the root edge of the test above: no edge root, and neither panel it bounds is selected
        q = EDGE_ROOT
        closed = mc.msm_frequency_linear(q, MAT)
        calls = record_grid(monkeypatch, nan_at=[closed])
        solved = solve_walker_modes([q], MAT, [magnetostatics.closed_form_window(closed, MAT)])
        assert [f for call in calls for _, f in call].count(closed) == 1
        assert (solved.edge_roots, solved.brent_calls, solved.residual_evals) == (0, 0, 0)
        with pytest.raises(DomainError, match=r"no root of the \(2,2\) characteristic equation"):
            solved.root(0)

    def test_a_zero_edge_between_nan_edges_is_a_root(self, monkeypatch):
        # NaN at both neighbours of the root edge above: no panel changes sign, but the zero edge is still a root
        q = EDGE_ROOT
        closed = mc.msm_frequency_linear(q, MAT)
        lo, hi = magnetostatics.closed_form_window(closed, MAT)
        record_grid(monkeypatch, nan_at=[lo + (hi - lo) * k / panels_of(q) for k in (31, 33)])
        solved = solve_walker_modes([q], MAT, [(lo, hi)])
        assert solved.root(0) == closed
        assert (solved.edge_roots, solved.brent_calls, solved.residual_evals) == (1, 0, 0)

    def test_sign_changes_a_few_hertz_apart_in_adjacent_panels_are_two_roots(self, monkeypatch):
        # a cleared residual |f - 1320| - 2.5 Hz on a window whose 64 panel edges are 10 Hz apart: negative only at
        # the centre edge 1320 Hz, so each panel it bounds changes sign, at 1317.5 and 1322.5 Hz
        scan_every_panel(monkeypatch)
        monkeypatch.setattr(
            magnetostatics, "_cleared_grid",
            lambda f, B_ext, i, j, material: np.abs(np.broadcast_arrays(f, B_ext)[0] - 1320.0) - 2.5,
        )
        solved = solve_walker_modes([EDGE_ROOT], MAT, [(1000.0, 1640.0)])
        with pytest.raises(DomainError, match=r"contains 2 roots for \(2,2\) at 1\.317500e\+03, 1\.322500e\+03 Hz"):
            solved.root(0)
        assert (solved.edge_roots, solved.brent_calls) == (0, 2)

    def test_a_nan_brent_probe_ends_its_search_without_a_root(self, monkeypatch):
        q = mc.WalkerModeQuery(i=2, j=2, B_ext=0.38)
        window = magnetostatics.closed_form_window(mc.msm_frequency_linear(q, MAT), MAT)
        calls = record_grid(monkeypatch)
        solve_walker_modes([q], MAT, [window])
        first_probe = calls[1][0][1]
        calls = record_grid(monkeypatch, nan_at=[first_probe])
        solved = solve_walker_modes([q], MAT, [window])
        assert len(calls) == 2  # the scan and one Brent round, which stops at the NaN
        assert (solved.brent_calls, solved.residual_evals) == (1, 1)
        with pytest.raises(DomainError, match=r"no root of the \(2,2\) characteristic equation"):
            solved.root(0)

    @pytest.mark.parametrize("budget", [256, 50])
    def test_a_mixed_pair_solve_gives_the_one_pair_solves(self, monkeypatch, budget):
        # queries B-major, as `modes` passes them; the default windows hold roots, pairs of roots,
        # empty windows and the chi pole; the scan is cut into about 70 blocks of mixed pairs, or more
        monkeypatch.setattr(magnetostatics, "_SCAN_EDGES", budget)
        pairs = [(1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (2, 0), (3, 1), (2, -1)]
        queries = [mc.WalkerModeQuery(i, j, B) for B in np.linspace(0.3, 0.45, 201).tolist() for i, j in pairs]
        mixed = solve_walker_modes(queries, MAT, [None] * len(queries))
        counters = ("edge_roots", "brent_calls", "residual_evals")
        totals = dict.fromkeys(counters, 0)
        kinds = set()
        for pair in pairs:
            ks = [k for k, q in enumerate(queries) if (q.i, q.j) == pair]
            alone = solve_walker_modes([queries[k] for k in ks], MAT, [None] * len(ks))
            expected = [outcome(alone.root, n) for n in range(len(ks))]
            assert [outcome(mixed.root, k) for k in ks] == expected, pair
            kinds |= {type(e) for e in expected}
            for name in counters:
                totals[name] += getattr(alone, name)
        assert kinds == {float, str}  # roots and errors both
        assert {name: getattr(mixed, name) for name in counters} == totals
        assert min(totals.values()) > 0

    def test_a_scan_block_holds_at_most_scan_edges_and_one_span(self, monkeypatch):
        # (10,3) from 0.036 mT above mu0_Ms/3: every window is split into more than 2000 panels, all scanned; a
        # block of whole queries whose spans start within one multiple of _SCAN_EDGES holds at most one span more
        sizes = []
        grid = magnetostatics._cleared_grid

        def sized(f, B_ext, i, j, material, residual=False):
            sizes.append(np.size(f))
            return grid(f, B_ext, i, j, material, residual)

        monkeypatch.setattr(magnetostatics, "_cleared_grid", sized)
        fields = np.linspace(0.059369, 0.0594, 2001)[:300].tolist()
        queries = [mc.WalkerModeQuery(10, 3, B) for B in fields]
        solved = solve_walker_modes(queries, MAT, [None] * len(queries))
        widest = magnetostatics._n_panels(10, np.array([magnetostatics._H_FLOOR])).item()  # at h <= _H_FLOOR
        assert widest == 2294
        assert sum(sizes) - solved.residual_evals > len(queries) * 2000 > 10 * magnetostatics._SCAN_EDGES
        assert max(sizes) <= magnetostatics._SCAN_EDGES + widest + 1

    @settings(max_examples=150, deadline=None)
    @given(walker_solves())
    @example(table_solves(2, 2, [EDGE_ROOT.B_ext]))
    @example(table_solves(2, 0, FAILS_AT_ROW))
    @example(table_solves(3, 1, FAILS_AT_ROW))
    @example(table_solves(4, 1, FAILS_AT_ROW))
    def test_solve_equals_the_scalar_scan_of_every_panel(self, drawn):
        # the same root bits, or the same error text, for n <= 7
        material, (n, j), fields, windows = drawn
        queries = [mc.WalkerModeQuery(n, j, B) for B in fields]
        solved = solve_walker_modes(queries, material, windows)
        expected = [outcome(scalar_scan_reference, q, w, 1.0, material) for q, w in zip(queries, windows)]
        got = [outcome(solved.root, k) for k in range(len(queries))]
        assert [v.hex() if isinstance(v, float) else v for v in got] == [
            v.hex() if isinstance(v, float) else v for v in expected
        ]

    @settings(max_examples=100, deadline=None)
    @given(walker_solves(max_n=DENSE_MAX_N, field_range="above"))
    @example(table_solves(3, 1, FAILS_AT_ROW))
    @example(table_solves(4, 0, [0.3]))
    # two of its four roots share one of 64 panels, but not one of the 146 it is split into
    @example((mc.MaterialParams(mu0_Ms=0.344, gamma_e=27.4e9), (9, 3), [0.18], [None]))
    # h = 0.027: two of its four roots, 115 MHz apart, share one of 112 panels of 122 MHz, but not one of the 224
    @example((mc.MaterialParams(mu0_Ms=0.367, gamma_e=20e9), (7, 1), [0.367 / 3 + 0.01], [None]))
    def test_roots_equal_those_of_a_dense_scan_of_the_residual(self, drawn):
        # every root the solver finds, and no other, for n <= DENSE_MAX_N: the sign changes of C on 200,001
        # probes of each window
        self.check_roots_against_a_dense_scan(drawn)

    @settings(max_examples=40, deadline=None)
    @given(walker_solves(max_n=DENSE_MAX_N, field_range="near"))
    # h = 5.6e-4: three roots, 74, 113 and 460 MHz, of which twice the base count of 80 panels finds one
    @example((MAT, (5, 1), [MAT.mu0_Ms / 3 + 1e-4], [None]))
    # h = 1e-3: three roots, 252.8, 309.4 and 2364.9 MHz; |R| is 18 and 181 at the probes on either side of the
    # second, steep next to the band's top
    @example((mc.MaterialParams(mu0_Ms=0.5, gamma_e=20e9), (8, 4), [0.1671667], [None]))
    def test_roots_equal_those_of_a_dense_scan_of_the_residual_next_to_a_third_of_mu0_ms(self, drawn):
        # the band x < f < sqrt(x^2 + x f_M) that the roots crowd into narrows like sqrt(h) down to _H_FLOOR: the
        # reference takes twice the probes
        self.check_roots_against_a_dense_scan(drawn, points=400_001)

    @staticmethod
    def check_roots_against_a_dense_scan(drawn, points=200_001):
        material, (n, j), fields, windows = drawn
        queries = [mc.WalkerModeQuery(n, j, B) for B in fields]
        for q, window, roots in zip(queries, windows, solver_roots(queries, material, windows)):
            window = window or default_search_window(q, material)
            reference, step = dense_reference_roots(q, window, material, points)
            assert len(roots) == reference.size, (q, window, roots, reference.tolist())
            np.testing.assert_allclose(roots, reference, rtol=1e-6, atol=step + 1.0)

    def test_a_default_window_of_4_0_holds_two_roots(self):
        with pytest.raises(DomainError, match=r"contains 2 roots for \(4,0\) at 7\.703065e\+09, 8\.732853e\+09 Hz"):
            mc.solve_walker_mode(mc.WalkerModeQuery(4, 0, 0.30), MAT)

    def test_panel_counts_grow_with_the_degree_and_the_narrowing_band_and_are_never_a_multiple_of_18(self):
        # the chi pole lies 7/18 of the way up a default window whose lower edge is not raised
        q = mc.WalkerModeQuery(9, 0, 0.38)
        lo, hi = default_search_window(q, MAT)
        x = MAT.gamma_e * mc.internal_field(q.B_ext, MAT)
        assert (x - lo) / (hi - lo) == pytest.approx(7 / 18, rel=1e-12)
        h = np.concatenate([[math.inf], np.geomspace(1e-6, 1e3, 200)])  # a saturating field has h > 0
        floored = np.maximum(h, magnetostatics._H_FLOOR)
        with np.errstate(invalid="ignore"):
            band = np.sqrt(floored * floored + floored) - floored  # the width of x < f < sqrt(x^2 + x f_M) over f_M
        # max(2, 0.2 f_M / width) times the base count where the band is narrower than 0.2 f_M, to within the
        # rounding to an even count that is not a multiple of 18; twice it down to h = 0.0125, and that of _H_FLOOR
        # below it
        narrow = h < 1 / 15
        factor = np.where(narrow, np.maximum(2.0, 0.2 / band), 1.0)
        for i in range(1, 201):
            counts = magnetostatics._n_panels(i, h)
            base = max(64, 16 * i)
            base += 2 * (base % 18 == 0)
            assert (counts % 18 != 0).all() and (counts % 2 == 0).all()
            assert (np.abs(counts - base * factor) <= 3).all()
            assert (counts[~narrow | (h >= 0.0125)] == base * factor[~narrow | (h >= 0.0125)]).all()
            assert (np.diff(counts[narrow]) <= 0).all()
        assert magnetostatics._n_panels(9, np.array([1.0])).tolist() == [146]
        assert magnetostatics._n_panels(10, np.array([1e-6, magnetostatics._H_FLOOR, 1e-3])).tolist() == [
            2294, 2294, 1046
        ]

    @pytest.mark.parametrize("ij", [(1, 0), (2, 2), (3, -1), (4, 1)])
    def test_a_probe_where_xi0_squared_is_0_or_1_is_no_root(self, ij):
        # on the centre edge of a window: the chi pole f = x, where C is zero, and xi0 = 0 (f_M = 3 Hz, x = 1 Hz,
        # f = 2 Hz), where C touches zero for odd i - |j|; both are NaN, neither a root
        x = MAT.gamma_e * mc.internal_field(0.38, MAT)
        for q, material, window, centre in [
            (mc.WalkerModeQuery(*ij, 0.38), MAT, (0.75 * x, 1.25 * x), x),
            (mc.WalkerModeQuery(*ij, 2.0), mc.MaterialParams(mu0_Ms=3.0, gamma_e=1.0), (1.0, 3.0), 2.0),
        ]:
            lo, hi = window
            assert lo + (hi - lo) * (panels_of(q, material) // 2) / panels_of(q, material) == centre
            assert np.isnan(magnetostatics._cleared_grid(np.array([centre]), np.array([q.B_ext]), *ij, material)).all()
            assert solve_walker_modes([q], material, [window]).edge_roots == 0
            assert centre not in solver_roots([q], material, [window])[0]

    @pytest.mark.parametrize(
        "ij, fields", [((1, 0), [0.38]), ((3, 1), [0.38]), ((6, 0), [0.45, 0.38])],
    )
    def test_a_row_without_known_roots_scans_every_panel(self, monkeypatch, ij, fields):
        # the pairs' polynomials are not quadratics: every edge of the window at the last field is scanned, and the
        # roots or the errors are the full scan's
        queries = [mc.WalkerModeQuery(*ij, B_ext=B) for B in fields]
        calls = record_grid(monkeypatch)
        solved = solve_walker_modes(queries, MAT, [None] * len(queries))
        lo, hi = default_search_window(queries[-1], MAT)
        n = panels_of(queries[-1])
        edges = {(fields[-1], lo + (hi - lo) * k / n) for k in range(n + 1)}
        assert edges <= set(calls[0])
        expected = [outcome(scalar_scan_reference, q, None) for q in queries]
        assert [outcome(solved.root, k) for k in range(len(queries))] == expected

    def test_only_the_root_a_window_can_hold_is_scanned(self, monkeypatch):
        calls = record_grid(monkeypatch)
        # (1,-1) at 0.38 T: the root is negative and the default window holds the chi pole, which is not scanned;
        # the outcome is still the full scan's
        q = mc.WalkerModeQuery(i=1, j=-1, B_ext=0.38)
        lo, hi = default_search_window(q, MAT)
        assert lo < MAT.gamma_e * mc.internal_field(q.B_ext, MAT) < hi
        solved = solve_walker_modes([q], MAT, [None])
        assert [point for call in calls for point in call] == []
        with pytest.raises(DomainError, match=r"no root of the \(1,-1\) characteristic equation") as raised:
            solved.root(0)
        assert outcome(scalar_scan_reference, q, None) == str(raised.value)
        # (3,0): only the edges within two panels of its root, not those next to the chi pole
        q = mc.WalkerModeQuery(i=3, j=0, B_ext=0.38)
        calls.clear()
        root = solve_walker_modes([q], MAT, [None]).root(0)
        lo, hi = default_search_window(q, MAT)
        panel = (hi - lo) / panels_of(q)
        assert calls and all(abs(f - root) <= 2 * panel for _, f in calls[0])
        assert root == scalar_scan_reference(q, None)

    @pytest.mark.parametrize("shift", [-0.99, 0.99])
    def test_a_root_up_to_a_panel_from_its_polynomial_root_is_found(self, monkeypatch, shift):
        # the panels on either side of a root's are scanned too, for a float residual whose sign change is not in
        # the exact root's panel: here the root is moved by 0.99 of the default window's panel width
        q = mc.WalkerModeQuery(i=1, j=1, B_ext=0.45)
        root = magnetostatics._walker_root
        panel = 2 * magnetostatics._DEFAULT_HALF_WIDTH / panels_of(q)  # in units of gamma_e*mu0_Ms
        monkeypatch.setattr(magnetostatics, "_walker_root", lambda i, j, h: root(i, j, h) + shift * panel)
        assert solve_walker_modes([q], MAT, [None]).root(0) == scalar_scan_reference(q, None)

    def test_a_row_with_a_known_root_scans_the_4_edges_of_its_panel_and_the_panel_on_either_side(self, monkeypatch):
        # (2,2) at 0.38 T in its closed-form window, centred on the root: 4 consecutive edges around it
        q = mc.WalkerModeQuery(i=2, j=2, B_ext=0.38)
        lo, hi = magnetostatics.closed_form_window(mc.msm_frequency_linear(q, MAT), MAT)
        calls = record_grid(monkeypatch)
        root = solve_walker_modes([q], MAT, [(lo, hi)]).root(0)
        n = panels_of(q)
        first = round((calls[0][0][1] - lo) / (hi - lo) * n)
        assert calls[0] == [(q.B_ext, lo + (hi - lo) * k / n) for k in range(first, first + 4)]
        assert calls[0][0][1] < root < calls[0][-1][1]
        assert root == scalar_scan_reference(q, (lo, hi))

    @pytest.mark.parametrize("ij", [(1, 1), (1, -1), (2, 1), (3, -2), (7, 7), (2, 0), (3, 0)])
    def test_the_root_is_one_of_those_of_the_residual_times_its_denominators(self, ij):
        # h prod(w - root) = R(w) h^(d+1) q(s) (h^2 - w^2) up to one constant, where s = 1 + (h^2 - w^2)/h = xi^2 > 0
        # and d^m P_n / dxi^m = xi^p q(xi^2), here from numpy's Legendre series; the roots are the returned one
        # and -sign(j) h for j != 0, and +/-h and +/- the returned one for j = 0
        n, j = ij
        m, p, d = abs(j), (n - abs(j)) % 2, (n - abs(j)) // 2
        rng = np.random.default_rng(n * 10 + j)
        h = rng.uniform(0.1, 3.0, 400)
        w = rng.uniform(0.0, 0.95, 400) * np.sqrt(h * h + h)
        s = 1 + (h * h - w * w) / h
        q = np.polynomial.legendre.Legendre.basis(n).deriv(m)(np.sqrt(s)) / np.sqrt(s) ** p
        B = h * F_M / MAT.gamma_e + MAT.mu0_Ms / 3
        residual = magnetostatics._cleared_grid(w * F_M, B, n, j, MAT, residual=True)
        root = magnetostatics._walker_root(n, j, h)
        sigma = math.copysign(1.0, j)
        roots = np.stack([root, -sigma * h] if j else [h, -h, root, -root], axis=1)
        ratio = h * np.prod(w[:, None] - roots, axis=1) / (residual * h ** (d + 1) * q * (h * h - w * w))
        moderate = np.abs(residual) > 1e-3  # away from the roots, where the ratio is 0/0
        assert moderate.sum() > 300
        np.testing.assert_allclose(ratio[moderate], np.median(ratio[moderate]), rtol=1e-8)
        # the positive root, negative for j < 0: the one a window above 1 Hz can hold
        assert root.shape == h.shape and (sigma * root > 0).all()

    def test_the_windows_must_match_the_queries_and_an_empty_call_finds_nothing(self):
        mixed = [mc.WalkerModeQuery(i=2, j=2, B_ext=0.38), mc.WalkerModeQuery(i=2, j=1, B_ext=0.38)]
        with pytest.raises(ValueError, match="windows"):
            solve_walker_modes(mixed, MAT, [None])
        assert solve_walker_modes([], MAT, []) == magnetostatics.WalkerSolutions(outcomes=())


def brent_run(solve, f, a, b):
    """The points ``solve(f, a, b)`` evaluates f at, and the bits of its root or what it raised."""
    calls = []

    def traced(x):
        calls.append(x.hex())
        return f(x)

    try:
        result = solve(traced, a, b).hex()
    except (ValueError, RuntimeError) as exc:  # scipy's own errors; DomainError is a ValueError
        result = exc
    return calls, result


def assert_port_is_scipy(f, a, b, xtol, maxiter=magnetostatics._BRENT_MAXITER):
    """The port takes scipy's path to scipy's root bits, and raises DomainError exactly where scipy raises."""
    ours_calls, ours = brent_run(lambda g, a, b: magnetostatics.brentq(g, a, b, xtol), f, a, b)
    ref_calls, ref = brent_run(lambda g, a, b: brentq(g, a, b, xtol=xtol, maxiter=maxiter), f, a, b)
    assert ours_calls == ref_calls
    if isinstance(ref, str):
        assert ours == ref
        return "root"
    assert isinstance(ours, DomainError), ours
    if isinstance(ref, DomainError):  # raised by f itself, at the same point
        assert str(ours) == str(ref)
        return "f raised"
    return type(ref).__name__


@st.composite
def walker_panels(draw, cleared=False):
    """A panel of a default Walker search window whose residuals change sign: a root or a pole crossing of R.

    With ``cleared``, a panel where the cleared residual C changes sign: a root.
    """
    i = draw(st.integers(1, 5))
    q = mc.WalkerModeQuery(i=i, j=draw(st.integers(-i, i)), B_ext=draw(st.floats(0.06, 0.6)))
    lo, hi = default_search_window(q, MAT)
    n = panels_of(q)
    edges = [lo + (hi - lo) * k / n for k in range(n + 1)]
    function = one_point_cleared(q) if cleared else lambda f: mc.walker_characteristic(f, q, MAT)
    values = [outcome(function, f) for f in edges]
    panels = [
        k for k in range(n)
        if not isinstance(values[k], str) and not isinstance(values[k + 1], str) and values[k] * values[k + 1] < 0
    ]
    assume(panels)
    k = draw(st.sampled_from(panels))
    return q, edges[k], edges[k + 1]


def smooth(kind, r, s, nan_above):
    """A smooth test function with a root at r (kind "exp": where e^(s x) = e^(s r)), NaN above ``nan_above``."""
    shapes = {
        "line": lambda x: s * (x - r),
        "cubic": lambda x: (x - r) ** 3 + s * (x - r),
        "exp": lambda x: math.exp(s * x) - math.exp(s * r),
        "tanh": lambda x: math.tanh(s * (x - r)),
    }
    shape = shapes[kind]
    return lambda x: math.nan if x > nan_above else shape(x)


def tanh_with_nan_band(x):
    """tanh(x - 0.3), NaN on the band (0.4, 0.5) only: Brent on [-2, 2] meets it at its second step."""
    return math.nan if 0.4 < x < 0.5 else math.tanh(x - 0.3)


smooth_cases = st.tuples(
    st.sampled_from(["line", "cubic", "exp", "tanh"]),
    st.floats(-5.0, 5.0),
    st.floats(0.05, 3.0),
    st.one_of(st.just(math.inf), st.floats(-10.0, 10.0)),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.sampled_from([1e-12, 1e-6, 1e-3, 1.0]),
)


@st.composite
def smooth_brackets(draw):
    """A smooth_cases function and bracket (its xtol left out): the function and the bracket's edges.

    The root is often moved inside the bracket or onto an edge, and the
    function is often NaN on a band around an inner root that leaves both
    edges out, so a search meets the NaN partway.
    """
    kind, r, s, nan_above, a, b, _ = draw(smooth_cases)
    where = draw(st.sampled_from(["drawn", "inside", "at_a", "at_b", "nan_band"]))
    r = {"drawn": r, "at_a": a, "at_b": b}.get(where, a + (b - a) * draw(st.floats(0.0, 1.0)))
    f = smooth(kind, r, s, nan_above)
    if where != "nan_band":
        return f, a, b
    half = min(abs(r - a), abs(r - b)) * draw(st.floats(0.0, 0.99))
    return (lambda x: math.nan if abs(x - r) < half else f(x)), a, b


# what brentq raises where the lock-step search ends without a root
BRENT_FAILURES = {
    magnetostatics._NAN: "met a NaN residual at x = {x!r}",
    magnetostatics._NO_CONVERGENCE: "did not converge in {maxiter} iterations (last x = {x!r})",
}


class TestBrent:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(smooth_brackets(), min_size=1, max_size=12),
        st.sampled_from([1e-12, 1e-6, 1e-3, 1.0]),
        st.sampled_from([0, 1, 2, 3, 6, magnetostatics._BRENT_MAXITER]),
    )
    def test_lockstep_brackets_each_take_the_path_of_brentq_alone(self, brackets, xtol, maxiter):
        functions, a, b = (list(column) for column in zip(*brackets))
        fa = [f(x) for f, x in zip(functions, a)]
        fb = [math.nan if math.isnan(y) else f(x) for f, x, y in zip(functions, b, fa)]
        # the lock-step search gets the brackets whose edges change sign strictly; brentq checks the others
        strict = [k for k in range(len(brackets)) if fa[k] < 0 < fb[k] or fb[k] < 0 < fa[k]]
        probes = [[] for _ in strict]
        rounds = []

        def all_at_once(x, live):
            rounds.append(live.tolist())
            for n, xn in zip(live.tolist(), x.tolist()):
                probes[n].append(xn.hex())
            return np.array([functions[strict[n]](xn) for n, xn in zip(live.tolist(), x.tolist())])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(magnetostatics, "_BRENT_MAXITER", maxiter)
            x, outcome = magnetostatics._lockstep_brent(
                all_at_once, *([column[k] for k in strict] for column in (a, b, fa, fb)), xtol
            )
            alone = [
                brent_run(lambda g, a, b: magnetostatics.brentq(g, a, b, xtol), f, ak, bk)
                for f, ak, bk in zip(functions, a, b)
            ]
        assert len(rounds) <= maxiter
        for k, (calls, result) in enumerate(alone):
            scipy_calls, scipy_result = brent_run(
                lambda g, a, b: brentq(g, a, b, xtol=xtol, maxiter=maxiter), functions[k], a[k], b[k]
            )
            assert calls == scipy_calls
            if isinstance(scipy_result, str):
                assert result == scipy_result
            else:
                assert isinstance(result, DomainError)
            if k in strict:
                continue
            if math.isnan(fa[k]) or math.isnan(fb[k]):
                assert f"met a NaN residual at x = {a[k] if math.isnan(fa[k]) else b[k]!r}" in str(result)
            elif fa[k] != 0 and fb[k] != 0:
                assert f"Brent bracket ({a[k]!r}, {b[k]!r}) does not change sign" in str(result)
            else:  # a zero edge, a before b
                assert result == (a[k] if fa[k] == 0 else b[k]).hex()
        for n, k in enumerate(strict):
            calls, result = alone[k]
            assert [a[k].hex(), b[k].hex()] + probes[n] == calls
            if isinstance(result, str):
                assert (outcome[n], x[n].hex()) == (magnetostatics._ROOT, result)
            else:
                assert outcome[n] != magnetostatics._ROOT
                assert BRENT_FAILURES[outcome[n]].format(x=x[n].item(), maxiter=maxiter) in str(result)
        # lock-step: each round probes every bracket that still has a probe to come, in bracket order
        for r, live in enumerate(rounds):
            assert live == [n for n in range(len(strict)) if len(probes[n]) > r]

    @settings(max_examples=300, deadline=None)
    @given(walker_panels())
    def test_port_equals_scipy_on_walker_panels(self, panel):
        q, fa, fb = panel
        assert_port_is_scipy(lambda f: mc.walker_characteristic(f, q, MAT), fa, fb, magnetostatics._F_TOL)

    @settings(max_examples=200, deadline=None)
    @given(walker_panels(cleared=True))
    def test_batched_solve_takes_the_probes_and_root_of_brentq_on_the_one_point_residual(self, panel):
        q, fa, fb = panel
        fb = fa + (fb - fa) * 1.0 / 1  # the one edge of a one-panel window, as the scan forms it
        with pytest.MonkeyPatch.context() as patch:
            calls = record_grid(patch)
            scan_every_panel(patch)
            patch.setattr(magnetostatics, "_n_panels", lambda i, h: np.ones(h.size))
            solved = solve_walker_modes([q], MAT, [(fa, fb)])
            probes = [f for call in calls[1:] for _, f in call]
            calls.clear()
            ref_probes, ref = brent_run(
                lambda g, a, b: magnetostatics.brentq(g, a, b, magnetostatics._F_TOL), one_point_cleared(q), fa, fb
            )
        # brentq starts by evaluating both edges; the solve takes them from its scan
        assert [f.hex() for f in probes] == ref_probes[2:]
        if isinstance(ref, str):
            assert solved.root(0).hex() == ref
        else:  # a refinement that failed
            with pytest.raises(DomainError, match="no root"):
                solved.root(0)

    @settings(max_examples=300, deadline=None)
    @given(smooth_cases)
    def test_port_equals_scipy_on_smooth_functions(self, case):
        kind, r, s, nan_above, a, b, xtol = case
        assert_port_is_scipy(smooth(kind, r, s, nan_above), a, b, xtol)

    @settings(max_examples=100, deadline=None)
    @given(smooth_cases, st.integers(0, 6))
    def test_port_stops_where_scipy_stops_at_a_lower_iteration_cap(self, case, maxiter):
        kind, r, s, nan_above, a, b, xtol = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(magnetostatics, "_BRENT_MAXITER", maxiter)
            assert_port_is_scipy(smooth(kind, r, s, nan_above), a, b, xtol, maxiter)

    @pytest.mark.parametrize(
        "f, a, b, xtol, maxiter, reason",
        [
            (smooth("cubic", 0.0, 1.0, math.inf), 1.0, 2.0, 1e-12, 100, "ValueError"),
            (tanh_with_nan_band, -2.0, 2.0, 1e-12, 100, "ValueError"),
            (smooth("exp", 0.3, 1.0, -1.0), -2.0, 2.0, 1e-12, 100, "ValueError"),
            (smooth("cubic", 0.0, 1.0, math.inf), -2.0, 3.0, 1e-12, 2, "RuntimeError"),
            (smooth("cubic", 0.0, 1.0, math.inf), -2.0, 3.0, 1e-12, 100, "root"),
            # |sbis| == delta on the first iteration: not yet converged
            (smooth("line", 1 / 64, 1.0, math.inf), -31 / 32, 1 / 32, 1.0, 100, "root"),
        ],
        ids=["same_sign", "nan_while_iterating", "nan_at_b", "iteration_cap", "converges", "half_step_is_delta"],
    )
    def test_each_scipy_error_is_a_domain_error(self, monkeypatch, f, a, b, xtol, maxiter, reason):
        monkeypatch.setattr(magnetostatics, "_BRENT_MAXITER", maxiter)
        assert assert_port_is_scipy(f, a, b, xtol, maxiter) == reason

    def test_the_mid_search_nan_comes_after_both_edges_and_a_finite_step(self):
        calls, result = brent_run(
            lambda g, a, b: magnetostatics.brentq(g, a, b, 1e-12), tanh_with_nan_band, -2.0, 2.0
        )
        assert calls[:2] == [(-2.0).hex(), (2.0).hex()]
        values = [tanh_with_nan_band(float.fromhex(x)) for x in calls]
        assert [math.isnan(y) for y in values] == [False, False, False, True]
        assert isinstance(result, DomainError)

    def test_failed_refinement_is_a_rejected_candidate_not_a_root(self, monkeypatch):
        # one Brent iteration cannot refine the (1,1) root's panel at 0.38 T to 1 Hz
        monkeypatch.setattr(magnetostatics, "_BRENT_MAXITER", 1)
        q = mc.WalkerModeQuery(i=1, j=1, B_ext=0.38)
        solved = solve_walker_modes([q], MAT, [None])
        assert (solved.brent_calls, solved.residual_evals) == (1, 1)
        with pytest.raises(DomainError, match=r"no root of the \(1,1\) characteristic equation"):
            solved.root(0)


@pytest.mark.parametrize("ij", [(1, 1), (2, 2), (3, 3), (2, 1), (3, 2)])
def test_the_negated_j_twin_has_no_root_at_the_closed_form(ij):
    # the closed form is the root for +j only: the minus branch of (i, j) is (i, -j)
    i, j = ij
    for B in (0.31, 0.38, 0.44):
        window = magnetostatics.closed_form_window(mc.msm_frequency_linear(mc.WalkerModeQuery(i, j, B), MAT), MAT)
        with pytest.raises(DomainError, match=f"no root of the \\({i},{-j}\\) characteristic equation"):
            mc.solve_walker_mode(mc.WalkerModeQuery(i, -j, B), MAT, window)


@pytest.mark.parametrize("i", range(6))
def test_closed_form_map_covers_exactly_the_closed_form_indices(i):
    for j in range(-6, 7):
        field_map = mc.closed_form_map(i, j)
        if (i, j) == (2, 0):
            assert field_map == mc.FieldMap("msm20")
            expected = [mc.msm20_frequency(B, MAT) for B in (0.3, 0.38, 0.45)]
        elif j >= 1 and i in (j, j + 1):
            assert field_map == mc.FieldMap("walker", i, j)
            expected = [mc.msm_frequency_linear(mc.WalkerModeQuery(i=i, j=j, B_ext=B), MAT) for B in (0.3, 0.38, 0.45)]
        else:
            assert field_map is None
            continue
        # bit for bit, and a float like the closed forms
        got = [mc.mode_frequency(field_map, B, MAT) for B in (0.3, 0.38, 0.45)]
        assert got == expected and all(type(value) is float for value in got)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 0)] + [(j + d, j) for j in range(1, 5) for d in (0, 1)]),
    st.floats(0.1, 0.25),
    st.floats(27.0e9, 29.0e9),
    st.floats(0.5, 3.0),
)
def test_the_solver_root_in_the_closed_form_window_is_the_closed_form(ij, mu0_Ms, gamma_e, r):
    material = mc.MaterialParams(mu0_Ms=mu0_Ms, gamma_e=gamma_e)
    B = r * mu0_Ms  # saturated: B / mu0_Ms > 1/3
    closed = mc.mode_frequency(mc.closed_form_map(*ij), B, material)
    root = mc.solve_walker_mode(mc.WalkerModeQuery(*ij, B), material, magnetostatics.closed_form_window(closed, material))
    assert root == pytest.approx(closed, rel=1e-9)


def test_closed_form_window_is_three_percent_of_the_magnetization_frequency():
    lo, hi = magnetostatics.closed_form_window(10.0e9, MAT)
    assert (lo, hi) == (10.0e9 - 0.03 * F_M, 10.0e9 + 0.03 * F_M)


def test_every_search_window_stays_above_one_hertz():
    # (2,0) is even in f: a window reaching below zero would hold the mirror root -f
    # (the CLI test of this field checks the root)
    closed = mc.msm20_frequency(0.05935, MAT)
    assert closed < 0.03 * F_M
    assert magnetostatics.closed_form_window(closed, MAT) == (1.0, closed + 0.03 * F_M)
    assert default_search_window(mc.WalkerModeQuery(i=1, j=1, B_ext=0.06), MAT) == (1.0, 0.06 * MAT.gamma_e + 1.5 * F_M)
    # nothing of the window is left above the floor
    with pytest.raises(DomainError, match=r"search window -5\.245333e\+08 \+/- 1\.495200e\+08 Hz lies below 1 Hz"):
        magnetostatics.closed_form_window(-5.245333e8, MAT)


def test_walker_closed_form_checks_scalar_fields():
    walker = mc.FieldMap("walker", 2, 2)
    for B in (0, 0.0, -0.1, MAT.mu0_Ms / 3, math.nan, math.inf, np.float64("nan")):
        with pytest.raises(ValueError, match=saturation_pattern(B)):
            mc.mode_frequency(walker, B, MAT)
    assert mc.mode_frequency(walker, 1, MAT) == mc.mode_frequency(walker, 1.0, MAT)


def test_a_query_with_non_integer_indices_is_a_value_error_naming_the_pair():
    with pytest.raises(ValueError, match=r"mode indices must be integers, got \(2\.5, 1\)"):
        mc.WalkerModeQuery(2.5, 1, 0.3)
    assert mc.WalkerModeQuery(np.int64(2), np.int32(1), 0.3).j == 1


def test_check_mode_indices_rejects_non_integer_indices():
    with pytest.raises(ValueError, match=r"mode indices must be integers, got \(3, 1\.5\)"):
        magnetostatics.check_mode_indices(3, 1.5)
    magnetostatics.check_mode_indices(np.int64(3), np.int64(-1))


def test_check_mode_indices_compares_only_integer_indices():
    # a str index fails the integer rule, before "2" >= 1 could raise a TypeError
    with pytest.raises(ValueError, match=r"^mode indices must be integers, got \(2, 1\)$"):
        magnetostatics.check_mode_indices("2", 1)


def test_a_query_compares_only_integer_indices():
    with pytest.raises(ValueError, match=r"^mode indices must be integers, got \(2, 1\)$"):
        mc.WalkerModeQuery("2", 1, 0.3)


def test_closed_form_map_of_non_integer_indices_is_none():
    # (2.0, 0) equals (2, 0), whose closed form is msm20, but it is no pair of integers, like (2.0, 1)
    assert mc.closed_form_map(2.0, 0) is None
    assert mc.closed_form_map(2.0, 1) is None
    assert mc.closed_form_map(np.int64(2), np.int64(0)) == mc.FieldMap("msm20")


def test_table_rows_of_non_integer_indices_fail_their_index_rule():
    # (2.0, 1) has no closed form, and only its index rule fails
    _, _, _, rules = magnetostatics._table_rows(2.0, 1, np.array([0.3, 0.4]), MAT)
    row, error = magnetostatics._first_failure([rules])
    assert row == 0 and isinstance(error, ValueError) and str(error) == "mode indices must be integers, got (2.0, 1)"


def test_default_window_covers_tabulated_offsets():
    q = mc.WalkerModeQuery(i=5, j=5, B_ext=0.38)
    lo, hi = default_search_window(q, MAT)
    f0 = mc.msm_frequency_linear(q, MAT)
    assert lo < f0 < hi


FIELD_MAPS = {
    "kittel": mc.FieldMap(kind="kittel"),
    "walker i=j": mc.FieldMap(kind="walker", i=2, j=2),
    "walker i=j+1": mc.FieldMap(kind="walker", i=3, j=2),
    "msm20": mc.FieldMap(kind="msm20"),
    "fixed": mc.FieldMap(kind="fixed", frequency=10.7e9),
}


class TestModeFrequencyDispatch:
    def test_all_kinds(self):
        B = 0.38
        assert mc.mode_frequency(mc.FieldMap(kind="kittel"), B, MAT) == mc.kittel_frequency(B, MAT)
        walker = mc.FieldMap(kind="walker", i=2, j=2)
        q = mc.WalkerModeQuery(i=2, j=2, B_ext=B)
        assert mc.mode_frequency(walker, B, MAT) == mc.msm_frequency_linear(q, MAT)
        assert mc.mode_frequency(mc.FieldMap(kind="msm20"), B, MAT) == mc.msm20_frequency(B, MAT)
        fixed = mc.FieldMap(kind="fixed", frequency=10.7e9)
        assert mc.mode_frequency(fixed, B, MAT) == 10.7e9

    @pytest.mark.parametrize("fields", [[0.36, 0.38], [[0.36], [0.38], [0.40]]], ids=["row", "column"])
    @pytest.mark.parametrize("kind", ["kittel", "walker i=j", "walker i=j+1", "msm20"])
    def test_an_array_of_fields_is_a_type_error(self, kind, fields):
        # one field in, one float out: a fixed map never reads its field and is left out
        B = np.array(fields)
        with pytest.raises(TypeError):
            mc.mode_frequency(FIELD_MAPS[kind], B, MAT)
        closed_form = {"kittel": mc.kittel_frequency, "msm20": mc.msm20_frequency}.get(kind)
        if closed_form is not None:
            with pytest.raises(TypeError):
                closed_form(B, MAT)

    def test_a_scalar_field_gives_a_float(self):
        for kind, field_map in FIELD_MAPS.items():
            assert type(mc.mode_frequency(field_map, 0.38, MAT)) is float, kind

    def test_internal_field_definition(self):
        assert mc.internal_field(0.38, MAT) == pytest.approx(0.38 - 0.178 / 3, rel=1e-14)


# index pairs of Walker table rows: every closed-form family, (2,0), pairs without a closed form and bad indices
TABLE_PAIRS = [(i, j) for i in range(1, 5) for j in range(-i, i + 1)] + [(0, 0), (2, 3)]


def ulps_from(x: float, steps: int) -> float:
    """x moved by ``steps`` units in the last place, down for negative steps."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def materials_and_fields(draw):
    """A material, a table index pair and bias fields at the edges where the closed forms or windows fail.

    The fields include B <= 0 and non-finite ones, fields a few ulps from
    mu0_Ms/3 (the saturation rule's edge, and the (2,0) radicand's zero)
    and from where the closed-form window's edges meet the 1 Hz floor, and
    fields drawn at random.
    """
    material = mc.MaterialParams(mu0_Ms=draw(st.floats(0.1, 0.25)), gamma_e=draw(st.floats(27.0e9, 29.0e9)))
    ij = draw(st.sampled_from(TABLE_PAIRS))
    half = magnetostatics._CLOSED_FORM_HALF_WIDTH * material.gamma_e * material.mu0_Ms
    anchors = [0.0, material.mu0_Ms / 3]
    if mc.closed_form_map(*ij) is not None and ij != (2, 0):
        # where closed + half and closed - half cross the floor: the window vanishes, and its lower edge is clamped
        offset = oracle_walker_closed_form(*ij, 0.0, material)
        anchors += [(1.0 - half - offset) / material.gamma_e, (1.0 + half - offset) / material.gamma_e]
    near = st.builds(ulps_from, st.sampled_from(anchors), st.integers(-4, 4))
    fields = st.one_of(near, st.floats(-0.1, 1.0), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]))
    return material, ij, draw(st.lists(fields, min_size=1, max_size=12))


def float_bits(x) -> bytes:
    return np.float64(x).tobytes()


# The oracle of the field-map and Walker-row rules: the scalar functions as they were written
# before each rule became one array predicate, with every rule an if/raise of its own.


def oracle_walker_closed_form(i: int, j: int, B_ext: float, material) -> float:
    """The i = j or i = j + 1 closed form of msm_frequency_linear."""
    offset = (j / (2 * j + (1 if i == j else 3)) - 1.0 / 3.0) * (material.gamma_e * material.mu0_Ms)
    return material.gamma_e * B_ext + offset


def oracle_saturated(B_ext: float, material) -> None:
    """The saturation rule: a bias field that meets a material is finite and above mu0_Ms/3."""
    third = material.mu0_Ms / 3.0
    if not (math.isfinite(B_ext) and B_ext - third > 0):
        raise ValueError(
            f"B_ext = {B_ext!r} T does not saturate the sphere: it must be finite and above mu0_Ms/3 = {third!r} T"
        )


def oracle_kittel_frequency(B_ext: float, material) -> float:
    oracle_saturated(B_ext, material)
    return material.gamma_e * B_ext


def oracle_msm20_frequency(B_ext: float, material) -> float:
    oracle_saturated(B_ext, material)
    r = B_ext / material.mu0_Ms
    # math.sqrt raises on a negative radicand, which saturation rules out
    return material.gamma_e * material.mu0_Ms * math.sqrt((r - 1.0 / 3.0) * (r + 7.0 / 15.0))


def oracle_mode_frequency(field_map, B_ext: float, material) -> float:
    """Evaluate a mode's field map at the one bias field B_ext."""
    if field_map.kind == "kittel":
        return oracle_kittel_frequency(B_ext, material)
    if field_map.kind == "walker":
        oracle_saturated(B_ext, material)
        return oracle_walker_closed_form(field_map.i, field_map.j, B_ext, material)
    if field_map.kind == "msm20":
        return oracle_msm20_frequency(B_ext, material)
    return field_map.frequency


def oracle_positive_window(center: float, half: float) -> tuple[float, float]:
    """Search window center +/- half with its lower edge raised to 1 Hz."""
    lo, hi = max(center - half, 1.0), center + half
    if not lo < hi:
        if hi <= 1.0:
            raise DomainError(f"search window {center:.6e} +/- {half:.6e} Hz lies below 1 Hz")
        raise DomainError(f"search window {center:.6e} +/- {half:.6e} Hz has no width: both edges round to {hi:.6e} Hz")
    return lo, hi


def oracle_table_row(i: int, j: int, B_ext: float, material) -> tuple[float, float, float]:
    """Closed form (NaN where (i, j) has none) and search window (lo, hi) of one Walker table row."""
    # WalkerModeQuery(i=i, j=j, B_ext=B_ext)
    if i < 1:
        raise ValueError(f"mode index i must be >= 1, got ({i}, {j})")
    if not -i <= j <= i:
        raise ValueError(f"mode index j must satisfy -i <= j <= i, got ({i}, {j})")
    oracle_saturated(B_ext, material)
    closed_map = mc.closed_form_map(i, j)
    closed = math.nan if closed_map is None else oracle_mode_frequency(closed_map, B_ext, material)
    if closed_map is None:  # default_search_window
        half = 1.5 * material.gamma_e * material.mu0_Ms
        return (closed, *oracle_positive_window(oracle_kittel_frequency(B_ext, material), half))
    return (closed, *oracle_positive_window(closed, 0.03 * material.gamma_e * material.mu0_Ms))  # closed_form_window


def scalar_or_error(function, *args):
    """What ``function(*args)`` returns, or the ValueError (DomainError included) it raises."""
    try:
        return function(*args)
    except ValueError as exc:
        return exc


def same_result(got, expected) -> bool:
    """Equal float bits (of a float or a tuple of them), or errors of the same class and text."""
    if isinstance(expected, ValueError):
        return isinstance(got, ValueError) and (type(got), str(got)) == (type(expected), str(expected))
    return [float_bits(x) for x in np.atleast_1d(got)] == [float_bits(x) for x in np.atleast_1d(expected)]


def assert_array_path_is_the_oracle(arrays, rules, expected):
    """The arrays hold the oracle's bits where it returns, and the first element where it raises fails first, alike."""
    first = next(((k, e) for k, e in enumerate(expected) if isinstance(e, ValueError)), None)
    failure = magnetostatics._first_failure([rules])
    assert (failure is None) == (first is None), (failure, first)
    if first is not None:
        assert failure[0] == first[0] and same_result(failure[1], first[1]), (failure, first)
    for k, e in enumerate(expected):
        if not isinstance(e, ValueError):
            assert same_result(tuple(a[k] for a in arrays), e), (k, e)


@settings(max_examples=300, deadline=None)
@given(materials_and_fields())
# the Kittel map overflows to inf without raising: the array must not call that cell a failure
@example((MAT, (1, 1), [1e300]))
# the rules at the fields that sit on their edges: walker at 0 T, saturation at mu0_Ms/3 and one ulp above it,
# msm20 at -1 T (r < -7/15, where its radicand is positive), a row with bad indices, and a row without a closed
# form at 0 T
@example((MAT, (1, 1), [0.38, 0.0]))
@example((MAT, (2, 0), [0.38, MAT.mu0_Ms / 3, math.nextafter(MAT.mu0_Ms / 3, 1.0)]))
@example((MAT, (2, 0), [-1.0]))
@example((MAT, (0, 0), [5e-324]))
@example((MAT, (1, -1), [0.38, 0.0]))
def test_field_maps_and_table_rows_are_the_scalar_oracle_bit_for_bit(drawn):
    material, (i, j), fields = drawn
    B = np.array(fields)
    field_maps = [mc.FieldMap("kittel"), mc.FieldMap("msm20"), mc.FieldMap("fixed", frequency=10.632e9)]
    field_maps += [mc.closed_form_map(i, j)] if mc.closed_form_map(i, j) is not None else []
    for field_map in field_maps:
        expected = [scalar_or_error(oracle_mode_frequency, field_map, B_k, material) for B_k in fields]
        values, rules = magnetostatics._mode_frequency_grid(field_map, B, material)
        assert_array_path_is_the_oracle([values], rules, expected)
        # the one-field call at each field: its value, or the error of the first rule that fails there
        for B_k, e in zip(fields, expected):
            assert same_result(scalar_or_error(mc.mode_frequency, field_map, B_k, material), e), (field_map, B_k)
    expected = [scalar_or_error(oracle_table_row, i, j, B_k, material) for B_k in fields]
    closed, lo, hi, rules = magnetostatics._table_rows(i, j, B, material)
    assert_array_path_is_the_oracle([closed, lo, hi], rules, expected)
    for k, e in enumerate(expected):  # each row alone fails with the first of its own rules that fails
        *row, rules = magnetostatics._table_rows(i, j, B[k : k + 1], material)
        assert_array_path_is_the_oracle(row, rules, [e])


@settings(max_examples=200, deadline=None)
@given(materials_and_fields(), st.lists(st.sampled_from(list(FIELD_MAPS)), min_size=1, max_size=3))
# at -inf the Kittel map fails its field rule and overflows: its rule's error, not the overflow's
@example((MAT, (2, 2), [0.38, -math.inf]), ["walker i=j", "kittel"])
@example((MAT, (1, 1), [0.38, 1e300, 0.0]), ["fixed", "kittel", "walker i=j+1"])
def test_field_map_resolution_raises_the_first_failing_field_and_mode_of_the_oracle(drawn, kinds):
    material, _, fields = drawn
    modes = tuple(mc.MagnonMode(label=f"m{k}", g=1e6, gamma=1e6, field_map=FIELD_MAPS[kind]) for k, kind in enumerate(kinds))
    system = mc.HybridSystem(cavity=mc.CavityParams(f_c=10.632e9, kappa_e=2.1e6, kappa_i=0.6e6), modes=modes,
                             material=material)

    def oracle_field(B_k):  # every mode's frequency at B_k, or the error of the first mode that fails there
        f_ms = []
        for mode in modes:
            f_m = oracle_mode_frequency(mode.field_map, B_k, material)
            if not math.isfinite(f_m):
                raise ValueError("f_m must be finite")
            f_ms.append(f_m)
        return f_ms

    expected = [scalar_or_error(oracle_field, B_k) for B_k in fields]
    first_error = next((e for e in expected if isinstance(e, ValueError)), None)
    resolved = scalar_or_error(mc.scattering._resolve_field_maps, system, np.array(fields))
    if first_error is not None:
        assert same_result(resolved, first_error), (resolved, first_error)
    else:
        assert same_result(resolved.T.ravel(), [f for f_ms in expected for f in f_ms])
    for B_k, e in zip(fields, expected):
        assert same_result(scalar_or_error(mc.scattering.mode_frequencies, system, B_k), e), (B_k, e)


# every field-mapped kind, and the (i, j) a Walker solve of it takes
SATURATED_KINDS = [(mc.FieldMap("kittel"), (1, 1)), (mc.FieldMap("msm20"), (2, 0))] + [
    (mc.FieldMap("walker", i, j), (i, j)) for j in range(1, 5) for i in (j, j + 1)
]


@st.composite
def unsaturating_fields(draw):
    """A random material, a field-mapped kind with its (i, j), and a bias field that does not saturate the sphere.

    The field is exactly mu0_Ms/3, below it down to zero, at zero of either sign, negative, infinite or NaN.
    """
    material = mc.MaterialParams(
        mu0_Ms=draw(st.floats(-3.0, 1.0).map(lambda e: 10.0**e)),
        gamma_e=draw(st.floats(8.0, 11.0).map(lambda e: 10.0**e)),
    )
    third = material.mu0_Ms / 3
    B = draw(st.one_of(
        st.sampled_from([third, 0.0, -0.0, math.inf, -math.inf, math.nan]),
        st.floats(0.0, 1.0).map(lambda u: third * u),
        st.floats(-1e6, 0.0),
    ))
    return material, *draw(st.sampled_from(SATURATED_KINDS)), B


@settings(max_examples=200, deadline=None)
@given(unsaturating_fields())
# msm20's radicand is positive at r < -7/15, and the walker (2,1) closed form is -384.5 MHz at 0.01 T
@example((MAT, mc.FieldMap("msm20"), (2, 0), -1.0))
@example((MAT, mc.FieldMap("walker", 2, 1), (2, 1), 0.01))
def test_a_field_that_does_not_saturate_the_sphere_is_one_error_wherever_it_meets_the_material(drawn):
    material, field_map, (i, j), B = drawn
    text = saturation_pattern(B, material)

    def raises_the_saturation_error(call, *args):
        with pytest.raises(ValueError, match=text) as raised:
            call(*args)
        assert type(raised.value) is ValueError

    q = mc.WalkerModeQuery(i, j, B)  # a query checks only its indices
    raises_the_saturation_error(mc.mode_frequency, field_map, B, material)
    saturated = mc.WalkerModeQuery(i, j, material.mu0_Ms)  # after it, the first query that fails raises
    raises_the_saturation_error(solve_walker_modes, [saturated, q], material, [None, None])
    raises_the_saturation_error(solve_walker_modes, [q], material, [(1.0, 2.0)])
    raises_the_saturation_error(mc.walker_characteristic, 1e9, q, material)
    closed, roots, error = magnetostatics._modes_table([(i, j)], np.array([B]), material)
    assert closed.size == roots.size == 0
    assert type(error) is ValueError and re.search(text, str(error))
    mode = mc.MagnonMode("m", 1e6, 1e6, field_map=field_map)
    system = mc.HybridSystem(cavity=CAVITY, modes=(mode,), material=material)
    if math.isfinite(B):
        raises_the_saturation_error(mc.sweep_map, system, [B, 2 * abs(B) + 1.0], [1e9, 2e9])
    else:  # a grid that is not finite is rejected before any field meets the material
        with pytest.raises(ValueError, match="^grids must be finite$"):
            mc.sweep_map(system, [B], [1e9, 2e9])
    # just above mu0_Ms/3 the field saturates the sphere
    above = mc.mode_frequency(field_map, material.mu0_Ms / 3 * (1 + 1e-9), material)
    assert math.isfinite(above) and above > 0
