"""Clock map, scale factor, and switching transport tests.

Frozen expected values are produced by independent oracles: clock map points
by scipy.optimize.brentq root finding on the defining transcendental relation,
Fourier transforms by scipy.integrate.quad on the defining integral.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takagi_harvest import (
    ConformalTakagiMap,
    StaticTrajectory,
    SwitchingFunction,
    cos_squared_switching,
    gaussian_switching,
    separation,
    transform_switching,
)


# --- clock map -------------------------------------------------------------

# brentq roots of tan(Omega tau) = (Omega/omega) tan(omega lam) on the
# matching branch, xtol 1e-15
CLOCK_POINTS = [
    (1.0, 2.0, 0.5, 0.41481137713761246),
    (1.0, 2.0, 2.0, 0.897876026277063),  # branch n=1
]


@pytest.mark.parametrize("omega,Omega,lam,expected", CLOCK_POINTS)
def test_tau_matches_root_oracle(omega, Omega, lam, expected):
    m = ConformalTakagiMap(omega, Omega)
    assert m.tau_of_lambda(lam) == pytest.approx(expected, rel=1e-13)


def test_tau_power_law_point():
    # Omega=0: tau = tan(omega lam)/omega, tan(0.91)/1.3
    m = ConformalTakagiMap(1.3, 0.0)
    assert m.tau_of_lambda(0.7) == pytest.approx(0.9895149082467749, rel=1e-14)


def test_power_law_outside_window_raises():
    m = ConformalTakagiMap(1.0, 0.0)
    with pytest.raises(ValueError):
        m.tau_of_lambda(math.pi / 2)
    with pytest.raises(ValueError):
        m.tau_of_lambda(-2.0)


@pytest.mark.parametrize("omega,Omega", [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0), (0.7, 0.7)])
def test_roundtrip_across_branches(omega, Omega):
    m = ConformalTakagiMap(omega, Omega)
    lam = np.linspace(-4.3, 4.3, 401)
    back = m.lambda_of_tau(m.tau_of_lambda(lam))
    assert np.max(np.abs(back - lam)) <= 1e-12


@pytest.mark.parametrize("omega,Omega", [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0), (1.3, 0.2)])
def test_inverse_clock_is_the_clock_with_the_frequencies_exchanged(omega, Omega):
    # lambda(tau) of (omega, Omega) is tau(lambda) of (Omega, omega), bit
    # for bit, on several branches of the tangent either way
    t = np.linspace(-4.0, 4.0, 401) * math.pi / min(omega, Omega)
    for x in (t, 0.0, 1.7, -2.9):
        got = ConformalTakagiMap(omega, Omega).lambda_of_tau(x)
        want = ConformalTakagiMap(Omega, omega).tau_of_lambda(x)
        assert np.array_equal(got, want) and type(got) is type(want)
    branches = np.floor(Omega * t / math.pi + 0.5)
    assert np.ptp(branches) >= 8


@settings(max_examples=60, deadline=None)
@given(
    omega=st.floats(0.3, 3.0),
    Omega=st.floats(0.2, 4.0),
    lam=st.floats(-5.0, 5.0),
)
def test_roundtrip_property(omega, Omega, lam):
    m = ConformalTakagiMap(omega, Omega)
    assert m.lambda_of_tau(m.tau_of_lambda(lam)) == pytest.approx(lam, abs=1e-9)


def test_degenerate_map_is_identity():
    m = ConformalTakagiMap(1.5, 1.5)
    lam = np.linspace(-9.0, 9.0, 57)
    assert np.array_equal(m.tau_of_lambda(lam), lam)
    assert np.array_equal(m.conformal_factor(lam), np.ones_like(lam))


def test_tau_monotone_and_continuous():
    m = ConformalTakagiMap(1.0, 2.0)
    lam = np.linspace(-4.3, 4.3, 4001)
    tau = m.tau_of_lambda(lam)
    assert np.all(np.diff(tau) > 0)
    # no branch jumps: increments bounded by max slope * h
    assert np.max(np.diff(tau)) < 1.1 * np.max(m.conformal_factor(lam)) * (lam[1] - lam[0])


def test_dtau_dlambda_matches_finite_difference():
    # the conformal factor C is the clock rate dtau/dlambda
    h = 1e-6
    for omega, Omega in [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0)]:
        m = ConformalTakagiMap(omega, Omega)
        lam = np.linspace(-4.3, 4.3, 501)  # spans several branches
        fd = (m.tau_of_lambda(lam + h) - m.tau_of_lambda(lam - h)) / (2 * h)
        rel = np.abs(m.conformal_factor(lam) - fd) / np.abs(fd)
        assert np.max(rel) <= 1e-6


def test_conformal_factor_value_and_alias():
    m = ConformalTakagiMap(1.0, 2.0)
    # 1/(cos^2 0.5 + 4 sin^2 0.5)
    assert m.conformal_factor(0.5) == pytest.approx(0.5918747874746664, rel=1e-15)
    # the tangent form at and next to the poles of tan, omega t = pi/2 + k pi,
    # and on a map with Omega = 0, where C = 1/cos^2 grows to about 1e32
    poles = np.array([0.5 * math.pi + k * math.pi for k in (-7, -2, -1, 0, 1, 3, 12)])
    x = np.concatenate([poles, np.nextafter(poles, -np.inf), np.nextafter(poles, np.inf),
                        poles + 1e-9, poles - 1e-6, poles + 1e-3])
    for omega, Omega in [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0), (1.0, 1e-3), (1.3, 0.0)]:
        m = ConformalTakagiMap(omega, Omega)
        t = x / omega
        r = Omega / omega
        want = 1.0 / (np.cos(omega * t) ** 2 + r * r * np.sin(omega * t) ** 2)
        got = m.conformal_factor(t)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / want) <= 1e-14
        if Omega > 0.0:
            assert m.conformal_factor(0.5 * math.pi / omega) == pytest.approx(1.0 / r**2, rel=1e-14)


def test_scale_factor_equals_conformal_factor_on_trajectory():
    for omega, Omega in [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0)]:
        m = ConformalTakagiMap(omega, Omega)
        t = np.linspace(-4.0, 4.0, 301)
        resid = np.abs(m.scale_factor(m.tau_of_lambda(t)) - m.conformal_factor(t))
        assert np.max(resid) <= 1e-12


def test_scale_factor_bounds_and_period():
    m = ConformalTakagiMap(1.0, 0.5)
    T = np.linspace(-7.0, 7.0, 1001)
    a = m.scale_factor(T)
    assert np.min(a) >= 1.0 - 1e-12 and np.max(a) <= 4.0 + 1e-12
    assert np.allclose(a, m.scale_factor(T + math.pi / 0.5), atol=1e-12)


def test_scale_factor_power_law():
    m = ConformalTakagiMap(1.0, 0.0)
    T = np.linspace(-3.0, 3.0, 301)
    assert np.array_equal(m.scale_factor(T), 1.0 + T**2)


def test_scale_factor_small_Omega_approaches_power_law():
    m = ConformalTakagiMap(1.0, 1e-4)
    T = np.linspace(-3.0, 3.0, 301)
    assert np.max(np.abs(m.scale_factor(T) - (1.0 + T**2))) <= 1e-5


def test_map_validation():
    with pytest.raises(ValueError):
        ConformalTakagiMap(0.0, 1.0)
    with pytest.raises(ValueError):
        ConformalTakagiMap(1.0, -2.0)
    with pytest.raises(TypeError):
        ConformalTakagiMap(1.0, 1.0, n_spatial=3)


def test_swapped_map_inverts_clock():
    # exchanging omega and Omega inverts the clock map
    m = ConformalTakagiMap(1.0, 2.0)
    s = ConformalTakagiMap(2.0, 1.0)
    lam = np.linspace(-3.0, 3.0, 101)
    assert np.max(np.abs(s.tau_of_lambda(m.tau_of_lambda(lam)) - lam)) <= 1e-12


# --- switching functions ---------------------------------------------------


def test_gaussian_switching_shape():
    chi = gaussian_switching(1.0)
    assert chi(0.0) == 1.0
    assert chi(8.5) == 0.0  # outside the 8 sigma support
    assert chi.support == (-8.0, 8.0)


def test_gaussian_fourier_closed_form():
    chi = gaussian_switching(1.0)
    # sqrt(2 pi) exp(-9/8); quad oracle agrees to 14 digits
    assert chi.fourier(1.5) == pytest.approx(0.8137830541091573, rel=1e-12)


# quad oracle values of int cos^2(pi t) e^{i s t} dt over (-1/2, 1/2)
COS2_FOURIER = [
    (0.0, 0.5),
    (1.7, 0.47683623452542256),
    (2 * math.pi, 0.25),
    (9.0, 0.10326983376794235),
]


@pytest.mark.parametrize("s,expected", COS2_FOURIER)
def test_cos_squared_fourier(s, expected):
    chi = cos_squared_switching(-0.5, 0.5)
    assert chi.fourier(s) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_cos_squared_fourier_shifted_window():
    # window (1, 3.5); quad oracle, checks the e^{i s center} phase
    chi = cos_squared_switching(1.0, 3.5)
    got = chi.fourier(2.2)
    assert got.real == pytest.approx(0.1746866887114087, rel=1e-11)
    assert got.imag == pytest.approx(-0.7212910534120238, rel=1e-11)


def test_cos_squared_fourier_envelope_bounds_transform():
    chi = cos_squared_switching(-0.5, 0.5)
    for s in np.linspace(2 * math.pi, 300.0, 200):
        assert abs(chi.fourier(s)) <= chi.fourier_envelope(s) * (1 + 1e-12)


def test_cos_squared_fourier_envelope_at_zero_is_quiet():
    # the x^-3 tail bound only applies for s >= 2b and must not be evaluated at s = 0
    chi = cos_squared_switching(-0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chi.fourier_envelope(0.0) == 0.5
        assert np.array_equal(chi.fourier_envelope(np.array([0.0, 1.0])), [0.5, 0.5])


def test_windows_compare_by_value():
    g = gaussian_switching(1.0)
    assert g == gaussian_switching(1.0)
    assert hash(g) == hash(gaussian_switching(1.0))
    assert g != gaussian_switching(1.5)
    assert g != gaussian_switching(1.0, center=0.5)
    assert g != cos_squared_switching(-8.0, 8.0)
    m = ConformalTakagiMap(1.0, 2.0)
    dual = transform_switching(m, g)
    assert dual == transform_switching(ConformalTakagiMap(1.0, 2.0), gaussian_switching(1.0))
    assert dual != transform_switching(m, gaussian_switching(1.5))
    assert dual != transform_switching(ConformalTakagiMap(1.0, 3.0), g)
    assert dual != g


def test_window_kind_is_checked():
    with pytest.raises(ValueError, match="kind"):
        SwitchingFunction("tabulated", (0.0, 1.0), ())


def test_plain_window_ignores_the_clock_values():
    # a kernel hands every window its clock row; only a transported one reads it
    t = np.linspace(-9.0, 9.0, 73)
    lam, C = np.full_like(t, np.nan), np.full_like(t, -1.0)
    for chi in (gaussian_switching(1.3, center=0.4), cos_squared_switching(-0.5, 1.0)):
        assert np.array_equal(chi(t, lam, C), chi(t))
        assert np.array_equal(chi.derivative(t, lam, C), chi.derivative(t))
        assert chi(0.3, 0.7, 2.0) == chi(0.3)


def test_cos_squared_support_and_zero_outside():
    chi = cos_squared_switching(1.0, 3.5)
    assert chi(2.25) == 1.0
    assert chi(0.99) == 0.0 and chi(3.51) == 0.0


@pytest.mark.parametrize("chi", [
    gaussian_switching(1.3, center=0.4),
    cos_squared_switching(-0.5, 1.0),
    transform_switching(ConformalTakagiMap(1.0, 2.0), gaussian_switching(1.0)),
    transform_switching(ConformalTakagiMap(1.0, 0.5), cos_squared_switching(-1.0, 1.0)),
    transform_switching(ConformalTakagiMap(1.0, 0.0), cos_squared_switching(-0.5, 0.5)),
], ids=["gaussian", "cos_squared", "transported-gaussian", "transported-cos_squared",
        "transported-power-law"])
def test_window_derivative_matches_a_central_difference(chi):
    a, b = chi.support
    h = 1e-5 * (b - a)
    t = np.linspace(a + 3.0 * h, b - 3.0 * h, 401)
    # five-point stencil, O(h^4)
    fd = (chi(t - 2 * h) - 8.0 * chi(t - h) + 8.0 * chi(t + h) - chi(t + 2 * h)) / (12.0 * h)
    got = chi.derivative(t)
    assert np.max(np.abs(got - fd)) <= 1e-8 * np.max(np.abs(fd))
    assert chi.derivative(a - 0.1) == 0.0 and chi.derivative(b + 0.1) == 0.0
    if chi.kind == "transformed":
        # from the clock values a kernel holds, value for value
        m = chi.param("map")
        lam = m.lambda_of_tau(t)
        assert np.array_equal(chi.derivative(t, lam, m.conformal_factor(lam)), got)


# --- switching transport ---------------------------------------------------


@pytest.mark.parametrize("omega,Omega", [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0)])
def test_transport_defining_identity(omega, Omega):
    # n=3: chi_Omega(tau(lam)) * C(lam)^{1/2} == chi(lam)
    m = ConformalTakagiMap(omega, Omega)
    chi = gaussian_switching(1.0)
    dual = transform_switching(m, chi)
    lam = np.linspace(-7.9, 7.9, 801)
    lhs = dual(m.tau_of_lambda(lam)) * np.sqrt(m.conformal_factor(lam))
    assert np.max(np.abs(lhs - chi(lam))) <= 1e-13


def test_transport_support_endpoints():
    m = ConformalTakagiMap(1.0, 2.0)
    chi = cos_squared_switching(-0.5, 0.5)
    dual = transform_switching(m, chi)
    assert dual.support[0] == pytest.approx(m.tau_of_lambda(-0.5), rel=1e-14)
    assert dual.support[1] == pytest.approx(m.tau_of_lambda(0.5), rel=1e-14)


def test_transport_power_law_window_check():
    # Omega=0 clock only covers |omega lam| < pi/2; an 8 sigma gaussian
    # support violates it and must be rejected
    m = ConformalTakagiMap(1.0, 0.0)
    with pytest.raises(ValueError):
        transform_switching(m, gaussian_switching(1.0))
    narrow = cos_squared_switching(-0.5, 0.5)
    dual = transform_switching(m, narrow)
    assert dual.support[1] == pytest.approx(math.tan(0.5), rel=1e-14)


# --- spacetime helpers -----------------------------------------------------


def test_separation_euclidean():
    a = StaticTrajectory((0.0, 0.0, 0.0))
    b = StaticTrajectory((3.0, 4.0, 0.0))
    assert separation(a, b) == 5.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trajectory_refuses_non_finite_components(bad):
    # a nan position made separation nan, and the pair was then integrated
    # as co-located, with a 1/eps pole in M
    for position in ((bad, 0.0, 0.0), (0.0, 0.0, bad)):
        with pytest.raises(ValueError, match="^position"):
            StaticTrajectory(position)
    with pytest.raises(ValueError, match="^position"):
        StaticTrajectory(())
