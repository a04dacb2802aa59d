"""Adaptive cubature, regulator extrapolation, and Fourier oracle tests.

Gauss-Kronrod constants are checked against scipy.special.roots_legendre and
against the polynomial exactness degrees the pair must satisfy (13 for the
embedded 7-point Gauss rule, 22 for the 15-point Kronrod extension).
"""

import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from takagi_harvest import (
    DetectorSpec,
    StaticTrajectory,
    gaussian_switching,
)
from takagi_harvest.quadrature import (
    G_IDX,
    IntegralResult,
    NumericalHardError,
    QuadratureConfig,
    WG,
    WK,
    XK,
    adaptive_1d,
    default_epsilon_sequence,
    extrapolate_epsilon,
    fourier_oracle_L,
    integrate_ordered,
    integrate_square,
    validate_epsilon_sequence,
)

CFG = QuadratureConfig()


# --- nodes and weights -------------------------------------------------------


def test_weight_sums():
    assert math.fsum(WK) == pytest.approx(2.0, abs=1e-14)
    assert math.fsum(WG) == pytest.approx(2.0, abs=1e-14)


def test_gauss_subset_matches_legendre_roots():
    nodes, weights = roots_legendre(7)
    assert np.max(np.abs(XK[G_IDX] - nodes)) <= 1e-14
    assert np.max(np.abs(WG - weights)) <= 1e-14


@pytest.mark.parametrize("k", range(0, 23, 2))
def test_kronrod_polynomial_exactness(k):
    got = float(WK @ XK**k)
    assert got == pytest.approx(2.0 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("k", range(0, 14, 2))
def test_gauss_polynomial_exactness(k):
    got = float(WG @ XK[G_IDX] ** k)
    assert got == pytest.approx(2.0 / (k + 1), rel=1e-13)


# --- square and ordered cubature ---------------------------------------------


def test_square_separable_exponential():
    res = integrate_square(lambda u, v: np.exp(u + v), (0, 1, 0, 1), CFG)
    assert res.value == pytest.approx((math.e - 1) ** 2, rel=1e-12)
    assert res.err_estimate <= 1e-8


def test_square_complex_phase():
    res = integrate_square(lambda u, v: np.exp(1j * (u + v)), (0, 1, 0, 1), CFG)
    expected = ((np.exp(1j) - 1) / 1j) ** 2
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_square_diagonal_ridge_closed_form():
    # int int du dv / ((u-v)^2 + a^2) = (2/a) arctan(1/a) - ln((1+a^2)/a^2)
    a = 0.05
    expected = (2 / a) * math.atan(1 / a) - math.log((1 + a * a) / (a * a))
    res = integrate_square(lambda u, v: 1.0 / ((u - v) ** 2 + a * a), (0, 1, 0, 1), CFG)
    assert res.value.real == pytest.approx(expected, rel=1e-10)
    assert abs(res.value.imag) <= 1e-12


def test_ordered_constant_triangle():
    res = integrate_ordered(lambda u, v: np.ones_like(u + v), (0, 1, 0, 1), CFG)
    assert res.value == pytest.approx(0.5, rel=1e-13)


def test_ordered_uv_product():
    res = integrate_ordered(lambda u, v: u * v, (0, 1, 0, 1), CFG)
    assert res.value == pytest.approx(0.125, rel=1e-13)


def test_ordered_clipped_rectangles():
    # v-range partially below the triangle: area = 1.375 for f = 1
    res = integrate_ordered(lambda u, v: np.ones_like(u + v), (0, 1, -1, 0.5), CFG)
    assert res.value == pytest.approx(1.375, rel=1e-13)
    # v-range entirely above u: empty region
    res = integrate_ordered(lambda u, v: np.ones_like(u + v), (0, 1, 2, 3), CFG)
    assert res.value == 0.0


def test_ordered_plus_swapped_equals_square():
    f = lambda u, v: np.exp(-((u - v) ** 2)) * np.cos(u + v)
    fswap = lambda u, v: f(v, u)
    rect = (0, 1, 0, 1)
    total = integrate_square(f, rect, CFG).value
    parts = integrate_ordered(f, rect, CFG).value + integrate_ordered(fswap, rect, CFG).value
    assert parts == pytest.approx(total, rel=1e-12)


def test_adaptive_1d_oscillatory():
    # int_0^10 cos(7x) e^{-x} dx
    res = adaptive_1d(lambda x: np.cos(7 * x) * np.exp(-x), 0.0, 10.0, CFG)
    expected = (1.0 + math.exp(-10) * (7 * math.sin(70) - math.cos(70))) / 50.0
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_subdivision_budget_reports_honest_error():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=4)
    res = integrate_square(
        lambda u, v: 1.0 / ((u - v) ** 2 + 1e-4), (0, 1, 0, 1), cfg
    )
    # budget is far too small: the defect must stay above the request
    assert res.err_estimate > cfg.rel_tol * abs(res.value)


def test_subdivision_budget_exhaustion_is_flagged():
    starved = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=4)
    res = integrate_square(lambda u, v: 1.0 / ((u - v) ** 2 + 1e-4), (0, 1, 0, 1), starved)
    assert res.budget_exhausted
    smooth = integrate_square(lambda u, v: np.exp(u + v) + 0j, (0, 1, 0, 1), CFG)
    assert smooth.err_estimate <= CFG.rel_tol * abs(smooth.value)
    assert not smooth.budget_exhausted
    assert adaptive_1d(lambda x: 1.0 / (x * x + 1e-6), -1.0, 1.0, starved).budget_exhausted
    assert not adaptive_1d(np.exp, 0.0, 1.0, CFG).budget_exhausted


def test_extrapolation_carries_budget_exhaustion_of_any_level():
    eps = [1e-2 / 2**k for k in range(3)]
    levels = [_res(0.7 + 0.3 * e, e) for e in eps]
    assert not extrapolate_epsilon(levels).budget_exhausted
    levels[1] = IntegralResult(levels[1].value, 1e-16, eps[1], budget_exhausted=True)
    out = extrapolate_epsilon(levels)
    assert out.note == "richardson"
    assert out.budget_exhausted


def test_nonfinite_integrand_raises():
    def bad(u, v):
        return np.where(u > 0.5, np.nan, 1.0) + 0.0 * v

    with pytest.raises(NumericalHardError):
        integrate_square(bad, (0, 1, 0, 1), CFG)


def test_degenerate_rect_rejected():
    with pytest.raises(ValueError):
        integrate_ordered(lambda u, v: u, (1, 0, 0, 1), CFG)


# --- config and epsilon handling ----------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(epsilon_sequence=(1e-2, 1e-2))
    with pytest.raises(ValueError):
        QuadratureConfig(epsilon_sequence=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        QuadratureConfig(extrapolation="pade")
    with pytest.raises(ValueError):
        QuadratureConfig(method="montecarlo")


def test_richardson_config_needs_halving_sequence():
    with pytest.raises(ValueError, match="halve"):
        QuadratureConfig(epsilon_sequence=(0.01, 0.004))
    # only the finest level is used without extrapolation
    cfg = QuadratureConfig(epsilon_sequence=(0.01, 0.004), extrapolation="none")
    assert cfg.epsilon_sequence == (0.01, 0.004)
    assert validate_epsilon_sequence([0.02, 0.01, 0.005]) == (0.02, 0.01, 0.005)
    assert validate_epsilon_sequence([0.5]) == (0.5,)


def test_default_epsilon_sequence_halves():
    eps = default_epsilon_sequence(2.0, levels=4)
    assert eps[0] == pytest.approx(0.02)
    assert all(a / b == pytest.approx(2.0) for a, b in zip(eps, eps[1:]))


def _res(value, eps):
    return IntegralResult(value=value, err_estimate=1e-16, epsilon_used=eps)


def test_extrapolate_richardson_removes_linear_term():
    v0, a, b = 0.7, 0.3, -2.0
    eps = [1e-2 / 2**k for k in range(4)]
    out = extrapolate_epsilon([_res(v0 + a * e + b * e * e, e) for e in eps])
    assert out.note == "richardson"
    assert out.extrapolated
    assert out.value == pytest.approx(v0, abs=1e-10)
    assert abs(out.value - v0) <= out.err_estimate + 1e-12


def test_extrapolate_single_epsilon():
    out = extrapolate_epsilon([_res(1.0, 1e-2)])
    assert out.note == "single-epsilon"
    assert out.value == 1.0


def test_extrapolate_flat_sequence():
    out = extrapolate_epsilon([_res(0.25, 1e-2 / 2**k) for k in range(3)])
    assert out.note == "converged-flat"
    assert out.value == 0.25


def test_extrapolate_nonmonotone_falls_back_to_finest():
    vals = [0.0, 1e-3, 3e-3]  # growing differences: no limit model
    eps = [1e-2 / 2**k for k in range(3)]
    out = extrapolate_epsilon([_res(v, e) for v, e in zip(vals, eps)])
    assert out.note == "fallback-nonmonotone"
    assert out.value == vals[-1]
    assert out.err_estimate >= 3e-3  # inflated, never optimistic


def test_extrapolate_wrong_ratio_falls_back():
    # differences shrink by 0.9: monotone but far from the halving model
    diffs = [1e-3 * 0.9**k for k in range(4)]
    vals = list(np.cumsum([0.0] + diffs))
    eps = [1e-2 / 2**k for k in range(5)]
    out = extrapolate_epsilon([_res(v, e) for v, e in zip(vals, eps)])
    assert out.note == "fallback-ratio"
    assert out.value == vals[-1]


def test_extrapolate_validates_sequence():
    with pytest.raises(ValueError):
        extrapolate_epsilon([])
    with pytest.raises(ValueError):
        extrapolate_epsilon([IntegralResult(1.0, 0.0), IntegralResult(1.0, 0.0)])
    with pytest.raises(ValueError):
        extrapolate_epsilon([_res(1.0, 1e-2), _res(1.0, 3e-3)])  # not halving
    with pytest.raises(ValueError):
        extrapolate_epsilon([_res(1.0, 1e-3), _res(1.0, 2e-3)])  # increasing


# --- Fourier mode-sum oracle ---------------------------------------------------


def _gauss_detector(label, pos, coupling=0.01):
    return DetectorSpec(
        label=label,
        model="oscillator",
        frequency=1.0,
        coupling=coupling,
        trajectory=StaticTrajectory(pos),
        switching=gaussian_switching(1.0),
    )


def test_fourier_oracle_frozen_values():
    # frozen from this oracle at rel_tol 1e-10; regression guard
    a = _gauss_detector("A", (0.0, 0.0, 0.0))
    b = _gauss_detector("B", (5.0, 0.0, 0.0))
    res_aa = fourier_oracle_L(a, a, 0.0, CFG)
    assert res_aa.value == pytest.approx(7.088272232636415e-07, rel=1e-9)
    assert res_aa.note == "fourier-oracle"
    res_ab = fourier_oracle_L(a, b, 5.0, CFG)
    assert res_ab.value == pytest.approx(2.0579692753949913e-07, rel=1e-9)


def test_fourier_oracle_zero_coupling():
    a = _gauss_detector("A", (0.0, 0.0, 0.0), coupling=0.0)
    res = fourier_oracle_L(a, a, 0.0, CFG)
    assert res.value == 0.0
