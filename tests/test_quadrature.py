"""Adaptive cubature, regulator extrapolation, and Fourier oracle tests.

Gauss-Kronrod constants are checked against scipy.special.roots_legendre and
against the polynomial exactness degrees the pair must satisfy (29 for the
embedded 15-point Gauss rule, 46 for the 31-point Kronrod extension).
"""

import itertools
import math
from dataclasses import replace

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
    _eval_cell,
    adaptive_1d,
    extrapolate_epsilon,
    fourier_oracle_L,
    integrate_square,
    validate_epsilon_sequence,
)

CFG = QuadratureConfig()


# --- nodes and weights -------------------------------------------------------


def test_weight_sums():
    assert math.fsum(WK) == pytest.approx(2.0, abs=1e-14)
    assert math.fsum(WG) == pytest.approx(2.0, abs=1e-14)


def test_gauss_subset_matches_legendre_roots():
    nodes, weights = roots_legendre(15)
    assert np.max(np.abs(XK[G_IDX] - nodes)) <= 1e-14
    assert np.max(np.abs(WG - weights)) <= 1e-14


@pytest.mark.parametrize("k", range(0, 47, 2))
def test_kronrod_polynomial_exactness(k):
    got = float(WK @ XK**k)
    assert got == pytest.approx(2.0 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("k", range(0, 30, 2))
def test_gauss_polynomial_exactness(k):
    got = float(WG @ XK[G_IDX] ** k)
    assert got == pytest.approx(2.0 / (k + 1), rel=1e-13)


# --- square cubature ---------------------------------------------------------


def test_square_separable_exponential():
    res = integrate_square(lambda u, v: np.exp(u + v), ((0, 1), (0, 1)), CFG)
    assert res.value == pytest.approx((math.e - 1) ** 2, rel=1e-12)
    assert res.err_estimate <= 1e-8


def test_square_complex_phase():
    res = integrate_square(lambda u, v: np.exp(1j * (u + v)), ((0, 1), (0, 1)), CFG)
    expected = ((np.exp(1j) - 1) / 1j) ** 2
    assert res.value == pytest.approx(expected, rel=1e-12)


def _ridge(a):
    return lambda u, v: 1.0 / ((u - v) ** 2 + a * a)


def test_square_diagonal_ridge_closed_form():
    # int int du dv / ((u-v)^2 + a^2) = (2/a) arctan(1/a) - ln((1+a^2)/a^2)
    a = 0.05
    expected = (2 / a) * math.atan(1 / a) - math.log((1 + a * a) / (a * a))
    res = integrate_square(_ridge(a), ((0, 1), (0, 1)), CFG)
    assert res.value.real == pytest.approx(expected, rel=1e-10)
    assert abs(res.value.imag) <= 1e-12


# --- one cell and one run ---------------------------------------------------------


def _counted(f):
    calls = [0]

    def kern(u, v):
        calls[0] += 1
        return f(u, v)

    return kern, calls


def test_cell_rule_defects_follow_their_axis():
    # one cell's Kronrod value and Gauss defects against the separable
    # rules written out; a kernel that varies along u only has no v defect.
    # The Lorentzian 1/(u^2 + 1/4) keeps a Gauss defect of about 4e-6
    F = 1.0 / (XK[:, None] ** 2 + 0.25) * (1.0 + 0.0 * XK[None, :]) + 1j * XK[:, None] ** 2
    ik, (eu, ev) = _eval_cell(lambda u, v: F, [-1.0, 1.0, -1.0, 1.0])
    kron = WK @ F @ WK
    assert abs(ik - kron) <= 1e-14 * abs(kron)
    assert abs(eu - abs(kron - WG @ F[G_IDX] @ WK)) <= 1e-14 * abs(kron)
    assert eu > 1e-8 and ev <= 1e-14 * abs(kron)
    # a one-axis cell: the Kronrod value and its one Gauss defect
    ik, (e,) = _eval_cell(lambda x: F[:, 0], [-1.0, 1.0])
    kron = WK @ F[:, 0]
    assert abs(ik - kron) <= 1e-14 * abs(kron)
    assert abs(e - abs(kron - WG @ F[G_IDX, 0])) <= 1e-14 * abs(kron)
    assert e > 1e-8


def test_identical_components_are_bitwise_equal():
    # the same kernel, called directly or through a read-only view of its
    # grid, gives the same result bit for bit on every run
    f = _ridge(0.05)
    single = integrate_square(f, ((0, 1), (0, 1)), CFG)
    viewed = integrate_square(
        lambda u, v: np.broadcast_to(f(u, v), (len(XK), len(XK))), ((0, 1), (0, 1)), CFG
    )
    assert viewed == single
    assert integrate_square(f, ((0, 1), (0, 1)), CFG) == single


def test_real_grid_matches_its_complex_cast():
    # a real kernel keeps a real rule matrix; only the last bits may move
    for a in (0.05, 0.025):
        real = integrate_square(_ridge(a), ((0, 1), (0, 1)), CFG)
        cast = integrate_square(lambda u, v: _ridge(a)(u, v) + 0j, ((0, 1), (0, 1)), CFG)
        assert real.cells == cast.cells
        assert isinstance(real.value, complex) and real.value.imag == 0.0
        assert abs(real.value - cast.value) <= 1e-14 * abs(cast.value)
        # an error is a difference of two rules, so it keeps the values' absolute bits
        assert abs(real.err_estimate - cast.err_estimate) <= 1e-14 * abs(cast.value)
    with pytest.raises(NumericalHardError):
        integrate_square(lambda u, v: np.where(u > 0.5, np.nan, 1.0 + 0 * v), ((0, 1), (0, 1)), CFG)


def test_ridge_sweep_on_one_mesh():
    # a halving regulator sweep of the ridge 1/((u-v)^2 + a^2): each width
    # runs on one mesh of its own, whole or started from pieces of u,
    # calling its kernel once per cell, and meets the tolerance and the
    # closed form
    for a, us in itertools.product([0.05 / 2**k for k in range(6)], [(0, 1), (0, 0.25, 0.5, 1)]):
        kern, calls = _counted(_ridge(a))
        res = integrate_square(kern, (us, (0, 1)), CFG)
        assert calls[0] == res.cells
        assert (res.cells - (len(us) - 1)) % 2 == 0  # pieces + 2 * splits
        assert not res.budget_exhausted
        assert res.err_estimate <= max(CFG.abs_tol, CFG.rel_tol * abs(res.value))
        expected = (2 / a) * math.atan(1 / a) - math.log((1 + a * a) / (a * a))
        assert res.value.real == pytest.approx(expected, rel=10 * CFG.rel_tol)


def test_cancelling_pieces_stop_at_rel_tol_of_their_sum():
    # two pieces of opposite sign, each about 1000 times their sum: one run
    # stops at rel_tol of the sum, where runs of their own, each to rel_tol
    # of its piece, leave the sum's error some hundred times above it
    a, d = 1e-3, 1e-3
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=0.0)
    f = lambda u, v: np.where(u < 0.0, 1.0, -(1.0 + d)) / (u * u + a * a) * np.exp(v)
    expected = -d * math.atan(1 / a) / a * (math.e - 1)
    kern, calls = _counted(f)
    res = integrate_square(kern, ((-1, 0, 1), (0, 1)), cfg)
    assert not res.budget_exhausted and res.cells == calls[0]
    assert res.err_estimate <= cfg.rel_tol * abs(res.value)
    assert abs(res.value - expected) <= res.err_estimate
    apart = [integrate_square(f, (us, (0, 1)), cfg) for us in ((-1, 0), (0, 1))]
    total = sum(r.value for r in apart)
    assert sum(r.err_estimate for r in apart) > 100 * cfg.rel_tol * abs(total)


def test_stacked_budget_is_flagged_per_component():
    # under one tight budget each run is flagged on its own: the smooth
    # kernel meets its tolerance unflagged, the ridge uses the whole budget
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-300, max_subdivisions=3)
    runs = []
    for f in (lambda u, v: np.exp(u + v) + 0j, lambda u, v: _ridge(1e-2)(u, v) + 0j):
        kern, calls = _counted(f)
        res = integrate_square(kern, ((0, 1), (0, 1)), cfg)
        assert calls[0] == res.cells
        runs.append(res)
    above = [res.err_estimate > max(cfg.abs_tol, cfg.rel_tol * abs(res.value)) for res in runs]
    assert above == [False, True]
    assert [res.budget_exhausted for res in runs] == above
    assert runs[1].cells == 1 + 2 * cfg.max_subdivisions


def test_budget_starved_run_counts_its_cells():
    # a run of p pieces evaluates p + 2 * splits cells, one budget for all
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=9)
    square = integrate_square(_ridge(1e-3), ((0, 1), (0, 1)), cfg)
    line = adaptive_1d(lambda x: 1.0 / (x * x + 1e-6), -1.0, 1.0, cfg)
    for res in (square, line):
        assert res.budget_exhausted
        assert res.cells == 1 + 2 * cfg.max_subdivisions
    kern, calls = _counted(_ridge(1e-3))
    pieces = integrate_square(kern, ((0, 0.3, 0.6, 1), (0, 1)), cfg)
    assert pieces.budget_exhausted
    assert pieces.cells == calls[0] == 3 + 2 * cfg.max_subdivisions
    eps = [1e-2 / 2**k for k in range(3)]
    levels = [replace(_res(0.7 + 0.3 * e, e), cells=c) for e, c in zip(eps, (9, 75, 9))]
    assert extrapolate_epsilon(levels).cells == 75


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
def test_nonfinite_component_raises(bad):
    # a non-finite real or imaginary part anywhere in the grid
    def kern(u, v):
        ones = np.ones_like(u + v) + 0j
        return np.where(u > 0.5, bad, ones)

    with pytest.raises(NumericalHardError):
        integrate_square(kern, ((0, 1), (0, 1)), CFG)


@pytest.mark.parametrize("shape", [(15,), (2, 15, 14), (15, 15, 2), (2, 2, 15, 15), (2, 15, 15)])
def test_kernel_of_wrong_shape_rejected(shape):
    with pytest.raises(ValueError, match="kernel must broadcast"):
        integrate_square(lambda u, v: np.ones(shape), ((0, 1), (0, 1)), CFG)


@pytest.mark.parametrize("max_subdivisions", [CFG.max_subdivisions, 5])
def test_kernel_constant_in_v_matches_adaptive_1d(max_subdivisions):
    # on [a, b] x [0, 1] a kernel that ignores v is its 1D integrand: both
    # runs refine the same u segments, so the value, the cell count and the
    # budget flag agree
    cfg = replace(CFG, rel_tol=1e-12, max_subdivisions=max_subdivisions)
    g = lambda x: np.exp(-x) * (2.0 + np.cos(20.0 * x)) + 0j
    line = adaptive_1d(g, 0.0, 10.0, cfg)
    square = integrate_square(lambda u, v: g(u) + 0.0 * v, ((0.0, 10.0), (0.0, 1.0)), cfg)
    assert abs(square.value - line.value) <= 1e-14 * abs(line.value)
    assert square.cells == line.cells > 1
    assert square.budget_exhausted == line.budget_exhausted == (max_subdivisions == 5)


def test_adaptive_1d_oscillatory():
    # int_0^10 cos(7x) e^{-x} dx
    res = adaptive_1d(lambda x: np.cos(7 * x) * np.exp(-x), 0.0, 10.0, CFG)
    expected = (1.0 + math.exp(-10) * (7 * math.sin(70) - math.cos(70))) / 50.0
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_subdivision_budget_reports_honest_error():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=4)
    res = integrate_square(
        lambda u, v: 1.0 / ((u - v) ** 2 + 1e-4), ((0, 1), (0, 1)), cfg
    )
    # budget is far too small: the defect must stay above the request
    assert res.err_estimate > cfg.rel_tol * abs(res.value)


def test_subdivision_budget_exhaustion_is_flagged():
    starved = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=4)
    for rect in (((0, 1), (0, 1)), ((0, 0.5, 1), (0, 1))):
        res = integrate_square(lambda u, v: 1.0 / ((u - v) ** 2 + 1e-4), rect, starved)
        assert res.budget_exhausted
    smooth = integrate_square(lambda u, v: np.exp(u + v) + 0j, ((0, 1), (0, 1)), CFG)
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
        integrate_square(bad, ((0, 1), (0, 1)), CFG)
    with pytest.raises(NumericalHardError):
        adaptive_1d(lambda x: bad(x, 0.0), 0.0, 1.0, CFG)


def test_degenerate_rect_rejected():
    # a reversed axis, an axis with fewer than two edges, other than two
    # axes, and the former flat (u0, ..., u1, v0, v1), before any kernel call
    def kern(u, v):
        raise AssertionError("a malformed rectangle reached its kernel")

    for rect in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1),), ((0, 1), (0,)), ((), (0, 1)),
                 ((0, 1), (0, 1), (0, 1)), (0, 1), (0, 1, 0, 1), (0, 0.5, 1, 0, 1)):
        with pytest.raises(ValueError):
            integrate_square(kern, rect, CFG)


def test_break_on_v_behaves_like_a_break_on_u():
    # the same kernel with its axes exchanged, and its break with them,
    # refines the same pieces along the other axis
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=0.0)
    g = lambda a, b: np.abs(b - 0.3) ** 1.5 * np.exp(a) * np.cos(3.0 * a * b)
    on_v = integrate_square(lambda u, v: g(u, v), ((0, 1), (0, 0.3, 1)), cfg)
    on_u = integrate_square(lambda u, v: g(v, u), ((0, 0.3, 1), (0, 1)), cfg)
    assert on_v.cells == on_u.cells > 2
    assert abs(on_v.value - on_u.value) <= on_v.err_estimate + on_u.err_estimate
    for res in (on_v, on_u):
        assert not res.budget_exhausted
        assert res.err_estimate <= cfg.rel_tol * abs(res.value)


def test_kink_on_a_v_edge_needs_no_split():
    # |v - c| (1 + u) is a polynomial on each side of v = c: with c an edge
    # every piece is exact on its first cell, and without it the kink is
    # refined by splits.  The integral is (c^2 + (1 - c)^2) / 2 * 3/2
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=0.0)
    c = 0.3
    expected = 0.75 * (c * c + (1.0 - c) ** 2)
    for vs, pieces in (((0, c, 1), 2), ((0, 0.2, c, 1), 3)):
        kern, calls = _counted(lambda u, v: np.abs(v - c) * (1.0 + u))
        res = integrate_square(kern, ((0, 1), vs), cfg)
        assert res.cells == calls[0] == pieces
        assert abs(res.value - expected) <= 1e-14
    kern, calls = _counted(lambda u, v: np.abs(v - c) * (1.0 + u))
    res = integrate_square(kern, ((0, 1), (0, 1)), cfg)
    assert res.cells == calls[0] > 1 and (res.cells - 1) % 2 == 0
    assert not res.budget_exhausted
    assert abs(res.value - expected) <= res.err_estimate + 1e-14


@pytest.mark.parametrize("us", [(0, 0.5, 0.5, 1), (0, 0.7, 0.3, 1), (0, 0, 1), (0, 1, 1),
                                (0, 1.5, 1), (0, -0.5, 1), (0, math.nan, 1)])
def test_breaks_must_ascend_strictly_inside_the_range(us):
    # on either axis
    def kern(u, v):
        raise AssertionError("a rectangle with bad breaks reached its kernel")

    for rect in ((us, (0, 1)), ((0, 1), us)):
        with pytest.raises(ValueError, match="ascend"):
            integrate_square(kern, rect, CFG)


# --- config and epsilon handling ----------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(epsilon_sequence=(1e-2, 1e-2))
    with pytest.raises(ValueError):
        QuadratureConfig(epsilon_sequence=(1e-3, 1e-2))
    with pytest.raises(TypeError):  # a one-level sequence asks for a finite eps
        QuadratureConfig(extrapolation="none")
    with pytest.raises(TypeError):  # no route switch: elements take direct quadrature
        QuadratureConfig(method="fourier")


def test_richardson_config_needs_halving_sequence():
    with pytest.raises(ValueError, match="halve"):
        QuadratureConfig(epsilon_sequence=(0.01, 0.004))
    # a finite regulator is asked for by a one-level sequence
    cfg = QuadratureConfig(epsilon_sequence=(0.004,))
    assert cfg.epsilon_sequence == (0.004,)
    assert validate_epsilon_sequence([0.02, 0.01, 0.005]) == (0.02, 0.01, 0.005)
    assert validate_epsilon_sequence([0.5]) == (0.5,)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_values(bad):
    # abs_tol = inf would accept a single cell per integral
    for field in ("rel_tol", "abs_tol"):
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(**{field: bad})
    with pytest.raises(ValueError, match="finite"):
        validate_epsilon_sequence([bad])
    with pytest.raises(ValueError, match="finite"):
        QuadratureConfig(epsilon_sequence=(bad,))


def test_config_max_subdivisions_is_an_integer_of_at_least_one():
    # a nan budget compared False with every split count and switched
    # refinement off; 2.5 is not a count of splits
    for bad in (math.nan, 2.5, 0):
        with pytest.raises(ValueError, match="^max_subdivisions"):
            QuadratureConfig(max_subdivisions=bad)
    for good in (3, np.int64(3)):
        cfg = QuadratureConfig(max_subdivisions=good)
        assert cfg.max_subdivisions == 3 and type(cfg.max_subdivisions) is int


def _res(value, eps):
    return IntegralResult(value=value, err_estimate=1e-16, epsilon_used=eps)


def test_extrapolate_richardson_removes_linear_term():
    v0, a, b = 0.7, 0.3, -2.0
    eps = [1e-2 / 2**k for k in range(4)]
    out = extrapolate_epsilon([_res(v0 + a * e + b * e * e, e) for e in eps])
    assert out.note == "richardson"
    assert out.value == pytest.approx(v0, abs=1e-10)
    assert abs(out.value - v0) <= out.err_estimate + 1e-12


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
    with pytest.raises(ValueError, match="two or more"):
        extrapolate_epsilon([_res(1.0, 1e-2)])
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
