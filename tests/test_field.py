"""Vacuum two-point function tests: flat form, conformal weight, kernels."""

import math

import numpy as np
import pytest

from takagi_harvest import (
    ConformalTakagiMap,
    gaussian_switching,
    wightman_flat_sep,
    wightman_frw_sep,
)
from takagi_harvest.field import WIGHTMAN_PREF, mode_integrand_static, wightman_flat_pv


def test_flat_value_closed_form():
    # (1/4 pi^2) / (1 - (0.3 - i eps)^2), eps = 1e-3
    got = wightman_flat_sep(0.3, 1.0, 1e-3)
    assert got == pytest.approx(0.02783544732233396 - 1.835302202239379e-05j, rel=1e-14)


def test_flat_conjugate_symmetry():
    # W(dt)* = W(-dt) at fixed regulator: exchanging the points conjugates
    dt = np.linspace(-3.0, 3.0, 101)
    w = wightman_flat_sep(dt, 2.0, 1e-2)
    assert np.max(np.abs(np.conj(w) - wightman_flat_sep(-dt, 2.0, 1e-2))) == 0.0


def test_flat_coincident_separation():
    # sep=0 reduces to -(1/4 pi^2)/(dt - i eps)^2
    dt, eps = 0.8, 5e-3
    expected = -(1.0 / (4 * math.pi**2)) / (dt - 1j * eps) ** 2
    assert wightman_flat_sep(dt, 0.0, eps) == pytest.approx(expected, rel=1e-15)


def test_flat_epsilon_validation():
    for eps in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            wightman_flat_sep(0.1, 1.0, eps)


@pytest.mark.parametrize("omega,Omega", [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0)])
def test_frw_conformal_weight(omega, Omega):
    # Wbar(t, t2) * C(t) C(t2) == W_flat(t - t2) in conformal coordinates
    m = ConformalTakagiMap(omega, Omega)
    t = np.linspace(-2.0, 2.0, 41)
    t2 = 0.37
    lhs = wightman_frw_sep(t, t2, 3.0, m, 1e-3) * m.conformal_factor(t) * m.conformal_factor(t2)
    rhs = wightman_flat_sep(t - t2, 3.0, 1e-3)
    assert np.max(np.abs(lhs - rhs)) <= 1e-16


def test_frw_requires_three_spatial_dimensions():
    # the field lives in 3 spatial dimensions: a map takes no other number
    with pytest.raises(TypeError):
        ConformalTakagiMap(1.0, 2.0, n_spatial=2)


def test_mode_integrand_static_value():
    # k sin(kL)/(4 pi^2 k L) |F(omega+k)|^2 for gaussian sigma=1 at k=0.7
    chi = gaussian_switching(1.0)
    got = mode_integrand_static(0.7, chi, chi, 1.0, 1.0, 5.0)
    assert got == pytest.approx(-0.0006205515925288428, rel=1e-12)


def test_mode_integrand_coincident_limit():
    # L -> 0: sinc factor is 1
    chi = gaussian_switching(1.0)
    k = 0.9
    F = chi.fourier(1.0 + k)
    expected = k / (4 * math.pi**2) * F * np.conj(F)
    assert mode_integrand_static(k, chi, chi, 1.0, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("sep", [0.5, 2.0])
def test_flat_limit_off_the_poles_is_the_principal_value_factor(sep):
    # the regulated kernel departs from it by about 2 |dt| eps / |sep^2 - dt^2|
    dt = np.concatenate([np.linspace(-3.0 * sep, -1.5 * sep, 20),
                         np.linspace(-0.5 * sep, 0.5 * sep, 20),
                         np.linspace(1.5 * sep, 3.0 * sep, 20)])
    pv = wightman_flat_pv(dt, sep)
    assert np.all(np.abs(wightman_flat_sep(dt, sep, 1e-7) - pv) <= 1e-6 * np.abs(pv))
    assert wightman_flat_pv(0.7, 0.0) == pytest.approx(-WIGHTMAN_PREF / 0.49, rel=1e-15)


@pytest.mark.parametrize("ordered", [True, False])
def test_flat_limit_delta_term_sign(ordered):
    # lim W(dt) holds -i pi P/(2q) delta(dt - q) at q = +-sep; the ordered
    # kernel takes dt = u, the unordered dt = -u, so near u = sep the delta
    # term is -i pi P/(2 sep) ordered and +i pi P/(2 sep) unordered
    sep, eps = 2.0, 1e-6
    u = sep + np.linspace(-3e-6, 3e-6, 601)
    w = wightman_flat_sep(u if ordered else -u, sep, eps)
    weight = np.trapezoid(w.imag, u)
    expect = (-1.0 if ordered else 1.0) * math.pi * WIGHTMAN_PREF / (2.0 * sep)
    assert np.sign(weight) == np.sign(expect)
    assert weight == pytest.approx(expect, rel=0.3)
