"""Vacuum two-point kernels of a massless scalar, flat and conformal-to-flat.

The flat Wightman function in 3+1 dimensions with the regulator on the time
difference,

    W(p, p2) = (1/4 pi^2) / (|dx|^2 - (dt - i eps)^2),    dt = t - t2,

and its conformal-vacuum counterpart on a cosmology with factor C(t): each leg
carries one power of C^{-(n-1)/2}, so for n = 3 spatial dimensions

    Wbar(p, p2) = C(t)^{-1} C(t2)^{-1} W(p, p2)

with both points in conformal coordinates.  A plane-wave mode decomposition of
W also gives the 1D radial integrand used as an independent oracle for the
detector response integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConformalTakagiMap, SwitchingFunction

__all__ = [
    "wightman_flat",
    "wightman_frw",
    "wightman_flat_sep",
    "wightman_frw_sep",
    "wightman_frw_at_clock",
    "WightmanKernel",
    "mode_integrand_static",
]

_PREF = 1.0 / (4.0 * math.pi**2)


def _check_epsilon(epsilon: float):
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def wightman_flat_sep(dt, sep, epsilon):
    """Flat kernel as a function of time difference dt = t - t2 and spatial separation.

    Vectorized over dt; sep is a scalar >= 0.
    """
    _check_epsilon(epsilon)
    dt = np.asarray(dt, dtype=float)
    z = dt - 1j * epsilon
    return _PREF / (sep * sep - z * z)


def _split_point(p):
    t = float(p[0])
    x = np.asarray(p[1], dtype=float).reshape(-1)
    return t, x


def wightman_flat(p, p2, epsilon) -> complex:
    """W(p, p2) for points p = (t, x) with x a spatial vector."""
    t, x = _split_point(p)
    t2, x2 = _split_point(p2)
    if x.shape != x2.shape:
        raise ValueError("points must have matching spatial dimension")
    sep = float(np.linalg.norm(x - x2))
    return complex(wightman_flat_sep(t - t2, sep, epsilon))


def wightman_frw_sep(t, t2, sep, m: ConformalTakagiMap, epsilon):
    """Conformal-vacuum kernel for comoving points, conformal times t and t2."""
    if m.n_spatial != 3:
        raise ValueError("conformal-vacuum kernel implemented for n_spatial = 3")
    t = np.asarray(t, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    return wightman_frw_at_clock(t, m.conformal_factor(t), t2, m.conformal_factor(t2), sep, epsilon)


def wightman_frw_at_clock(t, C, t2, C2, sep, epsilon):
    """Conformal-vacuum kernel W_flat(t - t2) / (C C2) from both legs' clock values.

    t, t2 are conformal times (arrays) and C, C2 the conformal factor there;
    n_spatial = 3.  Equals wightman_frw_sep value for value; kernels that
    already hold the clock at their nodes call this one.
    """
    return wightman_flat_sep(t - t2, sep, epsilon) / (C * C2)


def wightman_frw(p, p2, m: ConformalTakagiMap, epsilon, time_kind: str = "conformal") -> complex:
    """Wbar(p, p2) on the dual cosmology.

    time_kind selects how the time components of p, p2 are interpreted:
    "conformal" uses them directly, "cosmological" converts T -> t through the
    clock map first.
    """
    if time_kind not in ("conformal", "cosmological"):
        raise ValueError(f"time_kind must be conformal or cosmological, got {time_kind!r}")
    t, x = _split_point(p)
    t2, x2 = _split_point(p2)
    if x.shape != x2.shape:
        raise ValueError("points must have matching spatial dimension")
    if time_kind == "cosmological":
        t = m.lambda_of_tau(t)
        t2 = m.lambda_of_tau(t2)
    sep = float(np.linalg.norm(x - x2))
    return complex(wightman_frw_sep(t, t2, sep, m, epsilon))


@dataclass(frozen=True)
class WightmanKernel:
    """Configured two-point kernel: frame plus regulator (and map for frw)."""

    frame: str = "minkowski"
    epsilon: float = 1e-4
    map: ConformalTakagiMap | None = None

    def __post_init__(self):
        if self.frame not in ("minkowski", "frw"):
            raise ValueError(f"frame must be minkowski or frw, got {self.frame!r}")
        _check_epsilon(self.epsilon)
        if self.frame == "frw" and self.map is None:
            raise ValueError("frw kernel needs its ConformalTakagiMap")
        if self.frame == "minkowski" and self.map is not None:
            raise ValueError("minkowski kernel takes no map")

    def __call__(self, p, p2, epsilon: float | None = None) -> complex:
        eps = self.epsilon if epsilon is None else epsilon
        if self.frame == "minkowski":
            return wightman_flat(p, p2, eps)
        return wightman_frw(p, p2, self.map, eps)


def mode_integrand_static(k, chi_a: SwitchingFunction, chi_b: SwitchingFunction,
                          omega_a: float, omega_b: float, L: float):
    """Radial mode-sum integrand for the response element of two static detectors.

    Inserting the plane-wave expansion of the flat Wightman kernel into the
    double time integral collapses it to closed-form switching transforms:

        integrand(k) = k/(4 pi^2) * sinc(k L) * F_a(omega_a + k) * conj(F_b(omega_b + k))

    with F_d(s) = integral chi_d(t) e^{i s t} dt and sinc(x) = sin(x)/x.  Its
    integral over k in (0, inf) reproduces the double-integral element up to
    the coupling prefactors, which the caller applies.  Requires switchings
    with closed-form transforms (gaussian, cos_squared).
    """
    if L < 0.0:
        raise ValueError("separation must be >= 0")
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("k must be >= 0")
    angular = np.sinc(k * L / math.pi)  # np.sinc has the pi built in
    fa = chi_a.fourier(omega_a + k)
    fb = chi_b.fourier(omega_b + k)
    return k * _PREF * angular * fa * np.conj(fb)
