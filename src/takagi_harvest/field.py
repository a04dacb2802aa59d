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

import numpy as np

from .geometry import ConformalTakagiMap, SwitchingFunction

__all__ = [
    "wightman_flat_sep",
    "wightman_frw_sep",
    "mode_integrand_static",
]

WIGHTMAN_PREF = 1.0 / (4.0 * math.pi**2)


def wightman_flat_sep(dt, sep, epsilon):
    """Flat kernel as a function of time difference dt = t - t2 and spatial separation.

    Vectorized over dt; sep is a scalar >= 0 and epsilon one finite float > 0.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    dt = np.asarray(dt, dtype=float)
    z = dt - 1j * epsilon
    return WIGHTMAN_PREF / (sep * sep - z * z)


def wightman_flat_pv(dt, sep):
    """The eps -> 0 limit of wightman_flat_sep off its poles, P/(sep^2 - dt^2).

    P = WIGHTMAN_PREF = 1/(4 pi^2).  As a distribution in dt the limit is,
    by Sokhotski-Plemelj (1/(x -+ i0) = PV 1/x +- i pi delta(x)),

        sep > 0:  P PV 1/(sep^2 - dt^2) - i pi sum_{q = +-sep} P/(2q) delta(dt - q),
        sep = 0:  -P Pf 1/dt^2 + i pi P delta'(dt),

    so this factor is the principal-value (sep > 0) or finite-part (sep = 0)
    kernel; near a pole q it is (P/(2q)) / (q - dt) plus a bounded rest.
    The harvesting closed forms subtract that pole and add the delta terms.
    """
    dt = np.asarray(dt, dtype=float)
    return WIGHTMAN_PREF / (sep * sep - dt * dt)


def wightman_frw_sep(t, t2, sep, m: ConformalTakagiMap, epsilon):
    """Conformal-vacuum kernel W_flat(t - t2) / (C(t) C(t2)) for comoving points.

    t and t2 are conformal times.
    """
    t = np.asarray(t, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    return wightman_flat_sep(t - t2, sep, epsilon) / (m.conformal_factor(t) * m.conformal_factor(t2))


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
    return k * WIGHTMAN_PREF * angular * fa * np.conj(fb)
