"""Conformal clock map between static oscillator detectors and cosmological ones.

The central object is the reparametrization tau(lambda) that trades a harmonic
detector of frequency omega in flat spacetime for one of frequency Omega on a
conformally related cosmological background,

    tan(Omega tau) = (Omega / omega) tan(omega lambda),

continued smoothly across the poles of the tangent, branch by branch.  The
derivative dtau/dlambda equals the conformal factor evaluated on the
trajectory, and the scale factor of the dual cosmology is the same algebraic
expression with the roles of omega and Omega exchanged.  This module carries
the map, switching-function transport between the two pictures, and the
kinematics of the dual cosmology (scale factor, proper distances, conformal
versus cosmological time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ConformalTakagiMap",
    "SwitchingFunction",
    "gaussian_switching",
    "cos_squared_switching",
    "tabulated_switching",
    "transform_switching",
    "proper_distance",
    "FrwSpacetime",
    "StaticTrajectory",
]

GAUSSIAN_SUPPORT_SIGMAS = 8.0

# kinds built by the factories below, whose params determine the window
_FACTORY_KINDS = ("gaussian", "cos_squared", "tabulated", "transformed")


def _prepare(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr, scalar):
    return float(arr) if scalar else arr


@dataclass(frozen=True)
class ConformalTakagiMap:
    """Clock map (omega, Omega) with its conformal factor and dual scale factor.

    omega is the flat-side detector frequency (> 0), Omega the dual-side one
    (>= 0; Omega = 0 is the free-particle / power-law-inflation limit).
    n_spatial is the number of spatial dimensions of the field theory; the
    switching transport weight depends on it.
    """

    omega: float
    Omega: float
    n_spatial: int = 3

    def __post_init__(self):
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not (self.Omega >= 0.0 and math.isfinite(self.Omega)):
            raise ValueError(f"Omega must be >= 0 and finite, got {self.Omega}")
        if int(self.n_spatial) != self.n_spatial or self.n_spatial < 1:
            raise ValueError(f"n_spatial must be a positive integer, got {self.n_spatial}")

    # Omega == omega collapses every map below to an exact identity; the
    # short-circuits keep that exact in floating point (arctan(tan(x)) is not).
    @property
    def degenerate(self) -> bool:
        return self.Omega == self.omega

    def _branch(self, x):
        # branch n of the tangent: x in [-pi/2 + pi n, pi/2 + pi n)
        return np.floor(x / math.pi + 0.5)

    def tau_of_lambda(self, lam):
        """Dual proper time tau at flat proper time lambda, smooth across branches."""
        lam, scalar = _prepare(lam)
        if self.degenerate:
            return _finish(lam + 0.0, scalar)
        x = self.omega * lam
        if self.Omega == 0.0:
            # free-particle dual exists only inside the principal window
            if np.any(np.abs(x) >= 0.5 * math.pi):
                raise ValueError(
                    "tau_of_lambda with Omega=0 requires |omega*lambda| < pi/2"
                )
            return _finish(np.tan(x) / self.omega, scalar)
        n = self._branch(x)
        y = x - math.pi * n
        tau = (np.arctan((self.Omega / self.omega) * np.tan(y)) + math.pi * n) / self.Omega
        return _finish(tau, scalar)

    def lambda_of_tau(self, tau):
        """Inverse clock map; branch structure mirrors tau_of_lambda."""
        tau, scalar = _prepare(tau)
        if self.degenerate:
            return _finish(tau + 0.0, scalar)
        if self.Omega == 0.0:
            return _finish(np.arctan(self.omega * tau) / self.omega, scalar)
        x = self.Omega * tau
        m = self._branch(x)
        y = x - math.pi * m
        lam = (np.arctan((self.omega / self.Omega) * np.tan(y)) + math.pi * m) / self.omega
        return _finish(lam, scalar)

    def _conformal_profile(self, x):
        # 1 / (cos^2(omega x) + (Omega/omega)^2 sin^2(omega x)), any branch
        c = np.cos(self.omega * x)
        s = np.sin(self.omega * x)
        r = self.Omega / self.omega
        return 1.0 / (c * c + (r * r) * (s * s))

    def dtau_dlambda(self, lam):
        """Clock rate dtau/dlambda; strictly positive, equals C on the trajectory."""
        lam, scalar = _prepare(lam)
        if self.degenerate:
            return _finish(np.ones_like(lam), scalar)
        return _finish(self._conformal_profile(lam), scalar)

    def conformal_factor(self, t):
        """Conformal factor C(t) of the dual metric in conformal time t.

        The solution is spatially homogeneous, so C depends on t alone and the
        on-trajectory value C(lambda) is the same function.
        """
        t, scalar = _prepare(t)
        if self.degenerate:
            return _finish(np.ones_like(t), scalar)
        return _finish(self._conformal_profile(t), scalar)

    def scale_factor(self, T):
        """Scale factor a(T) of the dual cosmology in cosmological time T."""
        T, scalar = _prepare(T)
        if self.degenerate:
            return _finish(np.ones_like(T), scalar)
        if self.Omega == 0.0:
            return _finish(1.0 + (self.omega * T) ** 2, scalar)
        c = np.cos(self.Omega * T)
        s = np.sin(self.Omega * T)
        r = self.omega / self.Omega
        return _finish(c * c + (r * r) * (s * s), scalar)

    def swapped(self) -> "ConformalTakagiMap":
        """Map with the two frequencies exchanged (requires Omega > 0)."""
        if self.Omega == 0.0:
            raise ValueError("swapped() needs Omega > 0")
        return ConformalTakagiMap(self.Omega, self.omega, self.n_spatial)


@dataclass(frozen=True, eq=False)
class SwitchingFunction:
    """Window function chi with compact support and a characteristic timescale.

    kind is one of gaussian / cos_squared / tabulated / transformed; evaluation
    outside the support returns exactly zero.  timescale feeds the default
    regulator sequence of the quadrature layer.
    """

    kind: str
    support: tuple[float, float]
    timescale: float
    params: dict = field(repr=False)
    _eval: Callable = field(repr=False, compare=False)

    def __post_init__(self):
        a, b = self.support
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"support must be a finite interval, got {self.support}")
        if not self.timescale > 0.0:
            raise ValueError("timescale must be positive")

    def __call__(self, t):
        t, scalar = _prepare(t)
        a, b = self.support
        inside = (t >= a) & (t <= b)
        out = np.zeros_like(t)
        if np.any(inside):
            vals = np.asarray(self._eval(np.where(inside, t, a)), dtype=float)
            out = np.where(inside, vals, 0.0)
        return _finish(out, scalar)

    def at_clock(self, tau, lam, C):
        """Transported window at dual times tau from the clock values there.

        lam = lambda(tau) and C = C(lam) must come from this window's own map;
        the result equals self(tau) value for value.  Kernels that already
        hold the clock at their nodes call this instead of self(tau), so the
        clock map is not evaluated a second time.
        """
        if self.kind != "transformed":
            raise ValueError(f"at_clock needs a transported window, got kind {self.kind!r}")
        tau = np.asarray(tau, dtype=float)
        a, b = self.support
        vals = _transported(self.params["base"], self.params["map"], lam, C)
        return np.where((tau >= a) & (tau <= b), vals, 0.0)

    def same_as(self, other) -> bool:
        """True when other is this window by value.

        Kind, support, timescale and parameters must be equal, recursively for
        the base window of a transported one; the parameters of the factory
        kinds fix the window completely.  A window of any other kind equals
        only one with the same evaluator.
        """
        if other is self:
            return True
        if not isinstance(other, SwitchingFunction):
            return False
        if (self.kind, self.support, self.timescale) != (other.kind, other.support, other.timescale):
            return False
        if self.kind not in _FACTORY_KINDS and self._eval is not other._eval:
            return False
        if self.params.keys() != other.params.keys():
            return False
        for key, mine in self.params.items():
            theirs = other.params[key]
            if isinstance(mine, SwitchingFunction):
                same = mine.same_as(theirs)
            elif isinstance(mine, np.ndarray):
                same = np.array_equal(mine, theirs)
            else:
                same = bool(mine == theirs)
            if not same:
                return False
        return True

    def fourier(self, s):
        """Closed-form Fourier transform F(s) = integral chi(t) exp(i s t) dt.

        Available for the gaussian and cos_squared kinds; other kinds have no
        closed form here and raise ValueError.
        """
        s, scalar = _prepare(s)
        if self.kind == "gaussian":
            sig = self.params["sigma"]
            c = self.params["center"]
            out = sig * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (sig * s) ** 2) * np.exp(1j * s * c)
        elif self.kind == "cos_squared":
            t0, t1 = self.params["t0"], self.params["t1"]
            width = t1 - t0
            mid = 0.5 * (t0 + t1)
            b = 2.0 * math.pi / width
            x = s / b
            # g(x) = sin(pi x) / (pi x (1 - x^2)); each branch below is an
            # exact rewriting that stays stable near its own zero of the
            # denominator (np.sinc(x) = sin(pi x)/(pi x))
            near_pos = x > 0.5
            near_neg = x < -0.5
            g = np.where(
                near_pos,
                np.sinc(x - 1.0) / np.where(near_pos, x * (1.0 + x), 1.0),
                np.where(
                    near_neg,
                    np.sinc(x + 1.0) / np.where(near_neg, x * (x - 1.0), 1.0),
                    np.sinc(x) / np.where(near_pos | near_neg, 1.0, 1.0 - x * x),
                ),
            )
            out = 0.5 * width * g * np.exp(1j * s * mid)
        else:
            raise ValueError(f"no closed-form Fourier transform for kind {self.kind!r}")
        return complex(out) if scalar else out

    def fourier_envelope(self, s):
        """Monotone bound on |fourier| used for quadrature tail estimates."""
        s, scalar = _prepare(s)
        s = np.abs(s)
        if self.kind == "gaussian":
            sig = self.params["sigma"]
            out = sig * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (sig * s) ** 2)
        elif self.kind == "cos_squared":
            t0, t1 = self.params["t0"], self.params["t1"]
            width = t1 - t0
            b = 2.0 * math.pi / width
            flat = 0.5 * width
            # |F| <= (width/2) / (pi x (x^2 - 1)) <= (2 width)/(3 pi x^3) for x >= 2;
            # the tail is evaluated only there, so s = 0 cannot overflow it
            far = s >= 2.0 * b
            out = np.full_like(s, flat)
            tail = (2.0 * width) / (3.0 * math.pi) * (b / s[far]) ** 3
            out[far] = np.minimum(flat, tail)
        else:
            raise ValueError(f"no Fourier envelope for kind {self.kind!r}")
        return _finish(out, scalar)


def gaussian_switching(sigma: float, center: float = 0.0) -> SwitchingFunction:
    """Gaussian window exp(-(t-center)^2 / (2 sigma^2)), truncated at 8 sigma."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    half = GAUSSIAN_SUPPORT_SIGMAS * sigma

    def _eval(t):
        return np.exp(-0.5 * ((t - center) / sigma) ** 2)

    return SwitchingFunction(
        kind="gaussian",
        support=(center - half, center + half),
        timescale=sigma,
        params={"sigma": sigma, "center": center},
        _eval=_eval,
    )


def cos_squared_switching(t0: float, t1: float) -> SwitchingFunction:
    """Window cos^2(pi (t - mid)/(t1 - t0)) on [t0, t1], zero at both ends."""
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    mid = 0.5 * (t0 + t1)
    width = t1 - t0

    def _eval(t):
        return np.cos(math.pi * (t - mid) / width) ** 2

    return SwitchingFunction(
        kind="cos_squared",
        support=(t0, t1),
        timescale=0.5 * width,
        params={"t0": t0, "t1": t1},
        _eval=_eval,
    )


def tabulated_switching(times, values) -> SwitchingFunction:
    """Piecewise-linear window through (times, values) samples."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.size < 2 or times.shape != values.shape:
        raise ValueError("need matching 1D arrays with at least two samples")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    if np.any(values < 0.0):
        raise ValueError("switching values must be non-negative")

    def _eval(t):
        return np.interp(t, times, values)

    return SwitchingFunction(
        kind="tabulated",
        support=(float(times[0]), float(times[-1])),
        timescale=(float(times[-1]) - float(times[0])) / 16.0,
        params={"times": times.copy(), "values": values.copy()},
        _eval=_eval,
    )


def _transported(chi: SwitchingFunction, m: ConformalTakagiMap, lam, C):
    # the transported window chi(lambda) C^((n_spatial - 4)/2), from the clock
    # values lam = lambda(tau) and C = C(lam) at the nodes
    return chi(lam) * C ** (0.5 * (m.n_spatial - 4))


def transform_switching(m: ConformalTakagiMap, chi: SwitchingFunction) -> SwitchingFunction:
    """Transport a flat-side window chi(lambda) to the dual clock.

    Returns tau -> chi(lambda(tau)) * C(lambda(tau))^((n_spatial - 4)/2) with
    support [tau(a), tau(b)].  For Omega = 0 the support of chi must sit inside
    the principal window (-pi/(2 omega), pi/(2 omega)).
    """
    a, b = chi.support
    if m.Omega == 0.0:
        lim = 0.5 * math.pi / m.omega
        if a <= -lim or b >= lim:
            raise ValueError(
                "Omega=0 transport needs support inside (-pi/(2 omega), pi/(2 omega)); "
                f"got {chi.support} with omega={m.omega}"
            )
    ta = m.tau_of_lambda(a)
    tb = m.tau_of_lambda(b)

    def _eval(tau):
        lam = m.lambda_of_tau(tau)
        return _transported(chi, m, lam, m.conformal_factor(lam))

    return SwitchingFunction(
        kind="transformed",
        support=(ta, tb),
        timescale=(tb - ta) / 16.0,
        params={"base": chi, "map": m},
        _eval=_eval,
    )


def proper_distance(m: ConformalTakagiMap, L: float, T):
    """Proper separation a(T) * L of comoving points at cosmological time T."""
    if L < 0.0:
        raise ValueError("comoving separation must be >= 0")
    return m.scale_factor(T) * L


@dataclass(frozen=True)
class FrwSpacetime:
    """Spatially flat cosmology conformal to Minkowski with factor C(t).

    Static comoving observers age by cosmological time T; the conformal chart
    (t, x) coincides numerically with the flat chart of the dual description,
    and T(t) is the same clock map as tau(lambda).
    """

    map: ConformalTakagiMap

    def scale_factor(self, T):
        return self.map.scale_factor(T)

    def conformal_time(self, T):
        """Conformal time t at cosmological time T (inverts dT = a(T) dt)."""
        return self.map.lambda_of_tau(T)

    def cosmological_time(self, t):
        return self.map.tau_of_lambda(t)

    def conformal_factor(self, t):
        return self.map.conformal_factor(t)

    def proper_distance(self, L, T):
        return proper_distance(self.map, L, T)

    def period(self) -> float:
        """Period of a(T) in cosmological time (inf for Omega = 0)."""
        return math.inf if self.map.Omega == 0.0 else math.pi / self.map.Omega


@dataclass(frozen=True)
class StaticTrajectory:
    """Detector at rest at fixed (comoving) spatial position.

    frame is "minkowski" (proper time = coordinate time) or "frw" (proper time
    = cosmological time T; the conformal-coordinate velocity is dt/dT = 1/a).
    """

    position: tuple[float, ...]
    frame: str = "minkowski"

    def __post_init__(self):
        if self.frame not in ("minkowski", "frw"):
            raise ValueError(f"frame must be minkowski or frw, got {self.frame!r}")
        if len(self.position) == 0:
            raise ValueError("position must have at least one component")
        object.__setattr__(self, "position", tuple(float(p) for p in self.position))

    def gamma(self, spacetime: FrwSpacetime | None, T):
        """Coordinate-time rate dt/dT along the worldline (1 in flat frame)."""
        if self.frame == "minkowski":
            T, scalar = _prepare(T)
            return _finish(np.ones_like(T), scalar)
        if spacetime is None:
            raise ValueError("frw trajectory needs its spacetime")
        return 1.0 / spacetime.scale_factor(T)


def separation(traj_a: StaticTrajectory, traj_b: StaticTrajectory) -> float:
    """Euclidean (comoving) distance between two static detector positions."""
    pa = np.asarray(traj_a.position)
    pb = np.asarray(traj_b.position)
    if pa.shape != pb.shape:
        raise ValueError("positions must have matching dimension")
    return float(np.linalg.norm(pa - pb))
