"""Acceptance gate: eleven numbered criteria, one test each.

Each test records a PASS/FAIL line (printed in the terminal summary by
conftest) before asserting, so the criterion table is complete even when a
criterion fails.  Tolerances and runtimes are the contract; they are asserted,
not just measured.

Criterion 10 gives the verdict on spacelike harvesting at detector separation
2.0 with a unit cos^2 window: at leading order the pair harvests only if
|M|^2 > L_AA L_BB, and on the pinned frequency scan it does not.  The verdict
is settled against routes that share no code with the regulated quadrature.
Every pair of events is spacelike there, so M is a plain Gauss-Legendre
product integral, and L_AA, L_BB come from the Fourier mode sum.  The oracle
ratio |M|/sqrt(L_AA L_BB) is 0.0218 at omega = 0.5 and peaks at 0.2115 at
omega = 8, so the program's negativity must be exactly zero at every scan
point.  The same pipeline does harvest at separation 1.05
(test_near_lightcone_companion).
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from takagi_harvest import (
    ConformalTakagiMap,
    DetectorSpec,
    HarvestScenario,
    StaticTrajectory,
    compute_L,
    cos_squared_switching,
    duality_backbone_residual,
    gaussian_switching,
    harvest,
    run_dual_check,
    run_identity_suite,
    vacuum_bogoliubov,
)
from takagi_harvest.cli import main as cli_main
from takagi_harvest.gaussian import mode_ode_residual
from takagi_harvest.quadrature import QuadratureConfig, fourier_oracle_L

PAIRS = ((1.0, 2.0), (1.0, 0.5), (2.0, 3.0))


def _gaussian_scenario(model="oscillator", c=0.01, L=5.0):
    chi = gaussian_switching(1.0)
    mk = lambda label, x: DetectorSpec(
        label, model, 1.0, c, StaticTrajectory((x, 0.0, 0.0)), chi
    )
    return HarvestScenario(detectors=(mk("A", 0.0), mk("B", L)))


def _window_scenario(freq, L):
    chi = cos_squared_switching(-0.5, 0.5)
    mk = lambda label, x: DetectorSpec(
        label, "qubit", freq, 0.01, StaticTrajectory((x, 0.0, 0.0)), chi
    )
    return HarvestScenario(detectors=(mk("A", 0.0), mk("B", L)))


@pytest.fixture(scope="module")
def identity_suite():
    t0 = time.perf_counter()
    residuals = run_identity_suite()  # default 3x3x50 (omega, Omega, lambda) grid
    return residuals, time.perf_counter() - t0


def test_criterion_01_takagi_identity_suite(identity_suite):
    residuals, elapsed = identity_suite
    symplectic = {k: residuals[k] for k in ("free_particle", "cross_identity", "symplectic_det")}
    worst = max(symplectic.values())
    ok = worst <= 1e-12 and elapsed < 1.0
    record_criterion(1, ok, f"max symplectic residual {worst:.2e} (<=1e-12), {elapsed:.2f}s (<1s)")
    assert worst <= 1e-12, symplectic
    assert elapsed < 1.0


def test_criterion_02_heisenberg_relation(identity_suite):
    residuals, _ = identity_suite
    worst = residuals["heisenberg_q"]
    ok = worst <= 1e-12
    record_criterion(2, ok, f"coefficient residual {worst:.2e} (<=1e-12) on the same grid")
    assert ok, worst


def test_criterion_03_clock_rate_vs_finite_difference():
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for omega, Omega in PAIRS:
        m = ConformalTakagiMap(omega, Omega)
        # 334 points per pair spanning several branches, plus the branch
        # boundaries themselves so the FD stencil straddles them
        lam = np.concatenate(
            [
                np.linspace(-4.7, 4.7, 330),
                np.array([0.5, 1.5, -0.5, -1.5]) * np.pi / omega,
            ]
        )
        fd = (m.tau_of_lambda(lam + h) - m.tau_of_lambda(lam - h)) / (2.0 * h)
        rel = np.abs(fd - m.conformal_factor(lam)) / np.abs(m.conformal_factor(lam))
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    record_criterion(3, ok, f"max rel err {worst:.2e} (<=1e-6) at 1002 points, {elapsed:.2f}s (<1s)")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_04_power_law_limit():
    m = ConformalTakagiMap(1.0, 1e-4)
    T = np.linspace(-3.0, 3.0, 301)
    worst = float(np.max(np.abs(m.scale_factor(T) - (1.0 + T * T))))
    ok = worst <= 1e-5
    record_criterion(4, ok, f"max |a(T) - (1+T^2)| = {worst:.2e} (<=1e-5) at 301 points")
    assert ok, worst


def test_criterion_05_duality_backbone():
    chi = gaussian_switching(1.0)
    lam = np.linspace(-4.3, 4.3, 1000)
    worst = 0.0
    for omega, Omega in PAIRS:
        worst = max(worst, duality_backbone_residual(ConformalTakagiMap(omega, Omega), chi, lam))
    ok = worst <= 1e-12
    record_criterion(5, ok, f"max pointwise residual {worst:.2e} (<=1e-12) at 1000 lambda samples")
    assert ok, worst


def test_criterion_06_direct_vs_fourier_oracle():
    t0 = time.perf_counter()
    sc = _gaussian_scenario()
    direct = compute_L(sc.detectors[0], sc.detectors[0], sc)
    det = sc.detectors[0]
    oracle = fourier_oracle_L(det, det, 0.0, QuadratureConfig())
    rel = abs(direct.value - oracle.value) / abs(oracle.value)
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-3 and elapsed < 60.0
    record_criterion(6, ok, f"L_AA direct vs mode sum rel err {rel:.2e} (<=1e-3), {elapsed:.1f}s (<60s)")
    assert oracle.note == "fourier-oracle"
    assert rel <= 1e-3
    assert elapsed < 60.0


def test_criterion_07_end_to_end_duality():
    t0 = time.perf_counter()
    sc = _gaussian_scenario()
    worst = {}
    for Omega in (0.5, 2.0, 3.0):
        rep = run_dual_check(sc, Omega)
        assert set(rep.residuals) == {"L_AA", "L_BB", "abs_M", "negativity"}
        worst[Omega] = rep.resid_max
    elapsed = time.perf_counter() - t0
    bad = max(worst.values())
    ok = bad <= 1e-3 and elapsed < 300.0
    record_criterion(
        7, ok, f"max flat/cosmological rel residual {bad:.2e} (<=1e-3) over Omega in "
               f"{{0.5, 2, 3}}, {elapsed:.0f}s (<300s)"
    )
    assert bad <= 1e-3, worst
    assert elapsed < 300.0


def test_criterion_08_model_equivalence_and_pt_scaling():
    q = harvest(_gaussian_scenario(model="qubit"))
    o1 = harvest(_gaussian_scenario(model="oscillator", c=0.01))
    o2 = harvest(_gaussian_scenario(model="oscillator", c=0.02))
    bitwise = q.E1 == o1.E1 and q.negativity == o1.negativity
    ratio = o2.negativity_pt / o1.negativity_pt
    in_band = abs(ratio - 16.0) <= 0.05 * 16.0
    ok = bitwise and in_band
    record_criterion(
        8, ok, f"E1/negativity bitwise equal across models: {bitwise}; "
               f"6x6 PT eigenvalue ratio under c->2c = {ratio:.3f} (16 +- 5%)"
    )
    assert bitwise
    assert in_band, ratio


def test_criterion_09_bogoliubov_and_mode():
    rng = np.random.default_rng(20260816)
    worst_norm = 0.0
    for _ in range(20):
        omega = rng.uniform(0.2, 3.0)
        Omega = rng.uniform(0.2, 4.0)
        pair = vacuum_bogoliubov(omega, Omega)
        worst_norm = max(worst_norm, pair.normalization_residual())
    worst_mode = max(mode_ode_residual(ConformalTakagiMap(w, W)) for w, W in PAIRS)
    ok = worst_norm <= 1e-10 and worst_mode <= 1e-5
    record_criterion(
        9, ok, f"normalization residual {worst_norm:.2e} (<=1e-10) for 20 random pairs; "
               f"mode ODE residual {worst_mode:.2e} (<=1e-5)"
    )
    assert worst_norm <= 1e-10
    assert worst_mode <= 1e-5


def _spacelike_M_oracle(freq, L, c, n):
    """M of criterion 10's qubit pair by a tensor Gauss-Legendre sum, n nodes per axis.

    cos^2 window on (-1/2, 1/2), ground-state qubits of gap freq and coupling c
    at separation L > 1.  Every pair of events is then spacelike, so the
    Wightman function is real, symmetric and nonsingular on the support square:
    the time ordering drops out and

        M = -(c^2 / 4 pi^2) int int chi(t) chi(t') e^{i freq (t + t')} / (L^2 - (t - t')^2).

    Shares no code with the regulated rotated-coordinate quadrature.
    """
    assert L > 1.0, "the product form needs every pair of events spacelike"
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * x
    f = 0.5 * w * np.cos(np.pi * t) ** 2 * np.exp(1j * freq * t)
    kernel = 1.0 / (L * L - np.subtract.outer(t, t) ** 2)
    return complex(-(c * c) / (4.0 * math.pi**2) * (f @ kernel @ f))


def test_criterion_10_spacelike_harvesting_at_separation_two():
    t0 = time.perf_counter()
    rows = []
    for freq in np.arange(0.5, 8.01, 0.5):
        sc = _window_scenario(float(freq), 2.0)
        rep = harvest(sc)
        el = rep.elements
        l_oracle = [fourier_oracle_L(d, d, 0.0, QuadratureConfig()) for d in sc.detectors]
        m_oracle = _spacelike_M_oracle(float(freq), 2.0, 0.01, 200)
        m_fine = _spacelike_M_oracle(float(freq), 2.0, 0.01, 400)
        oracle_ratio = abs(m_oracle) / math.sqrt(l_oracle[0].value.real * l_oracle[1].value.real)
        rows.append({
            "freq": float(freq),
            "M_dev": abs(el.M.value - m_oracle) / abs(m_oracle),
            "L_dev": max(
                abs(el.L_AA.value - l_oracle[0].value) / abs(l_oracle[0].value),
                abs(el.L_BB.value - l_oracle[1].value) / abs(l_oracle[1].value),
            ),
            "oracle_conv": abs(m_oracle - m_fine) / abs(m_fine),
            "oracle_notes": {r.note for r in l_oracle},
            "negativity": rep.negativity,
            "oracle_ratio": oracle_ratio,
        })
    elapsed = time.perf_counter() - t0
    worst_m = max(r["M_dev"] for r in rows)
    worst_l = max(r["L_dev"] for r in rows)
    worst_conv = max(r["oracle_conv"] for r in rows)
    best = max(rows, key=lambda r: r["oracle_ratio"])
    verdicts_agree = all((r["negativity"] > 0.0) == (r["oracle_ratio"] > 1.0) for r in rows)
    no_harvest = all(r["negativity"] == 0.0 and r["oracle_ratio"] < 1.0 for r in rows)
    ok = (
        worst_m <= 1e-3 and worst_l <= 1e-3 and worst_conv <= 1e-9
        and verdicts_agree and no_harvest and elapsed < 600.0
    )
    record_criterion(
        10, ok, f"no harvesting on omega scan [0.5, 8], program and oracle agree: "
                f"{verdicts_agree and no_harvest}; max rel dev M {worst_m:.1e}, "
                f"L {worst_l:.1e} (<=1e-3); max |M|/sqrt(L_AA L_BB) = "
                f"{best['oracle_ratio']:.4f} at omega = {best['freq']:.1f}, {elapsed:.0f}s (<600s)"
    )
    assert all(r["oracle_notes"] == {"fourier-oracle"} for r in rows)
    assert worst_conv <= 1e-9, [(r["freq"], r["oracle_conv"]) for r in rows]
    assert worst_m <= 1e-3, [(r["freq"], r["M_dev"]) for r in rows]
    assert worst_l <= 1e-3, [(r["freq"], r["L_dev"]) for r in rows]
    assert verdicts_agree, [(r["freq"], r["negativity"], r["oracle_ratio"]) for r in rows]
    assert no_harvest, [(r["freq"], r["negativity"], r["oracle_ratio"]) for r in rows]
    assert elapsed < 600.0


def test_near_lightcone_companion():
    # not one of the numbered criteria: demonstrates the pipeline does find
    # spacelike harvesting once the separation is near the light cone
    found = []
    for freq in (8.0, 9.0, 10.0, 11.0):
        rep = harvest(_window_scenario(freq, 1.05))
        found.append(rep.negativity)
    assert max(found) > 0.0


def test_criterion_11_thread_count_determinism(tmp_path):
    harvest_ini = tmp_path / "harvest.ini"
    harvest_ini.write_text(
        "[detectors.A]\nmodel = oscillator\nfrequency = 1.0\ncoupling = 0.01\n"
        "position = 0, 0, 0\n\n[detectors.A.switching]\nkind = gaussian\nsigma = 1.0\n\n"
        "[detectors.B]\nmodel = oscillator\nfrequency = 1.0\ncoupling = 0.01\n"
        "position = 5, 0, 0\n\n[detectors.B.switching]\nkind = gaussian\nsigma = 1.0\n"
    )
    dual_ini = tmp_path / "dual.ini"
    dual_ini.write_text(harvest_ini.read_text() + "\n[dualize]\nOmega_list = 0.5, 2.0, 3.0\n")
    outputs = {}
    for name, ini, ext in (("harvest", harvest_ini, "json"), ("dualize", dual_ini, "csv")):
        blobs = []
        for threads in ("1", "3"):
            out = tmp_path / f"{name}-{threads}.{ext}"
            rc = cli_main(
                [name, "--config", str(ini), "--out", str(out), "--threads", threads]
            )
            assert rc == 0
            blobs.append(out.read_bytes())
        outputs[name] = blobs[0] == blobs[1]
        if name == "harvest":
            json.loads(blobs[0])  # sanity: well-formed report
    ok = all(outputs.values())
    record_criterion(
        11, ok, f"byte-identical across --threads 1 vs 3: harvest {outputs['harvest']}, "
                f"dualize {outputs['dualize']}"
    )
    assert ok, outputs
