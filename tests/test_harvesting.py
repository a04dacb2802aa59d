"""Matrix elements, density matrices, negativity, and the duality runner.

Independent cross-checks: a plain Simpson grid in the original coordinates
(no rotated axes, no adaptivity) frozen at a single resolvable regulator, and
the Fourier mode-sum oracle.  Scaling identities are tested bitwise with
power-of-two couplings so exactness claims really are exact.
"""

import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from takagi_harvest import (
    ConformalTakagiMap,
    DetectorSpec,
    HarvestScenario,
    MatrixElements,
    StaticTrajectory,
    assemble_rho,
    compute_L,
    compute_M,
    compute_N,
    cos_squared_switching,
    duality_backbone_residual,
    dualize,
    gaussian_switching,
    harvest,
    negativity_leading,
    negativity_pt_exact,
    run_dual_check,
)
from takagi_harvest import harvesting, quadrature
from takagi_harvest.field import wightman_flat_sep, wightman_frw_sep
from takagi_harvest.gaussian import transported_leg, transported_mode
from takagi_harvest.geometry import SwitchingFunction, separation, transform_switching
from takagi_harvest.harvesting import compute_elements
from takagi_harvest.quadrature import XK, IntegralResult, QuadratureConfig, extrapolate_epsilon
from takagi_harvest.quadrature import fourier_oracle_L, integrate_square

C0 = 0.0078125  # 2^-7: power-of-two coupling makes quadratic scaling exact

GAUSS = gaussian_switching(1.0)


def _detector(label, pos, model="oscillator", c=0.01, freq=1.0, chi=GAUSS):
    return DetectorSpec(
        label=label,
        model=model,
        frequency=freq,
        coupling=c,
        trajectory=StaticTrajectory(pos),
        switching=chi,
    )


def _scenario(model="oscillator", c=0.01, L=5.0, freq=1.0, chi=GAUSS, quad=None):
    da = _detector("A", (0.0, 0.0, 0.0), model, c, freq, chi)
    db = _detector("B", (L, 0.0, 0.0), model, c, freq, chi)
    kw = {} if quad is None else {"quadrature": quad}
    return HarvestScenario(detectors=(da, db), **kw)


def _sequence(sc, eps):
    """sc with its regulator sequence set to eps on its quadrature config."""
    return replace(sc, quadrature=replace(sc.quadrature, epsilon_sequence=eps))


def _halving(eps0, n):
    """n regulator levels eps0 / 2^k."""
    return tuple(eps0 / 2.0**k for k in range(n))


# six levels from 1e-2: the sequence a Richardson reference is built on
EPS6 = _halving(0.01, 6)


def _elements(L_AA, L_BB, M, L_AB=0.0, N_A=None, N_B=None):
    def wrap(v):
        return None if v is None else IntegralResult(value=complex(v), err_estimate=0.0)

    return MatrixElements(
        L_AA=wrap(L_AA), L_BB=wrap(L_BB), M=wrap(M), L_AB=wrap(L_AB),
        N_A=wrap(N_A), N_B=wrap(N_B),
    )


# --- matrix elements ---------------------------------------------------------


def test_L_zero_coupling_short_circuit():
    sc = _scenario(c=0.0)
    res = compute_L(sc.detectors[0], sc.detectors[0], sc)
    assert res.value == 0.0
    assert res.note == "zero-coupling"


def test_L_direct_matches_fourier_oracle():
    sc = _scenario()
    direct = compute_L(sc.detectors[0], sc.detectors[0], sc)
    oracle = 7.088272232636415e-07  # frozen Fourier mode-sum value
    assert abs(direct.value - oracle) / oracle <= 1e-6


def test_fourier_oracle_L_frozen_value():
    da, db = _scenario().detectors
    res = fourier_oracle_L(da, db, separation(da.trajectory, db.trajectory), QuadratureConfig())
    assert res.note == "fourier-oracle"
    assert res.value == pytest.approx(2.0579692753949913e-07, rel=1e-9)


def test_coupling_scaling_exact():
    eps = (0.01,)
    vals = {}
    for s in (1, 2, 3):
        sc = _scenario(model="qubit", c=s * C0, quad=QuadratureConfig(epsilon_sequence=eps))
        vals[s] = (
            compute_L(sc.detectors[0], sc.detectors[0], sc).value,
            compute_M(sc).value,
        )
    assert vals[2][0] == 4 * vals[1][0] and vals[2][1] == 4 * vals[1][1]
    assert vals[3][0] == 9 * vals[1][0] and vals[3][1] == 9 * vals[1][1]


def test_M_zero_coupling():
    assert compute_M(_scenario(c=0.0)).value == 0.0


def test_M_label_swap_invariant():
    sc = _scenario(model="qubit", quad=QuadratureConfig(epsilon_sequence=(0.01, 0.005)))
    swapped = HarvestScenario(detectors=sc.detectors[::-1], quadrature=sc.quadrature)
    assert compute_M(sc).value == compute_M(swapped).value


def test_M_nonzero_while_spacelike():
    # gaussian windows at separation 5: essentially causally disjoint, yet
    # the cross term survives (this is what makes harvesting possible)
    res = compute_M(_scenario(quad=QuadratureConfig(epsilon_sequence=(0.01, 0.005))))
    assert abs(res.value) > 1e-7


# cos^2 windows that are not centred on a common time: A's support starts
# before B's, so the (A <-> B) ordering of M has its own domain; in the last
# pair A's window ends before B's starts
ASYMMETRIC_WINDOWS = [
    ((-1.0, 0.0), (0.0, 1.0)),
    ((-1.0, 0.5), (-0.5, 1.0)),
    ((0.0, 1.0), (2.0, 3.0)),
]


def _window_pair(windows, L):
    (a0, a1), (b0, b1) = windows
    da = _detector("A", (0.0, 0.0, 0.0), "qubit", 0.01, 2.0, cos_squared_switching(a0, a1))
    db = _detector("B", (L, 0.0, 0.0), "qubit", 0.01, 2.0, cos_squared_switching(b0, b1))
    return HarvestScenario(detectors=(da, db))


def _spacelike_M(windows, L, freq=2.0, c=0.01, n=200):
    """M of a qubit pair with cos^2 windows by a tensor Gauss-Legendre sum.

    Every pair of events must be spacelike (L above the longest time
    difference of the two windows): the Wightman function is then real,
    symmetric and nonsingular, the time ordering drops out, and

        M = -(c^2 / 4 pi^2) int int chi_A(t) chi_B(t') e^{i freq (t + t')} / (L^2 - (t - t')^2).

    Shares no code with the regulated rotated-coordinate quadrature.
    """
    (a0, a1), (b0, b1) = windows
    assert L > max(b1 - a0, a1 - b0), "the product form needs every pair of events spacelike"
    x, wts = np.polynomial.legendre.leggauss(n)

    def leg(t0, t1):
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        t = mid + half * x
        return t, half * wts * np.cos(np.pi * (t - mid) / (t1 - t0)) ** 2 * np.exp(1j * freq * t)

    (ta, fa), (tb, fb) = leg(a0, a1), leg(b0, b1)
    kernel = 1.0 / (L * L - np.subtract.outer(ta, tb) ** 2)
    return complex(-(c * c) / (4.0 * math.pi**2) * (fa @ kernel @ fb))


@pytest.mark.parametrize("windows", ASYMMETRIC_WINDOWS)
def test_M_keeps_both_orderings_for_asymmetric_windows(windows):
    # near the light cone: both orderings contribute, whichever label is A
    sc = _window_pair(windows, 0.5)
    swapped = HarvestScenario(detectors=sc.detectors[::-1])
    res = compute_M(sc)
    assert res.value != 0.0
    assert compute_M(swapped).value == res.value
    # spacelike: the independent product integral
    (a0, a1), (b0, b1) = windows
    longest = max(b1 - a0, a1 - b0)
    for L in (longest + 0.5, longest + 1.5):
        oracle = _spacelike_M(windows, L)
        assert abs(_spacelike_M(windows, L, n=400) - oracle) <= 1e-9 * abs(oracle)
        got = compute_M(_window_pair(windows, L)).value
        assert abs(got - oracle) <= 1e-3 * abs(oracle), (L, got, oracle)


def test_N_requires_oscillator():
    sc = _scenario(model="qubit")
    with pytest.raises(ValueError):
        compute_N(sc.detectors[0], sc)


def test_N_zero_coupling():
    sc = _scenario(c=0.0)
    assert compute_N(sc.detectors[0], sc).value == 0.0


def test_N_equals_half_sqrt2_of_clone_M():
    # with B a clone of A at the same position, the ordered integrals agree
    # exactly at every regulator: N = (sqrt(2)/2) M_clone
    da = _detector("A", (0.0, 0.0, 0.0))
    db = _detector("B", (0.0, 0.0, 0.0))
    clone = HarvestScenario(detectors=(da, db))
    single = HarvestScenario(detectors=(da, _detector("B", (5.0, 0.0, 0.0))))
    for eps in (1e-2, 5e-3):
        n = compute_N(da, _sequence(single, (eps,))).value
        m = compute_M(_sequence(clone, (eps,))).value
        assert abs(n - 0.5 * math.sqrt(2.0) * m) / abs(n) <= 1e-12


def test_N_coupling_quadruples():
    one = QuadratureConfig(epsilon_sequence=(0.01,))
    sc1 = _scenario(c=C0, quad=one)
    sc2 = _scenario(c=2 * C0, quad=one)
    n1 = compute_N(sc1.detectors[0], sc1).value
    n2 = compute_N(sc2.detectors[0], sc2).value
    assert n2 == 4 * n1


def test_simpson_cross_check_frozen():
    # Simpson on a 6001^2 grid in unrotated (t, t') coordinates, eps = 0.25,
    # [-8, 8]^2; values frozen from that independent evaluation
    cfg = QuadratureConfig(epsilon_sequence=(0.25,))
    sc = _scenario(quad=cfg)
    L = compute_L(sc.detectors[0], sc.detectors[0], sc)
    M = compute_M(sc)
    assert abs(L.value - 6.176241452214257e-07) / 6.176241452214257e-07 <= 1e-8
    m_ref = -2.5884406937599136e-07 + 1.0281040611913585e-08j
    assert abs(M.value - m_ref) / abs(m_ref) <= 1e-7


# --- density matrix and negativity --------------------------------------------


def test_rho_qubit_layout():
    el = _elements(0.01, 0.02, 0.003 + 0.004j, L_AB=0.005 - 0.001j)
    rho = assemble_rho(el, "qubit")
    assert rho.shape == (4, 4)
    assert rho[0, 0] == pytest.approx(1 - 0.03)
    assert rho[1, 1] == 0.01 and rho[2, 2] == 0.02 and rho[3, 3] == 0.0
    assert rho[3, 0] == 0.003 + 0.004j and rho[0, 3] == np.conj(rho[3, 0])
    assert rho[1, 2] == 0.005 - 0.001j and rho[2, 1] == np.conj(rho[1, 2])
    assert rho[1, 0] == 0.0 and rho[2, 3] == 0.0


def test_rho_oscillator_layout():
    el = _elements(0.01, 0.02, 0.003j, L_AB=0.005, N_A=0.001 + 0.002j, N_B=-0.004)
    rho = assemble_rho(el, "oscillator")
    assert rho.shape == (6, 6)
    assert rho[3, 0] == 0.003j
    assert rho[4, 0] == 0.001 + 0.002j and rho[0, 4] == np.conj(rho[4, 0])
    assert rho[5, 0] == -0.004 and rho[0, 5] == -0.004
    assert rho[4, 4] == 0.0 and rho[5, 5] == 0.0


@pytest.mark.parametrize("model", ["qubit", "oscillator"])
def test_rho_trace_and_hermiticity(model):
    el = _elements(0.01, 0.02, 0.003 + 0.004j, L_AB=0.005 - 0.001j,
                   N_A=0.001j, N_B=0.002)
    rho = assemble_rho(el, model)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12


def test_negativity_closed_form_negative_E1():
    # equal diagonals 0.01, |M| = 0.02: E1 = 0.01 - 0.02 = -0.01
    el = _elements(0.01, 0.01, 0.02)
    E1, neg = negativity_leading(el)
    assert E1 == pytest.approx(-0.01, rel=1e-15)
    assert neg == pytest.approx(0.01, rel=1e-15)


def test_negativity_closed_form_positive_E1():
    # E1 = (0.04 - sqrt(0.0004 + 0.0004))/2 = 0.02 - sqrt(0.0002)
    el = _elements(0.03, 0.01, 0.01)
    E1, neg = negativity_leading(el)
    assert E1 == pytest.approx(0.02 - math.sqrt(2.0) * 0.01, rel=1e-14)
    assert neg == 0.0


def test_negativity_pt_product_state_is_zero():
    el = _elements(0.01, 0.02, 0.0, L_AB=0.0)
    for model in ("qubit", "oscillator"):
        assert negativity_pt_exact(assemble_rho(el, model)) <= 1e-15


def test_negativity_pt_qubit_extra_eigenvalue():
    # the 4x4 partial transpose always carries ~ -|L_AB|^2/(1 - L_AA - L_BB)
    el = _elements(0.01, 0.01, 0.0, L_AB=0.005)
    got = negativity_pt_exact(assemble_rho(el, "qubit"))
    assert got == pytest.approx(0.005**2 / 0.98, rel=1e-3)


# --- model equivalence and subleading structure --------------------------------


@pytest.fixture(scope="module")
def qubit_reports():
    return {c: harvest(_scenario(model="qubit", c=c)) for c in (0.04, 0.02, 0.01)}


@pytest.fixture(scope="module")
def oscillator_report():
    return harvest(_scenario(model="oscillator", c=0.01))


def test_qubit_oscillator_leading_order_bitwise(qubit_reports, oscillator_report):
    q = qubit_reports[0.01]
    o = oscillator_report
    assert q.E1 == o.E1
    assert q.negativity == o.negativity


def test_rho_shapes_by_model(qubit_reports, oscillator_report):
    assert qubit_reports[0.01].rho.shape == (4, 4)
    assert oscillator_report.rho.shape == (6, 6)


def test_pt_extra_eigenvalue_scales_c4(qubit_reports):
    r1 = qubit_reports[0.01].negativity_pt
    r2 = qubit_reports[0.02].negativity_pt
    assert r2 / r1 == pytest.approx(16.0, rel=1e-3)


def test_subleading_ratio_vanishes_quadratically(qubit_reports):
    # |extra PT eigenvalue| / |E1| must drop by 4 per coupling halving
    ratios = {c: rep.negativity_pt / abs(rep.E1) for c, rep in qubit_reports.items()}
    assert ratios[0.04] / ratios[0.02] == pytest.approx(4.0, rel=0.05)
    assert ratios[0.02] / ratios[0.01] == pytest.approx(4.0, rel=0.05)


def test_harvest_report_provenance(qubit_reports):
    rep = qubit_reports[0.01]
    assert rep.provenance == "minkowski/ground"
    assert rep.epsilon_sequence is None  # none configured: the eps -> 0 limit
    assert rep.elements.N_A is None  # qubits have no N elements


def test_perturbative_warning():
    sc = _scenario(model="qubit", c=5.0, L=1.0, quad=QuadratureConfig(epsilon_sequence=(0.01,)))
    with pytest.warns(UserWarning, match="second-order truncation"):
        harvest(sc)


# --- validation ----------------------------------------------------------------


def test_detector_spec_validation():
    traj = StaticTrajectory((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        DetectorSpec("", "qubit", 1.0, 0.01, traj, GAUSS)
    with pytest.raises(ValueError):
        DetectorSpec("A", "spin", 1.0, 0.01, traj, GAUSS)
    with pytest.raises(ValueError):
        DetectorSpec("A", "qubit", -1.0, 0.01, traj, GAUSS)
    with pytest.raises(ValueError):
        DetectorSpec("A", "qubit", 1.0, -0.01, traj, GAUSS)
    with pytest.raises(ValueError):
        DetectorSpec("A", "qubit", 0.0, 0.01, traj, GAUSS)
    # the coupling is the leg prefactor, and nothing else scales it
    with pytest.raises(TypeError):
        DetectorSpec("A", "oscillator", 1.0, 0.01, traj, GAUSS, interaction_scale=1.0)
    assert len(fields(DetectorSpec)) == 6


def test_oscillator_zero_frequency_with_scale():
    # an oscillator at frequency 0 is the Omega = 0 dual: it has no ground
    # state, so the mode-sum oracle and a ground-state scenario refuse it
    traj = StaticTrajectory((0.0, 0.0, 0.0))
    d = DetectorSpec("A", "oscillator", 0.0, 0.01, traj, GAUSS)
    with pytest.raises(ValueError, match="frequency > 0"):
        fourier_oracle_L(d, d, 0.0, QuadratureConfig())
    with pytest.raises(ValueError, match="frequency > 0"):
        HarvestScenario(detectors=(d, replace(d, label="B", trajectory=StaticTrajectory((5.0, 0.0, 0.0)))))


def test_scenario_validation():
    da = _detector("A", (0.0, 0.0, 0.0))
    db = _detector("B", (5.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da,))
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da, replace(db, label="A")))
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da, replace(db, model="qubit")))  # mixed pair
    with pytest.raises(ValueError):
        HarvestScenario(detectors=(da, db), initial_state="takagi_squeezed")
    with pytest.raises(TypeError):
        HarvestScenario(detectors=(da, db), map=ConformalTakagiMap(1.0, 2.0, n_spatial=2))
    # the frame follows the map and is not set on its own
    assert HarvestScenario(detectors=(da, db)).frame == "minkowski"
    assert HarvestScenario(detectors=(da, db), map=ConformalTakagiMap(1.0, 2.0)).frame == "frw"
    with pytest.raises(TypeError):
        HarvestScenario(detectors=(da, db), frame="frw")


def test_transported_window_lives_on_its_own_maps_background():
    # every window of a kernel reads the kernel's clock, so a window
    # transported by another map, or sitting in a flat scenario, is refused
    dual = dualize(_scenario(), 2.0)
    da, db = dual.detectors
    other = ConformalTakagiMap(1.0, 3.0)
    foreign = replace(db, switching=transform_switching(other, GAUSS))
    for label, dets, m in (("B", (_detector("A", (0.0, 0.0, 0.0)), db), None),
                           ("A", (da, db), other),
                           ("B", (da, foreign), dual.map)):
        with pytest.raises(ValueError, match=f"detector {label}: a window transported"):
            HarvestScenario(detectors=dets, map=m)
    # dualize's output constructs, and a dual ground state may take its windows
    assert HarvestScenario(detectors=(da, db), map=dual.map, initial_state="takagi_squeezed",
                           quadrature=dual.quadrature) == dual
    assert HarvestScenario(detectors=(da, db), map=dual.map).frame == "frw"


# --- duality --------------------------------------------------------------------


@pytest.mark.parametrize("omega,Omega", [(1.0, 2.0), (1.0, 0.5), (2.0, 3.0)])
def test_duality_backbone_pointwise(omega, Omega):
    m = ConformalTakagiMap(omega, Omega)
    lam = np.linspace(-4.3, 4.3, 100)
    assert duality_backbone_residual(m, GAUSS, lam) <= 1e-12


def test_dualize_validation():
    flat = _scenario()
    with pytest.raises(ValueError, match="oscillator"):
        dualize(_scenario(model="qubit"), 2.0)
    da, db = flat.detectors
    uneq = HarvestScenario(detectors=(da, replace(db, frequency=2.0)))
    with pytest.raises(ValueError, match="equal detector frequencies"):
        dualize(uneq, 2.0)
    frw = dualize(flat, 2.0)
    with pytest.raises(ValueError, match="flat"):
        dualize(frw, 3.0)


def test_dualize_power_law_support_check():
    # Omega=0 only covers |omega lam| < pi/2; an 8 sigma gaussian is too wide
    with pytest.raises(ValueError):
        dualize(_scenario(), 0.0)
    narrow = _scenario(chi=cos_squared_switching(-0.5, 0.5))
    dual = dualize(narrow, 0.0)
    assert dual.map.Omega == 0.0
    # the Omega = 0 duals are oscillators at frequency 0
    assert all(d.model == "oscillator" and d.frequency == 0.0 for d in dual.detectors)


def test_dualize_scenario_shape():
    flat = _scenario()
    dual = dualize(flat, 2.0)
    assert dual.frame == "frw"
    assert dual.initial_state == "takagi_squeezed"
    assert dual.map.omega == 1.0 and dual.map.Omega == 2.0
    for f, d in zip(flat.detectors, dual.detectors):
        assert d.frequency == 2.0
        assert d.coupling == f.coupling  # the duality keeps the leg prefactor


@pytest.mark.parametrize("Omega", [0.5, 2.0])
def test_dual_check_keeps_each_coupling(Omega):
    # B's coupling differs from A's, so L_BB is computed on each side, with
    # the coupling dualize hands on
    da, db = _scenario().detectors
    rep = run_dual_check(HarvestScenario(detectors=(da, replace(db, coupling=0.02))), Omega)
    assert rep.resid_max <= 1e-8, rep.residuals
    assert rep.flat.L_BB.value.real == pytest.approx(4.0 * rep.flat.L_AA.value.real, rel=1e-12)


def test_dual_check_degenerate_collapses():
    rep = run_dual_check(_scenario(), 1.0)
    assert rep.resid_max <= 1e-12


def test_dual_check_nontrivial_pair():
    rep = run_dual_check(_scenario(quad=QuadratureConfig(epsilon_sequence=(0.01, 0.005))), 2.0)
    assert rep.resid_max <= 1e-3
    assert set(rep.residuals) == {"L_AA", "L_BB", "abs_M", "negativity"}


# --- regulator sequence ---------------------------------------------------------


def test_regulator_sequence_policy(monkeypatch):
    # the configured sequence alone picks the route: none, or more than one
    # level, takes the eps -> 0 limit; one level that finite eps.  The
    # report records the configured sequence, harvest and dualize alike
    sc = _scenario(model="qubit", quad=SMALL)
    da = sc.detectors[0]
    for eps in (None, (0.02, 0.01), (0.04, 0.02, 0.01)):
        configured = _sequence(sc, eps)
        assert harvest(configured).epsilon_sequence == eps
        for res in (compute_L(da, da, configured), compute_M(configured)):
            assert res.note == "closed-form" and res.epsilon_used is None
    for res in (compute_L(da, da, _sequence(sc, (0.02,))), compute_M(_sequence(sc, (0.02,)))):
        assert res.note == "finest-epsilon" and res.epsilon_used == 0.02
    assert not hasattr(run_dual_check(_scenario(quad=SMALL), 1.0), "epsilon_sequence")

    def no_quadrature(*args):
        raise AssertionError("quadrature ran on a rejected sequence")

    monkeypatch.setattr(harvesting, "integrate_square", no_quadrature)
    da = sc.detectors[0]
    with pytest.raises(ValueError, match="halve"):
        _sequence(sc, (0.01, 0.004))
    with pytest.raises(ValueError, match="halve"):
        QuadratureConfig(epsilon_sequence=(0.04, 0.02, 0.004))
    # the patched name is the one the elements call: a valid sequence reaches it
    with pytest.raises(AssertionError, match="quadrature ran"):
        compute_L(da, da, _sequence(sc, (0.02, 0.01)))


def test_one_level_sequence_integrates_only_that_level(monkeypatch):
    # a one-level sequence asks for that finite regulator: one grid per
    # kernel call, the regulated value at that eps
    sc = _scenario(quad=QuadratureConfig(max_subdivisions=6, epsilon_sequence=EPS6[-1:]))
    da = sc.detectors[0]
    runs = {
        "L": lambda: compute_L(da, da, sc),
        "M": lambda: compute_M(sc),
        "N": lambda: compute_N(da, sc),
    }
    finest = {name: run() for name, run in runs.items()}
    shapes = []
    integrate = harvesting.integrate_square

    def spy(f, rect, cfg):
        def kern(u, w):
            out = f(u, w)
            shapes.append(out.shape)
            return out

        return integrate(kern, rect, cfg)

    monkeypatch.setattr(harvesting, "integrate_square", spy)
    for name, run in runs.items():
        shapes.clear()
        res = run()
        assert shapes and set(shapes) == {(len(XK), len(XK))}
        assert res.note == "finest-epsilon"
        assert res.epsilon_used == EPS6[-1]
        assert res == finest[name]


@pytest.mark.parametrize("freq,sigma", [(2.0, 1.6), (1.99, 1.48)])
def test_diagonal_L_at_large_omega_sigma_converges_to_the_mode_sum(freq, sigma):
    # the flat Wightman factor is taken at the exact time difference u; from
    # t - t' it carried rounding of ulp(w), which at sep = 0 sat above
    # rel_tol here and exhausted the default budget (80,001 cells)
    db = _detector("B", (0.0, 0.0, 0.0), freq=freq, chi=gaussian_switching(sigma))
    sc = HarvestScenario(detectors=(_detector("A", (5.0, 0.0, 0.0), freq=freq), db))
    res = compute_L(db, db, sc)
    oracle = fourier_oracle_L(db, db, 0.0, QuadratureConfig(rel_tol=1e-10))
    assert not res.budget_exhausted
    assert abs(res.value - oracle.value) <= 1e-6 * abs(oracle.value)
    assert abs(res.value.imag) <= 1e-6 * abs(res.value.real)


def test_element_reports_the_cells_of_its_mesh(monkeypatch):
    # the rescaled element at one regulator carries the cell count of its
    # one mesh: the dual L_AB of two co-located detectors that do not mirror
    seen = []
    da, db = _scenario(L=0.0).detectors
    dual = dualize(HarvestScenario(detectors=(da, replace(db, switching=gaussian_switching(1.25))),
                                   quadrature=QuadratureConfig(epsilon_sequence=(0.01,))), 2.0)
    mesh, calls = _mesh_of(monkeypatch, lambda: seen.append(compute_L(*dual.detectors, dual)))
    (res,) = seen
    assert res.note == "finest-epsilon"
    assert res.cells == mesh.cells == calls > 1


def _calls_of(monkeypatch, run):
    """Kernel calls of each integrate_square call of run, and run's result."""
    calls = []
    integrate = harvesting.integrate_square

    def spy(f, rect, cfg):
        calls.append(0)

        def kern(u, w):
            calls[-1] += 1
            return f(u, w)

        return integrate(kern, rect, cfg)

    with monkeypatch.context() as mp:
        mp.setattr(harvesting, "integrate_square", spy)
        res = run()
    return calls, res


def test_closed_form_element_reports_all_its_cells(monkeypatch):
    # a closed-form element is one adaptive run over all pieces of its x
    # range (M breaks at its pole x = L), and N adds the segments of its
    # pole's line integral
    sc = _scenario()
    calls, M = _calls_of(monkeypatch, lambda: compute_M(sc))
    assert M.note == "closed-form" and M.pole is None
    assert len(calls) == 1 and M.cells == calls[0]
    assert M.cells % 2 == 0  # two pieces + 2 * splits
    lines = []
    line_integral = harvesting.adaptive_1d
    monkeypatch.setattr(harvesting, "adaptive_1d",
                        lambda *args: lines.append(line_integral(*args)) or lines[-1])
    calls, N = _calls_of(monkeypatch, lambda: compute_N(sc.detectors[0], sc))
    assert N.note == "finite-part" and N.pole is not None
    (line,) = lines
    assert len(calls) == 1 and N.cells == calls[0] + line.cells > calls[0]


@pytest.mark.parametrize("chi, sheared", [(GAUSS, False), (cos_squared_switching(-0.5, 0.5), True)])
def test_chart_is_decided_by_the_windows_alone(monkeypatch, chi, sheared):
    # equal supports are sheared onto their diamond, s in [-1, 1], for cos^2
    # windows and windows transported from them, and keep _rect's w range
    # for Gaussian ones, on the flat and the dual side alike; these windows
    # are even about t = 0, so each element integrates the v >= 0 half of
    # its range, in the limit and at a finite eps: s in [0, 1] (its edge
    # s = 0 is the diamond's kink), or w in [0, w1]
    domains = []
    integrate = harvesting.integrate_square

    def spy(f, rect, cfg):
        domains.append(rect[1])
        return integrate(f, rect, cfg)

    monkeypatch.setattr(harvesting, "integrate_square", spy)
    flat = _scenario(L=0.0, chi=chi)
    for sc in (flat, _sequence(flat, (0.01,)), dualize(flat, 1.3)):
        da = sc.detectors[0]
        sup = da.switching.support
        want = (0.0, 1.0) if sheared else (0.0, harvesting._rect(sup, sup, True)[3])
        for run in (lambda: compute_L(da, da, sc), lambda: compute_N(da, sc), lambda: compute_M(sc)):
            domains.clear()
            run()
            assert domains and all(d == want for d in domains), (sc.frame, domains)


def _without_the_kink_edge(monkeypatch, run):
    """run's result with the edge s = 0 dropped from its one integrate_square call."""
    integrate = harvesting.integrate_square
    s_edges = []

    def spy(f, rect, cfg):
        us, vs = rect
        s_edges.append(vs)
        return integrate(f, (us, (vs[0], vs[-1])), cfg)

    with monkeypatch.context() as mp:
        mp.setattr(harvesting, "integrate_square", spy)
        res = run()
    assert s_edges == [(-1.0, 0.0, 1.0)]
    return res


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-11])
def test_the_kink_of_the_diamond_is_an_edge(monkeypatch, rel_tol):
    # the line terms of a co-located element in the limit carry X(s), which
    # has a kink at s = 0 on the diamond of cos^2 windows; with s = 0 an
    # edge the run starts from the two halves that its first split made
    # without it: the same value and err bit for bit, and one cell fewer.
    # The windows sit on (0, 1), not even about t = 0, so no element folds
    # its s range onto s >= 0
    q = QuadratureConfig(rel_tol=rel_tol, abs_tol=0.0)
    chi = cos_squared_switching(0.0, 1.0)
    flat = _scenario(L=0.0, chi=chi, quad=q)
    runs = []
    for sc in (flat, dualize(flat, 0.5), dualize(flat, 2.0)):
        da = sc.detectors[0]
        runs += [lambda sc=sc, da=da: compute_L(da, da, sc), lambda sc=sc: compute_M(sc),
                 lambda sc=sc, da=da: compute_N(da, sc)]
    gaps = HarvestScenario(detectors=(_detector("A", (0.0, 0.0, 0.0), chi=chi),
                                      _detector("B", (0.0, 0.0, 0.0), freq=1.3, chi=chi)),
                           quadrature=q)
    runs.append(lambda: compute_L(*gaps.detectors, gaps))
    for freq in (0.5, 3.0, 8.0):  # criterion 10's qubits
        qubits = _scenario(model="qubit", L=2.0, freq=freq, chi=chi, quad=q)
        runs.append(lambda sc=qubits: compute_L(sc.detectors[0], sc.detectors[0], sc))
    for run in runs:
        res, kinked = run(), _without_the_kink_edge(monkeypatch, run)
        assert not res.budget_exhausted
        assert replace(res, cells=0) == replace(kinked, cells=0)
        assert res.cells == kinked.cells - 1


# --- each leg evaluated once -----------------------------------------------------

# one regulator level and a handful of cells: enough to exercise every kernel
EPS1 = (0.01,)
SMALL = QuadratureConfig(max_subdivisions=6, epsilon_sequence=EPS1)


def _gk_grid(rect):
    u0, *_, u1, w0, w1 = rect
    u = u0 + 0.5 * (u1 - u0) * (XK[:, None] + 1.0)
    w = w0 + 0.5 * (w1 - w0) * (XK[None, :] + 1.0)
    return u, w


def test_dual_kernels_evaluate_the_clock_once_per_leg(monkeypatch):
    dual = dualize(_scenario(quad=SMALL), 2.0)
    da = dual.detectors[0]
    calls = dict.fromkeys(("kernel", "lambda_of_tau", "conformal_factor"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("lambda_of_tau", "conformal_factor"):
        monkeypatch.setattr(ConformalTakagiMap, name, counted(name, getattr(ConformalTakagiMap, name)))
    integrate = harvesting.integrate_square
    monkeypatch.setattr(
        harvesting, "integrate_square",
        lambda f, rect, cfg: integrate(counted("kernel", f), rect, cfg),
    )
    runs = (
        lambda: compute_L(da, da, dual),
        lambda: compute_M(dual),
        lambda: compute_N(da, dual),
    )
    for run in runs:
        calls.update(dict.fromkeys(calls, 0))
        run()
        # both legs' rows go through one clock call per kernel call
        assert calls["kernel"] > 1
        assert calls["lambda_of_tau"] == calls["kernel"]
        assert calls["conformal_factor"] == calls["kernel"]


def test_shared_clock_legs_equal_the_public_wrappers():
    m = ConformalTakagiMap(1.0, 2.0)
    chi = transform_switching(m, GAUSS)
    a, b = chi.support
    u, w = _gk_grid(harvesting._rect(chi.support, chi.support, False))
    t = 0.5 * (w + u)
    outside = (t < a) | (t > b)
    assert np.any(outside) and not np.all(outside)
    lam = m.lambda_of_tau(t)
    C = m.conformal_factor(lam)
    assert np.array_equal(chi(t, lam, C), chi(t))
    assert np.all(chi(t, lam, C)[outside] == 0.0)
    amp, phase = transported_leg(m, lam, C)
    assert np.array_equal(amp * np.exp(1j * phase), transported_mode(m, t))


def _assert_legs_close(got, want, scale=None, rel=1e-14):
    # a leg product amp e^{i phase} rounds differently from the product of
    # the complex legs, by a few units in the last place of the phase; a sum
    # of two products is compared relative to the sum of their sizes
    scale = np.abs(want) if scale is None else scale
    err = np.abs(got - want)
    assert np.all(err <= rel * scale), float(np.max(err / np.maximum(scale, 1e-300)))


def _public_element(sc, da, db, ordered, eps):
    """One element at eps, before its prefactor, from the public legs on the plain (u, w) mesh.

    A's leg, window times mode (e^{i freq t}, or transported_mode for the
    squeezed dual state), sits at t = (w + u)/2 and B's at t' = (w - u)/2;
    they are joined by wightman_flat_sep, or by wightman_frw_sep at the
    conformal times of both legs, and 1/2 is the Jacobian of (t, t') ->
    (u, w).  Unordered (L), over the whole rectangle of the two supports,
    B's leg is conjugated and W runs from t' to t.  Ordered (M, N), over
    u >= 0, W runs from t to t', and the (A <-> B) ordering is added (for
    N, B is A and that doubles the product).
    Shares nothing with the harvesting routine but integrate_square, and no
    chart, break or fold: one rectangle, as the quadrature refines it.
    """
    sep = separation(da.trajectory, db.trajectory)
    m = sc.map

    def leg(d, t):
        mode = transported_mode(m, t) if sc.initial_state == "takagi_squeezed" else (
            np.exp(1j * d.frequency * t))
        return d.switching(t) * mode

    def wight(t, tp):
        if m is None:
            return wightman_flat_sep(t - tp, sep, eps)
        return wightman_frw_sep(m.lambda_of_tau(t), m.lambda_of_tau(tp), sep, m, eps)

    def kern(u, w):
        t, tp = 0.5 * (w + u), 0.5 * (w - u)
        a, b_p = leg(da, t), leg(db, tp)
        if not ordered:
            return 0.5 * a * np.conj(b_p) * wight(tp, t)
        # B's leg is A's when both have one window and one frequency
        twin = (da.switching, da.frequency) == (db.switching, db.frequency)
        pair = a * b_p + (a * b_p if twin else leg(db, t) * leg(da, tp))
        return 0.5 * pair * wight(t, tp)

    (a0, a1), (b0, b1) = da.switching.support, db.switching.support
    if ordered:
        rect = ((0.0, max(a1 - b0, b1 - a0)), (a0 + b0, a1 + b1))
    else:
        rect = ((a0 - b1, a1 - b0), (a0 + b0, a1 + b1))
    return replace(integrate_square(kern, rect, sc.quadrature), epsilon_used=eps)


def test_dual_kernels_equal_the_formulas_of_the_public_legs():
    # the one routine at a finite eps, for L, M and N on both sides, against
    # the same element from the public per-point legs on the plain (u, w)
    # mesh, at each of three regulators: its domain, chart, breaks and fold
    # change the mesh, not the integral
    flat = _scenario()
    dual = dualize(flat, 2.0)
    for sc in (flat, dual):
        da, db = sc.detectors
        # L_AA (folded), L_AB (folded, two ridges), M and N
        cases = [(da, da, False), (da, db, False), (da, db, True), (da, da, True)]
        for eps in (0.02, 0.01, 0.005):
            for a, b, ordered in cases:
                fold = not ordered and harvesting._mirrors(a, b)
                got = harvesting._integral(sc, a, b, ordered, fold, eps)
                want = _public_element(sc, a, b, ordered, eps)
                assert got.note == "finest-epsilon" and got.epsilon_used == eps
                assert abs(got.value - want.value) <= 10.0 * sc.quadrature.rel_tol * abs(want.value), (
                    sc.frame, a.label, b.label, ordered, eps)


def _leg_pairs(side):
    """(scenario, [(A, B)]) on one side: B mirrors A, has another window or frequency."""
    flat = _scenario()
    da, db = flat.detectors
    if side == "flat":
        sc = flat
    elif side == "transported":
        sc = dualize(flat, 2.0)
    else:
        m = ConformalTakagiMap(1.0, 2.0)
        da, db = (replace(d, frequency=2.0, switching=transform_switching(m, GAUSS))
                  for d in (da, db))
        sc = HarvestScenario(detectors=(da, db), map=m)
    da, db = sc.detectors
    # a dual ground state also takes a window of its own (not transported)
    wide = gaussian_switching(1.25)
    if side == "transported":
        wide = transform_switching(sc.map, wide)
    return sc, [(da, db), (da, replace(db, switching=wide)), (da, replace(db, frequency=1.5))]


@pytest.mark.parametrize("side", ["flat", "frw_ground", "transported"])
def test_leg_product_equals_the_explicit_legs(side):
    # the amplitude/phase legs joined under one exponential, against
    # chi(t) mode(t) chi(t') conj(mode(t')) (unordered) and chi(t) mode(t)
    # chi(t') mode(t') (+ the swapped product) from the public windows and modes
    sc, pairs = _leg_pairs(side)

    def explicit(det):
        if sc.initial_state == "takagi_squeezed":
            return lambda t: det.switching(t) * transported_mode(sc.map, t)
        return lambda t: det.switching(t) * np.exp(1j * det.frequency * t)

    for da, db in pairs:
        leg_a, leg_b = explicit(da), explicit(db)
        u, w = _gk_grid(harvesting._rect(da.switching.support, db.switching.support, False))
        t, tp = 0.5 * (w + u), 0.5 * (w - u)
        pair, swapped_pair = leg_a(t) * leg_b(tp), leg_b(t) * leg_a(tp)
        cases = [
            (False, False, leg_a(t) * np.conj(leg_b(tp)), None),
            (True, False, pair, None),
            (True, True, pair + swapped_pair, np.abs(pair) + np.abs(swapped_pair)),
        ]
        for ordered, swapped, want, scale in cases:
            evaluate, join = harvesting._legs(sc, da, db, ordered, swapped)
            P, Q = evaluate(t, tp)
            amp, phase = join(P, Q)
            assert np.any(want != 0.0) and np.any(want == 0.0)
            _assert_legs_close(amp * np.exp(1j * phase), want, scale)


def _clock_and_window_calls(monkeypatch, run):
    """(clock-map calls, window calls, window points) in each kernel call that run integrates.

    Windows count at the outermost call: a transported window evaluates its
    base window inside its own call.
    """
    counts = {"clock": 0, "window": 0, "points": 0}
    depth = [0]

    def counted(fn):
        def window(*args, **kwargs):
            counts["window"] += depth[0] == 0
            counts["points"] += np.size(args[1]) if depth[0] == 0 else 0
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return window

    lam = ConformalTakagiMap.lambda_of_tau

    def clock(self, tau):
        counts["clock"] += 1
        return lam(self, tau)

    per_call = []
    integrate = harvesting.integrate_square

    def spy(f, rect, cfg):
        def kern(u, v):
            before = dict(counts)
            out = f(u, v)
            per_call.append(tuple(counts[k] - before[k] for k in ("clock", "window", "points")))
            return out

        return integrate(kern, rect, cfg)

    with monkeypatch.context() as mp:
        mp.setattr(ConformalTakagiMap, "lambda_of_tau", clock)
        mp.setattr(SwitchingFunction, "__call__", counted(SwitchingFunction.__call__))
        mp.setattr(harvesting, "integrate_square", spy)
        run()
    return per_call


def test_one_clock_call_and_one_window_call_per_detector_per_cell(monkeypatch):
    flat = _scenario()
    da = flat.detectors[0]
    other = HarvestScenario(detectors=(da, replace(flat.detectors[1],
                                                   switching=gaussian_switching(1.25))))
    gaps = HarvestScenario(detectors=(da, replace(flat.detectors[1], frequency=1.5)))
    # the same pair translated in time: its windows are not even about t = 0
    shifted = HarvestScenario(detectors=tuple(
        replace(d, switching=gaussian_switching(d.switching.param("sigma"), center=0.37))
        for d in other.detectors))
    dual = dualize(flat, 2.0)
    # co-located cos^2 oscillators: the dual diamond's far corner is one more
    # row; at omega = 3, where each run on the s >= 0 half takes several cells
    colo = dualize(_scenario(L=0.0, freq=3.0, chi=COS2), 0.5)
    n = len(XK)
    cases = [
        # (run, clock calls, distinct windows, window points or None): each
        # distinct window reads every row of a call, the (n, n) grids of t
        # and t' and one (1, n) row per pole at each, n = len(XK)
        (lambda: compute_L(da, da, flat), 0, 1, None),
        (lambda: compute_N(da, flat), 0, 1, None),
        # a swapped M (one pole)
        (lambda: compute_M(other), 0, 2, 2 * 2 * (n * n + n)),
        # equal windows count once, whatever the gaps
        (lambda: compute_M(gaps), 0, 1, 2 * (n * n + n)),
        # L_AB of even windows, folded onto u >= 0: one pole (u = L)
        (lambda: compute_L(*other.detectors, other), 0, 2, 2 * 2 * (n * n + n)),
        # L_AB of windows that are not even, two poles (u = -L and u = L)
        (lambda: compute_L(*shifted.detectors, shifted), 0, 2, 2 * 2 * (n * n + 2 * n)),
        (lambda: compute_L(dual.detectors[0], dual.detectors[0], dual), 1, 1, None),
        (lambda: compute_M(dual), 1, 1, None),
        (lambda: compute_L(colo.detectors[0], colo.detectors[0], colo), 1, 1, None),
        (lambda: compute_N(colo.detectors[0], colo), 1, 1, None),
        (lambda: compute_M(colo), 1, 1, None),
    ]
    for run, clocks, windows, points in cases:
        per_call = _clock_and_window_calls(monkeypatch, run)
        assert len(per_call) > 1
        assert {calls[:2] for calls in per_call} == {(clocks, windows)}
        assert points is None or {calls[2] for calls in per_call} == {points}
    res = compute_L(*other.detectors, other)
    assert res.note == "closed-form" and res.cells > 0


def _count_compute_L(monkeypatch):
    calls = []
    compute = harvesting.compute_L

    def counted(det_a, det_b, scenario):
        calls.append((det_a.label, det_b.label))
        return compute(det_a, det_b, scenario)

    monkeypatch.setattr(harvesting, "compute_L", counted)
    return calls


def test_mirrored_pair_reuses_L_AA_and_N_A(monkeypatch):
    sc = _scenario(quad=SMALL)
    db = sc.detectors[1]
    general_L = compute_L(db, db, sc)
    general_N = compute_N(db, sc)
    calls = _count_compute_L(monkeypatch)
    el = compute_elements(sc)
    assert calls == [("A", "A"), ("A", "B")]
    # the general path gives the same results, bit for bit
    assert el.L_BB == el.L_AA == general_L
    assert el.N_B == el.N_A == general_N


def test_dual_check_reuses_L_AA_on_both_sides(monkeypatch):
    sc = _scenario(quad=SMALL)
    dual = dualize(sc, 2.0)
    flat_b, dual_b = sc.detectors[1], dual.detectors[1]
    general = (compute_L(flat_b, flat_b, sc), compute_L(dual_b, dual_b, dual))
    calls = _count_compute_L(monkeypatch)
    rep = run_dual_check(sc, 2.0)
    assert calls == [("A", "A"), ("A", "A")]
    assert rep.flat.L_BB == rep.flat.L_AA == general[0]
    assert rep.frw.L_BB == rep.frw.L_AA == general[1]


@pytest.mark.parametrize("change", [
    {"switching": gaussian_switching(1.25)},
    {"frequency": 1.5},
    {"coupling": 0.02},
    {"coupling": 0.01 * math.sqrt(2.0)},  # a prefactor that is not a power of two
    {"switching": cos_squared_switching(-4.0, 4.0)},
])
def test_pair_that_does_not_mirror_takes_the_general_path(monkeypatch, change):
    # a coupling leaves B's leg A's (see _mirrors) but changes its prefactor,
    # so L_BB and N_B are computed too
    da, db = _scenario().detectors
    sc = HarvestScenario(detectors=(da, replace(db, **change)), quadrature=SMALL)
    calls = _count_compute_L(monkeypatch)
    el = compute_elements(sc)
    assert calls == [("A", "A"), ("B", "B"), ("A", "B")]
    assert el.L_BB.value != el.L_AA.value
    assert el.N_B.value != el.N_A.value
    # both time orderings enter M, so it is symmetric in the labels
    swapped = HarvestScenario(detectors=sc.detectors[::-1], quadrature=SMALL)
    assert compute_M(swapped).value == el.M.value


def test_scenarios_pickle_by_value():
    # windows are plain data, so a scenario crosses a process boundary intact
    flat = _scenario()
    qubits = _scenario(model="qubit", chi=cos_squared_switching(-0.5, 0.5))
    for sc in (flat, dualize(flat, 2.0), qubits):
        back = pickle.loads(pickle.dumps(sc))
        assert back == sc and hash(back) == hash(sc)
    back = pickle.loads(pickle.dumps(flat))
    ours, theirs = harvest(flat), harvest(back)
    assert theirs.elements == ours.elements
    assert np.array_equal(theirs.rho, ours.rho)
    assert (theirs.E1, theirs.negativity, theirs.negativity_pt) == (
        ours.E1, ours.negativity, ours.negativity_pt
    )


# --- the light cone on a mesh line on the dual side --------------------------------

# (Omega, flat window, separations): omega L below pi/2, between pi/2 and pi,
# and above pi (L = 5).  At Omega = 0 the clock lambda(tau) = arctan(tau) is
# bounded by pi/2, so an element's x stays below pi.
RIDGE_CASES = [
    (0.0, gaussian_switching(0.15), (0.5, 2.0)),
    (0.5, GAUSS, (0.5, 2.0, 5.0)),
    (2.0, GAUSS, (0.5, 2.0, 5.0)),
    (3.0, GAUSS, (0.5, 2.0, 5.0)),
]


def _gap(m, u, w):
    """lambda(t) - lambda(t') at t, t' = (w +- u)/2, from the public clock."""
    return m.lambda_of_tau(0.5 * (w + u)) - m.lambda_of_tau(0.5 * (w - u))


@pytest.mark.parametrize("Omega,chi,seps", RIDGE_CASES)
def test_ridge_closed_form_solves_the_clock_map(Omega, chi, seps):
    # the node u of (x, w) has lambda(t) - lambda(t') = x, for x of either
    # sign, one at a time or on a grid of x against w as a kernel call passes it
    m = ConformalTakagiMap(1.0, Omega)
    dual = transform_switching(m, chi)
    for ordered in (True, False):
        _, _, w0, w1 = harvesting._rect(dual.support, dual.support, ordered)
        w = np.linspace(w0, w1, 201)
        for sep in seps:
            for x in (sep, -sep):
                g = harvesting._ridge(m, x, w)
                assert np.all(np.sign(g) == np.sign(x))
                assert np.max(np.abs(_gap(m, g, w) - x)) <= 1e-12 * sep, (x, ordered)
        x = np.linspace(-max(seps), max(seps), 41)[:, None]
        g = harvesting._ridge(m, x, w[None, :])
        assert g.shape == (41, 201) and np.all(np.diff(g, axis=0) > 0.0)
        assert np.max(np.abs(_gap(m, g, w[None, :]) - x)) <= 1e-12 * max(seps)
    # the diamond of equal cos^2 supports [a0, a1]: its edge s = -1 is where
    # the earlier time is a0, its edge s = 1 where the later one is a1, on
    # the clock's (x, s) chart and on the identity's (u, s) chart alike
    cos2 = cos_squared_switching(-0.5, 0.5)
    for clock, window in ((m, transform_switching(m, cos2)), (None, cos2)):
        a0, a1 = window.support
        for half in (True, False):
            (p0, p1, v0, v1), chart, diamond = harvesting._chart(clock, window, window, half)
            assert (v0, v1) == (-1.0, 1.0) and diamond[:2] == (a0, a1)
            p = np.linspace(p0, p1, 41)[1:-1, None]
            u, w, jac = chart(p, np.array([[-1.0, 1.0]]))
            t, tp = 0.5 * (w + u), 0.5 * (w - u)
            assert np.all(jac > 0.0) and np.all(np.sign(u) == np.sign(p))
            assert np.max(np.abs(np.minimum(t, tp)[:, 0] - a0)) <= 1e-14
            assert np.max(np.abs(np.maximum(t, tp)[:, 1] - a1)) <= 1e-14


def test_power_law_dual_x_range_stays_below_pi():
    # Omega = 0: lambda(tau) = arctan(tau) is bounded by pi/2, and a window
    # fits inside (-pi/2, pi/2), so the x range of an element stays below
    # pi/omega, where every node of the chart is finite and solves the clock
    m = ConformalTakagiMap(1.0, 0.0)
    for chi in (gaussian_switching(0.15), cos_squared_switching(-1.5, 1.5)):
        dual = transform_switching(m, chi)
        for half in (True, False):
            (x0, x1, v0, v1), chart, _ = harvesting._chart(m, dual, dual, half)
            assert -math.pi < x0 < x1 < math.pi
            x = np.linspace(x0, x1, 101)[:, None]
            u, w, jac = chart(x, np.linspace(v0, v1, 101)[None, :])
            assert np.all(np.isfinite(u)) and np.all(np.isfinite(jac))
            assert np.max(np.abs(_gap(m, u, w) - x)) <= 1e-12
    # lambda(t) - lambda(t') < pi for every pair of dual times
    assert m.lambda_of_tau(1e12) - m.lambda_of_tau(-1e12) < math.pi


def _mesh_of(monkeypatch, run):
    """The result and kernel calls of the one integrate_square call of run."""
    seen = []
    integrate = harvesting.integrate_square

    def spy(f, rect, cfg):
        calls = [0]

        def kern(u, w):
            calls[0] += 1
            return f(u, w)

        res = integrate(kern, rect, cfg)
        seen.append((res, calls[0]))
        return res

    with monkeypatch.context() as mp:
        mp.setattr(harvesting, "integrate_square", spy)
        run()
    (res, calls), = seen
    return res, calls


def _assert_straightened_matches_the_plain_mesh(monkeypatch, sc, da, db, ordered, fold,
                                               eps_seq, max_calls):
    for eps in eps_seq:
        calls, res = _calls_of(
            monkeypatch, lambda: harvesting._integral(sc, da, db, ordered, fold, eps))
        want = _public_element(sc, da, db, ordered, eps)
        assert abs(res.value - want.value) <= 10.0 * sc.quadrature.rel_tol * abs(want.value)
        assert sum(calls) < max_calls, (eps, calls)


@pytest.mark.parametrize("Omega", [0.5, 1.3, 2.0, 3.0])
def test_dual_M_of_cos_squared_windows_matches_the_flat_one(Omega):
    # criterion 7's oscillators with cos^2 windows on (-1/2, 1/2) at L = 3,
    # where every pair of events is spacelike; the windows' C^1 edges are
    # mesh edges of the sheared diamond on both sides, so the two M agree
    # within the errors the two sides report
    flat = _scenario(L=3.0, chi=cos_squared_switching(-0.5, 0.5))
    M_flat = compute_M(flat)
    M_dual = compute_M(dualize(flat, Omega))
    assert abs(M_dual.value - M_flat.value) <= M_dual.err_estimate + M_flat.err_estimate


def test_dual_M_straightened_matches_the_plain_mesh(monkeypatch):
    # criterion 7's pair at Omega = 2, at four regulators, each on its own mesh
    dual = dualize(_scenario(), 2.0)
    _assert_straightened_matches_the_plain_mesh(
        monkeypatch, dual, *dual.detectors, True, False, EPS6[:4], 2000)


def test_frw_ground_state_L_AB_straightened_matches_the_plain_mesh(monkeypatch):
    m = ConformalTakagiMap(1.0, 0.5)
    chi = gaussian_switching(0.5)
    da, db = (
        DetectorSpec(label, "qubit", 1.0, 0.01, StaticTrajectory((x, 0.0, 0.0)), chi)
        for label, x in (("A", 0.0), ("B", 1.0))
    )
    sc = HarvestScenario(detectors=(da, db), map=m)
    # the finite-eps route of the folded L_AB (B mirrors A)
    _assert_straightened_matches_the_plain_mesh(
        monkeypatch, sc, da, db, False, True, EPS6[:3], 1000)


def _unfolded_L(sc, da, db, eps_seq):
    """L_ab over the whole plain (u, w) rectangle at each eps, extrapolated, with its prefactor.

    Each level is integrated to 1e-8, two orders below the 1e-6 the
    reference is held to: on the plain mesh a curved light cone crosses
    the cells, and the extrapolation amplifies each level's error.
    """
    tight = replace(sc, quadrature=replace(sc.quadrature, rel_tol=1e-8))
    res = extrapolate_epsilon([_public_element(tight, da, db, False, eps) for eps in eps_seq])
    pref = da.coupling * db.coupling
    return replace(res, value=pref * res.value)


def test_hermitian_L_is_folded_onto_u_nonnegative(monkeypatch):
    # K(-u, w) = conj(K(u, w)) when B mirrors A, so L is 2 Re of its u >= 0
    # half: a real value, the unfolded value within tolerance, far fewer cells
    flat = _scenario()
    near = _scenario(L=0.5)
    dual = dualize(flat, 2.0)
    power = dualize(_scenario(L=0.5, chi=gaussian_switching(0.15)), 0.0)
    cases = [
        (flat, flat.detectors[0], flat.detectors[0]),
        (near, *near.detectors),
        (flat, *flat.detectors),
        (dual, dual.detectors[0], dual.detectors[0]),
        (dual, *dual.detectors),
        (power, power.detectors[0], power.detectors[0]),
        (power, *power.detectors),
    ]
    for sc, da, db in cases:
        folded = compute_L(da, db, sc)
        whole = _unfolded_L(sc, da, db, EPS6[:4])
        assert folded.value.imag == 0.0
        assert abs(folded.value - whole.value) <= 1e-6 * abs(whole.value), (da.label, db.label)
        assert folded.cells <= 0.6 * whole.cells, (folded.cells, whole.cells)
    # a co-located pair that does not mirror is not Hermitian: it is
    # unfolded onto u >= 0, both halves of the whole rectangle in one
    # integrand
    integrate = harvesting.integrate_square
    for chi_b in (gaussian_switching(1.25), gaussian_switching(1.0, center=0.5)):
        fa, fb = _scenario(L=0.0).detectors
        sc = dualize(HarvestScenario(detectors=(fa, replace(fb, switching=chi_b))), 2.0)
        da, other = sc.detectors
        rects = []
        with monkeypatch.context() as mp:
            mp.setattr(harvesting, "integrate_square",
                       lambda f, rect, cfg: rects.append(rect) or integrate(f, rect, cfg))
            res = compute_L(da, other, sc)
        (rect,) = rects
        # its x range over the clock images, the base supports of the
        # transported windows, and its w range over their own supports
        whole = harvesting._rect(*(d.switching.param("base").support for d in (da, other)), False)
        supports = harvesting._rect(da.switching.support, other.switching.support, False)
        assert rect == ((0.0, max(-whole[0], whole[1])), supports[2:])
        assert abs(res.value - _unfolded_L(sc, da, other, EPS6).value) <= 1e-6 * abs(res.value)


def test_power_law_dual_check():
    # Omega = 0: the dual clock is arctan, the ridge a root of a quadratic
    chi = gaussian_switching(0.15)
    rep = run_dual_check(_scenario(L=0.5, chi=chi), 0.0)
    assert rep.resid_max <= 1e-3


# --- the eps -> 0 limit in closed form ---------------------------------------------

LIMIT_WINDOWS = [
    (gaussian_switching(1.0), 0.6),
    (gaussian_switching(1.0), 2.0),
    (gaussian_switching(1.6), 0.6),
    (cos_squared_switching(-0.5, 0.5), 0.5),
    (cos_squared_switching(-0.5, 0.5), 3.7),
    (cos_squared_switching(-0.5, 0.5), 7.7),
]


@pytest.mark.parametrize("chi,freq", LIMIT_WINDOWS)
def test_L_AA_limit_matches_the_mode_sum(chi, freq):
    # the regulated sweep was up to 6e-6 off on cos^2, whose C^1 edges now
    # lie on mesh lines of the sheared support diamond
    sc = _scenario(model="qubit", freq=freq, chi=chi, L=2.0)
    da = sc.detectors[0]
    res = compute_L(da, da, sc)
    oracle = fourier_oracle_L(da, da, 0.0, QuadratureConfig(rel_tol=1e-10))
    assert res.note == "closed-form" and res.value.imag == 0.0
    assert abs(res.value - oracle.value) <= 1e-8 * abs(oracle.value)


def test_criterion_10_M_limit_matches_the_product_integral():
    windows = ((-0.5, 0.5), (-0.5, 0.5))
    for freq in np.arange(0.5, 8.01, 0.5):
        sc = _window_pair(windows, 2.0)
        sc = HarvestScenario(detectors=tuple(replace(d, frequency=float(freq))
                                             for d in sc.detectors))
        oracle = _spacelike_M(windows, 2.0, freq=float(freq), n=400)
        got = compute_M(sc).value
        assert abs(got - oracle) <= 1e-9 * abs(oracle), (freq, got, oracle)


def _swept(sc, da, db, ordered, pref, eps_seq=EPS6):
    """An element by the one routine at each finite eps, extrapolated."""
    fold = not ordered and harvesting._mirrors(da, db)
    res = extrapolate_epsilon([harvesting._integral(sc, da, db, ordered, fold, eps)
                               for eps in eps_seq])
    assert res.note == "richardson", res.note
    return pref * da.coupling * db.coupling * res.value


@pytest.mark.parametrize("L", [0.5, 1.0, 5.0])
def test_limit_agrees_with_the_regulated_sweep(L):
    # at L = 1 a node once fell on the pole u = L
    da = _detector("A", (0.0, 0.0, 0.0))
    mirror = _detector("B", (L, 0.0, 0.0))
    # B's window differs (the rectangle of _rect), or its gap (the whole
    # sheared diamond, broken at its kink u = 0 and at both poles)
    other = _detector("B", (L, 0.0, 0.0), chi=gaussian_switching(1.25))
    gap = _detector("B", (L, 0.0, 0.0), freq=1.5)
    same = HarvestScenario(detectors=(da, mirror))
    apart = HarvestScenario(detectors=(da, other))
    detuned = HarvestScenario(detectors=(da, gap))
    cases = [
        (compute_M(same), _swept(same, da, mirror, True, -1.0)),
        (compute_M(apart), _swept(apart, da, other, True, -1.0)),
        (compute_L(da, mirror, same), _swept(same, da, mirror, False, 1.0)),
        (compute_L(da, other, apart), _swept(apart, da, other, False, 1.0)),
        (compute_L(da, gap, detuned), _swept(detuned, da, gap, False, 1.0)),
    ]
    for got, want in cases:
        assert got.note == "closed-form"
        assert abs(got.value - want) <= 1e-6 * abs(want), (got.value, want)


def test_N_finite_part_and_pole_match_the_regulated_N():
    # criterion 7's pair: the regulated N at eps is finite + pole/eps + O(eps)
    sc = _scenario(quad=QuadratureConfig(rel_tol=1e-10))
    da = sc.detectors[0]
    N = compute_N(da, sc)
    assert N.note == "finite-part"
    want = _N_finite(da.coupling, da.frequency, da.switching.param("sigma"))
    assert abs(N.value - want) <= 1e-8 * abs(want)
    gaps = []
    for eps in (0.04, 0.02, 0.01, 0.005):
        regulated = compute_N(da, _sequence(sc, (eps,)))
        assert regulated.note == "finest-epsilon"
        gaps.append(abs(N.value + N.pole / eps - regulated.value))
    assert all(g2 * 1.5 <= g1 for g1, g2 in zip(gaps, gaps[1:])), gaps


def test_a_coupling_that_differs_by_a_part_in_a_million_keeps_the_limit():
    # couplings enter only the prefactor: B's leg is still A's, so M and L_AB
    # of the co-located pair take the closed form, and the 1/eps pole of M
    # stays out of its value and of the negativity
    da, db = _scenario(L=0.0).detectors
    base = harvest(HarvestScenario(detectors=(da, db)))
    moved = harvest(HarvestScenario(detectors=(da, replace(db, coupling=0.01 * (1.0 + 1e-6)))))
    assert moved.elements.M.note == base.elements.M.note == "finite-part"
    assert moved.elements.L_AB.note == base.elements.L_AB.note == "closed-form"
    assert base.negativity > 0.0
    assert abs(moved.negativity - base.negativity) <= 1e-5 * base.negativity


# co-located pairs that do not mirror: another gap, another Gaussian width,
# cos^2 windows on supports that overlap only in part
CO_LOCATED = [
    (_detector("A", (0.0, 0.0, 0.0)), _detector("B", (0.0, 0.0, 0.0), freq=1.1)),
    (_detector("A", (0.0, 0.0, 0.0)),
     _detector("B", (0.0, 0.0, 0.0), chi=gaussian_switching(1.25))),
    (_detector("A", (0.0, 0.0, 0.0), chi=cos_squared_switching(-0.5, 0.5)),
     _detector("B", (0.0, 0.0, 0.0), chi=cos_squared_switching(0.0, 1.0))),
]
CO_LOCATED_IDS = ["gap", "sigma", "cos2"]


@pytest.mark.parametrize("da,db", CO_LOCATED, ids=CO_LOCATED_IDS)
def test_co_located_pair_that_does_not_mirror_takes_the_limit(da, db):
    # L_AB unfolded onto u >= 0, with its i pi delta' line term (the window
    # derivatives enter through a'b - ab'), against the mode sum and against
    # a six-level Richardson reference of the regulated kernel
    sc = HarvestScenario(detectors=(da, db))
    res = compute_L(da, db, sc)
    assert res.note == "closed-form" and res.pole is None
    oracle = fourier_oracle_L(da, db, 0.0, QuadratureConfig(rel_tol=1e-10))
    tol = max(1e-6 * abs(oracle.value), oracle.err_estimate)
    assert abs(res.value - oracle.value) <= tol, (res.value, oracle.value)
    want = _swept(sc, da, db, False, 1.0)
    assert abs(res.value - want) <= 1e-6 * abs(want), (res.value, want)
    # M takes the finite part and reports its pole apart, as N does
    M = compute_M(sc)
    assert M.note == "finite-part" and M.pole is not None


def test_co_located_M_is_continuous_in_the_gap():
    # criterion 7's pair at L = 0 with B's gap 1 + d: the finite part moves
    # smoothly from the mirrored pair's, and the pole stays out of the
    # negativity
    da, db = _scenario(L=0.0).detectors

    def pair(d):
        return HarvestScenario(detectors=(da, replace(db, frequency=1.0 + d)))

    same, near = compute_M(pair(0.0)), compute_M(pair(1e-12))
    assert abs(near.value - same.value) <= 1e-9 * abs(same.value)
    assert abs(near.pole - same.pole) <= 1e-9 * abs(same.pole)
    for d in (1e-6, 1e-3, 0.1, 0.5):
        got = compute_M(pair(d))
        want = _M_finite(da.coupling, db.coupling, 1.0, 1.0 + d, 1.0)
        assert got.note == "finite-part"
        assert abs(got.value - want) <= 1e-8 * abs(want), (d, got.value, want)
    rep = harvest(pair(0.1))
    assert rep.elements.M.note == "finite-part"
    assert rep.negativity < 1e-5


@pytest.mark.parametrize("da,db", CO_LOCATED[1:], ids=CO_LOCATED_IDS[1:])
def test_co_located_M_finite_part_and_pole_match_the_regulated_M(da, db):
    # the regulated M at eps is finite + pole/eps + O(eps), as for N
    sc = HarvestScenario(detectors=(da, db))
    M = compute_M(sc)
    assert M.note == "finite-part"
    gaps = [abs(M.value + M.pole / eps - compute_M(_sequence(sc, (eps,))).value)
            for eps in (0.004, 0.002, 0.001)]
    assert all(g2 * 1.5 <= g1 for g1, g2 in zip(gaps, gaps[1:])), gaps


def test_poles_are_the_gaussian_fourier_transforms_of_the_windows():
    """The 1/eps poles of N and of a co-located M in closed form, for Gaussian windows.

    At sep = 0 the kernel is W = -P/(u - i eps)^2, P = 1/(4 pi^2), and
    int_0^U du/(u - i eps)^2 = 1/(-i eps) - 1/(U - i eps) = i/eps + O(1).
    An ordered integral over t' < t is int du dw/2 over u >= 0, so its pole
    coefficient is -i P int dw/2 F(w/2), with F the leg product on the line
    u = 0, where t = t' = w/2.  With windows chi(t) = e^{-t^2/2 sigma^2}:

    * N = -sqrt(2) g^2 I[chi(t) e^{i omega t} chi(t') e^{i omega t'} W].
      On the line F = e^{-w^2/4 sigma^2} e^{i omega w}, and int dw/2 F =
      sigma sqrt(pi) e^{-(omega sigma)^2}, so

          N.pole = i sqrt(2) g^2 P sigma sqrt(pi) e^{-(omega sigma)^2}.

    * M = -g_A g_B I[(leg_A(t) leg_B(t') + leg_B(t) leg_A(t')) W].
      On the line both orderings give chi_A chi_B e^{i (omega_A + omega_B) t},
      so F = 2 e^{-a w^2} e^{i b w}, with a = 1/8 sigma_A^2 + 1/8 sigma_B^2
      and b = (omega_A + omega_B)/2, and

          M.pole = i g_A g_B P sqrt(pi/a) e^{-b^2/4a}.

    Under the conformal-time regulator the dual N has the flat N's pole.
    The windows' truncation at 8 sigma moves either pole by e^-64 at most.
    """
    P = 1.0 / (4.0 * math.pi**2)
    # omega sigma = 0.5, 1, 1.5 and 3
    for freq, sigma in ((0.5, 1.0), (1.0, 1.0), (2.0, 0.75), (1.5, 2.0)):
        flat = _scenario(freq=freq, chi=gaussian_switching(sigma))
        cs = flat.detectors[0].coupling
        want = (1j * math.sqrt(2.0) * cs * cs * P * sigma * math.sqrt(math.pi)
                * math.exp(-(freq * sigma) ** 2))
        for sc in (flat, dualize(flat, 0.5), dualize(flat, 2.0)):
            N = compute_N(sc.detectors[0], sc)
            assert abs(N.pole - want) <= 1e-9 * abs(want), (freq, sigma, sc.frame, N.pole, want)
    # the mirrored pair and the co-located pairs with Gaussian windows
    mirrored = (_detector("A", (0.0, 0.0, 0.0)), _detector("B", (0.0, 0.0, 0.0)))
    for pair in (mirrored, *CO_LOCATED[:2]):
        for scale in (0.5, 1.0, 2.0, 3.0):
            da, db = (replace(d, frequency=scale * d.frequency) for d in pair)
            sa, sb = (d.switching.param("sigma") for d in (da, db))
            a = 1.0 / (8.0 * sa * sa) + 1.0 / (8.0 * sb * sb)
            b = 0.5 * (da.frequency + db.frequency)
            line = math.sqrt(math.pi / a) * math.exp(-b * b / (4.0 * a))
            want = 1j * da.coupling * db.coupling * P * line
            M = compute_M(HarvestScenario(detectors=(da, db)))
            assert M.note == "finite-part"
            assert abs(M.pole - want) <= 1e-9 * abs(want), (da.frequency, db.frequency, sb, M.pole, want)


def _N_finite(g, freq, sigma):
    """The finite part of N for a Gaussian window (test_finite_parts_are_the_gaussian_closed_forms)."""
    return -math.sqrt(2.0) * g * g * math.exp(-(freq * sigma) ** 2) / (8.0 * math.pi)


def _M_finite(g_a, g_b, freq_a, freq_b, sigma):
    """The finite part of a co-located M for one Gaussian window (see _N_finite)."""
    total, delta = freq_a + freq_b, freq_a - freq_b
    return (-(g_a * g_b / (4.0 * math.pi**2)) * math.exp(-((sigma * total) ** 2) / 4.0)
            * (math.pi * math.exp(-((sigma * delta) ** 2) / 4.0)
               + 0.5 * math.pi**1.5 * sigma * delta * math.erf(0.5 * sigma * delta)))


def test_finite_parts_are_the_gaussian_closed_forms():
    """The finite parts of N and of a co-located M in closed form, for Gaussian windows.

    With windows e^{-t^2/2 sigma^2}, couplings g and gaps omega_A, omega_B
    (Sigma = omega_A + omega_B, Delta = omega_A - omega_B), and dt dt' =
    du dw/2, the leg product of an ordered element at sep = 0 is a
    Gaussian in w times f(u): e^{-(u^2 + w^2)/4 sigma^2} e^{i Sigma w/2},
    with f = e^{-u^2/4 sigma^2} for N (Sigma = 2 omega) and f = 2
    e^{-u^2/4 sigma^2} cos(Delta u/2) for M (both orderings).  The w
    integral is 2 sigma sqrt(pi) e^{-(sigma Sigma)^2/4}.  The kernel is -P/(u
    - i eps)^2, P = 1/(4 pi^2), and by parts int_0^inf f/(u - i eps)^2 du =
    i f(0)/eps + int_0^inf f'(u)/u du + O(eps): the finite part is the
    integral of f'/u (f'(0) = 0, so there is no i pi term).  For N it is
    -sqrt(pi)/(2 sigma), so

        N_fp = -sqrt(2) g^2 e^{-(omega sigma)^2} / (8 pi).

    For M, int_0^inf e^{-u^2/4 sigma^2} cos(Delta u/2) du = sigma sqrt(pi)
    e^{-(sigma Delta)^2/4} and int_0^inf e^{-u^2/4 sigma^2} sin(Delta
    u/2)/u du = (pi/2) erf(sigma Delta/2), so

        M_fp = -(g_A g_B / 4 pi^2) e^{-(sigma Sigma)^2/4}
               [pi e^{-(sigma Delta)^2/4} + (pi^{3/2} sigma Delta/2) erf(sigma Delta/2)].

    Under the conformal-time regulator the dual finite parts are the flat
    ones.  At omega sigma = 3 and Omega = 0.5 the finite part is e^-9 of
    the integrand, and the tolerance sits at the rounding floor, so that
    point is left out.
    """
    # omega sigma = 0.5, 1, 1.5, 2 and 3
    for freq, sigma in ((0.5, 1.0), (1.0, 1.0), (2.0, 0.75), (2.0, 1.0), (1.5, 2.0)):
        flat = _scenario(L=0.0, freq=freq, chi=gaussian_switching(sigma))
        c = flat.detectors[0].coupling
        want_N, want_M = _N_finite(c, freq, sigma), _M_finite(c, c, freq, freq, sigma)
        sides = (0.5, 1.3, 2.0, 3.0) if freq * sigma < 3.0 else (1.3, 2.0, 3.0)
        for sc in (flat, *(dualize(flat, Omega) for Omega in sides)):
            N, M = compute_N(sc.detectors[0], sc), compute_M(sc)
            assert N.note == M.note == "finite-part"
            assert abs(N.value - want_N) <= 1e-8 * abs(want_N), (freq, sigma, sc.frame, N.value)
            assert abs(M.value - want_M) <= 1e-8 * abs(want_M), (freq, sigma, sc.frame, M.value)
    # co-located detectors with different gaps, on the flat side
    for freq_a, freq_b in ((1.0, 1.1), (1.0, 1.5), (1.0, 2.0), (0.5, 3.0)):
        chi = gaussian_switching(0.5)
        da = _detector("A", (0.0, 0.0, 0.0), freq=freq_a, chi=chi)
        db = _detector("B", (0.0, 0.0, 0.0), freq=freq_b, chi=chi)
        M = compute_M(HarvestScenario(detectors=(da, db)))
        want = _M_finite(da.coupling, db.coupling, freq_a, freq_b, 0.5)
        assert M.note == "finite-part"
        assert abs(M.value - want) <= 1e-8 * abs(want), (freq_a, freq_b, M.value, want)


def test_no_pipeline_call_integrates_more_than_one_regulator_level(monkeypatch):
    # every element takes the eps -> 0 limit in closed form, with or without
    # a sequence of more than one level; no pipeline call extrapolates
    def refuse(results):
        raise AssertionError("a pipeline call extrapolated a regulator sweep")

    monkeypatch.setattr(quadrature, "extrapolate_epsilon", refuse)
    a = _detector("A", (0.0, 0.0, 0.0))
    pairs = {
        "mirrored": (a, _detector("B", (0.0, 0.0, 0.0))),
        "separated": (a, _detector("B", (5.0, 0.0, 0.0), chi=gaussian_switching(1.25))),
        "gap": CO_LOCATED[0],
        "sigma": CO_LOCATED[1],
    }
    m = ConformalTakagiMap(1.0, 0.5)
    for quad in (QuadratureConfig(), QuadratureConfig(epsilon_sequence=(0.01, 0.005))):
        for name, (da, db) in pairs.items():
            flat = HarvestScenario(detectors=(da, db), quadrature=quad)
            frw = HarvestScenario(detectors=(da, db), map=m, quadrature=quad)
            for rep in (harvest(flat), harvest(frw)):
                assert rep.elements.M.note in ("closed-form", "finite-part"), name
                assert rep.elements.L_AB.note == "closed-form", name
            if da.frequency == db.frequency:  # dualize needs one gap
                rep = run_dual_check(flat, 2.0)
                assert rep.resid_max <= 1e-3, (name, rep.residuals)


# --- the eps -> 0 limit on the curved dual side ------------------------------------

# (flat scenario, Omega): criterion 7's pair across Omega, a narrow window whose
# pole x = 5 lies near the end of its x range (5.6), and the power law
DUAL_LIMIT_CASES = [
    *((_scenario(), Omega) for Omega in (0.5, 1.3, 2.0, 3.0)),
    (_scenario(chi=gaussian_switching(0.35)), 2.0),
    (_scenario(L=0.5, chi=gaussian_switching(0.15)), 0.0),
]


@pytest.mark.parametrize("flat,Omega", DUAL_LIMIT_CASES)
def test_dual_limit_matches_the_flat_side(flat, Omega):
    # the dual elements take the limit in the conformal-time difference, on
    # their own legs and times; the duality makes them the flat numbers
    dual = dualize(flat, Omega)
    fa, da = flat.detectors[0], dual.detectors[0]
    for got, want in ((compute_L(da, da, dual), compute_L(fa, fa, flat)),
                      (compute_M(dual), compute_M(flat))):
        assert got.note == want.note == "closed-form"
        assert abs(got.value - want.value) <= 1e-8 * abs(want.value), (got.value, want.value)


@pytest.mark.parametrize("Omega", [0.5, 1.3, 2.0])
def test_dual_N_finite_part_and_pole_match_the_flat_N(Omega):
    # under the conformal-time regulator the finite parts are one quantity
    flat = _scenario()
    dual = dualize(flat, Omega)
    got, want = compute_N(dual.detectors[0], dual), compute_N(flat.detectors[0], flat)
    assert got.note == want.note == "finite-part"
    assert abs(got.value - want.value) <= 1e-8 * abs(want.value)
    assert abs(got.pole - want.pole) <= 1e-8 * abs(want.pole)


@pytest.mark.parametrize("L", [0.5, 5.0, 0.0])
def test_dual_L_AB_of_a_pair_that_does_not_mirror_matches_the_flat_side(L):
    # unfolded, it has two poles x = -L and x = +L, each on a mesh line of
    # its (x, w) rectangle.  At L = 0 the delta' term takes the transported
    # windows' derivatives
    da, db = _scenario(L=L).detectors
    for chi_b in (gaussian_switching(1.25), gaussian_switching(1.0, center=0.5)):
        flat = HarvestScenario(detectors=(da, replace(db, switching=chi_b)))
        want = compute_L(*flat.detectors, flat)
        for Omega in (0.5, 2.0):
            dual = dualize(flat, Omega)
            got = compute_L(*dual.detectors, dual)
            assert got.note == "closed-form"
            assert abs(got.value - want.value) <= 1e-6 * abs(want.value), (chi_b, Omega)


@pytest.mark.parametrize("chi", [gaussian_switching(0.5), cos_squared_switching(-1.0, 1.0)])
def test_frw_ground_state_limit_agrees_with_the_regulated_sweep(chi):
    # a ground state on the dual background has no flat counterpart; its
    # delta' term turns with the phase rate Omega C per unit conformal time
    m = ConformalTakagiMap(1.0, 0.5)
    da, db = (
        DetectorSpec(label, "oscillator", 1.3, 0.01, StaticTrajectory((x, 0.0, 0.0)), chi)
        for label, x in (("A", 0.0), ("B", 1.0))
    )
    sc = HarvestScenario(detectors=(da, db), map=m)
    cases = [
        (compute_L(da, da, sc), _swept(sc, da, da, False, 1.0)),
        (compute_M(sc), _swept(sc, da, db, True, -1.0)),
        (compute_L(da, db, sc), _swept(sc, da, db, False, 1.0)),
    ]
    for got, want in cases:
        assert got.note == "closed-form"
        assert abs(got.value - want) <= 1e-6 * abs(want), (got.value, want)
    N = compute_N(da, sc)
    gaps = [abs(N.value + N.pole / eps - compute_N(da, _sequence(sc, (eps,))).value)
            for eps in (0.02, 0.01, 0.005)]
    assert all(g2 * 1.5 <= g1 for g1, g2 in zip(gaps, gaps[1:])), gaps


def test_frw_ground_state_co_located_pair_agrees_with_the_regulated_sweep():
    # a dual ground state at L = 0, B with another gap or a window of its
    # own; its delta' term turns with the frequencies per unit proper time
    m = ConformalTakagiMap(1.0, 0.5)
    chi = gaussian_switching(0.5)

    def det(label, freq, window):
        return DetectorSpec(label, "oscillator", freq, 0.01,
                            StaticTrajectory((0.0, 0.0, 0.0)), window)

    da = det("A", 1.3, chi)
    for db in (det("B", 1.6, chi), det("B", 1.3, gaussian_switching(0.6)),
               det("B", 1.3, transform_switching(m, gaussian_switching(0.5)))):
        sc = HarvestScenario(detectors=(da, db), map=m)
        got, want = compute_L(da, db, sc), _swept(sc, da, db, False, 1.0)
        assert got.note == "closed-form"
        assert abs(got.value - want) <= 1e-6 * abs(want), (db.switching, got.value, want)


# --- every separated element converges as rel_tol tightens --------------------------

COS2 = cos_squared_switching(-0.5, 0.5)
CONVERGENCE_WINDOWS = {
    "gauss": (GAUSS, GAUSS),
    "cos2": (COS2, COS2),
    "cos2-unequal": (COS2, cos_squared_switching(0.0, 1.0)),
    "sigma": (GAUSS, gaussian_switching(1.25)),
    "centre": (GAUSS, gaussian_switching(1.0, center=0.5)),
}
SIDES = (None, 0.5, 1.3, 2.0, 3.0)  # flat, and dual at each Omega

# (windows, L, sides): the light cone crosses the cos^2 supports below L = 1
# and meets the corner of their diamond near L = 1; at L = 0 the detectors
# are co-located
CONVERGENCE_ROWS = [
    *(("gauss", L, SIDES) for L in (0.5, 2.0)),
    *(("cos2", L, SIDES) for L in (0.6, 0.999, 1.001, 1.2, 2.0)),
    ("cos2-unequal", 0.6, (None, 0.5)),
    ("cos2-unequal", 2.0, (3.0,)),
    *((windows, 0.0, SIDES) for windows in ("gauss", "cos2", "sigma", "centre")),
    ("cos2-unequal", 0.0, (None, 0.5)),
]

# rel_tol = 1e-11 with no absolute floor; (windows, L, sides, elements)
TIGHT = QuadratureConfig(rel_tol=1e-11, abs_tol=0.0, max_subdivisions=2000)
TIGHT_ROWS = [
    ("gauss", 2.0, SIDES, ("M", "L_AB")),
    *(("cos2", L, SIDES, ("M", "L_AB")) for L in (0.6, 0.999, 1.001, 1.2)),
    ("cos2-unequal", 0.6, (0.5,), ("M",)),
    ("gauss", 0.0, SIDES, ("L_AA", "N")),
    ("cos2", 0.0, SIDES, ("L_AA", "N")),
]


def _pair(windows, L, Omega, quad):
    """Criterion 7's oscillators on the windows at L, flat (Omega None) or dualized."""
    chi_a, chi_b = CONVERGENCE_WINDOWS[windows]
    flat = HarvestScenario(detectors=(_detector("A", (0.0, 0.0, 0.0), chi=chi_a),
                                      _detector("B", (L, 0.0, 0.0), chi=chi_b)), quadrature=quad)
    return flat if Omega is None else dualize(flat, Omega)


def _elements_of(sc):
    """M and L_AB of a separated pair; L_AA, N, M, and L_AB unless the detectors mirror, at L = 0."""
    da, db = sc.detectors
    runs = {"M": lambda: compute_M(sc), "L_AB": lambda: compute_L(da, db, sc)}
    if separation(da.trajectory, db.trajectory) > 0.0:
        return runs
    if harvesting._mirrors(da, db):
        del runs["L_AB"]
    return {"L_AA": lambda: compute_L(da, da, sc), "N": lambda: compute_N(da, sc), **runs}


@pytest.mark.parametrize("windows,L,sides", CONVERGENCE_ROWS,
                         ids=[f"{w}-L{L}" for w, L, _ in CONVERGENCE_ROWS])
def test_every_separated_element_converges_as_rel_tol_tightens(windows, L, sides):
    # no oracle: the values at rel_tol 1e-6 and 1e-9 lie within the sum of
    # the errors they report, on either side, for every window and chart,
    # and co-located finite parts keep their pole
    for Omega in sides:
        loose, tight = (_elements_of(_pair(windows, L, Omega, QuadratureConfig(rel_tol=tol)))
                        for tol in (1e-6, 1e-9))
        for name in loose:
            v6, v9 = loose[name](), tight[name]()
            assert abs(v6.value - v9.value) <= v6.err_estimate + v9.err_estimate, (Omega, name, v6, v9)
            if v9.pole is not None:
                assert abs(v6.pole - v9.pole) <= 1e-6 * abs(v9.pole), (Omega, name, v6, v9)


@pytest.mark.parametrize("windows,L,sides,elements", TIGHT_ROWS,
                         ids=[f"{w}-L{L}" for w, L, _, _ in TIGHT_ROWS])
def test_a_tight_tolerance_keeps_every_kernel_finite(windows, L, sides, elements):
    # at L = 0.6 the light cone crosses the windows' diamond, near L = 1 it
    # cuts a sliver off it, at L = 0 the pole is the line x = 0; a kernel
    # that met a non-finite value would raise NumericalHardError.  Each
    # element is one adaptive run over the pieces of its x range, so it
    # meets the tolerance within its budget
    for Omega in sides:
        runs = _elements_of(_pair(windows, L, Omega, TIGHT))
        for name in elements:
            res = runs[name]()
            assert math.isfinite(abs(res.value)) and math.isfinite(res.err_estimate), (Omega, name)
            assert not res.budget_exhausted, (Omega, name, res)
            assert res.err_estimate <= TIGHT.rel_tol * abs(res.value), (Omega, name, res)


@pytest.mark.parametrize("L", [3.796, 4.744])
def test_cancelling_pieces_meet_the_default_tolerance(L):
    # the benchmark's corner pair: L_AB's two pieces, split at its light
    # cone, are hundreds of times the element and cancel; one run over
    # both stops at rel_tol of their sum, so every element meets it
    flat = HarvestScenario(
        detectors=(_detector("A", (0.0, 0.0, 0.0), freq=2.0),
                   _detector("B", (L, 0.0, 0.0), freq=2.0, chi=gaussian_switching(1.6))),
        quadrature=QuadratureConfig(max_subdivisions=2000))
    elements = compute_elements(flat)
    for name in ("L_AA", "L_BB", "M", "L_AB", "N_A", "N_B"):
        res = getattr(elements, name)
        assert not res.budget_exhausted, (name, res)
        assert res.err_estimate <= flat.quadrature.rel_tol * abs(res.value), (name, res)


def test_a_sliver_piece_does_not_spend_the_budget():
    # at L = 0.999 the light cone cuts a sliver off the cos^2 diamond, a
    # piece whose own value is far below the element's; the element meets
    # its tolerance in a few cells, under the default budget of 40,000 splits
    sc = _pair("cos2", 0.999, None, QuadratureConfig(rel_tol=1e-11, abs_tol=0.0))
    runs = _elements_of(sc)
    for name in ("M", "L_AB"):
        res = runs[name]()
        assert not res.budget_exhausted and res.cells <= 50, (name, res)
        assert res.err_estimate <= sc.quadrature.rel_tol * abs(res.value), (name, res)


# --- time reversal: windows even about t = 0 fold onto half their domain ----------

SHIFT = 0.37  # a time translation that leaves no window even about t = 0

# (windows, frequencies of A and B): two pairs that mirror, and one whose
# windows and gaps both differ
FOLD_PAIRS = {
    "gauss": ((GAUSS, GAUSS), (1.0, 1.0)),
    "cos2": ((COS2, COS2), (1.0, 1.0)),
    "sigma": ((GAUSS, gaussian_switching(1.3)), (1.0, 1.4)),
}


def _shifted(chi, T):
    """chi translated by T in time: chi(t - T)."""
    if chi.kind == "gaussian":
        return gaussian_switching(chi.param("sigma"), center=chi.param("center") + T)
    return cos_squared_switching(chi.param("t0") + T, chi.param("t1") + T)


def _fold_pair(name, L, T=0.0, eps=None):
    (chi_a, chi_b), (fa, fb) = FOLD_PAIRS[name]
    return HarvestScenario(detectors=(
        _detector("A", (0.0, 0.0, 0.0), freq=fa, chi=_shifted(chi_a, T)),
        _detector("B", (L, 0.0, 0.0), freq=fb, chi=_shifted(chi_b, T))),
        quadrature=QuadratureConfig(epsilon_sequence=eps))


@pytest.mark.parametrize("eps", [None, (0.05,)], ids=["limit", "eps"])
@pytest.mark.parametrize("L", [0.0, 0.6, 2.0, 5.0])
@pytest.mark.parametrize("name", list(FOLD_PAIRS))
def test_a_time_translated_pair_agrees_with_the_folded_one(name, L, eps):
    # the folded elements come from half their domain and the symmetry; the
    # translated pair's windows are not even, so it integrates the whole
    # domain.  A translation by T multiplies each element by the phase its
    # two modes gain: e^{i (fA - fB) T} for L_AB, e^{i (fA + fB) T} for M
    # and e^{2 i f T} for N, and leaves L_AA and L_BB as they are; in the
    # limit and at a finite eps alike
    folded = compute_elements(_fold_pair(name, L, eps=eps))
    shifted = compute_elements(_fold_pair(name, L, SHIFT, eps))
    fa, fb = FOLD_PAIRS[name][1]
    phases = {"L_AA": 0.0, "L_BB": 0.0, "L_AB": fa - fb, "M": fa + fb,
              "N_A": 2.0 * fa, "N_B": 2.0 * fb}
    for element, rate in phases.items():
        a, b = getattr(folded, element), getattr(shifted, element)
        want = a.value * complex(math.cos(rate * SHIFT), math.sin(rate * SHIFT))
        assert abs(b.value - want) <= a.err_estimate + b.err_estimate, (element, a, b)
        assert not (a.budget_exhausted or b.budget_exhausted), element


@pytest.mark.parametrize("windows", ["gauss", "cos2", "sigma"])
def test_even_windows_give_exact_zeros(windows):
    # by time reversal N's pole is imaginary and its finite part real, and
    # a separated L_AB is real, whether the detectors mirror or not: each
    # folded integrand is real, so the values are exactly 0.0, not rounding
    # noise, flat and dual alike
    for Omega in (None, 0.5, 2.0):
        sc = _pair(windows, 2.0, Omega, QuadratureConfig())
        da, db = sc.detectors
        N, L_AB = compute_N(da, sc), compute_L(da, db, sc)
        assert N.pole.real == 0.0 and N.value.imag == 0.0 and L_AB.value.imag == 0.0, sc.frame
        assert N.pole.imag != 0.0 and N.value.real != 0.0 and L_AB.value.real != 0.0
