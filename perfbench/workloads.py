"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is a list of CLI invocations whose INI files are drawn from the
seed.  Draws are stratified: every run holds the same mix of easy and hard
inputs and the seed only moves each input within its stratum, so the work in
a run, and with it the timing, depends little on which seed is used.

Every invocation carries what its output is checked against: the frequency
or Omega list it asked for, and the Fourier mode-sum oracle
``quadrature.fourier_oracle_L`` for the response elements ``L``, which the
benchmark evaluates itself, untimed, in its own process.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import warnings
from dataclasses import dataclass, field

ORACLE_TOL = 1e-3     # criterion 6: direct vs mode-sum relative error
RESID_TOL = 1e-3      # criterion 7: flat vs cosmological relative residual

COUPLING = 0.01


@dataclass(frozen=True)
class Detector:
    """One detector of a generated scenario, as written to the INI file."""

    label: str
    model: str
    frequency: float
    x: float
    switching: tuple  # ("gaussian", sigma) or ("cos_squared", t0, t1)


@dataclass(frozen=True)
class Invocation:
    """One ``takagi-harvest`` call: subcommand, INI text and what to check."""

    name: str
    command: str
    ini: str
    threads: int
    out_ext: str
    detectors: tuple[Detector, Detector]
    scan: tuple = ()
    omegas_dual: tuple = ()
    expected_rows: int = 1

    def argv(self, config_path: str, out_path: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_path,
                "--threads", str(self.threads)]


def _ini(detectors, extra: str = "") -> str:
    parts = []
    for d in detectors:
        parts.append(
            f"[detectors.{d.label}]\nmodel = {d.model}\nfrequency = {d.frequency!r}\n"
            f"coupling = {COUPLING!r}\nposition = {d.x!r}, 0.0, 0.0\n"
        )
        sw = d.switching
        if sw[0] == "gaussian":
            parts.append(f"[detectors.{d.label}.switching]\nkind = gaussian\nsigma = {sw[1]!r}\n")
        else:
            parts.append(
                f"[detectors.{d.label}.switching]\nkind = cos_squared\n"
                f"t0 = {sw[1]!r}\nt1 = {sw[2]!r}\n"
            )
    return "\n".join(parts) + extra


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def flat_harvest(seed: int) -> list[Invocation]:
    """Six flat oscillator pairs with Gaussian windows, sigma_A = 1.

    Five pairs are a Latin-hypercube draw over omega in [0.5, 1.5], L in
    [3, 6] and sigma_B in [1.2, 1.5].  The sixth is the corner omega = 2,
    sigma_B = 1.6, with L drawn from [3, 6], where the finest-regulator L_BB
    integrals exhaust their subdivision budget.  With the default budget of
    40,000 splits its finest L_BB integral takes 80,001 cells and the pair
    most of a run, though the value already matches the oracle to 2e-6 at
    4,001 cells; so it runs with max_subdivisions = 2000 and exhausts it on
    two levels.  Beyond omega * sigma_B of about 2.4 the exhaustion comes and
    goes erratically from pair to pair (none at omega 1.8, sigma_B 1.5; two
    levels at omega 1.99, sigma_B 1.48), so the drawn pairs stay where it
    never occurs and the corner is fixed: every run holds the same
    exhaustions.
    """
    rng = _rng("flat_harvest", seed)
    omegas = _strata(rng, 5, 0.5, 1.5) + [2.0]
    seps = _strata(rng, 5, 3.0, 6.0) + [3.0 + 3.0 * rng.random()]
    sigmas = _strata(rng, 5, 1.2, 1.5) + [1.6]
    out = []
    for i, (w, sep, sig) in enumerate(zip(omegas, seps, sigmas)):
        dets = (
            Detector("A", "oscillator", w, 0.0, ("gaussian", 1.0)),
            Detector("B", "oscillator", w, sep, ("gaussian", sig)),
        )
        extra = "\n[quadrature]\nmax_subdivisions = 2000\n" if i == 5 else ""
        out.append(Invocation(f"pair{i}", "harvest", _ini(dets, extra), 1, "json", dets))
    return out


def dual_check(seed: int) -> list[Invocation]:
    """Criterion 7's pair (sigma = 1, L = 5, omega = 1) dualized at one Omega.

    Omega is drawn from [1.28, 1.32].  Across [0.5, 3] the cost of one row
    changes fourfold (about 15,600 cells at Omega = 0.8 and 1.25, 36,700 at
    2, 61,000 at 3), so one seeded Omega from the whole range would make
    runs incomparable, and a row near 2 takes 17 to 25 s, one sample per
    run.  In the band the cell count moves by about 3%, and the FRW side
    still holds three quarters of the cells.
    """
    rng = _rng("dual_check", seed)
    Omega = 1.28 + 0.04 * rng.random()
    dets = (
        Detector("A", "oscillator", 1.0, 0.0, ("gaussian", 1.0)),
        Detector("B", "oscillator", 1.0, 5.0, ("gaussian", 1.0)),
    )
    ini = _ini(dets, f"\n[dualize]\nOmega_list = {Omega!r}\n")
    return [Invocation("dual", "dualize", ini, 1, "csv", dets, omegas_dual=(Omega,))]


def window_scan(seed: int) -> list[Invocation]:
    """Criterion 10's qubit pair (cos^2 on (-1/2, 1/2), L = 2), 16-point scan.

    One frequency from each sixteenth of [0.5, 8], in increasing order.
    """
    rng = _rng("window_scan", seed)
    freqs = tuple(0.5 + 7.5 * (k + rng.random()) / 16 for k in range(16))
    dets = (
        Detector("A", "qubit", freqs[0], 0.0, ("cos_squared", -0.5, 0.5)),
        Detector("B", "qubit", freqs[0], 2.0, ("cos_squared", -0.5, 0.5)),
    )
    scan = ", ".join(repr(f) for f in freqs)
    ini = _ini(dets, f"\n[scan]\nomega = {scan}\n")
    return [Invocation("scan", "harvest", ini, 2, "csv", dets, scan=freqs, expected_rows=16)]


WORKLOADS = {
    "flat_harvest": flat_harvest,
    "dual_check": dual_check,
    "window_scan": window_scan,
}


# ---------------------------------------------------------------------------
# references


class Oracle:
    """Fourier mode-sum values of L for one invocation's detectors.

    Built from the package's public constructors and evaluated in the
    benchmark process, never inside a timed or traced invocation.
    """

    def __init__(self):
        import takagi_harvest

        self._th = takagi_harvest
        self.package_file = os.path.realpath(takagi_harvest.__file__)
        self._cfg = takagi_harvest.QuadratureConfig()

    def _spec(self, d: Detector, frequency: float):
        th = self._th
        if d.switching[0] == "gaussian":
            chi = th.gaussian_switching(d.switching[1])
        else:
            chi = th.cos_squared_switching(d.switching[1], d.switching[2])
        return th.DetectorSpec(d.label, d.model, frequency, COUPLING,
                               th.StaticTrajectory((d.x, 0.0, 0.0)), chi)

    def L(self, da: Detector, db: Detector, frequency: float) -> complex:
        a = self._spec(da, frequency)
        b = self._spec(db, frequency)
        # fourier_envelope of cos^2 overflows harmlessly far in its tail
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = self._th.fourier_oracle_L(a, b, abs(db.x - da.x), self._cfg)
        return complex(res.value)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


@dataclass
class RowCheck:
    """Outcome of checking one output file: per-row pass flags and accuracy."""

    rows_ok: list = field(default_factory=list)
    oracle_rel_err: float = 0.0
    resid_max: float = 0.0
    problems: list = field(default_factory=list)

    def row(self, ok: bool, why: str):
        self.rows_ok.append(ok)
        if not ok:
            self.problems.append(why)


def reference(inv: Invocation, oracle: Oracle) -> list[dict]:
    """Oracle values of L_AA, L_BB and |L_AB| for each expected output row."""
    da, db = inv.detectors
    freqs = inv.scan or (da.frequency,)
    refs = []
    for w in freqs:
        ref = {"L_AA": oracle.L(da, da, w).real, "L_BB": oracle.L(db, db, w).real}
        if inv.command == "harvest":
            ref["abs_L_AB"] = abs(oracle.L(da, db, w))
        refs.append(ref)
    return refs


def check_output(inv: Invocation, text: str, refs: list[dict]) -> RowCheck:
    """Check one output file of inv against the references; never raises."""
    chk = RowCheck()
    try:
        if inv.command == "harvest" and not inv.scan:
            _check_single(text, refs[0], chk)
        elif inv.command == "harvest":
            _check_scan(inv, text, refs, chk)
        else:
            _check_dual(inv, text, refs[0], chk)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        chk.problems.append(f"unreadable output: {exc!r}")
    short = inv.expected_rows - len(chk.rows_ok)
    for _ in range(max(short, 0)):
        chk.row(False, "row missing")
    return chk


def _check_single(text, ref, chk):
    rep = json.loads(text)
    el = rep["elements"]
    values = [rep["E1"], rep["negativity"], rep["negativity_pt_exact"]]
    for name in ("L_AA", "L_BB", "L_AB", "M", "N_A", "N_B"):
        values += [el[name]["re"], el[name]["im"], el[name]["err"]]
    got = {
        "L_AA": el["L_AA"]["re"],
        "L_BB": el["L_BB"]["re"],
        "abs_L_AB": abs(complex(el["L_AB"]["re"], el["L_AB"]["im"])),
    }
    _check_row(values, got, ref, None, chk)


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _check_scan(inv, text, refs, chk):
    rows = _csv_rows(text)
    if len(rows) != len(inv.scan):
        chk.problems.append(f"{len(rows)} rows for a {len(inv.scan)}-point scan")
    for row, w, ref in zip(rows, inv.scan, refs):
        vals = {k: float(v) for k, v in row.items()}
        if vals["omega"] != w:
            chk.row(False, f"row for omega {vals['omega']!r} where {w!r} was asked")
            continue
        _check_row(list(vals.values()), vals, ref, None, chk)


def _check_dual(inv, text, ref, chk):
    rows = _csv_rows(text)
    if len(rows) != len(inv.omegas_dual):
        chk.problems.append(f"{len(rows)} rows for {len(inv.omegas_dual)} Omega values")
    for row, Om in zip(rows, inv.omegas_dual):
        vals = {k: float(v) for k, v in row.items()}
        if vals["Omega"] != Om:
            chk.row(False, f"row for Omega {vals['Omega']!r} where {Om!r} was asked")
            continue
        got = {k: vals[k] for k in ("L_AA_flat", "L_AA_frw", "L_BB_flat", "L_BB_frw")}
        dual_ref = {
            "L_AA_flat": ref["L_AA"], "L_AA_frw": ref["L_AA"],
            "L_BB_flat": ref["L_BB"], "L_BB_frw": ref["L_BB"],
        }
        _check_row(list(vals.values()), got, dual_ref, vals["resid_max"], chk)


def _check_row(values, got, ref, resid, chk):
    if not all(math.isfinite(v) for v in values):
        chk.row(False, "non-finite value")
        return
    err = max(_rel(got[k], ref[k]) for k in ref)
    chk.oracle_rel_err = max(chk.oracle_rel_err, err)
    if resid is not None:
        chk.resid_max = max(chk.resid_max, resid)
    if err > ORACLE_TOL:
        chk.row(False, f"oracle relative error {err:.3e} > {ORACLE_TOL}")
    elif resid is not None and resid > RESID_TOL:
        chk.row(False, f"resid_max {resid:.3e} > {RESID_TOL}")
    else:
        chk.row(True, "")
