"""Command-line front end: INI-driven runs emitting plot-ready CSV/JSON.

Four subcommands cover the library surface: ``check-takagi`` runs the
symplectic identity suite, ``harvest`` evaluates one scenario (or a frequency
scan), ``dualize`` pairs a flat scenario with its cosmological dual per
requested Omega, and ``geometry-tables`` dumps dense clock-map and scale
factor grids.  A sweep (a frequency scan or a dualize Omega list) runs its
rows in input order on the calling thread.  JSON reports are written by
json.dumps and CSV floats by repr, so every float is the shortest text that
reads back to the same double, and a nan or inf anywhere is a numerical hard
error (exit 3) before any file is written.  Every reduction order is fixed,
so identical configs produce byte-identical output.  --threads is accepted
for compatibility and has no effect.

Exit codes: 0 success, 1 check failure, 2 config error, 3 numerical hard
error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import re
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .gaussian import SUITE_THRESHOLDS, run_identity_suite
from .geometry import (
    ConformalTakagiMap,
    StaticTrajectory,
    cos_squared_switching,
    gaussian_switching,
)
from .harvesting import DetectorSpec, HarvestScenario, dualize, harvest, run_dual_check
from .quadrature import NumericalHardError, QuadratureConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SPEC_VERSION = 1


class ConfigError(ValueError):
    """Configuration file rejected by the schema."""


def _real(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _positive(raw):
    value = _real(raw)
    if value <= 0.0:
        raise ValueError(f"expected a number > 0, got {raw!r}")
    return value


def _count(raw):
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {raw!r}")
    return value


def _reals(size=None, positive=False, nonnegative=False):
    def parse(raw):
        values = tuple(_real(s) for s in (part.strip() for part in raw.split(",")) if s)
        if size is not None and len(values) != size:
            raise ValueError(f"expected {size} comma-separated numbers, got {raw!r}")
        if positive and not (values and min(values) > 0.0):
            raise ValueError(f"expected one or more numbers > 0, got {raw!r}")
        if nonnegative and any(v < 0.0 for v in values):
            raise ValueError(f"expected numbers >= 0, got {raw!r}")
        return values

    return parse


def _choice(*options):
    def parse(raw):
        if raw not in options:
            raise ValueError(f"expected {' or '.join(options)}, got {raw!r}")
        return raw

    return parse


class _Key(NamedTuple):
    """How one config key is read: parser, whether required, default, and
    when it is allowed: always (None) or only while another key of its
    section has a value, given as (key, value)."""

    parse: Callable
    required: bool = False
    default: object = None
    when: tuple | None = None


_SCENARIO = ("harvest", "dualize")

# section group -> (commands that read it, its keys).  Unknown sections or
# keys are hard errors so a typo never silently falls back to a default.  A
# conditional key comes after the key its condition reads.
_SCHEMA = {
    "spacetime": (_SCENARIO, {
        "frame": _Key(_choice("minkowski", "frw"), default="minkowski"),
        "omega": _Key(_real, required=True, when=("frame", "frw")),
        "Omega": _Key(_real, required=True, when=("frame", "frw")),
    }),
    "quadrature": (_SCENARIO, {
        "rel_tol": _Key(_real, default=QuadratureConfig.rel_tol),
        "abs_tol": _Key(_real, default=QuadratureConfig.abs_tol),
        "max_subdivisions": _Key(_count, default=QuadratureConfig.max_subdivisions),
        "epsilon_sequence": _Key(_reals()),
    }),
    "detectors.<label>": (_SCENARIO, {
        "model": _Key(_choice("oscillator", "qubit"), required=True),
        "frequency": _Key(_positive, required=True),
        "coupling": _Key(_real, required=True),
        "position": _Key(_reals(size=3), required=True),
    }),
    "detectors.<label>.switching": (_SCENARIO, {
        "kind": _Key(_choice("gaussian", "cos_squared"), required=True),
        "sigma": _Key(_real, required=True, when=("kind", "gaussian")),
        "center": _Key(_real, default=0.0, when=("kind", "gaussian")),
        "t0": _Key(_real, required=True, when=("kind", "cos_squared")),
        "t1": _Key(_real, required=True, when=("kind", "cos_squared")),
    }),
    "scan": (("harvest",), {"omega": _Key(_reals(positive=True), required=True)}),
    "dualize": (("dualize",), {"Omega_list": _Key(_reals(nonnegative=True), required=True)}),
    "check": (("check-takagi",), {
        "omegas": _Key(_reals(positive=True), default=(0.5, 1.0, 2.0)),
        "Omegas": _Key(_reals(positive=True), default=(0.5, 1.0, 2.0)),
        "n_lambda": _Key(_count, default=50),
    }),
    "tables": (("geometry-tables",), {
        "omega": _Key(_real, default=1.0),
        "Omega_list": _Key(_reals(nonnegative=True), default=(0.5, 1.0, 2.0)),
        "t_min": _Key(_real, default=-5.0),
        "t_max": _Key(_real, default=5.0),
        "points": _Key(_count, default=501),
    }),
}


class _Locator:
    """Maps (section, key) back to a 1-based line number for diagnostics."""

    def __init__(self, text: str):
        self.sections = {}
        self.keys = {}
        current = None
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            header = re.match(r"\[(.+)\]", line)  # configparser's section pattern
            if header:
                current = header.group(1)
                self.sections.setdefault(current, i)
            elif current is not None and re.search("[=:]", line):
                key = re.split("[=:]", line, maxsplit=1)[0].strip()
                self.keys.setdefault((current, key), i)

    def error(self, section: str, key: str | None, message: str) -> ConfigError:
        """message located at key of section, or at the section if key is None."""
        n = self.sections.get(section) if key is None else self.keys.get((section, key))
        label = f"[{section}]" if key is None else f"[{section}] key {key!r}"
        return ConfigError(f"{label} ({f'line {n}' if n else 'line unknown'}): {message}")


def _group(section: str) -> str:
    """The _SCHEMA group of a section: [detectors.A] is a [detectors.<label>]."""
    return re.sub(r"^detectors\.[^.]*", "detectors.<label>", section)


def _read(section: str, raw: dict, loc: _Locator) -> dict:
    """The values of one section, checked against its _SCHEMA group.

    raw maps the section's keys to their text ({} for an absent section).
    Absent keys take their defaults; a key whose condition does not hold is
    left out.
    """
    keys = _SCHEMA[_group(section)][1]
    for key in raw:
        if key not in keys:
            raise loc.error(section, key, f"unknown key; expected one of {sorted(keys)}")
    values = {}
    for key, spec in keys.items():
        if spec.when is not None and values[spec.when[0]] != spec.when[1]:
            if key in raw:
                cond, need = spec.when
                raise loc.error(
                    section, key,
                    f"not a {values[cond]} parameter; only used when {cond} = {need}",
                )
            continue
        if key in raw:
            try:
                values[key] = spec.parse(raw[key])
            except ValueError as exc:
                raise loc.error(section, key, str(exc)) from None
        elif spec.required:
            raise loc.error(section, None, f"missing required key {key!r}")
        else:
            values[key] = spec.default
    return values


def _load_config(path: str | None, command: str):
    """Parse and read an INI config; returns (sections, locator, sha).

    sections maps every section of the file to its _read values.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case sensitive (omega vs Omega)
    if path is None:
        return {}, _Locator(""), hashlib.sha256(b"").hexdigest()
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    text = raw.decode("utf-8")
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    loc = _Locator(text)
    sections = {}
    for section in cp.sections():
        group = _group(section)
        if group not in _SCHEMA or command not in _SCHEMA[group][0]:
            used = ", ".join(f"[{g}]" for g, (cmds, _) in _SCHEMA.items() if command in cmds)
            raise loc.error(section, None, f"section not used by {command}; expected {used}")
        sections[section] = _read(section, dict(cp.items(section)), loc)
    return sections, loc, hashlib.sha256(raw).hexdigest()


def _section(sections, name, loc):
    """The values of section name, defaults if the file has none."""
    return sections[name] if name in sections else _read(name, {}, loc)


def _construct(loc, section, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported as a config error.

    The error points at the key its message starts with, if the section has
    that key, and otherwise at the section.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        raise loc.error(section, key if (section, key) in loc.keys else None, str(exc)) from None


_SWITCHINGS = {"gaussian": gaussian_switching, "cos_squared": cos_squared_switching}


def _build_detector(sections, label, loc):
    sec = f"detectors.{label}"
    sw_sec = f"{sec}.switching"
    if sw_sec not in sections:
        raise loc.error(sec, None, f"missing section [{sw_sec}] for detector {label!r}")
    params = dict(sections[sw_sec])
    make = _SWITCHINGS[params.pop("kind")]
    spec = dict(sections[sec])
    trajectory = StaticTrajectory(spec.pop("position"))
    switching = _construct(loc, sw_sec, make, **params)
    return _construct(
        loc, sec, DetectorSpec, label=label, trajectory=trajectory, switching=switching, **spec
    )


def _build_scenario(sections, loc):
    clock = dict(_section(sections, "spacetime", loc))
    frw = clock.pop("frame") == "frw"
    takagi_map = _construct(loc, "spacetime", ConformalTakagiMap, **clock) if frw else None
    labels = sorted(
        sec.split(".", 1)[1] for sec in sections if _group(sec) == "detectors.<label>"
    )
    if len(labels) != 2:
        raise ConfigError(
            f"expected exactly two [detectors.<label>] sections, found {len(labels)}"
        )
    return HarvestScenario(
        detectors=tuple(_build_detector(sections, lab, loc) for lab in labels),
        map=takagi_map,
        quadrature=_construct(
            loc, "quadrature", QuadratureConfig, **_section(sections, "quadrature", loc)
        ),
    )


def _fmt(x) -> str:
    """A CSV cell's float: repr, the shortest text that reads back to the
    same double, which is also how json writes a float."""
    v = float(x)
    if not math.isfinite(v):
        raise NumericalHardError(f"non-finite value in output: {v!r}")
    return repr(v)


def _json(report) -> str:
    """report as indented JSON; a nan or inf in it is a numerical hard error."""
    try:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalHardError(f"non-finite value in output: {exc}") from None


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _report_header(command: str, config_sha: str) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "command": command,
        "version": __version__,
        "config_sha256": config_sha,
    }


def _sweep(row, subject, points, columns, report, out) -> int:
    """row(subject, p) for each point p, in input order, emitted as CSV, or
    as the rows of report if out ends in .json.  subject is the scenario of
    a scan, and the dual check of a dualize sweep."""
    rows = [row(subject, p) for p in points]
    if out is not None and out.endswith(".json"):
        report["rows"] = [dict(zip(columns, r)) for r in rows]
        _emit(_json(report), out)
    else:
        _emit(_csv(columns, rows), out)
    return EXIT_OK


def _element_record(res, with_pole=False):
    """One element's JSON record, with its 1/eps pole where it has one.

    An N record always carries the pole fields, null where the pole is not
    separated (at a finite eps); a co-located M carries them too.
    """
    if res is None:
        return None
    rec = {
        "re": float(res.value.real),
        "im": float(res.value.imag),
        "err": float(res.err_estimate),
        "note": res.note,
    }
    pole = res.pole
    if with_pole or pole is not None:
        rec["pole_re"], rec["pole_im"] = (None, None) if pole is None else (pole.real, pole.imag)
    return rec


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_takagi(sections, loc, config_sha, args) -> int:
    """run the symplectic clock-map identity suite"""
    check = _section(sections, "check", loc)
    omegas, Omegas, n_lambda = check["omegas"], check["Omegas"], check["n_lambda"]
    residuals = run_identity_suite(
        omegas=omegas, Omegas=Omegas, n_lambda=n_lambda, corrupt_sign=args.corrupt_sign
    )
    all_pass = True
    lines = []
    identities = {}
    for name, resid in residuals.items():
        thr = SUITE_THRESHOLDS[name]
        ok = resid <= thr
        all_pass = all_pass and ok
        lines.append(f"{name:16s} {resid:.3e}  (threshold {thr:.1e})  {'PASS' if ok else 'FAIL'}")
        identities[name] = {"residual": float(resid), "threshold": float(thr), "pass": ok}
    print("\n".join(lines))
    if args.out is not None:
        report = _report_header("check-takagi", config_sha)
        report["grid"] = {
            "omegas": list(omegas),
            "Omegas": list(Omegas),
            "n_lambda": n_lambda,
            "corrupt_sign": args.corrupt_sign,
        }
        report["identities"] = identities
        report["all_pass"] = all_pass
        _emit(_json(report), args.out)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


_SCAN_COLUMNS = ("omega", "L_AA", "L_BB", "re_M", "im_M", "abs_L_AB", "E1", "negativity", "err_max")


def _scan_row(scenario, omega):
    detectors = tuple(replace(d, frequency=omega) for d in scenario.detectors)
    rep = harvest(replace(scenario, detectors=detectors))
    el = rep.elements
    err_max = max(
        r.err_estimate for r in (el.L_AA, el.L_BB, el.M, el.L_AB, el.N_A, el.N_B) if r is not None
    )
    return (
        omega,
        el.L_AA.value.real,
        el.L_BB.value.real,
        el.M.value.real,
        el.M.value.imag,
        abs(el.L_AB.value),
        rep.E1,
        rep.negativity,
        err_max,
    )


def cmd_harvest(sections, loc, config_sha, args) -> int:
    """evaluate one harvesting scenario or a frequency scan"""
    scenario = _build_scenario(sections, loc)
    if "scan" in sections:
        report = {**_report_header("harvest", config_sha), "scan_parameter": "frequency"}
        return _sweep(_scan_row, scenario, sections["scan"]["omega"], _SCAN_COLUMNS, report, args.out)
    rep = harvest(scenario)
    el = rep.elements
    report = _report_header("harvest", config_sha)
    report["model"] = scenario.detectors[0].model
    report["frame"] = scenario.frame
    report["initial_state"] = scenario.initial_state
    report["provenance"] = rep.provenance
    eps = rep.epsilon_sequence
    report["epsilon_sequence"] = None if eps is None else list(eps)
    report["elements"] = {
        "L_AA": _element_record(el.L_AA),
        "L_BB": _element_record(el.L_BB),
        "L_AB": _element_record(el.L_AB),
        "M": _element_record(el.M),
        "N_A": _element_record(el.N_A, with_pole=True),
        "N_B": _element_record(el.N_B, with_pole=True),
    }
    report["E1"] = float(rep.E1)
    report["negativity"] = float(rep.negativity)
    report["negativity_pt_exact"] = float(rep.negativity_pt)
    _emit(_json(report), args.out)
    return EXIT_OK


_DUALIZE_COLUMNS = (
    "omega",
    "Omega",
    "L_AA_flat",
    "L_AA_frw",
    "L_BB_flat",
    "L_BB_frw",
    "re_M_flat",
    "im_M_flat",
    "re_M_frw",
    "im_M_frw",
    "resid_max",
    "neg_flat",
    "neg_frw",
)


def _dualize_row(check, Omega):
    """The CSV row of check(Omega), the dual check at Omega."""
    rep = check(Omega)
    return (
        rep.omega,
        rep.Omega,
        rep.flat.L_AA.value.real,
        rep.frw.L_AA.value.real,
        rep.flat.L_BB.value.real,
        rep.frw.L_BB.value.real,
        rep.flat.M.value.real,
        rep.flat.M.value.imag,
        rep.frw.M.value.real,
        rep.frw.M.value.imag,
        rep.resid_max,
        rep.neg_flat,
        rep.neg_frw,
    )


def cmd_dualize(sections, loc, config_sha, args) -> int:
    """pair a flat scenario with its cosmological duals"""
    scenario = _build_scenario(sections, loc)
    Omegas = _section(sections, "dualize", loc)["Omega_list"]
    # what dualize refuses is refused here, before any row, at the key that causes it
    a, b = scenario.detectors
    if scenario.frame != "minkowski":
        raise loc.error("spacetime", "frame", "dualize starts from a flat scenario")
    if a.model != "oscillator":
        raise loc.error(f"detectors.{a.label}", "model",
                        "the duality is defined for oscillator detectors")
    if a.frequency != b.frequency:
        raise loc.error(f"detectors.{b.label}", "frequency",
                        f"dualize needs equal detector frequencies; {a.label} has {a.frequency}")
    for Omega in Omegas:
        try:
            dualize(scenario, Omega)
        except ValueError as exc:
            raise loc.error("dualize", "Omega_list", f"Omega = {Omega}: {exc}") from None
    flat = None

    def check(Omega):
        # the flat side does not depend on Omega: the first row computes it
        nonlocal flat
        rep = run_dual_check(scenario, Omega, flat)
        flat = rep.flat
        return rep

    return _sweep(_dualize_row, check, Omegas, _DUALIZE_COLUMNS,
                  _report_header("dualize", config_sha), args.out)


def cmd_geometry_tables(sections, loc, config_sha, args) -> int:
    """dump dense clock-map and scale factor grids"""
    tables = _section(sections, "tables", loc)
    omega = tables["omega"]
    grid = np.linspace(tables["t_min"], tables["t_max"], tables["points"])
    rows = []
    for Om in tables["Omega_list"]:
        m = _construct(loc, "tables", ConformalTakagiMap, omega, Om)
        a = m.scale_factor(grid)
        for x, v in zip(grid, a):
            rows.append(("proper_distance_over_L", omega, Om, float(x), float(v)))
        if Om > 0.0:
            tau = m.tau_of_lambda(grid)
            for x, v in zip(grid, tau):
                rows.append(("tau_of_lambda", omega, Om, float(x), float(v)))
    _emit(_csv(("quantity", "omega", "Omega", "x", "value"), rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "check-takagi": cmd_check_takagi,
    "harvest": cmd_harvest,
    "dualize": cmd_dualize,
    "geometry-tables": cmd_geometry_tables,
}

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="takagi-harvest",
        description="Detector-pair entanglement harvesting via the conformal clock map.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.__doc__)
        sp.add_argument("--config", default=None, help="INI scenario configuration")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; no effect (sweep rows run in input order)",
        )
        if name == "check-takagi":
            sp.add_argument(
                "--corrupt-sign",
                action="store_true",
                help="negative control: flip a shear sign so the suite must fail",
            )
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("config error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.config is None and args.command in _SCENARIO:
        print(f"config error: {args.command} requires --config", file=sys.stderr)
        return EXIT_CONFIG
    try:
        sections, loc, sha = _load_config(args.config, args.command)
        return _COMMANDS[args.command](sections, loc, sha, args)
    except ValueError as exc:  # ConfigError, or a constructor rejecting a value
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalHardError as exc:
        print(f"numerical hard error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # stdout consumer went away (e.g. piped into head); exit quietly
        devnull = open("/dev/null", "w")
        sys.stdout = devnull
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
