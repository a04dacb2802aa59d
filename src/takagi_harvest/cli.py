"""Command-line front end: INI-driven runs emitting plot-ready CSV/JSON.

Four subcommands cover the library surface: ``check-takagi`` runs the
symplectic identity suite, ``harvest`` evaluates one scenario (or a frequency
scan), ``dualize`` pairs a flat scenario with its cosmological dual per
requested Omega, and ``geometry-tables`` dumps dense clock-map and scale
factor grids.  All floats are printed with 17 significant digits and every
reduction order is fixed, so identical configs produce byte-identical output
regardless of --threads.

Exit codes: 0 success, 1 check failure, 2 config error, 3 numerical hard
error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .gaussian import SUITE_THRESHOLDS, run_identity_suite
from .geometry import (
    ConformalTakagiMap,
    StaticTrajectory,
    cos_squared_switching,
    gaussian_switching,
)
from .harvesting import DetectorSpec, HarvestScenario, harvest, run_dual_check
from .quadrature import NumericalHardError, QuadratureConfig, validate_epsilon_sequence

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SPEC_VERSION = 1


class ConfigError(Exception):
    """Configuration file rejected by the schema."""


# Allowed keys per section.  Unknown sections or keys are hard errors so a
# typo never silently falls back to a default.
_SECTION_KEYS = {
    "spacetime": {"frame", "omega", "Omega", "n_spatial"},
    "field": {"initial_state"},
    "quadrature": {
        "rel_tol",
        "abs_tol",
        "max_subdivisions",
        "epsilon_sequence",
        "extrapolation",
        "method",
    },
    "output": {"path"},
    "scan": {"omega"},
    "dualize": {"Omega_list"},
    "check": {"omegas", "Omegas", "n_lambda", "corrupt_sign"},
    "tables": {"omega", "Omega_list", "t_min", "t_max", "points"},
}
_DETECTOR_KEYS = {"model", "frequency", "coupling", "position", "interaction_scale"}
_SWITCHING_KEYS = {"kind", "sigma", "center", "t0", "t1"}

_SECTIONS_BY_COMMAND = {
    "check-takagi": {"check", "output"},
    "harvest": {"spacetime", "detectors", "field", "quadrature", "output", "scan"},
    "dualize": {"spacetime", "detectors", "field", "quadrature", "output", "dualize"},
    "geometry-tables": {"tables", "output"},
}


class _Locator:
    """Maps (section, key) back to a 1-based line number for diagnostics."""

    def __init__(self, text: str):
        self.sections = {}
        self.keys = {}
        current = None
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith(("#", ";")):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                self.sections.setdefault(current, i)
            elif "=" in line and current is not None:
                key = line.split("=", 1)[0].strip()
                self.keys.setdefault((current, key), i)

    def where(self, section: str, key: str | None = None) -> str:
        if key is None:
            n = self.sections.get(section)
        else:
            n = self.keys.get((section, key))
        return f"line {n}" if n else "line unknown"


def _load_config(path: str | None, command: str):
    """Parse and schema-check an INI config; returns (parser, locator, sha)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case sensitive (omega vs Omega)
    if path is None:
        return cp, _Locator(""), hashlib.sha256(b"").hexdigest()
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
    _check_schema(cp, loc, command)
    return cp, loc, hashlib.sha256(raw).hexdigest()


def _check_schema(cp, loc, command):
    allowed_groups = _SECTIONS_BY_COMMAND[command]
    for section in cp.sections():
        group = section.split(".", 1)[0]
        if group not in allowed_groups:
            raise ConfigError(
                f"[{section}] ({loc.where(section)}): section not used by {command}"
            )
        if group == "detectors":
            parts = section.split(".")
            if len(parts) == 2:
                keys = _DETECTOR_KEYS
            elif len(parts) == 3 and parts[2] == "switching":
                keys = _SWITCHING_KEYS
            else:
                raise ConfigError(
                    f"[{section}] ({loc.where(section)}): expected "
                    "[detectors.<label>] or [detectors.<label>.switching]"
                )
        else:
            keys = _SECTION_KEYS[group]
        for key in cp.options(section):
            if key not in keys:
                raise ConfigError(
                    f"[{section}] key {key!r} ({loc.where(section, key)}): "
                    f"unknown key; expected one of {sorted(keys)}"
                )


def _get(cp, section, key, loc, required=False, default=None):
    if cp.has_option(section, key):
        return cp.get(section, key)
    if required:
        raise ConfigError(
            f"[{section}] ({loc.where(section)}): missing required key {key!r}"
        )
    return default


def _parse_float(raw, section, key, loc):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] key {key!r} ({loc.where(section, key)}): "
            f"expected a number, got {raw!r}"
        ) from None


def _parse_int(raw, section, key, loc):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] key {key!r} ({loc.where(section, key)}): "
            f"expected an integer, got {raw!r}"
        ) from None


def _parse_bool(raw, section, key, loc):
    low = raw.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(
        f"[{section}] key {key!r} ({loc.where(section, key)}): "
        f"expected true or false, got {raw!r}"
    )


def _parse_float_list(raw, section, key, loc):
    items = [s for s in (part.strip() for part in raw.split(",")) if s]
    return tuple(_parse_float(s, section, key, loc) for s in items)


def _build_switching(cp, section, loc):
    kind = _get(cp, section, "kind", loc, required=True)
    if kind == "gaussian":
        sigma = _parse_float(_get(cp, section, "sigma", loc, required=True), section, "sigma", loc)
        center = _parse_float(_get(cp, section, "center", loc, default="0"), section, "center", loc)
        for key in ("t0", "t1"):
            if cp.has_option(section, key):
                raise ConfigError(
                    f"[{section}] key {key!r} ({loc.where(section, key)}): "
                    "not a gaussian parameter"
                )
        return gaussian_switching(sigma, center=center)
    if kind == "cos_squared":
        t0 = _parse_float(_get(cp, section, "t0", loc, required=True), section, "t0", loc)
        t1 = _parse_float(_get(cp, section, "t1", loc, required=True), section, "t1", loc)
        for key in ("sigma", "center"):
            if cp.has_option(section, key):
                raise ConfigError(
                    f"[{section}] key {key!r} ({loc.where(section, key)}): "
                    "not a cos_squared parameter"
                )
        return cos_squared_switching(t0, t1)
    raise ConfigError(
        f"[{section}] key 'kind' ({loc.where(section, 'kind')}): "
        f"unknown switching kind {kind!r}; expected gaussian or cos_squared"
    )


def _build_detector(cp, label, frame, loc):
    sec = f"detectors.{label}"
    model = _get(cp, sec, "model", loc, required=True)
    frequency = _parse_float(_get(cp, sec, "frequency", loc, required=True), sec, "frequency", loc)
    coupling = _parse_float(_get(cp, sec, "coupling", loc, required=True), sec, "coupling", loc)
    pos_raw = _get(cp, sec, "position", loc, required=True)
    pos = _parse_float_list(pos_raw, sec, "position", loc)
    if len(pos) != 3:
        raise ConfigError(
            f"[{sec}] key 'position' ({loc.where(sec, 'position')}): "
            f"expected three comma-separated coordinates, got {pos_raw!r}"
        )
    scale_raw = _get(cp, sec, "interaction_scale", loc)
    scale = None if scale_raw is None else _parse_float(scale_raw, sec, "interaction_scale", loc)
    sw_sec = f"{sec}.switching"
    if not cp.has_section(sw_sec):
        raise ConfigError(f"missing section [{sw_sec}] for detector {label!r}")
    switching = _build_switching(cp, sw_sec, loc)
    return DetectorSpec(
        label=label,
        model=model,
        frequency=frequency,
        coupling=coupling,
        trajectory=StaticTrajectory(pos, frame=frame),
        switching=switching,
        interaction_scale=scale,
    )


def _build_quadrature(cp, loc):
    cfg = QuadratureConfig()
    if not cp.has_section("quadrature"):
        return cfg
    sec = "quadrature"
    kwargs = {}
    if cp.has_option(sec, "rel_tol"):
        kwargs["rel_tol"] = _parse_float(cp.get(sec, "rel_tol"), sec, "rel_tol", loc)
    if cp.has_option(sec, "abs_tol"):
        kwargs["abs_tol"] = _parse_float(cp.get(sec, "abs_tol"), sec, "abs_tol", loc)
    if cp.has_option(sec, "max_subdivisions"):
        kwargs["max_subdivisions"] = _parse_int(
            cp.get(sec, "max_subdivisions"), sec, "max_subdivisions", loc
        )
    if cp.has_option(sec, "epsilon_sequence"):
        eps = _parse_float_list(cp.get(sec, "epsilon_sequence"), sec, "epsilon_sequence", loc)
        if not eps:
            raise ConfigError(
                f"[{sec}] key 'epsilon_sequence' ({loc.where(sec, 'epsilon_sequence')}): "
                "expected at least one value"
            )
        kwargs["epsilon_sequence"] = eps
    if cp.has_option(sec, "extrapolation"):
        kwargs["extrapolation"] = cp.get(sec, "extrapolation")
    if cp.has_option(sec, "method"):
        kwargs["method"] = cp.get(sec, "method")
    if "epsilon_sequence" in kwargs:
        try:
            validate_epsilon_sequence(
                kwargs["epsilon_sequence"], kwargs.get("extrapolation", cfg.extrapolation)
            )
        except ValueError as exc:
            raise ConfigError(
                f"[{sec}] key 'epsilon_sequence' ({loc.where(sec, 'epsilon_sequence')}): {exc}"
            ) from None
    return replace(cfg, **kwargs)


def _build_scenario(cp, loc):
    frame = _get(cp, "spacetime", "frame", loc, default="minkowski")
    if frame not in ("minkowski", "frw"):
        raise ConfigError(
            f"[spacetime] key 'frame' ({loc.where('spacetime', 'frame')}): "
            f"expected minkowski or frw, got {frame!r}"
        )
    takagi_map = None
    if frame == "frw":
        omega = _parse_float(
            _get(cp, "spacetime", "omega", loc, required=True), "spacetime", "omega", loc
        )
        Omega = _parse_float(
            _get(cp, "spacetime", "Omega", loc, required=True), "spacetime", "Omega", loc
        )
        n_spatial = _parse_int(
            _get(cp, "spacetime", "n_spatial", loc, default="3"), "spacetime", "n_spatial", loc
        )
        takagi_map = ConformalTakagiMap(omega, Omega, n_spatial=n_spatial)
    else:
        for key in ("omega", "Omega"):
            if cp.has_option("spacetime", key):
                raise ConfigError(
                    f"[spacetime] key {key!r} ({loc.where('spacetime', key)}): "
                    "only used when frame = frw"
                )
    initial_state = _get(cp, "field", "initial_state", loc, default="ground")
    if initial_state != "ground":
        raise ConfigError(
            f"[field] key 'initial_state' ({loc.where('field', 'initial_state')}): "
            f"configs accept 'ground' only; {initial_state!r} is constructed "
            "internally by dualize"
        )
    labels = sorted(
        sec.split(".", 1)[1]
        for sec in cp.sections()
        if sec.startswith("detectors.") and sec.count(".") == 1
    )
    if len(labels) != 2:
        raise ConfigError(
            f"expected exactly two [detectors.<label>] sections, found {len(labels)}"
        )
    detectors = tuple(_build_detector(cp, lab, frame, loc) for lab in labels)
    return HarvestScenario(
        detectors=detectors,
        frame=frame,
        map=takagi_map,
        initial_state=initial_state,
        quadrature=_build_quadrature(cp, loc),
    )


def _fmt(x) -> str:
    """Fixed 17-significant-digit float rendering used in every output file."""
    v = float(x)
    if not math.isfinite(v):
        raise NumericalHardError(f"non-finite value in output: {v!r}")
    return format(v, ".17g")


def _json_dump(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {_json_dump(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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


def _out_path(args, cp, loc):
    if args.out is not None:
        return args.out
    return _get(cp, "output", "path", loc)


def _element_record(res):
    if res is None:
        return None
    return {
        "re": float(res.value.real),
        "im": float(res.value.imag),
        "err": float(res.err_estimate),
        "note": res.note,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_takagi(cp, loc, config_sha, args) -> int:
    sec = "check"
    omegas = (0.5, 1.0, 2.0)
    Omegas = (0.5, 1.0, 2.0)
    n_lambda = 50
    corrupt = args.corrupt_sign
    if cp.has_section(sec):
        if cp.has_option(sec, "omegas"):
            omegas = _parse_float_list(cp.get(sec, "omegas"), sec, "omegas", loc)
        if cp.has_option(sec, "Omegas"):
            Omegas = _parse_float_list(cp.get(sec, "Omegas"), sec, "Omegas", loc)
        if cp.has_option(sec, "n_lambda"):
            n_lambda = _parse_int(cp.get(sec, "n_lambda"), sec, "n_lambda", loc)
        if cp.has_option(sec, "corrupt_sign"):
            corrupt = corrupt or _parse_bool(cp.get(sec, "corrupt_sign"), sec, "corrupt_sign", loc)
    residuals = run_identity_suite(
        omegas=omegas, Omegas=Omegas, n_lambda=n_lambda, corrupt_sign=corrupt
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
    out = _out_path(args, cp, loc)
    if out is not None:
        report = _report_header("check-takagi", config_sha)
        report["grid"] = {
            "omegas": list(omegas),
            "Omegas": list(Omegas),
            "n_lambda": n_lambda,
            "corrupt_sign": corrupt,
        }
        report["identities"] = identities
        report["all_pass"] = all_pass
        _emit(_json_dump(report) + "\n", out)
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


def cmd_harvest(cp, loc, config_sha, args) -> int:
    scenario = _build_scenario(cp, loc)
    out = _out_path(args, cp, loc)
    if cp.has_section("scan"):
        omegas = _parse_float_list(
            _get(cp, "scan", "omega", loc, required=True), "scan", "omega", loc
        )
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(lambda w: _scan_row(scenario, w), omegas))
        if out is not None and out.endswith(".json"):
            report = _report_header("harvest", config_sha)
            report["scan_parameter"] = "frequency"
            report["rows"] = [dict(zip(_SCAN_COLUMNS, row)) for row in rows]
            _emit(_json_dump(report) + "\n", out)
        else:
            _emit(_csv(_SCAN_COLUMNS, rows), out)
        return EXIT_OK
    rep = harvest(scenario)
    el = rep.elements
    report = _report_header("harvest", config_sha)
    report["model"] = scenario.detectors[0].model
    report["frame"] = scenario.frame
    report["initial_state"] = scenario.initial_state
    report["provenance"] = rep.provenance
    report["epsilon_sequence"] = list(rep.epsilon_sequence)
    report["elements"] = {
        "L_AA": _element_record(el.L_AA),
        "L_BB": _element_record(el.L_BB),
        "L_AB": _element_record(el.L_AB),
        "M": _element_record(el.M),
        "N_A": _element_record(el.N_A),
        "N_B": _element_record(el.N_B),
    }
    report["E1"] = float(rep.E1)
    report["negativity"] = float(rep.negativity)
    report["negativity_pt_exact"] = float(rep.negativity_pt)
    _emit(_json_dump(report) + "\n", out)
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


def _dualize_row(scenario, Omega):
    rep = run_dual_check(scenario, Omega)
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


def cmd_dualize(cp, loc, config_sha, args) -> int:
    scenario = _build_scenario(cp, loc)
    Omegas = _parse_float_list(
        _get(cp, "dualize", "Omega_list", loc, required=True), "dualize", "Omega_list", loc
    )
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        rows = list(pool.map(lambda W: _dualize_row(scenario, W), Omegas))
    out = _out_path(args, cp, loc)
    if out is not None and out.endswith(".json"):
        report = _report_header("dualize", config_sha)
        report["rows"] = [dict(zip(_DUALIZE_COLUMNS, row)) for row in rows]
        _emit(_json_dump(report) + "\n", out)
    else:
        _emit(_csv(_DUALIZE_COLUMNS, rows), out)
    return EXIT_OK


def cmd_geometry_tables(cp, loc, config_sha, args) -> int:
    sec = "tables"
    omega = 1.0
    Omegas = (0.5, 1.0, 2.0)
    t_min, t_max = -5.0, 5.0
    points = 501
    if cp.has_section(sec):
        if cp.has_option(sec, "omega"):
            omega = _parse_float(cp.get(sec, "omega"), sec, "omega", loc)
        if cp.has_option(sec, "Omega_list"):
            Omegas = _parse_float_list(cp.get(sec, "Omega_list"), sec, "Omega_list", loc)
        if cp.has_option(sec, "t_min"):
            t_min = _parse_float(cp.get(sec, "t_min"), sec, "t_min", loc)
        if cp.has_option(sec, "t_max"):
            t_max = _parse_float(cp.get(sec, "t_max"), sec, "t_max", loc)
        if cp.has_option(sec, "points"):
            points = _parse_int(cp.get(sec, "points"), sec, "points", loc)
    grid = np.linspace(t_min, t_max, points)
    rows = []
    for Om in Omegas:
        m = ConformalTakagiMap(omega, Om)
        a = m.scale_factor(grid)
        for x, v in zip(grid, a):
            rows.append(("proper_distance_over_L", omega, Om, float(x), float(v)))
        if Om > 0.0:
            tau = m.tau_of_lambda(grid)
            for x, v in zip(grid, tau):
                rows.append(("tau_of_lambda", omega, Om, float(x), float(v)))
    _emit(_csv(("quantity", "omega", "Omega", "x", "value"), rows), _out_path(args, cp, loc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "check-takagi": cmd_check_takagi,
    "harvest": cmd_harvest,
    "dualize": cmd_dualize,
    "geometry-tables": cmd_geometry_tables,
}

_NEEDS_CONFIG = {"harvest", "dualize"}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="takagi-harvest",
        description="Detector-pair entanglement harvesting via the conformal clock map.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    helps = {
        "check-takagi": "run the symplectic clock-map identity suite",
        "harvest": "evaluate one harvesting scenario or a frequency scan",
        "dualize": "pair a flat scenario with its cosmological duals",
        "geometry-tables": "dump dense clock-map and scale factor grids",
    }
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", default=None, help="INI scenario configuration")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
        sp.add_argument(
            "--seed", type=int, default=None, help="ignored; reserved (core is deterministic)"
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
    if args.config is None and args.command in _NEEDS_CONFIG:
        print(f"config error: {args.command} requires --config", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cp, loc, sha = _load_config(args.config, args.command)
        return _COMMANDS[args.command](cp, loc, sha, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
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
