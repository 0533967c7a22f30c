"""Command-line front end: config-driven chain mapping runs.

    chaincast validate --config job.json
    chaincast run --config job.json [--q Q] [--sites N] [--out-dir DIR]

The config is a JSON object (unknown keys rejected):

    {
      "spectral_density": {"family": "power_law", "s": 1, "alpha": 0.1,
                           "omega_c": 1.0},
      "mapping_q": 0,
      "sites": 50,
      "residual_orders": [1, 2, 3],
      "grid": {"points": 512, "range": [0.01, 0.99]},
      "outputs": {"chain_csv": "chain.csv", "residual_csv": "residual.csv",
                  "report_json": "report.json"}
    }

spectral_density families: "power_law" and "power_law_exp_cutoff" take
(s, alpha, omega_c); "tabulated" takes samples_path (CSV rows omega,J with
strictly increasing omega); "piecewise" takes intervals [[lo, hi, height],
...] and may be gapped.  sites and each residual order are at most
orthopoly.MAX_ORDER - 1 = 199, and grid.points at most MAX_GRID_POINTS =
2**17.  A family's parameter rules are its constructor's; this module only
parses.

Exit codes: 0 success, 2 config error (residual orders at 0 < q < 1
included, and an output that cannot be written: one below a regular file,
--out-dir included, or one naming a directory), 3 numerical failure
(arithmetic overflow included, numpy's too, as are its 0/0 and division by
zero, and a residual CSV or report that would hold a non-finite number,
which is then not written), 4 unsupported
request (residual densities of a gapped measure, or a reducer that is
unavailable for the measure).  The report's
moment_gaps hold orders 1..max(residual_orders), at most 6.
Outputs are deterministic: identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chainmap import measure_from_sd
from .convergence import convergence_report
from .errors import (
    BracketFailure,
    ChaincastError,
    ConfigError,
    DomainError,
    GappedMeasure,
    IllConditioned,
    UnsupportedMapping,
    UnsupportedMeasure,
)
from .measures import (
    SpectralDensity,
    piecewise_uniform_sd,
    power_law_exp_sd,
    power_law_sd,
    tabulated_sd,
)
from .orthopoly import MAX_ORDER
from .stieltjes import find_gap_zero

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNSUPPORTED = 4

# grid.points at most this: the P and Q tables of a residual density of
# order 199 on such a grid hold about 420 MB.
MAX_GRID_POINTS = 2**17

_SD_KEYS = {"family", "s", "alpha", "omega_c", "samples_path", "intervals"}
_GRID_KEYS = {"points", "range"}
_OUTPUT_KEYS = {"chain_csv", "residual_csv", "report_json"}
_TOP_KEYS = {"spectral_density", "mapping_q", "sites", "residual_orders",
             "grid", "outputs"}


@dataclass(frozen=True)
class JobConfig:
    sd: SpectralDensity
    mapping_q: float
    sites: int
    residual_orders: tuple[int, ...]
    grid_points: int
    grid_range: tuple[float, float] | None
    chain_csv: str
    residual_csv: str
    report_json: str


def _require(cond: bool, fld: str, reason: str) -> None:
    if not cond:
        raise ConfigError(fld, reason)


def _number(val, fld: str, integer: bool = False):
    """val as a float, or as an int for an integer field.  Strings that
    parse as numbers pass (CSV cells are strings); bools, null, other
    strings and non-finite values (JSON Infinity, NaN or 1e400, cells inf
    or nan, JSON integers beyond the float range) raise ConfigError naming
    fld, and so does a non-integral value of an integer field."""
    try:
        num = None if isinstance(val, bool) else float(val)
    except (TypeError, ValueError, OverflowError):
        num = None
    _require(num is not None and math.isfinite(num)
             and (num.is_integer() or not integer), fld,
             f"must be {'an integer' if integer else 'a finite number'}, "
             f"got {val!r}")
    return int(num) if integer else num


def _load(path: Path, fld: str, parse):
    """parse applied to the file's UTF-8 text; a file that is missing,
    unreadable, not UTF-8 or that parse rejects raises ConfigError naming
    fld."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, csv.Error) as exc:
        verb = "read" if isinstance(exc, OSError) else "parse"
        raise ConfigError(fld, f"cannot {verb} {path}: {type(exc).__name__}: {exc}") from exc


def _construct(fld: str, maker, *args) -> SpectralDensity:
    """maker(*args); the constructor decides what a valid J is, and its
    DomainError is re-raised as a ConfigError naming fld."""
    try:
        return maker(*args)
    except DomainError as exc:
        raise ConfigError(fld, str(exc)) from exc


def _build_sd(spec: dict, base_dir: Path) -> SpectralDensity:
    _require(isinstance(spec, dict), "spectral_density", "must be an object")
    unknown = set(spec) - _SD_KEYS
    _require(not unknown, "spectral_density", f"unknown keys {sorted(unknown)}")
    family = spec.get("family")
    _require(family in ("power_law", "power_law_exp_cutoff", "tabulated", "piecewise"),
             "spectral_density.family", f"unknown family {family!r}")
    if family in ("power_law", "power_law_exp_cutoff"):
        for key in ("s", "alpha"):
            _require(key in spec, f"spectral_density.{key}", "required")
        s = _number(spec["s"], "spectral_density.s")
        alpha = _number(spec["alpha"], "spectral_density.alpha")
        omega_c = _number(spec.get("omega_c", 1.0), "spectral_density.omega_c")
        maker = power_law_sd if family == "power_law" else power_law_exp_sd
        return _construct("spectral_density", maker, s, alpha, omega_c)
    if family == "tabulated":
        _require("samples_path" in spec, "spectral_density.samples_path", "required")
        rows = []
        for row in _load(base_dir / str(spec["samples_path"]),
                         "spectral_density.samples_path",
                         lambda text: list(csv.reader(io.StringIO(text)))):
            if not row or row[0].lstrip().startswith("#"):
                continue
            _require(len(row) >= 2, "spectral_density.samples_path",
                     f"row {row} needs omega,J")
            rows.append(tuple(_number(cell, "spectral_density.samples_path")
                              for cell in row[:2]))
        return _construct("spectral_density.samples_path", tabulated_sd,
                          [r[0] for r in rows], [r[1] for r in rows])
    # piecewise
    _require("intervals" in spec, "spectral_density.intervals", "required")
    pieces = spec["intervals"]
    _require(isinstance(pieces, list) and pieces, "spectral_density.intervals",
             "must be a nonempty list of [lo, hi, height]")
    parsed = []
    for i, piece in enumerate(pieces):
        _require(isinstance(piece, list) and len(piece) == 3,
                 f"spectral_density.intervals[{i}]", "must be [lo, hi, height]")
        parsed.append(tuple(_number(v, f"spectral_density.intervals[{i}]")
                            for v in piece))
    return _construct("spectral_density.intervals", piecewise_uniform_sd, parsed)


def validate(path: str | Path, q_override: float | None = None,
             sites_override: int | None = None,
             out_dir: str | Path | None = None) -> JobConfig:
    """Parse, check and resolve a config file (defaults applied)."""
    path = Path(path)
    raw = _load(path, "config", json.loads)
    _require(isinstance(raw, dict), "config", "top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, "config", f"unknown keys {sorted(unknown)}")
    _require("spectral_density" in raw, "spectral_density", "required")

    sd = _build_sd(raw["spectral_density"], path.parent)

    q = _number(raw.get("mapping_q", 0.0) if q_override is None else q_override,
                "mapping_q")
    _require(0.0 <= q <= 1.0, "mapping_q", "must lie in [0, 1]")

    sites = _number(raw.get("sites", 50) if sites_override is None else sites_override,
                    "sites", integer=True)
    _require(1 <= sites < MAX_ORDER, "sites",
             f"must be an integer in 1..{MAX_ORDER - 1}: a chain of N sites "
             f"needs N + 1 recurrence orders, at most {MAX_ORDER}")

    orders_raw = raw.get("residual_orders", [])
    _require(isinstance(orders_raw, list), "residual_orders", "must be a list")
    orders = []
    for i, val in enumerate(orders_raw):
        val = _number(val, f"residual_orders[{i}]", integer=True)
        _require(0 <= val < MAX_ORDER, f"residual_orders[{i}]",
                 f"must be an integer in 0..{MAX_ORDER - 1}: J_n needs n + 1 "
                 f"recurrence orders, at most {MAX_ORDER}")
        orders.append(val)
    if orders:
        _require(q in (0.0, 1.0), "residual_orders",
                 f"residual densities are unsupported for mapping_q={q} "
                 "(only q = 0 or q = 1)")

    grid = raw.get("grid", {})
    _require(isinstance(grid, dict), "grid", "must be an object")
    unknown = set(grid) - _GRID_KEYS
    _require(not unknown, "grid", f"unknown keys {sorted(unknown)}")
    points = _number(grid.get("points", 512), "grid.points", integer=True)
    _require(points >= 2, "grid.points", "need at least 2 grid points")
    _require(points <= MAX_GRID_POINTS, "grid.points",
             f"at most {MAX_GRID_POINTS} grid points, got {points}")
    grange = grid.get("range")
    if grange is not None:
        _require(isinstance(grange, list) and len(grange) == 2, "grid.range",
                 "must be [lo, hi]")
        grange = tuple(_number(v, "grid.range") for v in grange)
        _require(grange[1] > grange[0], "grid.range", "needs lo < hi")

    outputs = raw.get("outputs", {})
    _require(isinstance(outputs, dict), "outputs", "must be an object")
    unknown = set(outputs) - _OUTPUT_KEYS
    _require(not unknown, "outputs", f"unknown keys {sorted(unknown)}")
    base = Path(out_dir) if out_dir is not None else path.parent

    def resolve(key: str, default: str) -> str:
        name = outputs.get(key, default)
        p = Path(name)
        return str(p if p.is_absolute() else base / p)

    return JobConfig(
        sd=sd, mapping_q=q, sites=sites,
        residual_orders=tuple(sorted(set(orders))),
        grid_points=points, grid_range=grange,
        chain_csv=resolve("chain_csv", "chain.csv"),
        residual_csv=resolve("residual_csv", "residual.csv"),
        report_json=resolve("report_json", "report.json"),
    )


def _fmt(x: float) -> str:
    # 17 significant digits round-trips doubles exactly.
    return format(float(x), ".17g")


def _write_chain_csv(path: str, cc, support) -> None:
    sup = ";".join(f"[{_fmt(lo)},{_fmt(hi)}]" for lo, hi in support)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# E5={_fmt(cc.E5)} q={_fmt(cc.q)} support={sup}\n")
        fh.write("n,alpha,beta,E1,E2,E3,E4\n")
        for i in range(cc.sites):
            row = (str(i), _fmt(cc.alpha[i]), _fmt(cc.beta[i]), _fmt(cc.E1[i]),
                   _fmt(cc.E2[i]), _fmt(cc.E3[i]), _fmt(cc.E4[i]))
            fh.write(",".join(row) + "\n")


def _write_residual_csv(path: str, grid, columns: dict[int, np.ndarray],
                        q: float, clipped: tuple[float, float]) -> None:
    orders = sorted(columns)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# q={_fmt(q)} clipped_range=[{_fmt(clipped[0])},"
                 f"{_fmt(clipped[1])}]\n")
        fh.write("omega," + ",".join(f"J{n}" for n in orders) + "\n")
        for i, w in enumerate(grid):
            fh.write(",".join([_fmt(w)] + [_fmt(columns[n][i]) for n in orders])
                     + "\n")


def run(config: JobConfig) -> None:
    """Execute a validated job; ``main`` maps its errors to exit codes."""
    warnings: list[str] = []
    # A job that fails part-way must not leave an earlier job's outputs
    # beside its own.
    for key, out in (("outputs.chain_csv", config.chain_csv),
                     ("outputs.residual_csv", config.residual_csv),
                     ("outputs.report_json", config.report_json)):
        try:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).unlink(missing_ok=True)
        except OSError as exc:  # below a regular file, or a directory itself
            raise ConfigError(key, f"cannot write {out}: {exc}") from exc
    positive_orders = [n for n in config.residual_orders if n > 0]
    report = convergence_report(config.sd, config.mapping_q, config.sites,
                                residual_orders=max(positive_orders, default=0))
    _write_chain_csv(config.chain_csv, report.chain, config.sd.support)

    if positive_orders:
        if not config.sd.gapless:
            # Unsupported whether or not the zero can be located.
            try:
                z0 = find_gap_zero(measure_from_sd(config.sd, config.mapping_q))
            except BracketFailure as exc:
                where = f"zero in the gap not located: {exc}"
            else:
                where = f"vanishes at z0={z0:.12g} inside the gap"
            raise GappedMeasure("residual densities of a gapped spectral "
                                f"density (Stieltjes transform {where})")
        clipped = report.residual.clipped_range()
    else:  # J0 alone: on the hull, an unbounded end cut by its tail bound
        clipped = config.sd.truncated_hull()
    lo, hi = clipped
    if config.grid_range is not None:
        glo, ghi = config.grid_range
        if glo < lo or ghi > hi:
            warnings.append(f"grid range clipped to guard-banded support "
                            f"[{_fmt(lo)}, {_fmt(hi)}]")
        lo, hi = max(lo, glo), min(hi, ghi)
        if not hi > lo:
            warnings.append("grid range outside the support; using the "
                            "full sample range")
            lo, hi = clipped
    grid = np.linspace(lo, hi, config.grid_points)
    # J0 is always emitted alongside any requested orders.
    residual_columns = {0: np.asarray(config.sd(grid), float)}
    for n in positive_orders:
        residual_columns[n] = np.asarray(report.residual(n, grid), float)
    if not all(np.isfinite(col).all() for col in residual_columns.values()):
        raise IllConditioned(f"{config.residual_csv}: a non-finite J_n on the grid")
    _write_residual_csv(config.residual_csv, grid, residual_columns,
                        config.mapping_q, clipped)

    payload = {
        "szego": str(report.szego),
        "q": report.q,
        "alpha_limit": report.alpha_limit,
        "beta_limit": report.beta_limit,
        "alpha": [float(v) for v in report.chain.alpha],
        "beta": [float(v) for v in report.chain.beta],
        "alpha_deviation": [float(v) for v in report.alpha_deviation],
        "beta_deviation": [float(v) for v in report.beta_deviation],
        "moment_gaps": {str(n): [float(v) for v in vals]
                        for n, vals in sorted(report.terminal_moment_gap.items())},
        "hopping_ratio": [float(v) for v in report.hopping_ratio],
        "warnings": warnings,
        "provenance": {"tool": "chaincast", "version": __version__},
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a non-finite number, which JSON cannot hold
        raise IllConditioned(f"{config.report_json}: {exc}") from exc
    with open(config.report_json, "w", newline="\n") as fh:
        fh.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaincast",
        description="Chain mappings and residual spectral densities of bath "
                    "spectral densities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON job config")
        p.add_argument("--q", type=float, default=None,
                       help="override mapping_q")
        p.add_argument("--sites", type=int, default=None,
                       help="override number of chain sites")
        p.add_argument("--out-dir", default=None,
                       help="directory for output files")
    args = parser.parse_args(argv)
    try:
        config = validate(args.config, q_override=args.q,
                          sites_override=args.sites, out_dir=args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        print(f"config ok: q={config.mapping_q} sites={config.sites} "
              f"residual_orders={list(config.residual_orders)}")
        return EXIT_OK
    try:
        # numpy's overflow, 0/0 and division by zero raise FloatingPointError,
        # an ArithmeticError, instead of warning and carrying inf or nan on
        with np.errstate(all="raise", under="ignore"):
            run(config)
    except ConfigError as exc:  # an output that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnsupportedMapping, UnsupportedMeasure, GappedMeasure) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ChaincastError as exc:  # every other domain error is numerical
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as exc:  # overflow or division by zero mid-run
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
