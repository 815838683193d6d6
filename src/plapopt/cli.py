"""Experiment runner: config in, result files out.

Subcommands: solve, torsion, gamma-diag, optimize-potential, optimize-set.
Configs are strict JSON (unknown keys rejected); results are JSON plus CSV
tables and field dumps (CSV always, 8-bit PGM for 2D).  A manifest with
the config hash and timings accompanies every run.  With a fixed config
and seed all result files are byte-identical across runs; wall time lives
only in the manifest.

Exit codes: 0 success, 2 validation error (nothing written), 3 solver
non-convergence (best-effort artifacts written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from plapopt import __version__
from plapopt.grid import GridSpec, Field
from plapopt.measure import (
    CapacitaryMeasure,
    WeightPair,
    PsiSpec,
    from_potential,
    from_quasi_open,
    zero_measure,
)
from plapopt.energy import EnergyContext
from plapopt.torsion import torsion
from plapopt.spectrum import M_MAX_LIMIT, SolverOptions, eigen_minimax
from plapopt.gamma import blocked_limit_sequence, lsc_check, usc_check, \
    psi_lsc_check
from plapopt.optimize import (
    ObjectiveSpec,
    ConstraintSpec,
    InfeasibleConstraint,
    optimize_potential,
    optimize_set,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


class ValidationError(Exception):
    pass


# ----------------------------------------------------------------------
# config schema

_GRID_KEYS = {"dim", "n", "lengths", "p"}
_MEASURE_KEYS = {"kind", "density", "mask", "atoms"}
_WEIGHT_KEYS = {"w1", "w1_atoms", "w2"}
_PSI_KEYS = {"kind", "beta"}
_SOLVER_KEYS = {"m_max", "cert_tol", "n_starts", "max_ascent_iter",
                "max_outer_iter", "max_restarts", "descent_max_iter",
                "newton_max_iter"}
_GAMMA_KEYS = {"mask", "s_values", "m", "slack", "tail", "psi", "run_usc"}
_OBJECTIVE_KEYS = {"kind", "k", "weights"}
_CONSTRAINT_KEYS = {"kind", "c", "psi"}
_OPTIONS_KEYS = {"max_iter", "n_starts", "soft_walls", "max_thresh_iter"}

_TOP_KEYS = {
    "solve": {"grid", "seed", "measure", "weights", "solver"},
    "torsion": {"grid", "seed", "measure"},
    "gamma-diag": {"grid", "seed", "weights", "gamma", "solver"},
    "optimize-potential": {"grid", "seed", "weights", "objective",
                           "constraint", "options", "solver"},
    "optimize-set": {"grid", "seed", "weights", "objective", "constraint",
                     "options", "solver"},
}
_REQUIRED_KEYS = {
    "solve": {"grid", "measure", "weights"},
    "torsion": {"grid", "measure"},
    "gamma-diag": {"grid", "weights", "gamma"},
    "optimize-potential": {"grid", "weights", "objective", "constraint"},
    "optimize-set": {"grid", "weights", "objective", "constraint"},
}


def _require_dict(obj, name):
    if not isinstance(obj, dict):
        raise ValidationError(f"{name} must be an object")
    return obj


def _check_keys(obj: dict, allowed: set, name: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(
            f"{name}: unknown keys {sorted(unknown)}")


def validate_config(config, subcommand: str) -> dict:
    config = _require_dict(config, "config")
    _check_keys(config, _TOP_KEYS[subcommand], "config")
    missing = _REQUIRED_KEYS[subcommand] - set(config)
    if missing:
        raise ValidationError(f"config: missing keys {sorted(missing)}")
    _check_keys(_require_dict(config["grid"], "grid"), _GRID_KEYS, "grid")
    for key in ("dim", "n", "lengths", "p"):
        if key not in config["grid"]:
            raise ValidationError(f"grid: missing key {key!r}")
    if "measure" in config:
        _check_keys(_require_dict(config["measure"], "measure"),
                    _MEASURE_KEYS, "measure")
    if "weights" in config:
        _check_keys(_require_dict(config["weights"], "weights"),
                    _WEIGHT_KEYS, "weights")
    if "solver" in config:
        _check_keys(_require_dict(config["solver"], "solver"),
                    _SOLVER_KEYS, "solver")
    if "gamma" in config:
        gamma = _require_dict(config["gamma"], "gamma")
        _check_keys(gamma, _GAMMA_KEYS, "gamma")
        if "psi" in gamma:
            _check_keys(_require_dict(gamma["psi"], "gamma.psi"),
                        _PSI_KEYS, "gamma.psi")
    if "objective" in config:
        _check_keys(_require_dict(config["objective"], "objective"),
                    _OBJECTIVE_KEYS, "objective")
    if "constraint" in config:
        con = _require_dict(config["constraint"], "constraint")
        _check_keys(con, _CONSTRAINT_KEYS, "constraint")
        if "psi" in con and con["psi"] is not None:
            _check_keys(_require_dict(con["psi"], "constraint.psi"),
                        _PSI_KEYS, "constraint.psi")
    if "options" in config:
        _check_keys(_require_dict(config["options"], "options"),
                    _OPTIONS_KEYS, "options")
    if "seed" in config and not isinstance(config["seed"], int):
        raise ValidationError("seed must be an integer")
    return config


# ----------------------------------------------------------------------
# config -> domain objects

def _parse_grid(spec: dict) -> GridSpec:
    try:
        return GridSpec(int(spec["dim"]), int(spec["n"]),
                        tuple(float(x) for x in spec["lengths"]),
                        float(spec["p"]))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"grid: {exc}") from exc


def _parse_density(grid: GridSpec, raw) -> np.ndarray:
    if isinstance(raw, (int, float)):
        return np.full(grid.cells_shape, float(raw))
    if not isinstance(raw, list):
        raise ValidationError("density must be a number or a flat array")
    vals = [math.inf if x == "inf" else float(x) for x in raw]
    if len(vals) != grid.n_cells:
        raise ValidationError(
            f"density length {len(vals)} != cell count {grid.n_cells}")
    return np.asarray(vals).reshape(grid.cells_shape)


def _parse_atoms(raw) -> tuple:
    if raw is None:
        return ()
    try:
        return tuple((int(n), float(m)) for n, m in raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"atoms must be a list of [node, mass] pairs: {exc}") from exc


def _parse_measure(grid: GridSpec, spec: dict) -> CapacitaryMeasure:
    kind = spec.get("kind")
    try:
        if kind == "zero":
            base = zero_measure(grid)
        elif kind == "potential":
            base = from_potential(grid, _parse_density(grid,
                                                       spec.get("density", 0)))
        elif kind == "quasi_open":
            mask = np.asarray(spec.get("mask", []), dtype=bool)
            base = from_quasi_open(grid, mask)
        else:
            raise ValidationError(f"measure: unknown kind {kind!r}")
        atoms = _parse_atoms(spec.get("atoms"))
        if atoms:
            base = CapacitaryMeasure(grid, base.density, base.blocked, atoms)
        return base
    except ValueError as exc:
        raise ValidationError(f"measure: {exc}") from exc


def _parse_weights(grid: GridSpec, spec: dict) -> WeightPair:
    try:
        return WeightPair(grid,
                          _parse_density(grid, spec.get("w1", 0.0)),
                          _parse_atoms(spec.get("w1_atoms")),
                          _parse_density(grid, spec.get("w2", 0.0)))
    except ValueError as exc:
        raise ValidationError(f"weights: {exc}") from exc


def _parse_psi(spec: dict | None) -> PsiSpec:
    spec = spec or {}
    try:
        return PsiSpec(spec.get("kind", "exp"), float(spec.get("beta", 1.0)))
    except ValueError as exc:
        raise ValidationError(f"psi: {exc}") from exc


def _parse_solver_options(spec: dict | None) -> tuple[SolverOptions, int]:
    spec = dict(spec or {})
    defaults = SolverOptions()
    try:
        m_max = int(spec.pop("m_max", 4))
        kwargs = {k: type(getattr(defaults, k))(v) for k, v in spec.items()}
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"solver: {exc}") from exc
    if not 1 <= m_max <= M_MAX_LIMIT:
        raise ValidationError(f"solver: m_max must be in 1..{M_MAX_LIMIT}")
    return SolverOptions(**kwargs), m_max


def _parse_objective(spec: dict) -> ObjectiveSpec:
    try:
        return ObjectiveSpec(spec.get("kind", "single"),
                             int(spec.get("k", 1)),
                             tuple(spec.get("weights", ())))
    except ValueError as exc:
        raise ValidationError(f"objective: {exc}") from exc


def _parse_constraint(spec: dict) -> ConstraintSpec:
    try:
        psi = _parse_psi(spec["psi"]) if spec.get("psi") is not None else None
        return ConstraintSpec(spec.get("kind", ""), float(spec.get("c", 0)),
                              psi)
    except (ValueError, KeyError) as exc:
        raise ValidationError(f"constraint: {exc}") from exc


# ----------------------------------------------------------------------
# serialization helpers

def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(float(x))
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.reshape(-1).tolist()]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True,
                               indent=1) + "\n")


def config_hash(config: dict, seed: int) -> str:
    canon = json.dumps({"config": config, "seed": seed}, sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt(x: float) -> str:
    return "%.17g" % x


def dump_field(field: Field, fmt: str, path: Path):
    """Write a node field as CSV (x[,y],value) or 8-bit PGM (2D only)."""
    grid = field.grid
    if fmt == "csv":
        lines = []
        coords = grid.node_coords().reshape(-1, grid.dim)
        for xy, v in zip(coords, field.flat):
            lines.append(",".join(_fmt(c) for c in xy) + "," + _fmt(v))
        Path(path).write_text("\n".join(lines) + "\n")
    elif fmt == "pgm":
        if grid.dim != 2:
            raise ValueError("pgm dumps need a 2D field")
        _write_pgm(field.values, path)
    else:
        raise ValueError(f"unknown field format {fmt!r}")


def dump_cells(grid: GridSpec, cells: np.ndarray, fmt: str, path: Path):
    """Write a per-cell array as CSV over cell centers, or PGM (2D)."""
    cells = np.asarray(cells, dtype=float).reshape(grid.cells_shape)
    if fmt == "csv":
        lines = []
        coords = grid.cell_centers().reshape(-1, grid.dim)
        for xy, v in zip(coords, cells.reshape(-1)):
            lines.append(",".join(_fmt(c) for c in xy) + "," + _fmt(v))
        Path(path).write_text("\n".join(lines) + "\n")
    elif fmt == "pgm":
        if grid.dim != 2:
            raise ValueError("pgm dumps need 2D data")
        _write_pgm(cells, path)
    else:
        raise ValueError(f"unknown cells format {fmt!r}")


def _write_pgm(values: np.ndarray, path: Path):
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        norm = (values - lo) / (hi - lo)
        img = np.round(255.0 * norm).astype(np.uint8)
    else:
        img = np.full(values.shape, 128, dtype=np.uint8)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(img.tobytes())


def read_field_csv(grid: GridSpec, path: Path) -> Field:
    values = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            values.append(float(line.split(",")[-1]))
    return Field(grid, np.asarray(values))


# ----------------------------------------------------------------------
# subcommands

def _spectral_payload(result) -> dict:
    return {
        "lambdas": [_jsonable(x) for x in result.lambdas],
        "residuals": [None if r is None else r for r in result.residuals],
        "statuses": list(result.statuses),
        "subspace_bounds": [_jsonable(x) for x in result.subspace_bounds],
    }


def _write_spectral_csv(path: Path, result):
    rows = ["m,lambda,residual,status"]
    for m, (lam, res, status) in enumerate(
            zip(result.lambdas, result.residuals, result.statuses), start=1):
        lam_s = "inf" if math.isinf(lam) else _fmt(lam)
        res_s = "" if res is None else _fmt(res)
        rows.append(f"{m},{lam_s},{res_s},{status}")
    path.write_text("\n".join(rows) + "\n")


def _dump_eigenfields(out: Path, grid: GridSpec, result):
    for m, u in enumerate(result.eigenfields, start=1):
        if u is None:
            continue
        dump_field(u, "csv", out / f"field_m{m}.csv")
        if grid.dim == 2:
            dump_field(u, "pgm", out / f"field_m{m}.pgm")


def run_solve(config: dict, out: Path, seed: int, timings: dict) -> int:
    grid = _parse_grid(config["grid"])
    mu = _parse_measure(grid, config["measure"])
    weights = _parse_weights(grid, config["weights"])
    opts, m_max = _parse_solver_options(config.get("solver"))
    ctx = EnergyContext(grid, mu, weights)
    t0 = time.perf_counter()
    result = eigen_minimax(ctx, m_max, seed=seed, options=opts)
    timings["solve"] = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    payload = {"version": __version__, "subcommand": "solve",
               "p": grid.p, **_spectral_payload(result)}
    write_json(out / "results.json", payload)
    _write_spectral_csv(out / "results.csv", result)
    _dump_eigenfields(out, grid, result)
    unresolved = any(s == "unresolved" for s in result.statuses)
    return EXIT_NO_CONVERGENCE if unresolved else EXIT_OK


def run_torsion(config: dict, out: Path, seed: int, timings: dict) -> int:
    grid = _parse_grid(config["grid"])
    mu = _parse_measure(grid, config["measure"])
    t0 = time.perf_counter()
    w, report = torsion(mu)
    timings["torsion"] = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": __version__, "subcommand": "torsion",
        "max_w": float(w.values.max()) if w.values.size else 0.0,
        "iterations": report.iterations,
        "final_decrement": report.final_decrement,
        "converged": report.converged,
    }
    write_json(out / "results.json", payload)
    dump_field(w, "csv", out / "w.csv")
    if grid.dim == 2:
        dump_field(w, "pgm", out / "w.pgm")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _report_payload(report) -> dict:
    return {
        "check": report.check,
        "m": report.m,
        "limit_value": _jsonable(report.limit_value),
        "tail_values": [_jsonable(v) for v in report.tail_values],
        "estimate": _jsonable(report.estimate),
        "margin": _jsonable(report.margin),
        "slack": report.slack,
        "passed": report.passed,
        "inconclusive": report.inconclusive,
        "distances": [_jsonable(v) for v in report.distances],
        "statuses": list(report.statuses),
        "note": report.note,
    }


def run_gamma_diag(config: dict, out: Path, seed: int, timings: dict) -> int:
    grid = _parse_grid(config["grid"])
    weights = _parse_weights(grid, config["weights"])
    gamma_cfg = config["gamma"]
    opts, _ = _parse_solver_options(config.get("solver"))
    mask = np.asarray(gamma_cfg["mask"], dtype=bool)
    s_values = [float(s) for s in gamma_cfg["s_values"]]
    m = int(gamma_cfg.get("m", 1))
    slack = float(gamma_cfg.get("slack", 1e-3))
    tail = int(gamma_cfg.get("tail", 3))
    psi = _parse_psi(gamma_cfg.get("psi"))
    try:
        seq = blocked_limit_sequence(grid, mask, s_values)
    except ValueError as exc:
        raise ValidationError(f"gamma: {exc}") from exc

    t0 = time.perf_counter()
    reports = {"lsc": lsc_check(seq, weights, m, slack=slack, tail=tail,
                                seed=seed, options=opts)}
    run_usc = bool(gamma_cfg.get("run_usc", not weights.w2.any()))
    if run_usc:
        reports["usc"] = usc_check(seq, weights, m, slack=slack, tail=tail,
                                   seed=seed, options=opts)
    reports["psi_lsc"] = psi_lsc_check(seq, psi, slack=slack, tail=tail)
    timings["gamma"] = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)

    payload = {"version": __version__, "subcommand": "gamma-diag",
               "s_values": s_values,
               "checks": {k: _report_payload(r) for k, r in reports.items()}}
    write_json(out / "report.json", payload)
    inconclusive = any(r.inconclusive for r in reports.values())
    return EXIT_NO_CONVERGENCE if inconclusive else EXIT_OK


def _write_history_csv(path: Path, history):
    rows = ["iteration,objective,constraint"]
    for row in history:
        rows.append(f"{row.iteration},{_fmt(row.objective)},"
                    f"{_fmt(row.constraint)}")
    path.write_text("\n".join(rows) + "\n")


def run_optimize_potential(config: dict, out: Path, seed: int,
                           timings: dict) -> int:
    grid = _parse_grid(config["grid"])
    weights = _parse_weights(grid, config["weights"])
    objective = _parse_objective(config["objective"])
    constraint = _parse_constraint(config["constraint"])
    opts, _ = _parse_solver_options(config.get("solver"))
    options = config.get("options", {})
    t0 = time.perf_counter()
    try:
        result = optimize_potential(
            grid, weights, objective, constraint, seed=seed, options=opts,
            max_iter=int(options.get("max_iter", 200)))
    except InfeasibleConstraint as exc:
        raise ValidationError(f"constraint: {exc}") from exc
    timings["optimize"] = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": __version__, "subcommand": "optimize-potential",
        "objective": result.objective,
        "constraint_value": result.constraint_value,
        "saturation_shift": result.saturation_shift,
        "converged": result.converged,
        **_spectral_payload(result.spectrum),
    }
    write_json(out / "results.json", payload)
    _write_history_csv(out / "history.csv", result.history)
    dump_cells(grid, result.potential, "csv", out / "V.csv")
    if grid.dim == 2:
        dump_cells(grid, result.potential, "pgm", out / "V.pgm")
    _dump_eigenfields(out, grid, result.spectrum)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def run_optimize_set(config: dict, out: Path, seed: int,
                     timings: dict) -> int:
    grid = _parse_grid(config["grid"])
    weights = _parse_weights(grid, config["weights"])
    objective = _parse_objective(config["objective"])
    constraint = _parse_constraint(config["constraint"])
    opts, _ = _parse_solver_options(config.get("solver"))
    options = config.get("options", {})
    t0 = time.perf_counter()
    try:
        result = optimize_set(
            grid, weights, objective, constraint, seed=seed, options=opts,
            n_starts=int(options.get("n_starts", 3)),
            soft_walls=tuple(options.get("soft_walls", (1e2, 1e4))),
            max_thresh_iter=int(options.get("max_thresh_iter", 30)))
    except InfeasibleConstraint as exc:
        raise ValidationError(f"constraint: {exc}") from exc
    timings["optimize"] = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": __version__, "subcommand": "optimize-set",
        "objective": result.objective,
        "constraint_value": result.constraint_value,
        "cells_kept": int(result.mask.sum()),
        "converged": result.converged,
        **_spectral_payload(result.spectrum),
    }
    write_json(out / "results.json", payload)
    _write_history_csv(out / "history.csv", result.history)
    dump_cells(grid, result.mask.astype(float), "csv", out / "mask.csv")
    if grid.dim == 2:
        dump_cells(grid, result.mask.astype(float), "pgm", out / "mask.pgm")
    _dump_eigenfields(out, grid, result.spectrum)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


_RUNNERS = {
    "solve": run_solve,
    "torsion": run_torsion,
    "gamma-diag": run_gamma_diag,
    "optimize-potential": run_optimize_potential,
    "optimize-set": run_optimize_set,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapopt",
        description="p-Laplacian eigenvalues of capacitary measures and "
                    "their optimization")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="config JSON path")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    quiet = args.quiet

    def say(msg):
        if not quiet:
            print(msg, file=sys.stderr)

    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        say(f"error: cannot read config: {exc}")
        return EXIT_VALIDATION
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        say(f"error: malformed JSON: {exc}")
        return EXIT_VALIDATION
    try:
        config = validate_config(config, args.subcommand)
    except ValidationError as exc:
        say(f"error: {exc}")
        return EXIT_VALIDATION

    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out = Path(args.out)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        # runners create out only after their inputs validate
        code = _RUNNERS[args.subcommand](config, out, seed, timings)
    except ValidationError as exc:
        say(f"error: {exc}")
        return EXIT_VALIDATION
    wall = time.perf_counter() - t0
    write_json(out / "manifest.json", {
        "version": __version__,
        "subcommand": args.subcommand,
        "config_hash": config_hash(config, seed),
        "seed": seed,
        "wall_time_s": wall,
        "timings": timings,
    })
    if code == EXIT_NO_CONVERGENCE:
        say("warning: solver did not fully converge; "
            "best-effort artifacts written")
    return code


if __name__ == "__main__":
    sys.exit(main())
