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
from dataclasses import asdict, fields
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
    psi_lsc_check, solve_tail
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
# config reader

_MISSING = object()


class _Section:
    """One JSON object of a config, read key by key.

    take() reads a key (or its default when the key is absent) and names
    the failing ``section.key`` in the ValidationError; close() rejects
    the keys that no take() asked for.
    """

    def __init__(self, raw, name: str):
        if not isinstance(raw, dict):
            raise ValidationError(f"{name} must be an object")
        self.raw, self.name, self.read_keys = raw, name, set()
        self.prefix = "" if name == "config" else name + "."

    def take(self, key: str, read, default=_MISSING):
        """read() of the value under key; defaults are JSON values too."""
        self.read_keys.add(key)
        raw = self.raw.get(key, default)
        if raw is _MISSING:
            raise ValidationError(f"{self.prefix}{key}: missing")
        try:
            return read(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{self.prefix}{key}: {exc}") from exc

    def section(self, key: str, read, default=_MISSING):
        """read(_Section) of the object under key, then close() it.  The
        object may be null only where its default is null."""
        def parse(raw):
            if raw is None and default is None:
                return None
            sec = _Section(raw, self.prefix + key)
            value = read(sec)
            sec.close()
            return value
        return self.take(key, parse, default)

    def close(self):
        unknown = set(self.raw) - self.read_keys
        if unknown:
            raise ValidationError(
                f"{self.name}: unknown keys {sorted(unknown)}")


def _integer(lo=-math.inf, hi=math.inf):
    def read(v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"expected an integer, got {v!r}")
        if not lo <= v <= hi:
            raise ValueError(f"{v} is outside {lo}..{hi}")
        return v
    return read


def _number(v) -> float:
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not math.isfinite(v)):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _of_type(kind: type, what: str):
    def read(v):
        if not isinstance(v, kind):
            raise ValueError(f"expected {what}, got {v!r}")
        return v
    return read


_string = _of_type(str, "a string")
_bool = _of_type(bool, "true or false")
_list = _of_type(list, "a list")


def _numbers(v) -> tuple[float, ...]:
    return tuple(_number(x) for x in _list(v))


def _flags(v) -> np.ndarray:
    """A flat list of booleans or numbers, nonzero meaning true."""
    return np.array([x if isinstance(x, bool) else _number(x) != 0
                     for x in _list(v)], dtype=bool)


def _cells(grid: GridSpec, blocking: bool = False):
    """A per-cell array from a number or a flat list; where blocking, the
    string "inf" marks a blocked cell."""
    def read(v):
        if not isinstance(v, list):
            return np.full(grid.cells_shape, _number(v))
        vals = [math.inf if blocking and x == "inf" else _number(x)
                for x in v]
        if len(vals) != grid.n_cells:
            raise ValueError(f"length {len(vals)} != {grid.n_cells} cells")
        return np.asarray(vals).reshape(grid.cells_shape)
    return read


def _atoms(v) -> tuple:
    pairs = [] if v is None else _list(v)
    if any(not isinstance(a, list) or len(a) != 2 for a in pairs):
        raise ValueError(f"expected a list of [node, mass] pairs, got {v!r}")
    return tuple((_integer()(n), _number(m)) for n, m in pairs)


def _read_grid(sec: _Section) -> GridSpec:
    return GridSpec(sec.take("dim", _integer()), sec.take("n", _integer()),
                    sec.take("lengths", _numbers), sec.take("p", _number))


def _read_measure(sec: _Section, grid: GridSpec) -> CapacitaryMeasure:
    kind = sec.take("kind", _string)
    density = sec.take("density", _cells(grid, blocking=True), 0)
    mask = sec.take("mask", _flags, [])
    atoms = sec.take("atoms", _atoms, None)
    if kind == "zero":
        base = zero_measure(grid)
    elif kind == "potential":
        base = from_potential(grid, density)
    elif kind == "quasi_open":
        base = from_quasi_open(grid, mask)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return CapacitaryMeasure(grid, base.density, base.blocked, atoms)


def _read_weights(sec: _Section, grid: GridSpec) -> WeightPair:
    weights = WeightPair(grid, sec.take("w1", _cells(grid), 0.0),
                         sec.take("w1_atoms", _atoms, None),
                         sec.take("w2", _cells(grid), 0.0))
    if weights.trivial_nu1:
        raise ValueError("nu1 vanishes: no field can satisfy g1 > g2")
    return weights


def _read_solver(sec: _Section) -> tuple[SolverOptions, int]:
    defaults = SolverOptions()
    options = SolverOptions(**{
        f.name: sec.take(f.name, _integer(0), getattr(defaults, f.name))
        for f in fields(SolverOptions)})
    return options, sec.take("m_max", _integer(1, M_MAX_LIMIT), 4)


def _read_psi(sec: _Section) -> PsiSpec:
    return PsiSpec(sec.take("kind", _string, "exp"),
                   sec.take("beta", _number, 1.0))


def _read_gamma(sec: _Section, grid: GridSpec, weights: WeightPair) -> dict:
    sequence = blocked_limit_sequence(grid, sec.take("mask", _flags),
                                      sec.take("s_values", _numbers))
    run_usc = sec.take("run_usc", _bool, not weights.w2.any())
    if run_usc and weights.w2.any():
        raise ValueError("run_usc needs w2 = 0")
    return {"sequence": sequence, "run_usc": run_usc,
            "m": sec.take("m", _integer(1, M_MAX_LIMIT), 1),
            "slack": sec.take("slack", _number, 1e-3),
            "tail": sec.take("tail", _integer(1), 3),
            "psi": sec.section("psi", _read_psi, {})}


def _read_objective(sec: _Section) -> ObjectiveSpec:
    return ObjectiveSpec(sec.take("kind", _string, "single"),
                         sec.take("k", _integer(), 1),
                         sec.take("weights", _numbers, []))


def _read_constraint(sec: _Section) -> ConstraintSpec:
    return ConstraintSpec(sec.take("kind", _string), sec.take("c", _number),
                          sec.section("psi", _read_psi, None))


def _read_optimizer(sec: _Section) -> dict:
    walls = sec.take("soft_walls", _numbers, [1e2, 1e4])
    if any(s < 0 for s in walls):
        raise ValueError("soft_walls must be >= 0")
    return {"max_iter": sec.take("max_iter", _integer(0), 200),
            "n_starts": sec.take("n_starts", _integer(1), 3),
            "soft_walls": walls,
            "max_thresh_iter": sec.take("max_thresh_iter", _integer(1), 30)}


def validate_config(config, subcommand: str) -> dict:
    """Read a config into the inputs of the subcommand's runner.

    Each key is read once, here; any other key is rejected, and every
    malformed value raises ValidationError naming ``section.key``.
    """
    top = _Section(config, "config")
    grid = top.section("grid", _read_grid)
    inputs = {"grid": grid, "seed": top.take("seed", _integer(0), 0)}
    if subcommand in ("solve", "torsion"):
        inputs["measure"] = top.section(
            "measure", lambda sec: _read_measure(sec, grid))
    if subcommand != "torsion":
        weights = top.section("weights", lambda sec: _read_weights(sec, grid))
        inputs["weights"] = weights
        inputs["solver"], inputs["m_max"] = top.section(
            "solver", _read_solver, {})
    if subcommand == "gamma-diag":
        inputs.update(top.section(
            "gamma", lambda sec: _read_gamma(sec, grid, weights)))
    if subcommand.startswith("optimize-"):
        inputs["objective"] = top.section("objective", _read_objective)
        inputs["constraint"] = top.section("constraint", _read_constraint)
        inputs["optimizer"] = top.section("options", _read_optimizer, {})
    top.close()
    return inputs


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
    _dump(field.grid, field.grid.node_coords(), field.values, fmt, path)


def _dump(grid: GridSpec, coords: np.ndarray, values: np.ndarray, fmt: str,
          path: Path):
    """Write node or cell values as CSV over their coordinates, or as an
    8-bit PGM image (2D only)."""
    if fmt == "csv":
        lines = (",".join(_fmt(c) for c in xy) + "," + _fmt(v) for xy, v
                 in zip(coords.reshape(-1, grid.dim), values.reshape(-1)))
        Path(path).write_text("\n".join(lines) + "\n")
    elif fmt == "pgm":
        if grid.dim != 2:
            raise ValueError("pgm dumps need 2D data")
        _write_pgm(values, path)
    else:
        raise ValueError(f"unknown dump format {fmt!r}")


def _dump_formats(out: Path, stem: str, grid: GridSpec, coords: np.ndarray,
                  values: np.ndarray):
    """stem.csv, plus stem.pgm on a 2D grid."""
    for fmt in ("csv", "pgm")[:grid.dim]:
        _dump(grid, coords, values, fmt, out / f"{stem}.{fmt}")


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
    return {key: getattr(result, key) for key in
            ("lambdas", "residuals", "statuses", "subspace_bounds")}


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
        if u is not None:
            _dump_formats(out, f"field_m{m}", grid, grid.node_coords(),
                          u.values)


def run_solve(inputs: dict, out: Path, timings: dict) -> int:
    grid = inputs["grid"]
    ctx = EnergyContext(grid, inputs["measure"], inputs["weights"])
    t0 = time.perf_counter()
    result = eigen_minimax(ctx, inputs["m_max"], seed=inputs["seed"],
                           options=inputs["solver"])
    timings["solve"] = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    payload = {"version": __version__, "subcommand": "solve",
               "p": grid.p, **_spectral_payload(result)}
    write_json(out / "results.json", payload)
    _write_spectral_csv(out / "results.csv", result)
    _dump_eigenfields(out, grid, result)
    unresolved = any(s == "unresolved" for s in result.statuses)
    return EXIT_NO_CONVERGENCE if unresolved else EXIT_OK


def run_torsion(inputs: dict, out: Path, timings: dict) -> int:
    t0 = time.perf_counter()
    w, report = torsion(inputs["measure"])
    timings["torsion"] = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "results.json", {
        "version": __version__, "subcommand": "torsion",
        "max_w": float(w.values.max()) if w.values.size else 0.0,
        "iterations": report.iterations,
        "final_decrement": report.final_decrement,
        "converged": report.converged,
    })
    _dump_formats(out, "w", w.grid, w.grid.node_coords(), w.values)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def run_gamma_diag(inputs: dict, out: Path, timings: dict) -> int:
    seq, weights, m = inputs["sequence"], inputs["weights"], inputs["m"]
    tails = {"slack": inputs["slack"], "tail": inputs["tail"]}
    t0 = time.perf_counter()
    # both checks judge the same solves
    solves = solve_tail(seq, weights, m, tail=inputs["tail"],
                        seed=inputs["seed"], options=inputs["solver"])
    reports = {"lsc": lsc_check(seq, weights, m, solves=solves, **tails)}
    if inputs["run_usc"]:
        reports["usc"] = usc_check(seq, weights, m, solves=solves, **tails)
    reports["psi_lsc"] = psi_lsc_check(seq, inputs["psi"], **tails)
    timings["gamma"] = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)

    write_json(out / "report.json", {
        "version": __version__, "subcommand": "gamma-diag",
        "s_values": seq.params["s_values"],
        "checks": {k: asdict(r) for k, r in reports.items()}})
    inconclusive = any(r.inconclusive for r in reports.values())
    return EXIT_NO_CONVERGENCE if inconclusive else EXIT_OK


def _write_optimize_result(out: Path, subcommand: str, grid: GridSpec, result,
                           cells_stem: str, cells, **extra) -> int:
    """results.json, history.csv, the optimal cell values and the
    eigenfields of an optimizer run."""
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "results.json", {
        "version": __version__, "subcommand": subcommand,
        "objective": result.objective,
        "constraint_value": result.constraint_value,
        "converged": result.converged,
        **extra,
        **_spectral_payload(result.spectrum),
    })
    rows = ["iteration,objective,constraint"] + [
        f"{r.iteration},{_fmt(r.objective)},{_fmt(r.constraint)}"
        for r in result.history]
    (out / "history.csv").write_text("\n".join(rows) + "\n")
    _dump_formats(out, cells_stem, grid, grid.cell_centers(),
                  np.asarray(cells, dtype=float).reshape(grid.cells_shape))
    _dump_eigenfields(out, grid, result.spectrum)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def run_optimize_potential(inputs: dict, out: Path, timings: dict) -> int:
    t0 = time.perf_counter()
    result = optimize_potential(
        inputs["grid"], inputs["weights"], inputs["objective"],
        inputs["constraint"], seed=inputs["seed"], options=inputs["solver"],
        max_iter=inputs["optimizer"]["max_iter"])
    timings["optimize"] = time.perf_counter() - t0
    return _write_optimize_result(
        out, "optimize-potential", inputs["grid"], result, "V",
        result.potential, saturation_shift=result.saturation_shift)


def run_optimize_set(inputs: dict, out: Path, timings: dict) -> int:
    optimizer = inputs["optimizer"]
    t0 = time.perf_counter()
    result = optimize_set(
        inputs["grid"], inputs["weights"], inputs["objective"],
        inputs["constraint"], seed=inputs["seed"], options=inputs["solver"],
        n_starts=optimizer["n_starts"],
        soft_walls=optimizer["soft_walls"],
        max_thresh_iter=optimizer["max_thresh_iter"])
    timings["optimize"] = time.perf_counter() - t0
    return _write_optimize_result(
        out, "optimize-set", inputs["grid"], result, "mask", result.mask,
        cells_kept=int(result.mask.sum()))


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

    def say(msg):
        if not args.quiet:
            print(msg, file=sys.stderr)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        say(f"error: cannot read config: {exc}")
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        say(f"error: malformed JSON: {exc}")
        return EXIT_VALIDATION
    try:
        inputs = validate_config(config, args.subcommand)
    except ValidationError as exc:
        say(f"error: {exc}")
        return EXIT_VALIDATION
    if args.seed is not None:
        if args.seed < 0:
            say("error: --seed must be >= 0")
            return EXIT_VALIDATION
        inputs["seed"] = args.seed

    out = Path(args.out)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        # runners create out only after their solve returns
        code = _RUNNERS[args.subcommand](inputs, out, timings)
    except InfeasibleConstraint as exc:
        say(f"error: constraint: {exc}")
        return EXIT_VALIDATION
    wall = time.perf_counter() - t0
    write_json(out / "manifest.json", {
        "version": __version__,
        "subcommand": args.subcommand,
        "config_hash": config_hash(config, inputs["seed"]),
        "seed": inputs["seed"],
        "wall_time_s": wall,
        "timings": timings,
    })
    if code == EXIT_NO_CONVERGENCE:
        say("warning: solver did not fully converge; "
            "best-effort artifacts written")
    return code


if __name__ == "__main__":
    sys.exit(main())
