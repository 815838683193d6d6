import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plapopt.grid import GridSpec, Field
import plapopt.cli as cli_module
from plapopt.cli import (
    ValidationError,
    _dump_formats,
    main,
    validate_config,
)
from helpers import read_field_csv


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def solve_config(n=64, p=2.0, m_max=3):
    return {
        "grid": {"dim": 1, "n": n, "lengths": [1.0], "p": p},
        "seed": 0,
        "measure": {"kind": "zero"},
        "weights": {"w1": 1.0},
        "solver": {"m_max": m_max},
    }


def test_validate_rejects_unknown_keys():
    cfg = solve_config()
    cfg["grid"]["extra"] = 1
    with pytest.raises(ValidationError, match="unknown keys"):
        validate_config(cfg, "solve")
    cfg2 = solve_config()
    cfg2["surprise"] = True
    with pytest.raises(ValidationError, match="unknown keys"):
        validate_config(cfg2, "solve")


def test_validate_requires_sections():
    with pytest.raises(ValidationError, match="missing"):
        validate_config({"grid": {"dim": 1, "n": 8, "lengths": [1.0],
                                  "p": 2.0}}, "solve")


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    code = main(["solve", "--config", str(bad), "--out", str(out),
                 "--quiet"])
    assert code == 2
    assert not out.exists()  # no partial outputs


def test_solve_baseline_run(tmp_path):
    cfg = write_config(tmp_path, solve_config())
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out),
                 "--quiet"])
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    lams = results["lambdas"]
    for m, lam in enumerate(lams, start=1):
        assert math.isclose(lam, (m * math.pi) ** 2, rel_tol=1e-2)
    assert (out / "results.csv").read_text().splitlines()[0] == \
        "m,lambda,residual,status"
    assert (out / "field_m1.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert len(manifest["config_hash"]) == 64


def test_solve_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, solve_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1),
                 "--quiet"]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2),
                 "--quiet"]) == 0
    for name in ("results.json", "results.csv", "field_m1.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_hash_tracks_config(tmp_path):
    cfg1 = write_config(tmp_path, solve_config(), "c1.json")
    cfg2 = write_config(tmp_path, solve_config(n=32), "c2.json")
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    main(["solve", "--config", str(cfg1), "--out", str(out1), "--quiet"])
    main(["solve", "--config", str(cfg2), "--out", str(out2), "--quiet"])
    h1 = json.loads((out1 / "manifest.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "manifest.json").read_text())["config_hash"]
    assert h1 != h2


def test_torsion_run_and_pgm(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"dim": 2, "n": 16, "lengths": [1.0, 1.0], "p": 2.0},
        "measure": {"kind": "zero"},
    })
    out = tmp_path / "out"
    assert main(["torsion", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    pgm = (out / "w.pgm").read_bytes()
    assert pgm.startswith(b"P5\n15 15\n255\n")
    assert len(pgm) == len(b"P5\n15 15\n255\n") + 15 * 15


def test_gamma_diag_run(tmp_path):
    n = 48
    mask = [1] * (n // 2) + [0] * (n // 2)
    cfg = write_config(tmp_path, {
        "grid": {"dim": 1, "n": n, "lengths": [1.0], "p": 2.0},
        "weights": {"w1": 1.0},
        "gamma": {"mask": mask, "s_values": [10.0, 1e3, 1e6], "m": 1,
                  "psi": {"kind": "exp", "beta": 1.0}},
    })
    out = tmp_path / "out"
    assert main(["gamma-diag", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["lsc"]["passed"]
    assert report["checks"]["usc"]["passed"]
    assert report["checks"]["psi_lsc"]["passed"]


def test_gamma_diag_solves_each_member_once(tmp_path, monkeypatch):
    import plapopt.gamma as gamma_mod

    counts = {"torsion": 0, "eigen_minimax": 0}

    def counted(name):
        solve = getattr(gamma_mod, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(gamma_mod, name, wrapper)

    counted("torsion")
    counted("eigen_minimax")
    out = tmp_path / "out"
    config = Path(__file__).resolve().parent.parent / "configs" \
        / "gamma_half_wall.json"
    assert main(["gamma-diag", "--config", str(config), "--out", str(out),
                 "--quiet"]) == 0
    # three tail members and the limit, for both checks together
    assert counts == {"torsion": 4, "eigen_minimax": 4}
    checks = json.loads((out / "report.json").read_text())["checks"]
    for key in ("limit_value", "tail_values", "distances", "statuses"):
        assert checks["usc"][key] == checks["lsc"][key]


def test_gamma_diag_unconverged_torsion_exits_3(tmp_path, monkeypatch):
    import plapopt.gamma as gamma_mod

    solve = gamma_mod.torsion

    def unconverged(mu, *args):
        w, rep = solve(mu, *args)
        return w, type(rep)(rep.iterations, rep.final_decrement, False)

    monkeypatch.setattr(gamma_mod, "torsion", unconverged)
    n = 16
    cfg = write_config(tmp_path, {
        "grid": {"dim": 1, "n": n, "lengths": [1.0], "p": 2.0},
        "weights": {"w1": 1.0},
        "gamma": {"mask": [1] * (n // 2) + [0] * (n // 2),
                  "s_values": [10.0, 1e3], "m": 1,
                  "psi": {"kind": "exp", "beta": 1.0}},
    })
    out = tmp_path / "out"
    assert main(["gamma-diag", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 3
    checks = json.loads((out / "report.json").read_text())["checks"]
    for check in ("lsc", "usc"):
        assert checks[check]["inconclusive"]
        assert checks[check]["distances"] == ["nan", "nan"]
        assert checks[check]["note"] == \
            "torsion did not converge for the limit, sequence element 0, " \
            "sequence element 1"
    assert (out / "manifest.json").exists()


def test_gamma_diag_p15_half_wall_exits_0(tmp_path):
    # the s = 1e3 member's p = 1.5 torsion used to stop unconverged here,
    # which made this valid config exit 3
    n = 16
    cfg = write_config(tmp_path, {
        "grid": {"dim": 2, "n": n, "lengths": [1.0, 1.0], "p": 1.5},
        "weights": {"w1": 1.0},
        "gamma": {"mask": ([1] * (n // 2) + [0] * (n // 2)) * n,
                  "s_values": [10.0, 1e3, 1e6], "m": 1,
                  "psi": {"kind": "exp", "beta": 1.0}},
    })
    out = tmp_path / "out"
    assert main(["gamma-diag", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    distances = checks["lsc"]["distances"]
    assert len(distances) == 3
    assert all(math.isfinite(d) and d > 0.0 for d in distances)
    assert all(b < a for a, b in zip(distances, distances[1:]))


def test_optimize_potential_run(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"dim": 1, "n": 48, "lengths": [1.0], "p": 2.0},
        "weights": {"w1": 1.0},
        "objective": {"kind": "single", "k": 1},
        "constraint": {"kind": "psi_budget", "c": 0.5,
                       "psi": {"kind": "exp", "beta": 1.0}},
    })
    out = tmp_path / "out"
    assert main(["optimize-potential", "--config", str(cfg), "--out",
                 str(out), "--quiet"]) == 0
    hist = (out / "history.csv").read_text().splitlines()
    assert hist[0] == "iteration,objective,constraint"
    results = json.loads((out / "results.json").read_text())
    assert abs(results["constraint_value"] - 0.5) <= 1e-6
    assert (out / "V.csv").exists()


def test_optimize_set_run(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"dim": 2, "n": 16, "lengths": [1.0, 1.0], "p": 2.0},
        "weights": {"w1": 1.0},
        "objective": {"kind": "single", "k": 1},
        "constraint": {"kind": "volume", "c": 0.5},
        "options": {"n_starts": 1},
    })
    out = tmp_path / "out"
    assert main(["optimize-set", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["cells_kept"] == 128
    assert (out / "mask.pgm").exists()


def test_infeasible_constraint_exits_2(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"dim": 1, "n": 16, "lengths": [1.0], "p": 2.0},
        "weights": {"w1": 1.0},
        "objective": {"kind": "single", "k": 1},
        "constraint": {"kind": "psi_budget", "c": 5.0,
                       "psi": {"kind": "exp", "beta": 1.0}},
    })
    out = tmp_path / "out_bad"
    code = main(["optimize-potential", "--config", str(cfg), "--out",
                 str(out), "--quiet"])
    assert code == 2


def _run_with_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().strip().splitlines()


@pytest.mark.parametrize("subcommand,kind", [
    ("optimize-potential", "volume"), ("optimize-set", "psi_budget")])
def test_constraint_of_the_other_optimizer_exits_2(tmp_path, subcommand,
                                                   kind):
    # each kind is valid, but only for the other optimizer
    payload = json.loads(json.dumps(TINY_CONFIGS[subcommand]))
    payload["constraint"] = {"kind": kind, "c": 0.5,
                             "psi": {"kind": "exp", "beta": 1.0}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code, lines = _run_with_stderr([subcommand, "--config", str(cfg),
                                    "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "constraint.kind" in lines[0]


@pytest.mark.parametrize("under", [False, True])
def test_out_at_or_under_a_file_exits_2_before_the_solve(tmp_path,
                                                         monkeypatch, under):
    def runner(*args):
        raise AssertionError("the runner started")

    monkeypatch.setitem(cli_module._RUNNERS, "solve", runner)
    cfg = write_config(tmp_path, solve_config(n=16))
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "out" if under else taken
    code, lines = _run_with_stderr(["solve", "--config", str(cfg), "--out",
                                    str(out)])
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("section,key,value", [
    ("solver", "n_starts", "abc"),
    ("solver", "m_max", 0),
    ("solver", "m_max", 99),
    ("measure", "atoms", 5),
    ("weights", "w1", [None]),
    ("measure", "density", "abc"),
    ("solver", "descent_max_iter", 4000),
    ("solver", "newton_max_iter", 60),
    ("solver", "max_restarts", 3),
    ("solver", "cert_tol", 1e-6),
])
def test_invalid_solve_values_exit_2_before_writing(tmp_path, capsys,
                                                    section, key, value):
    payload = solve_config(n=16)
    payload[section][key] = value
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REMOVE = object()


@pytest.mark.parametrize("subcommand,name,section,key,value", [
    ("gamma-diag", "gamma_half_wall", "gamma", "mask", REMOVE),
    ("gamma-diag", "gamma_half_wall", "gamma", "s_values", ["a", 1.0]),
    ("gamma-diag", "gamma_half_wall", "gamma", "m", "x"),
    ("gamma-diag", "gamma_half_wall", "gamma", "slack", "x"),
    ("gamma-diag", "gamma_half_wall", "gamma", "tail", "x"),
    ("optimize-potential", "optimize_potential_exp", "options", "max_iter",
     "abc"),
    ("optimize-potential", "optimize_potential_exp", "objective", "weights",
     5),
    ("optimize-set", "optimize_set_half_volume", "options", "n_starts",
     "abc"),
    ("optimize-set", "optimize_set_half_volume", "options", "soft_walls", 5),
    ("optimize-set", "optimize_set_half_volume", "options",
     "max_thresh_iter", "x"),
])
def test_invalid_shipped_config_values_exit_2_before_writing(
        tmp_path, capsys, subcommand, name, section, key, value):
    payload = json.loads((CONFIGS / f"{name}.json").read_text())
    payload.setdefault(section, {})
    if value is REMOVE:
        del payload[section][key]
    else:
        payload[section][key] = value
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"{section}.{key}" in err[0], err


@pytest.mark.parametrize("subcommand,key,value", [
    ("optimize-set", "max_iter", 2),
    ("optimize-potential", "n_starts", 1),
    ("optimize-potential", "soft_walls", [100.0]),
    ("optimize-potential", "max_thresh_iter", 3),
])
def test_option_of_the_other_optimizer_exits_2(tmp_path, subcommand, key,
                                               value):
    # each key is valid, but only for the other optimizer
    payload = json.loads(json.dumps(TINY_CONFIGS[subcommand]))
    payload["options"][key] = value
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code, lines = _run_with_stderr([subcommand, "--config", str(cfg),
                                    "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "options: unknown keys" in lines[0] and key in lines[0], lines


def test_optimize_set_defaults_of_the_cli_are_the_api_defaults():
    # a config without an options section runs optimize_set on the
    # defaults of its signature
    import inspect
    from plapopt.optimize import optimize_set
    payload = json.loads(
        (CONFIGS / "optimize_set_half_volume.json").read_text())
    del payload["options"]
    optimizer = validate_config(payload, "optimize-set")["optimizer"]
    params = inspect.signature(optimize_set).parameters
    for name in ("n_starts", "soft_walls", "max_thresh_iter"):
        value = optimizer[name]
        if isinstance(value, list):
            value = tuple(value)
        assert value == params[name].default, name


_SMALL_SOLVER = {"m_max": 2, "n_starts": 4, "max_ascent_iter": 20,
                 "max_outer_iter": 2}
_GRID_1D = {"dim": 1, "n": 8, "lengths": [1.0], "p": 2.0}
_GRID_2D = {"dim": 2, "n": 6, "lengths": [1.0, 1.0], "p": 2.0}
TINY_CONFIGS = {
    "solve": {
        "grid": _GRID_1D, "seed": 0,
        "measure": {"kind": "potential", "density": 1.0,
                    "mask": [1, 1, 1, 1, 0, 0, 0, 0], "atoms": [[3, 0.5]]},
        "weights": {"w1": 1.0, "w1_atoms": [[2, 0.5]], "w2": 0.0},
        "solver": _SMALL_SOLVER,
    },
    "torsion": {
        "grid": _GRID_2D, "seed": 0,
        "measure": {"kind": "quasi_open", "mask": [1] * 30 + [0] * 6},
    },
    "gamma-diag": {
        "grid": _GRID_1D, "seed": 0,
        "weights": {"w1": 1.0},
        "gamma": {"mask": [1, 1, 1, 1, 0, 0, 0, 0],
                  "s_values": [10.0, 1e3, 1e6], "m": 1, "slack": 1e-3,
                  "tail": 3, "psi": {"kind": "exp", "beta": 1.0},
                  "run_usc": True},
        "solver": _SMALL_SOLVER,
    },
    "optimize-potential": {
        "grid": _GRID_1D, "seed": 0,
        "weights": {"w1": 1.0},
        "objective": {"kind": "single", "k": 1},
        "constraint": {"kind": "psi_budget", "c": 0.5,
                       "psi": {"kind": "exp", "beta": 1.0}},
        "options": {"max_iter": 2},
        "solver": _SMALL_SOLVER,
    },
    "optimize-set": {
        "grid": _GRID_2D, "seed": 0,
        "weights": {"w1": 1.0},
        "objective": {"kind": "weighted_sum", "weights": [1.0, 0.5]},
        "constraint": {"kind": "volume", "c": 0.5},
        "options": {"n_starts": 1, "soft_walls": [100.0],
                    "max_thresh_iter": 3},
        "solver": _SMALL_SOLVER,
    },
}


def _leaf_paths(node, path=()):
    """Paths to every value that is not an object: lists and their items."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
        return
    yield path
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))


_DRAWN = st.one_of(
    st.none(), st.text(max_size=4), st.booleans(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.integers(-3, 3), st.floats(-3.0, 3.0))


@pytest.mark.parametrize("subcommand", sorted(TINY_CONFIGS))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_one_changed_value_exits_0_2_or_3(subcommand, data):
    payload = json.loads(json.dumps(TINY_CONFIGS[subcommand]))
    path = data.draw(st.sampled_from(list(_leaf_paths(payload))))
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = data.draw(_DRAWN)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), payload)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_field_csv_roundtrip(tmp_path):
    g = GridSpec(1, 16, (1.0,), 2.0)
    rng = np.random.default_rng(5)
    f = Field(g, rng.standard_normal(g.n_nodes))
    path = tmp_path / "f.csv"
    _dump_formats(tmp_path, "f", g, g.node_coords(), f.values)
    lines = path.read_text().splitlines()
    assert len(lines) == g.n - 1
    assert all(len(line.split(",")) == 2 for line in lines)
    back = read_field_csv(g, path)
    assert np.array_equal(back.values, f.values)


def test_constant_field_pgm_uniform_gray(tmp_path):
    g = GridSpec(2, 8, (1.0, 1.0), 2.0)
    f = Field(g, np.full(g.n_nodes, 3.7))
    path = tmp_path / "c.pgm"
    _dump_formats(tmp_path, "c", g, g.node_coords(), f.values)
    data = path.read_bytes()
    body = data.split(b"255\n", 1)[1]
    assert set(body) == {128}


def test_measure_json_inf_density(tmp_path):
    n = 16
    density = [0.0] * n
    density[5] = "inf"
    cfg = write_config(tmp_path, {
        "grid": {"dim": 1, "n": n, "lengths": [1.0], "p": 2.0},
        "measure": {"kind": "potential", "density": density},
    })
    out = tmp_path / "out"
    assert main(["torsion", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    w = read_field_csv(GridSpec(1, n, (1.0,), 2.0), out / "w.csv")
    # torsion vanishes on the nodes of the blocked cell
    assert w.values[4] == 0.0 and w.values[5] == 0.0
    assert w.values.max() > 0.0


def test_atoms_in_config_dirac(tmp_path):
    n = 64
    cfg = write_config(tmp_path, {
        "grid": {"dim": 1, "n": n, "lengths": [2.0], "p": 3.0},
        "measure": {"kind": "zero"},
        "weights": {"w1": 0.0, "w1_atoms": [[n // 2 - 1, 1.0]]},
        "solver": {"m_max": 2},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    results = json.loads((out / "results.json").read_text())
    assert math.isclose(results["lambdas"][0], 2.0, rel_tol=2e-2)
    assert results["lambdas"][1] == "inf"
    assert results["statuses"] == ["finite", "infeasible"]


def test_non_convergence_exits_3_with_artifacts(tmp_path):
    # a single allowed iteration cannot reach stationarity
    cfg = write_config(tmp_path, {
        "grid": {"dim": 1, "n": 32, "lengths": [1.0], "p": 2.0},
        "weights": {"w1": 1.0},
        "objective": {"kind": "single", "k": 1},
        "constraint": {"kind": "psi_budget", "c": 0.5,
                       "psi": {"kind": "exp", "beta": 1.0}},
        "options": {"max_iter": 1},
    })
    out = tmp_path / "out"
    code = main(["optimize-potential", "--config", str(cfg), "--out",
                 str(out), "--quiet"])
    assert code == 3
    assert (out / "results.json").exists()
    assert (out / "history.csv").exists()
    assert (out / "manifest.json").exists()


def test_sign_changing_config_solves_on_the_sparse_pencil(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config",
                 str(CONFIGS / "solve_sign_changing_2d.json"),
                 "--out", str(out), "--quiet"]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["statuses"] == ["finite"] * 4


def test_square_p3_config_runs_the_general_p_path(tmp_path):
    # the shipped general-p config with m >= 2: every level certified and
    # at or below its reported subspace bound; a second run writes the
    # same files
    files = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["solve", "--config",
                     str(CONFIGS / "solve_square_p3.json"), "--out",
                     str(out), "--quiet"]) == 0
        files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                      if f.name != "manifest.json"})
    assert files[0] == files[1]
    results = json.loads(files[0]["results.json"])
    assert results["statuses"] == ["finite"] * 3
    for lam, bound in zip(results["lambdas"], results["subspace_bounds"]):
        assert lam <= bound


def test_l_shape_p15_torsion_config_converges_and_reruns_identically(
        tmp_path):
    # the shipped p < 2 torsion config runs the smoothing ladder on an
    # L-shaped quasi-open set; a second run writes the same files
    config = str(CONFIGS / "torsion_l_shape_p15.json")
    files = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["torsion", "--config", config, "--out", str(out),
                     "--quiet"]) == 0
        files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                      if f.name != "manifest.json"})
    assert json.loads(files[0]["results.json"])["converged"] is True
    assert files[0] == files[1]


def test_unconverged_pencil_exits_3_with_the_converged_pairs(
        tmp_path, monkeypatch):
    import scipy.sparse.linalg as spla

    real_eigsh = spla.eigsh

    def one_pair(*args, **kwargs):
        vals, vecs = real_eigsh(*args, **{**kwargs, "k": 1})
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       vals, vecs)

    monkeypatch.setattr(spla, "eigsh", one_pair)
    out = tmp_path / "out"
    assert main(["solve", "--config",
                 str(CONFIGS / "solve_sign_changing_2d.json"),
                 "--out", str(out), "--quiet"]) == 3
    results = json.loads((out / "results.json").read_text())
    assert results["statuses"] == ["finite"] + ["unresolved"] * 3
    assert results["lambdas"][1:] == ["inf"] * 3
    assert (out / "field_m1.csv").exists()
    assert not (out / "field_m2.csv").exists()
    assert (out / "manifest.json").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg_payload = {
        "grid": {"dim": 2, "n": 12, "lengths": [1.0, 1.0], "p": 2.0},
        "seed": 0,
        "weights": {"w1": 1.0},
        "objective": {"kind": "single", "k": 1},
        "constraint": {"kind": "volume", "c": 0.4},
        "options": {"n_starts": 1},
    }
    cfg = write_config(tmp_path, cfg_payload)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["optimize-set", "--config", str(cfg), "--out", str(out1),
          "--quiet"])
    main(["optimize-set", "--config", str(cfg), "--out", str(out2),
          "--quiet", "--seed", "9"])
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["seed"] == 0 and m2["seed"] == 9
    assert m1["config_hash"] != m2["config_hash"]
