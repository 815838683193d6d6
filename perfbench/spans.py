"""Spans around plapopt's layer boundaries, recorded from outside the program.

The tracer replaces each traced function with a wrapper in every loaded
``plapopt`` module that holds it, so a name imported by value (say
``from plapopt.energy import f_energy`` in ``spectrum``) is traced where
it is looked up; the scipy boundary is traced on ``scipy.linalg`` and
``scipy.sparse.linalg``, which the program reaches through the module.
Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

import scipy.linalg
import scipy.sparse.linalg

import plapopt.energy
import plapopt.hessians
import plapopt.operators
import plapopt.optimize
import plapopt.solvers
import plapopt.spectrum
import plapopt.gamma
import plapopt.cli

# the package re-exports the function torsion under its module's name
_torsion = importlib.import_module("plapopt.torsion")

# layer boundaries: span name -> (module, attribute)
TRACED = {
    "spectrum.sup_on_sphere": (plapopt.spectrum, "sup_on_sphere"),
    "spectrum.polish_eigenpair": (plapopt.spectrum, "polish_eigenpair"),
    "spectrum.eigen_minimax": (plapopt.spectrum, "eigen_minimax"),
    "energy.f_energy": (plapopt.energy, "f_energy"),
    "energy.g_energy": (plapopt.energy, "g_energy"),
    "energy.energy_gradient": (plapopt.energy, "energy_gradient"),
    "energy.g_gradient": (plapopt.energy, "g_gradient"),
    "energy.residual": (plapopt.energy, "residual"),
    "energy.dual_norm": (plapopt.energy, "dual_norm"),
    "energy.rayleigh": (plapopt.energy, "rayleigh"),
    "hessians.hessian_f": (plapopt.hessians, "hessian_f"),
    "hessians.hessian_g_diff": (plapopt.hessians, "hessian_g_diff"),
    "operators.gradient_ops": (plapopt.operators, "gradient_ops"),
    "operators.anchor_op": (plapopt.operators, "anchor_op"),
    "operators.free_node_mask": (plapopt.operators, "free_node_mask"),
    "operators.p2_matrices": (plapopt.operators, "p2_matrices"),
    "solvers.bb_minimize": (plapopt.solvers, "bb_minimize"),
    "solvers.newton_refine": (plapopt.solvers, "newton_refine"),
    "torsion.torsion": (_torsion, "torsion"),
    "torsion.prox": (_torsion, "prox"),
    "torsion.gamma_distance": (_torsion, "gamma_distance"),
    "optimize.optimize_potential": (plapopt.optimize, "optimize_potential"),
    "optimize.optimize_set": (plapopt.optimize, "optimize_set"),
    "gamma.lsc_check": (plapopt.gamma, "lsc_check"),
    "gamma.usc_check": (plapopt.gamma, "usc_check"),
    "gamma.psi_lsc_check": (plapopt.gamma, "psi_lsc_check"),
    "cli.main": (plapopt.cli, "main"),
    "linalg.eigh": (scipy.linalg, "eigh"),
    "linalg.eigsh": (scipy.sparse.linalg, "eigsh"),
    "linalg.spsolve": (scipy.sparse.linalg, "spsolve"),
}

# per-layer metrics in output order, with their units
METRICS = {
    "spectrum.sup_on_sphere.calls": "count",
    "spectrum.sup_on_sphere.self_s": "s",
    "spectrum.sup_on_sphere.infeasible": "count",
    "spectrum.sup_on_sphere.infeasible_share": "ratio",
    "spectrum.polish_eigenpair.calls": "count",
    "spectrum.polish_eigenpair.s": "s",
    "spectrum.eigen_minimax.calls": "count",
    "spectrum.eigen_minimax.s": "s",
    "energy.calls": "count",
    "energy.self_s": "s",
    "hessians.calls": "count",
    "hessians.s": "s",
    "operators.calls": "count",
    "operators.s": "s",
    "solvers.bb_minimize.iterations": "count",
    "solvers.bb_minimize.s": "s",
    "solvers.newton_refine.iterations": "count",
    "solvers.newton_refine.s": "s",
    "torsion.torsion.calls": "count",
    "torsion.torsion.s": "s",
    "torsion.prox.calls": "count",
    "torsion.prox.s": "s",
    "torsion.gamma_distance.calls": "count",
    "torsion.unconverged": "count",
    "linalg.eigh.calls": "count",
    "linalg.eigh.s": "s",
    "linalg.eigh.max_dim": "rows",
    "linalg.eigsh.calls": "count",
    "linalg.eigsh.s": "s",
    "linalg.spsolve.calls": "count",
    "linalg.spsolve.s": "s",
    "optimize.spectral_solves": "count",
    "optimize.accepted_steps": "count",
    "optimize.s": "s",
    "gamma.s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, round/op, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        for name, (module, attr) in TRACED.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            homes = [module] + [m for key, m in sys.modules.items()
                                if key.split(".")[0] == "plapopt"
                                and m is not module]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        self._patched.append((home, key, original))
                        setattr(home, key, wrapper)

    def uninstall(self):
        for home, key, original in reversed(self._patched):
            setattr(home, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, tracer.op, time.perf_counter(), 0.0,
                    tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer.counts, args, kwargs, result, span)
            return result

        return traced

    # ------------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round (every round runs the same ops).

        ``.s`` is the time inside a function or layer, callees included,
        counted once where it calls itself; ``.self_s`` leaves out the
        time of traced callees.
        """
        n = len(self.spans)
        dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                child[s[4]] += dur[i]
        calls, self_s, incl = Counter(), Counter(), Counter()
        spectral_solves = 0
        for i, s in enumerate(self.spans):
            name = s[0]
            layer = name.split(".")[0]
            calls[name] += 1
            calls[layer] += 1
            self_s[name] += dur[i] - child[i]
            self_s[layer] += dur[i] - child[i]
            ancestors = self._ancestor_names(i)
            if name not in ancestors:
                incl[name] += dur[i]
            if layer not in {a.split(".")[0] for a in ancestors}:
                incl[layer] += dur[i]
            if name == "spectrum.eigen_minimax" and any(
                    a.startswith("optimize.") for a in ancestors):
                spectral_solves += 1
        c = self.counts
        sup_calls = calls["spectrum.sup_on_sphere"]
        infeasible = c["spectrum.sup_on_sphere.raised.InfeasibleSubspace"]
        per_round = {
            "spectrum.sup_on_sphere.calls": sup_calls,
            "spectrum.sup_on_sphere.self_s": self_s["spectrum.sup_on_sphere"],
            "spectrum.sup_on_sphere.infeasible": infeasible,
            "spectrum.polish_eigenpair.calls":
                calls["spectrum.polish_eigenpair"],
            "spectrum.polish_eigenpair.s": incl["spectrum.polish_eigenpair"],
            "spectrum.eigen_minimax.calls": calls["spectrum.eigen_minimax"],
            "spectrum.eigen_minimax.s": incl["spectrum.eigen_minimax"],
            "energy.calls": calls["energy"],
            "energy.self_s": self_s["energy"],
            "hessians.calls": calls["hessians"],
            "hessians.s": incl["hessians"],
            "operators.calls": calls["operators"],
            "operators.s": incl["operators"],
            "solvers.bb_minimize.iterations":
                c["solvers.bb_minimize.iterations"],
            "solvers.bb_minimize.s": incl["solvers.bb_minimize"],
            "solvers.newton_refine.iterations":
                c["solvers.newton_refine.iterations"],
            "solvers.newton_refine.s": incl["solvers.newton_refine"],
            "torsion.torsion.calls": calls["torsion.torsion"],
            "torsion.torsion.s": incl["torsion.torsion"],
            "torsion.prox.calls": calls["torsion.prox"],
            "torsion.prox.s": incl["torsion.prox"],
            "torsion.gamma_distance.calls": calls["torsion.gamma_distance"],
            "torsion.unconverged": c["torsion.unconverged"],
            "linalg.eigh.calls": calls["linalg.eigh"],
            "linalg.eigh.s": incl["linalg.eigh"],
            "linalg.eigsh.calls": calls["linalg.eigsh"],
            "linalg.eigsh.s": incl["linalg.eigsh"],
            "linalg.spsolve.calls": calls["linalg.spsolve"],
            "linalg.spsolve.s": incl["linalg.spsolve"],
            "optimize.spectral_solves": spectral_solves,
            "optimize.accepted_steps": c["optimize.accepted_steps"],
            "optimize.s": incl["optimize"],
            "gamma.s": incl["gamma"],
            "cli.self_s": c["cli.self_s"],
        }
        values = {key: value / rounds for key, value in per_round.items()}
        values["spectrum.sup_on_sphere.infeasible_share"] = \
            infeasible / sup_calls if sup_calls else 0.0
        values["linalg.eigh.max_dim"] = c["linalg.eigh.max_dim"]
        return {key: {"value": values[key], "unit": unit}
                for key, unit in METRICS.items()}

    def _ancestor_names(self, i: int) -> list[str]:
        names = []
        parent = self.spans[i][4]
        while parent >= 0:
            names.append(self.spans[parent][0])
            parent = self.spans[parent][4]
        return names

    def write(self, path: Path):
        """Spans as JSON lines: name, op, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# counters read from return values

def _solver_iterations(name):
    def after(counts, args, kwargs, result, span):
        counts[f"{name}.iterations"] += result[1]["iterations"]
    return after


def _unconverged(counts, args, kwargs, result, span):
    if not result[1].converged:
        counts["torsion.unconverged"] += 1


def _accepted(counts, args, kwargs, result, span):
    counts["optimize.accepted_steps"] += sum(
        1 for row in result.history if row.accepted)


def _eigh_dim(counts, args, kwargs, result, span):
    counts["linalg.eigh.max_dim"] = max(counts["linalg.eigh.max_dim"],
                                        int(args[0].shape[0]))


def _cli_self(counts, args, kwargs, result, span):
    """main's wall time minus the stage timings it wrote to the manifest."""
    argv = list(args[0] if args else kwargs["argv"])
    manifest = Path(argv[argv.index("--out") + 1]) / "manifest.json"
    staged = 0.0
    if manifest.is_file():
        staged = sum(json.loads(manifest.read_text())["timings"].values())
    counts["cli.self_s"] += (span[3] - span[2]) - staged


_AFTER = {
    "solvers.bb_minimize": _solver_iterations("solvers.bb_minimize"),
    "solvers.newton_refine": _solver_iterations("solvers.newton_refine"),
    "torsion.torsion": _unconverged,
    "torsion.prox": _unconverged,
    "optimize.optimize_potential": _accepted,
    "optimize.optimize_set": _accepted,
    "linalg.eigh": _eigh_dim,
    "cli.main": _cli_self,
}
