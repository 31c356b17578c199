"""The three benchmark workloads: set-up, one op, and an independent check.

Each workload is a closed loop run by one caller in one process: an op starts
after the previous op and its check have finished. Ops reach tailspec through
module attributes (``cli.main``, ``experiments.run_r_sweep``) at call time,
so the traced run sees the wrappers it installs there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
from tailspec import cli, experiments
from tailspec.simulation import SeededRng

# run_r_sweep draws replication `rep` from rng.split(sweep id, rep); the sweep
# id is 1 under the package's reproducibility contract.
_SWEEP_STREAM = 1
_ABS_TOL_RHO = 1e-12
_REL_TOL_ESTIMATE = 1e-9


def _quiet(fn, *args):
    """Call fn with stdout captured: the CLI echoes its JSON documents."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class EstimateCsv:
    """`tailspec estimate` on a 2x10^5 x 2 CSV; every op reads the same file."""

    name = "estimate_csv"
    rows_per_op = inputs.ROWS

    def __init__(self, workdir: Path, seed: int):
        self.csv = workdir / "estimate_input.csv"
        self.out = workdir / "estimate_out.json"
        ref = workdir / "estimate_ref.json"
        subprocess.run([sys.executable, str(Path(inputs.__file__)),
                        "--seed", str(seed), "--csv", str(self.csv),
                        "--ref", str(ref)], check=True, timeout=120)
        self.ref = json.loads(ref.read_text(encoding="utf-8"))
        self.argv = ["estimate", "--input", str(self.csv), "--out", str(self.out),
                     *inputs.ESTIMATE_FLAGS]

    def op(self, op_seed: int):
        return _quiet(cli.main, self.argv)

    def check(self, op_seed: int, rc) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(self.out.read_text(encoding="utf-8"))
        regions = {e["spec"].split(":")[0]: e["mass"] for e in doc["spectral"]["regions"]}
        got = {"alpha.hat": doc["alpha"]["hat"], "mass.hat": doc["mass"]["hat"],
               "region.arc": regions.get("arc"),
               "region.halfspace": regions.get("halfspace")}
        for key, want in self.ref.items():
            if got[key] is None or not math.isclose(got[key], want,
                                                    rel_tol=_REL_TOL_ESTIMATE):
                return f"{key}: got {got[key]!r}, reference {want!r}"
        return None


class RSweep:
    """One replication of the Example-1 rho sweep over the default r grid."""

    name = "r_sweep"
    rows_per_op = 10**5
    MODEL = '{"kind":"stable","alpha":1.75,"rho":0.5,"total_mass":1.0,"beta":3.5}'

    def __init__(self, workdir: Path, seed: int):
        self.model, self.sampler, _ = cli.parse_model(self.MODEL)
        self.grid = experiments.default_r_grid(self.rows_per_op, "rho")
        if len(self.grid) != 19:
            raise RuntimeError(f"default rho grid has {len(self.grid)} points, not 19")

    def op(self, op_seed: int):
        return experiments.run_r_sweep(self.model, self.rows_per_op, self.grid, 1,
                                       "rho", SeededRng(op_seed),
                                       sampler=self.sampler, workers=1)

    def check(self, op_seed: int, res) -> str | None:
        """rho at each r is the mean sign of the group-maximum rows."""
        rng = SeededRng(op_seed).split(_SWEEP_STREAM, 0)
        x = experiments.draw_sample(self.model, self.rows_per_op, rng,
                                    self.sampler).values[:, 0]
        N = x.shape[0]
        one_minus_r, rho = [], []
        for r in self.grid:
            n = int(math.floor(N ** r + 1e-9))
            m = N // n
            blocks = x[: n * m].reshape(n, m)
            top = blocks[np.arange(n), np.abs(blocks).argmax(axis=1)]
            one_minus_r.append(1.0 - r)
            rho.append(float(np.sign(top).mean()))
        order = np.argsort(one_minus_r, kind="stable")
        if not np.array_equal(res.one_minus_r, np.asarray(one_minus_r)[order]):
            return f"grid mismatch: {res.one_minus_r.tolist()}"
        diff = np.abs(res.mean - np.asarray(rho)[order])
        if not (diff <= _ABS_TOL_RHO).all():
            k = int(diff.argmax())
            return (f"rho at 1-r={res.one_minus_r[k]:.2f}: got {float(res.mean[k])!r}, "
                    f"reference {float(rho[order[k]])!r}")
        return None


class SimulateStable:
    """`tailspec simulate` of the bivariate stable abscos2t model to a CSV."""

    name = "simulate_stable"
    rows_per_op = 5 * 10**4
    MODEL = '{"kind":"stable","alpha":0.75,"total_mass":1.0,"density":"abscos2t"}'
    N_ATOMS = 100

    def __init__(self, workdir: Path, seed: int):
        self.out = workdir / "simulate_out.csv"
        self.model, self.sampler, n_atoms = cli.parse_model(self.MODEL)
        if n_atoms != self.N_ATOMS:
            raise RuntimeError(f"model has {n_atoms} atoms, not {self.N_ATOMS}")

    def op(self, op_seed: int):
        return _quiet(cli.main, ["simulate", "--model", self.MODEL,
                                 "--n", str(self.rows_per_op),
                                 "--seed", str(op_seed), "--out", str(self.out)])

    def check(self, op_seed: int, rc) -> str | None:
        """The CSV must parse back bit-exactly to draw_sample for the seed."""
        try:
            if rc != 0:
                return f"exit code {rc}"
            got = np.loadtxt(self.out, delimiter=",", dtype=np.float64, ndmin=2)
            want = experiments.draw_sample(self.model, self.rows_per_op,
                                           SeededRng(op_seed), self.sampler,
                                           self.N_ATOMS).values
            if got.shape != want.shape:
                return f"shape {got.shape}, expected {want.shape}"
            bad = np.nonzero((got.view(np.uint64) != want.view(np.uint64)).any(axis=1))[0]
            if bad.size:
                return f"row {int(bad[0])}: read {got[bad[0]].tolist()}, drew {want[bad[0]].tolist()}"
            return None
        finally:
            for path in (self.out, Path(str(self.out) + ".meta.json")):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)


WORKLOADS = {w.name: w for w in (EstimateCsv, RSweep, SimulateStable)}
