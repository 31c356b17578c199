"""The benchmark's wrap sites still exist and are called.

perfbench's traced run wraps tailspec functions by module attribute and its
work counters read some arguments by name (``est``, ``scheme``, ``data``,
``path``, ``atoms``, ``N``), so a rename or a deletion in the package breaks
the benchmark.  Each test runs one small op of a workload's path under
``spans.Tracer`` and checks that every function MUST_CALL names for that
workload was called; the "Traced benchmark smoke" step of tier1.yml reads
MUST_CALL too, for the full traced runs.  Nothing in perfbench/ is changed.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tailspec import cli, experiments
from tailspec.simulation import SeededRng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the functions each workload's ops call: a refactor that routes around one
# would read 0 calls and zero that layer's metrics
MUST_CALL = {
    # spectral_mass's counter reads the argument named est
    "estimate_csv": {"cli.main", "cli.parse_region", "cli.read_csv", "types.validate_data",
                     "grouping.plan_grouping", "grouping.summarize_groups",
                     "estimators.estimate_alpha", "estimators.alpha_ci",
                     "estimators.estimate_spectral", "estimators.spectral_mass",
                     "estimators.spectral_ci", "estimators.spectral_cdf_2d",
                     "estimators.estimate_total_mass", "estimators.total_mass_ci",
                     "numerics.gamma_fn", "numerics.normal_quantile", "tuning.default_t"},
    "r_sweep": {"experiments.run_r_sweep", "experiments.draw_sample",
                "simulation.sample_stable_1d", "grouping.plan_grouping",
                "grouping.summarize_groups", "estimators.estimate_spectral",
                "estimators.rho_1d", "numerics.gamma_fn"},
    "simulate_stable": {"cli.main", "cli.parse_model", "cli.write_csv",
                        "experiments.draw_sample", "simulation.discretize_angular_density",
                        "simulation.sample_stable_vector", "numerics.gamma_fn"},
}


@pytest.fixture
def bench(monkeypatch):
    """perfbench's spans, inputs and workloads modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import spans
    import workloads
    return spans, inputs, workloads


def _traced(spans, op) -> tuple[object, set[str]]:
    """op() under an installed tracer: its result and the names called."""
    tracer = spans.Tracer()
    with tracer.installed(0), contextlib.redirect_stdout(io.StringIO()):
        result = op()
    return result, {span[0] for span in tracer.spans}


def test_estimate_csv_sites(bench, tmp_path):
    spans, inputs, _ = bench
    csv = tmp_path / "in.csv"
    inputs.write_csv(str(csv), inputs.polar_abscos2t(1, rows=4000))
    argv = ["estimate", "--input", str(csv), "--out", str(tmp_path / "doc.json"),
            *inputs.ESTIMATE_FLAGS]
    assert argv.count("--region") == 2  # one arc and one halfspace
    rc, called = _traced(spans, lambda: cli.main(argv))
    assert rc == 0
    assert MUST_CALL["estimate_csv"] <= called


@pytest.mark.parametrize("rows", [4000, 2 * 10**4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_estimate_csv_matches_reference(bench, tmp_path, seed, rows):
    """The `estimate` document against perfbench's own reference, which
    shares no code with tailspec, at the benchmark's relative tolerance."""
    _, inputs, _ = bench
    x = inputs.polar_abscos2t(seed, rows=rows)
    csv, out = tmp_path / "in.csv", tmp_path / "doc.json"
    inputs.write_csv(str(csv), x)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["estimate", "--input", str(csv), "--out", str(out),
                         *inputs.ESTIMATE_FLAGS]) == 0
    doc = json.loads(out.read_text())
    arc, half = doc["spectral"]["regions"]
    got = {"alpha.hat": doc["alpha"]["hat"], "mass.hat": doc["mass"]["hat"],
           "region.arc": arc["mass"], "region.halfspace": half["mass"]}
    assert got == pytest.approx(inputs.estimate_reference(x), rel=1e-9, abs=0.0)


def test_r_sweep_sites(bench):
    spans, _, workloads = bench
    model, sampler, _ = cli.parse_model(workloads.RSweep.MODEL)
    grid = experiments.default_r_grid(2000, "rho")
    res, called = _traced(spans, lambda: experiments.run_r_sweep(
        model, 2000, grid, 1, "rho", SeededRng(1), sampler=sampler, workers=1))
    assert res.mean.shape == (len(grid),)
    assert MUST_CALL["r_sweep"] <= called


def test_simulate_stable_sites(bench, tmp_path):
    spans, _, workloads = bench
    argv = ["simulate", "--model", workloads.SimulateStable.MODEL, "--n", "2000",
            "--seed", "1", "--out", str(tmp_path / "x.csv")]
    rc, called = _traced(spans, lambda: cli.main(argv))
    assert rc == 0
    assert MUST_CALL["simulate_stable"] <= called
