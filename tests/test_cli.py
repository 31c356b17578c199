"""CLI behavior: hand-checked estimates, round-trips, exit codes, schemas."""

import gzip
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailspec
from tailspec import estimators, experiments, grouping, numerics, tuning
from tailspec.cli import (CliUsage, build_parser, main, parse_model, parse_region, read_csv,
                          write_csv)
from tailspec.errors import CsvParseError
from tailspec.simulation import SeededRng, sample_stable_1d, stable_tail_constant
from tailspec.types import Halfspace

SIX_ROWS = "3,4\n0,1\n-6,8\n1,0\n0,1\n0,0\n"


@pytest.fixture
def six_row_csv(tmp_path):
    p = tmp_path / "six.csv"
    p.write_text(SIX_ROWS)
    return p


class TestCsvIo:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=np.array([21, 0], np.uint64)))
        vals = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-8, 9, (40, 3))
        p = tmp_path / "m.csv"
        write_csv(p, vals)
        back = read_csv(p)
        assert (back.values == vals).all()

    def test_parse_error_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n1,abc\n3,4\n")
        with pytest.raises(CsvParseError) as exc:
            read_csv(p)
        assert exc.value.line == 2

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2\n1\n")
        with pytest.raises(CsvParseError):
            read_csv(p)

    @pytest.mark.parametrize("raw, line", [
        (b"\xff,1\n2,3\n", 1),
        (b"1,2\r\n3,4\r\n5,\xe9\r\n", 3),
        (b"1,2\n\xed\xa0\x80,4\n", 2),  # an encoded surrogate is not UTF-8
    ])
    def test_non_utf8_line_named(self, tmp_path, raw, line):
        p = tmp_path / "latin1.csv"
        p.write_bytes(raw)
        with pytest.raises(CsvParseError, match="not valid UTF-8") as e:
            read_csv(p)
        assert e.value.line == line

    def test_non_utf8_header_skipped(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"caf\xe9,x\n1,2\n")
        assert read_csv(p, skip_header=True).values.tolist() == [[1.0, 2.0]]

    def test_skip_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("x,y\n1,2\n")
        d = read_csv(p, skip_header=True)
        assert d.rows == 1

    def test_compressed_name_read_as_text(self, tmp_path):
        # numpy would decompress a path ending in .gz; read_csv reads the text
        p = tmp_path / "x.csv.gz"
        p.write_text("1,2\n3,4\n", encoding="utf-8")
        assert read_csv(p).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_gzip_file_exit_3(self, tmp_path, capsys):
        p = tmp_path / "x.csv.gz"
        p.write_bytes(gzip.compress(b"1,2\n3,4\n"))
        assert main(["estimate", "--input", str(p), "--r", "0.5"]) == 3
        assert "line 1: line is not valid UTF-8" in capsys.readouterr().err

    def test_relative_path_and_path_give_same_bits(self, tmp_path, monkeypatch):
        vals = np.random.default_rng(8).standard_cauchy((300, 2))
        write_csv(tmp_path / "rel.csv", vals)
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        for path in ("rel.csv", Path("rel.csv"), str(tmp_path / "rel.csv"),
                     Path("sub") / ".." / "rel.csv"):
            assert read_csv(path).values.tobytes() == vals.tobytes()

    def test_url_like_relative_path_is_a_local_file(self, tmp_path, monkeypatch):
        import urllib.request

        def no_fetch(*args, **kwargs):
            raise AssertionError("read_csv tried to fetch a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "x.csv").write_text("1,2\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert read_csv("http://host/x.csv").values.tolist() == [[1.0, 2.0]]

    def test_directory_raises_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            read_csv(tmp_path)


class TestEstimateCommand:
    def test_hand_computed_six_rows(self, six_row_csv, tmp_path, capsys):
        out = tmp_path / "doc.json"
        rc = main(["estimate", "--input", str(six_row_csv), "--r", "0.4",
                   "--region", "halfspace:1,0:0.5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["scheme"] == {"r": 0.4, "n": 2, "m": 3, "discarded": 0}
        # group 1: norms (5, 1, 10) -> M1=10, M2=5, kappa=.5
        # group 2: norms (1, 1, 0) -> M1=M2=1, kappa=1
        assert doc["alpha"]["s_n"] == pytest.approx(1.5)
        assert doc["alpha"]["hat"] == pytest.approx(3.0)
        assert doc["alpha"]["kappa_var"] == pytest.approx(0.0625)
        # p-interval upper end exceeds 1 -> infinite alpha upper bound
        assert doc["alpha"]["ci"]["hi"] == "inf"
        # halfspace <theta,e1> > 0.5 catches only the (1,0) atom
        assert doc["spectral"]["regions"][0]["mass"] == pytest.approx(0.5)
        assert len(doc["spectral"]["cdf"]) == 128
        assert any("plug-in" in w for w in doc["warnings"])

    def test_matches_library_pipeline(self, six_row_csv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["estimate", "--input", str(six_row_csv), "--r", "0.4"])
        assert rc == 0
        doc = json.loads(buf.getvalue())
        data = read_csv(six_row_csv)
        scheme = grouping.plan_grouping(6, 0.4)
        summaries = grouping.summarize_groups(data, scheme)
        alpha = estimators.estimate_alpha(summaries)
        t = tuning.default_t(alpha.alpha_hat, 0.4)
        mass = estimators.estimate_total_mass(summaries, alpha.alpha_hat, t)
        assert doc["alpha"]["hat"] == alpha.alpha_hat
        assert doc["mass"]["hat"] == mass.mass_hat
        assert doc["mass"]["t"] == t

    def test_malformed_row_exit_3(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n1,abc\n")
        assert main(["estimate", "--input", str(p), "--r", "0.4"]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_nan_exit_3(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("1,2\nnan,4\n3,4\n5,6\n")
        assert main(["estimate", "--input", str(p), "--r", "0.4"]) == 3

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "nope.csv"),
                     "--r", "0.5"]) == 3

    def test_bad_r_exit_2(self, six_row_csv):
        assert main(["estimate", "--input", str(six_row_csv), "--r", "1.5"]) == 2

    def test_r_auto_needs_alpha(self, six_row_csv):
        assert main(["estimate", "--input", str(six_row_csv)]) == 2

    def test_shuffle_needs_seed(self, six_row_csv):
        assert main(["estimate", "--input", str(six_row_csv), "--r", "0.4",
                     "--shuffle"]) == 2

    def test_degenerate_exit_4(self, tmp_path):
        p = tmp_path / "zeros.csv"
        p.write_text("0,0\n0,0\n0,0\n0,0\n")
        assert main(["estimate", "--input", str(p), "--r", "0.4"]) == 4

    def test_undefined_intervals_are_null(self, tmp_path, capsys):
        # every group is a (2, 0) or (0, 2) maximum over a half-size second
        # row: all ratios are 1/2 and all maxima 2, so alpha.hat = 1 is
        # defined while both Wald intervals have zero plug-in variance
        p = tmp_path / "ties.csv"
        p.write_text("2,0\n1,0\n0,2\n0,1\n" * 100)
        assert main(["estimate", "--input", str(p), "--r", "0.885",
                     "--alpha", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scheme"]["m"] == 2
        assert doc["alpha"]["hat"] == 1.0
        assert doc["alpha"]["ci"] is None and doc["mass"]["ci"] is None
        assert [w for w in doc["warnings"] if "ci is null" in w] == [
            "alpha ci is null: all group ratios identical; interval undefined",
            "mass ci is null: q^t values are numerically constant",
        ]

    def test_single_group_keeps_document(self, tmp_path, capsys):
        # N=10 at r=0.1 gives n=1: the point estimates are defined, neither
        # interval is, and the degenerate grouping is reported in the document
        p = tmp_path / "ten.csv"
        write_csv(p, np.random.default_rng(3).standard_cauchy((10, 2)))
        assert main(["estimate", "--input", str(p), "--r", "0.1"]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["scheme"]["n"] == 1
        assert doc["alpha"]["ci"] is None and doc["mass"]["ci"] is None
        assert "degenerate grouping: n=1 group for N=10, r=0.1" in doc["warnings"]
        assert [w for w in doc["warnings"] if "ci is null" in w] == [
            "alpha ci is null: need n >= 2 groups for an interval",
            "mass ci is null: need n >= 2 groups for an interval",
        ]
        assert err == ""

    def test_plugin_mass_ci_is_null(self, tmp_path, capsys):
        # a mass interval that treats alpha_hat as known does not hold its
        # level, so only a fixed --alpha gets one
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(5).standard_cauchy((2000, 2)))
        docs = []
        for alpha in ([], ["--alpha", "1"]):
            assert main(["estimate", "--input", str(p), "--r", "0.5", *alpha]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        plugin, fixed = docs
        assert plugin["mass"]["ci"] is None
        assert [w for w in plugin["warnings"] if "ci is null" in w] == [
            "mass ci is null: alpha is the plug-in alpha_hat, and an interval that "
            "treats it as known does not hold its level",
        ]
        ci = fixed["mass"]["ci"]
        assert list(ci) == ["lo", "hi", "level"] and ci["level"] == 0.95
        assert ci["lo"] < fixed["mass"]["hat"] < ci["hi"]
        assert not [w for w in fixed["warnings"] if "ci is null" in w]

    def test_shuffle_is_the_seeded_permutation(self, tmp_path, capsys):
        # rows sorted by norm put the largest norms of a group side by side
        values = np.random.default_rng(6).standard_cauchy((2000, 2))
        values = values[np.argsort(np.hypot(values[:, 0], values[:, 1]), kind="stable")]
        p = tmp_path / "sorted.csv"
        write_csv(p, values)
        docs = []
        for shuffle in (["--shuffle", "--seed", "11"], ["--shuffle", "--seed", "11"], []):
            assert main(["estimate", "--input", str(p), "--r", "0.5", "--alpha", "1",
                         *shuffle]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        perm = SeededRng(11, stream=0xD47A).generator().permutation(2000)
        want = tailspec.estimate_report(tailspec.DataMatrix(values[perm]), 0.5, alpha=1.0)
        assert docs[0]["input"] == {"path": str(p), "N": 2000, "d": 2}
        assert {k: docs[0][k] for k in want} == json.loads(json.dumps(want))
        assert docs[1] == docs[0]
        assert docs[2]["alpha"]["hat"] != docs[0]["alpha"]["hat"]

    def test_consistency_warning_listed_once(self, tmp_path, capsys):
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(5).standard_cauchy((2000, 2)))
        assert main(["estimate", "--input", str(p), "--r", "0.5", "--alpha", "1",
                     "--t", "0.4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len([w for w in doc["warnings"]
                    if "outside the consistency range" in w]) == 1

    def test_case_b_normality_warning_listed_once(self, tmp_path, capsys):
        # alpha 1, beta 2.45 is case b: t = 0.05625 at r = 0.45 is past the
        # normality bound 0.05, and t = 0.0375 at r = 0.3 is below it
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(5).standard_cauchy((2000, 2)))
        docs = {}
        for r in ("0.45", "0.3"):
            for beta in ([], ["--beta", "2.45"]):
                assert main(["estimate", "--input", str(p), "--r", r, "--alpha", "1",
                             *beta]) == 0
                docs[r, bool(beta)] = json.loads(capsys.readouterr().out)
        base, warned = docs["0.45", False].pop("warnings"), docs["0.45", True].pop("warnings")
        extra = [w for w in warned if w not in base]
        assert len(extra) == 1 and extra[0].startswith("t-outside-normality: t=0.05625 ")
        assert [w for w in warned if w != extra[0]] == base
        assert docs["0.45", True] == docs["0.45", False]
        assert docs["0.3", True] == docs["0.3", False]

    def test_all_ties_exit_4(self, tmp_path, capsys):
        # every ratio is one: alpha.hat itself is undefined
        p = tmp_path / "ties.csv"
        p.write_text("2,0\n0,2\n" * 200)
        assert main(["estimate", "--input", str(p), "--r", "0.885",
                     "--alpha", "1.0"]) == 4
        assert "error[AllKappaOne]" in capsys.readouterr().err

    def test_auto_r_uses_alpha_rule(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.Philox(key=np.array([22, 0], np.uint64)))
        p = tmp_path / "d.csv"
        write_csv(p, 1.0 + rng.random((500, 2)))
        rc = main(["estimate", "--input", str(p), "--alpha", "1.0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scheme"]["r"] == pytest.approx(2 / 3 - 0.05)
        assert doc["mass"]["alpha_mode"] == "fixed"

    def test_example2_style_round_trip(self, tmp_path, capsys):
        # simulate the bivariate stable density model, then estimate with
        # known alpha; point estimates land near the model truth
        model = json.dumps({"kind": "stable", "alpha": 0.75, "total_mass": 1.0,
                            "density": "abscos2t"})
        f = tmp_path / "ex2.csv"
        assert main(["simulate", "--model", model, "--n", "50000",
                     "--seed", "7", "--out", str(f)]) == 0
        capsys.readouterr()
        out = tmp_path / "ex2.json"
        assert main(["estimate", "--input", str(f), "--r", "0.5",
                     "--alpha", "0.75", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["input"] == {"path": str(f), "N": 50000, "d": 2}
        assert doc["scheme"]["n"] == 223 and doc["scheme"]["m"] == 224
        assert 0.6 <= doc["alpha"]["hat"] <= 0.9
        assert 0.75 <= doc["mass"]["hat"] <= 1.25
        assert doc["spectral"]["cdf"][-1][1] == 1.0


    @pytest.fixture
    def polar_2000(self, tmp_path, capsys):
        model = json.dumps({"kind": "polar", "alpha": 0.75, "total_mass": 200.0,
                            "density": "abscos2t"})
        f = tmp_path / "s.csv"
        assert main(["simulate", "--model", model, "--n", "2000", "--seed", "1",
                     "--out", str(f)]) == 0
        capsys.readouterr()
        return f

    def test_t_too_small_for_float64_exit_4(self, polar_2000, capsys):
        # 1 - t/alpha rounds to 1, where the estimate would be exactly 1.0
        rc = main(["estimate", "--input", str(polar_2000), "--r", "0.5", "--alpha", "0.75",
                   "--t", "1e-300"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[InvalidT]: t=1e-300 is too small")

    def test_small_t_estimate_unchanged(self, polar_2000, capsys):
        t, alpha = 1e-12, 0.75
        assert main(["estimate", "--input", str(polar_2000), "--r", "0.5", "--alpha", "0.75",
                     "--t", str(t)]) == 0
        doc = json.loads(capsys.readouterr().out)
        data = read_csv(polar_2000)
        scheme = grouping.plan_grouping(data.rows, 0.5)
        qt = grouping.summarize_groups(data, scheme).m1 / scheme.m ** (1.0 / alpha)
        qt **= t
        want = (float(qt.mean()) / numerics.gamma_fn(1.0 - t / alpha)) ** (alpha / t)
        assert doc["mass"]["hat"] == want
        assert 100.0 < want < 200.0

class TestSimulateCommand:
    def test_deterministic_files(self, tmp_path):
        model = json.dumps({"kind": "polar", "alpha": 1.0, "total_mass": 1.0,
                            "atoms": [[1.0, 0.0, 1.0]]})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--model", model, "--n", "5", "--seed", "7",
                     "--out", str(a)]) == 0
        assert main(["simulate", "--model", model, "--n", "5", "--seed", "7",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["seed"] == 7 and meta["N"] == 5
        # single atom (1,0): second column identically zero
        d = read_csv(a)
        assert (d.values[:, 1] == 0.0).all()

    def test_round_trip_bit_for_bit(self, tmp_path):
        model = json.dumps({"kind": "stable", "alpha": 1.75, "rho": 0.5,
                            "total_mass": 1.0})
        f = tmp_path / "s.csv"
        assert main(["simulate", "--model", model, "--n", "5000", "--seed",
                     "13", "--out", str(f)]) == 0
        out = tmp_path / "est.json"
        assert main(["estimate", "--input", str(f), "--r", "0.5",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # in-memory pipeline on the same stream must agree exactly
        data = sample_stable_1d(1.75, 0.5, 1.0, 5000, SeededRng(13))
        scheme = grouping.plan_grouping(5000, 0.5)
        alpha = estimators.estimate_alpha(
            grouping.summarize_groups(data, scheme))
        assert doc["alpha"]["hat"] == alpha.alpha_hat

    def test_needs_out_and_seed(self, tmp_path):
        model = json.dumps({"kind": "polar", "alpha": 1.0,
                            "atoms": [[1.0, 1.0]]})
        assert main(["simulate", "--model", model, "--n", "5",
                     "--seed", "1"]) == 2
        assert main(["simulate", "--model", model, "--n", "5",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("density", ['"triangle"', '["abscos2t"]'])
    def test_unknown_density_exit_2(self, tmp_path, capsys, density):
        model = '{"kind": "polar", "alpha": 1.0, "density": %s}' % density
        assert main(["simulate", "--model", model, "--n", "5", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown density" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["Infinity", "1e999"])
    def test_infinite_beta_meta_is_strict_json(self, tmp_path, capsys, beta):
        def strict(token):
            raise ValueError(f"not JSON: {token}")

        model = '{"kind": "polar", "alpha": 1, "rho": 0.5, "beta": %s}' % beta
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--model", model, "--n", "50", "--seed", "3",
                     "--out", str(a)]) == 0
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text(encoding="utf-8"),
                          parse_constant=strict)
        assert meta["model"]["beta"] == "inf"
        assert json.loads(capsys.readouterr().out, parse_constant=strict) == meta
        # the recorded model reproduces the sample
        assert main(["simulate", "--model", json.dumps(meta["model"]), "--n", "50",
                     "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_bad_model_json_exit_2(self, tmp_path):
        assert main(["simulate", "--model", "{not json", "--n", "5",
                     "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2


def run_python(*args, stdin=None, timeout=60):
    """``python *args`` on this checkout's package, output captured as text."""
    src = str(Path(tailspec.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": src})


def run_cli(*argv):
    return run_python("-m", "tailspec.cli", *argv)


def test_import_loads_no_pool_modules():
    """concurrent.futures loads multiprocessing, socket and logging; only a
    run that starts a pool imports it."""
    proc = run_python(
        "-c", "import sys, tailspec.cli, tailspec.experiments; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_compiles_no_csv_reader():
    """Only a process that reads a CSV compiles the plain-text reader."""
    proc = run_python("-c", "import sys, tailspec.cli, tailspec.experiments; "
                      "print('tailspec.plaincsv' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_runtime_imports_numpy_only():
    """The package needs numpy alone: no module of it imports a test-only
    dependency or the tests' Monte Carlo helpers."""
    proc = run_python(
        "-c", "import importlib, pkgutil, sys, tailspec; "
        "[importlib.import_module('tailspec.' + m.name) "
        "for m in pkgutil.iter_modules(tailspec.__path__)]; "
        "print([m for m in ('scipy', 'hypothesis', 'montecarlo') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the same rows as text each reader of read_csv takes: plain decimal text,
# text numpy parses (spaces), and text only float() parses ('1_0')
PIPED_ROWS = "{},2\n1.5,1\n2.5,3\n0.5,4\n3.5,0.25\n1,1\n2,2\n3,3\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("first", ["10", " 10", "1_0"])
def test_piped_input_reads_like_a_file(tmp_path, first):
    """A pipe can be read only once: /dev/stdin gives the estimate the same
    bytes in a file give."""
    text = PIPED_ROWS.format(first)
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    docs = []
    for source, stdin in ((str(path), None), ("/dev/stdin", text)):
        proc = run_python("-m", "tailspec.cli", "estimate", "--input", source, "--r", "0.5",
                          stdin=stdin)
        assert proc.returncode == 0, proc.stderr
        docs.append(json.loads(proc.stdout))
    for doc in docs:
        doc["input"].pop("path")
    assert docs[1] == docs[0]
    assert docs[1]["input"]["N"] == 8


class TestBadInputsWithoutTraceback:
    @pytest.mark.parametrize("model", [
        '{"alpha": "x", "rho": 0.5}',
        '{"alpha": null, "rho": 0.5}',
        '{"alpha": NaN, "rho": 0.5}',
        '{"alpha": 1.0, "rho": "x"}',
        '{"alpha": 1.0, "rho": 0.5, "total_mass": "heavy"}',
        '{"alpha": 1.0, "rho": 0.5, "total_mass": 1e400}',
        '{"alpha": 1.0, "rho": 0.5, "beta": [3]}',
        '{"kind": "stable", "alpha": 0.5, "density": "uniform", "n_atoms": "x"}',
        '{"alpha": 1.0, "atoms": 5}',
        '{"alpha": 1.0, "atoms": "1,0,1"}',
        '{"alpha": 1.0, "atoms": [5]}',
        '{"alpha": 1.0, "atoms": [[1.0]]}',
        '{"alpha": 1.0, "atoms": [[1.0, "y", 1.0]]}',
        '{"alpha": 1.0, "atoms": [[1.0, [0.0], 1.0]]}',
        '{"alpha": 1.5, "atoms": [[1.0, NaN]]}',
        '{"alpha": 1.5, "atoms": [[Infinity, 0, 1]]}',
        '{"alpha": 1.0, "atoms": [[1.0, 0.0, 0.5], [NaN, 0.5]]}',
        '{"kind": "stable", "alpha": 0.5, "atoms": []}',
    ])
    def test_bad_model_exit_2(self, tmp_path, model):
        proc = run_cli("simulate", "--model", model, "--n", "5", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error[usage]: --model" in proc.stderr

    @pytest.mark.parametrize("key, value", [("totalmass", "5"), ("Beta", "3.0"),
                                            ("note", "NaN")])
    def test_unknown_model_key_exit_2(self, tmp_path, key, value):
        model = '{"kind": "polar", "alpha": 1, "rho": 0.5, "%s": %s}' % (key, value)
        proc = run_cli("simulate", "--model", model, "--n", "5", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"error[usage]: --model has unknown keys ['{key}']" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_ragged_atoms_exit_4(self, tmp_path):
        proc = run_cli("simulate", "--model",
                       '{"alpha": 1.0, "atoms": [[1.0, 0.0, 0.5], [1.0, 0.5]]}',
                       "--n", "5", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error[InvalidModel]: atoms have mixed dimensions" in proc.stderr

    STABLE_2D = '{"kind":"stable","alpha":0.75,"total_mass":1.0,"density":"abscos2t"}'
    STABLE_1D = '{"kind":"stable","alpha":1.75,"rho":0.5,"total_mass":1.0,"beta":3.5}'

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", STABLE_2D, "--n", "-3", "--seed", "1", "--out", "x.csv"],
        ["simulate", "--model", STABLE_2D, "--n", "0", "--seed", "1", "--out", "x.csv"],
        ["simulate", "--model", '{"alpha": 1.0, "rho": 0.5}', "--n", "-3", "--seed", "1",
         "--out", "x.csv"],
        ["ecdf", "--model", STABLE_2D, "--n", "-3", "--seed", "1"],
        ["coverage", "--model", STABLE_1D, "--n", "-3", "--seed", "1", "--kind", "alpha"],
        ["sweep", "--model", STABLE_1D, "--n", "0", "--seed", "1", "--target", "rho"],
        ["sweep", "--model", STABLE_1D, "--n", "-3", "--seed", "1", "--target", "rho"],
    ])
    def test_nonpositive_n_exit_2(self, tmp_path, argv):
        argv = [str(tmp_path / a) if a == "x.csv" else a for a in argv]
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error[usage]: --n must be at least 1" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["ecdf", "--model", STABLE_2D, "--n", "50", "--seed", "1", "--grid-size", "1"],
         "error[usage]: --grid-size must be at least 2"),
        (["ecdf", "--model", STABLE_2D, "--n", "50", "--seed", "1", "--grid-size", "0"],
         "error[usage]: --grid-size must be at least 2"),
        (["ecdf", "--model", STABLE_2D, "--n", "50", "--seed", "1", "--epsilon", "5"],
         "error[usage]: --epsilon=5.0 outside (0,1/2)"),
        (["coverage", "--model", STABLE_1D, "--n", "50", "--seed", "1", "--kind", "alpha",
          "--epsilon", "-1"], "error[usage]: --epsilon=-1.0 outside (0,1/2)"),
        (["estimate", "--input", "six.csv", "--alpha", "0.75", "--epsilon", "5"],
         "error[usage]: --epsilon=5.0 outside (0,1/2)"),
        (["estimate", "--input", "six.csv", "--r", "0.5", "--level", "nan"],
         "error[usage]: --level=nan outside (0,1)"),
        (["estimate", "--input", "six.csv", "--r", "0.5", "--level", "0"],
         "error[usage]: --level=0.0 outside (0,1)"),
        (["coverage", "--model", STABLE_1D, "--n", "50", "--seed", "1", "--kind", "alpha",
          "--level", "1.5"], "error[usage]: --level=1.5 outside (0,1)"),
        (["sweep", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--target", "rho",
          "--workers", "-3"], "error[usage]: --workers must be at least 1, got -3"),
        (["coverage", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--kind", "alpha",
          "--workers", "0"], "error[usage]: --workers must be at least 1, got 0"),
        (["sweep", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--target", "rho",
          "--reps", "0"], "error[usage]: --reps must be at least 1, got 0"),
        (["coverage", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--kind", "alpha",
          "--reps", "0"], "error[usage]: --reps must be at least 1, got 0"),
        (["sweep", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--target", "rho",
          "--grid", "2"], "error[usage]: --grid=2.0 outside (0,1)"),
        (["sweep", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--target", "rho",
          "--grid", "nan"], "error[usage]: --grid=nan outside (0,1)"),
        (["sweep", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--target", "rho",
          "--grid", "0.5,1.5"], "error[usage]: --grid=1.5 outside (0,1)"),
        (["estimate", "--input", "six.csv", "--r", "0.9", "--alpha", "0.75",
          "--level", "0.9999999999999999"],
         "error[usage]: --level=0.9999999999999999 too close to 1"),
        (["coverage", "--model", STABLE_1D, "--n", "50", "--seed", "1", "--kind", "alpha",
          "--level", "0.9999999999999999"],
         "error[usage]: --level=0.9999999999999999 too close to 1"),
        (["estimate", "--input", "six.csv", "--r", "auto", "--alpha", "1", "--beta", "inf",
          "--epsilon", "1e-17"],
         "error[usage]: --epsilon=1e-17 too small: 1 - epsilon rounds to 1"),
    ])
    def test_flag_out_of_range_exit_2(self, six_row_csv, capsys, argv, message):
        argv = [str(six_row_csv) if a == "six.csv" else a for a in argv]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "inf"], "error[InvalidAlpha]: alpha=inf must be positive and finite"),
        (["--alpha", "0.001"], "error[OverflowError]:"),  # m^(1/alpha)
        (["--alpha", "1000", "--t", "100"], "error[InvalidT]: q^t overflows at t=100.0"),
        (["--r", "auto", "--alpha", "0.5", "--beta", "nan"],
         "error[InvalidSecondOrder]: need beta > alpha > 0, got alpha=0.5, beta=nan"),
        (["--alpha", "1e-9"], "error[OverflowError]: m^(1/alpha) overflows float64 at "
                              "m=20, alpha=1e-09"),
        (["--t", "auto", "--alpha", "1", "--beta", "nan"],
         "error[InvalidSecondOrder]: need beta > alpha > 0, got alpha=1.0, beta=nan"),
        (["--t", "auto", "--alpha", "1", "--beta", "0.5"],
         "error[InvalidSecondOrder]: need beta > alpha > 0, got alpha=1.0, beta=0.5"),
    ])
    def test_mass_overflow_exit_4(self, tmp_path, capsys, flags, message):
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(6).standard_cauchy((400, 2)) * 1e3)
        assert main(["estimate", "--input", str(p), "--r", "0.5", *flags]) == 4
        assert message in capsys.readouterr().err

    def test_mass_past_float64_is_inf(self, tmp_path, capsys):
        # the other entries of the document stay
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(6).standard_cauchy((400, 2)) * 1e3)
        assert main(["estimate", "--input", str(p), "--r", "0.5", "--alpha", "1000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["mass"]["hat"], doc["mass"]["ci"]) == ("inf", None)
        assert doc["alpha"]["ci"] is not None
        assert doc["warnings"] == [
            "mass hat is inf: the estimate exceeds the float64 range (alpha=1000.0, t=0.5)",
            "mass ci is null: an end exceeds the float64 range"]

    @pytest.mark.parametrize("scale", [1e200, 1e-160])
    def test_squares_out_of_range_keep_their_norms(self, tmp_path, scale):
        # finite entries whose squares overflow (or underflow) still get their
        # row norms: the document is the unscaled sample's, up to the rounding
        # of the scaling itself
        x = np.random.default_rng(6).standard_cauchy((400, 2))
        docs = []
        for values in (x, x * scale):
            p = tmp_path / "in.csv"
            write_csv(p, values)
            proc = run_cli("estimate", "--input", str(p), "--r", "0.5")
            assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
            docs.append(json.loads(proc.stdout))
        assert docs[1]["alpha"]["hat"] == pytest.approx(docs[0]["alpha"]["hat"], rel=1e-12)
        assert docs[1]["spectral"] == docs[0]["spectral"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", '{"alpha":0.01,"atoms":[[1,0,1]],"kind":"polar"}'],
        ["simulate", "--model", '{"alpha":0.01,"rho":0.5,"kind":"stable"}'],
        ["simulate", "--model",
         '{"alpha":0.01,"atoms":[[1,0,0.5],[0,1,0.5]],"kind":"stable"}'],
        ["sweep", "--model", '{"alpha":0.01,"atoms":[[1,0,1]],"kind":"polar"}',
         "--target", "alpha", "--reps", "1"],
    ])
    def test_overflowing_sample_exit_4(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        proc = run_cli(*argv, "--n", "10000", "--seed", "1", "--out", str(out))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ("error[UnsupportedAlpha]: alpha=0.01 is too small: "
                               "the sample overflows float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, w, c", [
        (["simulate", "--model",
          '{"alpha":0.5,"total_mass":1e300,"atoms":[[1,0,1e300]],"kind":"polar"}'],
         "1e+300", 1.0),
        (["simulate", "--model",
          '{"alpha":0.5,"total_mass":1e300,"atoms":[[1,0,1e300]],"kind":"stable"}'],
         "1e+300", stable_tail_constant(0.5)),
        (["simulate", "--model", '{"alpha":0.5,"total_mass":1e300,"rho":0.2,"kind":"stable"}'],
         "1e+300", stable_tail_constant(0.5)),
        (["ecdf", "--model",
          '{"alpha":0.5,"total_mass":1e308,"density":"abscos2t","kind":"polar"}'],
         "1e+308", 1.0),
    ])
    def test_overflowing_scale_exit_4(self, tmp_path, argv, w, c):
        out = tmp_path / "x.csv"
        proc = run_cli(*argv, "--n", "10", "--seed", "1", "--out", str(out))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ("error[OverflowError]: scale (w/C)^(1/alpha) overflows "
                               f"float64 at w={w}, C={c}, alpha=0.5\n")
        assert not out.exists()

    def test_density_cell_weights_past_float64_exit_4(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = run_cli("simulate", "--model",
                       '{"alpha":0.5,"total_mass":1e307,"density":"abscos2t","kind":"stable"}',
                       "--n", "10", "--seed", "1", "--out", str(out))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ("error[InvalidModel]: total_mass=1e+307 is too large: the "
                               "density's cell weights overflow float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model",
          '{"alpha":1.5,"total_mass":3e305,"density":"abscos2t","kind":"polar"}'],
         "total_mass=3e+305 is too large: the density's cdf overflows float64"),
        (["simulate", "--model",
          '{"alpha":1.5,"total_mass":1e308,"density":"abscos2t","kind":"polar"}'],
         "total_mass=1e+308 is too large: the density's cdf overflows float64"),
        *((["coverage", "--kind", "spectral", "--region", "arc:0:1.5", "--n", "1000",
            "--reps", "2", "--r", "0.5", "--model",
            f'{{"alpha":1.5,"total_mass":1e308,"density":"abscos2t","kind":"{kind}"}}'],
           "total_mass=1e+308 is too large: the density's mass in the region overflows "
           "float64") for kind in ("polar", "stable")),
    ], ids=["simulate-3e305", "simulate-1e308", "coverage-polar", "coverage-stable"])
    def test_density_sums_past_float64_exit_4(self, tmp_path, argv, message):
        # the sampling cdf and the true mass of a region sum the density's
        # values; no numpy warning comes before the one error line
        out = tmp_path / "x.csv"
        args = [*argv, "--seed", "1"] + (["--n", "10", "--out", str(out)]
                                        if argv[0] == "simulate" else [])
        proc = run_cli(*args)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == f"error[InvalidModel]: {message}\n"
        assert not out.exists()

    def test_rho_weights_near_the_float64_maximum(self, tmp_path):
        # total * (1 + rho) passes float64 here, total / 2 * (1 + rho) does not
        out = tmp_path / "x.csv"
        proc = run_cli("simulate", "--model",
                       '{"alpha":1.5,"total_mass":1.7e308,"rho":0.3,"kind":"polar"}',
                       "--n", "10", "--seed", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert np.isfinite(np.loadtxt(out, delimiter=",")).all()
        proc = run_cli("simulate", "--model",
                       '{"alpha":0.5,"total_mass":1.7e308,"rho":0.2,"kind":"stable"}',
                       "--n", "10", "--seed", "1", "--out", str(out))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ("error[OverflowError]: scale (w/C)^(1/alpha) overflows float64 "
                               f"at w=1.7e+308, C={stable_tail_constant(0.5)}, alpha=0.5\n")

    # 10**15 doubles lie past a 47-bit address space, so numpy refuses them
    # at once and touches no memory; a size the system could grant would be
    # allocated, so none is tried.  Past sys.maxsize bytes numpy raised a bare
    # ValueError or IndexError, so tailspec refuses such sizes itself.
    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", STABLE_1D, "--n", str(10**15), "--seed", "1",
         "--out", "x.csv"],
        ["ecdf", "--model", STABLE_2D, "--n", "200", "--seed", "1",
         "--grid-size", str(10**15)],
        ["simulate", "--model", '{"kind":"polar","alpha":1.5,"rho":0.5}', "--n",
         str(sys.maxsize), "--seed", "1", "--out", "x.csv"],
        ["simulate", "--model", STABLE_1D, "--n", str(sys.maxsize), "--seed", "1",
         "--out", "x.csv"],
        ["simulate", "--model", STABLE_2D, "--n", str(sys.maxsize), "--seed", "1",
         "--out", "x.csv"],
        ["simulate", "--model", STABLE_1D, "--n", str(sys.maxsize + 1), "--seed", "1",
         "--out", "x.csv"],
        ["sweep", "--model", STABLE_1D, "--n", str(sys.maxsize), "--seed", "1",
         "--target", "rho", "--reps", "1"],
        ["ecdf", "--model", STABLE_2D, "--n", str(sys.maxsize), "--seed", "1"],
        ["coverage", "--model", STABLE_1D, "--n", str(sys.maxsize), "--seed", "1",
         "--kind", "alpha", "--reps", "1", "--r", "0.5"],
        ["ecdf", "--model", STABLE_2D, "--n", "200", "--seed", "1",
         "--grid-size", str(sys.maxsize)],
    ])
    def test_allocation_failure_exit_4(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a == "x.csv" else a for a in argv]
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("error[MemoryError]: Unable to allocate")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", STABLE_2D, "--n", "5", "--seed", "1", "--out", "x.csv",
         "--level", "0.9"],
        ["simulate", "--model", STABLE_2D, "--n", "5", "--seed", "1", "--out", "x.csv",
         "--epsilon", "0.1"],
        ["simulate", "--model", STABLE_2D, "--n", "5", "--seed", "1", "--out", "x.csv",
         "--beta", "3"],
        ["sweep", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--target", "rho",
         "--reps", "1", "--grid", "0.5", "--beta", "3"],
        ["sweep", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--target", "rho",
         "--reps", "1", "--grid", "0.5", "--level", "0.9"],
        ["ecdf", "--model", STABLE_2D, "--n", "200", "--seed", "1", "--r", "0.5",
         "--grid-size", "4", "--beta", "3"],
        ["ecdf", "--model", STABLE_2D, "--n", "200", "--seed", "1", "--r", "0.5",
         "--grid-size", "4", "--level", "0.9"],
        ["coverage", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--kind", "alpha",
         "--reps", "1", "--r", "0.5", "--beta", "3"],
    ])
    def test_flag_the_command_does_not_read_exit_2(self, tmp_path, argv):
        argv = [str(tmp_path / a) if a == "x.csv" else a for a in argv]
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"unrecognized arguments: {argv[-2]}" in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["coverage", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--kind", "alpha",
          "--reps", "1", "--r", "0.5", "--region", "disc:9"],
         "error[usage]: coverage --kind alpha reads no --region"),
        (["coverage", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--kind", "mass",
          "--reps", "1", "--r", "0.5", "--region", "halfspace:1:0"],
         "error[usage]: coverage --kind mass reads no --region"),
        (["estimate", "--input", "six.csv", "--r", "0.5", "--seed", "9"],
         "error[usage]: estimate reads --seed only with --shuffle"),
        (["estimate", "--input", "six.csv", "--r", "0.5", "--epsilon", "0.7"],
         "error[usage]: estimate reads --epsilon only with --r auto"),
        (["ecdf", "--model", STABLE_2D, "--n", "200", "--seed", "1", "--r", "0.5",
          "--epsilon", "0.1"], "error[usage]: ecdf reads --epsilon only with --r auto"),
        (["coverage", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--kind", "alpha",
          "--reps", "1", "--r", "0.5", "--epsilon", "0.3"],
         "error[usage]: coverage reads --epsilon only with --r auto"),
        (["estimate", "--input", "six.csv", "--r", "0.5", "--t", "0.1", "--beta", "3"],
         "error[usage]: estimate reads --beta only with --r auto or --t auto"),
    ])
    def test_flag_the_mode_does_not_read_exit_2(self, six_row_csv, capsys, argv, message):
        argv = [str(six_row_csv) if a == "six.csv" else a for a in argv]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model", "[1.5]"], "--model must be a JSON object"),
        (["simulate", "--model", '{"kind": "gauss", "alpha": 1.5, "rho": 0}'],
         "model kind must be polar or stable, got 'gauss'"),
        (["simulate", "--model", '{"rho": 0.5}'], "--model needs an alpha"),
        (["simulate", "--model", '{"alpha": 1.5, "rho": 1.5}'], "rho=1.5 outside [-1,1]"),
        (["estimate", "--input", "six.csv", "--r", "0.5", "--t", "abc"],
         "--t must be a number or 'auto', got 'abc'"),
        (["sweep", "--model", STABLE_1D, "--target", "rho", "--grid", "0.5,x"],
         "bad --grid '0.5,x'"),
        (["sweep", "--model", STABLE_1D, "--target", "rho", "--grid", ""], "bad --grid ''"),
    ])
    def test_unreadable_value_exit_2(self, six_row_csv, tmp_path, capsys, argv, message):
        argv = [str(six_row_csv) if a == "six.csv" else a for a in argv]
        if argv[0] != "estimate":
            argv += ["--n", "200", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert f"error[usage]: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--target", "rho",
         "--reps", "1", "--grid", "0.5"],
        ["coverage", "--model", STABLE_1D, "--n", "200", "--seed", "1", "--kind", "alpha",
         "--reps", "1", "--r", "0.5"],
    ])
    def test_workers_beyond_reps_run_serially(self, capsys, argv):
        # the pool is capped at one process per replication, so none starts here
        docs = []
        for workers in ("1", "1000000"):
            assert main(argv + ["--workers", workers]) == 0
            docs.append(capsys.readouterr().out)
        assert docs[0] == docs[1]

    def test_coverage_second_region_exit_2(self, capsys):
        assert main(["coverage", "--model", self.STABLE_1D, "--n", "200", "--seed", "1",
                     "--kind", "spectral", "--reps", "1", "--r", "0.5",
                     "--region", "halfspace:1:0", "--region", "halfspace:-1:0"]) == 2
        assert "error[usage]: coverage reads one --region, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("region", ["arc:nan:1", "arc:0:inf", "halfspace:nan,0:0",
                                        "halfspace:1,0:nan"])
    def test_non_finite_region_exit_2(self, tmp_path, capsys, region):
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(8).standard_cauchy((4000, 2)))
        assert main(["estimate", "--input", str(p), "--r", "0.6", "--alpha", "1",
                     "--region", region]) == 2
        assert "not finite" in capsys.readouterr().err
        assert main(["coverage", "--model", self.STABLE_2D, "--n", "200", "--seed", "1",
                     "--kind", "spectral", "--reps", "1", "--r", "0.5",
                     "--region", region]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_unwritable_out_exit_3(self, six_row_csv, tmp_path, capsys):
        assert main(["estimate", "--input", str(six_row_csv), "--r", "0.4",
                     "--out", str(tmp_path / "no" / "doc.json")]) == 3
        assert "error[io]:" in capsys.readouterr().err

    def test_closed_stdout_exit_3(self):
        # a 4096-row ecdf document is larger than a pipe buffer, so the
        # writer is still printing when the reader closes the pipe
        src = str(Path(tailspec.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "tailspec.cli", "ecdf", "--model", self.STABLE_2D,
             "--n", "2000", "--seed", "1", "--r", "0.5", "--grid-size", "4096"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        try:
            assert len(proc.stdout.read(300)) == 300
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        err = err.decode()
        assert proc.returncode == 3, err
        assert "error[io]:" in err
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_sweep_without_feasible_r_exit_2(self):
        proc = run_cli("sweep", "--model", self.STABLE_1D, "--n", "3", "--seed", "1",
                       "--target", "alpha")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error[usage]: no r in the default grid" in proc.stderr

    def test_model_file_read_once_as_utf8(self, tmp_path):
        # every key is read, so the non-ASCII text is a number: Arabic-Indic 0.5
        cfg = {"kind": "polar", "alpha": 1.0, "rho": "\u0660.\u0665"}
        model = tmp_path / "m.json"
        model.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
        out = tmp_path / "x.csv"
        proc = run_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                          "-m", "tailspec.cli", "simulate", "--model", f"@{model}", "--n", "20",
                          "--seed", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        meta = json.loads(Path(str(out) + ".meta.json").read_text(encoding="utf-8"))
        assert meta["model"] == cfg
        assert parse_model(json.dumps(cfg))[0].rho == 0.5

    def test_model_file_not_utf8_exit_2(self, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_bytes(b'{"alpha": 1.5, "density": "uniform"\xff}')
        out = tmp_path / "x.csv"
        assert main(["simulate", "--model", f"@{model}", "--n", "10", "--seed", "1",
                     "--out", str(out)]) == 2
        assert f"error[usage]: --model @{model} is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_reads_csv_as_utf8(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(2).standard_cauchy((200, 2)))
        proc = run_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                          "-m", "tailspec.cli", "estimate", "--input", str(p), "--r", "0.5")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["input"]["N"] == 200

    def test_non_utf8_csv_exit_3(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"\xff,1\n2,3\n")
        proc = run_cli("estimate", "--input", str(p), "--r", "0.5")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "error[CsvParseError]: line 1: line is not valid UTF-8" in proc.stderr


@pytest.mark.parametrize("text, dim, message", [
    ("arc:0:1", 1, "arc regions need d=2 data"),
    ("halfspace:1,0", 2, "bad halfspace region"),
    ("halfspace:1,x:0", 2, "bad halfspace region"),
    ("arc:0,1:2", 2, "bad arc region"),
])
def test_bad_region_text(text, dim, message):
    with pytest.raises(CliUsage, match=message):
        parse_region(text, dim)


@pytest.mark.parametrize("model, message", [
    ('{"alpha": true, "rho": 0.5}', "alpha must be a number, got True"),
    ('{"alpha": 1.0, "rho": false}', "rho must be a number, got False"),
    ('{"alpha": 1.0, "rho": 0.5, "total_mass": true}', "total_mass must be a number"),
    ('{"alpha": 1.0, "rho": 0.5, "beta": true}', "beta must be a number"),
    ('{"kind": "stable", "alpha": 0.5, "density": "uniform", "n_atoms": true}',
     "n_atoms must be a number"),
    ('{"alpha": 1.0, "atoms": [[1.0, true]]}', "atoms must be a list"),
    ('{"kind": "stable", "alpha": 0.5, "density": "uniform", "n_atoms": 8.7}',
     "n_atoms must be a whole number, got 8.7"),
])
def test_model_booleans_and_fractional_counts_exit_2(tmp_path, capsys, model, message):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--model", model, "--n", "5", "--seed", "1",
                 "--out", str(out)]) == 2
    assert f"error[usage]: --model {message}" in capsys.readouterr().err
    assert not out.exists()


def test_model_numeric_strings_accepted():
    model, _, n_atoms = parse_model('{"kind": "stable", "alpha": "0.5", "beta": "inf", '
                                    '"density": "uniform", "n_atoms": "8"}')
    assert model.alpha == 0.5 and model.beta == math.inf
    assert n_atoms == 8 and type(n_atoms) is int
    assert parse_model('{"alpha": 0.5, "density": "uniform", "n_atoms": 8.0}')[2] == 8


def test_rho_weights_keep_their_bits():
    # halving the total first is exact and commutes with the rounding of the
    # product wherever both are normal, so the weights are total*(1 +- rho)/2's.
    # ModelSpec accepts each pair: its sum may be an ulp off the total.
    rhos = [-1.0, *np.linspace(-0.9, 0.9, 19).tolist(), 1.0]
    for total in (10.0 ** k for k in range(-300, 301, 10)):
        for rho in rhos:
            model = parse_model(json.dumps({"alpha": 1.0, "total_mass": total, "rho": rho}))[0]
            want = np.array([total * (1.0 + rho) / 2.0,
                             total * (1.0 - rho) / 2.0])[[rho > -1.0, rho < 1.0]]
            assert model.weights.view(np.uint64).tolist() == want.view(np.uint64).tolist()

class TestExperimentCommands:
    def test_sweep_csv_schema(self, tmp_path, capsys):
        model = json.dumps({"kind": "stable", "alpha": 1.75, "rho": 0.5,
                            "total_mass": 1.0, "beta": 3.5})
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--model", model, "--n", "2000", "--reps", "2",
                   "--target", "rho", "--seed", "3", "--grid", "0.5,0.6",
                   "--out", str(out)])
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()]
        assert len(rows) == 2 and all(len(r) == 4 for r in rows)
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert summary["target"] == "rho" and summary["reps"] == 2
        capsys.readouterr()

    def test_ecdf_summary(self, tmp_path, capsys):
        model = json.dumps({"kind": "polar", "alpha": 0.75, "total_mass": 1.0,
                            "density": "abscos2t"})
        out = tmp_path / "ecdf.csv"
        rc = main(["ecdf", "--model", model, "--n", "4000", "--r", "0.5",
                   "--grid-size", "32", "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 32
        summary = json.loads((tmp_path / "ecdf.json").read_text())
        assert 0.0 <= summary["sup_distance"] <= 1.0
        capsys.readouterr()

    def test_ecdf_single_group_raises_no_warning(self, capsys):
        # N=5 at r=0.3 gives n=1: the document reports the one group, and
        # like the sweeps, ecdf does not warn of it
        model = json.dumps({"kind": "polar", "alpha": 1.0, "density": "uniform"})
        with warnings.catch_warnings():
            warnings.simplefilter("error", tailspec.EstimationWarning)
            assert main(["ecdf", "--model", model, "--n", "5", "--r", "0.3",
                         "--seed", "1", "--grid-size", "4"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["n_atoms_estimate"] == 1
        assert err == ""

    def test_ecdf_auto_r_reads_model_beta(self, capsys):
        model = json.dumps({"kind": "polar", "alpha": 0.75, "density": "abscos2t",
                            "beta": 3.0})
        assert main(["ecdf", "--model", model, "--n", "2000", "--r", "auto",
                     "--grid-size", "4", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == tuning.optimal_r_spectral(0.75, 3.0, 0.05)

    def test_ecdf_auto_r_tunes_for_the_spectral_cdf(self, capsys):
        # the tail-index rule gives r = 0.95 for beta = inf, which leaves
        # groups of one row at this N; the spectral rule caps zeta at 1
        model = json.dumps({"kind": "polar", "alpha": 0.75, "density": "abscos2t",
                            "beta": "inf"})
        assert main(["ecdf", "--model", model, "--n", "200000", "--r", "auto",
                     "--grid-size", "4", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == tuning.auto_r("spectral", 0.75, math.inf)
        assert doc["r"] == pytest.approx(2 / 3 - 0.05)

    @pytest.mark.parametrize("kind, extra", [
        ("alpha", []), ("spectral", ["--region", "halfspace:1:0"]), ("mass", []),
    ])
    def test_coverage_auto_r_reads_model_beta(self, monkeypatch, capsys, kind, extra):
        seen = []

        def fake_coverage(model, N, r, kind, level, reps, *args, **kwargs):
            seen.append(r)
            return experiments.CoverageResult(kind=kind, level=level, reps=reps,
                                              hits=reps, truth=1.0)

        monkeypatch.setattr(experiments, "run_ci_coverage", fake_coverage)
        model = '{"kind":"polar","alpha":1.0,"rho":0.5,"beta":1.5}'
        assert main(["coverage", "--model", model, "--n", "2000", "--reps", "1",
                     "--kind", kind, "--seed", "1", *extra]) == 0
        capsys.readouterr()
        assert seen == [tuning.auto_r(kind, 1.0, 1.5)]
        assert seen != [tuning.auto_r(kind, 1.0)]

    @pytest.mark.parametrize("command, extra", [
        ("simulate", []),
        ("coverage", ["--kind", "mass", "--reps", "2"]),
        ("ecdf", ["--grid-size", "8"]),
    ])
    def test_density_model_with_large_mass_runs(self, tmp_path, capsys, command, extra):
        model = '{"kind":"polar","alpha":0.75,"total_mass":1000,"density":"abscos2t"}'
        out = [] if command == "coverage" else ["--out", str(tmp_path / "x.csv")]
        assert main([command, "--model", model, "--n", "2000", "--seed", "1",
                     *extra, *out]) == 0
        capsys.readouterr()

    def test_model_beta_absent_is_none(self):
        assert parse_model('{"alpha":1.0,"rho":0.5}')[0].beta is None
        assert parse_model('{"alpha":1.75,"rho":0.5,"beta":3.5}')[0].beta == 3.5

    def test_coverage_doc(self, capsys):
        model = json.dumps({"kind": "polar", "alpha": 1.0, "total_mass": 1.0,
                            "atoms": [[0.7071067811865476, 0.7071067811865476, 1.0]]})
        rc = main(["coverage", "--model", model, "--n", "2000", "--reps", "5",
                   "--kind", "alpha", "--seed", "2", "--r", "0.5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reps"] == 5 and 0.0 <= doc["coverage"] <= 1.0

    @pytest.mark.parametrize("r", ["abc", "1.5", "nan"])
    def test_coverage_bad_r_exit_2_without_traceback(self, r):
        model = json.dumps({"kind": "polar", "alpha": 1.0, "total_mass": 1.0,
                            "atoms": [[1.0, 0.0, 1.0]]})
        proc = run_cli("coverage", "--model", model, "--n", "1000", "--reps", "2",
                       "--kind", "alpha", "--seed", "1", "--r", r)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--r" in proc.stderr


    @pytest.mark.parametrize("model, extra", [
        ('{"kind":"polar","alpha":1.5,"density":"uniform"}', ["--kind", "alpha"]),
        ('{"kind":"polar","alpha":1.5,"atoms":[[0.6,0.8,0.5],[-0.6,0.8,0.5]]}',
         ["--kind", "spectral", "--region", "halfspace:1,0:0"]),
    ])
    def test_coverage_workers_match_serial(self, model, extra):
        # regions and named densities reach the worker processes by pickle
        hits = []
        for workers in ("1", "2"):
            proc = run_python("-m", "tailspec.cli", "coverage", "--model", model,
                              "--n", "2000", "--reps", "4", "--seed", "3", "--r", "0.5",
                              "--workers", workers, *extra, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            hits.append(json.loads(proc.stdout)["hits"])
        assert hits[0] == hits[1]


    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("kind", ["alpha", "spectral", "mass"])
    def test_coverage_keeps_warnings_in_document(self, tmp_path, capfd, kind, workers):
        model = '{"kind":"polar","alpha":1.9,"rho":0.2,"beta":3.8}'
        region = ["--region", "halfspace:1:0"] if kind == "spectral" else []
        out = tmp_path / "cov.json"
        assert main(["coverage", "--model", model, "--n", "5000", "--reps", "3",
                     "--kind", kind, "--seed", "5", "--workers", workers, *region,
                     "--out", str(out)]) == 0
        assert capfd.readouterr().err == ""
        doc = json.loads(out.read_text())
        # the case-b t note comes from tuning t, which only the mass interval reads
        assert ([w.split(":")[0] for w in doc["warnings"]]
                == (["t-outside-normality"] if kind == "mass" else []))
        # the replications as they ran before they read estimate_report
        spec = parse_model(model)[0]
        r = tuning.auto_r(kind, 1.9, 3.8)
        halfspace = Halfspace((1.0,), 0.0)
        hits = 0
        for rep in range(3):
            rng = SeededRng(5).split(experiments._EXP_COVERAGE,
                                     experiments._COVERAGE_KIND_IDS[kind], rep)
            data = experiments.draw_sample(spec, 5000, rng)
            stats = grouping.summarize_groups(data, grouping.plan_grouping(5000, r))
            if kind == "alpha":
                ci, truth = estimators.alpha_ci(estimators.estimate_alpha(stats), 0.95), 1.9
            elif kind == "spectral":
                est = estimators.estimate_spectral(stats)
                ci = estimators.spectral_ci(est, estimators.spectral_mass(est, halfspace), 0.95)
                truth = spec.normalized_mass(halfspace)
            else:
                with pytest.warns(tailspec.EstimationWarning):
                    t = tuning.auto_t(spec.alpha, r, spec.beta)
                tm = estimators.estimate_total_mass(stats, spec.alpha, t)
                ci, truth = estimators.total_mass_ci(tm, 0.95), 1.0
            hits += ci.contains(truth)
        assert (doc["hits"], doc["coverage"]) == (hits, hits / 3)

    def test_coverage_counts_an_undefined_interval_as_a_miss(self, monkeypatch, capfd):
        model = '{"kind":"polar","alpha":1.0,"rho":0.5}'
        argv = ["coverage", "--model", model, "--n", "5000", "--reps", "3",
                "--kind", "alpha", "--seed", "1", "--r", "0.5"]
        assert main(argv) == 0
        assert json.loads(capfd.readouterr().out)["hits"] == 3
        calls, interval = [], estimators.alpha_ci

        def alpha_ci(est, level):  # undefined in the second replication
            calls.append(est)
            if len(calls) == 2:
                raise tailspec.errors.ZeroVariance("all group ratios identical")
            return interval(est, level)

        monkeypatch.setattr(estimators, "alpha_ci", alpha_ci)
        assert main(argv) == 0
        doc = json.loads(capfd.readouterr().out)
        assert len(calls) == 3
        assert (doc["hits"], doc["warnings"]) == (
            2, ["alpha ci is null: all group ratios identical"])

    def test_coverage_lists_notes_of_every_entry(self, capfd):
        # one group per sample: neither interval is defined, and the alpha
        # study lists the mass notes of each replication's report too
        assert main(["coverage", "--model", '{"kind":"polar","alpha":1.0,"rho":0.5}',
                     "--n", "4", "--reps", "2", "--kind", "alpha", "--seed", "1",
                     "--r", "0.3"]) == 0
        doc = json.loads(capfd.readouterr().out)
        assert (doc["hits"], doc["warnings"]) == (0, [
            "degenerate grouping: n=1 group for N=4, r=0.3",
            "t=0.0375 is outside the consistency range t < alpha*r/2 = 0 (r inferred from n, m)",
            "alpha ci is null: need n >= 2 groups for an interval",
            "mass ci is null: need n >= 2 groups for an interval"])

    def test_coverage_records_each_estimator_warning_once(self, monkeypatch, capfd):
        plan = grouping.plan_grouping

        def noisy_plan(N, r):
            warnings.warn("a note from every replication", tailspec.EstimationWarning)
            return plan(N, r)

        monkeypatch.setattr(grouping, "plan_grouping", noisy_plan)
        res = experiments.run_ci_coverage(parse_model('{"alpha":1.0,"rho":0.5}')[0],
                                          2000, 0.5, "alpha", 0.95, 3, SeededRng(1))
        assert res.warnings == ("a note from every replication",)
        assert capfd.readouterr().err == ""

class TestRegions:
    def test_arc_wraps(self):
        region = parse_region(f"arc:{3 * math.pi / 2}:{math.pi / 2}", 2)
        assert region.mask(np.array([[1.0, 0.0]]))[0]       # angle 0 inside the wrap
        assert not region.mask(np.array([[-1.0, 0.0]]))[0]  # angle pi outside

    def test_arc_half_open(self):
        region = parse_region(f"arc:0:{math.pi / 2}", 2)
        assert region.mask(np.array([[1.0, 0.0]]))[0]
        assert not region.mask(np.array([[0.0, 1.0]]))[0]  # end excluded

    def test_halfspace_dimension_check(self):
        with pytest.raises(CliUsage):
            parse_region("halfspace:1,0,0:0.5", 2)

    def test_unknown_syntax(self):
        with pytest.raises(CliUsage):
            parse_region("disc:0.3", 2)


def test_parser_built_once_per_process(six_row_csv, capsys):
    assert build_parser() is build_parser()
    # one process, two commands on the shared parser: each prints the
    # document a fresh process prints
    for argv in (["estimate", "--input", str(six_row_csv), "--r", "0.4",
                  "--region", "halfspace:1,0:0"],
                 ["coverage", "--model", TestBadInputsWithoutTraceback.STABLE_2D,
                  "--n", "200", "--seed", "1", "--kind", "spectral", "--reps", "2",
                  "--r", "0.5", "--region", "arc:0:1"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == run_cli(*argv).stdout


# ---------------------------------------------------------------- argv fuzz

FUZZ_MODELS = [
    '{"kind":"stable","alpha":1.75,"rho":0.5,"total_mass":1.0,"beta":3.5}',
    '{"kind":"stable","alpha":0.75,"density":"abscos2t","n_atoms":8}',
    '{"kind":"polar","alpha":1.5,"atoms":[[0.6,0.8,0.5],[-0.6,0.8,0.5]]}',
    '{"kind":"polar","alpha":1.0,"rho":1.0}',
    '{"kind":"polar","alpha":0.75,"density":"abscos2t","beta":3.0}',
    '{"kind":"polar","alpha":1,"rho":0.5,"beta":Infinity}',
    '{"kind":"polar","alpha":0.75,"total_mass":1000,"density":"abscos2t"}',
]
BAD_MODELS = ['{"kind":"stable","alpha":2.5,"rho":0.0}', '{"alpha":-1,"rho":0.5}',
              '{"alpha":1.0}', "{not json"]
FUZZ_REGIONS = (["arc:0:1.5707963267948966", "arc:3:1", "halfspace:1,0:0", "halfspace:0,1:2",
                 "halfspace:1:0"], ["arc:x:1", "disc:1", "halfspace:1,0,0:0"])
# flag: (valid values, invalid or edge values)
FUZZ_FLAGS = {
    "--seed": (["1", "7"], ["-1", "x"]),
    "--level": (["0.9", "0.5"], ["0", "1", "-1", "nan", "inf", "2"]),
    "--epsilon": (["0.05", "0.3"], ["0", "0.5", "-1", "5", "nan"]),
    "--beta": (["3.5", "1.5"], ["0.5", "-1", "inf", "nan"]),
    "--r": (["auto", "0.5", "0.8"], ["0", "1", "1.5", "nan", "x"]),
    "--alpha": (["0.75", "1.5"], ["0", "-1", "nan", "inf", "1000"]),
    "--t": (["auto", "0.1"], ["0", "-1", "5", "100", "x"]),
    "--n": (["40", "300"], ["1", "2", "0", "-3"]),
    "--reps": (["1", "2"], ["0", "-1"]),
    "--grid-size": (["2", "16"], ["-1", "0", "1"]),
    "--grid": (["0.5", "0.3,0.6"], ["0.99", "2", "x"]),
    "--target": (["alpha", "rho", "mass"], []),
    "--kind": (["alpha", "spectral", "mass"], []),
    "--workers": (["1"], ["0", "-1"]),  # no value that starts a pool
}
# command: (flags it requires, optional flags)
FUZZ_COMMANDS = {
    "estimate": (["--r"], ["--seed", "--level", "--epsilon", "--beta", "--alpha", "--t"]),
    "simulate": (["--seed", "--n"], []),
    "sweep": (["--seed", "--n", "--target"], ["--reps", "--grid", "--workers"]),
    "ecdf": (["--seed", "--n"], ["--r", "--grid-size", "--epsilon"]),
    "coverage": (["--seed", "--n", "--kind"],
                 ["--reps", "--r", "--level", "--epsilon", "--workers"]),
}


def _mostly(valid, invalid):
    """Mostly a valid value, now and then an invalid one."""
    if not invalid:
        return st.sampled_from(valid)
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(invalid if k == 0 else valid))


@st.composite
def cli_argv(draw):
    """An argument vector for one command: its required flags and some of its
    optional ones, each with a value that is mostly valid."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    required, optional = FUZZ_COMMANDS[command]
    argv = [command]
    if command == "estimate":
        argv += ["--input", draw(_mostly(["fuzz2.csv", "fuzz1.csv"], ["missing.csv"]))]
        if draw(st.integers(0, 3)) == 0:
            argv.append("--shuffle")
    else:
        argv += ["--model", draw(_mostly(FUZZ_MODELS, BAD_MODELS))]
    if command in ("estimate", "coverage"):
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--region", draw(_mostly(*FUZZ_REGIONS))]
    flags = required + [f for f in optional if draw(st.booleans())]
    for flag in flags:
        argv += [flag, draw(_mostly(*FUZZ_FLAGS[flag]))]
    if command != "coverage":
        argv += ["--out", "out.csv"]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    g = np.random.default_rng(4)
    write_csv(d / "fuzz2.csv", g.standard_cauchy((400, 2)))
    write_csv(d / "fuzz1.csv", g.standard_cauchy((400, 1)))
    return d


@given(argv=cli_argv())
@settings(max_examples=200, deadline=None)
def test_cli_argv_fuzz_exits_cleanly(fuzz_dir, argv):
    """Every argument vector ends in exit 0, 2, 3 or 4, never an exception."""
    argv = [str(fuzz_dir / a) if a.endswith(".csv") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejects a flag value
            rc = e.code
    assert rc in (0, 2, 3, 4), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


# ---------------------------------------------------------------- README


def readme_blocks(lang: str) -> list[str]:
    """The README's fenced code blocks in one language."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def readme_commands() -> list[list[str]]:
    """The argument vectors of the `tailspec ...` commands in the README's sh
    blocks; a quoted model JSON may span lines."""
    commands = []
    for block in readme_blocks("sh"):
        pending = ""
        for line in block.splitlines():
            pending += line + "\n"
            try:
                words = shlex.split(pending.replace("\\\n", " "), comments=True)
            except ValueError:  # a quote is still open
                continue
            if pending.rstrip().endswith("\\"):
                continue
            pending = ""
            if words[:1] == ["tailspec"]:
                commands.append(words[1:])
    return commands


def test_readme_examples_parse():
    commands = readme_commands()
    assert sorted({c[0] for c in commands}) == ["coverage", "ecdf", "estimate", "simulate",
                                                "sweep"]
    for argv in commands:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: tailspec {shlex.join(argv)}")
        if hasattr(args, "model"):
            parse_model(args.model)


def test_readme_python_example_runs():
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        with redirect_stdout(io.StringIO()):
            exec(compile(block, "README.md", "exec"), {})
