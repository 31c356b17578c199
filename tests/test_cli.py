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
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailspec
from tailspec import estimators, experiments, grouping, tuning
from tailspec.cli import build_parser, main, parse_model, parse_region, read_csv, write_csv
from tailspec.errors import CsvParseError
from tailspec.simulation import SeededRng

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
        import io
        from contextlib import redirect_stdout

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
        mass = estimators.estimate_total_mass(summaries, scheme.m,
                                              alpha.alpha_hat, t)
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

    def test_consistency_warning_listed_once(self, tmp_path, capsys):
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(5).standard_cauchy((2000, 2)))
        assert main(["estimate", "--input", str(p), "--r", "0.5", "--alpha", "1",
                     "--t", "0.4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len([w for w in doc["warnings"]
                    if "outside the consistency range" in w]) == 1

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
        from tailspec.simulation import sample_stable_1d

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

    def test_bad_model_json_exit_2(self, tmp_path):
        assert main(["simulate", "--model", "{not json", "--n", "5",
                     "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2


def run_cli(*argv):
    src = str(Path(tailspec.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "tailspec.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})


def test_import_loads_no_pool_modules():
    """concurrent.futures loads multiprocessing, socket and logging; only a
    run that starts a pool imports it."""
    src = str(Path(tailspec.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tailspec.cli, tailspec.experiments; "
         "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        '{"kind": "stable", "alpha": 0.5, "atoms": []}',
    ])
    def test_bad_model_exit_2(self, tmp_path, model):
        proc = run_cli("simulate", "--model", model, "--n", "5", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error[usage]: --model" in proc.stderr

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
    ])
    def test_flag_out_of_range_exit_2(self, six_row_csv, capsys, argv, message):
        argv = [str(six_row_csv) if a == "six.csv" else a for a in argv]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "inf"], "error[InvalidAlpha]: alpha=inf must be positive and finite"),
        (["--alpha", "1000"], "error[OverflowError]:"),
        (["--alpha", "1000", "--t", "100"], "error[InvalidT]: q^t overflows at t=100.0"),
    ])
    def test_mass_overflow_exit_4(self, tmp_path, capsys, flags, message):
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(6).standard_cauchy((400, 2)) * 1e3)
        assert main(["estimate", "--input", str(p), "--r", "0.5", *flags]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e200, 1e-160])
    def test_squares_out_of_range_exit_4(self, tmp_path, scale):
        # finite entries whose squares overflow (or underflow) give row norms
        # of inf (or rounded subnormals); only the unit-norm check on the
        # group directions stops them
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(6).standard_cauchy((400, 2)) * scale)
        proc = run_cli("estimate", "--input", str(p), "--r", "0.5")
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error[InvalidModel]: theta is not unit-norm" in proc.stderr

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

    def test_coverage_second_region_exit_2(self, capsys):
        assert main(["coverage", "--model", self.STABLE_1D, "--n", "200", "--seed", "1",
                     "--kind", "spectral", "--reps", "1", "--r", "0.5",
                     "--region", "halfspace:1:0", "--region", "halfspace:-1:0"]) == 2
        assert "error[usage]: coverage reads one --region, got 2" in capsys.readouterr().err

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
        cfg = {"kind": "polar", "alpha": 1.0, "rho": 0.5, "note": "Fréchet σ ≥ 0"}
        model = tmp_path / "m.json"
        model.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
        out = tmp_path / "x.csv"
        src = str(Path(tailspec.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "tailspec.cli", "simulate", "--model", f"@{model}", "--n", "20",
             "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        meta = json.loads(Path(str(out) + ".meta.json").read_text(encoding="utf-8"))
        assert meta["model"] == cfg

    def test_estimate_reads_csv_as_utf8(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, np.random.default_rng(2).standard_cauchy((200, 2)))
        src = str(Path(tailspec.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "tailspec.cli", "estimate", "--input", str(p), "--r", "0.5"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["input"]["N"] == 200

    def test_non_utf8_csv_exit_3(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"\xff,1\n2,3\n")
        proc = run_cli("estimate", "--input", str(p), "--r", "0.5")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "error[CsvParseError]: line 1: line is not valid UTF-8" in proc.stderr


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

    def test_ecdf_auto_r_reads_model_beta(self, capsys):
        model = json.dumps({"kind": "polar", "alpha": 0.75, "density": "abscos2t",
                            "beta": 3.0})
        assert main(["ecdf", "--model", model, "--n", "2000", "--r", "auto",
                     "--grid-size", "4", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == tuning.optimal_r_alpha(0.75, 3.0, 0.05)

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

    def test_model_beta_absent_is_none(self):
        assert parse_model('{"alpha":1.0,"rho":0.5}')[0].beta is None
        assert parse_model('{"alpha":1.75,"rho":0.5,"beta":3.5}')[0].beta == 3.5

    def test_coverage_zero_reps_exit_4(self, capsys):
        model = json.dumps({"kind": "polar", "alpha": 1.0, "total_mass": 1.0,
                            "atoms": [[1.0, 0.0, 1.0]]})
        assert main(["coverage", "--model", model, "--n", "1000", "--reps",
                     "0", "--kind", "alpha", "--seed", "1"]) == 4
        capsys.readouterr()

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
        src = str(Path(tailspec.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "tailspec.cli", "coverage", "--model", model,
             "--n", "1000", "--reps", "2", "--kind", "alpha", "--seed", "1",
             "--r", r],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
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
        src = str(Path(tailspec.__file__).resolve().parents[1])
        hits = []
        for workers in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "tailspec.cli", "coverage", "--model", model,
                 "--n", "2000", "--reps", "4", "--seed", "3", "--r", "0.5",
                 "--workers", workers, *extra],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            hits.append(json.loads(proc.stdout)["hits"])
        assert hits[0] == hits[1]


class TestRegions:
    def test_arc_wraps(self):
        region, _ = parse_region(f"arc:{3 * math.pi / 2}:{math.pi / 2}", 2)
        assert region(np.array([1.0, 0.0]))       # angle 0 inside the wrap
        assert not region(np.array([-1.0, 0.0]))  # angle pi outside

    def test_arc_half_open(self):
        region, _ = parse_region(f"arc:0:{math.pi / 2}", 2)
        assert region(np.array([1.0, 0.0]))
        assert not region(np.array([0.0, 1.0]))  # end excluded

    def test_halfspace_dimension_check(self):
        from tailspec.cli import CliUsage

        with pytest.raises(CliUsage):
            parse_region("halfspace:1,0,0:0.5", 2)

    def test_unknown_syntax(self):
        from tailspec.cli import CliUsage

        with pytest.raises(CliUsage):
            parse_region("disc:0.3", 2)


# ---------------------------------------------------------------- argv fuzz

FUZZ_MODELS = [
    '{"kind":"stable","alpha":1.75,"rho":0.5,"total_mass":1.0,"beta":3.5}',
    '{"kind":"stable","alpha":0.75,"density":"abscos2t","n_atoms":8}',
    '{"kind":"polar","alpha":1.5,"atoms":[[0.6,0.8,0.5],[-0.6,0.8,0.5]]}',
    '{"kind":"polar","alpha":1.0,"rho":1.0}',
    '{"kind":"polar","alpha":0.75,"density":"abscos2t","beta":3.0}',
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
}
# command: (flags it requires, optional flags)
FUZZ_COMMANDS = {
    "estimate": (["--r"], ["--seed", "--level", "--epsilon", "--beta", "--alpha", "--t"]),
    "simulate": (["--seed", "--n"], []),
    "sweep": (["--seed", "--n", "--target"], ["--reps", "--grid"]),
    "ecdf": (["--seed", "--n"], ["--r", "--grid-size", "--epsilon"]),
    "coverage": (["--seed", "--n", "--kind"], ["--reps", "--r", "--level", "--epsilon"]),
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


def readme_commands() -> list[list[str]]:
    """The argument vectors of the `tailspec ...` commands in the README's sh
    blocks; a quoted model JSON may span lines."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
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
