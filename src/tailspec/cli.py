"""Command-line front end: estimate / simulate / sweep / coverage / ecdf.

Exit codes: 0 success, 2 usage error, 3 data error (missing or malformed
input), 4 numeric or degeneracy error from the pipeline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, estimators, experiments, grouping, tuning
from .errors import (
    CsvParseError,
    EmptySample,
    EstimationWarning,
    InvalidModel,
    NonFiniteEntry,
    TailspecError,
    ZeroVariance,
)
from .simulation import SeededRng
from .types import (Arc, DataMatrix, Halfspace, ModelSpec, NamedDensity, Region,
                    validate_data)

SCHEMA = "tailspec/1"
_CDF_GRID = 128  # angles reported by `estimate` for d=2 input
# rows formatted per write by write_csv; a small block keeps the Python row
# lists and strings it builds (about 200 bytes a row) out of peak memory
_WRITE_CHUNK = 1 << 10
_PACKED = (".bz2", ".gz", ".xz", ".lzma")  # names numpy would decompress


class CliUsage(Exception):
    """Bad flag combination or unparseable flag payload (exit code 2)."""


# ---------------------------------------------------------------- CSV I/O


def read_csv(path: str | Path, skip_header: bool = False) -> DataMatrix:
    """Parse a comma-separated numeric matrix; errors carry 1-based lines.

    numpy parses the whole file in one pass, reading it in chunks.  Text it
    rejects goes through the line reader, which either raises CsvParseError
    at the first bad line or parses what float() accepts and numpy does not
    (whitespace-only lines, ``1_0``, non-ASCII digits).  Whatever numpy
    accepts, float() reads as the same value.
    """
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # open() above raised any OSError.  numpy reads a str path in chunks,
        # an open file by lines; an absolute path never looks like a URL to its
        # DataSource, and a name it would decompress gets fh (gzip: not UTF-8)
        src = fh if Path(path).suffix in _PACKED else str(Path(path).absolute())
        try:
            values = np.loadtxt(src, delimiter=",", dtype=np.float64, ndmin=2,
                                comments=None, skiprows=int(skip_header), encoding="utf-8")
        except ValueError:
            values = None
    if values is None:
        return _read_csv_lines(path, skip_header)
    if values.shape[0] == 0:
        raise EmptySample(f"{path}: no data rows")
    return DataMatrix(values)


def _read_csv_lines(path: str | Path, skip_header: bool) -> DataMatrix:
    """read_csv line by line with float(), for text numpy rejects."""
    rows: list[list[float]] = []
    width = None
    # bytes that are not UTF-8 decode to lone surrogates, which float()
    # rejects, so such a line fails with its own number
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and skip_header:
                continue
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                message = f"cannot parse {line!r}"
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    message = "line is not valid UTF-8"
                raise CsvParseError(lineno, message)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise CsvParseError(
                    lineno, f"expected {width} columns, found {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise EmptySample(f"{path}: no data rows")
    return DataMatrix(np.asarray(rows))


def write_csv(path: str | Path, values: np.ndarray) -> None:
    """Write rows with 17 significant digits (lossless float64 round-trip).

    Each block of _WRITE_CHUNK rows is formatted by one % with the row
    format repeated once per row.
    """
    a = np.atleast_2d(np.asarray(values))
    line = ",".join(["%.17g"] * a.shape[1]) + "\n"
    block = line * _WRITE_CHUNK
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, a.shape[0], _WRITE_CHUNK):
            rows = a[lo:lo + _WRITE_CHUNK]
            fmt = block if rows.shape[0] == _WRITE_CHUNK else line * rows.shape[0]
            fh.write(fmt % tuple(rows.ravel().tolist()))


# ------------------------------------------------------------- JSON plumbing


def _num(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _interval_doc(ci) -> dict:
    return {"lo": _num(ci.lo), "hi": _num(ci.hi), "level": ci.level}


def _ci_doc(name: str, interval, est, level: float, notes: list[str]):
    """interval(est, level) as a JSON object, or None with a warning naming
    the interval when its plug-in variance is zero or there is one group."""
    try:
        return _interval_doc(interval(est, level))
    except (ZeroVariance, EmptySample) as e:
        notes.append(f"{name} ci is null: {e}")
        return None


def _doc(args, **fields) -> dict:
    """A JSON document: the schema header, then fields in the order given."""
    return {"schema": SCHEMA, "version": __version__, "command": args.command,
            **fields}


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text, flush=True)  # a closed stdout fails here, inside main


# ---------------------------------------------------------------- model spec

def parse_model(text: str) -> tuple[ModelSpec, str, int]:
    """Parse the --model JSON text into (ModelSpec, sampler kind, density cells).

    Schema: {"kind": "polar"|"stable", "alpha": a, "total_mass": s,
             "beta": b?, "atoms": [[x1..xd, w], ...] | "rho": r |
             "density": "abscos2t"|"uniform", "n_atoms": K?}
    """
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliUsage(f"--model is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise CliUsage("--model must be a JSON object")
    kind = cfg.get("kind", "polar")
    if kind not in ("polar", "stable"):
        raise CliUsage(f"model kind must be polar or stable, got {kind!r}")
    if "alpha" not in cfg:
        raise CliUsage("--model needs an alpha")
    alpha = _model_number(cfg, "alpha")
    total = _model_number(cfg, "total_mass", 1.0)
    beta = _model_number(cfg, "beta") if "beta" in cfg else None
    n_atoms = _model_number(cfg, "n_atoms", experiments.DEFAULT_STABLE_ATOMS, int)

    sources = [k for k in ("atoms", "rho", "density") if k in cfg]
    if len(sources) != 1:
        raise CliUsage("--model needs exactly one of atoms, rho, density")
    if "atoms" in cfg:
        model = ModelSpec(alpha=alpha, total_mass=total, beta=beta,
                          atoms=_model_atoms(cfg["atoms"]))
    elif "rho" in cfg:
        rho = _model_number(cfg, "rho")
        if not (-1.0 <= rho <= 1.0):
            raise CliUsage(f"rho={rho} outside [-1,1]")
        atoms = []
        if rho > -1.0:
            atoms.append((np.array([1.0]), total * (1.0 + rho) / 2.0))
        if rho < 1.0:
            atoms.append((np.array([-1.0]), total * (1.0 - rho) / 2.0))
        model = ModelSpec(alpha=alpha, total_mass=total, beta=beta,
                          atoms=tuple(atoms))
    else:
        try:
            density = NamedDensity(cfg["density"], total)
        except InvalidModel as e:  # an unknown name
            raise CliUsage(str(e))
        model = ModelSpec(alpha=alpha, total_mass=total, beta=beta,
                          density=density)
    return model, kind, n_atoms


def _model_number(cfg: dict, key: str, default=None, cast=float):
    """cfg[key], or default when it is absent, as a number; only beta may be
    infinite and nothing may be NaN."""
    value = cfg.get(key, default)
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise CliUsage(f"--model {key} must be a number, got {value!r}")
    if math.isnan(number) or (math.isinf(number) and key != "beta"):
        raise CliUsage(f"--model {key} must be finite, got {value!r}")
    return number


def _model_atoms(rows) -> tuple[tuple[np.ndarray, float], ...]:
    """The --model atoms, rows [x1, ..., xd, w], as (direction, weight) pairs."""
    bad = CliUsage("--model atoms must be a list of [x1, ..., xd, w] rows of finite numbers")
    if not isinstance(rows, list):
        raise bad
    if not rows:
        raise CliUsage("--model atoms needs at least one [x1, ..., xd, w] row")
    atoms = []
    for row in rows:
        if not isinstance(row, list) or len(row) < 2:
            raise bad
        try:
            values = [float(x) for x in row]
        except (TypeError, ValueError, OverflowError):
            raise bad
        if not all(math.isfinite(x) for x in values):
            raise bad
        atoms.append((np.array(values[:-1]), values[-1]))
    return tuple(atoms)


# ---------------------------------------------------------------- regions


def parse_region(text: str, dim: int) -> tuple[Region, str]:
    """Region syntax: arc:START:END (d=2, [START,END) radians, wraps) or
    halfspace:u1,...,ud:c meaning <theta,u> > c; parsed to an Arc or a
    Halfspace."""
    parts = text.split(":")
    if parts[0] == "arc":
        if dim != 2:
            raise CliUsage("arc regions need d=2 data")
        if len(parts) != 3:
            raise CliUsage(f"bad arc region {text!r}")
        try:
            return Arc(float(parts[1]), float(parts[2])), text
        except ValueError:
            raise CliUsage(f"bad arc region {text!r}")
    if parts[0] == "halfspace":
        if len(parts) != 3:
            raise CliUsage(f"bad halfspace region {text!r}")
        try:
            region = Halfspace(tuple(float(x) for x in parts[1].split(",")),
                               float(parts[2]))
        except ValueError:
            raise CliUsage(f"bad halfspace region {text!r}")
        if len(region.u) != dim:
            raise CliUsage(f"halfspace direction has {len(region.u)} components, "
                           f"data has {dim}")
        return region, text
    raise CliUsage(f"unknown region syntax {text!r}")


# ---------------------------------------------------------------- commands


def _parse_r(text: str) -> float:
    try:
        r = float(text)
    except ValueError:
        raise CliUsage(f"--r must be a number or 'auto', got {text!r}")
    if not (0.0 < r < 1.0):
        raise CliUsage(f"--r={r} outside (0,1)")
    return r


def _resolve_r(args, kind: str, alpha: float | None, beta: float | None) -> float:
    """--r as given, or for auto the exponent tuning.auto_r picks for kind."""
    if args.r != "auto":
        return _parse_r(args.r)
    if alpha is None:
        raise CliUsage("--r auto needs --alpha")
    return tuning.auto_r(kind, alpha, beta, args.epsilon)


def cmd_estimate(args) -> dict:
    data = validate_data(read_csv(args.input, skip_header=args.skip_header))
    if args.shuffle:
        if args.seed is None:
            raise CliUsage("--shuffle needs --seed")
        g = SeededRng(args.seed, stream=0xD47A).generator()
        data = DataMatrix(data.values[g.permutation(data.rows)])
    r = _resolve_r(args, "alpha", args.alpha, args.beta)

    captured: list[str] = []
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always", EstimationWarning)
        scheme = grouping.plan_grouping(data.rows, r)
        stats = grouping.summarize_groups(data, scheme)
        alpha_est = estimators.estimate_alpha(stats)
        spectral = estimators.estimate_spectral(stats)

        alpha_used = args.alpha if args.alpha is not None else alpha_est.alpha_hat
        alpha_mode = "fixed" if args.alpha is not None else "plugin"
        if args.t == "auto":
            t = tuning.default_t(alpha_used, r)
        else:
            try:
                t = float(args.t)
            except ValueError:
                raise CliUsage(f"--t must be a number or 'auto', got {args.t!r}")
        mass_est = estimators.estimate_total_mass(stats, scheme.m, alpha_used, t)
        captured.extend(str(w.message) for w in wlist
                        if issubclass(w.category, EstimationWarning))

    undefined: list[str] = []
    doc = _doc(
        args,
        input={"path": str(args.input), "N": data.rows, "d": data.dim},
        scheme={"r": r, "n": scheme.n, "m": scheme.m, "discarded": scheme.discarded},
        alpha={
            "hat": alpha_est.alpha_hat,
            "s_n": alpha_est.s_n,
            "kappa_var": alpha_est.kappa_var,
            "ci": _ci_doc("alpha", estimators.alpha_ci, alpha_est, args.level,
                          undefined),
        },
        mass={
            "hat": mass_est.mass_hat,
            "t": t,
            "alpha_used": alpha_used,
            "alpha_mode": alpha_mode,
            "mean_qt": mass_est.mean_qt,
            "ci": _ci_doc("mass", estimators.total_mass_ci, mass_est, args.level,
                          undefined),
        },
        spectral={},
        warnings=captured + undefined,
    )
    if alpha_mode == "plugin":
        doc["warnings"].append("mass estimate uses plug-in alpha_hat")

    regions = []
    for spec_text in args.region or []:
        region, label = parse_region(spec_text, data.dim)
        mass = estimators.spectral_mass(spectral, region)
        entry = {"spec": label, "mass": mass}
        if 0.0 < mass < 1.0:
            entry["ci"] = _interval_doc(estimators._proportion_ci(mass, spectral.n, args.level))
        regions.append(entry)
    doc["spectral"]["regions"] = regions
    if data.dim == 1:
        doc["spectral"]["rho"] = estimators.rho_1d(spectral)
    if data.dim == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, _CDF_GRID + 1)[1:]
        doc["spectral"]["cdf"] = [
            [a, v] for a, v in estimators.spectral_cdf_2d(spectral, angles)
        ]
    return doc


def cmd_simulate(args) -> dict:
    model, kind, n_atoms = parse_model(args.model)
    if args.out is None:
        raise CliUsage("simulate needs --out")
    data = experiments.draw_sample(model, args.n, SeededRng(args.seed), kind,
                                   n_atoms)
    write_csv(args.out, data.values)
    meta = _doc(args, seed=args.seed, model=json.loads(args.model), N=args.n,
                d=data.dim, out=str(args.out))
    Path(str(args.out) + ".meta.json").write_text(
        json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return meta


def _summary_path(out: str) -> Path:
    p = Path(out)
    return p.with_suffix(".json") if p.suffix != ".json" else p.with_suffix(".summary.json")


def cmd_sweep(args) -> dict:
    model, kind, n_atoms = parse_model(args.model)
    if args.grid:
        try:
            r_grid = [float(x) for x in args.grid.split(",")]
        except ValueError:
            raise CliUsage(f"bad --grid {args.grid!r}")
    else:
        r_grid = experiments.default_r_grid(args.n, args.target)
        if not r_grid:
            raise CliUsage(f"no r in the default grid is feasible for --n {args.n} "
                           f"and --target {args.target}")
    res = experiments.run_r_sweep(model, args.n, r_grid, args.reps, args.target,
                                  SeededRng(args.seed), sampler=kind,
                                  n_atoms=n_atoms, workers=args.workers)
    doc = _doc(args, seed=args.seed, target=args.target, N=args.n, reps=res.reps,
               rows=res.rows())
    if args.out:
        write_csv(args.out, np.array(
            [[o, m, s, res.reps] for o, m, s, _ in res.rows()]))
        _summary_path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                                           encoding="utf-8")
    return doc


def cmd_ecdf(args) -> dict:
    model, kind, n_atoms = parse_model(args.model)
    r = _resolve_r(args, "alpha", model.alpha, model.beta)
    res = experiments.run_ecdf_compare(model, args.n, r, args.grid_size,
                                       SeededRng(args.seed), sampler=kind,
                                       n_atoms=n_atoms)
    doc = _doc(args, seed=args.seed, N=args.n, r=r, grid_size=args.grid_size,
               sup_distance=res.sup_distance, n_atoms_estimate=res.n_atoms_estimate)
    if args.out:
        write_csv(args.out, np.array(res.rows()))
        _summary_path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                                           encoding="utf-8")
    else:
        doc["rows"] = res.rows()
    return doc


def cmd_coverage(args) -> dict:
    model, kind, n_atoms = parse_model(args.model)
    if len(args.region or ()) > 1:
        raise CliUsage(f"coverage reads one --region, got {len(args.region)}")
    region = None
    if args.kind == "spectral":
        if not args.region:
            raise CliUsage("spectral coverage needs --region")
        region, _ = parse_region(args.region[0], model.dim)
    r = _resolve_r(args, args.kind, model.alpha, model.beta)
    res = experiments.run_ci_coverage(
        model, args.n, r, args.kind, args.level, args.reps,
        SeededRng(args.seed), sampler=kind, region=region, n_atoms=n_atoms,
        workers=args.workers)
    return _doc(args, seed=args.seed, kind=res.kind, level=res.level, reps=res.reps,
                hits=res.hits, coverage=res.coverage, truth=res.truth)


# ---------------------------------------------------------------- parser


_MODEL_COMMANDS = ("simulate", "sweep", "ecdf", "coverage")
_R_COMMANDS = ("estimate", "ecdf", "coverage")
# flags more than one command reads: flag -> (those commands, add_argument keywords)
_FLAGS = {
    "--seed": (("estimate",) + _MODEL_COMMANDS, dict(type=int, default=None)),
    "--out": (("estimate",) + _MODEL_COMMANDS, dict(default=None)),
    "--model": (_MODEL_COMMANDS, dict(required=True, help="model JSON or @file.json")),
    "--n": (_MODEL_COMMANDS, dict(type=int, required=True)),
    "--r": (_R_COMMANDS, dict(default="auto")),
    "--epsilon": (_R_COMMANDS, dict(type=float, default=tuning.DEFAULT_EPSILON)),
    "--level": (("estimate", "coverage"), dict(type=float, default=0.95)),
    "--workers": (("sweep", "coverage"), dict(type=int, default=1)),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tailspec",
        description="Tail index, spectral measure and total mass estimation "
                    "for heavy-tailed multivariate data via group maxima.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(fn, help):
        name = fn.__name__.removeprefix("cmd_")
        sp = sub.add_parser(name, help=help)
        for flag, (commands, kwargs) in _FLAGS.items():
            if name in commands:
                sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    est = command(cmd_estimate, "run all estimators on a CSV sample")
    est.add_argument("--input", required=True)
    est.add_argument("--skip-header", action="store_true")
    est.add_argument("--shuffle", action="store_true",
                     help="seeded row permutation before grouping")
    est.add_argument("--t", default="auto")
    est.add_argument("--alpha", type=float, default=None,
                     help="fixed tail index for the mass estimator (default: plug-in)")
    est.add_argument("--beta", type=float, default=None,
                     help="second-order exponent for --r auto (default: 2*alpha)")
    est.add_argument("--region", action="append",
                     help="arc:START:END or halfspace:u1,..,ud:c (repeatable)")

    command(cmd_simulate, "write a simulated CSV sample")

    sw = command(cmd_sweep, "estimator-vs-r Monte Carlo sweep")
    sw.add_argument("--reps", type=int, default=50)
    sw.add_argument("--target", choices=("alpha", "rho", "mass"), required=True)
    sw.add_argument("--grid", default=None, help="comma-separated r values")

    ec = command(cmd_ecdf, "estimated vs exact spectral cdf (d=2)")
    ec.add_argument("--grid-size", type=int, default=256)

    cov = command(cmd_coverage, "CI coverage study")
    cov.add_argument("--reps", type=int, default=200)
    cov.add_argument("--kind", choices=("alpha", "spectral", "mass"), required=True)
    cov.add_argument("--region", action="append", help="one region, for --kind spectral")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "model", "").startswith("@"):
            # read once, so everything a command records matches what it parsed
            args.model = Path(args.model[1:]).read_text(encoding="utf-8")
        if getattr(args, "n", 1) < 1:
            raise CliUsage(f"--n must be at least 1, got {args.n}")
        if getattr(args, "grid_size", 2) < 2:
            raise CliUsage(f"--grid-size must be at least 2, got {args.grid_size}")
        if not 0.0 < getattr(args, "level", 0.5) < 1.0:
            raise CliUsage(f"--level={args.level} outside (0,1)")
        if getattr(args, "r", None) == "auto" and not 0.0 < args.epsilon < 0.5:
            raise CliUsage(f"--epsilon={args.epsilon} outside (0,1/2) with --r auto")
        if args.command in _MODEL_COMMANDS and args.seed is None:
            raise CliUsage(f"{args.command} needs --seed")
        doc = args.fn(args)
        # estimate/coverage write their JSON doc to --out; the other commands
        # write files inside their handlers and echo the summary to stdout
        _emit(doc, args.out if args.command in ("estimate", "coverage") else None)
    except CliUsage as e:
        print(f"error[usage]: {e}", file=sys.stderr)
        return 2
    except (CsvParseError, NonFiniteEntry, EmptySample) as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # also a reader closing stdout early (BrokenPipeError)
        print(f"error[io]: {e}", file=sys.stderr)
        if isinstance(e, BrokenPipeError):
            # the interpreter flushes stdout at exit; let that flush go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except (TailspecError, OverflowError) as e:  # float ** can overflow
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
