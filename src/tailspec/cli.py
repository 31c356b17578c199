"""Command-line front end: estimate / simulate / sweep / coverage / ecdf.

Exit codes: 0 success, 2 usage error, 3 data error (missing or malformed
input), 4 numeric or degeneracy error from the pipeline.  Usage errors come
before any estimate.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, estimators, experiments, tuning
from .errors import (CsvParseError, EmptySample, InvalidModel, NonFiniteEntry, NormOverflow,
                     TailspecError)
from .simulation import SeededRng
from .types import (Arc, DataMatrix, Halfspace, ModelSpec, Region, density_shape,
                    validate_data)

SCHEMA = "tailspec/1"
# rows formatted per call of plaincsv.format_rows by write_csv; its scratch
# is about 115 bytes a value (230 KB at two columns), and 2048-row chunks,
# with twice that, wrote a 5x10^4 x 2 sample only 0-12% faster
_WRITE_CHUNK = 1 << 10


class CliUsage(Exception):
    """Bad flag combination or unparseable flag payload (exit code 2)."""


# ---------------------------------------------------------------- CSV I/O


def read_csv(path: str | Path, skip_header: bool = False) -> DataMatrix:
    """Parse a comma-separated numeric matrix; errors carry 1-based lines.

    Every value is what float() gives for its field, bit for bit.  The file
    at ``path`` is opened once, and its three readers take turns on that
    one handle, each from the start.  Plain decimal text (see plaincsv)
    goes to the exact vectorized reader plaincsv.read_plain_csv, which
    splits a large regular file into byte ranges: the reading process parses
    the first range and a forked child parses each further range, and it
    reaps every child before it returns.  Other text goes to numpy, which
    parses the open file in one pass.  Text numpy
    rejects goes through the line reader, which either raises CsvParseError
    at the first bad line or parses what float() accepts and numpy does not
    (whitespace-only lines, ``1_0``, non-ASCII digits).  Whatever numpy
    accepts, float() reads as the same value.  An input that cannot seek (a
    pipe such as /dev/stdin) is read into memory once.
    """
    # imported here: a process that reads no CSV does not compile it
    from .plaincsv import read_plain_csv
    with open(path, "rb") as fh, warnings.catch_warnings():
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        values = read_plain_csv(fh, skip_header)
        if values is None:
            fh.seek(0)
            # bytes that are not UTF-8 decode to lone surrogates, which numpy
            # and float() both reject, so such a line fails with its number
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                values = np.loadtxt(text, delimiter=",", dtype=np.float64, ndmin=2,
                                    comments=None, skiprows=int(skip_header))
            except ValueError:
                text.seek(0)
                values = _read_csv_lines(text, skip_header)
    if values.shape[0] == 0:
        raise EmptySample(f"{path}: no data rows")
    return DataMatrix(values)


def _read_csv_lines(lines, skip_header: bool) -> np.ndarray:
    """read_csv's values line by line with float(), for text numpy rejects."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
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
    return np.asarray(rows)


def write_csv(path: str | Path, values: np.ndarray) -> None:
    """Write rows with 17 significant digits (lossless float64 round-trip).

    Each value is written as '%.17g' writes it; plaincsv.format_rows
    formats _WRITE_CHUNK rows at a time.
    """
    # imported here: a process that writes no CSV does not build its tables
    from .plaincsv import format_rows
    a = np.atleast_2d(np.asarray(values))
    with open(path, "wb") as fh:
        for lo in range(0, a.shape[0], _WRITE_CHUNK):
            fh.write(format_rows(a[lo:lo + _WRITE_CHUNK]))


# ------------------------------------------------------------- JSON plumbing


def _doc(args, **fields) -> dict:
    """A JSON document: the schema header, then fields in the order given."""
    return {"schema": SCHEMA, "version": __version__, "command": args.command,
            **fields}


def _json_safe(x):
    """x with every non-finite float replaced by its name: "inf", "-inf" or "nan"."""
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return str(x) if isinstance(x, float) and not math.isfinite(x) else x


def _emit(doc: dict, out: str | Path | None) -> None:
    """Write doc as strict, indented JSON to the file out, or to stdout."""
    text = json.dumps(_json_safe(doc), indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text, flush=True)  # a closed stdout fails here, inside main


# ---------------------------------------------------------------- model spec

_MODEL_KEYS = ("kind", "alpha", "total_mass", "beta", "atoms", "rho", "density", "n_atoms")


def parse_model(text: str) -> tuple[ModelSpec, str, int]:
    """Parse the --model JSON text into (ModelSpec, sampler kind, density cells).

    Schema: {"kind": "polar"|"stable", "alpha": a, "total_mass": s,
             "beta": b?, "atoms": [[x1..xd, w], ...] | "rho": r |
             "density": "abscos2t"|"uniform", "n_atoms": K?}
    Any other key is a usage error.
    """
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliUsage(f"--model is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise CliUsage("--model must be a JSON object")
    unknown = [k for k in cfg if k not in _MODEL_KEYS]
    if unknown:
        raise CliUsage(f"--model has unknown keys {unknown}; known: {', '.join(_MODEL_KEYS)}")
    kind = cfg.get("kind", "polar")
    if kind not in ("polar", "stable"):
        raise CliUsage(f"model kind must be polar or stable, got {kind!r}")
    if "alpha" not in cfg:
        raise CliUsage("--model needs an alpha")
    alpha = _model_number(cfg, "alpha")
    total = _model_number(cfg, "total_mass", 1.0)
    beta = _model_number(cfg, "beta") if "beta" in cfg else None
    n_atoms = _model_number(cfg, "n_atoms", experiments.DEFAULT_STABLE_ATOMS, whole=True)

    sources = [k for k in ("atoms", "rho", "density") if k in cfg]
    if len(sources) != 1:
        raise CliUsage("--model needs exactly one of atoms, rho, density")
    atoms = weights = None
    density = cfg.get("density")
    if "atoms" in cfg:
        atoms, weights = _model_atoms(cfg["atoms"])
    elif "rho" in cfg:
        rho = _model_number(cfg, "rho")
        if not (-1.0 <= rho <= 1.0):
            raise CliUsage(f"rho={rho} outside [-1,1]")
        keep = [rho > -1.0, rho < 1.0]  # the atoms +1 and -1 that carry mass
        atoms = np.array([[1.0], [-1.0]])[keep]
        # halved first, so a total near the float64 maximum does not overflow
        weights = np.array([total / 2.0 * (1.0 + rho), total / 2.0 * (1.0 - rho)])[keep]
    else:
        try:
            density_shape(density)
        except InvalidModel as e:  # an unknown name
            raise CliUsage(str(e))
    return ModelSpec(alpha=alpha, total_mass=total, beta=beta, atoms=atoms,
                     weights=weights, density=density), kind, n_atoms


def _model_number(cfg: dict, key: str, default=None, whole: bool = False):
    """cfg[key], or default when it is absent, as a float, or as an int when
    whole; a number or a numeric string, not true or false.  Only beta may be
    infinite and nothing may be NaN."""
    value = cfg.get(key, default)
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise CliUsage(f"--model {key} must be a number, got {value!r}")
    if math.isnan(number) or (math.isinf(number) and key != "beta"):
        raise CliUsage(f"--model {key} must be finite, got {value!r}")
    if whole:
        if not number.is_integer():
            raise CliUsage(f"--model {key} must be a whole number, got {value!r}")
        return int(number)
    return number


def _model_atoms(rows) -> tuple[np.ndarray, np.ndarray]:
    """The --model atoms, rows [x1, ..., xd, w], as a (K, d) direction array
    and a (K,) weight array."""
    bad = CliUsage("--model atoms must be a list of [x1, ..., xd, w] rows of finite numbers")
    if not isinstance(rows, list):
        raise bad
    if not rows:
        raise CliUsage("--model atoms needs at least one [x1, ..., xd, w] row")
    if not all(isinstance(row, list) and len(row) >= 2
               and not any(isinstance(x, bool) for x in row) for row in rows):
        raise bad
    try:
        values = [[float(x) for x in row] for row in rows]
    except (TypeError, ValueError, OverflowError):
        raise bad
    if not all(math.isfinite(x) for row in values for x in row):
        raise bad
    if len({len(row) for row in values}) != 1:
        raise InvalidModel("atoms have mixed dimensions")
    table = np.array(values)
    return table[:, :-1], table[:, -1]


# ---------------------------------------------------------------- regions


def parse_region(text: str, dim: int) -> Region:
    """Region syntax: arc:START:END (d=2, [START,END) radians, wraps) or
    halfspace:u1,...,ud:c meaning <theta,u> > c; parsed to an Arc or a
    Halfspace.  Every number must be finite."""
    parts = text.split(":")
    if parts[0] not in ("arc", "halfspace"):
        raise CliUsage(f"unknown region syntax {text!r}")
    if parts[0] == "arc" and dim != 2:
        raise CliUsage("arc regions need d=2 data")
    if len(parts) != 3:
        raise CliUsage(f"bad {parts[0]} region {text!r}")
    try:
        first = [float(x) for x in parts[1].split(",")]
        last = float(parts[2])
    except ValueError:
        raise CliUsage(f"bad {parts[0]} region {text!r}")
    if not all(math.isfinite(x) for x in first + [last]):
        raise CliUsage(f"{parts[0]} region {text!r} has a number that is not finite")
    if parts[0] == "arc":
        if len(first) != 1:
            raise CliUsage(f"bad arc region {text!r}")
        return Arc(first[0], last)
    if len(first) != dim:
        raise CliUsage(f"halfspace direction has {len(first)} components, data has {dim}")
    return Halfspace(tuple(first), last)


# ---------------------------------------------------------------- commands


def _parse_r(text: str | float, flag: str = "--r") -> float:
    """An exponent in (0,1): the --r value, or one --grid value when flag is --grid."""
    try:
        r = float(text)
    except ValueError:
        raise CliUsage(f"--r must be a number or 'auto', got {text!r}")
    if not (0.0 < r < 1.0):
        raise CliUsage(f"{flag}={r} outside (0,1)")
    return r


def _resolve_r(args, kind: str, alpha: float | None, beta: float | None) -> float:
    """--r as given, or for auto the exponent tuning.auto_r picks for kind."""
    if args.r != "auto":
        return _parse_r(args.r)
    if alpha is None:
        raise CliUsage("--r auto needs --alpha")
    epsilon = tuning.DEFAULT_EPSILON if args.epsilon is None else args.epsilon
    return tuning.auto_r(kind, alpha, beta, epsilon)


def cmd_estimate(args) -> dict:
    if args.shuffle and args.seed is None:
        raise CliUsage("--shuffle needs --seed")
    if args.seed is not None and not args.shuffle:
        raise CliUsage("estimate reads --seed only with --shuffle")
    if args.beta is not None and args.r != "auto" and args.t != "auto":
        raise CliUsage("estimate reads --beta only with --r auto or --t auto")
    data = validate_data(read_csv(args.input, skip_header=args.skip_header))
    if args.shuffle:
        g = SeededRng(args.seed, stream=0xD47A).generator()
        data = DataMatrix(data.values[g.permutation(data.rows)])
    r = _resolve_r(args, "alpha", args.alpha, args.beta)
    try:
        t = None if args.t == "auto" else float(args.t)
    except ValueError:
        raise CliUsage(f"--t must be a number or 'auto', got {args.t!r}")
    regions = [(text, parse_region(text, data.dim)) for text in args.region or ()]
    return _doc(args, input={"path": str(args.input), "N": data.rows, "d": data.dim},
                **estimators.estimate_report(data, r, args.alpha, t, args.beta,
                                             regions, args.level))


def cmd_simulate(args) -> dict:
    model, kind, n_atoms = parse_model(args.model)
    if args.out is None:
        raise CliUsage("simulate needs --out")
    data = experiments.draw_sample(model, args.n, SeededRng(args.seed), kind,
                                   n_atoms)
    write_csv(args.out, data.values)
    meta = _doc(args, seed=args.seed, model=json.loads(args.model), N=args.n,
                d=data.dim, out=str(args.out))
    _emit(meta, str(args.out) + ".meta.json")
    return meta


def _summary_path(out: str) -> Path:
    p = Path(out)
    return p.with_suffix(".json") if p.suffix != ".json" else p.with_suffix(".summary.json")


def cmd_sweep(args) -> dict:
    model, kind, n_atoms = parse_model(args.model)
    if args.grid is not None:
        try:
            r_grid = [float(x) for x in args.grid.split(",")]
        except ValueError:
            raise CliUsage(f"bad --grid {args.grid!r}")
        for r in r_grid:
            _parse_r(r, "--grid")
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
        write_csv(args.out, np.array(res.rows()))
        _emit(doc, _summary_path(args.out))
    return doc


def cmd_ecdf(args) -> dict:
    model, kind, n_atoms = parse_model(args.model)
    r = _resolve_r(args, "spectral", model.alpha, model.beta)
    res = experiments.run_ecdf_compare(model, args.n, r, args.grid_size,
                                       SeededRng(args.seed), sampler=kind,
                                       n_atoms=n_atoms)
    doc = _doc(args, seed=args.seed, N=args.n, r=r, grid_size=args.grid_size,
               sup_distance=res.sup_distance, n_atoms_estimate=res.n_atoms_estimate)
    if args.out:
        write_csv(args.out, np.array(res.rows()))
        _emit(doc, _summary_path(args.out))
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
        region = parse_region(args.region[0], model.dim)
    elif args.region:
        raise CliUsage(f"coverage --kind {args.kind} reads no --region")
    r = _resolve_r(args, args.kind, model.alpha, model.beta)
    res = experiments.run_ci_coverage(
        model, args.n, r, args.kind, args.level, args.reps,
        SeededRng(args.seed), sampler=kind, region=region, n_atoms=n_atoms,
        workers=args.workers)
    return _doc(args, seed=args.seed, kind=res.kind, level=res.level, reps=res.reps,
                hits=res.hits, coverage=res.coverage, truth=res.truth,
                warnings=list(res.warnings))


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
    "--epsilon": (_R_COMMANDS, dict(type=float, default=None)),
    "--level": (("estimate", "coverage"), dict(type=float, default=0.95)),
    "--workers": (("sweep", "coverage"), dict(type=int, default=1)),
}


# parse_args does not change the parser, so one process builds it once
@functools.cache
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
                     help="second-order exponent for --r auto and --t auto (default: 2*alpha)")
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
            try:
                args.model = Path(args.model[1:]).read_text(encoding="utf-8")
            except UnicodeDecodeError as e:
                raise CliUsage(f"--model {args.model} is not UTF-8 text: {e}")
        if getattr(args, "n", 1) < 1:
            raise CliUsage(f"--n must be at least 1, got {args.n}")
        if getattr(args, "reps", 1) < 1:
            raise CliUsage(f"--reps must be at least 1, got {args.reps}")
        if getattr(args, "workers", 1) < 1:
            raise CliUsage(f"--workers must be at least 1, got {args.workers}")
        if getattr(args, "grid_size", 2) < 2:
            raise CliUsage(f"--grid-size must be at least 2, got {args.grid_size}")
        if not 0.0 < getattr(args, "level", 0.5) < 1.0:
            raise CliUsage(f"--level={args.level} outside (0,1)")
        if 0.5 + getattr(args, "level", 0.5) / 2.0 >= 1.0:  # the quantile _wald reads
            raise CliUsage(f"--level={args.level} too close to 1: 0.5 + level/2 rounds to 1")
        if getattr(args, "epsilon", None) is not None:
            if args.r != "auto":
                raise CliUsage(f"{args.command} reads --epsilon only with --r auto")
            if not 0.0 < args.epsilon < 0.5:
                raise CliUsage(f"--epsilon={args.epsilon} outside (0,1/2) with --r auto")
            if 1.0 - args.epsilon == 1.0:  # the cap of the r rules
                raise CliUsage(f"--epsilon={args.epsilon} too small: 1 - epsilon rounds to 1")
        if args.command in _MODEL_COMMANDS and args.seed is None:
            raise CliUsage(f"{args.command} needs --seed")
        doc = args.fn(args)
        # estimate/coverage write their JSON doc to --out; the other commands
        # write files inside their handlers and echo the summary to stdout
        _emit(doc, args.out if args.command in ("estimate", "coverage") else None)
    except CliUsage as e:
        print(f"error[usage]: {e}", file=sys.stderr)
        return 2
    except (CsvParseError, NonFiniteEntry, NormOverflow, EmptySample) as e:
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
    except MemoryError as e:  # e.g. an --n or --grid-size numpy cannot allocate
        print(f"error[MemoryError]: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
