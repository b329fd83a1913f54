"""Command-line interface.

Subcommands: ``ett``, ``pmf``, ``simulate``, ``validate``, ``sweep``.
Path configurations come from a key-value text file:

    # one assignment per line, '#' starts a comment
    p = 0.5
    q = 0.5
    model = cant_start        # or resume / retransmit_identical / retransmit_resampled
    edge = 1 0                # <initial 0|1> <constant length>
    edge = 0 pmf 0:0.5 2:0.5  # <initial 0|1> pmf <value>:<prob> ...
    # optional command defaults:
    # k, samples, seed, sweep_param, sweep_from, sweep_to, sweep_step

A command flag overrides the config key of the same name (``--param``,
``--from``, ``--to`` and ``--step`` name ``sweep_param``, ``sweep_from``,
``sweep_to`` and ``sweep_step``); ``samples`` defaults to 100,000 and
``seed`` to 0.  Unknown keys are rejected.  Scalar output is ``key =
value`` lines with 12 significant digits; tabular output is CSV with a
header row.  Exit codes: 0 success, 1 invalid input, 2 divergent
expectation, 3 numerical failure, 4 simulation timeout.  DYNPATH_THREADS
caps the worker threads of the Monte Carlo simulator (absent means
single-threaded); results never depend on the thread count.  ``sweep``
takes a finite range of at most 100,000 points, builds the path once and
fills one ETT table for all its points.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    InfiniteExpectation,
    NumericalSingularity,
    SimulationTimeout,
)
from .model import EdgeDynamics, FailureModel, LengthDist, PathSpec
from .pgf import ett, ett_batch, pmf

_SCALAR_KEYS = {
    "p": float,
    "q": float,
    "model": str,
    "k": int,
    "samples": int,
    "seed": int,
    "sweep_param": str,
    "sweep_from": float,
    "sweep_to": float,
    "sweep_step": float,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration file, flags applied: the validated path and the command options."""

    path: PathSpec
    k: int | None = None
    samples: int = 100_000
    seed: int = 0
    sweep_param: str | None = None
    sweep_from: float | None = None
    sweep_to: float | None = None
    sweep_step: float | None = None

    @property
    def edges(self) -> tuple[tuple[int, LengthDist], ...]:
        """The (initial bit, length law) pair of each link, in path order."""
        return tuple(zip(self.path.x, self.path.lengths))


def _parse_length(parts: list[str], rest: str) -> LengthDist:
    if parts[0] == "pmf":
        pairs = []
        for item in parts[1:]:
            try:
                v, pr = item.split(":")
                pairs.append((int(v), float(pr)))
            except ValueError:
                raise ConfigurationError(f"bad pmf entry {item!r}, expected value:prob")
        if not pairs:
            raise ConfigurationError("pmf edge needs at least one value:prob pair")
        try:
            return LengthDist.from_pairs(pairs)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
    if len(parts) != 1:
        raise ConfigurationError(f"constant edge takes exactly one length: {rest!r}")
    try:
        return LengthDist.constant(int(parts[0]))
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def _parse_edge(rest: str) -> tuple[int, LengthDist]:
    """Parse one edge's value, ``<initial bit> <length>``, into the bit and a new law."""
    parts = rest.split()
    if len(parts) < 2:
        raise ConfigurationError(f"edge needs an initial state and a length: {rest!r}")
    if parts[0] not in ("0", "1"):
        raise ConfigurationError(f"edge initial state must be 0 or 1, got {parts[0]!r}")
    return int(parts[0]), _parse_length(parts[1:], rest)


def parse_config_text(text: str) -> RunConfig:
    """Parse the key-value configuration format; unknown keys are rejected."""
    scalars: dict[str, object] = {}
    edges: list[tuple[int, LengthDist]] = []
    parsed: dict[str, tuple[int, LengthDist]] = {}  # each distinct edge line, parsed once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        edge = parsed.get(raw)
        if edge is not None:
            edges.append(edge)
            continue
        key, sep, value = raw.partition("#")[0].partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            if key:
                raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        if key == "edge":
            try:
                edge = parsed[raw] = _parse_edge(value)
            except ConfigurationError as exc:
                raise ConfigurationError(f"line {lineno}: {exc}") from None
            edges.append(edge)
        elif key in _SCALAR_KEYS:
            if key in scalars:
                raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
            try:
                scalars[key] = _SCALAR_KEYS[key](value)
            except ValueError:
                raise ConfigurationError(f"line {lineno}: bad value for {key!r}: {value!r}")
        else:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
    for required in ("p", "q", "model"):
        if required not in scalars:
            raise ConfigurationError(f"missing required key {required!r}")
    if not edges:
        raise ConfigurationError("configuration defines no edges")
    p, q, name = (scalars.pop(key) for key in ("p", "q", "model"))
    try:
        model = FailureModel(name)
    except ValueError:
        names = ", ".join(m.value for m in FailureModel)
        raise ConfigurationError(f"unknown model {name!r}; expected one of {names}")
    bits, lengths = zip(*edges)
    try:
        path = PathSpec(bits, lengths, EdgeDynamics(p, q), model)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    return RunConfig(path, **scalars)  # type: ignore[arg-type]


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


_CHUNK = 1 << 16  # rows per write: a few writes per table, and bounded memory at any k


def _write_rows(out, row: str, *columns) -> None:
    """Write ``row % cells`` for each row of cells across ``columns``, ``_CHUNK`` rows per write.

    A column is a range, a list or a 1-D array; an array becomes Python
    floats one chunk at a time.  A chunk is one ``%`` over the row repeated,
    and ``%.12g`` prints a float as ``_fmt`` does.
    """
    for lo in range(0, len(columns[0]), _CHUNK):
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in (col[lo : lo + _CHUNK] for col in columns)]
        out.write(row * len(cells[0]) % tuple(itertools.chain.from_iterable(zip(*cells))))


def cmd_ett(cfg: RunConfig, out) -> int:
    total, per_node = ett(cfg.path)
    out.write(f"ett = {_fmt(total)}\n")
    _write_rows(out, "arrival_%d = %.12g\n", range(1, len(per_node)), per_node[1:])
    return 0


def cmd_pmf(cfg: RunConfig, fmt: str, out) -> int:
    result = pmf(cfg.path, cfg.k)
    ts = range(len(result.coeffs))
    if fmt == "csv":
        out.write("t,prob\n")
        _write_rows(out, "%d,%.12g\n", ts, result.coeffs)
        out.write(f"tail,{_fmt(result.tail_mass)}\n")
    else:
        _write_rows(out, "t_%d = %.12g\n", ts, result.coeffs)
        out.write(f"tail = {_fmt(result.tail_mass)}\n")
    return 0


def cmd_simulate(cfg: RunConfig, hist_path: str, out) -> int:
    from .oracle import mc_estimate  # the other commands need neither oracle nor its imports

    result = mc_estimate(cfg.path, cfg.samples, cfg.seed)
    try:
        with open(hist_path, "w", encoding="utf-8") as fh:
            fh.write("t,count\n")
            ts = sorted(result.histogram)
            _write_rows(fh, "%d,%d\n", ts, [result.histogram[t] for t in ts])
    except OSError as exc:
        raise ConfigurationError(f"cannot write histogram {hist_path}: {exc}") from exc
    out.write(f"mean = {_fmt(result.mean)}\n")
    out.write(f"stderr = {_fmt(result.stderr)}\n")
    out.write(f"samples = {result.samples}\n")
    out.write(f"seed = {result.seed}\n")
    out.write(f"histogram = {hist_path}\n")
    return 0


def cmd_validate(max_n: int, inject_fault: bool, out) -> int:
    from .validation import run_validation

    report = run_validation(max_n, inject_fault=inject_fault)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        out.write(f"check {check.name} = {status} ({check.detail})\n")
    if report.eq1_rows:
        out.write("eq1_discrepancy_table:\n")
        out.write("n,p,q,D,max_abs_dev,t_at_max,printed_at_D,exact_at_D\n")
        _write_rows(out, "%d,%.12g,%.12g,%d,%.12g,%d,%.12g,%.12g\n", *zip(*report.eq1_rows))
    out.write(f"result = {'pass' if report.passed else 'FAIL'}\n")
    return 0 if report.passed else 1


_SWEEP_MAX_POINTS = 100_000


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    """The grid start + i*step up to stop, each point rounded to 12 decimals.

    A point past the first _SWEEP_MAX_POINTS raises, so a step too small to
    move start (start + i*step == start at every i) ends too.
    """
    values = []
    i = 0
    while (v := start + i * step) <= stop + 1e-12:  # from > to is an empty grid
        if i == _SWEEP_MAX_POINTS:
            raise ConfigurationError(
                f"sweep grid from {start} to {stop} step {step} has more than {_SWEEP_MAX_POINTS} points"
            )
        values.append(round(v, 12))
        i += 1
    return values


def cmd_sweep(cfg: RunConfig, out) -> int:
    param, start, stop, step = cfg.sweep_param, cfg.sweep_from, cfg.sweep_to, cfg.sweep_step
    if param is None or start is None or stop is None or step is None:
        raise ConfigurationError("sweep needs --param, --from, --to and --step")
    if param not in ("p", "q"):
        raise ConfigurationError(f"sweep parameter must be p or q, got {param!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigurationError(f"sweep range must be finite, got from {start} to {stop} step {step}")
    if step <= 0:
        raise ConfigurationError(f"sweep step must be positive, got {step}")
    values = _sweep_values(start, stop, step)
    results = []
    if values:
        base = cfg.path
        paths = [replace(base, dynamics=replace(base.dynamics, **{param: value})) for value in values]
        results = ett_batch(paths)[:, -1].tolist()
    out.write("param,value,ett\n")
    _write_rows(out, param + ",%.12g,%.12g\n", values, results)
    if param == "p":
        for (v1, e1), (v2, e2) in zip(zip(values, results), zip(values[1:], results[1:])):
            if e2 > e1 + 1e-9:
                sys.stderr.write(
                    f"warning: ETT increased from {_fmt(e1)} to {_fmt(e2)} "
                    f"between p={_fmt(v1)} and p={_fmt(v2)}\n"
                )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynpath",
        description="Exact traversal-time analysis for paths of intermittently available links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ett = sub.add_parser("ett", help="expected traversal time and per-node arrivals")
    p_ett.add_argument("--config", required=True)

    p_pmf = sub.add_parser("pmf", help="latency distribution up to degree K")
    p_pmf.add_argument("--config", required=True)
    p_pmf.add_argument("--k", type=int, default=None)
    p_pmf.add_argument("--format", choices=("csv", "kv"), default="kv")

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo estimate")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--samples", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--histogram", default="dynpath_histogram.csv")

    p_val = sub.add_parser("validate", help="oracle-equivalence and reduction checks")
    p_val.add_argument("--max-n", type=int, required=True)
    p_val.add_argument("--inject-fault", action="store_true", help="self-test: force a failure")

    p_sweep = sub.add_parser("sweep", help="ETT across a parameter range, CSV output")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", dest="sweep_param", choices=("p", "q"), default=None)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, default=None)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, default=None)
    p_sweep.add_argument("--step", dest="sweep_step", type=float, default=None)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.max_n, args.inject_fault, out)
        flags = {k: v for k, v in vars(args).items() if k in _SCALAR_KEYS and v is not None}
        cfg = replace(load_config(args.config), **flags)
        if args.command == "ett":
            return cmd_ett(cfg, out)
        if args.command == "pmf":
            return cmd_pmf(cfg, args.format, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.histogram, out)
        # the required subparsers leave sweep as the only other command
        return cmd_sweep(cfg, out)
    except (ConfigurationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InfiniteExpectation as exc:
        sys.stderr.write(f"error: divergent expectation: {exc}\n")
        return 2
    except NumericalSingularity as exc:
        sys.stderr.write(f"error: numerical failure: {exc}\n")
        return 3
    except SimulationTimeout as exc:
        sys.stderr.write(f"error: simulation timeout: {exc}\n")
        return 4


def entrypoint() -> None:
    sys.exit(main())
