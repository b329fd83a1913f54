"""Seeded inputs for the three benchmark workloads.

``generate(workload, seed, workdir)`` writes the configuration files one
workload needs into ``workdir`` and returns the list of CLI invocations
that make up one pass.  The program sees only those files and arguments.

The seed decides the order of each path's links and their initial on/off
bits, and the Monte Carlo seeds.  It never decides a path's size, its
dynamics, its failure model or the multiset of its link lengths: those set
the amount of work, and keeping them fixed keeps the work of a pass the
same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("long_path", "latency_dist", "crosscheck")

# A length law is a tuple of (value, probability) atoms; one atom is a
# constant length.  The two-atom laws have probabilities exact in binary,
# so their text form parses back to a law that sums to 1 exactly.
C0, C1, C2, C3 = ((0, 1.0),), ((1, 1.0),), ((2, 1.0),), ((3, 1.0),)
PMF_02 = ((0, 0.5), (2, 0.5))
PMF_13 = ((1, 0.25), (3, 0.75))

Law = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class PathCase:
    """One path as data: shared dynamics, failure model, per-link bits and laws."""

    p: float
    q: float
    model: str
    bits: tuple[int, ...]
    laws: tuple[Law, ...]

    @property
    def n(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass.  ``argv`` follows ``python -m dynpath``."""

    name: str
    kind: str  # ett | sweep | pmf | simulate | validate
    argv: tuple[str, ...]
    path: PathCase | None = None
    trivial: bool = False  # a set-up probe: counts toward setup_s
    extra: dict = field(default_factory=dict, hash=False, compare=False)


def _seeded_path(tag: str, seed: int, n: int, pattern, p: float, q: float, model: str) -> PathCase:
    rng = random.Random(f"{tag}:{seed}")
    laws = (list(pattern) * (n // len(pattern) + 1))[:n]
    rng.shuffle(laws)
    bits = tuple(rng.getrandbits(1) for _ in range(n))
    return PathCase(p, q, model, bits, tuple(laws))


def config_text(case: PathCase) -> str:
    """The key-value configuration file for one path."""
    lines = [f"p = {case.p!r}", f"q = {case.q!r}", f"model = {case.model}"]
    for bit, law in zip(case.bits, case.laws):
        if len(law) == 1:
            lines.append(f"edge = {bit} {law[0][0]}")
        else:
            atoms = " ".join(f"{v}:{pr!r}" for v, pr in law)
            lines.append(f"edge = {bit} pmf {atoms}")
    return "\n".join(lines) + "\n"


# The trivial path behind every set-up probe: one on link of length 1.
ONE_LINK = PathCase(0.5, 0.5, "cant_start", (1,), (C1,))

# --- long_path: `dynpath ett` on long paths and one `dynpath sweep` ---
#
# The O(n^2) table fill in pgf and config parsing in cli do almost all the
# work; oracle is never called.  An O(n*K) truncation of the table would
# show here, and the spread of |beta| puts inputs on both sides of any
# |beta|-based fallback.
LONG_PATH_LAWS = (C0,) * 3 + (C1,) * 3 + (C2,) * 3 + (C3,) * 3 + (PMF_02,) * 2 + (PMF_13,) * 2
LONG_PATH_ETT = (
    # The doubling series: one beta (-0.8, fast mixing and negative) and one
    # model, so the 16k/8k time ratio measures the growth of the table fill.
    ("ett_fast_n2000", 2000, 0.9, 0.9, "resume"),
    ("ett_fast_n4000", 4000, 0.9, 0.9, "resume"),
    ("ett_fast_n8000", 8000, 0.9, 0.9, "resume"),
    ("ett_fast_n16000", 16000, 0.9, 0.9, "resume"),
    # beta = 0.5: fast mixing with a positive beta.
    ("ett_mixing_n4000", 4000, 0.3, 0.2, "retransmit_resampled"),
    # beta = 0.9: slow mixing, the widest table a |beta|-based truncation keeps.
    ("ett_slow_n4000", 4000, 0.05, 0.05, "retransmit_identical"),
    # beta = -1 (p = q = 1): nothing decays, so a truncation must keep the
    # full table.  The retransmit models diverge at q = 1 for lengths >= 2,
    # hence cant_start and resume.
    ("ett_nodecay_cant_start_n2000", 2000, 1.0, 1.0, "cant_start"),
    ("ett_nodecay_resume_n2000", 2000, 1.0, 1.0, "resume"),
)
# About 90 sweep points on a 1k-link path exercise the sweep thread pool.
# The grid is exact in binary (1/16 + i/128), so accumulating the step and
# computing start + i*step give the same 91 points.
SWEEP_N = 1000
SWEEP_Q = 0.25
SWEEP_MODEL = "resume"
SWEEP_FROM, SWEEP_TO, SWEEP_STEP = 0.0625, 0.765625, 0.0078125

# --- latency_dist: `dynpath pmf --format csv` at a fixed k ---
#
# Truncated-series expansion and the O(n*k^2) convolution recursion
# dominate.  A rational-law rewrite of pmf would show here and nowhere
# else.  Each call passes k explicitly: the default rule, ceil(20*(ett+1)),
# moves with the seeded link order (pmf_n50_slow's from 4559 to 5579 over
# seeds -20..599), and the work with it as k^2.  Each fixed k is that
# rule's largest value over those seeds, rounded up, so the tail stays as
# small as at the default.
LATENCY_PMF = (
    # beta = 0.1.
    ("pmf_n25", 25, (C1, C2, C3, PMF_02), 0.6, 0.3, "cant_start", 1200),
    # beta = -0.3: the negative-beta case.
    ("pmf_n50_negbeta", 50, (C0, C1, C2, PMF_02), 0.8, 0.5, "retransmit_identical", 2320),
    # beta = 0.94: the slow-mixing case.
    ("pmf_n50_slow", 50, (C0, C1, C2, PMF_13), 0.05, 0.01, "retransmit_resampled", 5600),
    # beta = 0.3: the largest call.
    ("pmf_n100", 100, (C0, C1, C2, C3, PMF_02, PMF_13), 0.4, 0.3, "resume", 6620),
)

# --- crosscheck: `dynpath validate` and `dynpath simulate` ---
#
# The oracle (chain build and solve, Monte Carlo) and thousands of tiny ett
# calls dominate: ett is used for its per-call overhead, not its O(n^2)
# growth.  Batching ett or conditioning the oracle would show here.  Both
# commands need the oracle, so lazy imports cannot move setup_s here.
VALIDATE_MAX_N = 4
SIM_SAMPLES = 200_000
# Every 5-link path holds each of these five laws once, in seeded order.
SIM_LAWS = (C0, C1, C2, C3, PMF_02)
CROSSCHECK_SIM = (
    ("sim_cant_start", 0.3, 0.2, "cant_start"),
    ("sim_resume", 0.5, 0.3, "resume"),
    ("sim_retransmit_identical", 0.6, 0.2, "retransmit_identical"),
    ("sim_retransmit_resampled", 0.4, 0.3, "retransmit_resampled"),
)

# Set-up probes per pass.  Each is interpreter start-up, imports and
# argument and config parsing with no real work behind it.
SETUP_PER_PASS = 2


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path.as_posix()


def _setup_invocations(workload: str, cfg: str, workdir: Path) -> list[Invocation]:
    out = []
    for i in range(SETUP_PER_PASS):
        if workload == "long_path":
            argv = ("ett", "--config", cfg)
            kind = "ett"
        elif workload == "latency_dist":
            argv = ("pmf", "--config", cfg, "--k", "1", "--format", "csv")
            kind = "pmf"
        else:
            hist = (workdir / f"setup{i}.hist.csv").as_posix()
            argv = ("simulate", "--config", cfg, "--samples", "1", "--seed", "1", "--histogram", hist)
            kind = "simulate"
        extra = {"samples": 1, "seed": 1, "histogram": argv[-1]} if kind == "simulate" else {}
        out.append(Invocation(f"setup{i}", kind, argv, ONE_LINK, trivial=True, extra=extra))
    return out


def _interleave(work: list[Invocation], setup: list[Invocation]) -> list[Invocation]:
    # Spread the set-up probes through the pass rather than bunching them.
    out = list(work)
    step = max(1, len(work) // len(setup))
    for j, inv in enumerate(setup):
        out.insert(j * (step + 1), inv)
    return out


def generate(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Write one workload's configs into ``workdir``; return one pass's invocations.

    ``workdir`` is relative to the repository root, which is the working
    directory of every invocation.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    one_cfg = _write(workdir, "one_link.cfg", config_text(ONE_LINK))
    work: list[Invocation] = []
    if workload == "long_path":
        for name, n, p, q, model in LONG_PATH_ETT:
            case = _seeded_path(name, seed, n, LONG_PATH_LAWS, p, q, model)
            cfg = _write(workdir, f"{name}.cfg", config_text(case))
            work.append(Invocation(name, "ett", ("ett", "--config", cfg), case))
        case = _seeded_path("sweep", seed, SWEEP_N, LONG_PATH_LAWS, 0.5, SWEEP_Q, SWEEP_MODEL)
        cfg = _write(workdir, "sweep_n1000.cfg", config_text(case))
        argv = ("sweep", "--config", cfg, "--param", "p", "--from", repr(SWEEP_FROM),
                "--to", repr(SWEEP_TO), "--step", repr(SWEEP_STEP))
        grid = [SWEEP_FROM + i * SWEEP_STEP for i in range(round((SWEEP_TO - SWEEP_FROM) / SWEEP_STEP) + 1)]
        work.append(Invocation("sweep_n1000", "sweep", argv, case, extra={"grid": grid}))
    elif workload == "latency_dist":
        for name, n, pattern, p, q, model, k in LATENCY_PMF:
            case = _seeded_path(name, seed, n, pattern, p, q, model)
            cfg = _write(workdir, f"{name}.cfg", config_text(case))
            work.append(Invocation(name, "pmf", ("pmf", "--config", cfg, "--k", str(k), "--format", "csv"), case))
    else:
        work.append(Invocation(f"validate_n{VALIDATE_MAX_N}", "validate",
                               ("validate", "--max-n", str(VALIDATE_MAX_N))))
        for j, (name, p, q, model) in enumerate(CROSSCHECK_SIM):
            case = _seeded_path(name, seed, len(SIM_LAWS), SIM_LAWS, p, q, model)
            cfg = _write(workdir, f"{name}.cfg", config_text(case))
            sim_seed = abs(seed) * 10 + j
            hist = (workdir / f"{name}.hist.csv").as_posix()
            argv = ("simulate", "--config", cfg, "--samples", str(SIM_SAMPLES),
                    "--seed", str(sim_seed), "--histogram", hist)
            extra = {"samples": SIM_SAMPLES, "seed": sim_seed, "histogram": hist}
            work.append(Invocation(name, "simulate", argv, case, extra=extra))
    return _interleave(work, _setup_invocations(workload, one_cfg, workdir))
