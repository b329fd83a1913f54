"""Output checks for every benchmark invocation.

``expectations(invocations, seed)`` computes, once per run and in-process,
what each invocation's output is checked against.  ``check(inv, rc, text,
expect)`` returns ``None`` for a correct output and a one-line reason
otherwise; every reason counts as a failed invocation.

- ett: arrivals are nondecreasing and end at the total; arrivals 1..6
  match the absorbing-chain oracle on the 6-link prefix (the arrival at
  node i depends only on links 1..i); at the default seed, the total and
  sampled arrivals match the checked-in reference.
- sweep: the grid is the requested one and each point matches an
  in-process ett of the same path; at the default seed, the reference.
- pmf: no negative coefficient, coefficients plus tail sum to 1, and the
  truncated mean matches ett.
- simulate: the mean is within 4 standard errors of ett (acceptance
  criterion 3) and the histogram holds every sample.
- validate: the report ends with ``result = pass``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import PathCase

REL_TOL_ETT = 1e-9
REL_TOL_PMF = 1e-9
MC_STDERRS = 4.0
PREFIX_LINKS = 6
DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def to_pathspec(case: PathCase):
    from dynpath.model import EdgeDynamics, FailureModel, LengthDist, PathSpec

    laws = {law: LengthDist.from_pairs(law) for law in set(case.laws)}
    return PathSpec(
        case.bits,
        tuple(laws[law] for law in case.laws),
        EdgeDynamics(case.p, case.q),
        FailureModel(case.model),
    )


def sampled_nodes(n: int) -> list[int]:
    """Nodes whose arrivals the default-seed reference pins."""
    return sorted(set(range(1, min(PREFIX_LINKS, n) + 1)) | {max(1, round(n * j / 8)) for j in range(1, 9)})


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def expectations(invocations, seed: int) -> dict:
    """Per-invocation values the outputs are checked against, keyed by name."""
    from dataclasses import replace

    from dynpath.model import EdgeDynamics
    from dynpath.oracle import exact_ett_dp
    from dynpath.pgf import ett

    reference = load_reference() if seed == DEFAULT_SEED else {}
    out = {}
    for inv in invocations:
        exp: dict = {}
        if inv.path is not None:
            spec = to_pathspec(inv.path)
        if inv.kind == "ett":
            exp["prefix"] = [
                exact_ett_dp(replace(spec, x=spec.x[:i], lengths=spec.lengths[:i]))
                for i in range(1, min(PREFIX_LINKS, spec.n) + 1)
            ]
            exp["reference"] = reference[inv.name] if reference and not inv.trivial else None
        elif inv.kind == "sweep":
            exp["grid"] = inv.extra["grid"]
            exp["values"] = [
                float(ett(replace(spec, dynamics=EdgeDynamics(p, inv.path.q)))[0]) for p in exp["grid"]
            ]
            exp["reference"] = reference[inv.name] if reference else None
        elif inv.kind in ("pmf", "simulate"):
            exp["ett"] = float(ett(spec)[0])
            exp.update(inv.extra)
        out[inv.name] = exp
    return out


def parse_kv(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def _check_ett(inv, text: str, exp: dict) -> str | None:
    kv = parse_kv(text)
    n = inv.path.n
    try:
        total = float(kv["ett"])
        arrivals = [0.0] + [float(kv[f"arrival_{i}"]) for i in range(1, n + 1)]
    except (KeyError, ValueError) as exc:
        return f"unparsable ett output ({exc})"
    if not math.isfinite(total) or arrivals[n] != total:
        return f"total {total!r} is not the last arrival {arrivals[n]!r}"
    for i in range(1, n + 1):
        if arrivals[i] < arrivals[i - 1]:
            return f"arrival_{i} = {arrivals[i]!r} < arrival_{i - 1} = {arrivals[i - 1]!r}"
    for i, want in enumerate(exp["prefix"], start=1):
        if not _close(arrivals[i], want, REL_TOL_ETT):
            return f"arrival_{i} = {arrivals[i]!r}, oracle on the {i}-link prefix gives {want!r}"
    ref = exp.get("reference")
    if ref is not None:
        if not _close(total, ref["total"], REL_TOL_ETT):
            return f"ett = {total!r}, reference {ref['total']!r}"
        for node, want in ref["arrivals"].items():
            if not _close(arrivals[int(node)], want, REL_TOL_ETT):
                return f"arrival_{node} = {arrivals[int(node)]!r}, reference {want!r}"
    return None


def _check_sweep(text: str, exp: dict) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "param,value,ett":
        return "sweep output lacks its header"
    rows = lines[1:]
    if len(rows) != len(exp["grid"]):
        return f"sweep has {len(rows)} points, expected {len(exp['grid'])}"
    ref = exp.get("reference")
    for i, row in enumerate(rows):
        try:
            param, value, val = row.split(",")
            value, val = float(value), float(val)
        except ValueError:
            return f"unparsable sweep row {row!r}"
        if param != "p" or not _close(value, exp["grid"][i], 1e-11):
            return f"sweep row {i} is at {param} = {value!r}, expected p = {exp['grid'][i]!r}"
        if not _close(val, exp["values"][i], REL_TOL_ETT):
            return f"sweep ett {val!r} at p = {value!r}, in-process ett gives {exp['values'][i]!r}"
        if ref is not None and not _close(val, ref[i], REL_TOL_ETT):
            return f"sweep ett {val!r} at p = {value!r}, reference {ref[i]!r}"
    return None


def parse_pmf_csv(text: str) -> tuple[list[float], float]:
    lines = text.splitlines()
    if not lines or lines[0] != "t,prob" or not lines[-1].startswith("tail,"):
        raise ValueError("pmf csv lacks its header or tail row")
    coeffs = []
    for t, row in enumerate(lines[1:-1]):
        key, value = row.split(",")
        if int(key) != t:
            raise ValueError(f"row {t} is labelled {key}")
        coeffs.append(float(value))
    return coeffs, float(lines[-1].split(",", 1)[1])


def _check_pmf(text: str, exp: dict) -> str | None:
    try:
        coeffs, tail = parse_pmf_csv(text)
    except ValueError as exc:
        return f"unparsable pmf output ({exc})"
    if not coeffs:
        return "pmf output has no coefficients"
    low = min(coeffs)
    if low < 0.0:
        return f"negative coefficient {low!r}"
    mass = math.fsum(coeffs) + tail
    if abs(mass - 1.0) > REL_TOL_PMF:
        return f"coefficients plus tail sum to {mass!r}"
    mean = math.fsum(t * c for t, c in enumerate(coeffs))
    if abs(mean - exp["ett"]) > REL_TOL_PMF * exp["ett"]:
        return f"truncated mean {mean!r}, ett {exp['ett']!r}"
    return None


def read_histogram(path: str) -> dict[int, int]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "t,count":
        raise ValueError("histogram lacks its header")
    return {int(t): int(c) for t, c in (row.split(",") for row in lines[1:])}


def _check_simulate(text: str, exp: dict) -> str | None:
    kv = parse_kv(text)
    try:
        mean, stderr = float(kv["mean"]), float(kv["stderr"])
        samples, seed = int(kv["samples"]), int(kv["seed"])
        hist = read_histogram(exp["histogram"])
    except (KeyError, ValueError, OSError) as exc:
        return f"unparsable simulate output ({exc})"
    if samples != exp["samples"] or seed != exp["seed"]:
        return f"ran {samples} samples with seed {seed}, asked for {exp['samples']} with {exp['seed']}"
    if sum(hist.values()) != samples:
        return f"histogram holds {sum(hist.values())} of {samples} samples"
    if abs(mean - exp["ett"]) > MC_STDERRS * stderr + REL_TOL_ETT * max(1.0, exp["ett"]):
        return f"mean {mean!r} is more than {MC_STDERRS:g} stderr ({stderr!r}) from ett {exp['ett']!r}"
    return None


def _check_validate(text: str) -> str | None:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[-1] != "result = pass":
        return f"validate ended with {lines[-1] if lines else 'nothing'!r}"
    failed = [line for line in lines if line.startswith("check ") and " = FAIL" in line]
    return f"validate reports {failed[0]!r}" if failed else None


def check(inv, rc: int, text: str, exp: dict) -> str | None:
    """None when the invocation's output is correct, else why it is not."""
    if rc != 0:
        return f"exit code {rc}"
    if inv.kind == "ett":
        return _check_ett(inv, text, exp)
    if inv.kind == "sweep":
        return _check_sweep(text, exp)
    if inv.kind == "pmf":
        return _check_pmf(text, exp)
    if inv.kind == "simulate":
        return _check_simulate(text, exp)
    return _check_validate(text)
