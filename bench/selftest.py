#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. The generator is byte-identical for a given seed and differs for another.
2. Each output checker passes a genuine output and flags deliberately
   perturbed copies of it, in the spirit of ``validate --inject-fault``;
   ``validate --inject-fault`` itself must be flagged too.

Exits 0 when every check holds; prints one line per check.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = checks.DEFAULT_SEED  # so the default-seed reference is exercised too


def _run_cli(argv) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "dynpath", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


def _scale_value(text: str, key: str, factor: float) -> str:
    def repl(m):
        return f"{m.group(1)}{float(m.group(2)) * factor!r}"

    return re.sub(rf"^({re.escape(key)} = )(\S+)$", repl, text, count=1, flags=re.M)


def _replace_line(text: str, index: int, new: str) -> str:
    lines = text.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


def _swap_arrivals(text: str, i: int, j: int) -> str:
    kv = checks.parse_kv(text)
    a, b = kv[f"arrival_{i}"], kv[f"arrival_{j}"]
    text = text.replace(f"arrival_{i} = {a}\n", "@@\n").replace(f"arrival_{j} = {b}\n", f"arrival_{j} = {a}\n")
    return text.replace("@@\n", f"arrival_{i} = {b}\n")


def generator_is_deterministic() -> list[tuple[str, bool]]:
    results = []
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for workload in WORKLOADS:
            made = {}
            for label, seed in (("a", 7), ("b", 7), ("c", 8)):
                workdir = Path(tmp) / label / workload
                invs = generate(workload, seed, workdir)
                argvs = [[arg.replace(workdir.as_posix(), "") for arg in inv.argv] for inv in invs]
                files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
                made[label] = (argvs, files)
            results.append((f"generator {workload}: seed 7 twice gives the same bytes", made["a"] == made["b"]))
            results.append((f"generator {workload}: seed 8 gives other inputs", made["a"] != made["c"]))
    return results


def checkers_flag_perturbations() -> list[tuple[str, bool]]:
    results = []
    workdir = Path(__file__).parent / ".work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    wanted = {"ett_fast_n2000", "sweep_n1000", "pmf_n25", "sim_resume"}
    invs = [inv for w in WORKLOADS for inv in generate(w, SEED, workdir / w) if inv.name in wanted]
    exps = checks.expectations(invs, SEED)
    for inv in invs:
        rc, text = _run_cli(inv.argv)
        exp = exps[inv.name]
        results.append((f"{inv.name}: genuine output passes", checks.check(inv, rc, text, exp) is None))
        if inv.kind == "ett":
            n = inv.path.n
            bad = {
                "total off by 1e-6": (_scale_value(text, "ett", 1 + 1e-6), "last arrival"),
                "arrivals out of order": (_swap_arrivals(text, n // 2, n // 2 + 1), " < "),
                "arrival_3 off by 1e-6": (_scale_value(text, "arrival_3", 1 + 1e-6), "oracle"),
                "total and last arrival off by 1e-6": (_scale_value(
                    _scale_value(text, "ett", 1 + 1e-6), f"arrival_{n}", 1 + 1e-6), "reference"),
            }
        elif inv.kind == "sweep":
            lines = text.splitlines()
            param, value, val = lines[5].split(",")
            bad = {
                "a point dropped": ("\n".join(lines[:-1]) + "\n", "points"),
                "a value off by 1e-6": (
                    _replace_line(text, 5, f"{param},{value},{float(val) * (1 + 1e-6)!r}"), "in-process"),
            }
        elif inv.kind == "pmf":
            coeffs, tail = checks.parse_pmf_csv(text)
            t = max(range(len(coeffs)), key=coeffs.__getitem__)
            bad = {
                "a negative coefficient": (
                    _replace_line(text, len(coeffs), f"{len(coeffs) - 1},-1e-09"), "negative"),
                "mass lost": (_replace_line(text, 1 + t, f"{t},{coeffs[t] * 0.99!r}"), "sum to"),
                "mass moved": (_replace_line(
                    _replace_line(text, 1 + t, f"{t},{coeffs[t + 1]!r}"), 2 + t, f"{t + 1},{coeffs[t]!r}"),
                    "truncated mean"),
            }
        else:
            kv = checks.parse_kv(text)
            shifted = float(kv["mean"]) + 5 * float(kv["stderr"])
            bad = {
                "mean 5 stderr off": (text.replace(f"mean = {kv['mean']}", f"mean = {shifted!r}"), "stderr"),
                "sample count wrong": (text.replace(f"samples = {kv['samples']}", "samples = 1"), "samples"),
            }
        for what, (perturbed, because) in bad.items():
            reason = checks.check(inv, 0, perturbed, exp)
            results.append((f"{inv.name}: flags {what} ({reason})", reason is not None and because in reason))
    rc, text = _run_cli(["validate", "--max-n", "1", "--inject-fault"])
    validate = next(inv for inv in generate("crosscheck", SEED, workdir / "crosscheck") if inv.kind == "validate")
    for code, because in ((rc, "exit code"), (0, "ended with")):
        reason = checks.check(validate, code, text, {})
        results.append((f"validate --inject-fault: flagged ({reason})", reason is not None and because in reason))
    return results


def main() -> int:
    sys.path.insert(0, str(SRC))
    results = generator_is_deterministic() + checkers_flag_perturbations()
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    failed = sum(1 for _, ok in results if not ok)
    print(f"{len(results) - failed} of {len(results)} self-checks hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
