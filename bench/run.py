#!/usr/bin/env python3
"""The dynpath benchmark: three seeded CLI workloads and a traced per-layer run.

    python3 bench/run.py --workload long_path --seed 1 --seconds 55 --trace 0

Run it from the repository root; it runs ``src/dynpath`` from that
checkout and nothing installed elsewhere.

Workloads (definitions and the reason for each input in workloads.py):
  long_path     dynpath ett on 2k..16k-link paths, and one 91-point sweep
  latency_dist  dynpath pmf --format csv at a fixed k, n = 25..100
  crosscheck    dynpath validate --max-n 4, and dynpath simulate on 5-link paths

BENCHMARK.json lists long_path and latency_dist.  crosscheck runs by name
but is left out there: on a shared 2-vCPU host its slowest call (validate)
spread 20 to 31 % of the median from run to run, at or past the bound an
end-to-end metric may have.  The traced run still covers its invocations,
which carry the oracle, validation and closedform layers.

With ``--trace 0`` the workload runs as a closed loop: one client, one
subprocess at a time, each child single-threaded (DYNPATH_THREADS and the
BLAS thread variables set to 1), so that a child never waits for a second
core of a shared machine.  A pass is the workload's invocation list;
passes repeat until the next one would overrun ``--seconds``.  Every
output is checked (checks.py).  Each invocation's wall time and CPU time
is taken as its mean over the passes, and its max-RSS as its median; from
those, the end-to-end metrics of one pass are

  wall_s          sum of the per-invocation wall times, spawn to exit
  slowest_call_s  wall time of the heaviest invocation
  setup_s         median wall time of the trivial set-up invocations (a
                  1-link ett, pmf --k 1, or simulate --samples 1), pooled
                  over the run: interpreter start-up, imports, parsing
  cpu_s           user plus system CPU summed over the invocations
  peak_rss_mb     largest max-RSS of any one invocation

wall_s, slowest_call_s and cpu_s cover the workload's real invocations;
the set-up probes count only toward setup_s and peak_rss_mb.

Why the mean: on a shared host the speed of the machine changes by tens
of percent from one call to the next and drifts over minutes, CPU time
included (the same pmf_n100 call read 1.9 to 3.6 s over ten minutes on a
2-vCPU VM).  A run holds only 4 to 8 passes, and of the per-call mean,
median and minimum the mean moved least from run to run: in seven sets of
six to ten runs (one workload each), the quartile distance of wall_s and
slowest_call_s under the mean was 0.68 to 1.06 times that under the
median (below it in 13 of 14 cases) and 0.62 to 0.99 times that under
the minimum.

error_rate (failed / attempted invocations) is printed with its base; the
result line carries the same two counts.

With ``--trace 1`` the traced run (layers.py) reports the per-layer
metrics of all three workloads, whatever ``--workload`` names.

The last line of standard output is the JSON result.  Everything the run
writes goes under bench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
# Every run ends well inside the three minutes a run may take.
HARD_LIMIT_S = 160.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Threads of every timed child: DYNPATH_THREADS and each BLAS variable.
# The traced run measures the thread series at nproc beside it.
CHILD_THREADS = 1


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": []}
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            info["caches"].append(f"L{level} {kind} {size}")
    except OSError:
        pass
    return info


def environment(nproc: int, env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "DYNPATH_THREADS": env["DYNPATH_THREADS"],
        "blas_env": {var: env.get(var) for var in BLAS_VARS},
        "commit": _commit(),
    }


def run_passes(workload: str, seed: int, seconds: int, env: dict, workdir: Path, deadline) -> dict:
    import checks
    from proc import spawn

    invs = generate(workload, seed, workdir)
    exps = checks.expectations(invs, seed)

    def call(inv):
        stdout = workdir / f"{inv.name}.stdout"
        outcome = spawn([sys.executable, "-m", "dynpath", *inv.argv], cwd=ROOT, env=env,
                        stdout_path=stdout, stderr_path=workdir / f"{inv.name}.stderr", timeout=deadline())
        if outcome.timed_out:
            return outcome, "timed out"
        return outcome, checks.check(inv, outcome.returncode, stdout.read_text(encoding="utf-8"), exps[inv.name])

    # One untimed call first: it writes dynpath's bytecode cache, a cost
    # users pay once per install rather than once per run.
    call(next(inv for inv in invs if inv.trivial))

    samples = {inv.name: [] for inv in invs}
    failures = []
    attempted = failed = passes = 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        begun = time.perf_counter()
        for inv in invs:
            outcome, reason = call(inv)
            attempted += 1
            if reason is not None:
                failed += 1
                failures.append(f"{inv.name}: {reason}")
            samples[inv.name].append(outcome)
            if outcome.timed_out:
                break
        passes += 1
        now = time.perf_counter()
        longest = max(longest, now - begun)
        if outcome.timed_out or now - start + longest > seconds or deadline() < 2 * longest:
            break
    # Each invocation's mean over the passes (see the module docstring);
    # max-RSS does not drift with the machine's speed and takes the median.
    per_call = {name: {"wall_s": statistics.fmean(o.wall_s for o in outs),
                       "cpu_s": statistics.fmean(o.cpu_s for o in outs),
                       "maxrss_mb": statistics.median(o.maxrss_mb for o in outs)}
                for name, outs in samples.items() if outs}
    setup = [o.wall_s for inv in invs if inv.trivial for o in samples[inv.name]]
    real = [per_call[inv.name] for inv in invs if not inv.trivial and inv.name in per_call]
    values = {
        "wall_s": sum(m["wall_s"] for m in real),
        "slowest_call_s": max(m["wall_s"] for m in real),
        "cpu_s": sum(m["cpu_s"] for m in real),
        "peak_rss_mb": max(m["maxrss_mb"] for m in per_call.values()),
        "setup_s": statistics.median(setup),
    }
    walls = {name: [o.wall_s for o in outs] for name, outs in samples.items()}
    cpus = {name: [o.cpu_s for o in outs] for name, outs in samples.items()}
    return {"values": values, "invocations": per_call, "walls": walls, "cpus": cpus, "passes": passes,
            "setup_samples": len(setup), "attempted": attempted, "failed": failed, "failures": failures}


UNITS = {"wall_s": "s", "slowest_call_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "dynpath" / "cli.py").is_file():
        sys.stderr.write(f"error: no dynpath sources under {SRC}; run from a dynpath checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import dynpath

    if Path(dynpath.__file__).resolve().parent != SRC / "dynpath":
        sys.stderr.write(f"error: imported dynpath from {dynpath.__file__}, not from {SRC}\n")
        return 2
    os.chdir(ROOT)

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC), DYNPATH_THREADS=str(CHILD_THREADS))
    env.update({var: str(CHILD_THREADS) for var in BLAS_VARS})
    info = environment(nproc, env)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def deadline() -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - began))

    print(f"dynpath benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(info, sort_keys=True))
    if args.trace:
        import layers

        result = layers.traced_run(args.seed, ROOT, workdir, env, nproc, deadline)
        metrics = {}
        for name, (value, unit, label) in result["metrics"].items():
            print(f"  {name} = {value!r} {unit} [{label}]")
            metrics[name] = {"value": value, "unit": unit}
        if result["dropped_spans"]:
            print("dropped spans (their functions are missing): " + ", ".join(result["dropped_spans"]))
    else:
        result = run_passes(args.workload, args.seed, args.seconds, env, workdir, deadline)
        print(f"passes: {result['passes']} (closed loop, one client, DYNPATH_THREADS={CHILD_THREADS}); "
              f"setup_s pools {result['setup_samples']} set-up calls")
        for name, m in result["invocations"].items():
            print(f"  {name}: mean wall {m['wall_s']:.4f} s, cpu {m['cpu_s']:.4f} s, "
                  f"median max-RSS {m['maxrss_mb']:.1f} MB")
        metrics = {}
        for name, value in result["values"].items():
            print(f"  {name} = {value!r} {UNITS[name]}")
            metrics[name] = {"value": value, "unit": UNITS[name]}
    attempted, failed = result["attempted"], result["failed"]
    print(f"  error_rate = {failed / attempted if attempted else 1.0:g} ratio "
          f"({failed} failed of {attempted} invocations attempted)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = dict(summary, environment=info, workload=args.workload, seed=args.seed, trace=args.trace,
                  failures=result["failures"], invocations=result.get("invocations"), walls=result.get("walls"),
                  cpus=result.get("cpus"))
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
