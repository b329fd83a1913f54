"""The traced run: per-layer metrics for cli, model, pgf, oracle, validation, closedform.

Every non-trivial invocation of all three workloads runs twice, each time
in a fresh interpreter (``tracer.py``) so that caches start cold as in the
end-to-end run: once plain and once traced, single-threaded like the
end-to-end run.  The sweep and the heaviest simulate call run a third
time, plain with nproc threads, for the thread series.  Three more
interpreters time the scipy.sparse import.

Each metric is labelled ``measured`` (timed, or counted by the program
itself) or ``computed`` (derived from input sizes).  Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import checks
from proc import spawn
from workloads import WORKLOADS, generate

IMPORT_PROBES = 3
SWEEP, SIM = "sweep_n1000", "sim_retransmit_resampled"  # the thread series


def _self_times(spans: list) -> list[float]:
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Traced:
    """One traced invocation's spans, with durations and self times."""

    def __init__(self, inv, record: dict):
        self.inv = inv
        self.spans = record["spans"]
        self.series = record["series_s"]
        self.main_s = record["main_s"]
        self.self_s = _self_times(self.spans)

    def select(self, name: str, parent_prefix: str | None = None):
        for i, (span_name, start, end, parent, attrs) in enumerate(self.spans):
            if span_name != name:
                continue
            if parent_prefix is not None and (parent < 0 or not self.spans[parent][0].startswith(parent_prefix)):
                continue
            yield i, end - start, attrs or {}

    def total(self, name: str, parent_prefix: str | None = None) -> float:
        return sum(d for _, d, _ in self.select(name, parent_prefix))

    def outermost(self, prefix: str) -> float:
        """Total time of spans named ``prefix...`` not nested in another such span."""
        return sum(
            end - start
            for name, start, end, parent, _ in self.spans
            if name.startswith(prefix) and not (parent >= 0 and self.spans[parent][0].startswith(prefix))
        )


def _regime(beta: float) -> str:
    # long_path's betas: -0.8 and 0.5 (fast), 0.9 (slow), -1 (no decay).
    if abs(beta) >= 1.0:
        return "no_decay"
    return "slow_mixing" if abs(beta) > 0.85 else "fast_mixing"


def traced_run(seed: int, root: Path, workdir: Path, env: dict, nproc: int, deadline) -> dict:
    """Run the traced pass of every workload; return metrics and counts."""
    attempted = failed = 0
    failures: list[str] = []
    plain: dict[str, dict[str, dict]] = {w: {} for w in WORKLOADS}
    multi: dict[str, dict] = {}
    traced: dict[str, list[Traced]] = {w: [] for w in WORKLOADS}
    import_s: list[float] = []
    dropped: set[str] = set()
    tracer = str(Path(__file__).with_name("tracer.py"))

    def run(inv, mode: str, threads: int, exp: dict | None, tag: str) -> dict | None:
        nonlocal attempted, failed
        report = workdir / f"{tag}.json"
        argv = [sys.executable, tracer, env["PYTHONPATH"], str(report), mode]
        if inv is not None:
            argv += ["--", *inv.argv]
        child_env = dict(env, DYNPATH_THREADS=str(threads))
        outcome = spawn(argv, cwd=root, env=child_env, stdout_path=workdir / f"{tag}.stdout",
                        stderr_path=workdir / f"{tag}.stderr", timeout=deadline())
        reason = "timed out" if outcome.timed_out else None
        if reason is None and outcome.returncode != 0:
            reason = f"tracer exit code {outcome.returncode}"
        record = None
        if reason is None:
            record = json.loads(report.read_text(encoding="utf-8"))
            if inv is not None:
                text = Path(str(report) + ".out").read_text(encoding="utf-8")
                reason = checks.check(inv, record["rc"], text, exp)
        attempted += 1
        if reason is not None:
            failed += 1
            failures.append(f"{tag}: {reason}")
            return None
        return record

    for workload in WORKLOADS:
        invs = [inv for inv in generate(workload, seed, workdir / workload) if not inv.trivial]
        exps = checks.expectations(invs, seed)
        for inv in invs:
            tag = f"{workload}.{inv.name}"
            rec = run(inv, "plain", 1, exps[inv.name], tag + ".plain")
            if rec is not None:
                plain[workload][inv.name] = rec
                import_s.append(rec["import_s"])
            rec = run(inv, "traced", 1, exps[inv.name], tag + ".traced")
            if rec is not None:
                traced[workload].append(Traced(inv, rec))
                import_s.append(rec["import_s"])
                dropped.update(rec["dropped"])
            if inv.name in (SWEEP, SIM):
                rec = run(inv, "plain", nproc, exps[inv.name], tag + ".tN")
                if rec is not None:
                    multi[inv.name] = rec
    scipy_s = []
    for i in range(IMPORT_PROBES):
        rec = run(None, "imports", 1, None, f"imports{i}")
        if rec is not None:
            scipy_s.append(rec["scipy_s"])

    metrics = _layer_metrics(traced, plain, multi, import_s, scipy_s)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "dropped_spans": sorted(dropped),
    }


def _layer_metrics(traced, plain, multi, import_s, scipy_s) -> dict:
    m: dict[str, tuple[float, str, str]] = {}

    def put(name, value, unit, label="measured"):
        m[name] = (value, unit, label)

    def med(values):
        return statistics.median(values) if values else 0.0

    # cli
    put("cli.import_s", med(import_s), "s")
    put("cli.import_scipy_s", med(scipy_s), "s")
    lp, ld, cc = traced["long_path"], traced["latency_dist"], traced["crosscheck"]
    put("cli.parse_config_s", sum(t.total("cli.load_config") for t in lp), "s")
    put("cli.config_edges", sum(a.get("edges", 0) for t in lp for _, _, a in t.select("cli.load_config")), "count")
    put("cli.output_s", sum(
        t.self_s[i]
        for t in lp + ld
        for name in ("cli.cmd_ett", "cli.cmd_pmf", "cli.cmd_sweep")
        for i, _, _ in t.select(name)
    ), "s")
    def main_s(runs: dict, name: str) -> float:
        return runs[name]["main_s"] if name in runs else 0.0

    sweep_t1, sweep_tn = main_s(plain["long_path"], SWEEP), main_s(multi, SWEEP)
    put("cli.sweep_s.t1", sweep_t1, "s")
    put("cli.sweep_s.tN", sweep_tn, "s")
    put("cli.sweep_thread_speedup", sweep_t1 / sweep_tn if sweep_tn else 0.0, "ratio")

    # model
    put("model.path_build_s", sum(t.total("model.path_build") for t in lp), "s")

    # pgf, long_path
    ett_by_name = {t.inv.name: t.total("pgf.ett") for t in lp}
    for n in (2000, 4000, 8000, 16000):
        put(f"pgf.ett_s.n{n}", ett_by_name.get(f"ett_fast_n{n}", 0.0), "s")
    n8, n16 = ett_by_name.get("ett_fast_n8000", 0.0), ett_by_name.get("ett_fast_n16000", 0.0)
    put("pgf.ett_doubling_ratio", n16 / n8 if n8 else 0.0, "ratio")
    put("pgf.gamma_pair_s", sum(t.total("pgf.gamma_pair") for t in lp), "s")
    put("pgf.f_pair_s", sum(t.total("pgf.f_pair") for t in lp), "s")
    fill = defaultdict(float)
    cells = 0
    for t in lp:
        if t.inv.kind != "ett":
            continue
        beta = 1.0 - t.inv.path.p - t.inv.path.q
        fill[_regime(beta)] += sum(t.self_s[i] for i, _, _ in t.select("pgf.ett"))
        cells += t.inv.path.n * (t.inv.path.n + 1) // 2
    for regime in ("fast_mixing", "slow_mixing", "no_decay"):
        put(f"pgf.table_fill_s.{regime}", fill[regime], "s")
    put("pgf.table_cells", cells, "count", "computed")
    total_fill = sum(fill.values())
    put("pgf.table_cells_per_s", cells / total_fill if total_fill else 0.0, "1/s", "computed")

    # pgf, crosscheck: many tiny ett calls
    small = [d for t in cc for _, d, a in t.select("pgf.ett") if a.get("n", 99) <= 5]
    put("pgf.ett_calls", sum(1 for t in cc for _ in t.select("pgf.ett")), "count")
    put("pgf.ett_small_call_us", 1e6 * statistics.fmean(small) if small else 0.0, "us")

    # pgf, latency_dist
    pmf_by_n = defaultdict(float)
    k_max = 0
    mults = 0
    recursion = 0.0
    for t in ld:
        for j, (i, d, a) in enumerate(t.select("pgf.pmf")):
            pmf_by_n[a["n"]] += d
            k_max = max(k_max, a["k"])
            mults += 2 * a["n"] * (a["k"] + 1) ** 2
            recursion += t.self_s[i] - t.series[j]
    for n in (25, 50, 100):
        put(f"pgf.pmf_s.n{n}", pmf_by_n[n], "s")
    put("pgf.pmf_k", k_max, "count")
    put("pgf.pmf_series_s", sum(sum(t.series) for t in ld), "s")
    put("pgf.pmf_recursion_s", recursion, "s")
    put("pgf.pmf_coeff_mults", mults, "count", "computed")

    # oracle, crosscheck
    mc_s = sum(t.total("oracle.mc_estimate") for t in cc)
    slots = sum(a.get("slots", 0) for t in cc for _, _, a in t.select("oracle.mc_estimate"))
    put("oracle.mc_s", mc_s, "s")
    put("oracle.mc_sample_slots", slots, "count")
    put("oracle.mc_sample_slots_per_s", slots / mc_s if mc_s else 0.0, "1/s")
    sim_t1, sim_tn = main_s(plain["crosscheck"], SIM), main_s(multi, SIM)
    put("oracle.mc_thread_speedup", sim_t1 / sim_tn if sim_tn else 0.0, "ratio")
    exact = [(d, a.get("cold", False)) for t in cc for _, d, a in t.select("oracle.exact_ett_dp")]
    put("oracle.exact_cold_s", sum(d for d, cold in exact if cold), "s")
    put("oracle.exact_warm_s", sum(d for d, cold in exact if not cold), "s")
    put("oracle.exact_calls", len(exact), "count")
    put("oracle.exact_pmf_s", sum(t.total("oracle.exact_pmf_dp") for t in cc), "s")

    # validation and closedform, crosscheck
    put("validation.oracle_grid_s", sum(t.total("validation.oracle_grid_checks") for t in cc), "s")
    put("validation.reductions_s", sum(t.total("validation.reduction_checks") for t in cc), "s")
    put("validation.eq1_table_s", sum(t.total("validation.eq1_discrepancy_table") for t in cc), "s")
    put("validation.instances", sum(
        1 for t in cc for _ in t.select("oracle.exact_ett_dp", "validation.oracle_grid_checks")
    ), "count")
    put("closedform.s", sum(t.outermost("closedform.") for t in cc), "s")

    # tracing overhead: traced minus plain main time, per workload
    for workload in WORKLOADS:
        names = {t.inv.name for t in traced[workload]} & set(plain[workload])
        traced_s = sum(t.main_s for t in traced[workload] if t.inv.name in names)
        plain_s = sum(plain[workload][name]["main_s"] for name in names)
        put(f"trace.overhead_s.{workload}", traced_s - plain_s, "s")
    return m

