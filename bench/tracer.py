"""Run one dynpath CLI invocation in this fresh interpreter and time it.

    python3 bench/tracer.py SRC REPORT MODE [-- ARGV...]

MODE is one of
  plain    import dynpath.cli, then time ``dynpath.cli.main(ARGV, out)``;
  traced   as plain, with timing wrappers installed on the public
           functions of every layer before ``main`` runs;
  imports  time ``import numpy`` and then ``import scipy.sparse`` plus
           ``scipy.sparse.linalg``, in that order.

The CLI's output goes to REPORT + ".out"; REPORT receives a JSON record
with the import and main times, the exit code, and in traced mode the
spans.  A span is [name, start, end, parent index, attributes]; spans
live in memory until ``main`` returns.  A span opened on a worker thread
whose own stack is empty takes the main thread's innermost open span as
its parent, so the sweep's and the simulator's pool threads nest under
the command that started them.

Nothing in src/dynpath is edited: the wrappers replace module attributes
in this interpreter only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

perf = time.perf_counter

# (module, attribute, span name).  Every dynpath module attribute bound to
# the same function object is replaced too, so calls through
# ``from .pgf import ett`` copies are seen as well.
FUNCTIONS = [
    ("dynpath.cli", "load_config", "cli.load_config"),
    ("dynpath.cli", "cmd_ett", "cli.cmd_ett"),
    ("dynpath.cli", "cmd_pmf", "cli.cmd_pmf"),
    ("dynpath.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("dynpath.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("dynpath.cli", "cmd_validate", "cli.cmd_validate"),
    ("dynpath.pgf", "ett", "pgf.ett"),
    ("dynpath.pgf", "pmf", "pgf.pmf"),
    ("dynpath.pgf", "gamma_pair", "pgf.gamma_pair"),
    ("dynpath.pgf", "f_pair", "pgf.f_pair"),
    ("dynpath.oracle", "mc_estimate", "oracle.mc_estimate"),
    ("dynpath.oracle", "exact_ett_dp", "oracle.exact_ett_dp"),
    ("dynpath.oracle", "exact_pmf_dp", "oracle.exact_pmf_dp"),
    ("dynpath.validation", "run_validation", "validation.run_validation"),
    ("dynpath.validation", "oracle_grid_checks", "validation.oracle_grid_checks"),
    ("dynpath.validation", "reduction_checks", "validation.reduction_checks"),
    ("dynpath.validation", "eq1_discrepancy_table", "validation.eq1_discrepancy_table"),
] + [
    ("dynpath.closedform", name, "closedform." + name)
    for name in (
        "bernoulli_ett",
        "bernoulli_pmf",
        "det_model2_time",
        "det_model2_time_batch",
        "det_traversal_time",
        "det_traversal_time_batch",
        "max_geom_ett",
        "steady_ett",
        "steady_pmf_as_printed",
    )
]
# (module, class, method, span name)
METHODS = [("dynpath.cli", "RunConfig", "path", "model.path_build")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.dropped: list[str] = []
        self.pmf_calls: list[tuple] = []  # (path, k) of every pmf call, for the series probe
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._chains_seen: set = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, annotate=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            record = [name, perf(), None, parent, None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if annotate is not None:
                record[4] = annotate(args, result)
            return result

        return wrapper

    # Attributes recorded on spans.  Counts come from the call's own
    # arguments and result.
    def _ett_attrs(self, args, result):
        return {"n": args[0].n}

    def _pmf_attrs(self, args, result):
        self.pmf_calls.append((args[0], result.k))
        return {"n": args[0].n, "k": result.k}

    def _mc_attrs(self, args, result):
        slots = sum(t * c for t, c in result.histogram.items())
        return {"slots": slots, "samples": result.samples}

    def _exact_attrs(self, args, result):
        # The absorbing chain is cached per (dynamics, model, lengths): the
        # first call on a key builds and solves it, later calls reuse it.
        path = args[0]
        key = (path.dynamics, path.model, path.lengths)
        cold = key not in self._chains_seen
        self._chains_seen.add(key)
        return {"cold": cold}

    def _config_attrs(self, args, result):
        return {"edges": len(result.edges)}

    def install(self) -> None:
        annotate = {
            "pgf.ett": self._ett_attrs,
            "pgf.pmf": self._pmf_attrs,
            "oracle.mc_estimate": self._mc_attrs,
            "oracle.exact_ett_dp": self._exact_attrs,
            "cli.load_config": self._config_attrs,
        }
        modules = [m for k, m in list(sys.modules.items()) if k == "dynpath" or k.startswith("dynpath.")]
        for module_name, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.dropped.append(span)
                continue
            wrapper = self.wrap(span, original, annotate.get(span))
            for module in modules + [importlib.import_module(module_name)]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            original = getattr(cls, method, None)
            if original is None:
                self.dropped.append(span)
                continue
            setattr(cls, method, self.wrap(span, original))

    def series_probe(self, pmf) -> list[float]:
        """Per pmf call: the time of a 1-link pmf of each of its laws at the same k.

        That is the cost of expanding each distinct per-link law into a
        truncated series, plus one recursion step each.
        """
        from dynpath.model import PathSpec

        out = []
        for path, k in self.pmf_calls:
            start = perf()
            for law in dict.fromkeys(path.lengths):
                pmf(PathSpec((1,), (law,), path.dynamics, path.model), k)
            out.append(perf() - start)
        return out


def main() -> int:
    src, report, mode = sys.argv[1:4]
    argv = sys.argv[5:] if len(sys.argv) > 4 and sys.argv[4] == "--" else []
    sys.path.insert(0, src)
    record: dict = {"mode": mode}
    if mode == "imports":
        start = perf()
        import numpy  # noqa: F401

        mid = perf()
        import scipy.sparse  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

        record.update(numpy_s=mid - start, scipy_s=perf() - mid)
    else:
        start = perf()
        import dynpath.cli

        record["import_s"] = perf() - start
        tracer = None
        if mode == "traced":
            import dynpath.pgf

            original_pmf = dynpath.pgf.pmf
            tracer = Tracer()
            tracer.install()
        with open(report + ".out", "w", encoding="utf-8") as out:
            start = perf()
            try:
                rc = dynpath.cli.main(argv, out)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
            record["main_s"] = perf() - start
        record["rc"] = rc
        if tracer is not None:
            record["series_s"] = tracer.series_probe(original_pmf)
            record["spans"] = tracer.spans
            record["dropped"] = tracer.dropped
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
