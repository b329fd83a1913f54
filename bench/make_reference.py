#!/usr/bin/env python3
"""Rewrite bench/reference.json: long_path outputs at the default seed.

    python3 bench/make_reference.py

Runs each long_path invocation once through the CLI of this checkout and
pins its total and sampled arrivals (ett) or its values (sweep).  Run it
only when a change to the program is meant to change those outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import DEFAULT_SEED, REFERENCE_FILE, parse_kv, sampled_nodes
from workloads import generate

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for inv in generate("long_path", DEFAULT_SEED, Path(tmp)):
            if inv.trivial:
                continue
            text = subprocess.run([sys.executable, "-m", "dynpath", *inv.argv], cwd=ROOT, env=env,
                                  check=True, capture_output=True, text=True).stdout
            if inv.kind == "sweep":
                reference[inv.name] = [float(row.split(",")[2]) for row in text.splitlines()[1:]]
            else:
                kv = parse_kv(text)
                arrivals = {str(i): float(kv[f"arrival_{i}"]) for i in sampled_nodes(inv.path.n)}
                reference[inv.name] = {"total": float(kv["ett"]), "arrivals": arrivals}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
