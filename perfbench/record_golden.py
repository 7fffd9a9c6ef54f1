"""Record the key values of every workload's CLI calls into golden.json.

    python3 perfbench/record_golden.py SEED [SEED ...]

Run at a commit whose outputs are trusted; run.py then checks every call
against these values (see checks.py).  Both the full and the smoke sizes
are recorded.  BLAS is pinned to one thread only to save time: outputs
do not depend on thread counts, which run.py checks on scan-threaded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
from run import WORK, child_env, cli
from workloads import WORKLOADS


def main(seeds) -> int:
    golden = checks.load_golden()
    env = child_env(pin_blas=True)
    WORK.mkdir(exist_ok=True)
    for smoke in (False, True):
        for wl in WORKLOADS.values():
            key = wl.name + ("@smoke" if smoke else "")
            params = wl.params(smoke)
            for seed in seeds:
                with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                    if wl.prepare:
                        wl.prepare(params, seed, tmp)
                    for i, argv in enumerate(wl.calls(params, seed, tmp, tmp)):
                        proc = cli(argv, env, Path(tmp) / f"call{i}.stdout")
                        if proc.rc != 0:
                            print(f"{key} seed {seed} call {i}: exit code {proc.rc}", file=sys.stderr)
                            return 1
                        calls = golden.setdefault(key, [])
                        if len(calls) <= i:
                            calls.append({})
                        calls[i][str(seed)] = checks.key_values(argv, proc.stdout)
                print(f"{key} seed {seed} recorded", flush=True)
    checks.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
