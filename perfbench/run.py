"""Benchmark of the ridgeless CLI: end-to-end metrics, or a traced per-layer
breakdown, for one workload.

    python3 perfbench/run.py --workload scan-threaded --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Each workload runs its CLI calls in fresh processes, exactly as typed by a
user, with OPENBLAS/OMP/MKL thread variables removed so the program's
default BLAS threading is measured.  Calls repeat, in rounds, while another
round fits in --seconds (at least one).  --trace 0 reports the end-to-end
metrics; --trace 1 reruns the calls in process with every public function
traced and reports per-layer metrics.  --smoke runs every workload at tiny
sizes, untraced and traced, to test the harness.  Every call's outputs are
checked (exit code, identity line, identical bytes across repeats and
thread counts, golden key values); the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import VERIFY_SEED, WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench"
# Set-up is repeated at least this often and for at least this long; a
# fresh import varies by about 30 % from one process to the next.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 4.0
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def child_env(pin_blas: bool = False) -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if k not in BLAS_THREAD_VARS and not k.startswith("RIDGELESS_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    if pin_blas:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Proc:
    """One finished child process: exit code, wall, CPU, peak RSS, stdout."""

    def __init__(self, argv, env, stdout_path: Path):
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: take the child down too
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.stdout = stdout_path.read_text(errors="replace")
        self.stderr_path = stdout_path.with_suffix(".stderr")


def cli(argv, env, stdout_path) -> Proc:
    return Proc([sys.executable, "-m", "ridgeless", *argv], env, stdout_path)


def child(args, env, stdout_path) -> Proc:
    return Proc([sys.executable, str(HERE / "child.py"), *args], env, stdout_path)


def digest(argv, stdout: str) -> dict:
    """sha256 of stdout and of every file the call wrote under its --out base."""
    sums = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    base = checks.out_base(argv)
    if base:
        for path in sorted(Path(base).parent.glob(Path(base).name + ".*")):
            sums[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return sums


class Checker:
    """Checks every CLI call of one workload run and counts the failures."""

    def __init__(self, wl, seed: int, smoke: bool):
        self.wl, self.seed = wl, seed
        key = wl.name + ("@smoke" if smoke else "")
        self.golden = checks.load_golden().get(key)
        self.first: dict = {}  # call index -> digest of its first run
        self.attempted = self.failed = 0
        self.messages: list = []
        self.compared: set = set()

    def fail(self, label, problems) -> None:
        if problems:
            self.failed += 1
            self.messages += [f"[FAIL] {label}: {p}" for p in problems]

    def call(self, label, index, argv, proc: Proc) -> None:
        self.attempted += 1
        if proc.rc != 0:
            tail = proc.stderr_path.read_text(errors="replace")[-400:]
            return self.fail(label, [f"exit code {proc.rc}: {tail.strip()}"])
        problems = []
        if self.wl.identity_line and "[OK] identity" not in proc.stdout:
            problems.append("no '[OK] identity' line")
        sums = digest(argv, proc.stdout)
        first = self.first.setdefault(index, sums)
        if sums != first:
            diff = sorted(k for k in set(sums) | set(first) if sums.get(k) != first.get(k))
            problems.append(f"bytes differ from the first run in {', '.join(diff)}")
        try:
            observed = checks.key_values(argv, proc.stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"cannot read key values: {exc!r}")
        else:
            if self.golden is None:
                self.compared.add("no golden values recorded for this size")
            else:
                mismatches, how = checks.compare(observed, self.golden[index], self.seed)
                self.compared.add(how)
                problems += mismatches
        self.fail(label, problems)

    def probe(self, label, proc: Proc) -> None:
        self.attempted += 1
        if proc.rc != 0:
            tail = proc.stderr_path.read_text(errors="replace")[-400:]
            self.fail(label, [f"exit code {proc.rc}: {tail.strip()}"])


def run_calls(calls, env, out: Path, checker: Checker, label, traced=False):
    """One round: every call in a fresh process.  Returns the processes."""
    procs = []
    for i, argv in enumerate(calls):
        stdout = out / f"call{i}.stdout"
        if traced:
            proc = child(["trace", str(out / f"spans{i}.json"), *argv], env, stdout)
        else:
            proc = cli(argv, env, stdout)
        checker.call(f"{label} call {i}", i, argv, proc)
        procs.append(proc)
    return procs


def run_workload(wl, seed: int, seconds: float, smoke: bool, e2e: bool, traced: bool) -> dict:
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    env = child_env()
    checker = Checker(wl, seed, smoke)
    params = wl.params(smoke)

    child(["env", str(work / "env.json")], env, work / "env.stdout")
    try:
        info = json.loads((work / "env.json").read_text())
    except (OSError, ValueError):
        info = {"error": "environment probe failed"}
    info.update({"workload": wl.name, "seed": seed, "verify_seed": VERIFY_SEED, "smoke": smoke})

    if wl.prepare:
        wl.prepare(params, seed, str(inputs))

    # Warm the bytecode cache so no timed process pays for compiling.
    cli(["--help"], env, work / "warm.stdout")

    metrics: dict = {}
    if e2e:
        setups = []
        min_s = 0.0 if smoke else SETUP_MIN_S
        while len(setups) < SETUP_MIN_REPEATS or sum(setups) < min_s:
            r = len(setups)
            proc = child(["setup", wl.name, str(seed), str(inputs)] + (["--smoke"] if smoke else []),
                         env, work / f"setup{r}.stdout")
            checker.probe(f"setup {r}", proc)
            setups.append(proc.wall_s)

    rounds = []
    started = time.perf_counter()
    while not rounds or (time.perf_counter() - started) + rounds[-1]["wall_s"] <= seconds:
        out = work / "out" / f"round{len(rounds)}"
        out.mkdir(parents=True)
        procs = run_calls(wl.calls(params, seed, str(inputs), str(out)), env, out, checker,
                          f"round {len(rounds)}")
        rounds.append({
            "wall_s": sum(p.wall_s for p in procs),
            "cpu_s": sum(p.cpu_s for p in procs),
            "maxrss_mb": max(p.maxrss_mb for p in procs),
        })
    wall_s = statistics.median(r["wall_s"] for r in rounds)

    if wl.threads_reference:
        # Same seed at --threads 1, BLAS pinned to one thread for speed:
        # the bytes must not depend on either thread count.
        out = work / "out" / "threads1"
        out.mkdir(parents=True)
        calls = wl.calls(params, seed, str(inputs), str(out))
        for argv in calls:
            argv[argv.index("--threads") + 1] = "1"
        run_calls(calls, child_env(pin_blas=True), out, checker, "--threads 1")

    if e2e:
        metrics.update({
            "wall_s": wall_s,
            "work_per_s": wl.work(smoke) / wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["maxrss_mb"] for r in rounds),
        })

    if traced:
        out = work / "out" / "traced"
        out.mkdir(parents=True)
        procs = run_calls(wl.calls(params, seed, str(inputs), str(out)), env, out, checker,
                          "traced", traced=True)
        traces = []
        for i, proc in enumerate(procs):
            try:
                traces.append(json.loads((out / f"spans{i}.json").read_text()))
            except (OSError, ValueError):
                if proc.rc == 0:  # a failed call is already counted
                    checker.fail(f"traced call {i}", ["no spans written"])
        traced_wall = sum(p.wall_s for p in procs)
        per_layer = layers.layer_metrics(traces, traced_wall)
        cpu_s = statistics.median(r["cpu_s"] for r in rounds)
        per_layer.update({
            "process.cpu_s": cpu_s,
            "process.cpu_per_wall": cpu_s / wall_s,
            "trace.overhead_s": traced_wall - wall_s,
        })
        metrics.update(per_layer)
        (work / "spans.json").write_text(json.dumps(traces))

    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(inputs, ignore_errors=True)
    result = {
        "workload": wl.name,
        "rounds": len(rounds),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "messages": checker.messages,
        "compared": sorted(checker.compared),
        "env": info,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return result


UNITS = dict(END_TO_END + layers.PER_LAYER)


def report(results) -> None:
    """Human-readable lines for each workload, ahead of the JSON line."""
    for res in results:
        fail_frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"== {res['workload']}  ({res['rounds']} timed round(s))")
        print(f"   env: {json.dumps(res['env'], sort_keys=True)}")
        for line in res["messages"]:
            print(f"   {line}")
        print(f"   checks: {res['attempted'] - res['failed']}/{res['attempted']} calls passed; "
              f"compared {'; '.join(res['compared']) or 'nothing'}")
        for name, value in res["metrics"].items():
            print(f"   {name:<38} {value:>16.6g} {UNITS[name]}")
        print(f"   {'fail_frac':<38} {fail_frac:>16.6g} ratio")


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny sizes, untraced and traced")
    ns = ap.parse_args(argv)
    if ns.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "ridgeless" / "cli.py").is_file():
        print(f"error: no ridgeless sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if ns.workload == "all" or ns.smoke else [ns.workload]
    seconds = 0.0 if ns.smoke else ns.seconds
    results = [
        run_workload(WORKLOADS[name], ns.seed, seconds, ns.smoke,
                     e2e=ns.smoke or ns.trace == 0, traced=ns.smoke or ns.trace == 1)
        for name in names
    ]
    report(results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k.rsplit("/", 1)[-1]]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
