#!/usr/bin/env python3
"""recurlab's benchmark.

    python3 perfbench/run.py --workload <zoo|exact-orbits|float-orbits|window-calculus|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload runs in fresh interpreters
started from here, with the numpy thread pools pinned to one thread:

* a few set-up probes (untraced runs only), each of which imports recurlab
  from ``src/`` and builds the seeded inputs, then exits;
* one measuring process that sets up the same way and then runs closed-loop
  passes over the workload's tasks for ``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics (``setup_s``,
``pass_s``, ``slowest_task_s``, ``peak_rss_mib``); with ``--trace 1`` the
layers are wrapped and it reports the per-layer metrics instead.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and scratch files go to ``.perfbench-out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("zoo", "exact-orbits", "float-orbits", "window-calculus")
SETUP_PROBES = 4          # plus the measuring process's own set-up
RUN_LIMIT_S = 170.0       # a whole invocation for one workload ends before this
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "slowest_task_s": "s",
                    "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, trace: int, mode: str,
           deadline: float) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # imports use cached bytecode, as installs do
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--mode", mode, "--out-dir", str(OUT)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} worker ({mode}) did not end in time") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = [_child(workload, seed, seconds, trace, "setup", deadline)
              for _ in range(0 if trace else SETUP_PROBES)]
    res = _child(workload, seed, seconds, trace, "run", deadline)
    probes.append({"setup_s": res["setup_s"], "speed": res["setup_speed"]})
    for line in res["errors"] + res["problems"]:
        print(f"  {workload}: {line}", file=sys.stderr)
    if trace:
        metrics, units = res["per_layer"], res["per_layer_units"]
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] / p["speed"] for p in probes),
            "pass_s": statistics.median(res["pass_s"]),
            "slowest_task_s": statistics.median(res["slowest_task_s"]),
            "peak_rss_mib": res["peak_rss_mib"],
        }
        units = END_TO_END_UNITS
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "passes": res["passes"],
        "raw_pass_cpu_s": statistics.median(res["raw_pass_cpu_s"]),
        "speed": statistics.median(res["speed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "recurlab" / "__init__.py").is_file():
        print(f"no recurlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            results[name] = res = run_workload(name, args.seed, args.seconds, args.trace)
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} passes={res['passes']} "
                  f"raw_pass_cpu={res['raw_pass_cpu_s']:.4g}s speed_factor={res['speed']:.3f}")
            for metric, m in res["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        for tmp in OUT.glob("tmp-*"):
            shutil.rmtree(tmp, ignore_errors=True)

    if len(names) == 1:
        res = results[names[0]]
        summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
