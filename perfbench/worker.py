"""One workload in one fresh interpreter: set up, run closed-loop passes, check.

Started by ``run.py``; prints one JSON object as its last line.

``--mode setup`` stops once the first task is ready and reports only the
set-up time.  ``--mode run`` then runs whole passes over the task list, one
after the other on one thread, until ``--seconds`` have elapsed (at least
one pass), reads the peak resident memory, and only then checks the first
pass's outputs against the independent computations and every later pass
against the first.  With ``--trace 1`` the recurlab layers are wrapped
before the workload is built and the per-layer metrics are reported.

Times are CPU seconds divided by the speed factor of ``speed.py``, measured
by running its reference computation right before every task.
"""

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_PROBLEMS = 20
SETUP_REFERENCES = 5


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import recurlab
    origin = Path(recurlab.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"recurlab imported from {origin}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads
    scratch = args.out_dir / f"tmp-{args.workload}-{args.seed}-{args.mode}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, ROOT, scratch)
    setup_s = time.process_time()
    setup_speed = speed.factor([speed.reference() for _ in range(SETUP_REFERENCES)])
    try:
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "speed": setup_speed}))
            return 0
        result = run(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["setup_s"] = setup_s
    result["setup_speed"] = setup_speed
    if tracer is not None:
        tracer.save(args.out_dir / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


def run(workload, seconds: float, tracer) -> dict:
    clock = time.process_time
    # traced, the reference gets a span of its own, so that the zoo's
    # references (run between items, inside run_config) are no layer's time
    reference = speed.reference if tracer is None else tracer.wrap(
        "bench.reference", speed.reference)
    pass_times, slowest, speeds, raw_pass, layers = [], [], [], [], []
    errors, first, mismatched = [], None, 0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        workload.before_pass()
        gc.collect()
        if tracer is not None:
            tracer.begin_pass()
        t0 = clock()
        outputs, task_times, pass_errors, refs = workload.run_pass(reference)
        cpu = clock() - t0 - sum(refs)
        factor = speed.factor(refs)
        speeds.append(factor)
        raw_pass.append(cpu)
        pass_times.append(cpu / factor)
        slowest.append(max(task_times) / factor)
        if tracer is not None:
            layers.append({name: value / factor if tracer.units[name] == "s" else value
                           for name, value in tracer.end_pass().items()})
        passes += 1
        errors.extend(pass_errors)
        extracted = workload.extract(outputs)
        del outputs
        if first is None:
            first = extracted
        elif extracted != first:
            mismatched += 1
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = workload.check(first)
    if mismatched:
        problems.append(f"{mismatched} passes gave outputs different from the first pass")
    result = {
        "passes": passes,
        "attempted": passes * workload.operations,
        "failed": len(errors),
        "correct": not problems,
        "problems": problems[:MAX_REPORTED_PROBLEMS],
        "errors": errors[:MAX_REPORTED_PROBLEMS],
        "pass_s": pass_times,
        "slowest_task_s": slowest,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "raw_pass_cpu_s": raw_pass,
        "speed": speeds,
    }
    if layers:
        result["per_layer"] = {name: statistics.median_low(p[name] for p in layers)
                               for name in layers[0]}
        result["per_layer"]["trace.pass_s"] = statistics.median(pass_times)
        result["per_layer_units"] = tracer.units
    return result


if __name__ == "__main__":
    sys.exit(main())
