"""Config-driven experiment runner.

``recurlab run <config>`` executes every experiment (return sets over an
epsilon grid, density reports, a recurrence verdict) and every suite (named
theorem checks), writing diff-able text artifacts into the output directory:

* ``experiments/<name>/verdict.txt``      key = value verdict record
* ``experiments/<name>/window_<i>.txt``   return window, serialized
* ``experiments/<name>/density_<i>.txt``  columnar running/window densities
* ``suites/<name>.txt``                   check outcome record
* ``summary.txt``                         one line per item

Outputs are byte-identical across runs with the same config, seed and
precision.  Exit status: 0 all pass, 1 any failure, 2 configuration error;
``config.parse_config`` raises every configuration error before anything
runs, so this module only runs checks and writes artifacts.

``recurlab describe '<operator literal>'`` prints what the literal builds.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import checks as checks_mod
from .classify import classify
from .config import (ConfigError, ExperimentSpec, RunConfig, SuiteSpec,
                     describe_operator, parse_config)
from .operators import PrecisionError, SparseVector
from .orbits import return_sets
from .values import to_complex

__all__ = ["main", "run_config", "execute_experiment", "execute_suite"]


def _fmt(value, digits=None) -> str:
    if isinstance(value, float):
        return repr(value) if digits is None else f"{value:.{digits}g}"
    return str(value)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def execute_experiment(spec: ExperimentSpec, precision: str = "exact") -> dict:
    """Run one experiment; returns a bundle of file contents to write."""
    op, x = spec.build()
    digits = None
    if precision.startswith("float"):
        x = _degrade_vector(x)
        digits = int(precision.split(":", 1)[1]) if ":" in precision else 12
    records = return_sets(op, x, sorted(spec.epsilons, reverse=True),
                          spec.seminorms, spec.horizon)
    verdict = classify(records)
    files = {}
    verdict_lines = [
        f"experiment={spec.name}",
        f"operator={spec.operator_literal}",
        f"vector={spec.vector_literal}",
        f"horizon={spec.horizon}",
        f"seed={spec.seed}",
        f"label={verdict.label.name}",
        f"period={verdict.period if verdict.period is not None else '-'}",
        f"periodic_like={verdict.periodic_like if verdict.periodic_like is not None else '-'}",
    ]
    for ev in verdict.evidence:
        verdict_lines.append(
            f"evidence[eps={ev.epsilon}]="
            f"recurrent:{ev.recurrent},reiterative:{ev.reiterative},"
            f"upper_frequent:{ev.upper_frequent},frequent:{ev.frequent},"
            f"uniform:{ev.uniform},ip_star:{ev.ip_star},"
            f"full_ap:{ev.full_ap if ev.full_ap is not None else '-'}")
    th = verdict.thresholds
    verdict_lines.append(
        f"thresholds=delta_low:{th.delta_low},delta_up:{th.delta_up},"
        f"delta_bd:{th.delta_bd},m_min:{th.m_min},"
        f"censor_factor:{th.censor_factor},gap_cap_frac:{th.gap_cap_frac}")
    files["verdict.txt"] = "\n".join(verdict_lines) + "\n"
    for i, rec in enumerate(records):
        files[f"window_{i}.txt"] = rec.to_text(
            spec.operator_literal, spec.vector_literal)
        ev = verdict.evidence[i]
        rows = [f"# eps={rec.epsilon}"]
        if ev.report is not None:
            rep = ev.report
            rows.append(f"# lower={_fmt(rep.lower_est, digits)} "
                        f"upper={_fmt(rep.upper_est, digits)} "
                        f"banach={_fmt(rep.banach_upper_est, digits)}")
            rows.append("# running density: N value")
            rows.extend(f"{n} {_fmt(v, digits)}"
                        for n, v in rep.running_density_curve)
            rows.append("# window density: L value")
            rows.extend(f"{L} {_fmt(v, digits)}" for L, v in rep.banach_curve)
        else:
            rows.append("# too few returns for density estimation")
        files[f"density_{i}.txt"] = "\n".join(rows) + "\n"
    label = verdict.label.name
    return {"name": spec.name, "status": "ok", "label": label, "files": files}


def _degrade_vector(x):
    if x.space.first_coordinate is not None:
        return SparseVector.from_pairs(
            x.space, ((i, complex(to_complex(v))) for i, v in x.entries))
    return x


def _experiment_task(args) -> dict:
    spec, precision = args
    try:
        return execute_experiment(spec, precision)
    except PrecisionError as err:
        return {"name": spec.name, "status": "failed",
                "label": f"precision: {err}", "files": {}}
    except Exception as err:           # isolate: one failure must not abort the run
        return {"name": spec.name, "status": "failed",
                "label": f"{type(err).__name__}: {err}",
                "files": {"error.txt": traceback.format_exc()}}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def execute_suite(spec: SuiteSpec) -> checks_mod.CheckOutcome:
    """Run one suite's check; ``parse_config`` already parsed its arguments."""
    return spec.run()


def _suite_task(spec: SuiteSpec):
    try:
        return execute_suite(spec)
    except Exception as err:           # isolate: one failure must not abort the run
        return checks_mod.CheckOutcome(
            name=spec.name, status="fail",
            metrics={}, witness={"error": f"{type(err).__name__}: {err}"})


def _outcome_text(name: str, out: checks_mod.CheckOutcome) -> str:
    lines = [f"suite={name}", f"check={out.name}", f"status={out.status}"]
    if out.seed is not None:
        lines.append(f"seed={out.seed}")
    lines.append(f"fingerprint={out.fingerprint}")
    for k in sorted(out.metrics):
        lines.append(f"metric.{k}={_fmt(out.metrics[k])}")
    if out.witness:
        for k in sorted(out.witness):
            lines.append(f"witness.{k}={_fmt(out.witness[k])}")
    if out.reason:
        lines.append(f"reason={out.reason}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_config(config: RunConfig, out_dir: Path, workers: int = 1,
               precision: str = "exact", seed: int = 0) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    suite_results = [(spec.name, _suite_task(spec)) for spec in config.suites]

    exp_args = [(spec, precision) for spec in config.experiments]
    if workers > 1 and exp_args:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            exp_results = list(pool.map(_experiment_task, exp_args))
    else:
        exp_results = [_experiment_task(a) for a in exp_args]

    summary = []
    any_fail = False
    for spec, result in zip(config.experiments, exp_results):
        base = out_dir / "experiments" / spec.name
        base.mkdir(parents=True, exist_ok=True)
        for fname, content in sorted(result["files"].items()):
            (base / fname).write_text(content)
        status = result["status"]
        if status != "ok":
            any_fail = True
        summary.append(f"experiment {spec.name:<28} {status:<7} {result['label']}")
    for name, out in suite_results:
        base = out_dir / "suites"
        base.mkdir(parents=True, exist_ok=True)
        (base / f"{name}.txt").write_text(_outcome_text(name, out))
        if out.status == "fail":
            any_fail = True
        summary.append(f"suite      {name:<28} {out.status:<7} {out.name}")
    (out_dir / "summary.txt").write_text(
        "\n".join([f"# run seed={seed} precision={precision}", *summary]) + "\n")
    for line in summary:
        print(line)
    return 1 if any_fail else 0


def _int_at_least(low: int):
    """An argparse type: no integer, or one below ``low``, exits 2 naming its option."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="recurlab",
        description="recurrence-in-linear-dynamics experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a config file")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--workers", type=_int_at_least(1), default=1)
    run_p.add_argument("--precision", default="exact", help="exact | float:<digits>")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=_int_at_least(0), default=0)
    desc_p = sub.add_parser("describe", help="describe an operator literal")
    desc_p.add_argument("literal")
    args = parser.parse_args(argv)

    if args.command == "describe":
        try:
            print(describe_operator(args.literal))
        except Exception as err:
            print(f"configuration error: {err}", file=sys.stderr)
            return 2
        return 0

    if args.precision != "exact":
        if not (args.precision.startswith("float:")
                and args.precision[6:].isdigit()):
            print(f"bad --precision {args.precision!r}", file=sys.stderr)
            return 2

    try:
        config = parse_config(args.config.read_text(), seed=args.seed)
    except (OSError, ConfigError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(config.output_dir)
    return run_config(config, out_dir, workers=args.workers,
                      precision=args.precision, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
