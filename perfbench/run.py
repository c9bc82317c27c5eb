"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The library is imported from ``src/`` of the checkout this file lives
in; nothing is installed.  The workload's inputs are generated from
``--seed`` (never timed), the workload is set up several times (the
median is ``setup_s``), then one closed-loop client measures for
``--seconds`` while every answer is checked against a brute-force
oracle.  Reported times are at a fixed reference host speed (see
``HostSpeed`` in ``common.py``); the record keeps the wall times too.  ``--trace 1`` wraps the library's layer entry points in
benchmark-side spans and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the full record: host fingerprint, every operation's latency
with its sample count, the paper's cost units, and any failures.
``--workload all`` runs each workload in a fresh process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = {
    "explore": "explore",
    "batch-sharded": "batch_sharded",
    "stream-live": "stream_live",
}

#: Metrics measured during set-up, scaled by the set-up phase's probes.
SETUP_METRICS = {
    "setup_s",
    "compression.compress_s",
    "storage.write_s",
    "index.build_s",
    "bursts.db_build_s",
    "cluster.pool_warm_s",
    "bursts.setup_online_push_s",
}

sys.path.insert(0, HERE)

from common import (  # noqa: E402
    MIN_SAMPLES,
    BenchError,
    HostSpeed,
    Hygiene,
    Tracer,
    at_reference_speed,
    fingerprint,
    log,
    refuse_knobs,
    stop_resource_tracker,
)


class Context:
    """What a workload needs to know about this run."""

    def __init__(self, args, workload: str, module) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = args.size
        smoke = args.size == "smoke"
        self.setup_reps = 2 if smoke else getattr(module, "SETUP_REPS", 3)
        self.min_samples = 5 if smoke else getattr(module, "MIN_SAMPLES", MIN_SAMPLES)
        self.tracer = Tracer() if args.trace else None
        self.host = HostSpeed()
        self.workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(path)
        return path


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def import_library():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"library source not found under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def run_one(args, spec: dict) -> dict:
    refuse_knobs()
    import_library()
    module = importlib.import_module(WORKLOADS[args.workload])
    ctx = Context(args, args.workload, module)
    hygiene = Hygiene()
    try:
        result = module.run(ctx)
    finally:
        if ctx.tracer:
            ctx.tracer.restore()
        stop_resource_tracker()
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    outcome = result["outcome"]
    for problem in hygiene.problems():
        outcome.fail(problem)

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.trace:
        unknown = set(result["layers"]) - set(layer_units)
        if unknown:
            raise BenchError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer the workload never crosses reads 0.
        measured = {name: float(result["layers"].get(name, 0.0)) for name in layer_units}
        units = layer_units
    else:
        for name, unit in e2e_units.items():
            if result["e2e"][name]["unit"] != unit:
                raise BenchError(f"{name} measured in {result['e2e'][name]['unit']}, not {unit}")
        measured = {name: result["e2e"][name]["value"] for name in e2e_units}
        units = e2e_units
    # End-to-end and ``op.*`` times are already at the reference speed,
    # operation by operation; other per-layer times are scaled by their
    # phase's probes.
    scales = {phase: ctx.host.scale(phase) for phase in ("setup", "loop")}
    metrics = {
        name: {
            "value": at_reference_speed(
                measured[name], unit, scales["setup" if name in SETUP_METRICS else "loop"]
            ) if args.trace and not name.startswith("op.") else measured[name],
            "unit": unit,
        }
        for name, unit in units.items()
    }
    record = {
        **fingerprint(args.workload, args.seed, args.seconds, bool(args.trace)),
        "size": args.size,
        "host_probes": {phase: len(samples) for phase, samples in ctx.host.samples.items()},
        "scale_to_reference": scales,
        "reported": metrics,
        "end_to_end": result["e2e"],
        "operations": result["ops"],
        "wall": result["wall"],
        "cost_units": result["cost"],
        "error_rate": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "notes": result["notes"],
        "failures": outcome.failures,
    }
    return {
        "record": record,
        "result": {
            "correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
    }


def print_table(record: dict) -> None:
    print(f"# {record['workload']}  seed={record['seed']}  cpus={record['cpu_count']}"
          f"  python={record['python']}  numpy={record['numpy']}")
    rows = {**record["end_to_end"], **record["operations"]}
    print(f"  {'metric':<22} {'reference':>14} {'unit':<4} {'wall':>14}  samples")
    for name, m in rows.items():
        wall = record["wall"].get(name)
        shown = f"{wall['value']:>14.6g}" if wall else f"{'':>14}"
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']:<4} {shown}  n={m['samples']}")
    for name, value in record["cost_units"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>12}")
    print(f"  error_rate {record['error_rate']:.6g}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in its own process, so no state or worker leaks across."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        hygiene = Hygiene()
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            log(f"{workload}: exited with code {child.returncode}")
            return child.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        leftovers = hygiene.problems()
        combined["correct"] &= result["correct"] and not leftovers
        combined["attempted"] += result["attempted"] + len(leftovers)
        combined["failed"] += result["failed"] + len(leftovers)
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke shrinks every input, for the benchmark's self-test",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        spec = load_spec()
        if args.workload == "all":
            refuse_knobs()
            return run_all(args)
        out = run_one(args, spec)
    except BenchError as exc:
        log(f"benchmark: {exc}")
        return 2
    print_table(out["record"])
    print(json.dumps({"record": out["record"]}), flush=True)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
