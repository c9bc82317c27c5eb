"""The benchmark's own self-test, at smoke size (about a minute).

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It checks that:

* every workload, untraced and traced, prints every metric named in
  ``BENCHMARK.json`` with its unit, answers correctly, and leaves no
  worker process or shared-memory segment behind;
* the per-layer counts repeat exactly across two traced runs with the
  same seed;
* the answer checkers flag deliberately wrong answers;
* the benchmark refuses to run while a ``REPRO_*`` knob is set, and
  fails without printing a result where the library source is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Per-layer metrics derived from clocks; every other one is a count
#: that must repeat exactly for a seed.
TIMED = {"obs.trace_overhead_frac", "cluster.shard_skew"}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def invoke(workload: str, trace: int, seed: int = 3, env=None, script=RUN, cwd=ROOT):
    command = [sys.executable, script, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(command, capture_output=True, text=True, env=env, cwd=cwd, timeout=600)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_runs(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, e2e), (1, layers)):
            child = invoke(workload, trace)
            result = last_json(child.stdout)
            tag = f"{workload} --trace {trace}"
            expect(child.returncode == 0 and result is not None, f"{tag}: exits 0 with a result")
            if result is None:
                print(child.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result has exactly the contract keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: every answer correct, no leftovers ({result['failed']} failed)")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{tag}: every metric printed with its unit")
            record = json.loads(child.stdout.strip().splitlines()[-2])["record"]
            expect(all(k in record for k in ("cpu_count", "python", "numpy", "seed")),
                   f"{tag}: record carries the host fingerprint")
            if trace:
                again = last_json(invoke(workload, 1).stdout)
                same = all(
                    again["metrics"][name]["value"] == m["value"]
                    for name, m in result["metrics"].items()
                    if m["unit"] not in ("s", "ms") and name not in TIMED
                )
                expect(same, f"{tag}: counts repeat exactly for the same seed")


def check_checkers() -> None:
    import numpy as np

    import explore
    import stream_live
    from common import check_invariant, check_knn
    from repro import SearchStats
    from repro.index import Neighbor

    inputs = explore.make_inputs(seed=5, rows=64, queries=4)
    ids, dists, _ = inputs["truth"][0]
    truth = [Neighbor(d, i) for i, d in zip(ids, dists)]
    distance = explore._true_distance(inputs, 0)
    expect(check_knn(truth, ids, dists, distance) is None, "checker accepts the exact k-NN answer")
    outsider = next(i for i in range(64) if i not in ids)
    wrong_member = truth[:-1] + [Neighbor(distance(outsider), outsider)]
    expect(check_knn(wrong_member, ids, dists, distance) is not None,
           "checker flags a k-NN answer with a wrong member")
    wrong_distance = [replace(truth[0], distance=dists[0] * 1.01)] + truth[1:]
    expect(check_knn(wrong_distance, ids, dists, distance) is not None,
           "checker flags a k-NN answer with a wrong distance")
    expect(check_knn(truth[:-1], ids, dists, distance) is not None,
           "checker flags a k-NN answer that is too short")
    expect(explore.check_range(truth[1:], inputs, 0) is not None,
           "checker flags a range answer missing a member")
    from repro.bursts.query import BurstMatch

    q = next(q for q, (matches, _) in enumerate(inputs["coburst"]) if matches)
    answer = [BurstMatch(score, name) for name, score in inputs["coburst"][q][0]]
    expect(explore.check_coburst(answer, inputs, q) is None, "checker accepts the exact co-burst answer")
    bad = [BurstMatch(answer[0].similarity * 0.5, answer[0].name)] + answer[1:]
    expect(explore.check_coburst(bad, inputs, q) is not None,
           "checker flags a co-burst answer with a wrong similarity")
    stats = SearchStats(full_retrievals=10, candidates_pruned=53)
    expect(check_invariant(stats, 64) is not None, "checker flags a broken pruning invariant")

    model = stream_live.Model(8)
    rng = np.random.default_rng(0)
    for n in range(12):
        model.add(f"s{n}", rng.integers(0, 9, 8))
    model.seal()
    model.record("s3", 5.0)
    names, matrix = model.population()
    query = matrix[0] + 0.01
    d = np.sqrt(((matrix - query) ** 2).sum(axis=1))
    order = np.argsort(d, kind="stable")[: stream_live.K]
    answer = [Neighbor(d[i], i, names[i]) for i in order]
    ok_stats = SearchStats(full_retrievals=len(names))
    expect(stream_live.check_search(answer, ok_stats, model, query) is None,
           "checker accepts the exact stream search answer")
    stale = [Neighbor(a.distance, a.seq_id, "not-in-store") for a in answer]
    expect(stream_live.check_search(stale, ok_stats, model, query) is not None,
           "checker flags a stream answer naming a member the store must not show")


def check_refusals() -> None:
    env = dict(os.environ, REPRO_VERIFY_BLOCK="0")
    child = invoke("explore", 0, env=env)
    expect(child.returncode != 0 and last_json(child.stdout) is None,
           "refuses to run with a REPRO_* knob set")
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        child = invoke("explore", 0, script=os.path.join(bare, "perfbench", "run.py"), cwd=bare)
        expect(child.returncode != 0 and last_json(child.stdout) is None,
               "fails without a result where the library source is missing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    try:
        check_checkers()
        check_refusals()
        check_runs(spec)
    finally:
        work = os.path.join(ROOT, ".bench_work")
        if os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
