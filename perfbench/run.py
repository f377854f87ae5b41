"""ddrplate benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass of the workload runs in a fresh ``worker.py`` process.
Untraced (``--trace 0``), passes repeat while the next one still fits in
``--seconds`` (at least one pass), and every end-to-end metric is the median
over the passes.  Traced (``--trace 1``), one untraced and one traced pass
run, and the per-layer metrics come from the traced one; ``trace.overhead_s``
is the traced wall time minus the untraced one.

Every solve is checked (see ``workloads.py``).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` as JSON, with the
metric names and units of ``BENCHMARK.json``.  A full record of the run,
with the machine block, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DEADLINE_S = 170.0        # a run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(args, inputs: Path, tmp: Path, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--inputs", str(inputs), "--tmp", str(tmp)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ddrplate" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no ddrplate source checkout at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    start = time.perf_counter()
    passes, traced, longest = [], None, 0.0
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        inputs, tmp = Path(scratch) / "inputs", Path(scratch)
        while True:
            t0 = time.perf_counter()
            passes.append(run_worker(args, inputs, tmp, False,
                                     DEADLINE_S - (t0 - start)))
            longest = max(longest, time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + longest > min(args.seconds, DEADLINE_S):
                break
        if args.trace:
            traced = run_worker(args, inputs, tmp, True,
                                DEADLINE_S - (time.perf_counter() - start))

    if traced is None:
        values = {name: statistics.median(p[name] for p in passes) for name in units}
    else:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json "
                         f"{sorted(units)}")
    everything = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": passes[0]["machine"],
        "passes": everything,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("machine:", json.dumps(record["machine"], sort_keys=True))
    for i, p in enumerate(everything):
        kind = "traced" if p["layers"] else "pass"
        print(f"{kind} {i}: wall {p['wall_s']:.3f} s, setup {p['setup_s']:.3f} s, "
              f"solve {p['solve_s']:.3f} s, errors "
              + ", ".join(f"{e:.6e}" for e in p["errors"])
              + ", backward " + ", ".join(f"{b:.1e}" for b in p["backward"]))
        for msg in p["failures"]:
            print(f"  FAILED {msg}")
    samples = 1 if traced else len(passes)
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {units[name]} (median of {samples})")
    print(f"fail_rate = {failed / attempted:.3g} ({failed} of {attempted} solves)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
