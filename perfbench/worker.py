"""One pass of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --inputs DIR --tmp DIR [--trace]

``run.py`` starts one worker per pass, so the peak RSS and warm caches a pass
reports belong to it alone.  The thread pools are pinned here, before numpy
is imported; ``DDRPLATE_THREADS`` would not reach numpy through the package
import.  The last line of standard output is the pass result as JSON.
"""

import os
import sys

THREADS = "1"
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "thread_pins": {var: os.environ[var] for var in PINS},
        "git_commit": git_commit(ROOT),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=Path, required=True,
                   help="directory for the seeded meshes, shared by the passes of a run")
    p.add_argument("--tmp", type=Path, required=True,
                   help="directory for outputs the workload writes")
    p.add_argument("--trace", action="store_true", help="install the per-layer wrappers")
    args = p.parse_args()

    w = workloads.WORKLOADS[args.workload]
    meshes = workloads.make_inputs(w, args.seed, args.inputs)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        res = workloads.run_pass(w, args.seed, meshes, args.tmp)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "setup_s": res.setup_s,
        "solve_s": res.solve_s,
        "wall_s": res.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_error_max": res.max_error(roundoff_limited=False),
        "errors": res.errors,
        "backward": res.backward,
        "attempted": w.solves,
        "failed": len(res.bad),
        "failures": res.failures,
        "machine": machine(),
        "layers": (tracer.metrics(res.backward, res.max_error(roundoff_limited=True))
                   if tracer else None),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
