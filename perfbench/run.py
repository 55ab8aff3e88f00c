"""End-to-end and per-layer benchmark of smallpoly.

Run from the repository root:

    python3 perfbench/run.py --workload table5-sweep --seed 0 --seconds 36 --trace 0

Workloads (operation lists, tolerances and the predictions of which layer
moves which metric are in ``perfbench/workloads.json``): ``table5-sweep``,
``q-extrapolation`` and ``large-n-roundtrip``.  Each run imports smallpoly
from ``src/`` of the checkout it sits in, checks every operation's output,
and prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are CPU seconds of the benchmark's main thread (``time.thread_time``)
and of its set-up processes: on a shared VM they leave out the time the
hypervisor gives the core to other guests and the time other processes hold
it, which wall time does not.  They are scaled to a reference speed by a
calibration loop timed throughout the run (see ``Clock``), which takes out
part of the drift in how fast the shared host runs the same code.  Unscaled
wall totals are on the ``detail`` line.

Every run times the same work, whatever its ``--seed``: the operations'
inputs are the paper's fixed rows, family orders and sizes, and every call that
takes a seed gets a fixed one of its own operation (``workloads.op_seed``).
The solvers' restarts make a row's cost depend on its seed by tens of
percent, which a seed per run would add to the run-to-run spread.  The
seed is accepted and recorded on the ``env`` line.

``--trace 0`` measures passes over the workload's operations until
``--seconds`` have elapsed (always at least one whole pass; odd passes run
in reverse order) and reports

* ``setup_s``: median over fresh processes of their CPU time from start-up
  until smallpoly is imported and the workload's operations are built;
* ``cpu_s``: CPU time of one pass, as the sum over operations of each
  operation's median time;
* ``peak_rss_mb``: this process's peak resident memory;
* ``passed_share``: operations that passed over operations attempted;
* ``ops_per_cpu_s``: operations in one pass divided by ``cpu_s``.

``--trace 1`` runs exactly one pass (the untraced run's first) with the
wrappers of ``tracing.py`` installed and reports the per-layer counts and
CPU times, plus the traced pass time ``traced.cpu_s``; the tracing overhead
is that minus an untraced ``cpu_s``.  Spans of at least 1 ms are written to
``.perfbench/`` in the checkout.

The process pins BLAS and OpenMP to one thread and limits its own address
space, so an O(n^2) allocation fails as a clean MemoryError whatever the
host's overcommit policy.  Self-tests: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

# set before numpy loads; a second BLAS thread gains nothing on these
# workloads and adds scheduler noise
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
# far above the legitimate peak (about 1 GB at n = 5000)
ADDRESS_SPACE_LIMIT = 4 << 30
SETUP_REPEATS = 11
# the calibration loop: CAL_LOOPS iterations every CAL_INTERVAL_S; CAL_REF_S
# is its median CPU time on an idle 2-core Xeon VM (Python 3.11), and times
# are reported in CPU seconds at that speed.  One run of the loop stays
# inside a GIL switch interval (5 ms), so it is rarely preempted.
CAL_LOOPS = 20_000
CAL_INTERVAL_S = 0.1
CAL_REF_S = 0.0035


def limit_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_LIMIT)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def import_smallpoly():
    """Import smallpoly from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import smallpoly
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import smallpoly from {src}: {exc}")
    if not os.path.abspath(smallpoly.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: smallpoly came from {smallpoly.__file__}, not {src}")
    return smallpoly


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "address_space_limit": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def calibrate():
    """Thread CPU time of one run of a fixed pure-Python loop."""
    c0 = time.thread_time()
    x = 0.0
    for i in range(CAL_LOOPS):
        x += math.sin(i * 1e-3) * 0.5
    return time.thread_time() - c0


def child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Clock:
    """Scales CPU times measured during a run to a reference speed.

    On a shared host the CPU time of the same code drifts by several
    percent over tens of seconds, and a fixed calibration loop drifts with
    it.  While the clock runs, a background thread times the loop every
    CAL_INTERVAL_S; ``scale`` is CAL_REF_S over the median of those samples.
    The operations are timed with ``time.thread_time`` of the main thread,
    which leaves the sampling thread's CPU out.  Use as a context manager,
    which starts and joins the sampling thread.
    """

    def __init__(self):
        self.samples = [calibrate()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(CAL_INTERVAL_S):
            self.samples.append(calibrate())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def scale(self):
        return CAL_REF_S / statistics.median(self.samples)


def timed(fn, *args, **kwargs):
    """``(fn's result, main-thread CPU seconds, wall seconds)`` of one call."""
    t0, c0 = time.perf_counter(), time.thread_time()
    result = fn(*args, **kwargs)
    return result, time.thread_time() - c0, time.perf_counter() - t0


def setup_samples(args):
    """CPU times of fresh processes from start-up until smallpoly is
    imported and the workload's operations are built."""
    argv = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        before = child_cpu_s()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        samples.append(child_cpu_s() - before)
    return samples


def measure(workloads, spec, args, tmpdir):
    """Untraced passes until ``args.seconds`` have elapsed, at least one whole."""
    op_times = {}
    last_wall = {}
    errors = []
    pass_times = []
    attempted = 0
    wall_s = 0.0
    deadline = time.perf_counter() + args.seconds
    ops = workloads.operations(args.workload, spec, tmpdir)
    k = 0
    out_of_time = False
    with Clock() as clock:
        while not out_of_time:
            pass_s = 0.0
            # odd passes run backwards, so a partial last pass resamples the
            # long operations at the end of the list too
            for label, fn in ops[::-1] if k % 2 else ops:
                # after the first whole pass, start no operation that would
                # run past the deadline, judged by its previous wall time
                if pass_times and time.perf_counter() + last_wall[label] > deadline:
                    out_of_time = True
                    break
                (_, error), dt, last_wall[label] = timed(workloads.run_op, fn)
                op_times.setdefault(label, []).append(dt)
                pass_s += dt
                wall_s += last_wall[label]
                attempted += 1
                if error is not None:
                    errors.append(error)
            else:
                pass_times.append(pass_s)
            k += 1
        setup = setup_samples(args)

    scale = clock.scale()
    cpu_s = scale * sum(statistics.median(ts) for ts in op_times.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (scale * statistics.median(setup), "s"),
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "passed_share": ((attempted - len(errors)) / attempted, "ratio"),
        "ops_per_cpu_s": (len(op_times) / cpu_s, "1/s"),
    }
    detail = {
        "scale": scale,
        "calibration_samples": len(clock.samples),
        "whole_passes_cpu_s": [scale * t for t in pass_times],
        "op_samples": {label: len(ts) for label, ts in op_times.items()},
        "ops_wall_s": wall_s,
        "setup_samples_cpu_s": [scale * t for t in setup],
    }
    return attempted, errors, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def traced(workloads, tracing, spec, args, tmpdir):
    """One traced pass; its counts repeat exactly from run to run."""
    tracer = tracing.Tracer()
    errors = []
    attempted = 0
    cpu_s = wall_s = 0.0
    with Clock() as clock, tracer:
        for label, fn in workloads.operations(args.workload, spec, tmpdir):
            (_, error), dt, wall = timed(
                tracer.span, "bench", f"op {label}", workloads.run_op, fn
            )
            cpu_s += dt
            wall_s += wall
            attempted += 1
            if error is not None:
                errors.append(error)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": tracer.spans}, fh)
    detail = {"scale": clock.scale(), "ops_wall_s": wall_s, "spans": os.path.relpath(spans_path, ROOT)}
    return attempted, errors, tracer.metrics(clock.scale() * cpu_s), detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    limit_address_space()
    import_smallpoly()
    import tracing
    import workloads

    spec = workloads.load_spec()
    if args.workload not in spec["workloads"]:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(spec['workloads'])}")
    if args.setup_only:
        workloads.operations(args.workload, spec, OUT_DIR)
        return 0

    print("env", json.dumps(environment(args)), flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        if args.trace:
            attempted, errors, metrics, detail = traced(workloads, tracing, spec, args, tmpdir)
        else:
            attempted, errors, metrics, detail = measure(workloads, spec, args, tmpdir)
    for error in errors:
        print("failed", error)
    print("detail", json.dumps(detail))
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
