"""End-to-end benchmark of batch planning and the serving daemon.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload catalog-dense --seed 1 --seconds 2 --trace 0

``--trace 0`` times the workload untraced and prints its end-to-end
metrics; ``--trace 1`` runs it with every layer's entry points wrapped
and prints the per-layer metrics, plus the tracing overhead against an
untraced run of the same seed in a child process.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.

The command itself only supervises: it runs the workload in a child
process and, before it exits, waits for every process the run left
behind (see ``_supervise``).
"""

from __future__ import annotations

import os

# One thread per numeric library in every workload process: OpenBLAS
# otherwise starts a thread per CPU, which competes with the pool
# workers and the daemon's replan thread for the two CPUs.  Must be set
# before numpy is imported.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (ignored by git).
TRACE_DIR = ROOT / ".bench_traces"
#: Set in the environment of the child process that runs the workload.
WORKER_ENV = "E2EBENCH_WORKER"
#: How long the supervisor waits for processes the run left behind
#: before it kills them.
REAP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def _set_subreaper() -> None:
    """Have orphaned descendants re-parented to this process, not to init.

    A pool run's ``multiprocessing`` resource tracker outlives the
    workload process by a moment, and a traced run's untraced reference
    run has children of its own; as a subreaper the supervisor can wait
    for them all.  Where ``prctl`` is missing (not Linux), only direct
    children are waited for.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    """Process ids whose parent is this process."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # fields after the parenthesised command: state, ppid, ...
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(stat.parent.name))
    return pids


def _reap_children(grace: float) -> None:
    """Wait until this process has no children left, killing those still
    running ``grace`` seconds from now."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _supervise(argv: list[str]) -> int:
    """Run the workload in a child process and return its exit code once
    every process started on its behalf has ended."""
    _set_subreaper()
    worker = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env={**os.environ, WORKER_ENV: "1"},
    )
    stops = (signal.SIGINT, signal.SIGTERM)
    previous = {sig: signal.signal(sig, lambda sig, _: worker.send_signal(sig))
                for sig in stops}
    try:
        return worker.wait()
    finally:
        _reap_children(REAP_GRACE_S)
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _import_program():
    """Put the checkout's own ``src`` first on the path; refuse to run
    against anything else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: no program sources at {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"e2ebench: imported repro from {repro.__file__}, not {SRC}")
    return repro


def _untraced_reference(args) -> dict:
    """The same workload and seed, untraced, as a benchmark run of its own."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
        env={k: v for k, v in os.environ.items() if k != WORKER_ENV},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"untraced reference run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the set-up phase repeats its build; "
                        "catalog lookups are spread over as long again")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if os.environ.get(WORKER_ENV) != "1":
        return _supervise(sys.argv[1:] if argv is None else list(argv))

    repro = _import_program()
    import numpy as np

    import cases
    import layers
    from tracer import Tracer

    if args.workload not in cases.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(cases.WORKLOADS)}")

    tracer = Tracer() if args.trace else None
    outcome = cases.run_workload(args.workload, args.seed, args.seconds, tracer)
    attempted, failed = outcome.attempted, outcome.failed

    if tracer is None:
        metrics = {
            name: {"value": outcome.metrics[name][0], "unit": unit}
            for name, unit in cases.END_TO_END.items()
        }
        rows = [
            (name, m["value"], m["unit"], f"{outcome.metrics[name][1]} samples")
            for name, m in metrics.items()
        ]
    else:
        values = layers.layer_metrics(tracer.spans, outcome.layer)
        reference = _untraced_reference(args)
        untraced = reference["metrics"]["plan_s"]["value"]
        traced = outcome.metrics["plan_s"][0]
        values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        # tracing must not change what the program computes
        if reference["metrics"]["bill_total"]["value"] != outcome.metrics["bill_total"][0]:
            outcome.failures.append("traced bill_total differs from untraced")
            failed += 1
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_file)
        print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in layers.LAYER_METRICS.items()
        }
        rows = [(n, m["value"], m["unit"], "") for n, m in metrics.items()]

    hygiene = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
        **outcome.hygiene,
    }
    print("run: " + json.dumps(hygiene))
    for name, value, unit, samples in rows:
        print(f"  {name:<28} {value:>16.6g} {unit:<6} {samples}")
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
