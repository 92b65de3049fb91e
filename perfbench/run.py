"""meshknit benchmark: census, quotients and present workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|quotients|present --seed N --seconds S --trace 0|1

Every measurement runs in a fresh worker process (``worker.py``) with a
pinned environment: ``PYTHONPATH`` is the checkout's ``src`` only,
``PYTHONHASHSEED=0``, ``MESHKNIT_THREADS`` unset and
``MESHKNIT_ALLOW_SLOW=1`` (the E7 brute-force gate).  The loop is closed
with one caller.

``--trace 0`` starts ``SETUPS - 1`` workers that only set up, then one that
measures; ``setup_s`` is the median of the ``SETUPS`` times from process
start to the first timed item.  ``--trace 1`` starts one worker that
measures the same items untraced and traced and reports per-layer metrics.

Stdout ends with a report line (machine info, failure share, tail
percentile, checks) and then the result line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
TIME_LIMIT_S = 170
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    pass


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
    }


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("MESHKNIT_THREADS", "PYTHONOPTIMIZE", "PYTHONDEVMODE", "PYTHONMALLOC"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        MESHKNIT_ALLOW_SLOW="1",
    )
    return env


def spawn(args, mode: str, env: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return its scaled setup time and its result line."""
    remaining = deadline - monotonic()
    if remaining < 2:
        raise RunFailed("time limit reached before the worker could start")
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--deadline", str(int(remaining)),
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().split()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} worker overran the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if len(ready) != 3 or ready[0] != "READY" or proc.returncode != 0:
        raise RunFailed(f"{mode} worker failed with exit status {proc.returncode}")
    # leave out the host-speed meter's own time, then scale to the reference speed
    meter_busy, scale = float(ready[1]), float(ready[2])
    lines = rest.strip().splitlines()
    return (setup_s - meter_busy) * scale, json.loads(lines[-1]) if lines else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on termination, unwind through spawn() so that it kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "meshknit" / "__init__.py").is_file():
        print(f"perfbench: no meshknit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = machine_info()
    env = pinned_env()
    try:
        if args.trace:
            _, result = spawn(args, "trace", env, deadline)
            setups = []
            metrics = result.pop("metrics")
        else:
            setups = [spawn(args, "setup", env, deadline)[0] for _ in range(SETUPS - 1)]
            setup_s, result = spawn(args, "run", env, deadline)
            setups.append(setup_s)
            metrics = {name: result.pop(name) for name in END_TO_END_UNITS if name in result}
            metrics["setup_s"] = statistics.median(setups)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        from tracer import metric_units  # only the names and units; imports no meshknit

        units = metric_units()
    else:
        units = END_TO_END_UNITS
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "env": {k: env[k] for k in ("PYTHONHASHSEED", "MESHKNIT_ALLOW_SLOW")},
        "failed_frac": result["failed"] / result["attempted"],
        "setup_samples_s": setups,
        **result,
    }
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
