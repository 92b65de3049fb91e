"""One process of a benchmark run; ``run.py`` starts it with a pinned environment.

Usage: worker.py --workload W --seed N --seconds S --mode setup|run|trace --deadline D

The worker imports meshknit, parses the inputs and does the workload's
untimed warm-up, then prints ``READY`` with the time the host-speed meter
took during set-up and the set-up's scale.  ``setup`` stops there.  ``run``
measures whole rounds until ``--seconds`` have passed.  ``trace`` measures
the workload's first ``trace_rounds`` rounds twice, untraced and then
traced, and reports the per-layer metrics.  The last stdout line is one
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from quantile import harrell_davis

# meter the host's speed from here on, so that set-up time is scaled as well
SETUP_METER = hostspeed.Meter()
SETUP_METER.start()

import workloads  # noqa: E402  (imports meshknit)
from tracer import Tracer  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


def verify(item, out, error, reference) -> tuple[str | None, list[str]]:
    if error is not None:
        return None, [f"{item.key}: {type(error).__name__}: {error}"]
    try:
        canon, problems = item.check(out)
    except Exception as exc:  # a malformed output is a failed item, not a crash
        return None, [f"{item.key}: check raised {type(exc).__name__}: {exc}"]
    got = workloads.digest(canon)
    want = reference.get(workloads.key_hash(item.key))
    if want is not None and want != got:
        problems.append(f"output digest {got}, reference {want}")
    return got, [f"{item.key}: {p}" for p in problems]


def measure(workload, seed: int, seconds: float, reference: dict, *, rounds: int | None = None,
            tracer: Tracer | None = None, meter: hostspeed.Meter | None = None) -> dict:
    """Run whole rounds, until ``seconds`` have passed or ``rounds`` are done.

    Before each item the heap is collected, untimed, so that an item's time
    does not depend on the garbage its predecessors left.  With a ``meter``
    each item time leaves out the meter's interruptions and is scaled to
    the reference host speed (see :mod:`hostspeed`).
    """
    timed_rounds, digests, problems = [], {}, []
    attempted = failed = checked = 0
    start = perf_counter()
    if meter:
        meter.start()
    try:
        for k, items in enumerate(workload.rounds(seed)):
            if (rounds is not None and k >= rounds) or (rounds is None and k and perf_counter() - start >= seconds):
                break
            timed = []
            for item in items:
                gc.collect()
                if tracer:
                    tracer.begin_item(item.key)
                busy = meter.busy if meter else 0.0
                t0 = perf_counter()
                try:
                    out, error = item.run(), None
                except Exception as exc:  # counted as a failed item
                    out, error = None, exc
                t1 = perf_counter()
                if tracer:
                    tracer.end_item()
                dt = t1 - t0 - (meter.busy - busy if meter else 0.0)
                timed.append((item, dt, t0, t1, out, error))
            for item, dt, t0, t1, out, error in timed:
                got, item_problems = verify(item, out, error, reference)
                checked += workloads.key_hash(item.key) in reference
                digests[item.key] = got
                attempted += item.weight
                failed += item.weight if item_problems else 0
                problems += item_problems
            timed_rounds.append([(item.weight, dt, t0, t1) for item, dt, t0, t1, _, _ in timed])
    finally:
        if meter:
            meter.stop()
    scale = meter.scale if meter else (lambda t0, t1: 1.0)
    samples = [(scale(t0, t1) * dt / w, w) for timed in timed_rounds for w, dt, t0, t1 in timed]
    total_weight = sum(w for _, w in samples)
    total_time = sum(dt for timed in timed_rounds for _, dt, _, _ in timed)
    total_scaled = sum(dt * w for dt, w in samples)
    return {
        "rounds": len(timed_rounds),
        "attempted": attempted,
        "failed": failed,
        "digest_checked": checked,
        "problems": problems[:20],
        "items_per_s": total_weight / total_scaled,
        "raw_items_per_s": total_weight / total_time,
        "speed_scale": meter.overall_scale() if meter else 1.0,
        "item_p50_ms": 1000 * harrell_davis(samples, 50),
        "item_tail_ms": 1000 * harrell_davis(samples, workload.tail_pct),
        "tail_pct": workload.tail_pct,
        "digests": digests,
    }


def trace_run(workload, seed: int, reference: dict) -> dict:
    n = workload.trace_rounds
    plain = measure(workload, seed, 0, reference, rounds=n)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, seed, 0, reference, rounds=n, tracer=tracer)
    finally:
        tracer.uninstall()
    problems = plain["problems"] + traced["problems"]
    changed = sorted(k for k, d in plain["digests"].items() if traced["digests"].get(k) != d)
    problems += [f"{k}: tracing changed the output digest" for k in changed]
    metrics = tracer.metrics()
    metrics["trace.slowdown"] = plain["raw_items_per_s"] / traced["raw_items_per_s"]
    spans = OUT_DIR / f"spans-{workload.name}-seed{seed}"
    tracer.write(spans, {"workload": workload.name, "seed": seed, "rounds": n})
    return {
        "rounds": n,
        "attempted": traced["attempted"],
        "failed": max(plain["failed"], traced["failed"]) + len(changed),
        "digest_checked": traced["digest_checked"],
        "problems": problems[:20],
        "untraced_items_per_s": plain["raw_items_per_s"],
        "traced_items_per_s": traced["raw_items_per_s"],
        "spans_file": str(spans.relative_to(OUT_DIR.parent.parent)),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--deadline", type=int, required=True, help="seconds before the process ends itself")
    args = ap.parse_args()
    signal.alarm(max(1, args.deadline))

    workload = workloads.WORKLOADS[args.workload](workloads.load_inputs())
    reference = workloads.load_reference()
    workload.warm_up()
    SETUP_METER.stop()
    print(f"READY {SETUP_METER.busy} {SETUP_METER.overall_scale()}", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        result = measure(workload, args.seed, args.seconds, reference, meter=hostspeed.Meter())
        del result["digests"]
    else:
        result = trace_run(workload, args.seed, reference)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in result["problems"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
