"""Benchmark for specdrive: run one workload and print its metrics.

    python3 bench/run.py --workload hcl-hg-relax --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run instead, and the spans are written to
.bench_out/.  Earlier lines carry the raw figures behind the metrics.  See
bench/README.md for what each workload and metric means.
"""

import argparse
import gc
import sys

import bootstrap

bootstrap.prepare()

import hashlib
import json
import resource
import time
import traceback
from dataclasses import dataclass

import numpy as np

import reference
import selftest
from hostref import HostReference
from tracing import PropagationCounter, Tracer
import specdrive.dynamics as dynamics
from workloads import DEFAULT_SEED, WORKLOADS

SETUP_SECONDS = 1.0     # set-up is repeated for this long (median reported)
SETUP_MIN_REPEATS = 20
SETUP_BLOCK = 10        # set-ups between two host-kernel runs
MIN_OPS = 2
OUT_DIR = bootstrap.ROOT / ".bench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload, seed, host, min_seconds):
    """Repeat the set-up in blocks, each bracketed by the host kernel.

    Returns the last Prepared, the raw set-up seconds and the same seconds
    scaled to the nominal host.
    """
    raw, scaled, kernel = [], [], [host.measure()]
    deadline = time.perf_counter() + min_seconds
    prep = None
    while len(raw) < SETUP_MIN_REPEATS or time.perf_counter() < deadline:
        block = []
        for _ in range(SETUP_BLOCK):
            t0 = time.perf_counter()
            prep = workload.setup(seed)
            block.append(time.perf_counter() - t0)
        kernel.append(host.measure())
        raw += block
        scaled += [host.scaled(t, kernel[-2], kernel[-1]) for t in block]
    return prep, raw, scaled, kernel


def warm_up(prep):
    """One untimed forward propagation of the guess (scipy.fft plan cache,
    first calls of the step loop).  The first timed operation was measured
    to be no slower than the later ones."""
    p = prep.problem
    dynamics.propagate_forward(p.system, p.guess, p.psi0,
                               p.propagator_for(prep.config))


def fingerprint(result):
    """Digest of everything an operation returns that the checks read."""
    trace, analysis = result
    h = hashlib.sha256()
    h.update(trace.status.encode())
    h.update(np.asarray(trace.trajectory.final_state).tobytes())
    h.update(np.asarray(trace.trajectory.norms).tobytes())
    h.update(trace.field.time_values().tobytes())
    h.update(np.array([row.breakdown.j for row in trace.rows]).tobytes())
    h.update(repr(trace.breakdown).encode())
    if "per_band" in analysis:
        h.update(np.asarray(analysis["per_band"]).tobytes())
    return h.hexdigest()


@dataclass
class OpRecord:
    seconds: float
    propagations: int
    digest: str
    traced: bool
    error: str = None
    scaled: float = None  # seconds on the nominal host


def run_ops(workload, prep, seconds, host, counter, tracer):
    """Whole operations until the next one would pass `seconds`.

    In a traced run (tracer given) every other operation is traced.
    """
    counter.install()
    records, last = [], None
    kernel = [host.measure()]
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(records) % 2 == 0
            counter.reset()
            gc.collect()  # no garbage of the previous operation in RSS
            try:
                if traced:
                    counter.uninstall()  # the tracer puts it back on top
                    tracer.install()
                    try:
                        result = tracer.run(lambda: workload.operation(prep))
                    finally:
                        tracer.uninstall()
                        counter.install()
                    dt = tracer.ops[-1]["wall"]
                else:
                    t0 = time.perf_counter()
                    result = workload.operation(prep)
                    dt = time.perf_counter() - t0
                records.append(OpRecord(dt, counter.count,
                                        fingerprint(result), traced))
                last = result
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                records.append(OpRecord(float("nan"), 0, None, traced,
                                        error="raised"))
            kernel.append(host.measure())
            records[-1].scaled = host.scaled(records[-1].seconds,
                                             kernel[-2], kernel[-1])
            elapsed = time.perf_counter() - start
            done = [r.seconds for r in records if r.error is None]
            predicted = float(np.median(done)) if done else 0.0
            if len(records) >= MIN_OPS and elapsed + predicted > seconds:
                break
    finally:
        counter.uninstall()
    return records, last, kernel


def judge(records, last, prep, workload):
    """Reference-check the last result; mark every operation ok or failed.

    Every operation is checked: the last one against the independent
    reference, and every one for bitwise identity with it (reruns of one
    input are deterministic).
    """
    notes = []
    outcome = None
    ref_ok = False
    if last is not None:
        try:
            outcome = reference.check_result(prep, last[0], last[1],
                                             workload.limits)
            ref_ok = True
        except reference.CheckFailed as exc:
            notes.append(f"reference check failed: {exc}")
    digest = fingerprint(last) if last is not None else None
    wrong = 0
    for r in records:
        if r.error is not None:
            continue
        if r.digest != digest:
            r.error = "differs from the checked result"
            wrong += 1
        elif not ref_ok:
            r.error = "failed the reference check"
            wrong += 1
        elif r.propagations < 1:
            r.error = "no propagation was seen by the counter"
            wrong += 1
    if wrong:
        notes.append(f"{wrong} operation(s) returned a wrong result")
    return outcome, wrong == 0, notes


def emit(detail, correct, records, metrics):
    print("detail: " + json.dumps(detail, sort_keys=True))
    failed = sum(1 for r in records if r.error is not None)
    print(json.dumps({"correct": bool(correct), "attempted": len(records),
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    host = HostReference(workload.kernel)
    host.measure()
    selftest.run()

    if args.trace:
        prep = workload.setup(args.seed)
        setup_raw = setup_scaled = setup_kernel = []
    else:
        prep, setup_raw, setup_scaled, setup_kernel = measure_setup(
            workload, args.seed, host, SETUP_SECONDS)
    warm_up(prep)
    counter = PropagationCounter()
    tracer = Tracer(counter) if args.trace else None
    records, last, op_kernel = run_ops(workload, prep, args.seconds, host,
                                       counter, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome, correct, notes = judge(records, last, prep, workload)

    ok = [r for r in records if r.error is None]
    detail = dict(workload=args.workload, seed=args.seed,
                  host_kernel_s=float(np.median(setup_kernel + op_kernel)),
                  host_kernel_ops=op_kernel,
                  op_seconds_raw=[r.seconds for r in records],
                  op_seconds_scaled=[r.scaled for r in records],
                  propagations=[r.propagations for r in records],
                  notes=notes)
    if not ok:
        # nothing to time: report the failure with the raw figures only
        emit(detail, False, records, {})
        return 0

    if args.trace:
        plain = [r.seconds for r in ok if not r.traced]
        traced = [r.seconds for r in ok if r.traced]
        detail.update(
            traced_op_s=float(np.median(traced)),
            untraced_op_s=float(np.median(plain)) if plain else None,
            tracing_overhead=(float(np.median(traced) / np.median(plain)) - 1.0
                              if plain else None),
            self_time_accounted=[op["accounted"] for op in tracer.ops],
            bench_self_s=[op["bench_self"] for op in tracer.ops])
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(path)
        detail["spans_file"] = str(path.relative_to(bootstrap.ROOT))
        emit(detail, correct, records, tracer.layer_metrics())
        return 0

    wall = float(np.median([r.scaled for r in ok]))
    props = float(np.median([r.propagations for r in ok]))
    detail.update(setup_s_raw=float(np.median(setup_raw)),
                  setup_repeats=len(setup_raw),
                  wall_s_raw=float(np.median([r.seconds for r in ok])),
                  peak_rss_mb=peak_rss_mb, outcome=outcome)
    trace = last[0]
    metrics = {
        "setup_s": {"value": float(np.median(setup_scaled)), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "propagations_per_s": {"value": props / wall, "unit": "1/s"},
        "yield": {"value": float(trace.breakdown.j_max), "unit": "1"},
        "state_error": {"value": outcome["state_error"], "unit": "1"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    emit(detail, correct, records, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
