"""One measurement in a fresh process; prints its result as one JSON line.

    worker.py match INSTANCE [--trace SPANS]
        one in-process ``opmatch match --file INSTANCE --json`` call; reports
        the exit code, the captured output, the call's wall time, the host
        speed during it (see ``timed``) and the process's max RSS. With
        --trace the call runs under the tracer, whose spans go to SPANS.
    worker.py setup INSTANCE
        builds the pattern's ``PatternIndex`` in at least SETUP_ROUNDS rounds
        and for at least SETUP_SECONDS; each round repeats the build for
        ROUND_S seconds and reports the mean build time and the host speed.

run.py starts it with the program's ``src`` directory first on sys.path.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import time
from bisect import bisect_left

# Pinned so that neither the caller's shell nor a changed default can move results.
BACKEND = "bittrie"
SETUP_ROUNDS, SETUP_SECONDS = 3, 3.0  # PatternIndex build rounds: at least this many, for at least this long
ROUND_S = 0.3  # PatternIndex builds per set-up round

# Host speed. This host's CPUs each drift by up to 2x within seconds, on
# their own, so a call's wall time alone does not repeat. A fixed
# interpreter workload of the matcher's kind (integer dict, list and bisect
# work) is timed next to and during each call on the same CPU; its
# reference time over its measured time is the host speed. CAL_REF_S is its
# median time on the 2-vCPU host (CPython 3.11) the benchmark was defined on.
CAL_REF_S = 0.009
EDGE_SAMPLES = 8  # samples before and after each call
SAMPLE_EVERY_S = 0.25  # sampling period inside an untraced call
_CAL_DATA = random.Random(0).sample(range(1 << 20), 4000)


def calibration_sample() -> float:
    t0 = time.perf_counter()
    for _ in range(4):
        tails: list[int] = []
        seen: dict[int, int] = {}
        for x in _CAL_DATA:
            i = bisect_left(tails, x)
            if i == len(tails):
                tails.append(x)
            else:
                tails[i] = x
            seen[x & 1023] = seen.get(x & 1023, 0) + i
    return time.perf_counter() - t0


def timed(fn, *args, sample_inside: bool = True):
    """Call ``fn(*args)``; return (result, wall_s, speed).

    Speed is the mean of CAL_REF_S / sample over calibration samples taken
    before and after the call and, with ``sample_inside``, every
    SAMPLE_EVERY_S during it from a SIGALRM handler. wall_s leaves out the
    time spent in those handlers, so wall_s * speed is the call's time at
    reference speed. Traced calls skip inner samples to keep them out of
    the spans.
    """
    samples = [calibration_sample() for _ in range(EDGE_SAMPLES)]
    spent = 0.0

    def on_alarm(signum, frame):
        nonlocal spent
        t0 = time.perf_counter()
        samples.append(calibration_sample())
        spent += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, on_alarm)
    if sample_inside:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples += [calibration_sample() for _ in range(EDGE_SAMPLES)]
    return result, wall - spent, statistics.fmean(CAL_REF_S / c for c in samples)


def pin_to_one_cpu() -> None:
    """Keep a call and its calibration samples on the same CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_match(args) -> dict:
    from opmatch import cli, fragstring, matcher, signature

    argv = ["match", "--file", args.instance, "--json", "--threads", "1", "--dict-backend", BACKEND]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install({"cli": cli, "fragstring": fragstring, "matcher": matcher, "signature": signature})
    pin_to_one_cpu()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer:
            rc, wall, speed = timed(tracer.root, cli.main, argv, sample_inside=False)
        else:
            rc, wall, speed = timed(cli.main, argv)
    result = {
        "rc": rc,
        "output": out.getvalue(),
        "wall_s": wall,
        "speed": speed,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.aggregate()
        result["counts"] = dict(tracer.counts)
        tracer.dump(args.trace)
    return result


def run_setup(args) -> dict:
    from opmatch.instances import parse_instance
    from opmatch.matcher import PatternIndex

    with open(args.instance) as fh:
        inst = parse_instance(fh.read())

    def build_round() -> int:
        builds = 0
        start = time.perf_counter()
        while not builds or time.perf_counter() - start < ROUND_S:
            PatternIndex(inst.pattern, inst.mode, BACKEND)
            builds += 1
        return builds

    pin_to_one_cpu()
    rounds: list[dict] = []
    start = time.perf_counter()
    while len(rounds) < SETUP_ROUNDS or time.perf_counter() - start < SETUP_SECONDS:
        builds, wall, speed = timed(build_round)
        rounds.append({"build_s": wall / builds, "builds": builds, "speed": speed})
    return {"rounds": rounds}


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="what", required=True)
    p = sub.add_parser("match")
    p.add_argument("instance")
    p.add_argument("--trace", help="write spans here and report per-layer aggregates")
    p.set_defaults(func=run_match)
    p = sub.add_parser("setup")
    p.add_argument("instance")
    p.set_defaults(func=run_setup)
    args = parser.parse_args()
    print(json.dumps(args.func(args)))


if __name__ == "__main__":
    main()
