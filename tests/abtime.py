"""Alternating in-process timing of ``match_all`` between two ``src`` trees.

Run it from any directory; pytest does not collect this file::

    python tests/abtime.py PARENT_SRC CHANGE_SRC [--rounds N] [--json PATH] [NAME ...]

Each tree's ``opmatch`` is imported on its own, so both live in one
process. The NAMEs are shapes of ``tests/shapes.py`` (all of them when none
is named). Each shape is first run once on each side, and the two answers
and ``MatchStats`` must be equal; if they differ, the script says so and
exits 1. Then each round times one ``match_all`` call per side, and the
side that goes first alternates from round to round, so that a drift of the
host's speed falls on both sides alike.

Per shape it prints the median and the quartiles of each side's times, in
ms to three decimals so that a sub-millisecond shape shows its spread, the
ratio of the medians (change / parent), the rounds the change won, and,
from 3 rounds on, a verdict where the change's median exceeds the parent's
by more than the parent's quartile spread. The verdict mirrors the rule
for a claimed gain, the other way round: "slower" when the parent also won
at least nine tenths of the rounds, and "unresolved" when it did not, a gap
that the rounds do not confirm. It is not a timing gate: it exits 0
whatever the times. For steadier figures pin it to one CPU, as in
``taskset -c 0 python tests/abtime.py ...``. ``compare`` takes any named
instances, for shapes that the catalogue does not hold.

``--json PATH`` also writes the rows to a file: per shape, each side's
median and quartiles in ms, its ``MatchStats`` and a sha256 of its answer,
and the ratio, wins and verdict. The file's ``stamp`` records the Python
version, the CPU count (``nproc``, from ``os.cpu_count``), the CPU
affinity, the round count and a sha256 of each tree's ``src/opmatch``.
Committed runs are named ``BENCH_*.json`` at the repository root; a tier-1
test reads each one back.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Sequence

TESTS = Path(__file__).resolve().parent


def load_matcher(src: Path) -> ModuleType:
    """``opmatch.matcher`` imported afresh from the tree ``src``. The modules
    of any ``opmatch`` imported before leave ``sys.modules``, but stay
    alive in the functions that hold them."""
    for name in [n for n in sys.modules if n == "opmatch" or n.startswith("opmatch.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        matcher = importlib.import_module("opmatch.matcher")
    finally:
        sys.path.remove(str(src))
    if not Path(matcher.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"opmatch imports from {matcher.__file__}, not from {src}")
    return matcher


def _quartiles(times: list[float]) -> tuple[float, float, float]:
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, q2, q3


def tree_digest(src: Path) -> str:
    """sha256 over the path and the bytes of every ``.py`` file of the tree's
    ``opmatch`` package, in path order."""
    digest = hashlib.sha256()
    package = src / "opmatch"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def compare(parent: ModuleType, change: ModuleType, instances: dict, rounds: int) -> list[dict] | None:
    """Time ``match_all`` of two matcher modules on ``instances`` (name to
    ``Instance``), alternating; print a row per instance and return the
    rows, or None once the two disagree on some answer or ``MatchStats``."""
    sides = (parent, change)
    print(f"{'shape':26} {'parent ms [q1, q3]':>27} {'change ms [q1, q3]':>27} {'ratio':>6} {'wins':>6}")
    rows: list[dict] = []
    for name, inst in instances.items():
        args = (inst.text, inst.pattern, inst.k, inst.mode)
        results = []
        for side in sides:
            stats = side.MatchStats()
            results.append((side.match_all(*args, stats=stats), dataclasses.asdict(stats)))
        if results[0] != results[1]:
            print(f"{name}: the two trees disagree\n  parent: {results[0][1]}\n  change: {results[1][1]}")
            return None
        times: tuple[list[float], list[float]] = ([], [])
        for r in range(rounds):
            for s in (0, 1) if r % 2 == 0 else (1, 0):
                t0 = time.perf_counter()
                sides[s].match_all(*args)
                times[s].append(time.perf_counter() - t0)
        quartiles = [_quartiles(t) for t in times]
        (p1, p2, p3), (c1, c2, c3) = quartiles
        wins = sum(c < p for p, c in zip(*times))
        verdict = ""
        if rounds >= 3 and c2 - p2 > p3 - p1:
            lost = sum(p < c for p, c in zip(*times))
            verdict = "slower" if 10 * lost >= 9 * rounds else "unresolved"
        print(
            f"{name:26} {p2 * 1e3:8.3f} [{p1 * 1e3:7.3f}, {p3 * 1e3:7.3f}] "
            f"{c2 * 1e3:8.3f} [{c1 * 1e3:7.3f}, {c3 * 1e3:7.3f}] {c2 / p2:6.2f} {wins:3}/{rounds}  {verdict}".rstrip()
        )
        row: dict = {"shape": name, "ratio": c2 / p2, "wins": wins, "verdict": verdict}
        for side, (q1, q2, q3), (answer, stats) in zip(("parent", "change"), quartiles, results):
            row[side] = {
                "median_ms": q2 * 1e3,
                "q1_ms": q1 * 1e3,
                "q3_ms": q3 * 1e3,
                "stats": stats,
                "answer_sha256": hashlib.sha256(json.dumps(answer).encode()).hexdigest(),
            }
        rows.append(row)
    return rows


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the src directory of the parent tree")
    parser.add_argument("change", type=Path, help="the src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=11, help="timed calls per side and shape")
    parser.add_argument("--json", type=Path, help="also write the rows and a stamp to this file")
    parser.add_argument("names", nargs="*", help="catalogue shapes (default: all)")
    args = parser.parse_intermixed_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent = load_matcher(args.parent)
    sys.path.insert(0, str(TESTS))
    from shapes import SHAPES  # imports the parent tree's opmatch, now loaded

    unknown = [name for name in args.names if name not in SHAPES]
    if unknown:
        parser.error(f"unknown shapes {unknown}; the catalogue holds {', '.join(SHAPES)}")
    instances = {name: SHAPES[name].build() for name in args.names or SHAPES}
    change = load_matcher(args.change)
    rows = compare(parent, change, instances, args.rounds)
    if rows is None:
        return 1
    if args.json:
        stamp = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "rounds": args.rounds,
            "parent_sha256": tree_digest(args.parent),
            "change_sha256": tree_digest(args.change),
        }
        args.json.write_text(json.dumps({"stamp": stamp, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
