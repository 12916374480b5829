"""Command-line interface.

Subcommands: match (find occurrences), verify (single alignment with
witness), signature (dump a sequence's signature), gen (random instances),
bench (fast vs naive timing grid), selftest (randomized suites).

Exit codes follow conventional search tools: 0 found / yes, 1 not found /
no, 2 on malformed input. Sequences are whitespace/comma-separated signed
decimal integers given inline, in an instance file, or on standard input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass

from .instances import _parse_int, generate_instance, parse_instance, parse_int_list
from .matcher import (
    MatchStats,
    k_isomorphic_witness,
    match_all,
    match_naive,
)
from .selftest import run_suites
from .seqcore import MODES
from .signature import compute_signature, format_symbol


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--text", help="text sequence (integers)")
    p.add_argument("--pattern", help="pattern sequence (integers)")
    p.add_argument("--file", help="instance file; '-' reads standard input")
    p.add_argument("--k", type=_parse_int, default=None, help="mismatch budget")
    p.add_argument("--mode", choices=MODES, default=None)


def _load_sequences(args) -> tuple[list[int], list[int], int, str]:
    """Combine --file (or stdin) with inline flags; flags win."""
    text = pattern = None
    k = mode = None
    if args.file:
        if args.file == "-":
            raw = sys.stdin.read()
        else:
            with open(args.file) as fh:
                raw = fh.read()
        inst = parse_instance(raw)
        text, pattern, k, mode = inst.text, inst.pattern, inst.k, inst.mode
    if args.text is not None:
        text = parse_int_list(args.text)
    if args.pattern is not None:
        pattern = parse_int_list(args.pattern)
    if args.k is not None:
        k = args.k
    if args.mode is not None:
        mode = args.mode
    if text is None or pattern is None:
        raise ValueError("need a text and a pattern (flags, --file, or stdin)")
    return text, pattern, k if k is not None else 0, mode or "auto"


def cmd_match(args) -> int:
    if args.threads < 1:
        raise ValueError("threads must be at least 1")
    text, pattern, k, mode = _load_sequences(args)
    if args.algorithm == "naive":
        occurrences = match_naive(text, pattern, k, mode)
    else:
        occurrences = match_all(text, pattern, k, mode)
    if args.json:
        print(json.dumps(occurrences))
    else:
        for pos in occurrences:
            print(pos)
    return 0 if occurrences else 1


def cmd_verify(args) -> int:
    text, pattern, k, mode = _load_sequences(args)
    window = text
    if args.at is not None:
        if not (1 <= args.at <= len(text) - len(pattern) + 1):
            raise ValueError(f"--at {args.at} out of range")
        window = text[args.at - 1 : args.at - 1 + len(pattern)]
    if len(window) != len(pattern):
        raise ValueError("window and pattern lengths differ (use --at to select a window)")
    witness = k_isomorphic_witness(window, pattern, k, mode)
    if args.json:
        print(json.dumps({"match": witness is not None, "witness": witness or []}))
    else:
        print("yes" if witness is not None else "no")
        if witness is not None:
            print(" ".join(map(str, witness)))
    return 0 if witness is not None else 1


def cmd_signature(args) -> int:
    seq = parse_int_list(args.seq if args.seq is not None else sys.stdin.read())
    rendered = [format_symbol(p) for p in compute_signature(seq, args.mode)]
    print(json.dumps(rendered) if args.json else " ".join(rendered))
    return 0


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    inst = generate_instance(rng, args.n, args.m, args.k, args.mode, args.plant)
    out = inst.to_text()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


@dataclass
class _BenchRow:
    n: int
    m: int
    k: int
    algo: str
    seconds: float
    pruning: float | None
    occurrences: int
    estimated: bool


def cmd_bench(args) -> int:
    if args.naive_cap < 1:
        raise ValueError("--naive-cap must be at least 1")
    algorithms = [name.strip() for name in args.algorithms.split(",")]
    unknown = [name for name in algorithms if name not in ("fast", "naive")]
    if unknown:
        raise ValueError(f"unknown --algorithms {', '.join(map(repr, unknown))}; use fast and naive")
    rng = random.Random(args.seed)
    rows: list[_BenchRow] = []
    for n in parse_int_list(args.n_grid):
        for m in parse_int_list(args.m_grid):
            if m > n:
                continue
            for k in parse_int_list(args.k_grid):
                inst = generate_instance(rng, n, m, k, args.mode)
                stats = MatchStats()
                t0 = time.perf_counter()
                occ = match_all(inst.text, inst.pattern, k, inst.mode, stats=stats)
                fast = time.perf_counter() - t0
                rows.append(_BenchRow(n, m, k, "fast", fast, stats.pruning_rate, len(occ), False))
                if "naive" in algorithms:
                    windows = n - m + 1
                    cap = min(windows, args.naive_cap)
                    sub = inst.text[: cap + m - 1]
                    t0 = time.perf_counter()
                    match_naive(sub, inst.pattern, k, inst.mode)
                    naive = time.perf_counter() - t0
                    estimated = cap < windows
                    if estimated:
                        naive *= windows / cap
                    rows.append(_BenchRow(n, m, k, "naive", naive, None, len(occ), estimated))
    if args.csv:
        print("n,m,k,algo,seconds,pruning_rate,occurrences,estimated")
        for r in rows:
            pruning = "" if r.pruning is None else f"{r.pruning:.4f}"
            print(f"{r.n},{r.m},{r.k},{r.algo},{r.seconds:.6f},{pruning},{r.occurrences},{int(r.estimated)}")
    else:
        header = f"{'n':>9} {'m':>6} {'k':>3} {'algo':>6} {'seconds':>12} {'pruned':>8} {'occ':>6}"
        print(header)
        print("-" * len(header))
        for r in rows:
            pruning = "-" if r.pruning is None else f"{r.pruning:7.1%}"
            star = "*" if r.estimated else " "
            print(
                f"{r.n:>9} {r.m:>6} {r.k:>3} {r.algo:>6} {r.seconds:>11.4f}{star} {pruning:>8} {r.occurrences:>6}"
            )
        if any(r.estimated for r in rows):
            print("* extrapolated from a prefix of the text")
    return 0


def cmd_selftest(args) -> int:
    failures = run_suites(args.iterations, args.seed)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmatch",
        description="Order-preserving pattern matching with up to k mismatches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="report all occurrence positions")
    _add_io_flags(p)
    p.add_argument("--algorithm", choices=("fast", "naive"), default="fast")
    p.add_argument("--json", action="store_true")
    # parsed for existing callers, but they select nothing: the chunks run
    # one after another, and the fragment starts are always a bit trie
    p.add_argument("--threads", type=_parse_int, default=1,
                   help="must be at least 1; selects nothing (chunks run sequentially)")
    p.add_argument("--dict-backend", choices=("bittrie", "sorted"), default=None,
                   help="selects nothing (the fragment starts are always a bit trie)")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("verify", help="check one alignment and print a witness")
    _add_io_flags(p)
    p.add_argument("--at", type=_parse_int, default=None, help="1-based window start in the text")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("signature", help="print a sequence's signature")
    p.add_argument("--seq", help="sequence (integers); defaults to standard input")
    p.add_argument("--mode", choices=MODES, default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--m", type=_parse_int, required=True)
    p.add_argument("--k", type=_parse_int, default=0)
    # instances are drawn in one of the two concrete modes, never "auto"
    p.add_argument("--mode", choices=MODES[:2], default="distinct")
    p.add_argument("--seed", type=_parse_int, default=0)
    p.add_argument("--plant", type=_parse_int, default=0, help="number of planted occurrences")
    p.add_argument("--output", "-o", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time fast vs naive over a size grid")
    p.add_argument("--n-grid", default="20000,40000")
    p.add_argument("--m-grid", default="200")
    p.add_argument("--k-grid", default="2")
    p.add_argument("--mode", choices=MODES[:2], default="distinct")
    p.add_argument("--algorithms", default="fast,naive",
                   help="comma-separated, from fast and naive; fast always runs, "
                        "because the naive rows report its occurrence count")
    p.add_argument("--seed", type=_parse_int, default=0)
    p.add_argument("--naive-cap", type=_parse_int, default=5000,
                   help="max windows to time naively before extrapolating")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="run the randomized oracle suites")
    p.add_argument("--iterations", type=_parse_int, default=200)
    p.add_argument("--seed", type=_parse_int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
