"""Randomized oracle-equivalence and invariant suites.

Each suite runs a number of seeded random cases and returns its first
counterexample, as a description, or ``None`` when every case
passed. ``SUITES`` lists them in the order ``run_suites`` runs them; the
CLI `selftest` command calls ``run_suites``, and the test suite reuses the
suites with larger iteration counts.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable

from .fragstring import DynString, RefString
from .instances import Instance, _order_copy
from .matcher import (
    PatternIndex,
    k_isomorphic_check,
    k_isomorphic_subset_oracle,
    match_all,
    verify_window,
)
from .seqcore import BitTrieSet, _validate_k
from .signature import SlidingSignature, compute_signature, signature_hamming
from .subsequence import (
    WeightedPoint,
    WeightedSeqItem,
    chain_bruteforce,
    heaviest_chain,
    heaviest_increasing_subsequence,
    his_bruteforce,
)

__all__ = ["SUITES", "first_window_sliding", "run_suites"]


def _random_pair(rng: random.Random, mode: str, m: int) -> tuple[list[int], list[int]]:
    if mode == "distinct":
        a = rng.sample(range(10 * m), m)
        b = rng.sample(range(10 * m), m)
    else:
        sigma = rng.randint(2, 6)
        a = [rng.randrange(sigma) for _ in range(m)]
        b = [rng.randrange(sigma) for _ in range(m)]
    return a, b


def _perturbed_pair(rng: random.Random, mode: str, m: int, k: int) -> tuple[list[int], list[int]]:
    """(a, b) guaranteed k-isomorphic: b is an order/equality copy of a with
    at most k positions replaced."""
    a, _ = _random_pair(rng, mode, m)
    return a, _perturbed_copy(rng, mode, a, k)


def _perturbed_copy(rng: random.Random, mode: str, a: list[int], k: int) -> list[int]:
    """An order/equality copy of ``a`` with at most k positions replaced, its
    values drawn from [0, 90 len(a))."""
    m = len(a)
    if mode == "distinct":
        b = _order_copy(a, sorted(rng.sample(range(10 * m, 30 * m), m)))
    else:
        b = _order_copy(a, range(0, 3 * m, 3))
    for j in rng.sample(range(m), min(k, m)):
        if mode == "distinct":
            b[j] = rng.randrange(50 * m, 90 * m)
        else:
            b[j] = rng.randrange(3 * m + 3)
    if mode == "distinct" and len(set(b)) != m:
        return _perturbed_copy(rng, mode, a, k)  # rare collision; redraw
    return b


def suite_key_set(rng: random.Random, iterations: int) -> str | None:
    """The bit trie answers like a plain set under random interleaved adds
    and discards, each followed by a predecessor query at its key."""
    universe = 512
    d = BitTrieSet(universe)
    ref: set[int] = set()
    for _ in range(iterations):
        x = rng.randrange(universe)
        if rng.random() < 0.6:
            op, got, want = "add", d.add(x), x not in ref
            ref.add(x)
        else:
            op, got, want = "discard", d.discard(x), x in ref
            ref.discard(x)
        below = max((key for key in ref if key <= x), default=None)
        if got != want or d.pred(x) != below or len(d) != len(ref):
            return (
                f"{op}({x}) returned {got}, expected {want}; then pred({x}) = {d.pred(x)}, "
                f"expected {below}; size {len(d)}, expected {len(ref)}"
            )
    return None


def suite_subsequence(rng: random.Random, iterations: int) -> str | None:
    """Solver outputs equal exponential brute force; witnesses re-verify."""
    for _ in range(iterations):
        ell = rng.randint(0, 12)
        items = [
            WeightedSeqItem(rng.randint(0, 8), rng.randint(1, 9)) for _ in range(ell)
        ]
        want = his_bruteforce(items)
        got, witness = heaviest_increasing_subsequence(items)
        if got != want:
            return f"his: {items} -> {got}, brute force {want}"
        vals = [items[i - 1].value for i in witness]
        if any(x >= y for x, y in zip(vals, vals[1:])) or sum(
            items[i - 1].weight for i in witness
        ) != got:
            return f"his witness invalid for {items}"
        pts = [
            WeightedPoint(rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 9))
            for _ in range(ell)
        ]
        want = chain_bruteforce(pts)
        got, chosen = heaviest_chain(pts)
        if got != want:
            return f"chain: {pts} -> {got}, brute force {want}"
        shuffled = list(pts)
        rng.shuffle(shuffled)
        if heaviest_chain(shuffled)[0] != got:
            return f"chain not permutation-invariant on {pts}"
        if sum(p.weight for p in chosen) != got or chain_bruteforce(chosen) != got:
            return f"chain witness invalid for {pts}"
    return None


def first_window_sliding(chunk: list[int], m: int, mode: str) -> SlidingSignature:
    """A sliding signature over ``chunk`` whose reference is the chunk's own
    first window, ``PatternIndex(chunk[:m], mode)``. Its callers read only
    its windows, never a scan, so its scan cap is 0."""
    return SlidingSignature(chunk, PatternIndex(chunk[:m], mode), 0)


def suite_sliding(rng: random.Random, iterations: int) -> str | None:
    """After every advance, the window view of the maintained signature
    equals a from-scratch recomputation, in both modes."""
    for _ in range(iterations):
        mode = "distinct" if rng.random() < 0.5 else "general"
        m = rng.randint(1, 16)
        length = rng.randint(m, 2 * m)
        if mode == "distinct":
            chunk = rng.sample(range(100), length)
        else:
            chunk = [rng.randrange(max(2, m // 2 + 1)) for _ in range(length)]
        sliding = first_window_sliding(chunk, m, mode)
        for i in range(1, length - m + 2):
            want = compute_signature(chunk[i - 1 : i - 1 + m], mode)
            got = sliding.window_view()
            if got != want:
                return f"sliding {mode} m={m} chunk={chunk} window {i}"
            if i + m <= length:
                sliding.advance()
    return None


def suite_dynstring(rng: random.Random, iterations: int) -> str | None:
    """Mismatch streams and symbol lists agree with a shadow array under
    random replace/stream sequences."""
    for _ in range(iterations):
        m = rng.randint(1, 24)
        alphabet = rng.randint(1, 6)
        ref_syms = [rng.randrange(alphabet) for _ in range(m)]
        ref = RefString(ref_syms)
        shadow = [rng.randrange(alphabet + 1) for _ in range(2 * m)]
        dyn = DynString(ref, shadow)
        shadow = list(shadow)
        for _ in range(rng.randint(1, 30)):
            if rng.random() < 0.5:
                x = rng.randint(1, 2 * m)
                c = rng.randrange(alphabet + 1)
                dyn.replace(x, c)
                shadow[x - 1] = c
            else:
                i = rng.randint(1, m + 1)
                limit = rng.randint(0, 8)
                got = dyn.first_mismatches(i, limit)
                naive = [
                    p
                    for p in range(1, m + 1)
                    if shadow[i + p - 2] != ref_syms[p - 1]
                ]
                want = naive[: limit + 1]
                truncated = len(naive) > limit
                if got.positions != want or got.truncated != truncated:
                    return (
                        f"stream ref={ref_syms} shadow={shadow} i={i} limit={limit}: "
                        f"{got.positions}/{got.truncated} vs {want}/{truncated}"
                    )
                if dyn.symbols != shadow:
                    return f"symbols diverged from shadow after stream at {i}"
            dyn.check_tiling()
    return None


def suite_filter_soundness(rng: random.Random, iterations: int) -> str | None:
    """Constructed k-isomorphic pairs never exceed signature Hamming 3k."""
    for _ in range(iterations):
        mode = "distinct" if rng.random() < 0.5 else "general"
        m = rng.randint(2, 24)
        k = rng.randint(0, 4)
        a, b = _perturbed_pair(rng, mode, m, k)
        dist = len(
            signature_hamming(compute_signature(a, mode), compute_signature(b, mode)).positions
        )
        if dist > 3 * k:
            return f"{mode}: H(S(a),S(b))={dist} > 3k={3 * k} for a={a} b={b}"
    return None


def suite_reductions(rng: random.Random, iterations: int) -> str | None:
    """Signature-mismatch reductions decide exactly like the subset oracle."""
    for _ in range(iterations):
        mode = "distinct" if rng.random() < 0.5 else "general"
        m = rng.randint(1, 12)
        k = rng.randint(0, 3)
        if rng.random() < 0.5:
            a, b = _perturbed_pair(rng, mode, m, min(k, m))
        else:
            a, b = _random_pair(rng, mode, m)
        pidx = PatternIndex(b, mode)
        ds = signature_hamming(compute_signature(a, mode), pidx.ref.symbols).positions
        want = k_isomorphic_subset_oracle(a, b, k)
        if len(ds) > 3 * k:
            if want:
                return f"{mode}: oracle accepts but filter rejects a={a} b={b} k={k}"
            continue
        got = verify_window(a, pidx, ds, k)
        if got != want:
            return f"{mode}: verify={got} oracle={want} a={a} b={b} k={k}"
        if k_isomorphic_check(a, b, k, mode) != want:
            return f"{mode}: direct check disagrees with oracle a={a} b={b} k={k}"
    return None


def suite_match_oracle(rng: random.Random, iterations: int) -> str | None:
    """match_all equals per-position oracles on small instances: random
    text, random text with perturbed copies of the pattern planted, sorted
    text against a perturbed sorted pattern, and a zero background with
    sparse values in 1..3 (general mode, k = 1, m >= 10) holding perturbed
    copies, so that the prefilter skips chunks, decides candidate windows
    alone and passes whole chunks to the comparison-code filter and to the
    sliding path."""
    for _ in range(iterations):
        mode = "distinct" if rng.random() < 0.5 else "general"
        m = rng.randint(1, 14)  # up to the subset oracle's cap
        n = rng.randint(m, 60)
        k = rng.randint(0, 3)
        if mode == "distinct":
            text = rng.sample(range(10 * n), n)
            pattern = rng.sample(range(10 * n), m)
        else:
            sigma = rng.randint(3, 6)
            text = [rng.randrange(sigma) for _ in range(n)]
            pattern = [rng.randrange(sigma) for _ in range(m)]
        shape = rng.choice(("random", "planted", "monotone", "zero"))
        if shape == "zero":
            # zero blocks occur almost everywhere, and the pattern's two or
            # three nonzero values keep most windows more than 2k codes away
            mode, k, m = "general", 1, rng.randint(10, 14)
            n = rng.randint(3 * m, 60)
            text = [rng.randint(1, 3) if rng.random() < 0.1 else 0 for _ in range(n)]
            pattern = [0] * m
            for j in rng.sample(range(m), rng.randint(2, 3)):
                pattern[j] = rng.randint(1, 3)
            for _ in range(rng.randint(1, 3)):
                s = rng.randrange(n - m + 1)
                text[s : s + m] = _perturbed_copy(rng, mode, pattern, k)
        elif shape == "planted":
            # each copy's values lie above the text's and the other copies'
            for t in range(1, rng.randint(1, 3) + 1):
                s = rng.randrange(n - m + 1)
                text[s : s + m] = [100 * n * t + v for v in _perturbed_copy(rng, mode, pattern, k)]
        elif shape == "monotone":
            descending = rng.random() < 0.5
            text.sort(reverse=descending)
            pattern = _perturbed_copy(rng, mode, sorted(pattern, reverse=descending), k)
        got = match_all(text, pattern, k, mode)
        want = [
            i + 1
            for i in range(n - m + 1)
            if k_isomorphic_subset_oracle(text[i : i + m], pattern, k)
        ]
        if got != want:
            inst = Instance(text=text, pattern=pattern, k=k, mode=mode)
            return f"match_all {got} != oracle {want} on:\n{inst.to_text()}"
    return None


SUITES: tuple[tuple[str, Callable[[random.Random, int], str | None]], ...] = (
    ("key-set", suite_key_set),
    ("subsequence-solvers", suite_subsequence),
    ("sliding-signature", suite_sliding),
    ("dynstring-stream", suite_dynstring),
    ("filter-soundness", suite_filter_soundness),
    ("mismatch-reductions", suite_reductions),
    ("match-vs-oracle", suite_match_oracle),
)


def run_suites(
    iterations: int, seed: int, report: Callable[[str], None] = print
) -> int:
    """Run every suite of ``SUITES`` and return the number that failed. Each
    reports one line, and a failed one a second, indented, with its
    counterexample; a suite that raises fails with the exception's type and
    message as its counterexample, and the next suite runs. ``iterations``
    is a count: one that is not an int raises TypeError, a negative one
    ValueError; 0 skips every suite."""
    _validate_k(iterations, "iterations")
    failures = 0
    for name, suite in SUITES:
        if iterations == 0:
            report(f"{name}: SKIPPED (0 iterations)")
            continue
        # zlib.crc32 is stable across processes, unlike hash() of a str
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        try:
            bad = suite(rng, iterations)
        except Exception as exc:
            bad = f"{type(exc).__name__}: {exc}"
        if bad is None:
            report(f"{name}: OK ({iterations} cases)")
        else:
            failures += 1
            report(f"{name}: FAIL (1 violation)")
            report("  " + bad)
    return failures
