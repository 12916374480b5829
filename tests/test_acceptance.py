"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 2-4 feed the
filter-soundness ledger that criterion 5 inspects, so the module is meant
to run as a whole (criterion 5 passes vacuously when run alone).
"""

import random
import statistics
import time

from opmatch import matcher
from opmatch.cli import main as cli_main
from opmatch.fragstring import RefString
from opmatch.matcher import (
    MatchStats,
    k_isomorphic_check,
    k_isomorphic_subset_oracle,
    match_all,
    match_naive,
)
from opmatch.selftest import run_suites
from opmatch.signature import compute_signature, signature_hamming
from opmatch.subsequence import (
    WeightedPoint,
    WeightedSeqItem,
    chain_bruteforce,
    heaviest_chain,
    heaviest_increasing_subsequence,
    his_bruteforce,
)

SEQ_A = [11, 4, 12, 1, 9, 3, 10, 7, 2, 5, 13, 0, 6, 8]
SEQ_B = [10, 1, 11, 2, 9, 4, 12, 7, 3, 5, 13, 0, 6, 8]
OFFS_A = [6, 4, -2, 8, 9, 3, -2, 5, -5, -8, -8, 0, -3, -6]
OFFS_B = [4, 10, -2, -2, 9, 3, -4, 5, -5, -4, -4, 0, -3, -6]

# (criterion, text, pattern, k, mode, window_start) of any accepted window
# whose signature distance exceeded 3k; criteria 2-4 append, 5 asserts.
_SOUNDNESS_VIOLATIONS: list[tuple] = []
_SOUNDNESS_CHECKED = [0]


def _record_soundness(criterion, text, pattern, k, mode, accepted):
    sp = compute_signature(pattern, mode)
    m = len(pattern)
    for start in accepted:
        window = text[start - 1 : start - 1 + m]
        dist = len(signature_hamming(compute_signature(window, mode), sp).positions)
        _SOUNDNESS_CHECKED[0] += 1
        if dist > 3 * k:
            _SOUNDNESS_VIOLATIONS.append((criterion, text, pattern, k, mode, start))


def test_criterion_1_golden_examples():
    assert match_all([1, 10, 6, 4, 8, 5, 7, 9, 3], [1, 4, 2, 5, 11], 1) == [4]
    sig_a = compute_signature(SEQ_A, "distinct")
    sig_b = compute_signature(SEQ_B, "distinct")
    assert [p >> 2 for p in sig_a] == OFFS_A
    assert [p >> 2 for p in sig_b] == OFFS_B
    assert len(signature_hamming(sig_a, sig_b).positions) == 6
    assert k_isomorphic_check(SEQ_A, SEQ_B, 2) is True
    assert k_isomorphic_check(SEQ_A, SEQ_B, 1) is False
    assert k_isomorphic_subset_oracle(SEQ_A, SEQ_B, 1) is False
    print("criterion 1 (golden examples): PASS")


def test_criterion_2_oracle_equivalence_distinct():
    rng = random.Random(0xC2)
    instances = 10_000
    for _ in range(instances):
        m = rng.randint(2, 12)
        n = rng.randint(m, 60)
        k = rng.randint(0, 4)
        text = rng.sample(range(-5 * n, 5 * n), n)
        pattern = rng.sample(range(-5 * n, 5 * n), m)
        got = match_all(text, pattern, k, "distinct")
        want = [
            i + 1
            for i in range(n - m + 1)
            if k_isomorphic_subset_oracle(text[i : i + m], pattern, k)
        ]
        assert got == want, (text, pattern, k)
        _record_soundness(2, text, pattern, k, "distinct", want)
    print(f"criterion 2 (distinct oracle equivalence, {instances} instances): PASS")


def test_criterion_3_oracle_equivalence_general():
    rng = random.Random(0xC3)
    instances = 10_000
    for _ in range(instances):
        m = rng.randint(2, 12)
        n = rng.randint(m, 60)
        k = rng.randint(0, 4)
        sigma = rng.randint(3, 6)
        text = [rng.randrange(sigma) for _ in range(n)]
        pattern = [rng.randrange(sigma) for _ in range(m)]
        got = match_all(text, pattern, k, "general")
        want = [
            i + 1
            for i in range(n - m + 1)
            if k_isomorphic_subset_oracle(text[i : i + m], pattern, k)
        ]
        assert got == want, (text, pattern, k)
        _record_soundness(3, text, pattern, k, "general", want)
    print(f"criterion 3 (general oracle equivalence, {instances} instances): PASS")


def test_criterion_4_midscale_crosscheck():
    rng = random.Random(0xC4)
    instances = 1_000
    for _ in range(instances):
        m = rng.randint(20, 100)
        n = rng.randint(m, 400)
        k = rng.randint(0, 6)
        if rng.random() < 0.5:
            mode = "distinct"
            text = rng.sample(range(20 * n), n)
            pattern = rng.sample(range(20 * n), m)
        else:
            mode = "general"
            sigma = rng.randint(3, max(4, m // 2))
            text = [rng.randrange(sigma) for _ in range(n)]
            pattern = [rng.randrange(sigma) for _ in range(m)]
        got = match_all(text, pattern, k, mode)
        want = [
            i + 1
            for i in range(n - m + 1)
            if k_isomorphic_check(text[i : i + m], pattern, k, mode)
        ]
        assert got == want, (text, pattern, k, mode)
        _record_soundness(4, text, pattern, k, mode, want)
    print(f"criterion 4 (mid-scale cross-check, {instances} instances): PASS")


def test_criterion_5_filter_soundness():
    assert not _SOUNDNESS_VIOLATIONS, _SOUNDNESS_VIOLATIONS[:3]
    print(
        "criterion 5 (signature distance <= 3k on "
        f"{_SOUNDNESS_CHECKED[0]} accepted windows): PASS"
    )


def test_criterion_6_structure_suites():
    rng = random.Random(0xC6)
    cases = 10_000

    for _ in range(cases):
        ell = min(rng.randint(0, 12), rng.randint(0, 12))
        items = [
            WeightedSeqItem(rng.randint(0, 8), rng.randint(1, 9)) for _ in range(ell)
        ]
        assert heaviest_increasing_subsequence(items)[0] == his_bruteforce(items)
        pts = [
            WeightedPoint(rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 9))
            for _ in range(ell)
        ]
        assert heaviest_chain(pts)[0] == chain_bruteforce(pts)

    from opmatch.fragstring import DynString, RefString

    for _ in range(cases):
        m = rng.randint(1, 24)
        alphabet = rng.randint(1, 5)
        syms = [rng.randrange(alphabet) for _ in range(m)]
        ref = RefString(syms)
        shadow = [rng.randrange(alphabet + 1) for _ in range(2 * m)]
        dyn = DynString(ref, list(shadow))
        for _ in range(8):
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
                    p for p in range(1, m + 1) if shadow[i + p - 2] != syms[p - 1]
                ]
                assert got.positions == naive[: limit + 1]
                assert got.truncated == (len(naive) > limit)
        assert dyn.symbols == shadow

    from opmatch.selftest import first_window_sliding

    for case in range(cases):
        mode = "distinct" if case % 2 == 0 else "general"
        m = min(rng.randint(1, 64), rng.randint(1, 64))
        length = rng.randint(m, 2 * m)
        if mode == "distinct":
            chunk = rng.sample(range(10 * length + 10), length)
        else:
            chunk = [rng.randint(0, max(1, m // 2)) for _ in range(length)]
        sliding = first_window_sliding(chunk, m, mode)
        for i in range(1, length - m + 2):
            assert (
                sliding.window_view()
                == compute_signature(chunk[i - 1 : i - 1 + m], mode)
            ), (mode, m, chunk, i)
            if i + m <= length:
                sliding.advance()

    print(f"criterion 6 (structure suites, 3 x {cases} cases): PASS")


def test_criterion_7_scaling_smoke():
    rng = random.Random(0xC7)
    m, k = 1000, 2

    def zigzag(length):
        # distinct values, x * (length + 1) + i, whose steps alternate up and
        # down by a random size: every other window start has the pattern's
        # up/down comparisons, so the prefilter passes every chunk, and the
        # comparison-code filter finds more than 7 windows within 2k in the
        # first few starts of each chunk, so every chunk takes the sliding
        # path and its signature filter has to prune the windows
        out = []
        x = 0
        for i in range(length):
            x += rng.randint(1, 1000) * (1 if i % 2 else -1)
            out.append(x * (length + 1) + i)
        return out

    pattern = zigzag(m)
    text = zigzag(4 * 10**5)
    stats = MatchStats()

    def median_time(seq):
        # the median of 3 calls, so that one host stall does not set a side
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            match_all(seq, pattern, k, "distinct", stats=stats)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    t_small = median_time(text[: 2 * 10**5])
    t_large = median_time(text)
    ratio = t_large / t_small
    # the run took the sliding path: the prefilter and the code filter,
    # both counted in prefiltered, ruled out almost nothing
    assert stats.prefiltered < 0.01 * stats.windows, (stats.prefiltered, stats.windows)

    naive_windows = 2_000
    t0 = time.perf_counter()
    match_naive(text[: naive_windows + m - 1], pattern, k, "distinct")
    t_naive = time.perf_counter() - t0
    naive_full = t_naive / naive_windows * (4 * 10**5 - m + 1)
    speedup = naive_full / t_large

    assert ratio <= 3.0, f"doubling n scaled wall time by {ratio:.2f}"
    assert speedup >= 10.0, f"fast path only {speedup:.1f}x over naive"
    print(
        f"criterion 7 (scaling smoke: doubling ratio {ratio:.2f} <= 3.0, "
        f"fast {speedup:.0f}x naive >= 10x): PASS"
    )


def test_per_window_cost_is_flat_in_m(monkeypatch):
    # the paper's O(n(log log m + k log log k)) bound: per window, the filter
    # costs O(k + log log m), almost nothing in m. Monotone text with 12
    # adjacent swaps against a monotone pattern with one swap in the middle
    # sends every window to the DynString, which crosses each matched
    # stretch with one LCP query
    k = 2
    lcp_calls = [0]
    lcp = RefString.lcp

    def counted(ref, i, j):
        lcp_calls[0] += 1
        return lcp(ref, i, j)

    def instance(m):
        rng = random.Random(13)
        text = list(range(12_000 + m - 1))
        for j in rng.sample(range(len(text) - 1), 12):
            text[j], text[j + 1] = text[j + 1], text[j]
        pattern = list(range(m))
        pattern[m // 2], pattern[m // 2 + 1] = pattern[m // 2 + 1], pattern[m // 2]
        return text, pattern

    for m in (1_000, 4_000, 16_000):
        text, pattern = instance(m)
        stats = MatchStats()
        lcp_calls[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(RefString, "lcp", counted)
            match_all(text, pattern, k, "distinct", stats=stats)
        assert stats.dyn_scans == stats.windows == 12_000, (m, stats)
        # 6.6, 7.2 and 3.9 queries per scan here; a scan that makes none
        # walks its window symbol by symbol
        per_scan = lcp_calls[0] / stats.dyn_scans
        assert 1 <= per_scan <= 4 * (k + 1), f"m = {m}: {per_scan:.1f} LCP queries per scan"

    # both sides have 12 000 windows, so their time ratio is the ratio per
    # window; the median of 3 calls a side, the sides alternating, so that
    # one host stall does not set a side
    sides = {m: (instance(m), []) for m in (1_000, 16_000)}
    for _ in range(3):
        for (text, pattern), times in sides.values():
            t0 = time.perf_counter()
            match_all(text, pattern, k, "distinct")
            times.append(time.perf_counter() - t0)
    ratio = statistics.median(sides[16_000][1]) / statistics.median(sides[1_000][1])
    assert ratio <= 2.0, f"time per window grew {ratio:.2f}x from m = 1 000 to 16 000"
    print(f"per-window cost flat in m (m = 16 000 vs 1 000: {ratio:.2f}x <= 2x): PASS")


def test_per_window_cost_is_flat_in_m_where_every_window_verifies():
    # the paper's O(k log log k) bound per verification: a window that
    # passes the filter costs the same to verify at any m. Monotone text
    # against a monotone pattern matches at every start, distinct mode at
    # k = 0 and general mode at k = 2. Every start passes the prefilter and
    # the comparison-code filter, so every chunk takes the sliding path and
    # every window reaches verification. A verification that copies its
    # window costs O(m) a window and read 3-4x here.
    windows = 12_000
    for mode, k in (("distinct", 0), ("general", 2)):
        # both sides have 12 000 windows, so their time ratio is the ratio
        # per window; the median of 3 calls a side, the sides alternating
        sides = {m: (list(range(windows + m - 1)), list(range(m)), []) for m in (1_000, 16_000)}
        for m, (text, pattern, _) in sides.items():
            stats = MatchStats()
            assert len(match_all(text, pattern, k, mode, stats=stats)) == windows, (mode, m)
            assert stats.verified == stats.windows == windows, (mode, m, stats)
        for _ in range(3):
            for text, pattern, times in sides.values():
                t0 = time.perf_counter()
                match_all(text, pattern, k, mode)
                times.append(time.perf_counter() - t0)
        ratio = statistics.median(sides[16_000][2]) / statistics.median(sides[1_000][2])
        assert ratio <= 2.0, f"{mode}: time per verified window grew {ratio:.2f}x from m = 1 000 to 16 000"
        print(f"{mode}: per-verified-window cost flat in m (m = 16 000 vs 1 000: {ratio:.2f}x <= 2x): PASS")


def test_filter_and_verification_bounds_in_k(monkeypatch):
    # the paper's bounds in k: a DynString scan makes O(k) LCP queries, and a
    # verification reduces a window to at most 3k + 1 items (distinct) or
    # 3(3k + 1) points (general). An increasing text with one adjacent swap
    # every 2m / (2k + 1) positions against an increasing pattern, m = 400:
    # a swap costs a window 3 signature mismatches and one deleted value, so
    # the windows holding at most k swaps match and reach verification, about
    # half of them, and those holding k + 1 are filtered out. The direct
    # span, 8(3k + 1) symbols, never holds more than 3k mismatches, so every
    # window reaches the DynString.
    m = 400
    lcp_calls = [0]
    sizes = []
    lcp = RefString.lcp

    def counted(ref, i, j):
        lcp_calls[0] += 1
        return lcp(ref, i, j)

    def measured(reduce):
        def reduced(*args):
            out = reduce(*args)
            sizes.append(len(out))
            return out

        return reduced

    for k in (1, 2, 4, 8):
        text = list(range(2_000 + m - 1))
        step = 2 * m // (2 * k + 1)
        swaps = range(step // 2, len(text) - 1, step)
        for j in swaps:
            text[j], text[j + 1] = text[j + 1], text[j]
        # a swap cut by the window's edge leaves the window increasing there
        expected = [s + 1 for s in range(2_000) if sum(s <= j < s + m - 1 for j in swaps) <= k]
        assert 0.4 <= len(expected) / 2_000 <= 0.6
        for mode, items in (("distinct", 3 * k + 1), ("general", 3 * (3 * k + 1))):
            stats = MatchStats()
            lcp_calls[0] = 0
            sizes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(RefString, "lcp", counted)
                patch.setattr(matcher, "reduce_distinct", measured(matcher.reduce_distinct))
                patch.setattr(matcher, "reduce_general", measured(matcher.reduce_general))
                assert match_all(text, list(range(m)), k, mode, stats=stats) == expected, (k, mode)
            assert stats.dyn_scans == stats.windows == 2_000, (k, mode, stats)
            assert len(sizes) == stats.verified == len(expected), (k, mode, stats)
            per_scan = lcp_calls[0] / stats.dyn_scans
            assert per_scan <= 4 * (k + 1), f"k = {k}, {mode}: {per_scan:.1f} LCP queries per scan"
            assert max(sizes) <= items, f"k = {k}, {mode}: a reduction kept {max(sizes)} items"
    print("LCP queries per scan <= 4(k + 1) and reductions within 3k + 1 / 3(3k + 1), k = 1..8: PASS")


def test_criterion_8_determinism(capsys):
    def run(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    rng = random.Random(0xC8)
    text = " ".join(str(x) for x in rng.sample(range(10**6), 2_000))
    pattern = " ".join(str(x) for x in rng.sample(range(10**6), 25))

    outputs = set()
    for threads in ("1", "2", "4"):
        for _ in range(2):
            outputs.add(
                run(["match", "--text", text, "--pattern", pattern, "--k", "3",
                     "--threads", threads, "--json"])
            )
    assert len(outputs) == 1

    for argv in (
        ["gen", "--n", "200", "--m", "12", "--k", "2", "--plant", "2", "--seed", "5"],
        ["signature", "--seq", "11 4 12 1 9 3 10 7 2 5 13 0 6 8"],
        ["verify", "--text", text, "--pattern", pattern, "--k", "25", "--at", "7"],
        ["selftest", "--iterations", "20", "--seed", "11"],
    ):
        assert run(list(argv)) == run(list(argv))
    print("criterion 8 (byte-identical reruns across --threads): PASS")


def test_selftest_suites_pass():
    assert run_suites(150, seed=0xACCE97, report=lambda _line: None) == 0
    print("bundled selftest suites: PASS")
