import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import opmatch

from opmatch import fragstring
from opmatch.fragstring import DynString, RefString
from opmatch.matcher import MatchStats, match_all, match_naive
from opmatch.signature import compute_signature


def naive_lcp(s, i, j):
    n = len(s)
    k = 0
    while i - 1 + k < n and j - 1 + k < n and s[i - 1 + k] == s[j - 1 + k]:
        k += 1
    return k


def test_lcp_overlap_example():
    ref = RefString([0, 1, 0, 1])  # "abab"
    assert ref.lcp(1, 3) == 2


def test_lcp_identical_suffixes():
    ref = RefString([3, 1, 4, 1, 5])
    for i in range(1, 6):
        assert ref.lcp(i, i) == 5 - i + 1


def test_lcp_matches_naive_exhaustively():
    rng = random.Random(41)
    for _ in range(60):
        m = rng.randint(1, 50)
        syms = [rng.randint(0, 3) for _ in range(m)]
        ref = RefString(syms)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                assert ref.lcp(i, j) == naive_lcp(syms, i, j), (syms, i, j)


def test_lcp_larger_alphabet_and_m200():
    rng = random.Random(43)
    m = 200
    syms = [rng.randint(-5, 5) for _ in range(m)]
    ref = RefString(syms)
    for _ in range(4000):
        i = rng.randint(1, m)
        j = rng.randint(1, m)
        assert ref.lcp(i, j) == naive_lcp(syms, i, j)


@pytest.mark.parametrize(
    "syms, rows",
    [
        (random.Random(47).sample(range(-500, 500), 150), 1),
        ([3] * 120 + random.Random(48).choices(range(4), k=80), 8),
        (random.Random(49).choices(range(301), k=200), 3),
        ([5], None),
        # all symbols positive: the past-the-end key must sort below them in
        # round one and below every dense rank after it
        ([2, 2, 2], 2),
        ([4] * 50, 6),
        (random.Random(50).choices([2, 3, 4], k=60), 6),
        (compute_signature(list(range(1, 61))), 6),  # symbols {-4, 2}
        (compute_signature(list(range(60, 0, -1))), 6),  # symbols {4, 2}
    ],
    ids=[
        "all-distinct",
        "constant-run-then-random",
        "few-repeats",
        "m1",
        "2x3",
        "4x50",
        "random-234",
        "increasing-signature",
        "decreasing-signature",
    ],
)
def test_lcp_with_sparse_table_cut_at_zero_row(syms, rows):
    # the sparse table builds rows up to its first all-zero row, which the
    # deeper rows share
    ref = RefString(syms)
    m = len(syms)
    assert ref._index is None
    assert ref.lcp(1, 1) == m  # the first query builds the index
    rank, table = ref._index
    order = sorted(range(m), key=lambda s: syms[s:])
    assert [rank[s] for s in order] == list(range(m))  # the inverse suffix array
    if rows is not None:  # m = 1 has no LCP array, hence no table
        assert len({id(row) for row in table}) == rows
    for i in range(1, m + 1):  # every pair, so also the full rank range
        for j in range(1, m + 1):
            assert ref.lcp(i, j) == naive_lcp(syms, i, j), (i, j)


def test_suffix_structures_are_built_at_the_first_lcp_query(monkeypatch):
    # the direct route and the direct scan read only the reference's
    # symbols; the first DynString scan builds the suffix structures, and
    # every later chunk shares them
    builds = []
    suffix_array = fragstring._suffix_array

    def counted(symbols):
        builds.append(len(symbols))
        return suffix_array(symbols)

    monkeypatch.setattr(fragstring, "_suffix_array", counted)
    rng = random.Random(53)
    text = rng.sample(range(10**6), 2000)
    pattern = rng.sample(range(10**6), 60)
    text[700:760] = [10**6 + v for v in pattern]
    stats = MatchStats()
    assert match_all(text, pattern, 2, stats=stats) == [701]
    assert stats.prefiltered == stats.windows - 1 and stats.dyn_scans == 0
    assert builds == []  # every chunk skipped or decided alone

    text, pattern = list(range(1, 2001)), list(range(1, 201))
    stats = MatchStats()
    assert match_all(text, pattern, 1, stats=stats) == match_naive(text, pattern, 1)
    # nine sliding chunks; the tenth owns one window, decided alone
    assert stats.dyn_chunks == 9 and stats.dyn_scans == 1800
    assert builds == [200]  # once, at the first scan of the first chunk

    syms = rng.choices(range(3), k=40)
    ref = RefString(syms)
    assert builds == [200]
    for i in range(1, 41):
        for j in range(1, 41):
            assert ref.lcp(i, j) == naive_lcp(syms, i, j)
    assert builds == [200, 40]


def test_refstring_rejects_empty():
    with pytest.raises(ValueError):
        RefString([])


def test_dyn_init_roundtrip_and_fragment_count():
    ref = RefString([1, 2, 3])
    content = [9, 9, 9, 1, 2, 3]
    dyn = DynString(ref, content)
    assert dyn.symbols == content
    assert dyn.symbols is not content  # the constructor copies its argument
    assert dyn.fragment_count() == 6
    dyn.check_tiling()


def test_dyn_build_seeds_nothing_per_position():
    # a build copies the symbols into one list and indexes no fragment yet
    m = 10_000
    rng = random.Random(5)
    ref = RefString(rng.sample(range(10**6), m))
    initial = [rng.randrange(10**6) for _ in range(2 * m)]
    tracemalloc.start()
    try:
        dyn = DynString(ref, initial)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2**19, f"a DynString build retained {retained / 2**20:.2f} MiB"
    assert dyn.fragment_count() == 2 * m
    assert dyn.symbols == initial


def test_dyn_init_wrong_length():
    ref = RefString([1, 2, 3])
    with pytest.raises(ValueError):
        DynString(ref, [1, 2, 3])


def test_replace_changes_exactly_one_position():
    ref = RefString([1, 2, 3, 4])
    content = [5, 6, 7, 8, 1, 2, 3, 4]
    dyn = DynString(ref, content)
    dyn.replace(3, 0)
    want = list(content)
    want[2] = 0
    assert dyn.symbols == want
    assert dyn.fragment_count() == 8  # replacing a single-symbol fragment


def test_replace_mid_reference_fragment_splits_in_three():
    ref = RefString([1, 2, 3, 4, 5])
    dyn = DynString(ref, [1, 2, 3, 4, 5] * 2)
    # force a long reference fragment via compaction
    stream = dyn.first_mismatches(1, 4)
    assert stream.positions == []
    before = dyn.fragment_count()
    assert before < 10
    dyn.replace(3, 9)
    assert dyn.fragment_count() == before + 2
    want = [1, 2, 9, 4, 5, 1, 2, 3, 4, 5]
    assert dyn.symbols == want
    dyn.check_tiling()


def test_replace_out_of_range():
    ref = RefString([1, 2])
    dyn = DynString(ref, [1, 2, 1, 2])
    with pytest.raises(ValueError):
        dyn.replace(0, 5)
    with pytest.raises(ValueError):
        dyn.replace(5, 5)


def test_stream_identical_window_is_empty():
    ref = RefString([4, 7, 1])
    dyn = DynString(ref, [4, 7, 1, 0, 0, 0])
    stream = dyn.first_mismatches(1, 6)
    assert stream.positions == [] and stream.truncated is False


def test_stream_single_replaced_symbol():
    ref = RefString([4, 7, 1, 9])
    content = [4, 7, 1, 9, 4, 7, 1, 9]
    for p in range(1, 5):
        dyn = DynString(ref, content)
        dyn.replace(p, -1)
        stream = dyn.first_mismatches(1, 12)
        assert stream.positions == [p]


def test_stream_truncates_after_limit_plus_one():
    ref = RefString([1, 1, 1, 1])
    dyn = DynString(ref, [2, 2, 2, 2, 1, 1, 1, 1])
    stream = dyn.first_mismatches(1, 2)
    assert stream.positions == [1, 2, 3]
    assert stream.truncated is True


def test_stream_window_start_bounds():
    ref = RefString([1, 2])
    dyn = DynString(ref, [1, 2, 1, 2])
    dyn.first_mismatches(3, 1)  # start m+1 allowed
    with pytest.raises(ValueError):
        dyn.first_mismatches(4, 1)
    with pytest.raises(ValueError):
        dyn.first_mismatches(0, 1)


def test_stream_rerun_is_identical_after_compaction():
    rng = random.Random(47)
    for _ in range(300):
        m = rng.randint(1, 20)
        syms = [rng.randint(0, 2) for _ in range(m)]
        ref = RefString(syms)
        content = [rng.randint(0, 3) for _ in range(2 * m)]
        dyn = DynString(ref, content)
        i = rng.randint(1, m + 1)
        limit = rng.randint(0, 6)
        first = dyn.first_mismatches(i, limit)
        again = dyn.first_mismatches(i, limit)
        assert first == again
        assert dyn.symbols == content


def test_randomized_shadow_equivalence():
    rng = random.Random(53)
    for _ in range(400):
        m = rng.randint(1, 32)
        alphabet = rng.randint(1, 5)
        syms = [rng.randrange(alphabet) for _ in range(m)]
        ref = RefString(syms)
        shadow = [rng.randrange(alphabet + 1) for _ in range(2 * m)]
        dyn = DynString(ref, list(shadow))
        for _ in range(rng.randint(1, 40)):
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
            dyn.check_tiling()


def test_compaction_reduces_fragments_on_matching_scan():
    m = 30
    syms = list(range(m))
    ref = RefString(syms)
    dyn = DynString(ref, syms + [-1] * m)
    assert dyn.fragment_count() == 2 * m
    dyn.first_mismatches(1, 3)
    # the fully matched window collapses into one fragment
    assert dyn.fragment_count() <= m + 2
    assert dyn.symbols == syms + [-1] * m


def test_compaction_layout_of_a_scan_from_inside_a_fragment():
    # window 2 starts inside the fragment at 1, mismatches inside it at 5,
    # matches through its end at 8, then over the single symbols 9, 10, 11,
    # mismatches at 12 and matches 13, 14, 15 to the window end: each gap of
    # three pieces becomes one fragment, and the fragment at 1, cut by the
    # mismatch, stays as it is
    ref = RefString([0, 0, 0, 0, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7])
    content = [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 9, 5, 6, 7] + [-1] * 13
    dyn = DynString(ref, content)
    assert dyn.first_mismatches(1, 0).positions == [9]
    assert dyn._frag == {1: (1, 8)}
    assert dyn.first_mismatches(2, 5) == fragstring.MismatchStream([4, 11], False)
    assert dyn._frag == {1: (1, 8), 9: (8, 3), 13: (12, 3)}
    assert dyn.fragment_count() == 3 + 28 - 14
    assert dyn.symbols == content
    dyn.check_tiling()


def test_tiling_check_survives_optimize_flag():
    # each corruption of the fragment index must raise even where
    # ``python -O`` strips asserts
    src = os.path.dirname(os.path.dirname(opmatch.__file__))
    code = (
        "from opmatch.fragstring import DynString, RefString\n"
        "for how in ('d._starts.discard(1)', 'd._frag[2] = (2, 2); d._starts.add(2)',\n"
        "            'd.symbols[1] = 9'):\n"
        "    d = DynString(RefString([1, 2, 3]), [1, 2, 3] * 2)\n"
        "    d.first_mismatches(1, 0)  # the matched window becomes one fragment at 1\n"
        "    d.check_tiling()\n"
        "    exec(how)\n"
        "    try:\n"
        "        d.check_tiling()\n"
        "    except RuntimeError as exc:\n"
        "        print('raised', __debug__, exc)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.splitlines() == [
        "raised False fragment start 1 is missing from the trie",
        "raised False fragment at 2 overlaps another or leaves [1, 6]",
        "raised False fragment at 1 differs from the reference",
    ]
