import collections
import itertools
import random
from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opmatch import matcher, seqcore
from opmatch.matcher import (
    MatchStats,
    PatternIndex,
    k_isomorphic_check,
    k_isomorphic_subset_oracle,
    k_isomorphic_witness,
    match_all,
    match_chunk,
    match_naive,
    reduce_distinct,
    reduce_general,
    verify_window,
)
from opmatch.seqcore import DuplicateValuesError
from opmatch.signature import SlidingSignature, compute_signature, path_order, signature_hamming
from opmatch.subsequence import heaviest_chain, heaviest_increasing_subsequence, lis_deficit_at_most

from shapes import SHAPES, boundary_case, planted_code_case, run_case

FIG_TEXT = [1, 10, 6, 4, 8, 5, 7, 9, 3]
FIG_PATTERN = [1, 4, 2, 5, 11]
SEQ_A = [11, 4, 12, 1, 9, 3, 10, 7, 2, 5, 13, 0, 6, 8]
SEQ_B = [10, 1, 11, 2, 9, 4, 12, 7, 3, 5, 13, 0, 6, 8]


def exhaustive_subset_oracle(a, b, k):
    """Literal enumeration of all <= k removal subsets (reference for the
    pruned search)."""
    m = len(a)
    for size in range(min(k, m) + 1):
        for removed in itertools.combinations(range(m), size):
            keep = [j for j in range(m) if j not in removed]
            ok = True
            for x in range(len(keep)):
                for y in range(x + 1, len(keep)):
                    i, j = keep[x], keep[y]
                    if (a[i] < a[j]) != (b[i] < b[j]) or (a[i] == a[j]) != (
                        b[i] == b[j]
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_subset_oracle_fig_window():
    assert k_isomorphic_subset_oracle(FIG_PATTERN, [4, 8, 5, 7, 9], 1) is True


def test_subset_oracle_trivial_cases():
    assert k_isomorphic_subset_oracle([3, 1, 4], [3, 1, 4], 0) is True
    assert k_isomorphic_subset_oracle([1, 2], [2, 1], 0) is False


def test_subset_oracle_caps_and_length_checks():
    with pytest.raises(ValueError):
        k_isomorphic_subset_oracle(list(range(15)), list(range(15)), 1)
    with pytest.raises(ValueError):
        k_isomorphic_subset_oracle([1, 2], [1], 0)


def test_subset_oracle_equals_exhaustive_enumeration():
    rng = random.Random(61)
    for _ in range(600):
        m = rng.randint(1, 8)
        k = rng.randint(0, 3)
        if rng.random() < 0.5:
            a = rng.sample(range(30), m)
            b = rng.sample(range(30), m)
        else:
            a = [rng.randint(0, 3) for _ in range(m)]
            b = [rng.randint(0, 3) for _ in range(m)]
        assert k_isomorphic_subset_oracle(a, b, k) == exhaustive_subset_oracle(a, b, k)


def test_check_golden_pair():
    assert k_isomorphic_check(SEQ_A, SEQ_B, 2) is True
    assert k_isomorphic_check(SEQ_A, SEQ_B, 1) is False
    assert k_isomorphic_subset_oracle(SEQ_A, SEQ_B, 1) is False
    assert k_isomorphic_check(SEQ_A, SEQ_A, 0) is True


def test_check_matches_oracle_both_modes():
    rng = random.Random(67)
    for _ in range(800):
        m = rng.randint(1, 10)
        k = rng.randint(0, 3)
        if rng.random() < 0.5:
            a = rng.sample(range(60), m)
            b = rng.sample(range(60), m)
            mode = "distinct"
        else:
            a = [rng.randint(0, 4) for _ in range(m)]
            b = [rng.randint(0, 4) for _ in range(m)]
            mode = "general"
        assert k_isomorphic_check(a, b, k, mode) == k_isomorphic_subset_oracle(a, b, k)


def test_check_distinct_rejects_duplicates():
    with pytest.raises(DuplicateValuesError):
        k_isomorphic_check([1, 1], [2, 3], 0, "distinct")


def test_witness_is_a_valid_certificate():
    rng = random.Random(71)
    for _ in range(400):
        m = rng.randint(1, 10)
        k = rng.randint(0, 3)
        if rng.random() < 0.5:
            a = rng.sample(range(60), m)
            b = rng.sample(range(60), m)
        else:
            a = [rng.randint(0, 4) for _ in range(m)]
            b = [rng.randint(0, 4) for _ in range(m)]
        witness = k_isomorphic_witness(a, b, k)
        if witness is None:
            assert not k_isomorphic_subset_oracle(a, b, k)
            continue
        assert len(witness) >= m - k
        assert witness == sorted(witness)
        order = sorted(witness, key=lambda p: (a[p - 1], b[p - 1]))
        for p, q in zip(order, order[1:]):
            if a[p - 1] == a[q - 1]:
                assert b[p - 1] == b[q - 1]
            else:
                assert b[p - 1] < b[q - 1]


def test_witness_fig_example():
    window = FIG_TEXT[3:8]
    witness = k_isomorphic_witness(window, FIG_PATTERN, 1)
    assert witness is not None and len(witness) == 4
    assert k_isomorphic_witness([2, 1], [1, 2], 0) is None


# ---------------------------------------------------------------------------
# pattern preprocessing
# ---------------------------------------------------------------------------


@st.composite
def indexed_patterns(draw):
    """(pattern, mode): a distinct pattern, or a general one over at most
    five values, so that ties are common and some patterns are all equal."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-50, 50), min_size=1, max_size=30, unique=True)), "distinct"
    top = draw(st.integers(0, 4))
    return draw(st.lists(st.integers(0, top), min_size=1, max_size=30)), "general"


@settings(max_examples=300, deadline=None)
@given(indexed_patterns())
@example(([7], "distinct"))
@example(([7], "general"))
@example(([3, 3, 3, 3, 3, 3], "general"))
@example(([2, 0, 2, 1, 0, 2], "general"))
def test_index_tables_follow_the_one_path_order(case):
    # every table is derived from the one sort, and each agrees with a
    # from-scratch reading of the pattern in that order
    pattern, mode = case
    pidx = PatternIndex(pattern, mode)
    m = len(pattern)
    assert pidx.order == path_order(pattern)
    assert len(pidx.rank) == m + 1 and pidx.rank[0] == 0
    assert [pidx.rank[p + 1] for p in pidx.order] == list(range(m))
    assert [pidx.order[t] for t in pidx.rank[1:]] == list(range(m))
    values = [pattern[p] for p in pidx.order]
    assert list(pidx.by_order(pattern)) == values
    # by value, and each value class from its rightmost occurrence leftwards
    ties = [(p, q) for u, v, p, q in zip(values, values[1:], pidx.order, pidx.order[1:]) if u == v]
    assert values == sorted(values) and all(p > q for p, q in ties)
    first = [values.index(v) for v in values]
    last = [m - 1 - values[::-1].index(v) for v in values]
    assert pidx.class_bounds == (first, last)
    assert pidx.offsets == {abs(d) for link in pidx.links for d in link[::2]} - {0}


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def test_reduce_distinct_no_mismatches_single_item():
    pidx = PatternIndex(FIG_PATTERN, "distinct")
    items = reduce_distinct(FIG_PATTERN, pidx, [])
    assert items == [(-1, len(FIG_PATTERN) + 1)]


def test_reduce_distinct_fig_window_accepts():
    window = [4, 8, 5, 7, 9]
    pidx = PatternIndex(FIG_PATTERN, "distinct")
    ds = signature_hamming(
        compute_signature(window, "distinct"), pidx.ref.symbols
    ).positions
    assert verify_window(window, pidx, ds, 1) is True
    assert verify_window(window, pidx, ds, 0) is False


def test_verify_window_checks_its_window_offset_and_mismatches():
    pattern = [5, 1, 4, 2, 3]
    window = [10, 50, 40, 20, 30]
    pidx = PatternIndex(pattern, "distinct")
    assert k_isomorphic_check(window, pattern, 0) is False
    # a window too short for the pattern, in both modes
    with pytest.raises(ValueError, match="fewer than offset"):
        verify_window([1], pidx, [], 0)
    with pytest.raises(ValueError, match="fewer than offset"):
        verify_window([1, 2], PatternIndex([*pattern, 3], "general"), [1, 2], 1)
    # a mismatch position outside [1, m] is not read as a rank
    for bad in ([0], [-1], [6], [2, 6]):
        with pytest.raises(ValueError, match=r"mismatch positions must lie in \[1, 5\]"):
            verify_window(window, pidx, bad, 0)
    # the offset is a count like k, and the m values from it must exist
    for bad in (1.0, True, "1"):
        with pytest.raises(TypeError, match="offset must be an int"):
            verify_window(window, pidx, [], 0, offset=bad)
    with pytest.raises(ValueError, match="offset must be non-negative"):
        verify_window(window, pidx, [], 0, offset=-1)
    with pytest.raises(ValueError, match="fewer than offset"):
        verify_window([0, *window], pidx, [], 0, offset=2)
    # a window read at an offset is decided like its copy
    ds = signature_hamming(compute_signature(window, "distinct"), pidx.ref.symbols).positions
    for k in range(3):
        assert verify_window([0, 99, *window, 7], pidx, ds, k, offset=2) == verify_window(window, pidx, ds, k)


@pytest.mark.parametrize("mode", ["distinct", "general"])
def test_reductions_check_their_window_offset_and_mismatches(mode):
    # each reduction checks what it reads: a position outside [1, m] is
    # not read as a rank, and a short window not read past its end
    reduce = reduce_distinct if mode == "distinct" else reduce_general
    window = [10, 50, 40, 20, 30]
    pidx = PatternIndex([5, 1, 4, 2, 3], mode)
    for bad in ([0], [-1], [6]):
        with pytest.raises(ValueError, match=r"mismatch positions must lie in \[1, 5\]"):
            reduce(window, pidx, bad)
    for short, offset in ((window[:4], 0), (window, 1), ([0, *window], 2)):
        with pytest.raises(ValueError, match="fewer than offset"):
            reduce(short, pidx, [1], offset)
    with pytest.raises(TypeError, match="offset must be an int"):
        reduce(window, pidx, [1], 1.0)
    with pytest.raises(ValueError, match="offset must be non-negative"):
        reduce(window, pidx, [1], -1)
    assert reduce([0, *window], pidx, [1, 5], 1) == reduce(window, pidx, [1, 5])


def test_reduce_weights_always_cover_every_position():
    rng = random.Random(73)
    for _ in range(400):
        m = rng.randint(1, 12)
        if rng.random() < 0.5:
            a = rng.sample(range(60), m)
            b = rng.sample(range(60), m)
            mode = "distinct"
        else:
            a = [rng.randint(0, 4) for _ in range(m)]
            b = [rng.randint(0, 4) for _ in range(m)]
            mode = "general"
        pidx = PatternIndex(b, mode)
        ds = signature_hamming(compute_signature(a, mode), pidx.ref.symbols).positions
        if mode == "distinct":
            items = reduce_distinct(a, pidx, ds)
            assert sum(w for _, w in items) == m + 1
            assert len(items) == len(ds) + 1
        else:
            points = reduce_general(a, pidx, ds)
            assert sum(w for _, _, w in points) == m + 1
            assert len(points) <= 3 * (len(ds) + 1)


def test_reductions_decide_like_subset_oracle():
    rng = random.Random(79)
    for _ in range(3000):
        m = rng.randint(1, 12)
        k = rng.randint(0, 3)
        if rng.random() < 0.5:
            a = rng.sample(range(9 * m + 9), m)
            b = rng.sample(range(9 * m + 9), m)
            mode = "distinct"
        else:
            sigma = rng.randint(3, 6)
            a = [rng.randrange(sigma) for _ in range(m)]
            b = [rng.randrange(sigma) for _ in range(m)]
            mode = "general"
        pidx = PatternIndex(b, mode)
        ds = signature_hamming(compute_signature(a, mode), pidx.ref.symbols).positions
        want = k_isomorphic_subset_oracle(a, b, k)
        if len(ds) > 3 * k:
            assert want is False  # the filter never discards a true match
            continue
        assert verify_window(a, pidx, ds, k) == want


def test_reduce_general_merges_identical_points():
    # On few-valued input, two path parts can start at the same (window
    # value, pattern value) point; heaviest_chain merges them, so the
    # reduction hands them over unmerged.
    rng = random.Random(41)
    cases = 0
    while cases < 20:
        m = rng.randint(3, 12)
        window = [rng.randint(0, 3) for _ in range(m)]
        pidx = PatternIndex([rng.randint(0, 3) for _ in range(m)], "general")
        mism = signature_hamming(compute_signature(window, "general"), pidx.ref.symbols).positions
        parts = reduce_general(window, pidx, mism)
        merged = {}
        for x, y, w in parts:
            merged[x, y] = merged.get((x, y), 0) + w
        if len(merged) == len(parts):
            continue
        cases += 1
        by_hand = [(x, y, w) for (x, y), w in merged.items()]
        assert heaviest_chain(parts) == heaviest_chain(by_hand)
    # only the summed weight of the two (1, 1) points beats the (0, 2) point
    assert heaviest_chain([(1, 1, 2), (0, 2, 3), (1, 1, 2)]) == (4, [(1, 1, 4)])


# Value classes of PIN_PATTERN, in path order (each from its rightmost
# occurrence to its leftmost; 1-based positions): value 1 at 5, 2; value 2 at
# 10, 7, 3; value 3 at 6, 1; value 4 at 8, 4; value 5 (the top) at 9.
PIN_PATTERN = [3, 1, 2, 4, 1, 3, 2, 4, 5, 2]
PIN_WINDOW = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]  # window value = 10 * position
INF = float("inf")


@pytest.mark.parametrize(
    "pattern, mismatches, points",
    [
        # the floor path crosses the four lower classes whole and stops in the top one
        (PIN_PATTERN, [], [(-INF, -INF, 1), (50, 1, 9), (90, 5, 1)]),
        # one class: the floor path stops above the highest mismatch
        ([7] * 5, [2, 4], [(-INF, -INF, 1), (20, 7, 2), (40, 7, 2), (50, 7, 1)]),
        # the rightmost occurrences of the two lowest classes: the paths from
        # the floor and from value 1 end where they enter their next class
        (PIN_PATTERN, [5, 10], [(-INF, -INF, 1), (50, 1, 2), (60, 3, 4), (90, 5, 1), (100, 2, 3)]),
        # the same with the whole class of value 2 in between
        (
            PIN_PATTERN,
            [5, 6],
            [(-INF, -INF, 1), (50, 1, 2), (60, 3, 2), (80, 4, 2), (90, 5, 1), (100, 2, 3)],
        ),
        # a leftmost occurrence, then two whole classes up to a rightmost one
        (
            PIN_PATTERN,
            [2, 8],
            [(-INF, -INF, 1), (20, 1, 1), (50, 1, 1), (60, 3, 2), (80, 4, 2), (90, 5, 1),
             (100, 2, 3)],
        ),
        # below its class's rightmost occurrence: the floor path stops inside value 2
        (
            PIN_PATTERN,
            [7],
            [(-INF, -INF, 1), (50, 1, 2), (60, 3, 4), (70, 2, 2), (90, 5, 1), (100, 2, 1)],
        ),
        # the top class: nothing lies above it
        (PIN_PATTERN, [9], [(-INF, -INF, 1), (50, 1, 7), (80, 4, 2), (90, 5, 1)]),
        # every position: one point of weight 1 each
        (
            PIN_PATTERN,
            list(range(1, 11)),
            [(-INF, -INF, 1), *((10 * p, v, 1) for p, v in enumerate(PIN_PATTERN, 1))],
        ),
    ],
    ids=["no-mismatch", "one-class", "rightmost-right-above", "rightmost-class-between",
         "two-classes-between", "below-rightmost", "top-class", "every-position"],
)
def test_reduce_general_literal_points(pattern, mismatches, points):
    pidx = PatternIndex(pattern, "general")
    assert sorted(reduce_general(PIN_WINDOW[: len(pattern)], pidx, mismatches)) == sorted(points)


def test_reduce_general_rejects_repeated_mismatch():
    pidx = PatternIndex(PIN_PATTERN, "general")
    with pytest.raises(RuntimeError, match="path weights must cover every position"):
        reduce_general(PIN_WINDOW, pidx, [7, 7])


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_match_all_fig_instance():
    assert match_all(FIG_TEXT, FIG_PATTERN, 1) == [4]
    assert match_naive(FIG_TEXT, FIG_PATTERN, 1) == [4]


def test_match_naive_checks_inputs_once(monkeypatch):
    # the input contract runs once per call, not once per window, and
    # match_all checks each sequence once too: the pattern by its index only
    calls = []
    validate = seqcore._validate_ints

    def counted(seq, name):
        calls.append(name)
        validate(seq, name)

    monkeypatch.setattr(seqcore, "_validate_ints", counted)
    for n in (30, 300):
        text = random.Random(n).sample(range(10 * n), n)
        answers = []
        for entry in (match_naive, match_all):
            calls.clear()
            answers.append(entry(text, FIG_PATTERN, 1))
            assert calls == ["text", "pattern"], entry
        assert answers[0] == answers[1]


def test_distinct_values_checked_only_when_distinct_is_asked(monkeypatch):
    # "auto" resolves to distinct only after resolve_mode has found every
    # value unique, so only an explicit "distinct" checks each sequence again,
    # and match_all's pattern is checked by its PatternIndex alone
    calls = []
    validate = seqcore._validate_distinct

    def counted(seq, name):
        calls.append(name)
        validate(seq, name)

    monkeypatch.setattr(seqcore, "_validate_distinct", counted)
    cases = [
        (match_naive, FIG_TEXT, [], ["text", "pattern"]),
        (k_isomorphic_check, FIG_TEXT[:5], [], ["first sequence", "second sequence"]),
        (match_all, FIG_TEXT, [], ["text", "pattern"]),
    ]
    for entry, seq, under_auto, under_distinct in cases:
        calls.clear()
        entry(seq, FIG_PATTERN, 1)
        assert calls == under_auto, entry
        calls.clear()
        entry(seq, FIG_PATTERN, 1, "distinct")
        assert calls == under_distinct, entry
        repeat = [seq[1], *seq[1:]]
        assert entry(repeat, FIG_PATTERN, 1) == entry(repeat, FIG_PATTERN, 1, "general")
        with pytest.raises(DuplicateValuesError):
            entry(repeat, FIG_PATTERN, 1, "distinct")


GRID_TEXTS = {"good": FIG_TEXT, "float": [*FIG_TEXT[:4], 2.5], "repeating": [*FIG_TEXT, 1], "empty": []}
GRID_PATTERNS = {"good": FIG_PATTERN, "float": [1, 4.0, 2], "repeating": [1, 4, 1], "empty": []}


@pytest.mark.parametrize("mode", ["distinct", "auto", "bogus"])
@pytest.mark.parametrize("pattern", GRID_PATTERNS)
@pytest.mark.parametrize("text", GRID_TEXTS)
def test_faulty_inputs_raise_one_error_in_both_matchers(text, pattern, mode):
    # the first fault in match_all's stated order raises, and match_naive
    # raises the same: k, the text, the mode name, then the pattern
    t, p = GRID_TEXTS[text], GRID_PATTERNS[pattern]
    distinct = mode == "distinct"
    faults = [
        (text == "float", TypeError, "text values must be int, got float"),
        (distinct and text == "repeating", DuplicateValuesError, "unique values in the text"),
        (mode == "bogus", ValueError, "unknown mode 'bogus'"),
        (pattern == "float", TypeError, "pattern values must be int, got float"),
        (distinct and pattern == "repeating", DuplicateValuesError, "unique values in the pattern"),
        (pattern == "empty", ValueError, "pattern must be non-empty"),
    ]
    outcomes = []
    for entry in (match_all, match_naive):
        try:
            outcomes.append(entry(t, p, 1, mode))
        except (TypeError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    first = next(((kind, message) for fault, kind, message in faults if fault), None)
    if first is None:
        assert isinstance(outcomes[0], list)
    else:
        assert outcomes[0][0] is first[0]
        assert first[1] in outcomes[0][1]


def test_match_chunk_fig_instance():
    pidx = PatternIndex(FIG_PATTERN, "distinct")
    assert match_chunk(FIG_TEXT, pidx, 1) == [4]


def test_match_chunk_follows_the_index_mode():
    # "auto" resolves on the pattern alone, so the index is distinct and the
    # chunk's repeat raises, where match_all resolves on both and matches
    chunk = [1, 1, 2, 3]
    assert match_all(chunk, [1, 2], 0) == [2, 3]
    with pytest.raises(DuplicateValuesError, match='mode="general"'):
        match_chunk(chunk, PatternIndex([1, 2]), 0)
    # the chunk owns windows 1 and 2; window 3 is the next chunk's
    assert match_chunk(chunk, PatternIndex([1, 2], "general"), 0) == [2]


def test_match_pattern_equals_text():
    text = [9, 4, 6, 2]
    assert match_all(text, text, 0) == [1]


def test_match_k_equals_m_matches_everywhere():
    text = list(range(20, 0, -1))
    pattern = [1, 2, 3]
    assert match_all(text, pattern, 3) == list(range(1, 19))


def test_match_empty_cases():
    assert match_all([1, 2], [1, 2, 3], 0) == []
    with pytest.raises(ValueError):
        match_all([1, 2, 3], [], 0)
    with pytest.raises(ValueError):
        match_all([1, 2, 3], [1], -1)


K_ENTRY_POINTS = pytest.mark.parametrize(
    "entry",
    [
        k_isomorphic_check,
        k_isomorphic_witness,
        k_isomorphic_subset_oracle,
        match_naive,
        match_all,
        lambda chunk, pattern, k: match_chunk(chunk, PatternIndex(pattern), k),
        lambda window, pattern, k: verify_window(window, PatternIndex(pattern), [], k),
    ],
    ids=["k_isomorphic_check", "k_isomorphic_witness", "k_isomorphic_subset_oracle",
         "match_naive", "match_all", "match_chunk", "verify_window"],
)


@K_ENTRY_POINTS
def test_negative_k_rejected_by_every_entry_point(entry):
    with pytest.raises(ValueError, match="k must be non-negative"):
        entry(FIG_PATTERN, FIG_PATTERN, -1)


@K_ENTRY_POINTS
def test_non_int_k_rejected_by_every_entry_point(entry):
    # as values are: a float or a bool is refused, not truncated or read as 1
    for bad in (1.5, 2.0, True):
        with pytest.raises(TypeError, match="k must be an int"):
            entry(FIG_PATTERN, FIG_PATTERN, bad)


def test_huge_k_answers_like_naive():
    # 3k + 1 lies past sys.maxsize; a window differs in at most m places, so
    # every window matches, as for any k >= m
    rng = random.Random(8)
    k = 10**19
    for mode in ("distinct", "general"):
        for m in (1, 3, 12, 40):
            if mode == "distinct":
                text = rng.sample(range(200), 100)
            else:
                text = [rng.randint(0, 4) for _ in range(100)]
            pattern = text[:m]
            every = match_naive(text, pattern, k, mode)
            assert every == list(range(1, len(text) - m + 2))
            assert match_all(text, pattern, k, mode) == every
            # a full 2m chunk owns its first m windows
            assert match_chunk(text[: 2 * m], PatternIndex(pattern, "general"), k) == every[:m]


@pytest.mark.parametrize(
    "entry",
    [
        lambda bad, good: match_all(bad, good[:2], 0),
        lambda bad, good: match_naive(good, bad[:2], 0),
        lambda bad, good: k_isomorphic_check(good, bad, 0),
        lambda bad, good: k_isomorphic_witness(bad, good, 0),
        lambda bad, good: k_isomorphic_subset_oracle(good, bad, 0),
        lambda bad, good: PatternIndex(bad),
        lambda bad, good: compute_signature(bad),
        lambda bad, good: SlidingSignature(bad, PatternIndex(good), 0),
        lambda bad, good: match_chunk(bad, PatternIndex(good), 0),
    ],
    ids=["match_all", "match_naive", "k_isomorphic_check", "k_isomorphic_witness",
         "k_isomorphic_subset_oracle", "PatternIndex", "compute_signature",
         "SlidingSignature", "match_chunk"],
)
def test_non_int_values_rejected_by_every_entry_point(entry):
    good = [1, 2, 3]
    for bad in (["a", "b", "c"], [1.0, 2.0, 3.0], [1, 2.5, 3], [True, False, True]):
        with pytest.raises(TypeError, match="values must be int"):
            entry(bad, good)


def test_path_weight_check_survives_optimize_flag():
    # a duplicated mismatch position breaks the path-weight sum; the check
    # must raise even where ``python -O`` strips asserts
    import os
    import subprocess
    import sys

    import opmatch

    src = os.path.dirname(os.path.dirname(opmatch.__file__))
    code = (
        "from opmatch.matcher import PatternIndex, reduce_distinct\n"
        "pidx = PatternIndex([1, 4, 2, 5, 11], 'distinct')\n"
        "try:\n"
        "    reduce_distinct([4, 8, 5, 7, 9], pidx, [2, 2])\n"
        "except RuntimeError as exc:\n"
        "    print('raised', __debug__, exc)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "raised False path weights must cover every position\n"


def test_match_chunk_rejects_short_chunk():
    pidx = PatternIndex([1, 2, 3], "distinct")
    with pytest.raises(ValueError):
        match_chunk([1, 2], pidx, 0)


def test_match_distinct_mode_rejects_duplicates():
    with pytest.raises(DuplicateValuesError):
        match_all([1, 1, 2], [1, 2], 0, "distinct")


def test_match_equals_oracles_distinct():
    rng = random.Random(83)
    for _ in range(500):
        m = rng.randint(1, 9)
        n = rng.randint(m, 45)
        k = rng.randint(0, 3)
        text = rng.sample(range(10 * n), n)
        pattern = rng.sample(range(10 * n), m)
        got = match_all(text, pattern, k)
        want = [
            i + 1
            for i in range(n - m + 1)
            if k_isomorphic_subset_oracle(text[i : i + m], pattern, k)
        ]
        assert got == want
        assert match_naive(text, pattern, k) == want


def test_match_equals_oracles_general():
    rng = random.Random(89)
    for _ in range(500):
        m = rng.randint(1, 9)
        n = rng.randint(m, 45)
        k = rng.randint(0, 3)
        sigma = rng.randint(3, 6)
        text = [rng.randrange(sigma) for _ in range(n)]
        pattern = [rng.randrange(sigma) for _ in range(m)]
        got = match_all(text, pattern, k)
        want = [
            i + 1
            for i in range(n - m + 1)
            if k_isomorphic_subset_oracle(text[i : i + m], pattern, k)
        ]
        assert got == want


def test_match_exhaustive_tiny_binary_instances():
    for n in range(1, 7):
        for text in itertools.product(range(2), repeat=n):
            for m in range(1, min(4, n) + 1):
                for pattern in itertools.product(range(2), repeat=m):
                    for k in range(3):
                        assert match_all(list(text), list(pattern), k) == match_naive(
                            list(text), list(pattern), k
                        ), (text, pattern, k)


def test_match_monotone_in_k():
    rng = random.Random(97)
    for _ in range(120):
        m = rng.randint(2, 8)
        n = rng.randint(m, 40)
        text = rng.sample(range(10 * n), n)
        pattern = rng.sample(range(10 * n), m)
        prev: set[int] = set()
        for k in range(4):
            cur = set(match_all(text, pattern, k))
            assert prev <= cur
            prev = cur


def _planted_cut_cases(mode):
    """(text, pattern, k, planted) at every length around the canonical cut,
    with order-isomorphic copies of the pattern at the first or at the last
    window of every chunk; a copy that would overlap the one before it is
    left out."""
    rng = random.Random(101)
    for m in (1, 2, 5, 8):
        for n in sorted({m, 2 * m - 1, 2 * m, 2 * m + 1, 3 * m - 1, 3 * m, 3 * m + 1}):
            for k in (0, 1, 2):
                for where in ("first", "last"):
                    if mode == "distinct":
                        text = rng.sample(range(10**4), n)
                        pattern = rng.sample(range(10**4), m)
                    else:
                        text = [rng.randrange(4) for _ in range(n)]
                        pattern = [rng.randrange(4) for _ in range(m)]
                    planted = []
                    for c in range(1, n - m + 2, m):
                        s = c if where == "first" else min(c + m - 1, n - m + 1)
                        if not planted or s >= planted[-1] + m:
                            text[s - 1 : s - 1 + m] = [10**5 * s + v for v in pattern]
                            planted.append(s)
                    yield text, pattern, k, planted


@pytest.mark.parametrize("mode", ["distinct", "general"])
def test_match_all_canonical_cut_owns_every_window_once(mode):
    # a full chunk owns its first m windows and the last chunk all of its
    # own: one window more reports the next chunk's first twice, one fewer
    # drops a chunk's last window
    for text, pattern, k, planted in _planted_cut_cases(mode):
        n, m = len(text), len(pattern)
        want = match_naive(text, pattern, k, mode)
        assert set(planted) <= set(want)
        stats = MatchStats()
        assert match_all(text, pattern, k, mode, stats=stats) == want, (text, pattern, k)
        assert stats.windows == n - m + 1


def test_match_stats_accounting():
    rng = random.Random(109)
    text = rng.sample(range(9000), 900)
    pattern = rng.sample(range(9000), 30)
    stats = MatchStats()
    occ = match_all(text, pattern, 1, stats=stats)
    assert stats.windows == len(text) - len(pattern) + 1
    assert stats.filtered + stats.verified == stats.windows
    assert stats.occurrences == len(occ)
    assert 0.0 <= stats.pruning_rate <= 1.0


def test_weakened_filter_cap_is_caught_by_oracle_comparison(monkeypatch):
    # with the cap lowered from 3k to 2k some true occurrence must vanish:
    # match_chunk sets the filter up for 3k mismatches, the wrapper for 2k
    rng = random.Random(113)
    cases = []
    for _ in range(4000):
        m = rng.randint(4, 9)
        n = rng.randint(m, 30)
        k = rng.randint(1, 3)
        text = rng.sample(range(10 * n), n)
        pattern = rng.sample(range(10 * n), m)
        cases.append((text, pattern, k, match_all(text, pattern, k)))
    init = SlidingSignature.__init__
    monkeypatch.setattr(
        SlidingSignature, "__init__", lambda self, chunk, pidx, limit: init(self, chunk, pidx, limit * 2 // 3)
    )
    broken = 0
    for text, pattern, k, want in cases:
        got = match_all(text, pattern, k)
        assert set(got) <= set(want)
        if got != want:
            broken += 1
    assert broken > 0


def test_weakened_filter_cap_is_caught_on_every_canonical_chunk(monkeypatch):
    # the twin of the test above that does not depend on match_all's routes:
    # match_chunk runs on every chunk of the canonical cut, whichever route
    # match_all would pick for it, and its owned windows are compared with
    # match_naive; with the cap lowered from 3k to 2k some occurrence vanishes
    rng = random.Random(113)
    cases = []
    for _ in range(4000):
        m = rng.randint(4, 9)
        n = rng.randint(m, 30)
        k = rng.randint(1, 3)
        text = rng.sample(range(10 * n), n)
        pattern = rng.sample(range(10 * n), m)
        cases.append((text, pattern, k, match_naive(text, pattern, k)))

    def chunk_answers(text, pattern, k):
        pidx, n, m = PatternIndex(pattern), len(text), len(pattern)
        return [
            c - 1 + s
            for c in range(1, n - m + 2, m)
            for s in match_chunk(text[c - 1 : c - 1 + 2 * m], pidx, k)
        ]

    for text, pattern, k, want in cases:
        assert chunk_answers(text, pattern, k) == want, (text, pattern, k)
    init = SlidingSignature.__init__
    monkeypatch.setattr(
        SlidingSignature, "__init__", lambda self, chunk, pidx, limit: init(self, chunk, pidx, limit * 2 // 3)
    )
    broken = 0
    for text, pattern, k, want in cases:
        got = chunk_answers(text, pattern, k)
        assert set(got) <= set(want)
        if got != want:
            broken += 1
    assert broken > 0


def test_weakened_window_cap_is_caught_by_oracle_comparison(monkeypatch):
    # the same check for the windows match_all decides alone, in each mode:
    # in general mode _decide_window scans for 3k mismatches, the wrapper
    # for 2k; in distinct mode its patience pass allows k misses, the
    # wrapper k - 1. The values are distinct, so both modes match alike
    rng = random.Random(131)
    cases = []
    for _ in range(300):
        k = rng.randint(1, 2)
        m = rng.randint(matcher._MIN_BLOCK * (k + 1), matcher._MIN_BLOCK * (k + 1) + 6)
        n = rng.randint(m, 4 * m)
        text = [rng.randrange(10 * n) for _ in range(n)]
        pattern = rng.sample(range(m), m)
        for s in range(0, n - m + 1, 2 * m):  # perturbed copies planted
            copy = [10 * (n + s) + 10 * v for v in pattern]
            for j in rng.sample(range(m), rng.randint(0, k)):
                copy[j] = 10 * (n + s) + rng.randint(-5, 10 * m + 5)
            text[s : s + m] = copy
        text = [v * (n + 1) + i for i, v in enumerate(text)]  # distinct, orders kept
        want = match_naive(text, pattern, k)
        assert match_all(text, pattern, k) == match_all(text, pattern, k, "general") == want
        cases.append((text, pattern, k, want))
    monkeypatch.setattr(
        matcher, "signature_hamming", lambda a, b, cap=None: signature_hamming(a, b, cap * 2 // 3)
    )
    monkeypatch.setattr(matcher, "lis_deficit_at_most", lambda seq, k: lis_deficit_at_most(seq, k - 1))
    for mode in ("distinct", "general"):
        broken = 0
        for text, pattern, k, want in cases:
            got = match_all(text, pattern, k, mode)
            assert set(got) <= set(want)
            if got != want:
                broken += 1
        assert broken > 0, mode


def test_filter_bound_is_tight_in_practice():
    # random search reaches signature distance of exactly 3k for small k
    rng = random.Random(127)
    seen = set()
    for _ in range(4000):
        m = rng.randint(4, 10)
        k = rng.randint(1, 2)
        a = rng.sample(range(10 * m), m)
        b = rng.sample(range(10 * m), m)
        if not k_isomorphic_subset_oracle(a, b, k):
            continue
        d = len(
            signature_hamming(compute_signature(a, "distinct"), compute_signature(b, "distinct")).positions
        )
        assert d <= 3 * k
        seen.add((k, d))
    assert any(d == 3 * k for k, d in seen)


# ---------------------------------------------------------------------------
# adversarial shapes: both verification routes, and match_all against
# the per-position reference
# ---------------------------------------------------------------------------


def _greedy_weight(items):
    """Weight of the items one pass keeps while their values rise."""
    weight, top = 0, None
    for v, w in items:
        if top is None or v > top:
            top, weight = v, weight + w
    return weight


def _adjacent_swaps(draw, seq):
    out = list(seq)
    if len(out) > 1:
        for j in draw(st.lists(st.integers(0, len(out) - 2), max_size=len(out))):
            out[j], out[j + 1] = out[j + 1], out[j]
    return out


def _distinct_shape(draw, m):
    shape = draw(st.sampled_from(["near-sorted", "decreasing", "sawtooth", "random"]))
    if shape == "near-sorted":
        return _adjacent_swaps(draw, range(m))
    if shape == "decreasing":
        return list(range(m, 0, -1))
    if shape == "sawtooth":
        period = draw(st.integers(1, m))
        return [(i % period) * m + i for i in range(m)]
    return list(draw(st.permutations(range(m))))


@st.composite
def distinct_verify_cases(draw):
    """(window, pattern, k): distinct windows of adversarial shapes against a
    pattern of such a shape or the window itself with adjacent swaps."""
    m = draw(st.integers(1, 20))
    window = _distinct_shape(draw, m)
    if draw(st.booleans()):
        pattern = _adjacent_swaps(draw, window)
    else:
        pattern = _distinct_shape(draw, m)
    return window, pattern, draw(st.integers(0, 4))


def test_verify_window_routes_agree_with_oracles(monkeypatch):
    # verify_window accepts on the greedy lower bound alone and calls the
    # staircase only when that bound falls short; count both routes
    staircase = matcher.heaviest_increasing_subsequence
    solved = []

    def counted(items):
        solved.append(items)
        return staircase(items)

    monkeypatch.setattr(matcher, "heaviest_increasing_subsequence", counted)
    routes = {"greedy": 0, "staircase": 0}

    @settings(max_examples=400, deadline=None)
    @given(distinct_verify_cases())
    @example(([0, 1, 2, 3], [0, 1, 2, 3], 0))  # greedy weight exactly m + 1 - k
    @example(([0, 1, 2, 3, 4], [3, 0, 1, 2, 4], 1))  # greedy short, staircase accepts
    @example(([3, 2, 0, 1], [0, 1, 2, 3], 1))  # greedy one short, rejected
    def check(case):
        window, pattern, k = case
        m = len(pattern)
        want = k_isomorphic_check(window, pattern, k)
        if m <= 14:
            assert k_isomorphic_subset_oracle(window, pattern, k) == want
        pidx = PatternIndex(pattern, "distinct")
        ds = signature_hamming(compute_signature(window, "distinct"), pidx.ref.symbols).positions
        if len(ds) > 3 * k:
            assert want is False
            return
        solved.clear()
        assert verify_window(window, pidx, ds, k) == want
        if solved:
            assert _greedy_weight(solved[0]) < m + 1 - k
            routes["staircase"] += 1
        else:
            routes["greedy"] += 1

    check()
    assert routes["greedy"] > 0 and routes["staircase"] > 0, routes


def _any_shape(draw, length):
    shape = draw(st.sampled_from(["increasing", "decreasing", "sawtooth", "zigzag", "equal", "few", "random"]))
    if shape == "zigzag":  # alternating up and down steps of random size
        steps = draw(st.lists(st.integers(1, 4), min_size=length, max_size=length))
        return [(-1) ** i * s for i, s in enumerate(steps)]
    if shape == "equal":
        return [draw(st.integers(-3, 3))] * length
    if shape == "sawtooth":
        period = draw(st.integers(1, max(1, length)))
        lift = draw(st.booleans())  # lifted teeth repeat the shape, not the values
        return [(i % period) * length + (i if lift else 0) for i in range(length)]
    if shape == "few":
        return draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    if shape == "random":
        return list(draw(st.permutations(range(length))))
    steps = draw(st.lists(st.integers(1, 5), min_size=length, max_size=length))
    seq = list(itertools.accumulate(steps))
    return seq[::-1] if shape == "decreasing" else seq


@st.composite
def match_cases(draw):
    """(text, pattern, k) over monotone, sawtooth, zigzag, all-equal,
    few-valued and random shapes, with m = 1, n = m, k >= m and ints far
    beyond 64 bits."""
    m = draw(st.sampled_from([1, draw(st.integers(1, 10))]))
    n = draw(st.sampled_from([m, draw(st.integers(m, 40))]))
    text = _any_shape(draw, n)
    if draw(st.booleans()):
        i = draw(st.integers(0, n - m))
        pattern = _adjacent_swaps(draw, text[i : i + m])
    else:
        pattern = _any_shape(draw, m)
    scale = draw(st.sampled_from([1, 10**12, 2**70]))
    shift = draw(st.sampled_from([0, -(2**80)]))
    text = [v * scale + shift for v in text]
    pattern = [v * scale - shift for v in pattern]
    k = draw(st.sampled_from([0, 1, 2, m, m + draw(st.integers(1, 3))]))
    return text, pattern, k


@settings(max_examples=400, deadline=None)
@given(match_cases())
def test_match_all_equals_naive_on_adversarial_shapes(case):
    text, pattern, k = case
    want = match_naive(text, pattern, k)
    assert match_all(text, pattern, k) == want
    if len(set(text)) == len(text) and len(set(pattern)) == len(pattern):
        assert match_all(text, pattern, k, "general") == want


# ---------------------------------------------------------------------------
# the pigeonhole prefilter of match_all: skipped chunks, chunks decided one
# candidate window at a time, and chunks on the sliding path
# ---------------------------------------------------------------------------


def _code_distance(a, b):
    """How many of the m - 1 consecutive comparisons (<, = or >) of a and b
    differ."""
    return sum(
        (a[i] < a[i + 1]) - (a[i] > a[i + 1]) != (b[i] < b[i + 1]) - (b[i] > b[i + 1])
        for i in range(len(a) - 1)
    )


def _noisy_background(draw, length):
    """A zero or an increasing background with a few values changed: its
    blocks occur almost everywhere, and the comparison codes of most
    windows differ from a noisy pattern's in more than 2k places."""
    seq = [0] * length if draw(st.booleans()) else list(range(length))
    for j in draw(st.lists(st.integers(0, length - 1), max_size=max(1, length // 6))):
        seq[j] = draw(st.integers(-3, length + 3))
    return seq


def _near_zigzag(draw, length, defects):
    """Alternating up and down steps of random size, ``defects`` of them
    turned to the direction of the step before: each turned step changes
    one comparison code of a zigzag."""
    steps = draw(st.lists(st.integers(1, 4), min_size=length, max_size=length))
    turned = draw(st.sets(st.integers(1, length - 1), min_size=defects, max_size=defects))
    return list(itertools.accumulate((-1) ** (i + (i in turned)) * s for i, s in enumerate(steps)))


def _zigzag_code_case(draw):
    """(text, pattern, k, "distinct"): near-zigzag text against a zigzag
    pattern with 2k + 1 to 2k + 4 defects. A defect-free block occurs at
    every other start, so block candidates are dense, but few windows come
    within 2k comparison codes of the pattern. Each chunk holds a copy of
    the pattern with k of its peaks and valleys moved past both neighbours:
    an occurrence whose codes differ in exactly 2k places, which only the
    distinct-mode comparison-code filter decides."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(matcher._MIN_BLOCK * (k + 1), matcher._MIN_BLOCK * (k + 1) + 6))
    n = draw(st.integers(2 * m, 5 * m))
    text = _near_zigzag(draw, n, draw(st.integers(0, n // 10)))
    pattern = _near_zigzag(draw, m, draw(st.integers(2 * k + 1, 2 * k + 4)))
    turns = [j for j in range(1, m - 1) if (pattern[j] - pattern[j - 1]) * (pattern[j] - pattern[j + 1]) > 0]
    prev = None
    for c in range(1, n - m + 2, m):
        s = draw(st.integers(c, min(c + m - 1, n - m + 1)))
        if prev is not None and s < prev + m:
            continue
        copy = [10 * v for v in pattern]
        moved: list[int] = []
        for j in draw(st.permutations(turns)):
            if len(moved) < k and all(abs(j - t) > 1 for t in moved):
                moved.append(j)
                lo, hi = sorted((copy[j - 1], copy[j + 1]))
                copy[j] = lo - 5 if copy[j] > hi else hi + 5
        text[s - 1 : s - 1 + m] = copy
        prev = s
    text = [v * (n + 1) + i for i, v in enumerate(text)]
    pattern = [v * (m + 1) + j for j, v in enumerate(pattern)]
    return text, pattern, k, "distinct"


def _sparse_noise_code_case(draw):
    """(text, pattern, k, "general"): the shape of the general-mixed
    workload. Text and pattern hold zeros with about 10% of the values in
    1..3, and the text one copy of the pattern with up to k values changed.
    Runs of zeros make the block candidates dense, but each nonzero value
    changes up to two comparison codes, so few windows come within 2k codes
    of the pattern: the general-mode comparison-code filter decides them."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(matcher._MIN_BLOCK * (k + 1), matcher._MIN_BLOCK * (k + 1) + 30))
    n = draw(st.integers(2 * m, 5 * m))

    def noise(length):  # 27 of 30 draws, and the shrink target, are zeros
        draws = draw(st.lists(st.integers(0, 29), min_size=length, max_size=length))
        return [max(0, v - 26) for v in draws]

    text, pattern = noise(n), noise(m)
    copy = list(pattern)
    for j in draw(st.lists(st.integers(0, m - 1), max_size=k)):
        copy[j] = draw(st.integers(0, 3))
    s = draw(st.integers(0, n - m))
    text[s : s + m] = copy
    return text, pattern, k, "general"


@st.composite
def prefilter_cases(draw):
    """(text, pattern, k, mode) over the shapes of ``_any_shape`` or a noisy
    background, with copies of the pattern, perturbed at up to k positions,
    planted at the first or the last window of every chunk; or a code-route
    case of ``_zigzag_code_case`` or ``_sparse_noise_code_case``."""
    shape = draw(st.integers(0, 4))
    if shape == 0:
        return _zigzag_code_case(draw)
    if shape == 1:
        return _sparse_noise_code_case(draw)
    mode = draw(st.sampled_from(["distinct", "general"]))
    k = draw(st.integers(0, 3))
    m = draw(st.integers(2, matcher._MIN_BLOCK * (k + 1) + 6))
    n = draw(st.integers(m, 5 * m))
    shape = draw(st.sampled_from([_any_shape, _noisy_background]))
    text = shape(draw, n)
    pattern = shape(draw, m)
    where = draw(st.sampled_from(["none", "first", "last"]))
    prev = None
    for c in range(1, n - m + 2, m) if where != "none" else ():
        s = c if where == "first" else min(c + m - 1, n - m + 1)
        if prev is not None and s < prev + m:
            continue
        copy = [100 * (s + 1) + 10 * v for v in pattern]
        for j in draw(st.lists(st.integers(0, m - 1), max_size=k)):
            copy[j] = 100 * (s + 1) + draw(st.integers(-25, 65))
        text[s - 1 : s - 1 + m] = copy
        prev = s
    if mode == "distinct":  # break ties by position; strict orders stay
        text = [v * (n + 1) + i for i, v in enumerate(text)]
        pattern = [v * (m + 1) + j for j, v in enumerate(pattern)]
    return text, pattern, k, mode


def test_match_all_equals_naive_through_every_prefilter_route(routes):
    # every draw must equal match_naive, and each route must decide some
    reached = {
        "skip": 0, "sparse": 0, "sparse at the cap": 0, "no prefilter": 0,
        "dense, decided together": 0, "dense, sliding (distinct)": 0,
        **{f"codes{dense} ({mode})": 0 for dense in ("", " dense") for mode in ("distinct", "general")},
    }

    @settings(max_examples=500, deadline=None)
    @given(prefilter_cases())
    @example(planted_code_case(1, "general")[:4])  # code distance exactly 2k, a match
    @example(planted_code_case(2, "distinct")[:4])
    @example(([0] * 40, [0] * 10, 1, "general"))  # every window within 2k: the sliding path
    @example((list(range(40)), list(range(10)), 1, "distinct"))  # m <= 8(3k + 1): decided together
    @example(run_case(matcher._SPARSE_CAP))  # exactly C candidates: each alone
    @example(run_case(matcher._SPARSE_CAP + 1))  # C + 1 and m > 8(3k + 1): the sliding path
    @example(run_case(0))  # no candidate in the first chunk: skipped
    @example(boundary_case(0))  # m = 5(k + 1): 5-position blocks
    @example(boundary_case(-1))  # m < 5(k + 1): no prefilter
    @example(([5, 1, 4, 2, 3, 9, 0, 7], [2, 0, 3, 1], 1, "distinct"))  # 2-position blocks: no prefilter
    @example(([1, 1, 0, 2, 2, 0, 1], [0, 1, 1], 2, "general"))  # k >= m - 1: every window
    def check(case):
        text, pattern, k, mode = case
        n, m = len(text), len(pattern)
        want = match_naive(text, pattern, k, mode)
        routes.log.clear()
        routes.inner.clear()
        stats = MatchStats()
        assert match_all(text, pattern, k, mode, stats=stats) == want, case
        chunk_windows = code_ruled_out = 0
        dense = False  # True while the prefilter stages leave the current chunk dense
        for name, args, result in routes.log:
            if name == "_candidate_starts":
                dense = result is None
                if result is not None:
                    reached["sparse" if result else "skip"] += 1
                    reached["sparse at the cap"] += len(result) == matcher._SPARSE_CAP
            elif name == "_code_starts":
                dense = result is None
                reached[f"codes{' dense' if dense else ''} ({args[2]})"] += 1
                if result is not None:
                    code_ruled_out += args[4] - len(result)  # owned - kept
            elif name == "match_chunk":
                chunk, pidx = args[:2]
                if dense and pidx.mode == "distinct":
                    # a dense distinct chunk slides only where the direct scan
                    # would not read its whole windows
                    assert pidx.m > matcher._DIRECT_SPAN * (3 * k + 1)
                    reached["dense, sliding (distinct)"] += 1
                chunk_windows += min(pidx.m, len(chunk) - pidx.m + 1)
            elif name == "_decide_dense_chunk":
                owned, pidx = args[2:4]
                # only a dense distinct chunk whose windows the direct scan
                # would read whole
                assert dense and pidx.mode == "distinct"
                assert pidx.m <= matcher._DIRECT_SPAN * (3 * k + 1)
                reached["dense, decided together"] += 1
                chunk_windows += owned
            else:  # _decide_window
                window, pidx = args[:2]
                # a window decided alone is a candidate: a dense chunk
                # slides or is decided together
                assert len(window) == pidx.m and not dense
                chunk_windows += 1
        if m < matcher._MIN_BLOCK * (k + 1):
            reached["no prefilter"] += 1
            assert stats.prefiltered == 0
        # the windows the code filter rules out are among the prefiltered
        assert stats.code_ruled_out == code_ruled_out <= stats.prefiltered
        # windows the prefilter rules out, those decided alone and those the
        # sliding chunks and the chunks decided together own cover every
        # window once
        assert stats.prefiltered + chunk_windows == stats.windows == n - m + 1
        assert stats.filtered + stats.verified == stats.windows
        assert stats.occurrences == len(want)

    check()
    assert all(reached.values()), reached


@st.composite
def window_cases(draw):
    """(window, pattern, k, mode) of one length: the pattern is another
    shape, or the window with adjacent swaps or up to k + 1 values moved."""
    mode = draw(st.sampled_from(["distinct", "general"]))
    k = draw(st.integers(0, 3))
    m = draw(st.integers(1, 16))
    window = _any_shape(draw, m)
    how = draw(st.sampled_from(["shape", "swaps", "moved"]))
    if how == "shape":
        pattern = _any_shape(draw, m)
    elif how == "swaps":
        pattern = _adjacent_swaps(draw, window)
    else:
        pattern = list(window)
        lo, hi = min(window) - 2, max(window) + 2
        for j in draw(st.lists(st.integers(0, m - 1), max_size=k + 1)):
            pattern[j] = draw(st.integers(lo, hi))
    if mode == "distinct":  # break ties by position; strict orders stay
        window = [v * (m + 1) + j for j, v in enumerate(window)]
        pattern = [v * (m + 1) + j for j, v in enumerate(pattern)]
    return window, pattern, k, mode


@settings(max_examples=400, deadline=None)
@given(window_cases())
@example(([2, 4, 5, 3, 0, 1], [3, 4, 5, 2, 0, 1], 1, "distinct"))  # 3k mismatches, accepted
@example(([3, 1, 4, 0, 2], [3, 1, 0, 4, 2], 1, "distinct"))  # 3k mismatches, rejected
@example(([0, 1, 3, 2], [1, 3, 2, 0], 1, "distinct"))  # 3k + 1 mismatches
@example(([3, 1, 2, 4, 5, 0], [4, 0, 2, 3, 5, 1], 2, "distinct"))  # 3k, accepted
@example(([1, 0, 4, 6, 5, 2, 3], [0, 1, 2, 4, 6, 3, 5], 2, "distinct"))  # 3k + 1
@example(([1, 1, 1, 2, 1, 2], [0, 0, 0, 2, 2, 2], 1, "general"))  # 3k, accepted
@example(([1, 2, 2, 1, 2, 2, 0, 1], [1, 0, 2, 1, 2, 0, 0, 1], 1, "general"))  # 3k + 1
def test_decide_window_agrees_with_match_chunk_and_the_check(case):
    # the prefilter's windows are decided alone, with no sliding set-up, by
    # the rule match_chunk applies to an m-long chunk
    window, pattern, k, mode = case
    pidx = PatternIndex(pattern, mode)
    stats = MatchStats()
    got = matcher._decide_window(window, pidx, k, stats)
    assert got == bool(match_chunk(window, pidx, k)) == k_isomorphic_check(window, pattern, k, mode)
    if mode == "distinct":  # the patience pass decides every window: no signature filter
        kept = True
    else:
        d = len(signature_hamming(compute_signature(window, mode), pidx.ref.symbols).positions)
        kept = d <= 3 * k
    assert (stats.windows, stats.filtered, stats.verified, stats.occurrences) == (1, not kept, kept, got)
    assert stats.dyn_scans == stats.dyn_chunks == stats.prefiltered == 0


def _direct_route_case():
    """Random distinct text at m = 60, k = 2 with two planted copies of the
    pattern: at 701 with k values displaced (a match), at 1301 with k + 1
    (not one). The displaced values lie in the first of the k + 1 blocks,
    so both copies are prefilter candidates. Every chunk is skipped or
    decides its candidates alone."""
    rng = random.Random(53)
    text = rng.sample(range(10**6), 2000)
    pattern = rng.sample(range(10**6), 60)
    by_value = sorted(pattern)
    for start, displaced in ((700, 2), (1300, 3)):
        base = 10**7 * start  # above the background, and apart per copy
        copy = [base + 4 * v for v in pattern]
        for j in rng.sample(range(20), displaced):  # far from its own rank
            copy[j] = base + 4 * by_value[(by_value.index(pattern[j]) + 30) % 60] + 1
        text[start : start + 60] = copy
    return text, pattern, 2


def test_distinct_direct_route_builds_no_signature(monkeypatch):
    # a distinct-mode window decided alone reads only the pattern's value
    # order, so neither the pattern's reference nor any signature is built
    text, pattern, k = _direct_route_case()
    want = match_naive(text, pattern, k)
    assert want == [701]

    def refuse(*args):
        raise AssertionError("the distinct direct route built a signature")

    monkeypatch.setattr(matcher, "RefString", refuse)
    monkeypatch.setattr(matcher, "_class_walk", refuse)
    monkeypatch.setattr(matcher, "match_chunk", refuse)
    stats = MatchStats()
    assert match_all(text, pattern, k, stats=stats) == want
    # both planted copies reach the patience pass, and it rejects one
    assert (stats.verified, stats.occurrences) == (2, 1)
    assert stats.prefiltered == stats.filtered == stats.windows - 2


def test_general_direct_route_builds_the_reference_once(monkeypatch):
    # a general-mode window decided alone compares signatures, so the
    # pattern's reference is built at the first such window and kept
    text, pattern, k = _direct_route_case()
    builds = []
    ref_string = matcher.RefString

    def counted(symbols):
        builds.append(len(symbols))
        return ref_string(symbols)

    monkeypatch.setattr(matcher, "RefString", counted)
    monkeypatch.setattr(matcher, "match_chunk", None)  # no chunk slides
    stats = MatchStats()
    assert match_all(text, pattern, k, "general", stats=stats) == match_naive(text, pattern, k, "general")
    assert stats.windows - stats.prefiltered == 2 and stats.occurrences == 1
    assert builds == [60]  # at the first window decided alone, not again at the second
    # a fresh index builds its own, with each value class walked left to right
    for fresh in (pattern, [3, 1, 3, 3, 0, 1, 2, 3]):
        assert PatternIndex(fresh, "general").ref.symbols == compute_signature(fresh, "general")
    assert builds == [60, 60, 8]


def _count_builds(monkeypatch, *names):
    """A Counter of the builds of the named ``PatternIndex`` tables from now
    on. Each table keeps its kind of descriptor, so one that is not cached
    counts a build at every read."""
    builds = collections.Counter()
    for name in names:
        table = vars(PatternIndex)[name]
        build = table.func if isinstance(table, cached_property) else table.fget

        def counted(self, build=build, name=name):
            builds[name] += 1
            return build(self)

        wrapped = type(table)(counted)
        if isinstance(wrapped, cached_property):
            wrapped.__set_name__(PatternIndex, name)
        monkeypatch.setattr(PatternIndex, name, wrapped)
    return builds


def test_distinct_run_of_windows_decided_alone_builds_only_the_value_order(monkeypatch):
    # every chunk is skipped or decides its candidates alone, each by one
    # patience pass over ``by_order``: no table that verification, a chunk
    # decided together or a sliding chunk reads is built
    builds = _count_builds(monkeypatch, "by_order", "rank", "class_bounds", "ref", "links", "offsets")
    text, pattern, k = _direct_route_case()
    stats = MatchStats()
    assert match_all(text, pattern, k, stats=stats) == [701]
    assert stats.windows - stats.prefiltered == 2
    assert builds == {"by_order": 1}


def test_dense_chunks_share_the_links_and_offsets_built_once(monkeypatch, routes):
    # each dense chunk reads the pattern's edges and their offsets from the
    # index, which builds each at the first chunk and never again
    builds = _count_builds(monkeypatch, "links", "offsets", "rank", "class_bounds", "ref")
    inst = SHAPES["near-sorted-m200"].build()
    got = match_all(inst.text, inst.pattern, inst.k, inst.mode)
    assert len(got) == SHAPES["near-sorted-m200"].answer
    assert len(routes.calls("_decide_dense_chunk")) > 1
    assert builds == {"links": 1, "offsets": 1}


@pytest.mark.parametrize(
    "candidates, route",
    [(0, "skip"), (1, "sparse"), (7, "sparse"), (8, "dense")],
)
def test_prefilter_route_of_a_chunk_with_a_known_candidate_count(routes, candidates, route):
    # the first chunk holds exactly ``candidates`` increasing windows; the
    # rest of the decreasing text holds none. A chunk with up to 7
    # (_SPARSE_CAP, written out so that a changed cap fails here) decides
    # each alone, and one with 8 slides
    text, pattern, k, mode = run_case(candidates)
    m = len(pattern)
    stats = MatchStats()
    got = match_all(text, pattern, k, mode, stats=stats)
    assert got == match_naive(text, pattern, k, mode) == list(range(3, 3 + candidates))
    calls = routes.lengths("match_chunk")
    decided = routes.lengths("_decide_window")
    windows = len(text) - m + 1
    if route == "dense":
        assert calls == [2 * m] and decided == [] and stats.prefiltered == windows - m
    else:  # each candidate window decided alone, with no chunk
        assert calls == [] and decided == [m] * candidates and stats.prefiltered == windows - candidates
    assert stats.verified == candidates and stats.windows == windows


@pytest.mark.parametrize("m, prefiltered", [(9, False), (10, True)])
def test_prefilter_needs_five_positions_in_every_block(routes, m, prefiltered):
    # k = 1 cuts the pattern into two blocks. At m = 9 one block has 4
    # positions, below _MIN_BLOCK = 5 (written out so that a changed
    # minimum fails here), so every chunk takes the sliding path; at m = 10
    # both have 5, and on random text most chunks are skipped
    rng = random.Random(m)
    text = rng.sample(range(10**4), 20 * m)
    pattern = rng.sample(range(10**4), m)
    text[5 * m : 6 * m] = [10**4 + v for v in pattern]
    stats = MatchStats()
    assert match_all(text, pattern, 1, stats=stats) == match_naive(text, pattern, 1) == [5 * m + 1]
    calls = routes.calls("match_chunk")
    chunks = len(range(1, len(text) - m + 2, m))
    if prefiltered:
        assert len(calls) < chunks and stats.prefiltered > 0
    else:
        assert len(calls) == chunks and stats.prefiltered == 0


@pytest.mark.parametrize("m, alone", [(32, True), (33, False)])
def test_dense_distinct_chunk_decides_its_windows_alone_up_to_8_3k_plus_1(routes, m, alone):
    # near-sorted text against an increasing pattern at k = 1: every window
    # keeps a whole block, and every one within 2k comparison codes, so each
    # chunk is dense. At m = 32 = 8(3k + 1) (written out so that a changed
    # direct span or route bound fails here) the direct scan would read every
    # symbol of every window, so no chunk slides: each chunk decides its m
    # owned windows together; at m = 33 every chunk takes the sliding path
    n = 3 * m - 1  # two chunks, each owning m windows
    windows = n - m + 1
    text = list(range(n))
    for j in range(5, n - 1, 20):  # one or two adjacent swaps per window
        text[j], text[j + 1] = text[j + 1], text[j]
    pattern = list(range(m))
    stats = MatchStats()
    got = match_all(text, pattern, 1, stats=stats)
    assert got == match_naive(text, pattern, 1)
    calls = routes.lengths("match_chunk")
    decided = routes.lengths("_decide_window")
    assert 0 < len(got) < windows  # windows holding two swaps do not match
    assert stats.windows == windows and stats.prefiltered == 0
    together = [args[2] for _, args, _ in routes.calls("_decide_dense_chunk")]
    if alone:
        assert calls == [] and together == [m, m] and decided == [] and stats.verified == windows
    else:
        assert calls == [2 * m, 2 * m - 1] and together == [] and decided == []


def _displaced(draw, n):
    """range(n) with up to 4 values moved, each to any place."""
    values = list(range(n))
    for _ in range(draw(st.integers(0, 4))):
        values.insert(draw(st.integers(0, n - 1)), values.pop(draw(st.integers(0, n - 1))))
    return values


@st.composite
def dense_chunk_cases(draw):
    """(text, pattern, k, first, owned): a near-sorted or displaced pattern
    of 2 to 40 values, a text of up to 3m values of a ``_distinct_shape`` or
    displaced, and a run of window starts in it."""
    m = draw(st.integers(2, 40))
    k = draw(st.integers(0, 6))
    n = draw(st.integers(m, 3 * m))
    pattern = _adjacent_swaps(draw, range(m)) if draw(st.booleans()) else _displaced(draw, m)
    text = _distinct_shape(draw, n) if draw(st.booleans()) else _displaced(draw, n)
    first = draw(st.integers(0, n - m))
    return text, pattern, k, first, draw(st.integers(1, n - m + 1 - first))


@settings(max_examples=600, deadline=None)
@given(dense_chunk_cases())
# edge 1 deletes right and edge 3 left: the kept 3 > 2 need the patience pass
@example(([1, 3, 0, 5, 2, 4], list(range(6)), 2, 0, 1))
# edge 1 deletes left, but x_0 > x_2: the kept 1 > 0 need the patience pass
@example(([1, 3, 0, 2], list(range(4)), 1, 0, 1))
# adjacent broken edges 1 and 2 delete left then right: 1 < 3 < 5 is certified
@example(([1, 4, 3, 2, 5], list(range(5)), 2, 0, 1))
# the first edge deletes left and the last edge right: 1 < 2 < 4 < 6 is certified
@example(([3, 1, 2, 4, 6, 5], list(range(6)), 2, 0, 1))
def test_dense_chunk_decides_each_window_like_the_patience_pass(case):
    # every window that the chunk's broken-edge count and deletions decide,
    # and every one that they leave to the patience pass, gets its verdict
    text, pattern, k, first, owned = case
    pidx = PatternIndex(pattern, "distinct")
    m = len(pattern)
    stats = MatchStats()
    got = matcher._decide_dense_chunk(text, first, owned, pidx, k, stats)
    starts = range(first, first + owned)
    want = [s + 1 for s in starts if lis_deficit_at_most(pidx.by_order(text[s : s + m]), k)]
    assert got == want
    assert (stats.windows, stats.verified, stats.filtered, stats.occurrences) == (owned, owned, 0, len(want))


@pytest.mark.parametrize("mode", ["distinct", "general"])
@pytest.mark.parametrize("k", [1, 2])
def test_code_filter_rules_out_a_window_at_distance_2k_plus_1(routes, k, mode):
    # both planted windows lie in chunks whose block candidates are dense;
    # the code filter passes the window at 2k to _decide_window, which
    # accepts it, and rules out the window at 2k + 1 before any signature
    text, pattern, k, mode, near, far = planted_code_case(k, mode)
    m = len(pattern)
    assert _code_distance(text[near : near + m], pattern) == 2 * k
    assert _code_distance(text[far : far + m], pattern) == 2 * k + 1
    stats = MatchStats()
    got = match_all(text, pattern, k, mode, stats=stats)
    assert got == match_naive(text, pattern, k, mode)
    assert routes.calls("match_chunk") == []  # no chunk slides
    # (first, owned, starts) of each chunk the code filter read
    coded = [(args[3], args[4], starts) for _, args, starts in routes.calls("_code_starts")]
    decided = [args[0] for _, args, _ in routes.calls("_decide_window")]
    assert near + 1 in got and far + 1 not in got
    # the two chunks that hold them took the code route
    assert [first for first, _, _ in coded] == [0, m]
    assert all(starts is not None for _, _, starts in coded)
    assert far not in coded[0][2] and near in coded[1][2]
    assert text[near : near + m] in decided and text[far : far + m] not in decided
    assert stats.code_ruled_out == sum(owned - len(starts) for _, owned, starts in coded)
    assert stats.prefiltered == stats.windows - len(decided)


@pytest.mark.parametrize(
    "case, gate_offset, coded",
    [
        (planted_code_case(1, "general")[:4], -1, False),
        (planted_code_case(1, "general")[:4], 0, True),
        ((list(range(40)), list(range(10)), 0, "distinct"), 0, False),
    ],
    ids=["m above the gate", "m at the gate", "k = 0"],
)
def test_code_filter_runs_only_up_to_the_m_gate_and_above_k_0(monkeypatch, routes, case, gate_offset, coded):
    # the stage runs for m <= _MAX_CODE_M; at k = 0 the one block is the
    # whole pattern, and its finds already are the windows within 2k, so
    # the stage never runs, here on a chunk whose every window is a find
    text, pattern, k, mode = case
    monkeypatch.setattr(matcher, "_MAX_CODE_M", len(pattern) + gate_offset)
    assert match_all(text, pattern, k, mode) == match_naive(text, pattern, k, mode)
    assert bool(routes.calls("_code_starts")) == coded
