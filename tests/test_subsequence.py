import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opmatch import subsequence
from opmatch.subsequence import (
    WeightedPoint,
    WeightedSeqItem,
    chain_bruteforce,
    heaviest_chain,
    heaviest_increasing_subsequence,
    his_bruteforce,
    lis_deficit_at_most,
    lis_length_at_least,
)


def lis_length_dp(seq):
    """Quadratic reference for the strictly increasing subsequence length."""
    best = [0] * len(seq)
    for i, x in enumerate(seq):
        best[i] = 1 + max((best[j] for j in range(i) if seq[j] < x), default=0)
    return max(best, default=0)


def test_lis_decision_examples():
    assert lis_length_at_least([4, 5, 7, 9], 4) is True
    assert lis_length_at_least([4, 5, 8, 7, 9], 4) is True
    assert lis_length_at_least([3, 2, 1], 2) is False
    assert lis_length_at_least([1, 2, 3], 3) is True
    assert lis_length_at_least([], 0) is True


def test_lis_decision_matches_dp():
    rng = random.Random(3)
    for _ in range(400):
        seq = [rng.randint(0, 12) for _ in range(rng.randint(0, 18))]
        full = lis_length_dp(seq)
        for target in range(0, len(seq) + 2):
            assert lis_length_at_least(seq, target) == (full >= target)


@st.composite
def deficit_cases(draw):
    """(seq, k): distinct or repeated values, k from 0 to len(seq)."""
    if draw(st.booleans()):
        seq = draw(st.lists(st.integers(-40, 40), max_size=24, unique=True))
    else:
        seq = draw(st.lists(st.integers(0, 4), max_size=24))
    return seq, draw(st.integers(0, len(seq)))


@settings(max_examples=400, deadline=None)
@given(deficit_cases())
@example(([3, 1, 2, 4], 1))  # deficit exactly k: accepted
@example(([3, 2, 1, 4], 1))  # deficit k + 1: rejected
@example(([5, 1, 4, 2, 3, 6], 2))  # deficit exactly k
@example(([5, 4, 1, 3, 2, 6], 2))  # deficit k + 1
@example(([2, 2, 2, 2], 3))  # equal values never extend: deficit 3
@example(([2, 2, 2, 2], 2))
def test_lis_deficit_matches_lis_length(case):
    seq, k = case
    want = lis_length_at_least(seq, len(seq) - k)
    assert want == (len(seq) - lis_length_dp(seq) <= k)
    assert lis_deficit_at_most(seq, k) is want
    assert lis_deficit_at_most(iter(seq), k) is want


def test_lis_deficit_stops_at_the_first_value_over_budget(monkeypatch):
    # on a strictly decreasing input every value after the first misses, so
    # the pass reads the first, spends k bisects on the next k and returns
    # False at the (k + 1)-th miss, k + 2 values in; no answer depends on
    # the early return, so only the count of values read shows it
    bisects = []
    bisect_left = subsequence.bisect_left

    def counted_bisect(tails, x):
        bisects.append(x)
        return bisect_left(tails, x)

    monkeypatch.setattr(subsequence, "bisect_left", counted_bisect)
    for k in range(5):
        read = []

        def values():
            for x in range(20, 0, -1):
                read.append(x)
                yield x

        bisects.clear()
        assert lis_deficit_at_most(values(), k) is False
        assert len(read) == k + 2 and len(bisects) == k
        # an accept reads every value and bisects at most k times
        bisects.clear()
        assert lis_deficit_at_most([*range(19), *range(k)], k) is True
        assert len(bisects) == k
    assert lis_deficit_at_most([], 0) is True
    assert lis_deficit_at_most([1], -1) is False


def test_his_examples():
    weight, witness = heaviest_increasing_subsequence(
        [WeightedSeqItem(2, 5), WeightedSeqItem(1, 4), WeightedSeqItem(3, 1)]
    )
    assert weight == 6
    assert witness == [1, 3]
    weight, _ = heaviest_increasing_subsequence(
        [WeightedSeqItem(v, 1) for v in (1, 2, 3)]
    )
    assert weight == 3
    weight, witness = heaviest_increasing_subsequence(
        [WeightedSeqItem(3, 7), WeightedSeqItem(2, 9), WeightedSeqItem(1, 8)]
    )
    assert weight == 9
    assert witness == [2]


def test_his_empty_and_single():
    assert heaviest_increasing_subsequence([]) == (0, [])
    assert his_bruteforce([]) == 0
    assert his_bruteforce([WeightedSeqItem(5, 7)]) == 7


def test_his_equal_values_never_chain():
    weight, _ = heaviest_increasing_subsequence(
        [WeightedSeqItem(4, 2), WeightedSeqItem(4, 3)]
    )
    assert weight == 3


# The solvers bisect raw values, so they must be exact both on bounded
# non-negative int keys (case "int") and on any mutually comparable keys
# (case "mixed": -inf, floats and ints mixed, the way ``reduce_general``
# emits them).
_MIXED_KEYS = (float("-inf"), -2.5, -1, 0, 0.5, 3, 3.25, 7)


def _random_key(rng, keys, hi):
    if keys == "int":
        return rng.randint(0, hi)
    return rng.choice(_MIXED_KEYS[: hi + 1])


@pytest.mark.parametrize("keys", ["int", "mixed"])
def test_his_matches_bruteforce(keys):
    rng = random.Random(17)
    for _ in range(2000):
        ell = rng.randint(0, 10)
        items = [
            WeightedSeqItem(_random_key(rng, keys, 7), rng.randint(1, 9))
            for _ in range(ell)
        ]
        want = his_bruteforce(items)
        got, witness = heaviest_increasing_subsequence(items)
        assert got == want
        vals = [items[i - 1].value for i in witness]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert sum(items[i - 1].weight for i in witness) == got


def test_his_unit_weights_equal_lis():
    rng = random.Random(19)
    for _ in range(500):
        seq = [rng.randint(0, 9) for _ in range(rng.randint(0, 15))]
        items = [WeightedSeqItem(v, 1) for v in seq]
        assert heaviest_increasing_subsequence(items)[0] == lis_length_dp(seq)


def test_chain_examples():
    pts = [WeightedPoint(1, 1, 2), WeightedPoint(1, 1, 3), WeightedPoint(2, 2, 1)]
    assert heaviest_chain(pts)[0] == 6
    assert chain_bruteforce(pts) == 6
    pts = [WeightedPoint(1, 2, 5), WeightedPoint(2, 1, 5)]
    assert heaviest_chain(pts)[0] == 5
    pts = [WeightedPoint(1, 1, 1), WeightedPoint(2, 2, 1), WeightedPoint(3, 3, 1)]
    assert heaviest_chain(pts)[0] == 3


def test_chain_rejects_shared_single_coordinate():
    # sharing exactly one coordinate is not chainable
    assert heaviest_chain([WeightedPoint(5, 1, 1), WeightedPoint(5, 2, 1)])[0] == 1
    assert heaviest_chain([WeightedPoint(1, 5, 1), WeightedPoint(2, 5, 1)])[0] == 1


def test_chain_empty():
    assert heaviest_chain([]) == (0, [])
    assert chain_bruteforce([]) == 0


@pytest.mark.parametrize("keys", ["int", "mixed"])
def test_chain_matches_bruteforce(keys):
    rng = random.Random(23)
    for _ in range(2000):
        ell = rng.randint(0, 10)
        pts = [
            WeightedPoint(
                _random_key(rng, keys, 4), _random_key(rng, keys, 4), rng.randint(1, 9)
            )
            for _ in range(ell)
        ]
        want = chain_bruteforce(pts)
        got, chosen = heaviest_chain(pts)
        assert got == want
        assert sum(p.weight for p in chosen) == got
        assert chain_bruteforce(chosen) == got  # witness is itself a valid chain


def test_chain_permutation_invariant():
    rng = random.Random(29)
    for _ in range(300):
        pts = [
            WeightedPoint(rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 9))
            for _ in range(rng.randint(0, 12))
        ]
        want = heaviest_chain(pts)[0]
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert heaviest_chain(shuffled)[0] == want


def test_chain_tuple_coordinates():
    pts = [WeightedPoint((1, 2), (0, 1), 3), WeightedPoint((2, 0), (1, 0), 4)]
    assert heaviest_chain(pts)[0] == 7


def test_bruteforce_caps():
    with pytest.raises(ValueError):
        his_bruteforce([WeightedSeqItem(0, 1)] * 21)
    with pytest.raises(ValueError):
        chain_bruteforce([WeightedPoint(0, 0, 1)] * 21)


def test_solvers_take_plain_tuples():
    assert heaviest_increasing_subsequence([(2, 5), (1, 4), (3, 1)]) == (6, [1, 3])
    weight, chosen = heaviest_chain([(1, 1, 2), (1, 1, 3), (2, 2, 1)])
    assert weight == 6
    assert chosen == [(1, 1, 5), (2, 2, 1)]
    assert chosen[0].weight == 5


# ---------------------------------------------------------------------------
# beyond the brute-force cap: quadratic DP references, up to ~300 items
# ---------------------------------------------------------------------------

NEG_INF = float("-inf")


def his_dp(items):
    """O(l^2) reference: best weight of a strictly increasing subsequence
    ending at each item."""
    best = []
    for i, (v, w) in enumerate(items):
        best.append(w + max((best[j] for j in range(i) if items[j][0] < v), default=0))
    return max(best, default=0)


def chain_dp(points):
    """O(l^2) reference over the raw points (duplicates kept): in (x, y)
    order, each point extends the best chain of an earlier point that it
    equals or strictly dominates."""
    pts = sorted(points, key=lambda p: (p[0], p[1]))
    best = []
    for i, (x, y, w) in enumerate(pts):
        best.append(
            w
            + max(
                (
                    best[j]
                    for j in range(i)
                    if (pts[j][0], pts[j][1]) == (x, y) or (pts[j][0] < x and pts[j][1] < y)
                ),
                default=0,
            )
        )
    return max(best, default=0)


@st.composite
def shaped_values(draw, size):
    """``size`` values in one of the shapes the solvers must handle: all
    equal, strictly increasing, strictly decreasing, few distinct, wide
    random, or ints mixed with -inf (the reductions' floor coordinate)."""
    shape = draw(st.sampled_from(["equal", "increasing", "decreasing", "few", "wide", "neg-inf"]))
    if shape == "equal":
        return [draw(st.integers(-5, 5))] * size
    if shape in ("increasing", "decreasing"):
        start = draw(st.integers(-1000, 1000))
        steps = draw(st.lists(st.integers(1, 50), min_size=size, max_size=size))
        vals, acc = [], start
        for d in steps:
            acc += d
            vals.append(acc)
        return vals if shape == "increasing" else vals[::-1]
    if shape == "few":
        return draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if shape == "wide":
        return draw(st.lists(st.integers(-(10**9), 10**9), min_size=size, max_size=size))
    return draw(
        st.lists(st.one_of(st.just(NEG_INF), st.integers(-3, 3)), min_size=size, max_size=size)
    )


def shaped_weights(size):
    """Unit, small, or widely gapped weights; large gaps force staircase
    inserts between two entries that dominate neither."""
    return st.one_of(
        st.just([1] * size),
        st.lists(st.integers(1, 9), min_size=size, max_size=size),
        st.lists(st.sampled_from([1, 2, 1000, 10**6]), min_size=size, max_size=size),
    )


@st.composite
def his_instances(draw):
    size = draw(st.integers(0, 300))
    vals = draw(shaped_values(size))
    weights = draw(shaped_weights(size))
    return list(zip(vals, weights))


@st.composite
def chain_instances(draw):
    size = draw(st.integers(0, 300))
    xs = draw(shaped_values(size))
    ys = draw(shaped_values(size))
    weights = draw(shaped_weights(size))
    return list(zip(xs, ys, weights))


@settings(max_examples=150, deadline=None)
@given(his_instances())
def test_his_matches_quadratic_dp(items):
    got, witness = heaviest_increasing_subsequence(items)
    assert got == his_dp(items)
    assert witness == sorted(set(witness))
    assert all(1 <= i <= len(items) for i in witness)
    vals = [items[i - 1][0] for i in witness]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert sum(items[i - 1][1] for i in witness) == got


@settings(max_examples=150, deadline=None)
@given(chain_instances())
def test_chain_matches_quadratic_dp(points):
    got, chosen = heaviest_chain(points)
    assert got == chain_dp(points)
    assert sum(p.weight for p in chosen) == got
    totals = {}
    for x, y, w in points:
        totals[x, y] = totals.get((x, y), 0) + w
    for p, q in zip(chosen, chosen[1:]):
        assert p.x < q.x and p.y < q.y
    assert all(p.weight == totals[p.x, p.y] for p in chosen)
