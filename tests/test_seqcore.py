import random

import pytest

from opmatch.seqcore import (
    DuplicateValuesError,
    make_key_set,
    rank_compress,
    sorting_permutation,
)


def test_rank_compress_distinct_example():
    compressed, info = rank_compress([10, 6, 4, 8])
    assert compressed == [4, 2, 1, 3]
    assert info.rank == [3, 1, 0, 2]
    assert info.equal_rank == [0, 0, 0, 0]
    assert info.rep_count == [1, 1, 1, 1]


def test_rank_compress_identity_on_ranks():
    compressed, _ = rank_compress([1, 2, 3])
    assert compressed == [1, 2, 3]


def test_rank_compress_with_repeats():
    compressed, info = rank_compress([5, 5, 2])
    assert compressed == [2, 2, 1]
    assert info.equal_rank == [0, 1, 0]
    assert info.rep_count == [2, 2, 1]


def test_rank_compress_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        seq = [rng.randint(-50, 50) for _ in range(rng.randint(0, 40))]
        compressed, _ = rank_compress(seq)
        again, _ = rank_compress(compressed)
        assert again == compressed


def test_rank_compress_preserves_all_pairwise_relations():
    rng = random.Random(6)
    for _ in range(200):
        seq = [rng.randint(-20, 20) for _ in range(rng.randint(0, 25))]
        compressed, _ = rank_compress(seq)
        for i in range(len(seq)):
            for j in range(len(seq)):
                assert (seq[i] < seq[j]) == (compressed[i] < compressed[j])
                assert (seq[i] == seq[j]) == (compressed[i] == compressed[j])


def test_sorting_permutation_examples():
    assert sorting_permutation([4, 8, 5, 7, 9]) == [1, 3, 4, 2, 5]
    assert sorting_permutation([1, 2, 3]) == [1, 2, 3]
    assert sorting_permutation([3, 3]) == [1, 2]


def test_sorting_permutation_sorts_by_value_then_position():
    rng = random.Random(7)
    for _ in range(100):
        seq = [rng.randint(0, 10) for _ in range(rng.randint(0, 30))]
        perm = sorting_permutation(seq)
        decorated = [(seq[p - 1], p) for p in perm]
        assert decorated == sorted(decorated)


@pytest.mark.parametrize("backend", ["bittrie", "sorted"])
def test_dict_basic_semantics(backend):
    d = make_key_set(100, backend)
    assert d.add(3) is True
    assert d.add(7) is True
    assert d.add(7) is False  # present add is a reported no-op
    assert len(d) == 2
    assert d.pred(5) == 3
    assert d.succ(7) == 7  # inclusive bound
    assert d.pred(3) == 3
    assert d.discard(3) is True
    assert d.discard(3) is False  # absent discard is a reported no-op
    assert d.pred(5) is None
    assert d.succ(0) == 7
    assert d.min() == 7 and d.max() == 7


@pytest.mark.parametrize("backend", ["bittrie", "sorted"])
def test_dict_matches_reference_on_random_interleavings(backend):
    rng = random.Random(11)
    universe = 700
    d = make_key_set(universe, backend)
    ref: set[int] = set()
    for _ in range(100_000):
        op = rng.randrange(7)
        x = rng.randrange(universe)
        if op <= 1:
            assert d.add(x) == (x not in ref)
            ref.add(x)
        elif op == 2:
            assert d.discard(x) == (x in ref)
            ref.discard(x)
        elif op == 3:
            want = max((y for y in ref if y <= x), default=None)
            assert d.pred(x) == want
        elif op == 4:
            want = min((y for y in ref if y >= x), default=None)
            assert d.succ(x) == want
        elif op == 5:
            assert (x in d) == (x in ref)
        else:
            assert d.min() == (min(ref) if ref else None)
            assert d.max() == (max(ref) if ref else None)
    assert sorted(ref) == list(d)
    assert len(d) == len(ref)


def test_bittrie_multilevel_universe():
    d = make_key_set(70_000, "bittrie")
    keys = [0, 1, 255, 256, 65_535, 65_536, 69_999]
    for x in keys:
        d.add(x)
    assert list(d) == keys
    assert d.pred(65_534) == 256
    assert d.succ(65_537) == 69_999
    assert d.pred(69_998) == 65_536


def test_bittrie_rejects_out_of_universe():
    d = make_key_set(10, "bittrie")
    with pytest.raises(ValueError):
        d.add(10)


def test_duplicate_values_error_is_value_error():
    assert issubclass(DuplicateValuesError, ValueError)
