import random

import pytest

from opmatch.seqcore import DuplicateValuesError, make_key_set


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
