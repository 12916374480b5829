import random
from bisect import bisect_left, bisect_right

import pytest

from opmatch.cli import main
from opmatch.instances import parse_instance
from opmatch.matcher import (
    PatternIndex,
    k_isomorphic_check,
    k_isomorphic_witness,
    match_all,
    match_naive,
)
from opmatch.seqcore import BitTrieSet, DuplicateValuesError
from opmatch.signature import compute_signature


def test_bittrie_basic_semantics():
    d = BitTrieSet(100)
    assert d.add(3) is True
    assert d.add(7) is True
    assert d.add(7) is False  # present add is a reported no-op
    assert len(d) == 2
    assert d.pred(5) == 3
    assert d.pred(3) == 3
    assert d.discard(3) is True
    assert d.discard(3) is False  # absent discard is a reported no-op
    assert d.pred(5) is None


@pytest.mark.parametrize("universe", [1, 255, 256, 257, 700, 70_000, 2**20])
def test_bittrie_matches_reference_on_random_interleavings(universe):
    # keys come from a fixed pool spread over the universe, so that words
    # fill from empty and empty again; queries go anywhere, past both ends too
    rng = random.Random(universe)
    pool = rng.sample(range(universe), min(universe, 600))
    d = BitTrieSet(universe)
    ref: list[int] = []  # the stored keys, sorted
    for _ in range(100_000):
        op = rng.randrange(4)
        if op == 3:
            x = rng.randrange(-2, universe + 2)
            i = bisect_right(ref, x)
            assert d.pred(x) == (ref[i - 1] if i else None)
            continue
        x = rng.choice(pool)
        i = bisect_left(ref, x)
        present = i < len(ref) and ref[i] == x
        if op <= 1:
            assert d.add(x) is not present
            if not present:
                ref.insert(i, x)
        else:
            assert d.discard(x) is present
            if present:
                del ref[i]
        assert len(d) == len(ref)
    # every key, read back through pred from the top of the universe
    keys = []
    x = d.pred(universe - 1)
    while x is not None:
        keys.append(x)
        x = d.pred(x - 1)
    assert keys == ref[::-1]


def test_bittrie_multilevel_universe():
    d = BitTrieSet(70_000)
    keys = [0, 1, 255, 256, 65_535, 65_536, 69_999]
    for x in keys:
        d.add(x)
    assert [d.pred(x) for x in keys] == keys
    assert d.pred(65_534) == 256
    assert d.pred(69_998) == 65_536
    assert d.pred(10**6) == 69_999  # queries past the universe clamp to its top
    # removing keys makes pred read the summary for an earlier word
    for x in (65_536, 65_535, 256):
        assert d.discard(x) is True
    assert d.pred(69_998) == 255
    assert len(d) == 4


def test_bittrie_rejects_out_of_universe():
    d = BitTrieSet(10)
    with pytest.raises(ValueError):
        d.add(10)


def test_duplicate_values_error_is_value_error():
    assert issubclass(DuplicateValuesError, ValueError)


TEXT = [1, 10, 6, 4, 8, 5, 7, 9, 3]
PATTERN = [1, 4, 2, 5, 11]


MODE_ENTRIES = {
    "match_all": lambda mode: match_all(TEXT, PATTERN, 1, mode),
    "match_naive": lambda mode: match_naive(TEXT, PATTERN, 1, mode),
    "k_isomorphic_check": lambda mode: k_isomorphic_check(TEXT[:5], PATTERN, 1, mode),
    "k_isomorphic_witness": lambda mode: k_isomorphic_witness(TEXT[:5], PATTERN, 1, mode),
    "PatternIndex": lambda mode: PatternIndex(PATTERN, mode),
    "compute_signature": lambda mode: compute_signature(PATTERN, mode),
    "parse_instance": lambda mode: parse_instance(f"text: 1 2\npattern: 1\nmode: {mode}\n"),
}


@pytest.mark.parametrize("entry", [*MODE_ENTRIES, "cli --mode"])
def test_every_entry_point_knows_the_same_mode_names(entry, capsys):
    # mode names are matched exactly, not folded to lower case
    if entry == "cli --mode":
        argv = ["match", "--text", " ".join(map(str, TEXT)), "--pattern", " ".join(map(str, PATTERN))]
        for mode in ("distinct", "general", "auto"):
            assert main([*argv, "--k", "1", "--mode", mode]) == 0
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--k", "1", "--mode", "DISTINCT"])
        assert exc.value.code == 2
        assert "invalid choice: 'DISTINCT'" in capsys.readouterr().err
        return
    call = MODE_ENTRIES[entry]
    for mode in ("distinct", "general", "auto"):
        call(mode)
    with pytest.raises(ValueError, match="unknown mode 'DISTINCT'"):
        call("DISTINCT")
