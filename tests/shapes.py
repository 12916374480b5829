"""Named adversarial instances, each with the ``match_all`` route it reaches.

Run it from any directory; pytest does not collect this file.
``python tests/shapes.py`` prints the catalogue's names, one a line, and
``python tests/shapes.py NAME`` writes that instance to standard output in
the instance-file format (``opmatch match --file``). CI compares
``opmatch match`` with ``--algorithm naive`` on every instance, and
``tests/test_shapes.py`` checks in-process that each one takes its route.

The routes, as the route test tells them from ``MatchStats`` and the calls
that ``match_all`` makes:

- ``candidates``: every chunk is skipped or decides its few block
  candidates alone; no comparison-code filter runs and no chunk slides;
- ``codes``: the comparison-code filter rules windows out of dense chunks,
  and no chunk slides;
- ``dense-together``: no chunk slides and no comparison-code filter runs,
  and dense chunks are decided together: the bit planes of their broken
  pattern edges certify all but at most 5% of the windows, which get the
  patience pass; only the chunks that the prefilter leaves sparse between
  runs hold other windows;
- ``direct``: chunks slide, and the direct scan decides every window they
  own, with no DynString scan;
- ``dynstring``: chunks slide, and their DynString decides windows.

The module also holds the small route cases that ``tests/test_matcher.py``
builds by hand: ``run_case``, ``boundary_case`` and ``planted_code_case``.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, NamedTuple

from opmatch import matcher
from opmatch.instances import Instance, generate_instance


class Shape(NamedTuple):
    name: str
    route: str  # one of the routes above
    # the occurrence starts, or their count where they are many
    answer: tuple[int, ...] | int
    build: Callable[[], Instance]


def _gen(n: int, m: int, k: int, mode: str, plant: int) -> Instance:
    """``opmatch gen --n n --m m --k k --mode mode --plant plant --seed 1``."""
    return generate_instance(random.Random(1), n, m, k, mode, plant)


def _monotone(m: int, k: int, mode: str, step: int = 1) -> Instance:
    """``seq 1 3000`` against ``seq 1 m``, both reversed at step -1: every
    window matches."""
    return Instance(list(range(1, 3001))[::step], list(range(1, m + 1))[::step], k, mode)


def _ties() -> Instance:
    """Near-sorted values that each occur three times, ``v // 3`` for v in
    0..2999 with 6 adjacent swaps, against the text's own stretch
    [1000, 1400) at k = 10 in general mode. The monotone shapes hold unique
    values; this one sends EQ symbols, value classes that straddle a chunk's
    position m and general reductions at m = 400 down the sliding path:
    1 732 of its 2 601 windows reach the DynString."""
    r = random.Random(5)
    text = [v // 3 for v in range(3000)]
    for _ in range(6):
        i = r.randrange(len(text) - 1)
        text[i], text[i + 1] = text[i + 1], text[i]
    return Instance(text, text[1000:1400], 10, "general")


def _zero_background() -> Instance:
    """general-mixed's shape: 10% of the values in 1..3 on zeros, k = 20,
    with three noisy copies of the pattern planted; block candidates are
    dense in every chunk, and the codes rule out all but 3 windows."""
    r = random.Random(1)

    def draw(n):
        return [r.randint(1, 3) if r.random() < 0.1 else 0 for _ in range(n)]

    text, pattern = draw(3000), draw(200)
    for s in (100, 1400, 2700):
        text[s : s + 200] = [r.randint(0, 3) if r.random() < 0.05 else v for v in pattern]
    return Instance(text, pattern, 20, "general")


def _planted() -> Instance:
    """Random distinct text, m = 500, k = 2, with two copies of the pattern
    planted: at 701 with exactly k values displaced, at 1901 with k + 1.
    Both displace only values in the first block, so the other blocks keep
    each copy a candidate: the patience pass accepts the one and rejects
    the other."""
    r = random.Random(1)
    text = r.sample(range(10**6), 3000)
    pattern = r.sample(range(500), 500)
    for s, displaced in ((700, 2), (1900, 3)):
        copy = [10**7 * s + 4 * v for v in pattern]
        for j in r.sample(range(150), displaced):
            copy[j] = 10**7 * s + 4 * ((pattern[j] + 250) % 500) + 1
        text[s : s + 500] = copy
    return Instance(text, pattern, 2, "distinct")


def _near_sorted() -> Instance:
    """distinct-verify's shape: sorted values with 2% adjacent swaps in text
    and pattern, m = 200, k = 10. The block prefilter leaves every chunk
    dense, and m <= 8(3k + 1) = 248, so each chunk is decided together,
    with no comparison-code stage."""
    r = random.Random(1)

    def swap_some(seq):
        for _ in range(len(seq) * 20 // 1000):
            i = r.randrange(len(seq) - 1)
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
        return seq

    pattern = swap_some(list(range(200)))
    text = swap_some(sorted(r.sample(range(10**6), 3000)))
    return Instance(text, pattern, 10, "distinct")


def _dense_runs() -> Instance:
    """Sorted values with 1% adjacent swaps, n = 2e4, against a pattern of
    40 with 2% of them, k = 2, and two stretches of 90 text values
    shuffled, at 9000 and 15000. The block prefilter leaves every chunk
    dense but one on each shuffled stretch and the text's last, which owns
    one window, and m <= 8(3k + 1) = 56, so the dense chunks are decided
    together, in runs: the first run reaches ``_DENSE_RUN`` = 8192 windows
    at 8200 and is decided there, the next two end before a chunk that a
    shuffled stretch leaves sparse, and the last before the last chunk."""
    r = random.Random(1)

    def swap_some(seq, per_mille):
        for _ in range(len(seq) * per_mille // 1000):
            i = r.randrange(len(seq) - 1)
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
        return seq

    pattern = swap_some(list(range(40)), 20)
    text = swap_some(list(range(0, 200_000, 10)), 10)
    for a in (9000, 15000):
        stretch = text[a : a + 90]
        r.shuffle(stretch)
        text[a : a + 90] = stretch
    return Instance(text, pattern, 2, "distinct")


def _short_runs() -> Instance:
    """``planted_code_case(1, "distinct")`` 200 times over, each copy's
    values above the last copy's: n = 14 400, m = 24, k = 1. In each copy
    the block prefilter leaves the two chunks of the planted windows dense
    and the chunk across the next copy sparse, and m <= 8(3k + 1) = 32, so
    the text holds 200 runs of 48 windows decided together, each split from
    the next: the catalogue's case of many short runs, each of which pays
    the route's fixed cost per call."""
    text, pattern, k, mode, _, _ = planted_code_case(1, "distinct")
    lift = max(text) - min(text) + 1
    return Instance([v + copy * lift for copy in range(200) for v in text], pattern, k, mode)


def _zigzag() -> Instance:
    """Criterion 7's zigzag at n = 3000, m = 300, k = 2: distinct values
    x * (length + 1) + i whose steps alternate down and up by a random
    size. Every chunk is dense through both prefilter stages, and m > 8(3k
    + 1) = 56, so the chunks slide, and their direct scans rule out every
    window. One copy of the pattern is planted at the last window, which
    the last chunk owns alone and decides by the patience pass: a window
    within 3k on the sliding path would need a DynString scan."""
    rng = random.Random(0xC7)

    def zigzag(length):
        out = []
        x = 0
        for i in range(length):
            x += rng.randint(1, 1000) * (1 if i % 2 else -1)
            out.append(x * (length + 1) + i)
        return out

    pattern = zigzag(300)
    text = zigzag(3000)
    lift = max(text) - min(pattern) + 1  # the copy lies above every text value
    text[-300:] = [lift + v for v in pattern]
    return Instance(text, pattern, 2, "distinct")


SHAPES = {
    shape.name: shape
    for shape in [
        Shape("gen-m30-distinct", "candidates", (469, 1004, 1512, 2022, 2534),
              lambda: _gen(3000, 30, 2, "distinct", 5)),
        Shape("gen-m30-general", "candidates", (465, 980, 1471, 2003, 2509),
              lambda: _gen(3000, 30, 2, "general", 5)),
        Shape("gen-m1000-distinct", "candidates", (668, 2382), lambda: _gen(4000, 1000, 2, "distinct", 2)),
        Shape("gen-m1000-general", "candidates", (671, 2378), lambda: _gen(4000, 1000, 2, "general", 2)),
        # m <= 8(3k + 1) = 56: the direct scan would read each window whole
        Shape("monotone-m30-distinct", "dense-together", 2971, lambda: _monotone(30, 2, "distinct")),
        Shape("monotone-m30-general", "direct", 2971, lambda: _monotone(30, 2, "general")),
        # every window matches, and the direct span 8(3k + 1) = 32 is
        # shorter than the window, so the direct scan cannot decide it
        Shape("monotone-m200-distinct", "dynstring", 2801, lambda: _monotone(200, 1, "distinct")),
        Shape("monotone-m200-general", "dynstring", 2801, lambda: _monotone(200, 1, "general")),
        # the pattern's signature is [4, ..., 4, 2], all positive, so the
        # suffix sort's past-the-end key must sort below every symbol; the
        # increasing run's signature holds negative symbols and never tests it
        Shape("decreasing-m200-distinct", "dynstring", 2801, lambda: _monotone(200, 1, "distinct", -1)),
        Shape("decreasing-m200-general", "dynstring", 2801, lambda: _monotone(200, 1, "general", -1)),
        Shape("ties-m400-general", "dynstring", 867, _ties),
        Shape("zero-background-m200", "codes", (101, 1401, 2701), _zero_background),
        Shape("planted-m500", "candidates", (701,), _planted),
        Shape("near-sorted-m200", "dense-together", 2712, _near_sorted),
        # past the cap of a run decided together, and runs split by sparse chunks
        Shape("dense-runs-m40", "dense-together", 19611, _dense_runs),
        Shape("short-runs-m24", "dense-together", 600, _short_runs),
        Shape("zigzag-m300", "direct", (2701,), _zigzag),
    ]
}


def run_case(candidates, m=10, start=2):
    """(text, pattern, k, mode): a decreasing text holding one increasing run
    whose increasing m-windows are exactly ``candidates`` window starts of
    the first chunk, against an increasing pattern at k = 0, where the one
    block is the whole pattern."""
    n = 4 * m
    length = m - 1 + candidates
    text = [3 * (n - i) for i in range(n)]
    base = 3 * (n - start - length)  # below the value after the run, above the one before
    text[start : start + length] = [base + 1 + j for j in range(length)]
    return text, list(range(m)), 0, "distinct"


def boundary_case(delta, k=1):
    """(text, pattern, k, mode): a random distinct text holding a copy of the
    pattern with one value moved, where m = 5(k + 1) + delta."""
    rng = random.Random(delta)
    m = matcher._MIN_BLOCK * (k + 1) + delta
    text = rng.sample(range(1000), 6 * m)
    pattern = rng.sample(range(1000), m)
    copy = [2000 + v for v in pattern]
    copy[m // 2] = 1500  # one mismatch at most
    text[m + 3 : 2 * m + 3] = copy
    return text, pattern, k, "distinct"


def planted_code_case(k, mode, m=None):
    """(text, pattern, k, mode, near, far): an increasing pattern of m
    values, 12(k + 1) unless given, with k peaks, and a decreasing text
    holding two increasing windows, each in a chunk of its own, whose long
    increasing runs make the blocks' candidates dense. The window at
    0-based start ``near`` dips where the pattern peaks: its comparisons
    differ in exactly 2k places, and it matches once the k peaks are
    dropped. The window at ``far`` dips once more, 2k + 1 places."""
    m = m or 12 * (k + 1)
    peaks = range(m - 2, m - 2 * k - 1, -2)
    pattern = list(range(m))
    near_copy = [10 * j for j in range(m)]
    for j in peaks:
        pattern[j] = 10 * m + j
        near_copy[j] = 10 * j - 15
    far_copy = list(near_copy)
    far_copy[1] = -5
    n = 3 * m
    text = [1000 * m + n - i for i in range(n)]
    far, near = 1, m + 1
    text[far : far + m] = [20 * m + v for v in far_copy]
    text[near : near + m] = near_copy
    return text, pattern, k, mode, near, far


def main(argv: list[str]) -> int:
    if not argv:
        print("\n".join(SHAPES))
        return 0
    if len(argv) > 1 or argv[0] not in SHAPES:
        print(f"usage: shapes.py [NAME], where NAME is one of: {', '.join(SHAPES)}", file=sys.stderr)
        return 2
    sys.stdout.write(SHAPES[argv[0]].build().to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
