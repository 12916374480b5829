"""Instance files: a line-oriented text format for (text, pattern, k, mode)
tuples plus a seeded generator that can plant true occurrences."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

from .seqcore import _validate_k, resolve_mode

__all__ = ["Instance", "parse_instance", "parse_int_list", "generate_instance"]

_KNOWN_KEYS = ("text", "pattern", "k", "mode", "planted")


def parse_int_list(raw: str) -> list[int]:
    """Whitespace/comma-separated signed decimal integers."""
    # int() also reads digit groups ("1_0") and non-ASCII digits ("٣", "４")
    if raw.isascii() and "_" not in raw:
        try:
            return list(map(int, raw.replace(",", " ").split()))
        except ValueError:
            pass
    raise ValueError(f"not an integer list: {raw.strip()!r}")


def _parse_int(raw: str) -> int:
    """One signed decimal integer, under ``parse_int_list``'s rule: the
    ``k:`` line and every integer flag of the CLI are read here."""
    try:
        (value,) = parse_int_list(raw.replace(",", "_"))  # "_" is refused, so a comma is too
    except ValueError:
        raise ValueError(f"not an integer: {raw.strip()!r}") from None
    return value


@dataclass
class Instance:
    text: list[int]
    pattern: list[int]
    k: int = 0
    mode: str = "auto"
    planted: list[int] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            "text: " + " ".join(map(str, self.text)),
            "pattern: " + " ".join(map(str, self.pattern)),
            f"k: {self.k}",
            f"mode: {self.mode}",
        ]
        if self.planted:
            lines.append("planted: " + " ".join(map(str, self.planted)))
        return "\n".join(lines) + "\n"


def parse_instance(raw: str) -> Instance:
    """Parse the writer's format back; unknown keys are rejected."""
    fields: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    if "text" not in fields or "pattern" not in fields:
        raise ValueError("instance needs both 'text:' and 'pattern:' lines")
    inst = Instance(
        text=parse_int_list(fields["text"]),
        pattern=parse_int_list(fields["pattern"]),
    )
    if "k" in fields:
        inst.k = _parse_int(fields["k"])
        _validate_k(inst.k)
    if "mode" in fields:
        inst.mode = fields["mode"]
        resolve_mode(inst.mode)  # rejects an unknown mode; "auto" stays unresolved
    if "planted" in fields:
        inst.planted = parse_int_list(fields["planted"])
    return inst


def generate_instance(
    rng: random.Random,
    n: int,
    m: int,
    k: int = 0,
    mode: str = "distinct",
    plant: int = 0,
) -> Instance:
    """Random instance; optionally overwrite ``plant`` non-overlapping windows
    with order-isomorphic copies of the pattern perturbed at <= min(k, m)
    positions, so each planted window is a true occurrence by construction.
    A count (n, m, k or plant) that is not an int raises TypeError, and a
    negative one ValueError, before anything is drawn.
    """
    for name, count in (("n", n), ("m", m), ("k", k), ("plant", plant)):
        _validate_k(count, name)
    if m < 1 or n < m:
        raise ValueError("need n >= m >= 1")
    if plant * m > n:
        raise ValueError("too many planted occurrences for the text length")
    flips = min(k, m)  # a window has m positions to perturb
    if mode == "distinct":
        pool = rng.sample(range(-(10**6), 10**6), n + m + plant * (m + flips))
        pattern = pool[:m]
        text = pool[m : m + n]
        spare = iter(pool[m + n :])  # read once, in order, by the planted windows
    elif mode == "general":
        sigma = max(2, min(6, m))
        pattern = [rng.randrange(sigma) for _ in range(m)]
        text = [rng.randrange(sigma) for _ in range(n)]
    else:
        raise ValueError("generate mode must be 'distinct' or 'general'")

    planted: list[int] = []
    if plant:
        classes = len(set(pattern))
        for start in _non_overlapping_slots(rng, n, m, plant):
            if mode == "distinct":
                window = _order_copy(pattern, sorted(islice(spare, m)))
            else:  # same equality classes, fresh increasing class values
                window = _order_copy(pattern, range(classes))
            perturbed = rng.sample(range(m), rng.randint(0, flips)) if flips else []
            for j in perturbed:
                if mode == "distinct":
                    window[j] = next(spare)
                else:
                    window[j] = rng.randrange(classes + 2)
            text[start - 1 : start - 1 + m] = window
            planted.append(start)
    return Instance(text=text, pattern=pattern, k=k, mode=mode, planted=sorted(planted))


def _order_copy(seq: Sequence[int], values: Sequence[int]) -> list[int]:
    """A copy of ``seq`` with its order and its equalities: each value of the
    r-th smallest value class of ``seq`` becomes ``values[r]``, which must
    increase."""
    rank = {v: r for r, v in enumerate(sorted(set(seq)))}
    return [values[rank[v]] for v in seq]


def _non_overlapping_slots(rng: random.Random, n: int, m: int, count: int) -> list[int]:
    """1-based window starts spaced at least m apart."""
    slack = n - count * m
    gaps = [0] * (count + 1)
    for _ in range(slack):
        gaps[rng.randrange(count + 1)] += 1
    starts = []
    pos = 1
    for t in range(count):
        pos += gaps[t]
        starts.append(pos)
        pos += m
    return starts
