"""Spans around the program's layer entry points, recorded from outside.

``Tracer.install`` replaces module attributes and class methods of the
program with wrappers that record one span per call: (id, parent id,
layer, start ns, end ns). Spans stay in memory until ``aggregate`` folds
them into calls, busy time and self time per layer, and ``dump`` writes
them out. Probes read a call's arguments and result after its span has
closed, so their cost stays out of every layer's time.
"""

from __future__ import annotations

import gzip
import itertools
import time
from collections import defaultdict

# (module, attribute path, layer). Patching the names the callers look up
# (cli.parse_instance, matcher.heaviest_chain, ...) traces only the calls
# made by the matching pipeline, not those made by the oracles.
TARGETS = [
    ("cli", "parse_instance", "instances.parse"),
    ("matcher", "PatternIndex", "matcher.pattern_index"),
    ("fragstring", "RefString.__init__", "fragstring.refstring"),
    ("signature", "SlidingSignature.__init__", "signature.chunk_setup"),
    ("signature", "SlidingSignature.advance", "signature.advance"),
    ("signature", "SlidingSignature.first_mismatches", "fragstring.filter"),
    ("matcher", "match_chunk", "matcher.chunk"),
    ("matcher", "verify_window", "matcher.verify"),
    ("matcher", "reduce_distinct", "matcher.reduce"),
    ("matcher", "reduce_general", "matcher.reduce"),
    ("matcher", "heaviest_increasing_subsequence", "subsequence.solve"),
    ("matcher", "heaviest_chain", "subsequence.solve"),
]
ROOT_LAYER = "cli.match"


def _lookup(owner, path: str):
    """``owner.a.b`` for path ``a.b`` (``owner`` for ""), or None when a part is missing."""
    for part in filter(None, path.split(".")):
        owner = getattr(owner, part, None)
    return owner


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        self._last_items = 0  # items of the reduction inside the current verify_window
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, fn, probe=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, layer, t0, t1))
            if probe is not None:
                probe(args, result)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every target. Raises, wrapping nothing, when the program no
        longer has one of them: its layer would otherwise read 0 calls."""
        missing = [f"{module}.{path}" for module, path, _ in TARGETS if _lookup(modules[module], path) is None]
        if missing:
            raise RuntimeError(f"trace targets not found in the program: {', '.join(missing)}")
        probes = {
            "fragstring.filter": self._probe_filter,
            "matcher.verify": self._probe_verify,
            "matcher.reduce": self._probe_reduce,
        }
        for module, path, layer in TARGETS:
            owner_path, _, name = path.rpartition(".")
            owner = _lookup(modules[module], owner_path)
            original = getattr(owner, name)
            self._restore.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original, probes.get(layer)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def root(self, fn, *args):
        """Call ``fn`` under the root span."""
        return self.wrap(ROOT_LAYER, fn)(*args)

    # probes: args[0] is ``self`` for the wrapped methods
    def _probe_filter(self, args, stream) -> None:
        c = self.counts
        c["filter_truncated"] += stream.truncated
        c["filter_mismatches"] += len(stream.positions)
        c["filter_fragments"] += args[0].dyn.fragment_count()

    def _probe_reduce(self, args, items) -> None:
        self.counts["reduce_items"] += len(items)
        self._last_items = len(items)

    def _probe_verify(self, args, accepted) -> None:
        """verify_window(window, pidx, mismatches, k); its reduction's probe
        has already run."""
        _, pidx, mismatches, k = args
        item_cap = 3 * k + 1 if pidx.mode == "distinct" else 3 * (3 * k + 1)
        self.counts["verify_accepted"] += bool(accepted)
        self.counts["bound_violations"] += (len(mismatches) > 3 * k) + (self._last_items > item_cap)
        self._last_items = 0

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy_s (sum of span durations) and self_s (busy
        time not covered by child spans)."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        layers: dict[str, dict[str, float]] = {}
        for sid, _, layer, t0, t1 in self.spans:
            agg = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += (t1 - t0) / 1e9
            agg["self_s"] += (t1 - t0 - child_ns[sid]) / 1e9
        return layers

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tlayer\tstart_ns\tend_ns\n")
            fh.writelines(f"{s}\t{p}\t{layer}\t{t0}\t{t1}\n" for s, p, layer, t0, t1 in self.spans)
