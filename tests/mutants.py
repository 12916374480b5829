"""Mutation gate: every mutant below must make one of its named tests fail.

Run it from any directory with ``python tests/mutants.py``; pytest does not
collect this file. The named tests first run once against an unmutated copy
of ``src/`` and must pass there. Then, for each mutant, ``src/`` is copied
to a temporary directory, the mutant's old text, which must occur exactly
once in its file, is replaced by the new text, and the named tests run
against the copy with ``pytest -x`` under a time limit and an address-space
limit. Each run starts in the directory that holds its own copy of
``src/``, so Hypothesis keeps its example database there, and no failing
example found under one mutant replays under another. A failing test, a
timeout or a crash counts as killed. A mutant whose tests all pass
survived, and the script exits 1; so does an old text that no longer
occurs exactly once. A change that rewrites a mutated line updates its
mutant here.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
# a suffix sort whose ranks never separate grows a list every round until
# the process runs out of memory; the limit makes that a quick failure
MEMORY_BYTES = 2 * 2**30


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/opmatch
    old: str
    new: str
    tests: tuple[str, ...]  # node ids relative to the repository root


MUTANTS = [
    Mutant(
        "general-mode window decided alone: 3k - 1 cap",
        "matcher.py",
        "signature_hamming(sig, pidx.ref.symbols, 3 * k)",
        "signature_hamming(sig, pidx.ref.symbols, 3 * k - 1)",
        ("tests/test_matcher.py::test_decide_window_agrees_with_match_chunk_and_the_check",),
    ),
    Mutant(
        "general-mode window decided alone: 3k + 1 cap",
        "matcher.py",
        "signature_hamming(sig, pidx.ref.symbols, 3 * k)",
        "signature_hamming(sig, pidx.ref.symbols, 3 * k + 1)",
        ("tests/test_matcher.py::test_decide_window_agrees_with_match_chunk_and_the_check",),
    ),
    Mutant(
        "the reductions keep every position, not only the mismatches",
        "matcher.py",
        "return sorted(map(pidx.rank.__getitem__, mismatches))",
        "return sorted(map(pidx.rank.__getitem__, range(1, pidx.m + 1)))",
        ("tests/test_acceptance.py::test_filter_and_verification_bounds_in_k",),
    ),
    Mutant(
        "sliding verification reads every window at offset 0",
        "matcher.py",
        "stream.positions, k, offset=i - 1)",
        "stream.positions, k, offset=0)",
        ("tests/test_routes.py::test_every_route_decides_every_chunk_like_naive",),
    ),
    Mutant(
        "a reduction accepts a window shorter than m",
        "matcher.py",
        "if offset + m > len(window):",
        "if offset > len(window):",
        ("tests/test_matcher.py::test_reductions_check_their_window_offset_and_mismatches",),
    ),
    Mutant(
        "the mismatch range admits m + 1",
        "matcher.py",
        "max(mismatches) > m)",
        "max(mismatches) > m + 1)",
        ("tests/test_matcher.py::test_reductions_check_their_window_offset_and_mismatches",),
    ),
    Mutant(
        "the helper hands the text's mode to the index unchanged",
        "matcher.py",
        'PatternIndex(pattern, mode if text_mode == "distinct" else "general")',
        "PatternIndex(pattern, mode)",
        ("tests/test_matcher.py::test_match_chunk_follows_the_index_mode",),
    ),
    Mutant(
        "patience pass: deficit budget k - 1",
        "subsequence.py",
        "budget = k\n",
        "budget = k - 1\n",
        ("tests/test_subsequence.py::test_lis_deficit_matches_lis_length",),
    ),
    Mutant(
        "patience pass: deficit budget k + 1",
        "subsequence.py",
        "budget = k\n",
        "budget = k + 1\n",
        ("tests/test_subsequence.py::test_lis_deficit_matches_lis_length",),
    ),
    Mutant(
        "patience pass reads on past the budget",
        "subsequence.py",
        "        else:\n            return False\n    return True\n",
        "        else:\n            budget -= 1\n    return budget >= 0\n",
        ("tests/test_subsequence.py::test_lis_deficit_stops_at_the_first_value_over_budget",),
    ),
    Mutant(
        "distinct-mode window decided alone through the signature route",
        "matcher.py",
        "    if pidx.mode == \"distinct\":\n        found = lis_deficit_at_most(",
        "    if False:\n        found = lis_deficit_at_most(",
        ("tests/test_matcher.py::test_distinct_direct_route_builds_no_signature",),
    ),
    Mutant(
        "pattern reference rebuilt at every read",
        "matcher.py",
        "    @cached_property\n    def ref(self)",
        "    @property\n    def ref(self)",
        ("tests/test_matcher.py::test_general_direct_route_builds_the_reference_once",),
    ),
    Mutant(
        "pattern edges rebuilt at every read",
        "matcher.py",
        "    @cached_property\n    def links(self)",
        "    @property\n    def links(self)",
        ("tests/test_matcher.py::test_dense_chunks_share_the_links_and_offsets_built_once",),
    ),
    Mutant(
        "sliding chunk: 3k - 1 filter cap",
        "matcher.py",
        "SlidingSignature(chunk, pidx, 3 * k)",
        "SlidingSignature(chunk, pidx, 3 * k - 1)",
        ("tests/test_matcher.py::test_decide_window_agrees_with_match_chunk_and_the_check",),
    ),
    Mutant(
        "sliding chunk: 2k filter cap",
        "matcher.py",
        "SlidingSignature(chunk, pidx, 3 * k)",
        "SlidingSignature(chunk, pidx, 2 * k)",
        (
            "tests/test_routes.py::test_every_route_decides_every_chunk_like_naive",
            "tests/test_matcher.py::test_weakened_filter_cap_is_caught_on_every_canonical_chunk",
        ),
    ),
    Mutant(
        "suffix sort: past-the-end key min(symbols) - 1",
        "fragstring.py",
        "end = min(min(symbols), 0) - 1",
        "end = min(symbols) - 1",
        (
            "tests/test_fragstring.py::test_lcp_with_sparse_table_cut_at_zero_row[2x3]",
            "tests/test_fragstring.py::test_lcp_with_sparse_table_cut_at_zero_row[random-234]",
        ),
    ),
    Mutant(
        "suffix structures built eagerly at construction",
        "fragstring.py",
        "self._index: tuple[list[int], list[list[int]]] | None = None\n",
        "self._index = self._build_index()\n",
        ("tests/test_fragstring.py::test_suffix_structures_are_built_at_the_first_lcp_query",),
    ),
    Mutant(
        "prefilter from 4-position blocks",
        "matcher.py",
        "_MIN_BLOCK = 5\n",
        "_MIN_BLOCK = 4\n",
        ("tests/test_matcher.py::test_prefilter_needs_five_positions_in_every_block[9-False]",),
    ),
    Mutant(
        "prefilter from 6-position blocks",
        "matcher.py",
        "_MIN_BLOCK = 5\n",
        "_MIN_BLOCK = 6\n",
        ("tests/test_matcher.py::test_prefilter_needs_five_positions_in_every_block[10-True]",),
    ),
    Mutant(
        "sparse chunk cap 6",
        "matcher.py",
        "_SPARSE_CAP = 7\n",
        "_SPARSE_CAP = 6\n",
        ("tests/test_matcher.py::test_prefilter_route_of_a_chunk_with_a_known_candidate_count[7-sparse]",),
    ),
    Mutant(
        "sparse chunk cap 8",
        "matcher.py",
        "_SPARSE_CAP = 7\n",
        "_SPARSE_CAP = 8\n",
        ("tests/test_matcher.py::test_prefilter_route_of_a_chunk_with_a_known_candidate_count[8-dense]",),
    ),
    Mutant(
        "dense distinct chunk decided together only below 8(3k + 1)",
        "matcher.py",
        "m <= _DIRECT_SPAN * (3 * k + 1)",
        "m < _DIRECT_SPAN * (3 * k + 1)",
        ("tests/test_matcher.py::test_dense_distinct_chunk_decides_its_windows_alone_up_to_8_3k_plus_1[32-True]",),
    ),
    Mutant(
        "dense distinct chunk decided together up to 8(3k + 2)",
        "matcher.py",
        "m <= _DIRECT_SPAN * (3 * k + 1)",
        "m <= _DIRECT_SPAN * (3 * k + 2)",
        ("tests/test_matcher.py::test_dense_distinct_chunk_decides_its_windows_alone_up_to_8_3k_plus_1[33-False]",),
    ),
    Mutant(
        "dense chunk decided without the prefilter",
        "matcher.py",
        "together = bool(blocks) and mode",
        "together = mode",
        ("tests/test_matcher.py::test_prefilter_needs_five_positions_in_every_block[9-False]",),
    ),
    Mutant(
        "dense chunk counts its patience-pass windows twice",
        "matcher.py",
        "first + s + m], pidx, k, None)",
        "first + s + m], pidx, k, stats)",
        ("tests/test_matcher.py::test_dense_chunk_decides_each_window_like_the_patience_pass",),
    ),
    Mutant(
        "dense chunk certifies a window whose deletions two edges apart meet",
        "matcher.py",
        "bad |= left & (far | prev)",
        "bad |= left & far",
        (
            "tests/test_routes.py::test_every_route_decides_every_chunk_like_naive",
            "tests/test_matcher.py::test_dense_chunk_decides_each_window_like_the_patience_pass",
        ),
    ),
    Mutant(
        "dense chunk certifies a left deletion past a higher left neighbour",
        "matcher.py",
        "bad |= left & (far | prev)",
        "bad |= left & prev",
        ("tests/test_matcher.py::test_dense_chunk_decides_each_window_like_the_patience_pass",),
    ),
    Mutant(
        "dense chunk rejects windows at k broken edges",
        "matcher.py",
        "start = (1 << bits) - (k + 1)",
        "start = (1 << bits) - k",
        ("tests/test_matcher.py::test_dense_chunk_decides_each_window_like_the_patience_pass",),
    ),
    Mutant(
        "dense chunk leaves a right deletion's conflicts to the patience pass too",
        "matcher.py",
        "bad |= left & (far | prev)",
        "bad |= broken & (far | prev)",
        ("tests/test_shapes.py::test_shape_takes_its_route[near-sorted-m200]",),
    ),
    Mutant(
        "comparison-code filter: 2k - 1 threshold",
        "matcher.py",
        "m - 1, 2 * k)",
        "m - 1, 2 * k - 1)",
        (
            "tests/test_matcher.py::test_code_filter_rules_out_a_window_at_distance_2k_plus_1",
            "tests/test_matcher.py::test_match_all_equals_naive_through_every_prefilter_route",
        ),
    ),
    Mutant(
        "comparison-code filter only up to m = 199",
        "matcher.py",
        "_MAX_CODE_M = 1000\n",
        "_MAX_CODE_M = 199\n",
        ("tests/test_shapes.py::test_shape_takes_its_route[zero-background-m200]",),
    ),
    Mutant(
        "advance writes the list, not through replace, after the first scan",
        "signature.py",
        "self.dyn.replace(p, sym)",
        "mirror[p - 1] = sym",
        ("tests/test_signature.py::test_tiling_holds_after_every_advance",),
    ),
    Mutant(
        "advance writes through replace before the first scan",
        "signature.py",
        "if scanned:\n",
        "if True:\n",
        ("tests/test_signature.py::test_tiling_holds_after_every_advance",),
    ),
    Mutant(
        "union-find seeded with every rank alive",
        "signature.py",
        "up[v] = v if last[v] else up[v - 1]",
        "up[v] = v",
        ("tests/test_signature.py::test_window_predecessors_match_bisect",),
    ),
    Mutant(
        "signature path with ties by ascending position",
        "signature.py",
        "sorted(range(len(seq) - 1, -1, -1), key=seq.__getitem__)",
        "sorted(range(len(seq)), key=seq.__getitem__)",
        (
            "tests/test_signature.py::test_general_mode_with_repeats",
            "tests/test_matcher.py::test_reductions_decide_like_subset_oracle",
            "tests/test_matcher.py::test_index_tables_follow_the_one_path_order",
        ),
    ),
    Mutant(
        "DynString scan walks every symbol: matched runs are never merged",
        "fragstring.py",
        "        first = fulls[0]\n",
        "        return\n        first = fulls[0]\n",
        ("tests/test_acceptance.py::test_per_window_cost_is_flat_in_m",),
    ),
    Mutant(
        "DynString scan records a fragment cut by a mismatch as matched whole",
        "fragstring.py",
        "            elif s >= anchor:\n",
        "            else:\n",
        ("tests/test_fragstring.py::test_randomized_shadow_equivalence",),
    ),
    Mutant(
        "DynString scan compacts a gap closed by a mismatch only from four pieces",
        "fragstring.py",
        "                if len(gap_fulls) >= 3:\n",
        "                if len(gap_fulls) >= 4:\n",
        ("tests/test_fragstring.py::test_compaction_layout_of_a_scan_from_inside_a_fragment",),
    ),
    Mutant(
        "fragment count off by one",
        "fragstring.py",
        "return len(self._frag) + self.n - sum(",
        "return len(self._frag) + self.n + 1 - sum(",
        ("tests/test_fragstring.py::test_dyn_init_roundtrip_and_fragment_count",),
    ),
    Mutant(
        "integers read with digit groups",
        "instances.py",
        'if raw.isascii() and "_" not in raw:',
        "if raw.isascii():",
        ("tests/test_cli.py::test_parse_int_list_formats",),
    ),
    Mutant(
        "order copy: each position is its own class",
        "instances.py",
        "rank = {v: r for r, v in enumerate(sorted(set(seq)))}\n    return [values[rank[v]] for v in seq]\n",
        "rank = {j: r for r, j in enumerate(sorted(range(len(seq)), key=seq.__getitem__))}\n"
        "    return [values[rank[j]] for j in range(len(seq))]\n",
        ("tests/test_cli.py::test_order_copy_keeps_order_and_equalities",),
    ),
    Mutant(
        "self-test: a suite that raises aborts the run",
        "selftest.py",
        "        try:\n            bad = suite(rng, iterations)\n        except Exception as exc:\n"
        "            bad = f\"{type(exc).__name__}: {exc}\"\n",
        "        bad = suite(rng, iterations)\n",
        ("tests/test_cli.py::test_selftest_reports_a_suite_that_raises_and_runs_the_rest",),
    ),
    Mutant(
        "self-test: a returned counterexample is reported as OK",
        "selftest.py",
        "            bad = suite(rng, iterations)\n",
        "            bad = suite(rng, iterations) and None\n",
        ("tests/test_cli.py::test_selftest_catches_weakened_filter",),
    ),
    Mutant(
        "bit trie: pred's summary mask takes in the query's own word",
        "seqcore.py",
        "below = self._summary & ((1 << i) - 1)",
        "below = self._summary & ((2 << i) - 1)",
        ("tests/test_seqcore.py::test_bittrie_matches_reference_on_random_interleavings[70000]",),
    ),
    Mutant(
        "bit trie: discard leaves the summary bit of an emptied word set",
        "seqcore.py",
        "            self._summary ^= 1 << i\n",
        "            pass\n",
        ("tests/test_seqcore.py::test_bittrie_matches_reference_on_random_interleavings[70000]",),
    ),
    Mutant(
        "bit trie: pred's word mask leaves out the query itself",
        "seqcore.py",
        "w = self._words[i] & ((2 << (x & _LOW)) - 1)",
        "w = self._words[i] & ((1 << (x & _LOW)) - 1)",
        ("tests/test_seqcore.py::test_bittrie_basic_semantics",),
    ),
    Mutant(
        "SlidingSignature accepts a float cap",
        "signature.py",
        '_validate_k(limit, "limit")',
        '_validate_k(int(limit), "limit")',
        ("tests/test_signature.py::test_every_scan_limit_is_a_count",),
    ),
    Mutant(
        "direct span one block short: 8 * limit",
        "signature.py",
        "min(m, _DIRECT_SPAN * (limit + 1))",
        "min(m, _DIRECT_SPAN * limit)",
        ("tests/test_signature.py::test_direct_scan_decides_every_window_within_its_span",),
    ),
    Mutant(
        "DynString accepts a float limit",
        "fragstring.py",
        '_validate_k(limit, "limit")',
        '_validate_k(int(limit), "limit")',
        ("tests/test_signature.py::test_every_scan_limit_is_a_count",),
    ),
    Mutant(
        "shared sequence check skips its distinct-values loop",
        "seqcore.py",
        'if mode == "distinct":  # "auto" resolves to it only on unique values',
        "if False:",
        ("tests/test_matcher.py::test_distinct_values_checked_only_when_distinct_is_asked",),
    ),
]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def _run_tests(src: Path, tests: tuple[str, ...]) -> str:
    """"passed", "failed" or "timeout" for ``tests`` run against ``src``.
    The tests run from the directory that holds ``src``, where Hypothesis
    keeps this run's examples and no other run's, and ``opmatch`` must
    import from ``src``."""
    work = src.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("HYPOTHESIS_STORAGE_DIRECTORY", None)  # one set directory would serve every run
    where = subprocess.run(
        [sys.executable, "-c", "import opmatch; print(opmatch.__file__)"],
        cwd=work, env=env, capture_output=True, text=True, check=True,
    ).stdout
    if not Path(where.strip()).is_relative_to(src):
        raise RuntimeError(f"opmatch imports from {where.strip()}, not from {src}")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += [str(ROOT / t) for t in tests]
    try:
        done = subprocess.run(
            cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S, preexec_fn=_limit_memory
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    problems = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        clean = work / "clean" / "src"
        shutil.copytree(ROOT / "src", clean)
        named = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        start = time.perf_counter()
        verdict = _run_tests(clean, named)
        print(f"unmutated: named tests {verdict} ({time.perf_counter() - start:.1f} s)")
        if verdict != "passed":
            return 1  # a test that fails without a mutant kills nothing
        for index, mutant in enumerate(MUTANTS):
            src = work / f"mutant{index}" / "src"
            shutil.copytree(ROOT / "src", src)
            path = src / "opmatch" / mutant.file
            text = path.read_text()
            found = text.count(mutant.old)
            if found != 1:
                print(f"{mutant.name}: old text occurs {found} times in {mutant.file}, not once")
                problems += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            verdict = _run_tests(src, mutant.tests)
            killed = verdict != "passed"
            problems += not killed
            status = f"killed ({verdict})" if killed else "SURVIVED"
            print(f"{mutant.name}: {status} ({time.perf_counter() - start:.1f} s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
