"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from opmatch import cli, fragstring, matcher, signature  # noqa: E402
from opmatch.matcher import match_naive  # noqa: E402

from run import Checker  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import SPECS, generate, reference_answer  # noqa: E402

# Small instances of each workload's shape, sized so that some windows
# match and some do not.
SMALL = {
    "distinct-filter": {"n": 300, "m": 12, "k": 2, "plant": 4},
    "distinct-verify": {"n": 300, "m": 24, "k": 2, "swaps_per_mille": 60},
    "general-mixed": {"n": 300, "m": 24, "k": 2, "plant": 3, "nonzero_per_mille": 200},
    "large-pattern": {"n": 200, "m": 60, "k": 2, "plant": 1},
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generators_are_deterministic_per_seed(name):
    first = generate(name, 7).to_text()
    assert generate(name, 7).to_text() == first
    assert generate(name, 8).to_text() != first


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reference_answer_agrees_with_naive_matcher(name):
    outcomes = set()
    for seed in range(12):
        inst = generate(name, seed, **SMALL[name])
        ref = reference_answer(inst)
        assert ref == match_naive(inst.text, inst.pattern, inst.k, inst.mode)
        assert set(inst.planted) <= set(ref)
        outcomes.update(i in ref for i in range(1, inst.windows + 1))
    assert outcomes == {True, False}


def doctored(answer: list[int], windows: int) -> tuple[list[int], list[int]]:
    extra = next(i for i in range(1, windows + 1) if i not in answer)
    return answer[1:], sorted(answer + [extra])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checker_flags_doctored_answers(name):
    inst = generate(name, 3, **SMALL[name])
    answer = reference_answer(inst)
    checker = Checker(inst, answer, "test")
    assert checker.check(0, str(answer)) == []
    dropped, extra = doctored(answer, inst.windows)
    assert checker.check(0, str(dropped))
    assert checker.check(0, str(extra))
    assert checker.check(1, str(answer))  # exit code says "not found"
    assert checker.check(0, "garbage")


def test_oracle_sample_alone_flags_doctored_answers():
    # Few enough windows that the sample covers all of them, and a checker
    # whose reference is itself wrong: only the oracle can object.
    inst = generate("distinct-filter", 1, n=15, m=8, k=1, plant=1)
    assert inst.windows <= 8
    answer = reference_answer(inst)
    for bad in doctored(answer, inst.windows):
        checker = Checker(inst, bad, "test")
        assert any("oracle" in r for r in checker.check(0 if bad else 1, str(bad)))


def test_tracer_wraps_every_target_and_restores_them(tmp_path, capsys):
    inst = generate("distinct-filter", 2, **SMALL["distinct-filter"])
    path = tmp_path / "inst.txt"
    path.write_text(inst.to_text())
    modules = {"cli": cli, "fragstring": fragstring, "matcher": matcher, "signature": signature}
    before = matcher.match_chunk
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert len(tracer._restore) == len(TARGETS)
        rc = tracer.root(cli.main, ["match", "--file", str(path), "--json"])
    finally:
        tracer.uninstall()
    assert matcher.match_chunk is before
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == reference_answer(inst)
    layers = tracer.aggregate()
    assert layers["fragstring.filter"]["calls"] == inst.windows
    assert layers["signature.advance"]["calls"] == inst.windows - layers["matcher.chunk"]["calls"]
    assert layers["matcher.verify"]["calls"] >= len(inst.planted)
    assert tracer.counts["bound_violations"] == 0
    root = layers["cli.match"]
    assert root["calls"] == 1
    assert sum(agg["self_s"] for agg in layers.values()) == pytest.approx(root["busy_s"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distinct-filter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_refuses_a_program_without_a_target(monkeypatch):
    monkeypatch.delattr(matcher, "verify_window")
    before = matcher.match_chunk
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="matcher.verify_window"):
        tracer.install({"cli": cli, "fragstring": fragstring, "matcher": matcher, "signature": signature})
    assert matcher.match_chunk is before


def test_tracer_counts_paper_bound_violations():
    tracer = Tracer()
    distinct = type("Index", (), {"mode": "distinct"})()
    general = type("Index", (), {"mode": "general"})()
    for pidx, items, violations in [(distinct, 7, 0), (distinct, 8, 1), (general, 21, 1), (general, 22, 2)]:
        tracer._probe_reduce((), [None] * items)
        tracer._probe_verify(([], pidx, [0] * 6, 2), True)
        assert tracer.counts["bound_violations"] == violations
    tracer._probe_verify(([], distinct, [0] * 7, 2), True)  # 7 > 3k mismatches
    assert tracer.counts["bound_violations"] == 3
