"""The opmatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It generates the workload from the
seed, writes the instance file and decides every window independently
(untimed set-up), times ``PatternIndex`` builds, then starts
``opmatch match --file <instance> --json`` calls, each in a fresh process,
while any of the S seconds are left, and checks every call's output. With --trace 1 it alternates
untraced and traced calls and reports per-layer metrics instead. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; ``attempted`` counts match calls and
``failed`` the calls whose output or traced bounds failed a check. Metric
names and units come from BENCHMARK.json; README.md explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ROOT_LAYER, TARGETS
from worker import BACKEND

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_CALLS = 3  # untraced calls per run, however long each takes
SAMPLE = 8  # reported and unreported windows each re-decided by the program's oracle
CALL_TIMEOUT = 120


def digest(occurrences: list[int]) -> str:
    return hashlib.sha256(json.dumps(occurrences).encode()).hexdigest()[:16]


class Checker:
    """Decides whether one call's output is correct: the exit code fits the
    output, every planted position is reported, the answer equals the
    reference answer (by digest), and a seeded sample of reported and
    unreported windows agrees with the program's ``k_isomorphic_check``."""

    def __init__(self, inst, reference: list[int], seed: str):
        self.inst = inst
        self.reference = reference
        self.digest = digest(reference)
        self._seed = seed
        self._sampled: dict[str, list[str]] = {}

    def check(self, rc: int, output: str) -> list[str]:
        try:
            occ = json.loads(output)
        except ValueError:
            return [f"exit code {rc}, output is not JSON"]
        if not isinstance(occ, list) or not all(type(p) is int for p in occ):
            return ["output is not a list of positions"]
        reasons = []
        if rc != (0 if occ else 1):
            reasons.append(f"exit code {rc} with {len(occ)} occurrences")
        missing = sorted(set(self.inst.planted) - set(occ))
        if missing:
            reasons.append(f"planted positions not reported: {missing[:5]}")
        d = digest(occ)
        if d != self.digest:
            got, want = set(occ), set(self.reference)
            reasons.append(
                f"digest {d} != reference {self.digest} "
                f"({len(got - want)} extra, {len(want - got)} missing)"
            )
        if d not in self._sampled:
            self._sampled[d] = self._oracle_sample(occ)
        return reasons + self._sampled[d]

    def _oracle_sample(self, occ: list[int]) -> list[str]:
        from opmatch.matcher import k_isomorphic_check

        inst, m = self.inst, len(self.inst.pattern)
        rng = random.Random(f"sample:{self._seed}")
        reported = set(occ)
        others = [i for i in range(1, inst.windows + 1) if i not in reported]
        picks = rng.sample(sorted(reported), min(SAMPLE, len(reported)))
        picks += rng.sample(others, min(SAMPLE, len(others)))
        return [
            f"oracle disagrees at window {i}"
            for i in picks
            if k_isomorphic_check(inst.text[i - 1 : i - 1 + m], inst.pattern, inst.k, inst.mode) != (i in reported)
        ]


def call_worker(*argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPMATCH_DICT_BACKEND=BACKEND, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        capture_output=True, text=True, env=env, timeout=CALL_TIMEOUT, cwd=ROOT,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"worker exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(res: dict) -> dict[str, float]:
    """Per-layer metrics of one traced call; times at reference speed."""
    layers, counts = res["layers"], res["counts"]

    def get(layer: str, key: str) -> float:
        value = layers.get(layer, {}).get(key, 0)
        return value if key == "calls" else value * res["speed"]

    def per_call(layer: str, scale: float) -> float:
        calls = get(layer, "calls")
        return get(layer, "busy_s") / calls * scale if calls else 0.0

    def ratio(count: str, layer: str) -> float:
        calls = get(layer, "calls")
        return counts.get(count, 0) / calls if calls else 0.0

    out = {
        "instances.parse_s": get("instances.parse", "busy_s"),
        "matcher.pattern_index_s": get("matcher.pattern_index", "busy_s"),
        "fragstring.refstring_s": get("fragstring.refstring", "busy_s"),
        "signature.chunk_setup_calls": get("signature.chunk_setup", "calls"),
        "signature.chunk_setup_ms": per_call("signature.chunk_setup", 1e3),
        "signature.advance_calls": get("signature.advance", "calls"),
        "signature.advance_us": per_call("signature.advance", 1e6),
        "fragstring.filter_calls": get("fragstring.filter", "calls"),
        "fragstring.filter_us": per_call("fragstring.filter", 1e6),
        "fragstring.pruned_ratio": ratio("filter_truncated", "fragstring.filter"),
        "fragstring.mismatches_per_window": ratio("filter_mismatches", "fragstring.filter"),
        "fragstring.fragments_per_window": ratio("filter_fragments", "fragstring.filter"),
        "matcher.verify_calls": get("matcher.verify", "calls"),
        "matcher.verify_us": per_call("matcher.verify", 1e6),
        "matcher.verify_accept_ratio": ratio("verify_accepted", "matcher.verify"),
        "matcher.reduce_us": per_call("matcher.reduce", 1e6),
        "matcher.items_per_verify": ratio("reduce_items", "matcher.reduce"),
        "subsequence.solve_us": per_call("subsequence.solve", 1e6),
        "matcher.chunk_calls": get("matcher.chunk", "calls"),
        "matcher.driver_self_s": get("matcher.chunk", "self_s"),
        "trace.wall_s": res["wall_s"] * res["speed"],
    }
    for layer in {ROOT_LAYER, *(t[2] for t in TARGETS)} - {"matcher.chunk"}:  # chunk: driver_self_s
        out[f"{layer}.self_s"] = get(layer, "self_s")
    return out


def environment(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "opmatch").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "dict_backend": BACKEND,
        "threads": 1,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opmatch" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'opmatch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import generate, reference_answer

    # untimed set-up: inputs, the reference answer, the instance file
    inst = generate(args.workload, args.seed)
    reference = reference_answer(inst)
    checker = Checker(inst, reference, f"{args.workload}:{args.seed}")
    WORK.mkdir(exist_ok=True)
    inst_path = WORK / f"{args.workload}-seed{args.seed}.txt"
    spans_path = WORK / f"spans-{args.workload}.tsv.gz"
    inst_path.write_text(inst.to_text())
    env = environment(args.workload, args.seed)
    env["reference_digest"] = checker.digest
    print(json.dumps({"env": env}))

    try:
        setup = call_worker("setup", str(inst_path))
        if "error" in setup:
            print(f"error: PatternIndex set-up failed: {setup['error']}", file=sys.stderr)
            return 1
        untraced: list[dict] = []
        traced: list[dict] = []
        failures: list[str] = []
        attempted = rounds_done = 0
        kinds = [("untraced", untraced, ())]
        if args.trace:
            kinds.append(("traced", traced, ("--trace", str(spans_path))))
        deadline = time.perf_counter() + args.seconds
        while True:
            for label, store, extra in kinds:
                res = call_worker("match", str(inst_path), *extra)
                attempted += 1
                reasons = [res["error"]] if "error" in res else checker.check(res["rc"], res["output"])
                if res.get("counts", {}).get("bound_violations"):
                    reasons.append(f"{res['counts']['bound_violations']} paper-bound violations")
                if reasons:
                    failures.append(f"{label} call {len(store) + 1}: " + "; ".join(reasons))
                if "error" not in res:
                    res.pop("output")
                    store.append(res)
            rounds_done += 1
            if rounds_done >= (1 if args.trace else MIN_CALLS) and time.perf_counter() >= deadline:
                break
    finally:
        inst_path.unlink()
    if not untraced or (args.trace and not traced):
        print("error: no match call completed", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1

    walls = [r["wall_s"] * r["speed"] for r in untraced]
    if args.trace:
        per_call = [layer_metrics(res) for res in traced]
        values = {name: statistics.median(c[name] for c in per_call) for name in per_call[0]}
        values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(walls)
        declared = spec["per_layer"]
    else:
        values = {
            "windows_per_s": statistics.median(inst.windows / w for w in walls),
            "setup_s": statistics.median(r["build_s"] * r["speed"] for r in setup["rounds"]),
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in untraced),
        }
        declared = spec["end_to_end"]
    if set(values) != {d["name"] for d in declared}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}

    raw = sorted(r["wall_s"] for r in untraced)
    speed = statistics.median(r["speed"] for r in untraced)
    print(
        f"{args.workload} seed={args.seed}: {len(untraced)} untraced and {len(traced)} traced calls, "
        f"{inst.windows} windows and {len(reference)} occurrences each; measured wall median "
        f"{statistics.median(raw):.3f} s (min {raw[0]:.3f}, max {raw[-1]:.3f}) at {speed:.2f}x reference "
        f"speed, {statistics.median(walls):.3f} s scaled; {len(setup['rounds'])} PatternIndex rounds; "
        f"failed {len(failures)}/{attempted} match calls"
    )
    for f in failures:
        print(f"FAILED {f}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "failures": failures, "setup": setup["rounds"],
                    "untraced": untraced, "traced": traced, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
