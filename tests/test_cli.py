import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmatch import selftest
from opmatch.cli import build_parser, main
from opmatch.instances import Instance, _order_copy, generate_instance, parse_instance, parse_int_list
from opmatch.matcher import match_all, match_naive
from opmatch.selftest import run_suites
from opmatch.signature import compute_signature


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIG = ["--pattern", "1 4 2 5 11", "--text", "1 10 6 4 8 5 7 9 3"]


def test_match_fig_example(capsys):
    code, out, _ = run_cli(capsys, "match", *FIG, "--k", "1")
    assert code == 0
    assert out == "4\n"


def test_match_exact_self(capsys):
    code, out, _ = run_cli(capsys, "match", "--pattern", "3 1 2", "--text", "3 1 2", "--k", "0")
    assert code == 0
    assert out == "1\n"


def test_match_not_found_exit_one(capsys):
    code, out, _ = run_cli(capsys, "match", "--pattern", "1 2 3", "--text", "3 2 1", "--k", "0")
    assert code == 1
    assert out == ""


def test_match_bad_input_exit_two(capsys):
    code, _, err = run_cli(capsys, "match", "--pattern", "1 2 x", "--text", "1 2 3")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "match", "--pattern", "1 2", "--k", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "match", "--pattern", "1 2", "--text", "1_0 2 3")
    assert code == 2
    assert "not an integer list" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["match", *FIG, "--k", "-1"],
        ["match", *FIG, "--k", "-1", "--algorithm", "naive"],
        ["verify", *FIG, "--k", "-1", "--at", "4"],
    ],
)
def test_negative_k_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "k must be non-negative" in err


@pytest.mark.parametrize("algorithm", ["fast", "naive"])
def test_huge_k_prints_every_window(capsys, algorithm):
    # 3k + 1 overflows a C index; any k >= m is exact as m
    argv = ["--text", "1 2 3", "--pattern", "1 2", "--k", "99999999999999999999"]
    code, out, err = run_cli(capsys, "match", *argv, "--algorithm", algorithm)
    assert (code, out, err) == (0, "1\n2\n", "")


def test_match_json_encodes_same_occurrences(capsys):
    _, plain, _ = run_cli(capsys, "match", *FIG, "--k", "1")
    _, as_json, _ = run_cli(capsys, "match", *FIG, "--k", "1", "--json")
    assert [int(x) for x in plain.split()] == json.loads(as_json)


def test_match_naive_agrees_with_fast(capsys):
    rng = random.Random(5)
    for _ in range(12):
        n, m, k = rng.randint(5, 40), rng.randint(1, 6), rng.randint(0, 2)
        text = " ".join(str(rng.randrange(6)) for _ in range(n))
        pattern = " ".join(str(rng.randrange(6)) for _ in range(m))
        _, fast, _ = run_cli(capsys, "match", "--text", text, "--pattern", pattern, "--k", str(k))
        _, naive, _ = run_cli(
            capsys, "match", "--text", text, "--pattern", pattern, "--k", str(k),
            "--algorithm", "naive",
        )
        assert fast == naive


def test_match_threads_do_not_change_output(capsys):
    rng = random.Random(6)
    text = " ".join(str(x) for x in rng.sample(range(5000), 500))
    pattern = " ".join(str(x) for x in rng.sample(range(5000), 8))
    runs = {
        run_cli(capsys, "match", "--text", text, "--pattern", pattern, "--k", "2",
                "--threads", str(t))
        for t in (1, 2, 5)
    }
    assert len(runs) == 1


def test_match_deterministic_across_runs(capsys):
    first = run_cli(capsys, "match", *FIG, "--k", "1", "--json")
    second = run_cli(capsys, "match", *FIG, "--k", "1", "--json")
    assert first == second


def test_match_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    inst = Instance(text=[1, 10, 6, 4, 8, 5, 7, 9, 3], pattern=[1, 4, 2, 5, 11], k=1)
    path = tmp_path / "inst.txt"
    path.write_text(inst.to_text())
    code, out, _ = run_cli(capsys, "match", "--file", str(path))
    assert (code, out) == (0, "4\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(inst.to_text()))
    code, out, _ = run_cli(capsys, "match", "--file", "-")
    assert (code, out) == (0, "4\n")
    # inline flags override file fields
    code, out, _ = run_cli(capsys, "match", "--file", str(path), "--k", "0")
    assert code == 1


def test_instance_file_is_closed(tmp_path, capsys, monkeypatch):
    import builtins

    path = tmp_path / "inst.txt"
    path.write_text(Instance(text=[1, 10, 6, 4, 8, 5, 7, 9, 3], pattern=[1, 4, 2, 5, 11], k=1).to_text())
    opened = []

    def tracking_open(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr("opmatch.cli.open", tracking_open, raising=False)
    for argv in (["match", "--file", str(path)], ["verify", "--file", str(path), "--at", "4"]):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert len(opened) == 2
    assert all(fh.closed for fh in opened)


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_two(capsys, threads):
    code, out, err = run_cli(capsys, "match", *FIG, "--k", "1", "--threads", threads)
    assert (code, out) == (2, "")
    assert "threads must be at least 1" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_bench_naive_cap_below_one_exit_two(capsys, cap):
    code, out, err = run_cli(
        capsys, "bench", "--n-grid", "100", "--m-grid", "10", "--naive-cap", cap
    )
    assert (code, out) == (2, "")
    assert "--naive-cap must be at least 1" in err


def test_verify_fig_window(capsys):
    code, out, _ = run_cli(capsys, "verify", *FIG, "--at", "4", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    assert len(lines[1].split()) == 4


def test_verify_identity_keeps_all_indices(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--pattern", "4 1 3", "--text", "4 1 3", "--k", "0"
    )
    assert code == 0
    assert out.splitlines()[1] == "1 2 3"


def test_verify_reversed_pair_is_no(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pattern", "1 2", "--text", "2 1", "--k", "0")
    assert code == 1
    assert out == "no\n"


def test_verify_at_out_of_range(capsys):
    code, _, err = run_cli(capsys, "verify", *FIG, "--at", "9", "--k", "0")
    assert code == 2


def test_signature_golden_sequence(capsys):
    code, out, _ = run_cli(
        capsys, "signature", "--seq", "11 4 12 1 9 3 10 7 2 5 13 0 6 8"
    )
    assert code == 0
    assert out == "6 4 -2 8 9 3 -2 5 -5 -8 -8 0 -3 -6\n"


def test_signature_sorted_chain(capsys):
    code, out, _ = run_cli(capsys, "signature", "--seq", "1 2 3")
    assert out == "0 -1 -1\n"


def test_signature_general_mode(capsys):
    code, out, _ = run_cli(capsys, "signature", "--seq", "5 5 2", "--mode", "general")
    assert out == "=1 1 0\n"
    # auto mode detects the repeat
    code, out, _ = run_cli(capsys, "signature", "--seq", "5 5 2")
    assert out == "=1 1 0\n"


def test_signature_distinct_rejects_repeats(capsys):
    code, _, err = run_cli(capsys, "signature", "--seq", "5 5 2", "--mode", "distinct")
    assert code == 2


def test_gen_deterministic_under_seed(capsys):
    a = run_cli(capsys, "gen", "--n", "60", "--m", "8", "--k", "1", "--seed", "9")
    b = run_cli(capsys, "gen", "--n", "60", "--m", "8", "--k", "1", "--seed", "9")
    assert a == b
    c = run_cli(capsys, "gen", "--n", "60", "--m", "8", "--k", "1", "--seed", "10")
    assert a != c


@pytest.mark.parametrize(
    "mode, seed, digest",
    [
        ("distinct", 1, "785f4a9fc93855a271f171f71c72c6c00d2c3d034a037834662e6e107585bffc"),
        ("distinct", 7, "1d20b7ba4c3578f5b37c12679f9778aaa357e358aa94260c85d2a06571f38563"),
        ("general", 1, "e9d2fd7b379f6010de66b0d167a2dc46432f5ed55ae7b11eaf5fc52868d0c32e"),
        ("general", 7, "fbdb525134e93b281f95f65f2f1b5a79f3483d194fa3972a2d92b72bed864e70"),
    ],
)
def test_gen_output_is_pinned(capsys, mode, seed, digest):
    # 20 planted windows with up to 5 displaced values each: a change in any
    # draw, or in the order the spare values are read, changes the file
    code, out, _ = run_cli(
        capsys, "gen", "--n", "400", "--m", "12", "--k", "5", "--plant", "20",
        "--mode", mode, "--seed", str(seed),
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gen_distinct_values_are_distinct(capsys):
    _, out, _ = run_cli(capsys, "gen", "--n", "80", "--m", "7", "--seed", "3")
    inst = parse_instance(out)
    assert len(set(inst.text)) == len(inst.text)
    assert len(set(inst.pattern)) == len(inst.pattern)


@pytest.mark.parametrize("mode", ["distinct", "general"])
def test_gen_match_roundtrip_recovers_planted(mode, capsys):
    for seed in range(6):
        _, out, _ = run_cli(
            capsys, "gen", "--n", "90", "--m", "6", "--k", "1", "--plant", "3",
            "--mode", mode, "--seed", str(seed),
        )
        inst = parse_instance(out)
        assert len(inst.planted) == 3
        found = match_all(inst.text, inst.pattern, inst.k, inst.mode)
        assert set(inst.planted) <= set(found)


def test_gen_plant_zero_k_zero(capsys):
    _, out, _ = run_cli(
        capsys, "gen", "--n", "50", "--m", "5", "--plant", "3", "--seed", "2"
    )
    inst = parse_instance(out)
    found = match_all(inst.text, inst.pattern, 0, inst.mode)
    assert set(inst.planted) <= set(found)
    assert len(found) >= 3


def test_instance_roundtrip_and_unknown_key():
    inst = Instance(text=[1, -2, 3], pattern=[0, 5], k=2, mode="general", planted=[1])
    assert parse_instance(inst.to_text()) == inst
    with pytest.raises(ValueError):
        parse_instance("text: 1 2\npattern: 1\nbogus: 3\n")
    with pytest.raises(ValueError):
        parse_instance("text: 1 2\n")


def test_parse_int_list_formats():
    assert parse_int_list("1, 2,  -3") == [1, 2, -3]
    assert parse_int_list(" 4\n5 ") == [4, 5]
    assert parse_int_list(",1,,2\t3") == [1, 2, 3]
    assert parse_int_list("+5 -0 007") == [5, 0, 7]
    with pytest.raises(ValueError):
        parse_int_list("1 2 three")
    # int() reads these, but they are not ASCII signed decimal integers
    for token in ("1_0", "\u0663", "\uff14"):
        with pytest.raises(ValueError, match="not an integer list"):
            parse_int_list(f"1 {token} 2")


# every integer flag, after the arguments its subcommand needs otherwise
INT_FLAGS = [
    (["match", *FIG], "--k"),
    (["match", *FIG], "--threads"),
    (["verify", *FIG], "--k"),
    (["verify", *FIG], "--at"),
    *((["gen", "--n", "10", "--m", "4"], flag) for flag in ("--n", "--m", "--k", "--seed", "--plant")),
    *((["bench", "--n-grid", "100", "--m-grid", "10"], flag) for flag in ("--seed", "--naive-cap")),
    (["selftest"], "--iterations"),
    (["selftest"], "--seed"),
]
# int() reads each of these as 10, 3 or 4; "1 2" holds two integers
NOT_ONE_INTEGER = ["1_0", "\u0663", "\uff14", "1 2"]


@pytest.mark.parametrize("token", NOT_ONE_INTEGER)
@pytest.mark.parametrize("argv,flag", INT_FLAGS, ids=lambda v: v if isinstance(v, str) else v[0])
def test_integer_flags_read_one_ascii_integer(capsys, argv, flag, token):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, token])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    dest = flag.lstrip("-").replace("-", "_")
    for raw in ("+3", " 3 "):
        assert getattr(build_parser().parse_args([*argv, flag, raw]), dest) == 3


@pytest.mark.parametrize("token", NOT_ONE_INTEGER)
def test_instance_k_line_reads_one_ascii_integer(tmp_path, capsys, token):
    path = tmp_path / "inst.txt"
    path.write_text(f"text: 1 2 3\npattern: 1 2\nk: {token}\n")
    code, out, err = run_cli(capsys, "match", "--file", str(path))
    assert (code, out) == (2, "")
    assert "not an integer" in err
    for raw in ("+3", " 3 "):
        assert parse_instance(f"text: 1 2 3\npattern: 1 2\nk:{raw}\n").k == 3


def test_counts_must_be_ints():
    # as k is everywhere else: a float is not rounded, nor a bool read as 1
    rng = random.Random(0)
    for count in ("k", "plant"):
        with pytest.raises(TypeError, match=f"{count} must be an int"):
            generate_instance(rng, 10, 4, **{count: 1.5})
    with pytest.raises(TypeError, match="n must be an int"):
        generate_instance(rng, 10.5, 4)
    with pytest.raises(TypeError, match="n must be an int"):
        generate_instance(rng, True, 1)
    with pytest.raises(TypeError, match="m must be an int"):
        generate_instance(rng, 10, 4.0)
    with pytest.raises(TypeError, match="iterations must be an int"):
        run_suites(1.5, 0)
    with pytest.raises(TypeError, match="iterations must be an int"):
        run_suites(True, 0)


def test_generate_instance_validates():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        generate_instance(rng, 5, 9)
    with pytest.raises(ValueError):
        generate_instance(rng, 10, 4, plant=3)
    for plant in (0, 1):
        with pytest.raises(ValueError, match="k must be non-negative"):
            generate_instance(rng, 10, 4, k=-1, plant=plant)
    with pytest.raises(ValueError, match="plant must be non-negative"):
        generate_instance(rng, 10, 4, plant=-1)


@pytest.mark.parametrize(
    "flags", [["--k", "-1"], ["--k", "-1", "--plant", "1"], ["--plant", "-1"]]
)
def test_gen_rejects_negative_k_and_plant(capsys, flags):
    code, out, err = run_cli(capsys, "gen", "--n", "10", "--m", "4", *flags)
    assert code == 2 and out == ""
    assert "must be non-negative" in err


@pytest.mark.parametrize("mode", ["distinct", "general"])
def test_gen_plants_with_k_above_m(capsys, mode):
    # k >= m - 1 is a valid instance; a window has only m positions to perturb
    for seed in range(6):
        code, out, _ = run_cli(
            capsys, "gen", "--n", "12", "--m", "3", "--k", "6", "--plant", "2",
            "--mode", mode, "--seed", str(seed),
        )
        assert code == 0
        inst = parse_instance(out)
        assert inst.k == 6 and len(inst.planted) == 2
        assert set(inst.planted) <= set(match_naive(inst.text, inst.pattern, inst.k, mode))


@pytest.mark.parametrize("names", ["bogus", "fast,naiveish", "fast,"])
def test_bench_rejects_unknown_algorithms(capsys, names):
    code, out, err = run_cli(
        capsys, "bench", "--n-grid", "300", "--m-grid", "20", "--algorithms", names
    )
    assert code == 2 and out == ""
    assert "unknown --algorithms" in err


def test_bench_fast_alone_times_no_naive(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--n-grid", "300", "--m-grid", "20", "--k-grid", "1",
        "--algorithms", "fast", "--csv",
    )
    assert code == 0
    assert [row.split(",")[3] for row in out.strip().splitlines()[1:]] == ["fast"]


def test_bench_smoke_table_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--n-grid", "300", "--m-grid", "20", "--k-grid", "1",
        "--seed", "1",
    )
    assert code == 0
    assert "fast" in out and "naive" in out
    code, out, _ = run_cli(
        capsys, "bench", "--n-grid", "300,600", "--m-grid", "20", "--k-grid", "1",
        "--csv", "--seed", "1",
    )
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 4
    for row in rows:
        if row[3] == "fast":
            assert 0.0 <= float(row[5]) <= 1.0


def test_selftest_zero_iterations_exits_clean(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--iterations", "0")
    assert code == 0
    assert out.count("SKIPPED (0 iterations)") == len(out.splitlines()) > 0


def test_selftest_negative_iterations_exit_two(capsys):
    code, out, err = run_cli(capsys, "selftest", "--iterations", "-3")
    assert code == 2 and out == ""
    assert "iterations must be non-negative" in err


def test_selftest_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--iterations", "40", "--seed", "3")
    assert code == 0
    assert "FAIL" not in out


def test_selftest_catches_weakened_filter(monkeypatch):
    # the oracle-equivalence suite must flag a 2k filter cap: match_chunk
    # sets the filter up for 3k mismatches, the wrapper for 2k; run_suites
    # reports the counterexample under one FAIL line, and the other suites pass
    from opmatch.selftest import suite_match_oracle
    from opmatch.signature import SlidingSignature

    init = SlidingSignature.__init__
    monkeypatch.setattr(
        SlidingSignature, "__init__", lambda self, chunk, pidx, limit: init(self, chunk, pidx, limit * 2 // 3)
    )
    rng = random.Random(515)
    bad = suite_match_oracle(rng, 3000)
    assert bad
    lines = []
    assert run_suites(400, 515, lines.append) == 1
    assert lines[-2] == "match-vs-oracle: FAIL (1 violation)"
    assert lines[-1].startswith("  match_all ")
    assert lines[:-2] == [f"{name}: OK (400 cases)" for name, _ in selftest.SUITES[:-1]]


def test_selftest_reports_a_suite_that_raises_and_runs_the_rest(monkeypatch):
    # an exception inside one suite is that suite's counterexample; the
    # suites after it still run
    from opmatch.fragstring import DynString

    def broken(self):
        raise RuntimeError("tiling broken")

    monkeypatch.setattr(DynString, "check_tiling", broken)
    lines = []
    assert run_suites(20, 0, lines.append) == 1
    assert lines[3:5] == ["dynstring-stream: FAIL (1 violation)", "  RuntimeError: tiling broken"]
    assert lines[5:] == [
        f"{name}: OK (20 cases)" for name in ("filter-soundness", "mismatch-reductions", "match-vs-oracle")
    ]


def test_suite_table_names_the_seven_suites_in_order():
    # a suite dropped from the table would no longer run, and pass unnoticed
    assert [name for name, _ in selftest.SUITES] == [
        "key-set",
        "subsequence-solvers",
        "sliding-signature",
        "dynstring-stream",
        "filter-soundness",
        "mismatch-reductions",
        "match-vs-oracle",
    ]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=12), st.data())
def test_order_copy_keeps_order_and_equalities(seq, data):
    # the generator's planted windows and the suites' perturbed copies: the
    # r-th smallest value class takes values[r], so the general-mode
    # signature, which encodes both order and equality, is the same
    classes = len(set(seq))
    values = sorted(data.draw(st.sets(st.integers(-100, 100), min_size=classes, max_size=classes + 3)))
    copy = _order_copy(seq, values)
    assert compute_signature(copy, "general") == compute_signature(seq, "general")
    assert sorted(set(copy)) == values[:classes]


def test_dict_backend_flag(capsys):
    a = run_cli(capsys, "match", *FIG, "--k", "1", "--dict-backend", "sorted")
    b = run_cli(capsys, "match", *FIG, "--k", "1", "--dict-backend", "bittrie")
    assert a == b


def test_dict_backend_env_is_ignored(monkeypatch, capsys):
    # monotone text builds a DynString in every chunk; the retired variable
    # used to reach its key set and fail there
    text, pattern = " ".join(map(str, range(120))), " ".join(map(str, range(40)))
    argv = ["match", "--text", text, "--pattern", pattern, "--k", "1", "--json"]
    want = run_cli(capsys, *argv)
    assert want[0] == 0
    monkeypatch.setenv("OPMATCH_DICT_BACKEND", "bogus")
    assert run_cli(capsys, *argv) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest"],
        ["verify", *FIG],
        ["signature", "--seq", "1 2"],
        ["gen", "--n", "5", "--m", "2"],
        ["bench", "--n-grid", "100", "--m-grid", "10"],
    ],
)
def test_dict_backend_rejected_where_unused(argv, capsys):
    # only match still parses the flag, which selects nothing there
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--dict-backend", "sorted"])
    assert exc.value.code == 2


def test_selftest_deterministic_across_processes():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "opmatch.cli", "selftest", "--iterations", "15",
           "--seed", "4"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
