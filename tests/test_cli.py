"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nashwalk import cli, sinks
from nashwalk.cli import main
from nashwalk.errors import TimeBudgetExceeded
from nashwalk.medium import Medium, build_medium
from nashwalk.parallel import check_deadline
from nashwalk.sinks import sink_components

from conftest import snake_cube


def run_cli(args):
    return main(list(args))


def test_figure1_csv_roundtrip(tmp_path):
    out = tmp_path / "fig.csv"
    argv = [
        "figure1", "--n", "5", "--alpha", "0.5", "--trials", "20",
        "--seed", "3", "--out", str(out),
    ]
    assert run_cli(argv) == 0
    first = out.read_bytes()
    lines = first.decode().strip().split("\n")
    assert lines[0].startswith("# {")
    echo = json.loads(lines[0][2:])
    assert echo["command"] == "figure1"
    assert len(lines) == 2 + 2  # echo + header + (brd, srw)
    assert run_cli(argv) == 0
    assert out.read_bytes() == first


def test_figure1_json_format(tmp_path):
    out = tmp_path / "fig.json"
    assert run_cli([
        "figure1", "--n", "5", "--alpha", "0.5", "--alpha", "0.8",
        "--trials", "10", "--policy", "brd", "--out", str(out),
        "--format", "json",
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "figure1"
    assert len(payload["rows"]) == 2  # one policy x two alphas
    assert {r["alpha"] for r in payload["rows"]} == {0.5, 0.8}


def test_figure1_is_thread_count_invariant(tmp_path, monkeypatch):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["figure1", "--n", "6", "--alpha", "0.5", "--trials", "16", "--seed", "9"]
    monkeypatch.setenv("NASHWALK_THREADS", "1")
    assert run_cli(base + ["--out", str(out1)]) == 0
    monkeypatch.setenv("NASHWALK_THREADS", "3")
    assert run_cli(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_theorem_csv(tmp_path):
    out = tmp_path / "trend.csv"
    assert run_cli([
        "theorem", "--n", "4", "--n", "6", "--alpha", "0.7",
        "--trials", "60", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 + 2
    assert lines[1].split(",")[0] == "n"


def test_pne_stats_json(capsys):
    assert run_cli(["pne-stats", "--n", "6", "--alpha", "0.5", "--trials", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "pne-stats"
    assert payload["expected_mean"] == pytest.approx(1.5**6)
    assert payload["samples"] == 50


def test_percolation_audit_json(capsys):
    assert run_cli(["percolation", "--n", "6", "--alpha", "0.5", "--trials", "40"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identity_ok"] == 40
    assert payload["trials"] == 40


def test_percolation_is_thread_count_invariant(tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"perc{threads}.json"
        assert run_cli([
            "percolation", "--n", "6", "--alpha", "0.5", "--trials", "24",
            "--seed", "4", "--threads", threads, "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["figure1", "--n", "12", "--alpha", "0.5", "--trials", "400"],
    ["theorem", "--n", "12", "--alpha", "0.5", "--trials", "400"],
    ["pne-stats", "--n", "14", "--alpha", "0.5", "--trials", "400"],
    ["percolation", "--n", "10", "--alpha", "0.5", "--trials", "400"],
    ["walk", "--n", "12", "--alpha", "0.5", "--trials", "400"],
], ids=lambda argv: argv[0])
def test_time_budget_is_checked_per_trial(argv):
    # each run is one cell of 400 fresh media, seconds of work: the budget
    # must stop it between trials, not only between cells
    assert run_cli(argv + ["--time-budget", "0.01"]) == 3


@pytest.mark.parametrize("trials, threads", [("1", "1"), ("2", "2")])
def test_time_budget_stops_a_long_walk(trials, threads, capsys):
    # each srw walk here runs to its 3,000,000-step cap, about 14 s a trial:
    # the budget is checked every 1024 steps, in every worker
    argv = [
        "walk", "--n", "14", "--alpha", "0", "--policy", "srw", "--max-steps", "3000000",
        "--trials", trials, "--seed", "1", "--threads", threads, "--time-budget", "0.5",
    ]
    start = time.monotonic()
    assert run_cli(argv) == 3
    assert time.monotonic() - start < 3
    assert capsys.readouterr().out == ""


def test_walk_csv_and_jsonl(capsys):
    assert run_cli(["walk", "--n", "5", "--alpha", "0.5", "--trials", "3"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.startswith("# {")
    assert len(csv_text.strip().split("\n")) == 2 + 3

    assert run_cli([
        "walk", "--n", "5", "--alpha", "0.5", "--trials", "3", "--format", "jsonl",
    ]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
    assert len(rows) == 3
    assert all(r["policy"] == "brd" for r in rows)


def test_walk_lazy_mode_handles_large_n(capsys):
    assert run_cli([
        "walk", "--n", "30", "--alpha", "0.5", "--trials", "2",
        "--mode", "lazy", "--max-steps", "40",
    ]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 2 + 2


def test_analyze_fresh_medium(capsys):
    assert run_cli(["analyze", "--n", "5", "--alpha", "0.5", "--seed", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    direct = sink_components(build_medium(5, 0.5, 12))
    assert payload["pnes"] == direct.pnes
    assert payload["traps"] == direct.traps


def test_generate_then_analyze_file(tmp_path, capsys):
    blob_path = tmp_path / "medium.bin"
    assert run_cli([
        "generate", "--n", "6", "--alpha", "0.4", "--seed", "77",
        "--out", str(blob_path),
    ]) == 0
    med = Medium.load_bytes(blob_path.read_bytes())
    assert med.n_players == 6 and med.params.seed == 77

    assert run_cli([
        "analyze", "--n", "6", "--alpha", "0.4", "--in", str(blob_path),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pnes"] == sink_components(med).pnes


def test_analyze_file_needs_no_n_or_alpha(tmp_path, capsys):
    blob_path = tmp_path / "medium.bin"
    blob_path.write_bytes(build_medium(5, 0.3, 8).dump_bytes())
    assert run_cli(["analyze", "--in", str(blob_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_players"] == 5 and payload["seed"] == 8


def test_analyze_without_in_needs_n_and_alpha():
    assert run_cli(["analyze"]) == 2
    assert run_cli(["analyze", "--n", "5"]) == 2
    assert run_cli(["analyze", "--alpha", "0.5"]) == 2


def test_analyze_missing_in_path_exits_2(tmp_path):
    missing = str(tmp_path / "nonexistent.bin")
    assert run_cli(["analyze", "--in", missing]) == 2
    assert run_cli(["analyze", "--n", "5", "--alpha", "0.5", "--in", missing]) == 2


def test_unwritable_out_path_exits_2(tmp_path):
    out = str(tmp_path / "no-such-dir" / "out")
    assert run_cli(["analyze", "--n", "5", "--alpha", "0.5", "--out", out]) == 2
    assert run_cli(["generate", "--n", "5", "--alpha", "0.5", "--out", out]) == 2


def test_generate_lazy_emits_header_json(capsys):
    assert run_cli(["generate", "--n", "40", "--alpha", "0.5", "--mode", "lazy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "lazy"
    assert payload["n_players"] == 40


def test_generate_exhaustive_requires_out():
    assert run_cli(["generate", "--n", "5", "--alpha", "0.5"]) == 2


def test_domain_errors_exit_2():
    assert run_cli(["pne-stats", "--n", "6", "--alpha", "1.5", "--trials", "5"]) == 2
    assert run_cli(["walk", "--n", "5", "--alpha", "0.5", "--trials", "0"]) == 2
    assert run_cli(["pne-stats", "--n", "5", "--alpha", "0.5", "--trials", "0"]) == 2


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["figure1", "--n", "5", "--alpha", "0.5", "--trials", "5", "--format", "xml"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--threads", "0"],
    ["--threads", "-1"],
    ["--time-budget", "nan"],
    ["--time-budget", "-1"],
    ["--time-budget", "-0.5"],
], ids=" ".join)
@pytest.mark.parametrize("command", [
    ["figure1", "--n", "4", "--alpha", "0.5", "--trials", "2"],
    ["walk", "--n", "4", "--alpha", "0.5", "--trials", "2"],
    ["percolation", "--n", "4", "--alpha", "0.5", "--trials", "2"],
], ids=lambda argv: argv[0])
def test_ignored_threads_and_budget_values_exit_2(command, flags, capsys):
    # Each of these used to run to exit 0: a NaN or negative budget is never
    # exceeded, and a worker count below 1 silently became 1.
    assert run_cli(command + flags) == 2
    assert capsys.readouterr().out == ""


def test_an_exhaustive_walk_past_the_cap_exits_2(capsys):
    # a brd trial walks its medium's lazy twin first, and the lazy cap is
    # higher: the exhaustive cap must still be checked before that walk
    assert run_cli(["walk", "--n", "25", "--alpha", "0.9", "--policy", "brd", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds exhaustive cap 24" in captured.err


ALL_SUBCOMMANDS = [
    ["figure1", "--n", "4", "--alpha", "0.5", "--trials", "2"],
    ["theorem", "--n", "4", "--alpha", "0.5", "--trials", "2"],
    ["pne-stats", "--n", "4", "--alpha", "0.5", "--trials", "2"],
    ["percolation", "--n", "4", "--alpha", "0.5", "--trials", "2"],
    ["walk", "--n", "4", "--alpha", "0.5", "--trials", "2"],
    ["analyze", "--n", "4", "--alpha", "0.5"],
    ["generate", "--n", "4", "--alpha", "0.5", "--mode", "lazy"],
]


@pytest.mark.parametrize("value", ["0", "-3", "abc", "1.5"])
@pytest.mark.parametrize("command", ALL_SUBCOMMANDS, ids=lambda argv: argv[0])
def test_malformed_threads_env_exits_2(command, value, monkeypatch, capsys):
    # Each of these used to run one worker and exit 0.
    monkeypatch.setenv("NASHWALK_THREADS", value)
    assert run_cli(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NASHWALK_THREADS" in captured.err and repr(value) in captured.err


def test_malformed_threads_env_fails_even_with_threads_flag(monkeypatch):
    monkeypatch.setenv("NASHWALK_THREADS", "0")
    assert run_cli(ALL_SUBCOMMANDS[0] + ["--threads", "1"]) == 2


@pytest.mark.parametrize("value", ["", "1", "2"])
def test_unset_empty_or_valid_threads_env_runs(value, monkeypatch, capsys):
    monkeypatch.setenv("NASHWALK_THREADS", value)
    assert run_cli(ALL_SUBCOMMANDS[2]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 2


def test_time_budget_exit_3(tmp_path):
    # analyze and generate used to ignore the budget and exit 0; an exceeded
    # budget must also leave no --out file behind.
    for i, argv in enumerate([
        ["figure1", "--n", "10", "--alpha", "0.5", "--trials", "400"],
        ["analyze", "--n", "12", "--alpha", "0.5"],
        ["generate", "--n", "12", "--alpha", "0.5"],
        ["generate", "--n", "12", "--alpha", "0.5", "--mode", "lazy"],
    ]):
        out = tmp_path / f"out{i}"
        assert run_cli(argv + ["--time-budget", "0.0", "--out", str(out)]) == 3, argv
        assert not out.exists(), argv


def test_time_budget_stops_analyze_inside_the_sink_analysis(tmp_path, capsys):
    # the snake's sink analysis takes many reach rounds; the budget is
    # checked between them
    path = tmp_path / "snake.nwm"
    path.write_bytes(snake_cube(12).dump_bytes())
    assert run_cli(["analyze", "--in", str(path), "--time-budget", "0"]) == 3
    assert capsys.readouterr().out == ""


def test_time_budget_stops_analyze_inside_the_trap_search(monkeypatch, capsys):
    # n=11, alpha=0, seed 1 has no PNE: the backward spread makes one round
    # and checks the budget once, then the trap search runs on the whole
    # cube, on sets or on words as the patched size rule says.  The spread
    # is slowed past the budget, so the trap search's first check must be
    # the one that stops the run.
    reach_back = sinks._reach_back

    def slow_reach_back(*args):
        result = reach_back(*args)
        time.sleep(0.6)
        return result

    raised = []

    def watched_check_deadline():
        try:
            check_deadline()
        except TimeBudgetExceeded:
            raised.append(True)
            raise
        raised.append(False)

    monkeypatch.setattr(sinks, "_reach_back", slow_reach_back)
    monkeypatch.setattr(sinks, "check_deadline", watched_check_deadline)
    argv = ["analyze", "--n", "11", "--alpha", "0", "--seed", "1", "--time-budget", "0.5"]
    for on_sets in (True, False):
        monkeypatch.setattr(sinks, "_on_sets", lambda count, n: on_sets)
        raised.clear()
        assert run_cli(argv) == 3
        assert raised == [False, True]
        assert capsys.readouterr().out == ""


# Blocks scipy from import, imports the CLI, runs each command line in
# process, and fails if scipy or multiprocessing has been loaded after the
# import or after any run.
NO_SCIPY_CHILD = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import nashwalk.cli

def loaded():
    return sorted(m for m, module in sys.modules.items()
                  if module is not None and m.split(".")[0] in ("scipy", "multiprocessing"))

assert not loaded(), loaded()
for argv in sys.argv[1:]:
    assert nashwalk.cli.main(argv.split()) == 0, argv
    assert not loaded(), (argv, loaded())
"""


def test_the_cli_loads_neither_scipy_nor_multiprocessing(tmp_path):
    out = f"--seed 3 --threads 1 --out {tmp_path / 'out'}"
    medium = tmp_path / "m8.nwmedium"
    runs = (
        f"pne-stats --n 8 --alpha 0.5 --trials 4 {out}",
        f"walk --n 8 --alpha 0.5 --trials 3 {out}",
        f"walk --n 8 --alpha 0.5 --mode lazy --trials 3 {out}",
        # alpha 0 and 0.9 leave remainders with traps to search
        f"figure1 --n 8 --alpha 0 --alpha 0.9 --trials 6 {out}",
        f"theorem --n 6 --n 8 --alpha 0.9 --trials 6 {out}",
        f"percolation --n 6 --alpha 0.5 --trials 4 {out}",
        f"analyze --n 11 --alpha 0 --seed 1 --out {tmp_path / 'analysis'}",
        f"generate --n 8 --alpha 0.5 --seed 3 --out {medium}",
        f"generate --n 30 --alpha 0.5 --mode lazy {out}",
        f"analyze --in {medium} --out {tmp_path / 'read_back'}",
        f"analyze --n 8 --alpha 0.5 --seed 3 --out {tmp_path / 'rebuilt'}",
    )
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, *runs], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "analysis").read_text())["traps"]
    assert (tmp_path / "read_back").read_text() == (tmp_path / "rebuilt").read_text()


def test_module_runs_as_script():
    proc = subprocess.run(
        [sys.executable, "-m", "nashwalk.cli",
         "pne-stats", "--n", "4", "--alpha", "0.5", "--trials", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["samples"] == 5


# -- the parser: one subcommand's gives the full parser's text ----------------

# the smallest valid flags of each subcommand
VALID = {
    "figure1": ["--n", "3", "--alpha", "0.5", "--trials", "1"],
    "theorem": ["--n", "3", "--alpha", "0.5", "--trials", "1"],
    "pne-stats": ["--n", "3", "--alpha", "0.5", "--trials", "1"],
    "percolation": ["--n", "3", "--alpha", "0.5", "--trials", "1"],
    "walk": ["--n", "3", "--alpha", "0.5"],
    "analyze": [],
    "generate": ["--n", "3", "--alpha", "0.5"],
}


def parse(parser, argv, capsys):
    """(exit code, stdout, stderr) of parsing argv; code None on success."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def record_parser_builds(monkeypatch) -> list:
    """The `command` argument of each _build_parser call main makes."""
    built = []
    build = cli._build_parser

    def recorded(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "_build_parser", recorded)
    return built


def test_every_subcommand_is_in_the_parsers_table():
    assert list(cli._COMMANDS) == list(VALID)


@pytest.mark.parametrize("command", list(VALID))
def test_one_subcommand_parser_matches_the_full_parser(command, capsys):
    valid = VALID[command]
    cases = {
        "help": ([command, "--help"], 0),
        # analyze requires no flag: there this parses
        "missing required flag": ([command], None if command == "analyze" else 2),
        "bad type": ([command, *valid, "--seed", "x"], 2),
        "bad choice": ([command, *valid, "--mode", "x"] if command in ("walk", "generate")
                       else [command, *valid, "--format", "x"], 2),
        "unrecognized argument": ([command, *valid, "--bogus"], 2),
        # a second subcommand is an unrecognized argument too
        "second subcommand": ([command, *valid, "walk"], 2),
    }
    for case, (argv, code) in cases.items():
        one = parse(cli._build_parser(command), argv, capsys)
        assert one == parse(cli._build_parser(), argv, capsys), case
        assert one[0] == code, case
        if code is not None:  # help on stdout, an error on stderr
            assert one[1 if code == 0 else 2], case
    # an extra argument prints the usage that names every subcommand
    usage = one[2].replace("\n", "").replace(" ", "")
    assert "usage:nashwalk[-h]{" + ",".join(VALID) + "}..." in usage


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["--seed", "1", "walk", "--n", "3", "--alpha", "0.5"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_runs_without_a_subcommand_first_build_the_full_parser(argv, capsys, monkeypatch):
    expected = parse(cli._build_parser(), argv, capsys)
    built = record_parser_builds(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert built == [None]
    assert (exc.value.code, *capsys.readouterr()) == expected
    assert expected[0] == (0 if argv == ["-h"] else 2)


def test_main_reads_sys_argv_and_parses_one_subcommand(capsys, monkeypatch):
    argv = ["walk", "--n", "4", "--alpha", "0.5", "--trials", "2", "--mode", "lazy"]
    assert run_cli(argv) == 0
    expected = capsys.readouterr().out
    built = record_parser_builds(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["nashwalk", *argv])
    assert main() == 0
    assert built == ["walk"]
    assert capsys.readouterr().out == expected
