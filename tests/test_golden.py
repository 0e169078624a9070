"""Byte-identity guard: sha256 digests of serialized media, percolations,
their derived arrays, lazy- and exhaustive-mode walk records,
percolation-audit and pne-stats reports and the sink-analysis, figure1 and
theorem CLI outputs (CSV and JSON) over fixed grids.

The digests in golden_digests.json were recorded from a known-good build.
Any rewrite of the table, hashing, degree, sink or component code must
reproduce them exactly.  To record the digests of grid points that have none
yet (only on a commit known to be right; existing digests are kept, so
re-recording one means deleting it first and saying why):

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from nashwalk.cli import main
from nashwalk.medium import PayoffSpec, build_medium, medium_from_payoffs, sample_payoff_game
from nashwalk.percolation import coupling_run, largest_component, sample_percolation
from nashwalk.rng import MASK64

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")

MEDIUM_GRID = [
    (n, alpha, seed)
    for n in (1, 2, 3, 5, 8, 11, 16)
    for alpha in (0.0, 0.5, 0.9)
    for seed in (0, 12345, MASK64)
] + [(20, alpha, seed) for alpha in (0.0, 0.5, 0.9) for seed in (0, MASK64)]

PAYOFF_GRID = [
    (n, spec, seed)
    for n in (1, 3, 6, 9)
    for spec in ("continuous_uniform", "bernoulli", "discrete_uniform")
    for seed in (0, 7)
]

PERC_GRID = [
    (n, beta, seed)
    for n in (1, 2, 5, 9, 12, 16)
    for beta in (0.05, 0.25, 0.5)
    for seed in (0, 99)
] + [(20, beta, seed) for beta in (0.25, 0.5) for seed in (0, MASK64)]

COUPLING_GRID = [(n, alpha, 1000 + n) for n in (1, 3, 6, 9) for alpha in (0.0, 0.5, 0.9)]

# `walk --mode lazy` at alpha 0.5: (trials, --max-steps) per n.  At n=30 and
# n=62 the srw and lambda probes' closures outgrow the budget: a probe that
# pops a PNE first settles its vertex (terminal "step_cap"), and one that
# visits the whole budget without one gives terminal "unknown", in three
# n=30 and five n=62 cases.  n=62 is the lazy cap, the widest lane-packed row.
LAZY_WALK_SIZES = {3: (40, None), 8: (60, None), 11: (4, 2000), 30: (2, 60), 62: (2, 60)}

LAZY_WALK_GRID = [
    (policy, n, seed)
    for policy in ("brd", "srw", "lambda:0.7")
    for n in LAZY_WALK_SIZES
    for seed in (0, 5, MASK64)
]

# `walk --mode exhaustive --format jsonl` (exact trap detection): (trials,
# --max-steps) per n, at 1 and 2 worker processes.  The step cap keeps srw
# walks stuck in alpha-0 traps cheap.
EXACT_WALK_SIZES = {3: (40, None), 8: (20, 2000), 11: (8, 2000)}

EXACT_WALK_GRID = [
    (policy, n, alpha, seed, threads)
    for policy in ("brd", "srw", "lambda:0.7")
    for n in EXACT_WALK_SIZES
    for alpha in (0.0, 0.5)
    for seed in (0, 5, MASK64)
    for threads in (1, 2)
]

# `percolation` CLI reports: trials per n, at 1 and 2 worker processes.
PERC_CLI_TRIALS = {4: 40, 8: 12, 12: 3}

PERC_CLI_GRID = [
    (n, alpha, seed, threads)
    for n in PERC_CLI_TRIALS
    for alpha in (0.3, 0.5)
    for seed in (0, 5, MASK64)
    for threads in (1, 2)
]


# `analyze` JSON: alpha 0 gives cubes with no PNE and large traps.
ANALYZE_GRID = [
    (n, alpha, seed)
    for n in range(1, 14)
    for alpha in (0.0, 0.5, 0.9)
    for seed in (0, 5, MASK64)
]

# `figure1` over alpha 0, 0.5 and 0.9 (brd and srw), --max-steps 1000 so the
# srw walks stuck in alpha-0 traps stay cheap: trials per n.
FIGURE1_TRIALS = {4: 40, 8: 20, 11: 12}

FIGURE1_GRID = [
    (n, seed, threads)
    for n in FIGURE1_TRIALS
    for seed in (0, 5, MASK64)
    for threads in (1, 2)
]

# `theorem --n 4 --n 7 --n 10`, 20 trials per n.
THEOREM_GRID = [
    (alpha, policy, seed, threads)
    for alpha, policy in ((0.3, "brd"), (0.9, "srw"))
    for seed in (0, 5, MASK64)
    for threads in (1, 2)
]

# `figure1 --format json`, with the figure1 grid's alphas, trials and step cap.
FIGURE1_JSON_GRID = [(n, seed) for n in (4, 8) for seed in (0, 5, MASK64)]

# `pne-stats`, 20 trials each.
PNE_STATS_GRID = [
    (n, alpha, seed)
    for n in (4, 8, 12)
    for alpha in (0.0, 0.5, 0.9)
    for seed in (0, 5, MASK64)
]


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _spec(kind: str) -> PayoffSpec:
    if kind == "bernoulli":
        return PayoffSpec(kind, p=0.5)
    if kind == "discrete_uniform":
        return PayoffSpec(kind, k=3)
    return PayoffSpec(kind)


def medium_digests(n, alpha, seed) -> dict:
    med = build_medium(n, alpha, seed)
    src, dst = med.oriented_edge_arrays()
    return {
        "dump": _sha(med.dump_bytes()),
        "degrees": _sha(*med.degrees()),
        "edges": _sha(src.astype(np.int64), dst.astype(np.int64)),
    }


def payoff_digest(n, kind, seed) -> str:
    return _sha(medium_from_payoffs(sample_payoff_game(n, _spec(kind), seed)).dump_bytes())


def perc_digests(n, beta, seed) -> dict:
    perc = sample_percolation(n, beta, seed)
    return {
        "dump": _sha(perc.dump_bytes()),
        "largest": _sha(largest_component(perc).astype(np.int64)),
    }


def coupling_digest(n, alpha, seed) -> str:
    medium = build_medium(n, alpha, seed)
    initial = sample_percolation(n, (1.0 - alpha) / 2.0, seed + 1)
    final, audit = coupling_run(medium, initial)
    return _sha(final.dump_bytes(), str(audit.rounds_to_fixpoint).encode())


def lazy_walk_digest(policy, n, seed, tmp_dir) -> str:
    trials, max_steps = LAZY_WALK_SIZES[n]
    out = os.path.join(tmp_dir, "walk.csv")
    argv = [
        "walk", "--mode", "lazy", "--n", str(n), "--alpha", "0.5",
        "--policy", policy, "--trials", str(trials), "--seed", str(seed),
        "--out", out,
    ]
    if max_steps is not None:
        argv += ["--max-steps", str(max_steps)]
    assert main(argv) == 0
    with open(out, "rb") as fh:
        return _sha(fh.read())


def exact_walk_digest(policy, n, alpha, seed, threads, tmp_dir) -> str:
    trials, max_steps = EXACT_WALK_SIZES[n]
    argv = [
        "walk", "--mode", "exhaustive", "--format", "jsonl", "--n", str(n),
        "--alpha", str(alpha), "--policy", policy, "--trials", str(trials),
        "--seed", str(seed), "--threads", str(threads),
    ]
    if max_steps is not None:
        argv += ["--max-steps", str(max_steps)]
    return _cli_digest(argv, tmp_dir)


def perc_cli_digest(n, alpha, seed, threads, tmp_dir) -> str:
    out = os.path.join(tmp_dir, "perc.json")
    assert main([
        "percolation", "--n", str(n), "--alpha", str(alpha),
        "--trials", str(PERC_CLI_TRIALS[n]), "--seed", str(seed),
        "--threads", str(threads), "--out", out,
    ]) == 0
    with open(out, "rb") as fh:
        return _sha(fh.read())


def _cli_digest(argv, tmp_dir) -> str:
    out = os.path.join(tmp_dir, "cli.out")
    assert main(argv + ["--out", out]) == 0
    with open(out, "rb") as fh:
        return _sha(fh.read())


def analyze_digest(n, alpha, seed, tmp_dir) -> str:
    return _cli_digest([
        "analyze", "--n", str(n), "--alpha", str(alpha), "--seed", str(seed),
    ], tmp_dir)


def _figure1_argv(n, seed, threads) -> list:
    return [
        "figure1", "--n", str(n), "--alpha", "0", "--alpha", "0.5", "--alpha", "0.9",
        "--trials", str(FIGURE1_TRIALS[n]), "--max-steps", "1000",
        "--seed", str(seed), "--threads", str(threads),
    ]


def figure1_digest(n, seed, threads, tmp_dir) -> str:
    return _cli_digest(_figure1_argv(n, seed, threads), tmp_dir)


def figure1_json_digest(n, seed, tmp_dir) -> str:
    return _cli_digest(_figure1_argv(n, seed, 1) + ["--format", "json"], tmp_dir)


def _theorem_argv(alpha, policy, seed, threads) -> list:
    return [
        "theorem", "--n", "4", "--n", "7", "--n", "10", "--alpha", str(alpha),
        "--policy", policy, "--trials", "20", "--seed", str(seed),
        "--threads", str(threads),
    ]


def theorem_digest(alpha, policy, seed, threads, tmp_dir) -> str:
    return _cli_digest(_theorem_argv(alpha, policy, seed, threads), tmp_dir)


def theorem_json_digest(alpha, policy, seed, threads, tmp_dir) -> str:
    return _cli_digest(
        _theorem_argv(alpha, policy, seed, threads) + ["--format", "json"], tmp_dir
    )


def pne_stats_digest(n, alpha, seed, tmp_dir) -> str:
    return _cli_digest([
        "pne-stats", "--n", str(n), "--alpha", str(alpha), "--trials", "20",
        "--seed", str(seed),
    ], tmp_dir)


def _key(*parts) -> str:
    return "/".join(str(p) for p in parts)


# section -> (grid, digest function, whether it takes a scratch directory)
SECTIONS = {
    "medium": (MEDIUM_GRID, medium_digests, False),
    "payoff": (PAYOFF_GRID, payoff_digest, False),
    "perc": (PERC_GRID, perc_digests, False),
    "coupling": (COUPLING_GRID, coupling_digest, False),
    "lazy_walk": (LAZY_WALK_GRID, lazy_walk_digest, True),
    "exact_walk": (EXACT_WALK_GRID, exact_walk_digest, True),
    "perc_cli": (PERC_CLI_GRID, perc_cli_digest, True),
    "analyze": (ANALYZE_GRID, analyze_digest, True),
    "figure1": (FIGURE1_GRID, figure1_digest, True),
    "theorem": (THEOREM_GRID, theorem_digest, True),
    "figure1_json": (FIGURE1_JSON_GRID, figure1_json_digest, True),
    "theorem_json": (THEOREM_GRID, theorem_json_digest, True),
    "pne_stats": (PNE_STATS_GRID, pne_stats_digest, True),
}


def record_missing(digests: dict, tmp_dir: str) -> int:
    """Compute the digest of every grid point that has none; return the count."""
    added = 0
    for section, (grid, digest, needs_dir) in SECTIONS.items():
        recorded = digests.setdefault(section, {})
        for case in grid:
            if _key(*case) not in recorded:
                extra = (tmp_dir,) if needs_dir else ()
                recorded[_key(*case)] = digest(*case, *extra)
                added += 1
    return added


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", MEDIUM_GRID, ids=lambda c: _key(*c))
def test_medium_digests(golden, case):
    assert medium_digests(*case) == golden["medium"][_key(*case)]


@pytest.mark.parametrize("case", PAYOFF_GRID, ids=lambda c: _key(*c))
def test_payoff_medium_digests(golden, case):
    assert payoff_digest(*case) == golden["payoff"][_key(*case)]


@pytest.mark.parametrize("case", PERC_GRID, ids=lambda c: _key(*c))
def test_percolation_digests(golden, case):
    assert perc_digests(*case) == golden["perc"][_key(*case)]


@pytest.mark.parametrize("case", COUPLING_GRID, ids=lambda c: _key(*c))
def test_coupling_digests(golden, case):
    assert coupling_digest(*case) == golden["coupling"][_key(*case)]


@pytest.mark.parametrize("case", LAZY_WALK_GRID, ids=lambda c: _key(*c))
def test_lazy_walk_digests(golden, case, tmp_path):
    assert lazy_walk_digest(*case, str(tmp_path)) == golden["lazy_walk"][_key(*case)]


@pytest.mark.parametrize("case", EXACT_WALK_GRID, ids=lambda c: _key(*c))
def test_exact_walk_digests(golden, case, tmp_path):
    assert exact_walk_digest(*case, str(tmp_path)) == golden["exact_walk"][_key(*case)]


@pytest.mark.parametrize("case", PERC_CLI_GRID, ids=lambda c: _key(*c))
def test_percolation_cli_digests(golden, case, tmp_path):
    assert perc_cli_digest(*case, str(tmp_path)) == golden["perc_cli"][_key(*case)]


@pytest.mark.parametrize("case", ANALYZE_GRID, ids=lambda c: _key(*c))
def test_analyze_cli_digests(golden, case, tmp_path):
    assert analyze_digest(*case, str(tmp_path)) == golden["analyze"][_key(*case)]


@pytest.mark.parametrize("case", FIGURE1_GRID, ids=lambda c: _key(*c))
def test_figure1_cli_digests(golden, case, tmp_path):
    assert figure1_digest(*case, str(tmp_path)) == golden["figure1"][_key(*case)]


@pytest.mark.parametrize("case", THEOREM_GRID, ids=lambda c: _key(*c))
def test_theorem_cli_digests(golden, case, tmp_path):
    assert theorem_digest(*case, str(tmp_path)) == golden["theorem"][_key(*case)]


@pytest.mark.parametrize("case", FIGURE1_JSON_GRID, ids=lambda c: _key(*c))
def test_figure1_json_cli_digests(golden, case, tmp_path):
    assert figure1_json_digest(*case, str(tmp_path)) == golden["figure1_json"][_key(*case)]


@pytest.mark.parametrize("case", THEOREM_GRID, ids=lambda c: _key(*c))
def test_theorem_json_cli_digests(golden, case, tmp_path):
    assert theorem_json_digest(*case, str(tmp_path)) == golden["theorem_json"][_key(*case)]


@pytest.mark.parametrize("case", PNE_STATS_GRID, ids=lambda c: _key(*c))
def test_pne_stats_cli_digests(golden, case, tmp_path):
    assert pne_stats_digest(*case, str(tmp_path)) == golden["pne_stats"][_key(*case)]


@pytest.mark.parametrize(
    "section", ["exact_walk", "perc_cli", "figure1", "theorem", "theorem_json"]
)
def test_digests_do_not_depend_on_thread_count(golden, section):
    by_threads = {}
    for key, digest in golden[section].items():
        rest, threads = key.rsplit("/", 1)
        by_threads.setdefault(rest, {})[threads] = digest
    for rest, digests in by_threads.items():
        assert digests["1"] == digests["2"], rest


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    import tempfile

    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        digests = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp_dir:
        print(f"recorded {record_missing(digests, tmp_dir)} new digests")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
