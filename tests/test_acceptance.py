"""Acceptance gate: twelve end-to-end criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -v through the test
name, and in captured output on failure) and asserts the stated tolerance.
Every random quantity uses base seed 0 — the CLI default — so each criterion
is reproducible from the command line as well.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from nashwalk.experiments import (
    absorption_trend,
    percolation_audit,
    pne_count_stats,
    walk_length_quantiles,
)
from nashwalk.medium import (
    DOWN,
    TIE,
    UP,
    EdgeRef,
    PayoffSpec,
    build_medium,
    medium_from_payoffs,
    neighbor_partition,
    orientation,
    sample_payoff_game,
)
from nashwalk.percolation import (
    coupling_run,
    fragment_stats,
    sample_percolation,
)
from nashwalk.rng import fold, TAG_MEDIUM, TAG_PERC
from nashwalk.sinks import VertexClass, classify_vertex, enumerate_pnes, sink_components
from nashwalk.cli import main as cli_main

SEED = 0


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_figure1_medians():
    t0 = time.monotonic()
    rows = walk_length_quantiles(15, [0.5, 0.9], 500, ["brd", "srw"], seed=SEED)
    elapsed = time.monotonic() - t0
    med = {(r.policy, r.alpha): r.q50 for r in rows}
    ok = (
        31 <= med[("brd", 0.5)] <= 47
        and 48 <= med[("srw", 0.5)] <= 72
        and med[("brd", 0.9)] <= 2
        and med[("srw", 0.9)] <= 2
        and elapsed <= 300.0
    )
    _report(
        "criterion 1 (walk-length medians, n=15)",
        ok,
        f"brd@0.5={med[('brd', 0.5)]} (want 31..47), srw@0.5={med[('srw', 0.5)]} "
        f"(want 48..72), brd@0.9={med[('brd', 0.9)]}, srw@0.9={med[('srw', 0.9)]} "
        f"(want <=2), elapsed={elapsed:.1f}s (cap 300s)",
    )


def test_criterion_02_pne_mean_exact_law():
    t0 = time.monotonic()
    rep = pne_count_stats(12, 0.5, 2000, seed=SEED)
    elapsed = time.monotonic() - t0
    se = math.sqrt(rep.variance / rep.samples)
    dev = abs(rep.mean - rep.expected_mean)
    ok = dev <= 3 * se and elapsed <= 120.0
    _report(
        "criterion 2 (mean equilibrium count, n=12)",
        ok,
        f"mean={rep.mean:.3f} vs 1.5^12={rep.expected_mean:.3f}, |dev|={dev:.3f} "
        f"<= 3*SE={3 * se:.3f}, elapsed={elapsed:.1f}s (cap 120s)",
    )


def test_criterion_03_clt_shape():
    rep = pne_count_stats(15, 0.5, 1000, seed=SEED)
    ok = -0.15 <= rep.standardized_mean <= 0.15 and 0.8 <= rep.standardized_variance <= 1.2
    _report(
        "criterion 3 (CLT normalization, n=15)",
        ok,
        f"standardized mean={rep.standardized_mean:.4f} (want [-0.15, 0.15]), "
        f"standardized variance={rep.standardized_variance:.4f} (want [0.8, 1.2])",
    )


def test_criterion_04_poisson_limit():
    rep = pne_count_stats(14, 0.0, 2000, seed=SEED)
    dev = abs(rep.prob_zero - math.exp(-1))
    ok = dev <= 0.05
    _report(
        "criterion 4 (Poisson zero-count, n=14, alpha=0)",
        ok,
        f"P(no equilibrium)={rep.prob_zero:.4f} vs e^-1={math.exp(-1):.4f}, |dev|={dev:.4f} <= 0.05",
    )


def test_criterion_05_coupling_identity():
    cells = [(n, b) for n in range(4, 11) for b in (0.1, 0.25, 0.5)]
    holds = 0
    runs = 200
    for i in range(runs):
        n, beta = cells[i % len(cells)]
        medium = build_medium(n, 0.5, fold(SEED, TAG_MEDIUM, i))
        initial = sample_percolation(n, beta, fold(SEED, TAG_PERC, i))
        _, audit = coupling_run(medium, initial)
        if (
            audit.identity_holds
            and audit.q_final == audit.component_of_zero == audit.reverse_accessible
        ):
            holds += 1
    ok = holds == runs
    _report(
        "criterion 5 (coupling identity, n in 4..10, beta in {0.1,0.25,0.5})",
        ok,
        f"exact identity in {holds}/{runs} runs (want {runs}/{runs})",
    )


def test_criterion_06_coupling_marginal_preservation():
    runs = 500
    rep = percolation_audit(8, 0.5, runs, seed=SEED)  # alpha 0.5 -> beta 0.25
    total_edges = runs * 8 * (1 << 7)
    se = math.sqrt(0.25 * 0.75 / total_edges)
    dev = abs(rep["pooled_open_fraction"] - 0.25)
    ok = dev <= 3 * se and rep["identity_ok"] == runs
    _report(
        "criterion 6 (marginal preservation at beta=0.25)",
        ok,
        f"pooled open fraction={rep['pooled_open_fraction']:.5f}, |dev|={dev:.5f} "
        f"<= 3*SE={3 * se:.5f} over {runs} runs",
    )


def test_criterion_07_fragment_mean():
    sizes = [
        fragment_stats(sample_percolation(12, 0.4, fold(SEED, TAG_PERC, i))).fragment_size
        for i in range(2000)
    ]
    mean = float(np.mean(sizes))
    expected = 1.2**12
    rel = abs(mean - expected) / expected
    ok = rel <= 0.15
    _report(
        "criterion 7 (fragment mean, n=12, beta=0.4)",
        ok,
        f"mean fragment={mean:.3f} vs (1.2)^12={expected:.3f}, relative error={rel:.3%} <= 15%",
    )


def test_criterion_08_absorption_trend():
    rows = absorption_trend([8, 12, 16], 0.9, "brd", 1000, seed=SEED)
    by_n = {r.n: r for r in rows}
    pooled_se = math.sqrt(by_n[8].standard_error ** 2 + by_n[16].standard_error ** 2)
    ok = by_n[16].p_hat >= by_n[8].p_hat - 2 * pooled_se
    _report(
        "criterion 8 (absorption trend at alpha=0.9)",
        ok,
        "p_hat = "
        + ", ".join(f"n={r.n}: {r.p_hat:.4f} (SE {r.standard_error:.5f})" for r in rows)
        + f"; need p(16) >= p(8) - 2*pooled SE = {by_n[8].p_hat - 2 * pooled_se:.4f}",
    )


def test_criterion_09_structural_invariants():
    cells = list(itertools.product(range(6, 13), (0.3, 0.5, 0.8)))
    media = 500
    failures = []
    for i in range(media):
        n, alpha = cells[i % len(cells)]
        medium = build_medium(n, alpha, fold(SEED, TAG_MEDIUM, i))
        analysis = sink_components(medium)
        src, dst = medium.oriented_edge_arrays()
        out_deg = np.bincount(src, minlength=1 << n)
        if not np.array_equal(analysis.pne_mask, out_deg == 0):
            failures.append((i, "pne mask disagrees with out-degrees"))
            continue
        for trap in analysis.traps:
            members = set(trap)
            if len(trap) < 4:
                failures.append((i, f"trap of size {len(trap)}"))
                break
            closed = all(
                w in members for v in trap for w in neighbor_partition(medium, v).out
            )
            if not closed:
                failures.append((i, "trap has an escaping edge"))
                break
            # strong connectivity: all members reachable from the first one,
            # and the first one reachable from all (reverse search).
            if _reachable_within(medium, trap[0], members) != members:
                failures.append((i, "trap not forward-connected"))
                break
            if not all(trap[0] in _reachable_within(medium, v, members) for v in trap):
                failures.append((i, "trap not strongly connected"))
                break
    ok = not failures
    _report(
        "criterion 9 (structural invariants over 500 media)",
        ok,
        f"{media - len(failures)}/{media} media clean"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def _reachable_within(medium, start, members):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in neighbor_partition(medium, v).out:
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_criterion_10_payoff_oracle_equivalence():
    spec = PayoffSpec("discrete_uniform", k=4)
    games = 100
    mismatches = 0
    for i in range(games):
        n = 2 + (i % 9)  # sizes 2..10
        game = sample_payoff_game(n, spec, seed=fold(SEED, i))
        medium = medium_from_payoffs(game)
        ok = True
        for axis in range(n):
            for base in range(1 << n):
                if base >> axis & 1:
                    continue
                partner = base | (1 << axis)
                z_b = game.payoffs[axis, base]
                z_p = game.payoffs[axis, partner]
                want = DOWN if z_b > z_p else UP if z_p > z_b else TIE
                if orientation(medium, EdgeRef(base, axis)) != want:
                    ok = False
        brute_pnes = [
            v
            for v in range(1 << n)
            if not any(game.payoffs[p, v ^ (1 << p)] > game.payoffs[p, v] for p in range(n))
        ]
        if not ok or enumerate_pnes(medium) != brute_pnes:
            mismatches += 1
    _report(
        "criterion 10 (payoff-table oracle equivalence, 100 games)",
        mismatches == 0,
        f"{games - mismatches}/{games} games match brute-force payoff evaluation",
    )


def test_criterion_11_classification_agreement():
    n, alpha, budget = 12, 0.8, 1 << 12
    sampled = 0
    agreed = 0
    media = 10
    per_medium = 50
    for m in range(media):
        medium = build_medium(n, alpha, fold(SEED, TAG_MEDIUM, m))
        analysis = sink_components(medium)
        # ground truth: multi-source reverse reachability from the PNEs
        src, dst = medium.oriented_edge_arrays()
        rev = [[] for _ in range(1 << n)]
        for s, d in zip(src.tolist(), dst.tolist()):
            rev[d].append(s)
        reaches_pne = np.zeros(1 << n, dtype=bool)
        stack = list(analysis.pnes)
        reaches_pne[analysis.pnes] = True
        while stack:
            v = stack.pop()
            for u in rev[v]:
                if not reaches_pne[u]:
                    reaches_pne[u] = True
                    stack.append(u)
        for j in range(per_medium):
            v = fold(SEED, m, j) % (1 << n)
            if analysis.pne_mask[v]:
                want = VertexClass.PNE
            elif analysis.trap_mask[v]:
                want = VertexClass.IN_TRAP
            elif reaches_pne[v]:
                want = VertexClass.TRANSIENT
            else:
                want = VertexClass.DOOMED
            sampled += 1
            if classify_vertex(medium, v, budget=budget) == want:
                agreed += 1
    _report(
        "criterion 11 (vertex classification vs ground truth, n=12)",
        agreed == sampled == media * per_medium,
        f"{agreed}/{sampled} sampled vertices agree (budget 2^12)",
    )


def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    commands = [
        ["figure1", "--n", "6", "--alpha", "0.5", "--trials", "30"],
        ["figure1", "--n", "6", "--alpha", "0.5", "--trials", "30", "--format", "json"],
        ["theorem", "--n", "4", "--n", "6", "--alpha", "0.7", "--trials", "40"],
        ["pne-stats", "--n", "8", "--alpha", "0.5", "--trials", "100"],
        ["percolation", "--n", "7", "--alpha", "0.5", "--trials", "60"],
        ["walk", "--n", "6", "--alpha", "0.5", "--trials", "10"],
        ["analyze", "--n", "7", "--alpha", "0.6"],
        ["generate", "--n", "6", "--alpha", "0.4"],
    ]
    unstable = []
    for k, argv in enumerate(commands):
        blobs = []
        for attempt, threads in enumerate(("1", "4")):
            out = tmp_path / f"cmd{k}_try{attempt}.bin"
            monkeypatch.setenv("NASHWALK_THREADS", threads)
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0, f"{argv} exited {code}"
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            unstable.append(argv[0])
    ok = not unstable
    _report(
        "criterion 12 (CLI byte-identical reruns across worker counts)",
        ok,
        f"{len(commands) - len(unstable)}/{len(commands)} commands stable"
        + (f"; unstable: {unstable}" if unstable else ""),
    )
