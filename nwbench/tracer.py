"""Outside-in span tracer for the nashwalk package.

The tracer never edits the package.  It wraps the package's layer-boundary
functions after import and rebinds every ``nashwalk.*`` module attribute that
refers to an original, so a call site that moves between modules stays
covered.  Spans live in memory and are written once, as JSON, when the traced
run ends; :func:`analyse` turns them into per-layer numbers.

A span is ``[name, start, end, parent, trial, attrs]``: ``parent`` is the
index of the enclosing span (-1 for none) and ``trial`` the index of the trial
the span belongs to.  A trial starts at a per-trial worker or, where the
experiment loops inline, at the ``build_medium`` call that opens it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, function, layer group).  Exported functions come first; the
# experiment functions, per-trial workers, the pool helper and the CLI entry
# point are layer boundaries the package does not export.
FUNCTIONS = (
    ("nashwalk.medium", "build_medium", "medium.build"),
    ("nashwalk.medium", "medium_from_payoffs", "medium.other"),
    ("nashwalk.medium", "sample_payoff_game", "medium.other"),
    ("nashwalk.medium", "neighbor_partition", "medium.other"),
    ("nashwalk.medium", "orientation", "medium.other"),
    ("nashwalk.sinks", "sink_components", "sinks.scc"),
    ("nashwalk.sinks", "enumerate_pnes", "sinks.pne"),
    ("nashwalk.sinks", "classify_vertex", "sinks.closure"),
    ("nashwalk.sinks", "forward_closure", "sinks.closure"),
    ("nashwalk.sinks", "is_pne", "sinks.closure"),
    ("nashwalk.sinks", "expected_pne_count", "sinks.other"),
    ("nashwalk.sinks", "m_beta", "sinks.other"),
    ("nashwalk.walkers", "run_walk", "walkers"),
    ("nashwalk.walkers", "run_trials", "walkers"),
    ("nashwalk.walkers", "_trial_worker", "walkers"),
    ("nashwalk.walkers", "parse_policy", "walkers"),
    ("nashwalk.walkers", "step_distribution", "walkers"),
    ("nashwalk.walkers", "verify_assumption", "walkers"),
    ("nashwalk.percolation", "coupling_run", "percolation.coupling"),
    ("nashwalk.percolation", "connected_component", "percolation.identity"),
    ("nashwalk.percolation", "reverse_accessible_from_zero", "percolation.identity"),
    ("nashwalk.percolation", "largest_component", "percolation.components"),
    ("nashwalk.percolation", "fragment_stats", "percolation.components"),
    ("nashwalk.percolation", "sample_percolation", "percolation.sample"),
    ("nashwalk.percolation", "check_lemma_finally", "percolation.other"),
    ("nashwalk.experiments", "walk_length_quantiles", "experiments"),
    ("nashwalk.experiments", "absorption_trend", "experiments"),
    ("nashwalk.experiments", "pne_count_stats", "experiments"),
    ("nashwalk.experiments", "percolation_audit", "experiments"),
    ("nashwalk.experiments", "_walk_trial", "experiments"),
    ("nashwalk.experiments", "_pne_trial", "experiments"),
    ("nashwalk.parallel", "map_ordered", "parallel"),
    ("nashwalk.cli", "main", "cli"),
)

METHODS = (
    ("degrees", "medium.degrees"),
    ("oriented_edge_arrays", "medium.edge_arrays"),
)

# Functions whose call opens a new trial.
TRIAL_WORKERS = {"_walk_trial", "_pne_trial", "_trial_worker"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = -1
        # orientation_seen_from calls: the coupling assigns one edge per call
        self.edge_reads = 0
        self._extras: list = []  # (span, q_final, n), resolved in dump()

    def wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        opens_trial = name in TRIAL_WORKERS
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            if opens_trial or (
                name == "build_medium"
                and (parent < 0 or tracer.spans[parent][0] not in TRIAL_WORKERS)
            ):
                tracer.trial += 1
            span = [name, 0.0, 0.0, parent, tracer.trial, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            reads = tracer.edge_reads
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, span, args, result, tracer.edge_reads - reads)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary in every loaded ``nashwalk.*`` namespace."""
        import nashwalk.cli  # noqa: F401  (loads every layer)
        from nashwalk.medium import Medium

        modules = [m for k, m in sys.modules.items()
                   if k == "nashwalk" or k.startswith("nashwalk.")]
        for mod_name, fn_name, _ in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(fn_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        for method, _ in METHODS:
            setattr(Medium, method, self.wrap(method, getattr(Medium, method)))

        read = Medium.orientation_seen_from
        tracer = self

        @functools.wraps(read)
        def counted(medium, v, axis):
            tracer.edge_reads += 1
            return read(medium, v, axis)

        Medium.orientation_seen_from = counted

    def dump(self, path: str) -> None:
        for span, q_final, n in self._extras:
            span[5]["q_final_edges"] = edges_touching(q_final, n)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def edges_touching(vertices, n: int) -> int:
    """Cube edges with at least one endpoint in `vertices`."""
    members = set(vertices)
    inside = sum(1 for v in members for axis in range(n) if v ^ (1 << axis) in members)
    return n * len(members) - inside // 2


# -- result observers: attrs read off return values, outside the span ---------


def _observe_walk(tracer, span, args, record, _):
    span[5] = {"steps": record.steps_taken, "terminal": record.terminal,
               "xi": record.xi}


def _observe_closure(tracer, span, args, result, _):
    span[5] = {"visited": len(result.visited)}


def _observe_classify(tracer, span, args, verdict, _):
    span[5] = {"verdict": str(verdict.value)}


def _observe_coupling(tracer, span, args, result, reads):
    medium = args[0]
    audit = result[1]
    span[5] = {"rounds": audit.rounds_to_fixpoint, "edges_assigned": reads,
               "identity": bool(audit.identity_holds)}
    tracer._extras.append((span, audit.q_final, medium.n_players))


_OBSERVERS = {
    "run_walk": _observe_walk,
    "forward_closure": _observe_closure,
    "classify_vertex": _observe_classify,
    "coupling_run": _observe_coupling,
}


# -- analysis -----------------------------------------------------------------

GROUP = {fn: group for _, fn, group in FUNCTIONS}
GROUP.update(METHODS)

# Per-layer metric names with their units, in report order.
LAYER_METRICS = (
    ("medium.build.calls", "count"), ("medium.build.ms", "ms"),
    ("medium.build.share", "ratio"),
    ("medium.degrees.calls", "count"), ("medium.degrees.ms", "ms"),
    ("medium.degrees.share", "ratio"),
    ("medium.edge_arrays.ms", "ms"), ("medium.edge_arrays.share", "ratio"),
    ("sinks.scc.calls", "count"), ("sinks.scc.ms", "ms"),
    ("sinks.scc.share", "ratio"), ("sinks.scc.useful_ratio", "ratio"),
    ("sinks.closure.calls", "count"), ("sinks.closure.visited", "count"),
    ("sinks.closure.share", "ratio"), ("sinks.closure.useful_ratio", "ratio"),
    ("walkers.walks", "count"), ("walkers.steps", "count"),
    ("walkers.step_us", "us"), ("walkers.share", "ratio"),
    ("walkers.terminal.absorbed_pne", "count"),
    ("walkers.terminal.inside_trap", "count"),
    ("walkers.terminal.step_cap", "count"),
    ("walkers.terminal.unknown", "count"),
    ("percolation.coupling.calls", "count"), ("percolation.coupling.ms", "ms"),
    ("percolation.coupling.rounds", "count"),
    ("percolation.coupling.edges_assigned", "count"),
    ("percolation.identity.ms", "ms"), ("percolation.components.ms", "ms"),
    ("percolation.share", "ratio"),
    ("experiments.self.share", "ratio"),
    ("experiments.trial_ms.p50", "ms"), ("experiments.trial_ms.p95", "ms"),
)

TERMINALS = ("absorbed_pne", "inside_trap", "step_cap", "unknown")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def analyse(spans: list[list]) -> dict:
    """Self times, counts and reconciliation inputs from one traced run."""
    dur = [s[2] - s[1] for s in spans]
    self_time = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_time[s[3]] -= dur[i]
    roots = [i for i, s in enumerate(spans) if s[0] == "main"]
    wall = sum(dur[i] for i in roots)

    by_group: dict[str, float] = {}
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    per_trial: dict[int, float] = {}
    for i, s in enumerate(spans):
        name = s[0]
        group = GROUP[name]
        by_group[group] = by_group.get(group, 0.0) + self_time[i]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        if s[4] >= 0:
            per_trial[s[4]] = per_trial.get(s[4], 0.0) + self_time[i]

    def share(*groups):
        return _ratio(sum(by_group.get(g, 0.0) for g in groups), wall)

    def ms_per_call(name):
        return _ratio(incl.get(name, 0.0) * 1e3, calls.get(name, 0))

    walks = [s for s in spans if s[0] == "run_walk"]
    terminals = {t: 0 for t in TERMINALS}
    for s in walks:
        terminals[s[5]["terminal"]] += 1
    steps = sum(s[5]["steps"] for s in walks)

    # An SCC is useful when its trap mask changed a walk record of its trial.
    trap_relevant = {s[4] for s in walks
                     if s[5]["xi"] is not None or s[5]["terminal"] != "absorbed_pne"}
    scc_trials = [s[4] for s in spans if s[0] == "sink_components"]
    verdicts = [s[5]["verdict"] for s in spans if s[0] == "classify_vertex"]
    closures = [s for s in spans if s[0] == "forward_closure"]
    couplings = [s for s in spans if s[0] == "coupling_run"]
    identity_s = incl.get("connected_component", 0.0) + incl.get(
        "reverse_accessible_from_zero", 0.0)
    # Component labelling per outermost call (fragment_stats nests one).
    labelling = [dur[i] for i, s in enumerate(spans)
                 if GROUP[s[0]] == "percolation.components"
                 and (s[3] < 0 or GROUP[spans[s[3]][0]] != "percolation.components")]
    trial_ms = [t * 1e3 for t in per_trial.values()]

    metrics = {
        "medium.build.calls": calls.get("build_medium", 0),
        "medium.build.ms": ms_per_call("build_medium"),
        "medium.build.share": share("medium.build"),
        "medium.degrees.calls": calls.get("degrees", 0),
        "medium.degrees.ms": ms_per_call("degrees"),
        "medium.degrees.share": share("medium.degrees"),
        "medium.edge_arrays.ms": ms_per_call("oriented_edge_arrays"),
        "medium.edge_arrays.share": share("medium.edge_arrays"),
        "sinks.scc.calls": len(scc_trials),
        "sinks.scc.ms": ms_per_call("sink_components"),
        "sinks.scc.share": share("sinks.scc"),
        "sinks.scc.useful_ratio": _ratio(
            sum(1 for t in scc_trials if t in trap_relevant), len(scc_trials)),
        "sinks.closure.calls": len(closures),
        "sinks.closure.visited": sum(s[5]["visited"] for s in closures),
        "sinks.closure.share": share("sinks.closure"),
        "sinks.closure.useful_ratio": _ratio(
            sum(1 for v in verdicts if v != "unknown"), len(verdicts)),
        "walkers.walks": len(walks),
        "walkers.steps": steps,
        "walkers.step_us": _ratio(
            sum(self_time[i] for i, s in enumerate(spans) if s[0] == "run_walk") * 1e6,
            steps),
        "walkers.share": share("walkers"),
        "percolation.coupling.calls": len(couplings),
        "percolation.coupling.ms": ms_per_call("coupling_run"),
        "percolation.coupling.rounds": sum(s[5]["rounds"] for s in couplings),
        "percolation.coupling.edges_assigned": sum(
            s[5]["edges_assigned"] for s in couplings),
        "percolation.identity.ms": _ratio(identity_s * 1e3, len(couplings)),
        "percolation.components.ms": _ratio(sum(labelling) * 1e3, len(labelling)),
        "percolation.share": share(*(g for g in by_group if g.startswith("percolation"))),
        "experiments.self.share": share("experiments"),
        "experiments.trial_ms.p50": statistics.median(trial_ms) if trial_ms else 0.0,
        "experiments.trial_ms.p95": _quantile(trial_ms, 0.95),
    }
    for t in TERMINALS:
        metrics[f"walkers.terminal.{t}"] = terminals[t]

    layers: dict[str, float] = {}
    for group, t in by_group.items():
        layer = "sinks.closure" if group == "sinks.closure" else group.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + _ratio(t, wall)

    return {
        "metrics": metrics,
        "wall_s": wall,
        "layer_shares": layers,
        "trials": len(per_trial),
        "q_final_edges": sum(s[5]["q_final_edges"] for s in couplings),
        "identity_all": all(s[5]["identity"] for s in couplings),
    }
