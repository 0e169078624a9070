"""nashwalk benchmark: CLI sweeps timed end to end, and one traced run per layer.

    python3 nwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 starts fresh `python3 nwbench/child.py` processes, one CLI run
each, until S seconds have passed (at least MIN_CHILDREN, at most
MAX_CHILDREN).  Child k runs the workload's CLI arguments with
`--seed N*100+k --threads 1`.  The children run in one stream per CPU (at
most MAX_STREAMS), each stream pinned to its CPU and running one child at a
time, so a run measures twice the CLI seconds it could on one CPU.  Each
child times `import nashwalk.cli` apart from `main(argv)`, in process CPU
time; the parent reads the child's peak RSS from wait4, and the stream's
calibrate.py helper process, pinned to the same CPU, times calibrate.probe(n)
before the stream's first child and after each of its children, for n the
dimension of the workload's media and for n = calibrate.IMPORT_N.  It
reports:

    trials_per_s  median over children of fresh media completed / main() time,
                  at the reference speed of probe(workload's n)
    setup_s       median over children of the `import nashwalk.cli` time
                  (numpy and scipy included), at the reference speed of
                  probe(IMPORT_N)
    peak_rss_mb   median over children of each child's own max RSS

The times are CPU times because the CLI runs at --threads 1 in one process,
where CPU time is wall time less the time the host held the virtual CPU
back (steal).  "At the reference speed of probe(n)" means the time is
multiplied by calibrate.REFERENCE_S[n] / (mean of the probe(n) times just
before and just after the child, over the parts in Workload.probe_parts):
the shared host's speed drifts by far more than a regression bound, and the
probe, which nashwalk cannot affect, drifts with it (see calibrate.py).  On
the lines before the JSON it also prints each metric's quartiles over
children, the same medians as timed (unscaled), the median speed factors,
and failed_frac (runs that exited non-zero or printed a wrong output / runs).

--trace 1 runs child 0's arguments twice untraced, once at --threads 2 and
once traced in-process (one worker), and reports the per-layer metrics of
tracer.LAYER_METRICS plus parallel.speedup_2w and trace.overhead_frac.  All
four outputs must be byte-identical, and the trace's counts must reconcile
with the CLI output.

Every output is checked: against the sha256 recorded in expected.json for
the recorded seeds, and against the workload's invariants for every seed.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Scratch files go to .nwbench_out/ in the checkout and are
removed on exit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_CHILDREN = 2
MAX_CHILDREN = 40
MAX_STREAMS = 2
CHILD_TIMEOUT_S = 35.0  # children take 1.5-5 s; warm-up plus four must end within 180 s
EXPECTED_PATH = os.path.join(HERE, "expected.json")


# -- output invariants (hold for every seed) ----------------------------------


def _echo_and_rows(text: str) -> tuple[dict, list[dict]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing '# ' config echo line")
    echo = json.loads(lines[0][2:])
    return echo, list(csv.DictReader(io.StringIO("\n".join(lines[1:]) + "\n")))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(what)


def check_figure1(text: str, w: "Workload", seed: int) -> None:
    echo, rows = _echo_and_rows(text)
    _require(echo == {"schema_version": 1, "command": "figure1", "n": 15,
                      "alphas": [0.5, 0.9], "trials": w.trials,
                      "policies": ["brd", "srw"], "seed": seed}, f"echo {echo}")
    keys = [(r["alpha"], r["policy"]) for r in rows]
    _require(keys == [("0.5", "brd"), ("0.5", "srw"), ("0.9", "brd"), ("0.9", "srw")],
             f"rows {keys}")
    for r in rows:
        _require(r["n"] == "15" and int(r["trials_total"]) == w.trials, "n/trials")
        _require(1 <= int(r["trials_conditioned"]) <= w.trials, "conditioned")
        q = [int(r[c]) for c in ("q05", "q25", "q50", "q75", "q95")]
        _require(0 <= q[0] and q == sorted(q), f"quantiles {q}")


def check_pne(text: str, w: "Workload", seed: int) -> None:
    r = json.loads(text)
    mu = 1.5 ** 15
    _require(r["command"] == "pne-stats" and r["seed"] == seed, "echo")
    _require(r["n"] == 15 and r["alpha"] == 0.5 and r["samples"] == w.trials, "params")
    _require(math.isclose(r["expected_mean"], mu), "expected_mean")
    _require(r["mean"] > 0 and r["variance"] >= 0 and 0 <= r["prob_zero"] <= 1, "moments")
    _require(math.isclose(r["standardized_mean"], (r["mean"] - mu) / mu ** 0.5,
                          rel_tol=1e-9, abs_tol=1e-9), "standardized_mean")


def check_perc(text: str, w: "Workload", seed: int) -> None:
    r = json.loads(text)
    _require(r["command"] == "percolation" and r["seed"] == seed, "echo")
    _require(r["n"] == 12 and r["alpha"] == 0.5 and r["beta"] == 0.25, "params")
    _require(r["trials"] == w.trials, "trials")
    _require(r["identity_ok"] == w.trials, f"coupling identity failed: {r['identity_ok']}")
    _require(0 < r["pooled_open_fraction"] < 1, "open fraction")
    _require(0 <= r["fragment_mean"] <= 4096, "fragment mean")
    _require(0 <= r["lemma_mismatch_frequency"] <= 1, "lemma frequency")


def check_lazy(text: str, w: "Workload", seed: int) -> None:
    echo, rows = _echo_and_rows(text)
    _require(echo == {"schema_version": 1, "command": "walk", "n": 8, "alpha": 0.5,
                      "seed": seed, "policy": "brd", "trials": w.trials,
                      "mode": "lazy"}, f"echo {echo}")
    _require([int(r["trial"]) for r in rows] == list(range(w.trials)), "trial column")
    for r in rows:
        steps, term = int(r["steps"]), r["terminal"]
        _require(r["policy"] == "brd" and r["n"] == "8" and 0 <= steps <= 1000, "row")
        if term == "absorbed_pne":
            _require(r["tau"] == str(steps), "tau of an absorbed walk")
        elif term in ("step_cap", "unknown"):
            _require(steps == 1000 and r["tau"] == "", "capped walk")
        else:
            _require(term == "inside_trap" and r["xi"] != "" and int(r["xi"]) <= steps,
                     f"terminal {term}")


def lazy_steps(text: str) -> int:
    return sum(int(r["steps"]) for r in _echo_and_rows(text)[1])


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    trials: int
    media_per_trial: int  # fresh media one CLI trial builds
    check: Callable[[str, "Workload", int], None]
    dominant: str  # layer expected to hold the largest self-time share
    extra_checks: tuple[str, ...] = field(default=())
    # calibrate.probe parts whose speed scales this workload's main() time
    probe_parts: tuple[str, ...] = ("python", "numpy")

    def cli_args(self, seed: int, threads: int = 1) -> list[str]:
        return [*self.argv, "--trials", str(self.trials), "--seed", str(seed),
                "--threads", str(threads)]

    @property
    def media(self) -> int:
        return self.trials * self.media_per_trial

    @property
    def n(self) -> int:
        """Dimension of the workload's media, which sizes the calibration probe."""
        return int(self.argv[self.argv.index("--n") + 1])


WORKLOADS = {w.name: w for w in (
    Workload("figure1-n15", ("figure1", "--n", "15", "--alpha", "0.5", "--alpha", "0.9"),
             25, 2, check_figure1, "sinks+medium", ("scc_per_build",)),
    Workload("pne-n15", ("pne-stats", "--n", "15", "--alpha", "0.5"),
             100, 1, check_pne, "medium", ("degrees_per_trial",)),
    Workload("perc-n12", ("percolation", "--n", "12", "--alpha", "0.5"),
             15, 1, check_perc, "percolation", ("coupling_per_trial", "edges_assigned"),
             probe_parts=("python",)),
    Workload("lazy-n8", ("walk", "--n", "8", "--alpha", "0.5", "--mode", "lazy",
                         "--max-steps", "1000"),
             700, 1, check_lazy, "sinks.closure", ("lazy_steps",)),
)}


# -- child processes ------------------------------------------------------------


@dataclass
class Child:
    code: int
    setup_s: float  # wall seconds of `import nashwalk.cli`
    main_s: float  # wall seconds of main(argv)
    setup_cpu_s: float  # the same two in process CPU time
    main_cpu_s: float
    rss_mb: float
    stdout: bytes
    error: str | None = None
    # CPU speed while it ran, relative to calibrate.REFERENCE_S, for its
    # main (probe of the workload's n) and its import (probe of IMPORT_N)
    speed: float = 1.0
    import_speed: float = 1.0

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def run_child(out_dir: str, tag: str, cli_args: list[str],
              spans_path: str | None = None, cpu: int | None = None) -> Child:
    report = os.path.join(out_dir, f"{tag}.report.json")
    out_path = os.path.join(out_dir, f"{tag}.stdout")
    err_path = os.path.join(out_dir, f"{tag}.stderr")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), report]
    if spans_path is not None:
        cmd += ["--spans", spans_path]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    cmd += ["--", *cli_args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if code != 0 or not os.path.exists(report):
        with open(err_path, "rb") as fh:
            tail = fh.read()[-400:].decode("utf-8", "replace")
        return Child(code, 0.0, 0.0, 0.0, 0.0, rss_mb, stdout, f"exit {code}: {tail}")
    with open(report, encoding="utf-8") as fh:
        rep = json.load(fh)
    return Child(code, rep["setup_s"], rep["main_s"], rep["setup_cpu_s"], rep["main_cpu_s"],
                 rss_mb, stdout)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def verify(child: Child, w: Workload, seed: int, k: int, expected: dict) -> None:
    """Set child.error when the output is wrong for (seed, k)."""
    if child.error:
        return
    try:
        w.check(child.stdout.decode("utf-8"), w, seed * 100 + k)
    except (ValueError, KeyError, TypeError) as exc:
        child.error = f"invalid output: {exc!r}"
        return
    want = expected["digests"].get(w.name, {}).get(str(seed))
    if want is not None and k < len(want) and child.digest != want[k]:
        child.error = f"sha256 {child.digest} != recorded {want[k]}"


# -- the two modes ----------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Prober:
    """calibrate.py running in a helper process pinned to `cpu`, answering probes.

    The probe's inputs take megabytes, and a child inherits the RSS high-water
    mark of the process that starts it, so they must never live in this one.
    """

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "calibrate.py"), str(cpu)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        try:
            info = json.loads(self._read())
        except BaseException:
            self.close()
            raise
        self.reference_s = {int(n): parts for n, parts in info["reference_s"].items()}
        self.import_n = info["import_n"]

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration helper exited")
        return line

    def __call__(self, n: int) -> dict[str, float]:
        """CPU seconds of each part of one calibrate.probe(n)."""
        self.proc.stdin.write(f"{n}\n")
        self.proc.stdin.flush()
        return json.loads(self._read())

    def speed(self, n: int, parts: tuple[str, ...], before: dict, after: dict) -> float:
        """Speed around a child, relative to the reference, from the probes of n
        taken just before and just after it."""
        ref = sum(self.reference_s[n][p] for p in parts)
        return ref / statistics.fmean(sum(probe[n][p] for p in parts) for probe in (before, after))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def stream_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))[:MAX_STREAMS]


class Streams:
    """Children run one at a time per CPU; together the streams take child
    indices 0, 1, 2, ... until the run's time is used."""

    def __init__(self, w: Workload, seed: int, seconds: float, out_dir: str):
        self.w, self.seed, self.seconds, self.out_dir = w, seed, seconds, out_dir
        self.expected = load_expected()
        self.cpus = stream_cpus()
        self.lock = threading.Lock()
        self.next_k = 0
        self.children: dict[int, Child] = {}
        self.start = 0.0
        self.ready = threading.Barrier(len(self.cpus), action=self._start_clock)

    def _start_clock(self) -> None:
        self.start = time.monotonic()

    def _take(self, last: float) -> int | None:
        """The next child index, or None when the stream should stop: a child
        that takes as long as its stream's last one would end past the run."""
        with self.lock:
            k = self.next_k
            if k >= MAX_CHILDREN or (
                    k >= MIN_CHILDREN and time.monotonic() - self.start + last > self.seconds):
                return None
            self.next_k += 1
            return k

    def run(self) -> list[Child]:
        with ThreadPoolExecutor(len(self.cpus)) as ex:
            for future in [ex.submit(self._stream, cpu) for cpu in self.cpus]:
                future.result()
        return [self.children[k] for k in sorted(self.children)]

    def _stream(self, cpu: int) -> None:
        w = self.w
        prober = Prober(cpu)
        try:
            dims = {w.n, prober.import_n}

            def probes() -> dict[int, dict[str, float]]:
                return {n: prober(n) for n in dims}

            probes()  # a process's first probes run slow
            before = probes()
            try:
                self.ready.wait(timeout=CHILD_TIMEOUT_S)
            except threading.BrokenBarrierError:
                raise RuntimeError("a stream failed to start") from None
            last = 0.0
            while (k := self._take(last)) is not None:
                t = time.monotonic()
                child = run_child(self.out_dir, f"c{k}", w.cli_args(self.seed * 100 + k), cpu=cpu)
                after = probes()
                last = time.monotonic() - t
                child.speed = prober.speed(w.n, w.probe_parts, before, after)
                child.import_speed = prober.speed(prober.import_n, ("python", "numpy"),
                                                  before, after)
                before = after
                verify(child, w, self.seed, k, self.expected)
                if child.error:
                    print(f"child {k}: FAILED {child.error}", file=sys.stderr)
                else:
                    print(f"child {k} cpu {cpu}: main {child.main_cpu_s:.4f} s, import"
                          f" {child.setup_cpu_s:.4f} s (CPU), speed {child.speed:.4f},"
                          f" import speed {child.import_speed:.4f}")
                with self.lock:
                    self.children[k] = child
        except BaseException:
            self.ready.abort()
            raise
        finally:
            prober.close()


def end_to_end(w: Workload, seed: int, seconds: float, out_dir: str) -> dict:
    children = Streams(w, seed, seconds, out_dir).run()
    ok = [c for c in children if not c.error]
    failed = len(children) - len(ok)
    if not ok:
        raise SystemExit("no child run succeeded; nothing to report")
    rates = [w.media / (c.main_cpu_s * c.speed) for c in ok]
    setups = [c.setup_cpu_s * c.import_speed for c in ok]
    rss = [c.rss_mb for c in ok]
    metrics = {
        "trials_per_s": (statistics.median(rates), "trials/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }
    for name, values in (("trials_per_s", rates), ("setup_s", setups), ("peak_rss_mb", rss)):
        q1, q2, q3 = _quartiles(values)
        print(f"{w.name} {name} = {q2:.6g} {metrics[name][1]}  "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)} runs)")
    print(f"{w.name} as timed: trials_per_s {statistics.median(w.media / c.main_s for c in ok):.6g}"
          f" trials/s wall, {statistics.median(w.media / c.main_cpu_s for c in ok):.6g} CPU;"
          f" setup_s {statistics.median(c.setup_s for c in ok):.6g} s wall,"
          f" {statistics.median(c.setup_cpu_s for c in ok):.6g} CPU; speed"
          f" {statistics.median(c.speed for c in ok):.4g} x reference for main"
          f" (probe n={w.n} {'+'.join(w.probe_parts)}),"
          f" {statistics.median(c.import_speed for c in ok):.4g} for import;"
          f" {len(stream_cpus())} streams")
    print(f"{w.name} failed_frac = {failed / len(children):.6g} ratio "
          f"({failed} of {len(children)} runs)")
    return {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def reconcile(w: Workload, stats: dict, stdout: str) -> list[str]:
    """Trace counts that must agree with each other and with the CLI output."""
    m = stats["metrics"]
    problems = []

    def expect(name: str, got, want) -> None:
        if got != want:
            problems.append(f"{name}: {got} != {want}")

    expect("sum(walkers.terminal.*) vs walkers.walks",
           sum(m[f"walkers.terminal.{t}"] for t in tracer.TERMINALS), m["walkers.walks"])
    expect("medium.build.calls vs fresh media", m["medium.build.calls"], w.media)
    expect("traced trials vs CLI trials", stats["trials"], w.media)
    if "scc_per_build" in w.extra_checks:
        expect("sinks.scc.calls vs medium.build.calls",
               m["sinks.scc.calls"], m["medium.build.calls"])
    if "degrees_per_trial" in w.extra_checks:
        expect("medium.degrees.calls vs trials", m["medium.degrees.calls"], w.trials)
    if "coupling_per_trial" in w.extra_checks:
        expect("percolation.coupling.calls vs trials",
               m["percolation.coupling.calls"], w.trials)
        expect("every coupling identity held", stats["identity_all"], True)
    if "edges_assigned" in w.extra_checks:
        expect("percolation.coupling.edges_assigned vs edges touching q_final",
               m["percolation.coupling.edges_assigned"], stats["q_final_edges"])
    if "lazy_steps" in w.extra_checks:
        expect("walkers.steps vs CLI steps column", m["walkers.steps"], lazy_steps(stdout))
    return problems


def traced(w: Workload, seed: int, out_dir: str) -> dict:
    expected = load_expected()
    args = w.cli_args(seed * 100)
    runs = []
    for tag in ("u0", "u1"):
        runs.append(run_child(out_dir, tag, args))
    runs.append(run_child(out_dir, "w2", w.cli_args(seed * 100, threads=2)))
    spans_path = os.path.join(out_dir, "spans.json")
    runs.append(run_child(out_dir, "traced", args, spans_path=spans_path))
    for child in runs:
        verify(child, w, seed, 0, expected)
    reference = runs[0].stdout
    for child, label in zip(runs[1:], ("untraced rerun", "--threads 2", "traced")):
        if not child.error and child.stdout != reference:
            child.error = f"{label} output differs from the first untraced run"

    if runs[3].error:
        raise SystemExit(f"the traced run failed: {runs[3].error}")
    stats = tracer.analyse(tracer.load_spans(spans_path))
    problems = reconcile(w, stats, reference.decode("utf-8"))
    if problems:
        runs[3].error = "; ".join(problems)
    for child, label in zip(runs, ("untraced", "untraced rerun", "--threads 2", "traced")):
        if child.error:
            print(f"{label}: FAILED {child.error}", file=sys.stderr)

    untraced = statistics.median(c.main_s for c in runs[:2] if not c.error)
    values = dict(stats["metrics"])
    values["parallel.speedup_2w"] = untraced / runs[2].main_s if not runs[2].error else 0.0
    values["trace.overhead_frac"] = stats["wall_s"] / untraced - 1.0
    units = dict(tracer.LAYER_METRICS)
    units.update({"parallel.speedup_2w": "ratio", "trace.overhead_frac": "ratio"})

    shares = stats["layer_shares"]
    candidates = dict(shares)
    if w.dominant == "sinks+medium":
        candidates["sinks+medium"] = candidates.pop("sinks", 0.0) + candidates.pop("medium", 0.0)
    top = max(candidates, key=candidates.get)
    print(f"{w.name} layer self-time shares: "
          + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    print(f"{w.name} dominant layer: {top} ({candidates[top]:.3f}); predicted {w.dominant}"
          f" -> {'matches' if top == w.dominant else 'DIFFERS'}")
    for name, unit in units.items():
        print(f"{w.name} {name} = {values[name]:.6g} {unit}")
    failed = sum(1 for c in runs if c.error)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def warm_up() -> None:
    """Compile nashwalk's bytecode once, so no timed import pays for it."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import nashwalk.cli"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "nashwalk", "cli.py")):
        print("nwbench: src/nashwalk is missing; run from a nashwalk checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".nwbench_out", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        warm_up()
        if args.trace:
            result = traced(w, args.seed, out_dir)
        else:
            result = end_to_end(w, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
