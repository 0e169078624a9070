"""A fixed reference computation that measures how fast a CPU is right now.

The benchmark runs on virtual CPUs that share a host with other tenants, and
their speed drifts by 20-40% over tens of seconds to minutes, far more than a
code change should be allowed to cost.  Steal time stays small while it
happens, so the drift comes from contention for the host's caches and memory,
and how much it slows code depends on the code's working set: a probe over a
fixed mid-sized graph over-corrected the sweep over 2^8-vertex media.  The
benchmark therefore times, between its CLI runs and on the same CPU, a probe
whose working set matches the workload's medium, and scales each run's
timings to the probe's reference time on the measuring machine
(REFERENCE_S).  The probe does not use nashwalk, so a change to the package
cannot move it.  All its times are CPU times, like the CLI runs' times.

run.py runs this file as a helper process and asks it for probes over a pipe
(see serve()): the probe holds megabytes of inputs, and a CLI child started by
a process inherits that process's RSS high-water mark at exec, so probing in
the benchmark's own process would inflate every child's peak_rss_mb.

The probe for dimension n has two parts, timed apart: a depth-first search
over the n-dimensional hypercube held as a Python dict of neighbour lists
(interpreter work over dicts, lists and sets, like the package's walks,
closure probes and percolation growth) and repeated numpy sorts of a 2^n
array (like the package's table hashing and degree passes).  A workload is
scaled by the parts that resemble its work (run.Workload.probe_parts).
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys
import time

import numpy as np

# CPU seconds of probe(n)'s parts at the measuring machine's usual speed (see
# rationale.json, "calibration").  Only the ratio to it matters; it fixes the
# scale of the reported values.
REFERENCE_S = {8: {"python": 0.10, "numpy": 0.11},
               12: {"python": 0.15, "numpy": 0.09},
               15: {"python": 0.16, "numpy": 0.05}}

# Importing nashwalk.cli (numpy and scipy included) touches about as much
# memory as the largest media, so setup_s is scaled by the probe of this
# dimension whatever the workload: scaled by the 2^8 probe, lazy-n8's setup_s
# moved 23% between two ten-run sets where the 2^12 and 2^15 ones moved 1-8%.
IMPORT_N = 15

# Depth-first searches and sorts per round, chosen so that each part takes
# 25-90 ms per round on the measuring machine.
REPS = {8: (360, 9000), 12: (18, 1200), 15: (1, 80)}


@functools.cache
def _inputs(n: int) -> tuple[dict, np.ndarray]:
    rnd = random.Random(12345)
    bits = list(range(n))
    graph = {}
    for v in range(1 << n):
        rnd.shuffle(bits)
        graph[v] = [v ^ (1 << i) for i in bits]
    array = np.random.default_rng(7).integers(0, 1 << 30, size=1 << n, dtype=np.int64)
    return graph, array


def _python_part(graph: dict, reps: int) -> int:
    acc = 0
    for _ in range(reps):
        seen = {0}
        todo = [0]
        while todo:
            v = todo.pop()
            acc = (acc * 31 + v) & 0xFFFFFFFF
            for u in graph[v]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
    return acc


def _numpy_part(array: np.ndarray, reps: int) -> int:
    x = array
    total = 0
    for _ in range(reps):
        x = np.sort(x ^ (x >> 3))
        total += int(np.count_nonzero(x & 1))
    return total


def probe(n: int, rounds: int = 2) -> dict[str, float]:
    """CPU seconds of `rounds` rounds of each part of the reference computation
    for dimension n, as {"python": seconds, "numpy": seconds}.

    The inputs are built once per process, before the first clock starts.
    """
    graph, array = _inputs(n)
    python_reps, numpy_reps = REPS[n]
    out = {}
    for part, run in (("python", lambda: _python_part(graph, python_reps)),
                      ("numpy", lambda: _numpy_part(array, numpy_reps))):
        t = time.process_time()
        for _ in range(rounds):
            run()
        out[part] = time.process_time() - t
    return out


def serve(cpu: int | None = None) -> None:
    """Print the constants as one JSON line, then answer one probe per stdin line.

    A request is a dimension n; the answer is probe(n) as JSON.  With `cpu`
    the helper first pins itself to that CPU.  It ends when its stdin closes.
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    print(json.dumps({"reference_s": REFERENCE_S, "import_n": IMPORT_N}), flush=True)
    for line in sys.stdin:
        print(json.dumps(probe(int(line))), flush=True)


if __name__ == "__main__":
    serve(int(sys.argv[1]) if len(sys.argv) > 1 else None)
