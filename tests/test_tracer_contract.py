"""The benchmark tracer's contract with the package.

``nwbench/tracer.py`` wraps package functions by module and attribute name
after import.  A listed name the package no longer defines makes every traced
run fail with AttributeError, and one function object listed under two names
is wrapped twice, so each of its calls, and each trial it opens, counts twice.
The tracer module is only loaded here; installing it would rebind the
package, so the end-to-end count runs in a child process.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "nwbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("nwbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_objects(tracer):
    """(traced name, object) for every FUNCTIONS and METHODS entry."""
    from nashwalk.medium import Medium

    pairs = []
    for mod_name, fn_name, _ in tracer.FUNCTIONS:
        module = importlib.import_module(mod_name)
        assert hasattr(module, fn_name), f"{mod_name}.{fn_name} is gone"
        pairs.append((f"{mod_name}.{fn_name}", getattr(module, fn_name)))
    for method, _ in tracer.METHODS:
        assert method in vars(Medium), f"Medium.{method} is gone"
        pairs.append((f"Medium.{method}", vars(Medium)[method]))
    return pairs


def test_every_traced_name_resolves():
    tracer = load_tracer()
    pairs = traced_objects(tracer)
    assert all(callable(obj) for _, obj in pairs)
    assert tracer.TRIAL_WORKERS <= {fn for _, fn, _ in tracer.FUNCTIONS}


def test_no_function_is_traced_under_two_names():
    names_by_object: dict[int, list[str]] = {}
    for name, obj in traced_objects(load_tracer()):
        names_by_object.setdefault(id(obj), []).append(name)
    shared = [names for names in names_by_object.values() if len(names) > 1]
    assert not shared, f"wrapped more than once: {shared}"


# Runs each CLI command line under one installed tracer and prints how many
# trials the tracer had opened after each.
CHILD = """
import json, sys
import nashwalk.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
opened = []
for argv in sys.argv[1:]:
    assert nashwalk.cli.main(argv.split()) == 0
    opened.append(tracer.trial + 1)
print(json.dumps(opened))
"""


def test_each_traced_trial_is_counted_once(tmp_path):
    out = f"--seed 1 --threads 1 --out {tmp_path / 'out'}"
    runs = (
        f"figure1 --n 5 --alpha 0.5 --alpha 0.9 --trials 3 {out}",  # 6 trials
        f"theorem --n 4 --n 5 --alpha 0.5 --trials 2 {out}",  # 4 trials
        f"walk --n 5 --alpha 0.5 --trials 4 {out}",  # 4 trials
        f"walk --n 8 --alpha 0.5 --mode lazy --trials 3 {out}",  # 3 trials
        f"pne-stats --n 5 --alpha 0.5 --trials 3 {out}",  # 3 trials
        f"percolation --n 5 --alpha 0.5 --trials 2 {out}",  # 2 trials
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "nwbench")])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *runs], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [6, 10, 14, 17, 20, 22]
