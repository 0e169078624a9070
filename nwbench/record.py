"""Record the reference stdout digests the benchmark checks outputs against.

    python3 nwbench/record.py [SEED ...]     (default: 0 and the held-out seed)

For each workload and bench seed it runs the CLI for every child index the
benchmark can reach and writes their sha256 to nwbench/expected.json.  Run it
only on a commit whose outputs are known to be right: the digests are the
byte-for-byte oracle for every later run of those seeds.
"""

import json
import os
import shutil
import sys

import run

HELD_OUT_SEED = 2718


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0, HELD_OUT_SEED]
    try:
        expected = run.load_expected()
    except FileNotFoundError:
        expected = {"digests": {}}
    out_dir = os.path.join(run.ROOT, ".nwbench_out", f"record-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        for w in run.WORKLOADS.values():
            for seed in seeds:
                digests = []
                for k in range(run.MAX_CHILDREN):
                    child = run.run_child(out_dir, f"r{k}", w.cli_args(seed * 100 + k))
                    run.verify(child, w, seed, k, {"digests": {}})
                    if child.error:
                        print(f"{w.name} seed {seed} child {k}: {child.error}",
                              file=sys.stderr)
                        return 1
                    digests.append(child.digest)
                expected["digests"].setdefault(w.name, {})[str(seed)] = digests
                print(f"{w.name} seed {seed}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    expected["held_out_seed"] = HELD_OUT_SEED
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
