"""Record the Fourier reference prices that the benchmark checks against.

Run from the root of a checkout whose pricing engine is trusted:

    python3 perfbench/record_reference.py

It prices both Fourier workloads at both sizes and rewrites
``perfbench/reference.json``.  The MC workload is checked against the
full-size ``fourier_ladder`` prices.
"""

import json
import os
import subprocess
import sys

import worker

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(worker.ROOT, "src"))
    calls = {}
    for size in worker.SIZES:
        calls[size] = {}
        for name, (_, _, engine) in worker.WORKLOADS.items():
            if engine != "fourier":
                continue
            _, results = worker.run_pass(worker.Inputs(name, 0, size, 1))
            calls[size][name] = {repr(k): res.call for k, res in results.items()}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=worker.ROOT,
                            capture_output=True, text=True).stdout.strip()
    with open(os.path.join(worker.HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"recorded_at_commit": commit or None, "calls": calls}, fh,
                  indent=1)
        fh.write("\n")
