"""Host-speed references: fixed work timed beside the program's, so that each
time can be put at one reference host speed.

    python3 perfbench/reference.py SPINOR_FILE

The benchmark runs on shared hosts that switch between a fast and slower
states, 1.2x to 1.7x apart, in phases of seconds to minutes, long enough to
cover whole runs.  Such a phase slows the reference work about as much as
the program's, so a time multiplied by ``reference time in the fast state /
reference time now`` keeps the program's own cost and drops the host's
phase.  Neither reference imports spinorspace, so no change to the program
moves them.

* The job (this file run as a script) stands in for a CLI command: a fresh
  interpreter imports numpy, parses a spinor file, takes a 4x4 complex
  product of each spinor and writes an indented JSON report.
* ``CallReference.sample`` stands in for single API calls: the same kind of
  product on a few hundred spinors, in-process, with no JSON.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# times on the 2-vCPU Intel Xeon host the bounds were set on (Python 3.11,
# numpy 2, one BLAS thread), in its fast state: corrected times read as
# times at that speed
JOB_S = 0.11
CALL_SAMPLE_S = 0.00175
# entries of the job's spinor file, drawn from a fixed seed
JOB_ENTRIES = 500


class CallReference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.spinors = list(rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4)))

    def sample(self) -> float:
        """Wall time of the in-process reference work, in seconds."""
        matrix = self.matrix
        start = time.perf_counter()
        total = 0.0
        for psi in self.spinors:
            phi = matrix @ psi
            mixed = np.array([phi[0], phi[1], psi[2], psi[3]])
            total += float(np.vdot(mixed, psi).real) + float(np.sum(np.abs(phi) ** 2))
        return time.perf_counter() - start


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    gamma = np.arange(16.0).reshape(4, 4) * (1.0 + 0.5j)
    rows = []
    for entry in doc["entries"]:
        psi = np.array([complex(re, im) for re, im in entry["components"]])
        phi = gamma @ psi
        rows.append({"id": entry["id"], "value": [float(phi[0].real), float(phi[0].imag)],
                     "overlap": float(np.vdot(phi, psi).real)})
    sys.stdout.write(json.dumps({"version": 1, "results": rows}, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
