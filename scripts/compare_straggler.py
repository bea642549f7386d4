"""Async vs minibatch on a fleet with one heavy straggler.

Nine fast workers and one 20x straggler on a noisy quadratic.  Tunes each
policy separately, then reruns the async winner with both delay-adaptive
modes.  Outputs land in results/straggler_compare/.
"""

import json
import sys
import tempfile
from pathlib import Path

from asgdsim.cli import main as cli_main

CONFIG = {
    "seed": 1,
    "objective": {"family": "quadratic", "dim": 10,
                  "lambda_min": 1.0, "lambda_max": 2.0},
    "workers": [
        {"time": "constant", "delta": 1.0, "count": 9},
        {"time": "constant", "delta": 20.0},
    ],
    "policy": {"kind": "max_concurrency"},
    "stop": {"max_iterations": 30_000, "grad_tol": 1e-8},
    "noise_sigma": 0.0,
    "stepsize": {"kind": "constant", "eta": 0.1},
    "tuning": {"low": 1e-4, "high": 1.0, "points_per_decade": 4},
}

OUT = "results/straggler_compare"


def run():
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(CONFIG, fh)
        path = Path(fh.name)
    try:
        return cli_main(["compare", str(path), "--out", OUT])
    finally:
        path.unlink()


if __name__ == "__main__":
    sys.exit(run())
