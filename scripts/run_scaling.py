"""Run the two-worker straggler scaling sweep for both problem presets.

Writes scaling.json / scaling.csv / scaling.svg per preset under --out and
prints the fitted line.  With the defaults this takes well under a minute.
"""

import argparse
import sys

from asgdsim.cli import main as cli_main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/scaling")
    ap.add_argument("--slow-factors", default="1,4,16,64,256")
    ap.add_argument("--epsilon", type=float, default=1e-14)
    ap.add_argument("--max-iterations", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    for preset in ("quadratic", "logistic"):
        code = cli_main([
            "scaling", "--preset", preset,
            "--slow-factors", args.slow_factors,
            "--epsilon", str(args.epsilon),
            "--max-iterations", str(args.max_iterations),
            "--seed", str(args.seed),
            "--out", f"{args.out}/{preset}",
        ])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
