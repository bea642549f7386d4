"""Run the two-worker straggler scaling sweep for both problem presets.

Writes scaling.json / scaling.csv / scaling.svg per preset under --out and
prints the fitted line.  Every other argument (``--slow-factors``,
``--epsilon``, ``--max-iterations``, ``--seed``, ...) goes to ``asgdsim
scaling`` as given, so that command holds the defaults.  With the defaults
this takes well under a minute.
"""

import argparse
import sys

from asgdsim.cli import main as cli_main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/scaling")
    args, rest = ap.parse_known_args(argv)

    for preset in ("quadratic", "logistic"):
        code = cli_main(["scaling", "--preset", preset, *rest,
                         "--out", f"{args.out}/{preset}"])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
