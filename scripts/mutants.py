"""Replay the mutant table: every mutant must make its named tests fail.

    python3 scripts/mutants.py [MUTANT_ID ...]

Each entry of the table ``tests/mutants.json`` names a file, an exact anchor text in it, the text
that replaces the anchor and the tests that must catch the change.  For each
mutant (all of them, or the ids given), the script copies ``src/``,
``tests/``, ``configs/`` and ``pyproject.toml`` to a temporary directory,
applies the mutant there and runs only its tests.  The mutant is "killed" when every
named test fails (a test id without parameters stands for all of its
cases, and at least one must fail) and "survived" otherwise.  An anchor
that does not occur exactly once is an error, so a refactor has to carry
its mutants along.  The exit code is 0 only if every mutant was killed.
The working tree is never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "mutants.json"
COPIED = ("src", "tests", "configs", "pyproject.toml")
TIMEOUT_S = 900  # for one mutant's tests; the slowest entry takes a few seconds


def load_table() -> list[dict]:
    """The mutant table, with every anchor checked against the working tree."""
    table = json.loads(TABLE.read_text())
    for mutant in table:
        text = (ROOT / mutant["file"]).read_text()
        count = text.count(mutant["old"])
        if count != 1:
            raise SystemExit(f"mutant {mutant['id']}: anchor occurs {count} times in "
                             f"{mutant['file']}, expected once")
    return table


def run_mutant(mutant: dict) -> tuple[str, float, str]:
    """Apply ``mutant`` to a copy of the tree and run its tests there:
    ("killed" | "survived" | "error", seconds, detail)."""
    with tempfile.TemporaryDirectory(prefix="asgdsim-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        target = copy / mutant["file"]
        target.write_text(target.read_text().replace(mutant["old"], mutant["new"], 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *mutant["tests"]],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        seconds = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1):  # pytest exits 1 when a test failed
        return "error", seconds, (lines[-1:] or [done.stderr.strip()[-200:]])[0]
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    passed = [test for test in mutant["tests"]
              if not any(f == test or f.startswith((test + "[", test + "::")) for f in failed)]
    if passed:
        return "survived", seconds, "still passing: " + ", ".join(passed)
    return "killed", seconds, lines[-1]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    table = load_table()
    unknown = set(args.ids) - {m["id"] for m in table}
    if unknown:
        parser.error(f"unknown mutant ids {sorted(unknown)}")
    chosen = [m for m in table if not args.ids or m["id"] in args.ids]
    failed = 0
    for mutant in chosen:
        verdict, seconds, last = run_mutant(mutant)
        failed += verdict != "killed"
        print(f"{verdict:8s} {mutant['id']:32s} {seconds:6.1f} s  {last}", flush=True)
    print(f"{len(chosen) - failed}/{len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
