#!/usr/bin/env python3
"""Check that the three certification commands still print byte-identical
output at the chain-length cap.

Each row runs ``python -m cuspline COMMAND --alpha ALPHA --n 10 --all FLAG``
from this checkout's ``src`` and compares the sha256 of its standard output
with a pinned prefix.  Every row is run and printed; the exit status is 1
when any digest differs or any command fails, else 0.  Standard library
only, so it runs without installing the package:

    python scripts/check_pinned_outputs.py
"""
from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

# (command, alpha, flag, sha256 prefix of the output)
PINS = (
    ("check-prop41", "1/2", "--json", "12632f7f"),
    ("check-prop41", "5/2", "--json", "b52b4c53"),
    ("check-prop41", "1/2", "--verbose", "ac11877f"),
    ("check-prop41", "5/2", "--verbose", "58f4cf87"),
    ("check-length", "1/2", "--json", "cc575e66"),
    ("check-length", "1/2", "--verbose", "8cdf90e5"),
    ("check-length", "5/2", "--json", "c21433f9"),
    ("check-length", "5/2", "--verbose", "53c78b5a"),
    ("check-mult", "1/2", "--json", "27df1aa2"),
    ("check-mult", "1/2", "--verbose", "0e49d0d5"),
    ("check-mult", "5/2", "--json", "c72d9e84"),
    ("check-mult", "5/2", "--verbose", "48e711f1"),
)


def main() -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    bad = 0
    for command, alpha, flag, want in PINS:
        proc = subprocess.run(
            [sys.executable, "-m", "cuspline", command,
             "--alpha", alpha, "--n", "10", "--all", flag],
            stdout=subprocess.PIPE, env=env,
        )
        got = hashlib.sha256(proc.stdout).hexdigest()
        ok = got.startswith(want) and proc.returncode == 0
        bad += not ok
        print(f"{command} alpha {alpha} {flag}: {got} exit {proc.returncode}"
              + ("" if ok else f"; want {want}... and exit 0"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
