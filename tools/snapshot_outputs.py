"""Write every CLI output of the packaged configs into one directory tree.

Usage: PYTHONPATH=src python tools/snapshot_outputs.py OUT

Runs the five subcommands on both packaged configs at their packaged
seed, plus ``latc-run --seed 0..39`` on both, each into its own directory
under OUT (``OUT/<config>/<subcommand>`` and
``OUT/<config>/latc-run-seed<N>``). latcsim is imported from PYTHONPATH,
so two checkouts snapshotted into two trees can be compared with
``diff -r``: a change that must not move any output leaves no difference.
The packaged error-vs-k runs 10^4 trials per (K, m) point and takes most
of the time; a full snapshot took 57-84 s over five runs on a shared
2-core x86-64 host.
"""

from __future__ import annotations

import sys
from pathlib import Path

from latcsim.cli import _SUBCOMMANDS, main

CONFIGS = ("default", "five-ue")
SEEDS = range(40)


def snapshot(out: Path) -> None:
    for config in CONFIGS:
        runs = [(command, [command]) for command in _SUBCOMMANDS]
        runs += [(f"latc-run-seed{s}", ["latc-run", "--seed", str(s)]) for s in SEEDS]
        for name, argv in runs:
            target = out / config / name
            code = main(argv + ["--config", config, "--out", str(target)])
            if code != 0:
                raise SystemExit(f"{config} {name}: exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: snapshot_outputs.py OUT")
    snapshot(Path(sys.argv[1]))
