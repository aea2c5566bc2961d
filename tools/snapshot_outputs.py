"""Write every CLI output of the packaged configs into one directory tree.

Usage: PYTHONPATH=src python tools/snapshot_outputs.py OUT [--digest FILE]

Runs the five subcommands on both packaged configs at their packaged
seed, plus ``latc-run --seed 0..39`` on both, each into its own directory
under OUT (``OUT/<config>/<subcommand>`` and
``OUT/<config>/latc-run-seed<N>``). latcsim is imported from PYTHONPATH,
so two checkouts snapshotted into two trees can be compared with
``diff -r``: a change that must not move any output leaves no difference.
A full snapshot took 16 s on a 2-core x86-64 host.

``--digest FILE`` also writes one ``sha256  path`` line per output file,
sorted by its path under OUT, after a header of ``#`` lines naming the
Python, numpy and PyYAML versions. Every manifest records the Python and
numpy versions, so a digest holds for the platform it names; the
committed ``SNAPSHOT.sha256`` is such a file.
"""

from __future__ import annotations

import argparse
import hashlib
import platform
from pathlib import Path

import numpy as np
import yaml

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


def digest(out: Path) -> str:
    """The versions header, then "sha256  path" per file under out, sorted by path."""
    lines = [
        f"# python {platform.python_version()}",
        f"# numpy {np.__version__}",
        f"# pyyaml {yaml.__version__}",
    ]
    for path in sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()):
        lines.append(f"{hashlib.sha256((out / path).read_bytes()).hexdigest()}  {path}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--digest", type=Path, metavar="FILE")
    args = parser.parse_args()
    snapshot(args.out)
    if args.digest:
        args.digest.write_text(digest(args.out))
