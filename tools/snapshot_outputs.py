"""Write every CLI output of the packaged configs into one directory tree.

Usage: PYTHONPATH=src python tools/snapshot_outputs.py OUT [--digest FILE]
       PYTHONPATH=src python tools/snapshot_outputs.py [OUT] --check FILE
       PYTHONPATH=src python tools/snapshot_outputs.py --diff OLD NEW

Runs the five subcommands on both packaged configs at their packaged
seed, plus ``latc-run --seed 0..39`` on both, each into its own directory
under OUT (``OUT/<config>/<subcommand>`` and
``OUT/<config>/latc-run-seed<N>``). latcsim is imported from PYTHONPATH,
so two checkouts snapshotted into two trees can be compared with
``diff -r``: a change that must not move any output leaves no difference.
A full snapshot takes about 13 s on a 2-core x86-64 host.

``--digest FILE`` also writes one ``sha256  path`` line per output file,
sorted by its path under OUT, after a header of ``#`` lines naming the
Python, numpy and PyYAML versions. Every manifest records the Python and
numpy versions, so a digest holds for the platform it names; the
committed ``SNAPSHOT.sha256`` is such a file.

``--check FILE`` rebuilds the outputs (in OUT, or in a temporary
directory) and compares their digest with FILE. It lists every path whose
digest differs or that only one side has, and exits 0 when none does,
1 when outputs differ on the platform FILE names, and 3 when FILE names
another platform, where differences are to be expected.

``--diff OLD NEW`` compares two snapshot trees cell by cell. It prints one
tab-separated ``path, row, column, old, new`` line per CSV cell that
differs, row being the line number in the file and column the header's
name; a file or row that only one side has reads as empty cells on the
other. It exits 0 when no cell differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import platform
import tempfile
from pathlib import Path

import numpy as np
import yaml

from latcsim.cli import _SUBCOMMANDS, main

CONFIGS = ("default", "five-ue")
SEEDS = range(40)
OUTPUTS_DIFFER = 1
PLATFORM_DIFFERS = 3


def snapshot(out: Path, skip: tuple[str, ...] = ()) -> None:
    """Every output into out; the subcommands named in skip are left out."""
    for config in CONFIGS:
        runs = [(command, [command]) for command in _SUBCOMMANDS if command not in skip]
        runs += [(f"latc-run-seed{s}", ["latc-run", "--seed", str(s)]) for s in SEEDS]
        for name, argv in runs:
            target = out / config / name
            code = main(argv + ["--config", config, "--out", str(target)])
            if code != 0:
                raise SystemExit(f"{config} {name}: exit {code}")


def versions() -> dict[str, str]:
    """The Python, numpy and PyYAML versions that a digest's header names."""
    return {"python": platform.python_version(), "numpy": np.__version__, "pyyaml": yaml.__version__}


def digest(out: Path) -> str:
    """The versions header, then "sha256  path" per file under out, sorted by path."""
    lines = [f"# {name} {version}" for name, version in versions().items()]
    for path in sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()):
        lines.append(f"{hashlib.sha256((out / path).read_bytes()).hexdigest()}  {path}")
    return "\n".join(lines) + "\n"


def _parse(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """(versions header, sha256 per path) of a digest."""
    header, files = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            name, _, version = line[2:].partition(" ")
            header[name] = version
        elif line:
            sha, _, path = line.partition("  ")
            files[path] = sha
    return header, files


def _versions(header: dict[str, str]) -> str:
    return ", ".join(f"{name} {version}" for name, version in sorted(header.items()))


def compare(recorded: str, rebuilt: str) -> tuple[int, list[str]]:
    """Exit code and report lines for a rebuilt digest against a recorded one."""
    want_header, want = _parse(recorded)
    got_header, got = _parse(rebuilt)
    changed = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    report = []
    for path in changed:
        kind = "missing" if path not in got else "added" if path not in want else "changed"
        report.append(f"{kind}  {path}")
    if want_header != got_header:
        summary = (
            f"platform differs: the digest names {_versions(want_header)}, this runs"
            f" {_versions(got_header)}; {len(changed)} of {len(want)} outputs differ"
        )
        return PLATFORM_DIFFERS, [summary] + report
    if changed:
        return OUTPUTS_DIFFER, [f"outputs differ: {len(changed)} of {len(want)} paths"] + report
    return 0, [f"outputs match: {len(want)} paths"]


def _rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        return []
    with path.open(newline="") as f:
        return list(csv.reader(f))


def diff_cells(old: Path, new: Path) -> list[tuple[str, int, str, str, str]]:
    """(path, row, column, old, new) of every CSV cell that differs between
    the trees old and new, in path, row and column order."""
    paths = {p.relative_to(root).as_posix() for root in (old, new) for p in root.rglob("*.csv")}
    cells = []
    for path in sorted(paths):
        a, b = _rows(old / path), _rows(new / path)
        header = (a or b)[0] if a or b else []
        for r in range(max(len(a), len(b))):
            row_a, row_b = (a[r] if r < len(a) else []), (b[r] if r < len(b) else [])
            for c in range(max(len(row_a), len(row_b))):
                x, y = (row_a[c] if c < len(row_a) else ""), (row_b[c] if c < len(row_b) else "")
                if x != y:
                    cells.append((path, r + 1, header[c] if c < len(header) else str(c + 1), x, y))
    return cells


def check(out: Path, recorded: Path) -> int:
    snapshot(out)
    code, report = compare(recorded.read_text(), digest(out))
    print("\n".join(report))
    return code


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("out", type=Path, nargs="?")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--digest", type=Path, metavar="FILE")
    group.add_argument("--check", type=Path, metavar="FILE")
    group.add_argument("--diff", type=Path, nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.diff:
        changed = diff_cells(*args.diff)
        print("\n".join("\t".join(map(str, cell)) for cell in changed))
        raise SystemExit(OUTPUTS_DIFFER if changed else 0)
    if args.check:
        if args.out:
            raise SystemExit(check(args.out, args.check))
        with tempfile.TemporaryDirectory() as tmp:
            raise SystemExit(check(Path(tmp), args.check))
    if args.out is None:
        parser.error("OUT is required without --check")
    snapshot(args.out)
    if args.digest:
        args.digest.write_text(digest(args.out))
