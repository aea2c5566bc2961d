import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "snapshot_outputs.py"
HEADER = "# python 3.11.7\n# numpy 2.4.6\n# pyyaml 6.0.3\n"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("snapshot_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_matches_its_own_digest(tool):
    digest = HEADER + "aa  default/a.csv\nbb  default/manifest\n"
    assert tool.compare(digest, digest) == (0, ["outputs match: 2 paths"])


def test_check_lists_changed_missing_and_added_paths(tool):
    recorded = HEADER + "aa  default/a.csv\nbb  default/b.csv\ncc  default/manifest\n"
    rebuilt = HEADER + "aa  default/a.csv\nb2  default/b.csv\ndd  five-ue/new.csv\n"
    code, report = tool.compare(recorded, rebuilt)
    assert code == tool.OUTPUTS_DIFFER
    assert report == [
        "outputs differ: 3 of 3 paths",
        "changed  default/b.csv",
        "missing  default/manifest",
        "added  five-ue/new.csv",
    ]


def test_check_reports_another_platform_apart(tool):
    """A digest of another platform is no mismatch: its own exit code, and the
    differing paths listed for information."""
    recorded = HEADER + "aa  default/a.csv\nbb  default/manifest\n"
    rebuilt = HEADER.replace("2.4.6", "2.0.0") + "aa  default/a.csv\nb2  default/manifest\n"
    code, report = tool.compare(recorded, rebuilt)
    assert code == tool.PLATFORM_DIFFERS != tool.OUTPUTS_DIFFER
    assert report[0].startswith("platform differs: the digest names numpy 2.4.6")
    assert "this runs numpy 2.0.0" in report[0] and report[0].endswith("1 of 2 outputs differ")
    assert report[1:] == ["changed  default/manifest"]


def test_outputs_but_error_vs_k_match_the_committed_digest(tool, tmp_path):
    """Every snapshot output but the two error-vs-k runs has the sha256 that
    SNAPSHOT.sha256 records: latc-run at the packaged seed and at seeds
    0-39, inbeam, scattering and tolerated-error, on both configs. The
    single-trial fit feeds latc-run.csv and inbeam.csv. Skips on a
    platform other than the one that file names."""
    recorded = (ROOT / "SNAPSHOT.sha256").read_text()
    header, files = tool._parse(recorded)
    if header != tool.versions():
        pytest.skip(f"SNAPSHOT.sha256 records {header}, this platform runs {tool.versions()}")
    tool.snapshot(tmp_path, skip=("error-vs-k",))
    kept = "".join(line + "\n" for line in recorded.splitlines() if "/error-vs-k/" not in line)
    n_kept = sum(1 for path in files if "/error-vs-k/" not in path)
    assert n_kept == len(files) - 4  # a csv and a manifest per config
    assert tool.compare(kept, tool.digest(tmp_path)) == (0, [f"outputs match: {n_kept} paths"])


def test_diff_lists_every_changed_cell(tool, tmp_path):
    """--diff reports (path, row, column, old, new) per differing CSV cell,
    row being the file's line number: a moved value, a changed header, a
    row and a file that only one side has; identical files and non-CSV
    outputs are not reported."""
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "default/error-vs-k/error-vs-k.csv": ("K,mean_cm_m1\n10,4.5\n25,3.25\n", "K,mean_cm_m1\n10,4.5\n25,3.5\n50,2\n"),
        "default/hpbw.csv": ("M,hpbw_deg\n8,1\n", "M,width\n8,1\n"),
        "five-ue/latc-run/latc-run.csv": ("run_id,method\na,rss\n", "run_id,method\na,rss\n"),
        "five-ue/latc-run/manifest": ("seed=1\n", "seed=2\n"),
    }
    for path, (a, b) in files.items():
        for root, text in ((old, a), (new, b)):
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            (root / path).write_text(text)
    (new / "five-ue" / "extra.csv").write_text("x\n1\n")
    assert tool.diff_cells(old, new) == [
        ("default/error-vs-k/error-vs-k.csv", 3, "mean_cm_m1", "3.25", "3.5"),
        ("default/error-vs-k/error-vs-k.csv", 4, "K", "", "50"),
        ("default/error-vs-k/error-vs-k.csv", 4, "mean_cm_m1", "", "2"),
        ("default/hpbw.csv", 1, "hpbw_deg", "hpbw_deg", "width"),
        ("five-ue/extra.csv", 1, "x", "", "x"),
        ("five-ue/extra.csv", 2, "x", "", "1"),
    ]
    assert tool.diff_cells(old, old) == []
