import os
import subprocess
import sys
from pathlib import Path

import latcsim


def test_every_public_name_resolves():
    missing = [name for name in latcsim.__all__ if not hasattr(latcsim, name)]
    assert not missing
    assert len(set(latcsim.__all__)) == len(latcsim.__all__)


def test_cold_cli_import_adds_only_latcsim_and_stdlib():
    """In a fresh interpreter that has numpy and yaml, `import latcsim.cli`
    loads only latcsim's own and standard-library modules, so no heavier
    dependency (scipy, numpy submodules numpy does not load itself) enters
    the cold start of every CLI call."""
    code = (
        "import sys, numpy, yaml\n"
        "before = set(sys.modules)\n"
        "import latcsim.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    path = [str(Path(latcsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    foreign = [
        name for name in added
        if name.partition(".")[0] not in {"latcsim", *sys.stdlib_module_names}
    ]
    assert "latcsim.cli" in added
    assert not foreign
