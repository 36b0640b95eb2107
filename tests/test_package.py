"""What the package needs to run, and the CI workflow files that install it."""
import os
import pathlib
import subprocess
import sys

import yaml

ROOT = pathlib.Path(__file__).resolve().parents[1]

# every subcommand and a kappa = 3 hard pair, whose crossing radius is a root-find
_EVERY_COMMAND = """
import contextlib, io, os, sys, tempfile
from secopt.cli import main
from secopt.functions import make_hard_pair

make_hard_pair(c0=0.5, c1=0.2, c2=1.6, eps=0.5, center=3.0, kappa=3.0)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    path = os.path.join(tmp, "t.txt")
    codes = [
        main(["run", "--seed", "1", "-N", "2", "--T=2000"]),
        main(["sweep", "--seed", "1", "-N", "2", "--budgets", "500,1000,1500,2000"]),
        main(["bounds"]),
        main(["export-transcript", "--seed", "1", "--T=2000", "--out", path]),
        main(["adversary-eval", "--transcript", path, "--x-star", "0.5", "--seed", "2"]),
    ]
assert codes == [0] * 5, codes
assert "scipy" not in sys.modules, "a run imported scipy"
"""


def test_no_scipy_at_runtime() -> None:
    # scipy is a test dependency only: `pip install .` does not install it
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _EVERY_COMMAND], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_workflow_files_parse() -> None:
    # a plain scalar holding ": " once made a whole workflow unreadable as YAML
    paths = sorted((ROOT / ".github" / "workflows").glob("*.yml"))
    assert paths
    for path in paths:
        workflow = yaml.safe_load(path.read_text())
        for name, job in workflow["jobs"].items():
            for step in job["steps"]:
                assert isinstance(step.get("run", ""), str), (path.name, name, step)
