"""The package runs on the dependencies pyproject.toml declares, and on no
other: its modules import numpy and the standard library alone, and the
CLI's commands load no scipy module."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flowtracker_lab

PACKAGE = Path(flowtracker_lab.__file__).parent
ROOT = PACKAGE.parents[1]
TESTS = Path(__file__).parent


def third_party_imports(files) -> set[str]:
    """Top-level names the files import that are neither the standard
    library's nor the package's own."""
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"flowtracker_lab"}


def declared(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")
    path = ROOT / "pyproject.toml"
    if not path.exists():
        pytest.skip("no pyproject.toml beside the package's source")
    return tomllib.loads(path.read_text())["project"]


def test_the_package_imports_exactly_its_declared_dependencies(project):
    assert third_party_imports(PACKAGE.glob("*.py")) == declared(project["dependencies"])


def test_the_tests_import_only_declared_dependencies_and_test_extras(project):
    allowed = declared(project["dependencies"]) | declared(
        project["optional-dependencies"]["test"]
    )
    assert third_party_imports(TESTS.glob("*.py")) <= allowed


SCHEDULE = '{"kind": "custom-piecewise", "times": [0, 1, 2], "values": [1, 0.5, 0.25]}'
# runs the CLI with argv, then reports every scipy module it left loaded
PROBE = (
    "import json, sys\n"
    "from flowtracker_lab.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "loaded = sorted(name for name in sys.modules if name.startswith('scipy'))\n"
    "sys.stderr.write('\\n' + json.dumps([code, loaded]))\n"
)


@pytest.mark.parametrize(
    "args, exit_code",
    [
        ([], 0),
        (["run", "--scenario", "counterexample", "--out", "OUT"], 0),
        (["selftest"], 0),
        # the last piece persists, so alpha^2 does not integrate: invalid, exit 1
        (["check-schedule", "--schedule", SCHEDULE], 1),
    ],
    ids=["import", "run-counterexample", "selftest", "check-schedule"],
)
def test_the_cli_loads_no_scipy_module(tmp_path, args, exit_code):
    args = [str(tmp_path / "out") if arg == "OUT" else arg for arg in args]
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    code, loaded = json.loads(done.stderr.splitlines()[-1])
    assert code == exit_code, done.stdout + done.stderr
    assert loaded == []
