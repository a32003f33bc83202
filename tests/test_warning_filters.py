"""The suite's warning filters, run on throwaway test files in a subprocess
under the repository's pytest configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_pytest(tmp_path, source: str) -> subprocess.CompletedProcess:
    test = tmp_path / "test_throwaway.py"
    test.write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), str(test)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    source = (
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n"
    )
    run = run_pytest(tmp_path, source)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out and "x=5" in out


def test_any_other_deprecation_warning_fails_a_test(tmp_path):
    source = (
        "import warnings\n\n"
        "def test_warns():\n"
        "    warnings.warn('some name is deprecated', DeprecationWarning)\n"
    )
    run = run_pytest(tmp_path, source)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out


def test_the_ignored_message_fails_a_test_under_another_category(tmp_path):
    source = (
        "import warnings\n\n"
        "def test_warns():\n"
        "    warnings.warn('mypy_extensions.TypedDict is deprecated', UserWarning)\n"
    )
    run = run_pytest(tmp_path, source)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out
