"""Pytest header naming the maxgain package under test.

pyproject.toml puts this checkout's src/ ahead of PYTHONPATH, so a maxgain
on PYTHONPATH is not the one tested; the header says so. It only reports:
no test is failed or skipped by it.
"""

import os
from pathlib import Path


def pytest_report_header(config):
    try:
        import maxgain
    except Exception as err:  # the tests that import it report the failure
        return [f"maxgain under test: not importable ({type(err).__name__}: {err})"]
    tested = Path(maxgain.__file__).resolve().parent
    lines = [f"maxgain under test: {tested}"]
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        other = Path(entry, "maxgain", "__init__.py")
        if other.is_file() and other.resolve().parent != tested:
            lines.append(f"maxgain on PYTHONPATH entry {entry} is not the one under test: {other.parent}")
    return lines
