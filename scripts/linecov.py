"""Line-coverage gate for ``src/contilearn``: a pytest plugin, standard library only.

Run from the repository root, over the whole tier-1 suite:

    PYTHONPATH=src:scripts python -m pytest -p linecov -q

It traces every line of the package that runs in the test process (with
``sys.settrace`` and ``threading.settrace``, started before pytest loads the
conftest that first imports the package). At the end of the session it
compares them with the line table (``co_lines``) of every code object of
every module under ``src/contilearn`` and fails the session, listing
``file:line`` for each line that never ran. A function in ``ALLOWED`` runs
only in a child process, which this tracer cannot see; each entry names the
tier-1 test that runs it there. Running a subset of the tests reports the
lines only the other tests reach.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "contilearn"

# (module file, qualified name of the code object) -> the test that runs it in a child process
ALLOWED = {
    ("__main__.py", "<module>"): "tests/test_cli.py::test_module_entrypoint_smoke",
    ("cli.py", "entrypoint"): "tests/test_cli.py::test_module_entrypoint_smoke",
    ("cli.py", "_format_warning"): (
        "tests/test_cli.py::test_a_warning_prints_one_line_and_keeps_the_exit_code"
    ),
}


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def expected_lines(path: Path) -> dict[int, str]:
    """Each line of the module's code objects, mapped to its innermost code object's name."""
    top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines = {}
    for code in _code_objects(top):
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line is not None and line > 0:
                lines[line] = name
    return lines


class LineCoverage:
    """Records the package lines run in this process, then fails the session on a missed one."""

    def __init__(self) -> None:
        self.executed: set[tuple[str, int]] = set()
        self.missing: list[str] = []

    def start(self) -> None:
        executed, ours, prefix = self.executed, {}, f"{PACKAGE}/"

        def local(frame, event, arg):
            if event == "line":
                executed.add((frame.f_code.co_filename, frame.f_lineno))
            return local

        def call(frame, event, arg):
            filename = frame.f_code.co_filename
            if filename not in ours:
                ours[filename] = str(Path(filename).resolve()).startswith(prefix)
            return local if ours[filename] else None

        sys.settrace(call)
        threading.settrace(call)

    def unexecuted(self) -> list[str]:
        """``file:line`` of each package line that did not run and is not allowed."""
        ran = {(str(Path(f).resolve()), line) for f, line in self.executed}
        missing = []
        for path in sorted(PACKAGE.glob("*.py")):
            for line, name in sorted(expected_lines(path).items()):
                if (str(path), line) not in ran and (path.name, name) not in ALLOWED:
                    missing.append(f"{path.relative_to(PACKAGE.parents[1])}:{line} ({name})")
        return missing

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        self.missing = self.unexecuted()
        if self.missing and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        if self.missing:
            terminalreporter.section("lines of src/contilearn no test ran", red=True)
            for line in self.missing:
                terminalreporter.write_line(line)
        else:
            terminalreporter.write_line("linecov: every line of src/contilearn ran")


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    coverage = LineCoverage()
    coverage.start()
    early_config.pluginmanager.register(coverage, "linecov-session")
