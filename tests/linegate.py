"""Pytest plugin that fails the session when a function-body line of
``advsynth`` never ran.

Load it with ``-p linegate`` and ``tests`` on ``PYTHONPATH``::

    PYTHONPATH=src:tests python -m pytest -q -p linegate --continue-on-collection-errors

A function-body line is a line of a code object with ``CO_NEWLOCALS`` set
(a function, lambda or comprehension) that holds bytecode, other than the
code object's first line: the ``def`` line, or its first decorator.
Docstrings hold no bytecode.  Module and class bodies run at import, so
they do not count.  The session fails, and the summary prints
``file:line: source`` for each such line that no test ran.

The trace is the stdlib's ``sys.settrace``, installed in
``pytest_configure``.  A function stops being traced once each of its
lines has run, so hot code that is fully covered costs only the call
hook.  This module imports neither numpy nor ``advsynth``:
``tests/conftest.py`` sets ``OPENBLAS_NUM_THREADS`` before numpy's first
import, and the pinned artifact bytes depend on it.
"""

import dis
import importlib.util
import inspect
import linecache
import os
import sys

import pytest

PACKAGE = "advsynth"

_files = set()   # the package's source files, as code objects name them
# id of a code object -> (the code object, its body lines not yet run); the
# entry keeps the object alive, so the id stays its own
_todo = {}
_unrun = []      # (file, line) pairs, filled at session finish


def _body_lines(code) -> set:
    return {line for _, line in dis.findlinestarts(code)
            if line is not None and line != code.co_firstlineno}


def _call(frame, event, arg):
    code = frame.f_code
    if code.co_filename not in _files:
        return None
    entry = _todo.get(id(code))
    if entry is None:
        entry = _todo[id(code)] = code, _body_lines(code)
    return _line if entry[1] else None


def _line(frame, event, arg):
    if event == "line":
        _todo[id(frame.f_code)][1].discard(frame.f_lineno)
    return _line


def _function_codes(code):
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS:
                yield const
            yield from _function_codes(const)


def pytest_configure(config):
    spec = importlib.util.find_spec(PACKAGE)
    if spec is None or not spec.submodule_search_locations:
        raise pytest.UsageError(f"linegate: package {PACKAGE!r} not found")
    root = spec.submodule_search_locations[0]
    _files.update(os.path.join(root, name) for name in os.listdir(root) if name.endswith(".py"))
    sys.settrace(_call)


def pytest_sessionfinish(session):
    sys.settrace(None)
    ran = {(code.co_filename, line)
           for code, todo in _todo.values() for line in _body_lines(code) - todo}
    for path in sorted(_files):
        with open(path, encoding="utf-8") as fh:
            module = compile(fh.read(), path, "exec")
        lines = set().union(*map(_body_lines, _function_codes(module)))
        _unrun.extend((path, line) for line in sorted(lines) if (path, line) not in ran)
    if _unrun and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    write(f"linegate: function-body lines of {PACKAGE} that never ran: "
          f"{'[]' if not _unrun else len(_unrun)}")
    for path, line in _unrun:
        write(f"{os.path.relpath(path)}:{line}: {linecache.getline(path, line).strip()}")
