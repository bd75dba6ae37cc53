"""Print each line of ``src/sncoint`` that no tier-1 test executes.

Runs the tier-1 suite (pytest on ``tests/``) in this process under
``sys.settrace`` and compares the lines it executes with the lines that
hold bytecode in each module's code objects, so coverage.py is not
needed. Pool workers fork from the traced process and are traced too;
a line that only they execute is listed with ``(pool workers only)``.
Lines run only by a test's subprocess (``python -m sncoint ...``) count
as untested.

    PYTHONPATH=src python tools/untested_lines.py [pytest arguments]

Extra arguments go to pytest in place of the default ``tests``, e.g. one
file. A run takes about as long as tier-1 itself; the exit status is
pytest's.
"""

from __future__ import annotations

import dis
import json
import multiprocessing.util
import os
import shutil
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sncoint"


def executable_lines(path: Path) -> set[int]:
    """The lines holding bytecode in the module at ``path``, without each
    function's prologue, which runs on entry and raises no line event."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        body = next((i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), -1)
        lines.update(line for start, _, line in code.co_lines() if line is not None and start > body)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class Recorder:
    """The (file, line) pairs executed in package frames of this process."""

    def __init__(self, prefix: str, out_dir: str) -> None:
        self.prefix, self.out_dir, self.hits = prefix, out_dir, set()

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def start(self) -> None:
        sys.settrace(self._call)
        threading.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def in_worker(self) -> None:
        """After a fork: record the worker's own lines and write them when it exits."""
        self.hits = set()
        self.start()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def dump(self) -> None:
        with open(os.path.join(self.out_dir, f"{os.getpid()}.json"), "w", encoding="utf-8") as fh:
            json.dump(sorted(self.hits), fh)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    out_dir = tempfile.mkdtemp(prefix="untested_lines_")
    recorder = Recorder(str(PACKAGE) + os.sep, out_dir)
    multiprocessing.util.register_after_fork(recorder, Recorder.in_worker)
    import pytest

    recorder.start()
    try:
        status = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        recorder.stop()
    in_process = recorder.hits
    in_workers = set()
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            in_workers.update(map(tuple, json.load(fh)))
    shutil.rmtree(out_dir)

    total = untested = worker_only = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) in in_process:
                continue
            where = "  (pool workers only)" if (str(path), line) in in_workers else ""
            worker_only += bool(where)
            untested += not where
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}{where}")
    print(f"{untested} of {total} executable lines untested, {worker_only} more run only in pool workers")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
