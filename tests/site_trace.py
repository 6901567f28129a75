"""Which error sites of ``src/gptsim`` the test suite fires: run
``python tests/site_trace.py [pytest arguments]`` from the repository root.
Under a line tracer, every ``raise`` line and ``_fail`` call of the package
is ``fired`` (a ``raise`` line ran, a ``_fail`` call raised) or ``SILENT``.
The exit status is pytest's, or 1 if pytest passed and any site is SILENT.
The file's name keeps pytest from collecting it."""

import collections
import re
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gptsim"
sys.path.insert(0, str(PACKAGE.parent))
from gptsim import models  # noqa: E402

ran, failed = set(), set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def _recorded(*args, fail=models._fail):
    try:
        fail(*args)
    except Exception:
        caller = sys._getframe(1)
        failed.add((caller.f_code.co_filename, caller.f_lineno))
        raise


if __name__ == "__main__":
    models._fail = _recorded
    sys.settrace(_calls)
    threading.settrace(_calls)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    sys.settrace(None)
    counts = collections.Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for number, text in enumerate(path.read_text().splitlines(), 1):
            kind = ("raise" if re.match(r"\s*raise\b", text) else "_fail"
                    if re.search(r"\b_fail\(", text) and "def _fail" not in text
                    else None)
            if kind:
                hit = (str(path), number) in (ran if kind == "raise" else failed)
                counts[kind, "fired" if hit else "silent"] += 1
                print(f"{path.name}:{number} {kind} {'fired' if hit else 'SILENT'}")
    print(dict(counts))
    sys.exit(status or int(any(hit == "silent" for _, hit in counts)))
