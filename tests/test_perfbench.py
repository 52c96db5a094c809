"""The benchmark's tracer stays in step with the package.

``perfbench/run.py`` is imported read-only, with ``perfbench/`` on the path.
Its self-check patches every traced function, runs one symmetric and one
non-symmetric 3-d ``analyze`` and compares the call counts of ``full_report``
with their exact expected values, so renaming or deleting a traced function,
or changing what one report calls, fails here and not only in a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from spinlab import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_self_check_is_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = sys.modules["tracer"]
    assert run.tracer_self_check(cli.main, tracer.Tracer()) == []
