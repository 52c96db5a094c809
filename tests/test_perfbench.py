"""The benchmark's tracer and gates stay in step with the package.

``perfbench/run.py`` is imported read-only, with ``perfbench/`` on the path.
Its self-check patches every traced function, runs one symmetric and one
non-symmetric 3-d ``analyze`` and compares the call counts of ``full_report``
with their exact expected values, so renaming or deleting a traced function,
or changing what one report calls, fails here and not only in a traced
benchmark run.  The ``heisenberg_large`` cycle is also run through its
own output gates, the n = 12..16 eigenvalue ladders among them.
"""

import importlib.util
import sys
from pathlib import Path

from spinlab import cli, gks

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_self_check_is_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = sys.modules["tracer"]
    assert run.tracer_self_check(cli.main, tracer.Tracer()) == []


def test_heisenberg_cycle_passes_its_gates(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    wl = importlib.import_module("workloads")
    cycle = wl.heisenberg_cycle(1, 0)
    assert {inv.argv[0] for inv in cycle} == {"heisenberg", "analyze"}
    for inv in cycle:
        assert cli.main(list(inv.argv)) == 0, inv.slot
        doc = wl.parse_output(capsys.readouterr().out)
        wl.check_finite(doc)
        inv.gate(doc)


def test_traced_sweep_builds_its_dual_map(capsys, monkeypatch):
    # the first sweep of a process builds gks._dual_map with every traced function patched:
    # that build must not go through a traced wrapper that cannot read its arguments
    argv = ["sweep", "--algebra", "L3(6)", "--samples", "5", "--seed", "1"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    gks._dual_map.cache_clear()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == untraced
