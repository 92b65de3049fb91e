"""Every recorded digest of the benchmark, in tier-1.

``perfbench/workloads.py`` and ``perfbench/record.py`` are loaded from their
files, not modified.  The items are those ``record.py reference`` recorded:
every pair of every quotients stratum and the present items of its seeds,
4033 items, some of them twice, and the four census jobs of one round.  Each
item runs and is checked as the benchmark runs it, and its digest must equal
the one in ``perfbench/reference.json``, so a change of output fails here and
not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # record.py imports workloads by name
    spec.loader.exec_module(module)
    return module


def recorded_items(workloads, record):
    """The quotients and present items of ``record.record_reference``, in its order."""
    inputs = workloads.load_inputs()
    quotients = workloads.Quotients(inputs)
    items = [quotients.item(s, pair) for s in quotients.strata for pair in s["pairs"]]
    present = workloads.Present(inputs)
    for seed in record.PRESENT_SEEDS:
        rounds = present.rounds(seed)
        todo = []
        while len(todo) < record.PRESENT_ITEMS:
            todo += next(rounds)
        items += todo
    return items


def test_quotients_and_present_digests_match_the_reference(monkeypatch):
    workloads, record = load("workloads", monkeypatch), load("record", monkeypatch)
    reference = workloads.load_reference()
    items, wrong = recorded_items(workloads, record), []
    for item in items:
        canon, problems = item.check(item.run())
        if problems or workloads.digest(canon) != reference.get(workloads.key_hash(item.key)):
            wrong.append((item.key, problems))
    assert len(items) == 4033
    assert not wrong, (len(wrong), wrong[:3])


def test_census_digests_match_the_reference(monkeypatch):
    """The four census jobs, every method and the symmetry classes: well under
    a second in all."""
    workloads, record = load("workloads", monkeypatch), load("record", monkeypatch)
    reference = workloads.load_reference()
    items, wrong = next(workloads.Census(workloads.load_inputs()).rounds(0)), []
    for item in items:
        canon, problems = item.check(item.run())
        if problems or workloads.digest(canon) != reference.get(workloads.key_hash(item.key)):
            wrong.append((item.key, problems))
    assert sorted(item.key for item in items) == sorted(
        f"census|{name}|{'+'.join(methods)}" for name, methods in record.CENSUS_JOBS
    )
    assert not wrong, wrong
