"""The record classes of frcodes: no dataclass, and immutable where they were frozen.

Records are typing.NamedTuple classes, or __slots__ classes where the
constructor validates or the record is mutated; neither generates code
at import time.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import frcodes
from frcodes import family, fsc, groupsearch, partition_code, simulator, storage
from frcodes.gf import GF
from oracles import RepairCode, identity_map

MODULES = ("gf", "subspace", "storage", "family", "groupsearch", "partition_code",
           "simulator", "fsc", "cli")

RECORDS = ("storage.CodeParams", "storage.RepairWitness", "storage.AdmissibleState",
           "storage.CollectionCheck", "storage.RepairReport", "family.GoodCollection",
           "family.StepResult", "groupsearch.LinearMap",
           "groupsearch.SearchResult", "groupsearch.SearchOutcome", "fsc.FscDocument",
           "partition_code.PartitionModel", "partition_code._PlaneTables", "simulator.Node",
           "simulator.HelperShare", "simulator.RepairTranscript", "simulator.DssState",
           "simulator._RepairPlan", "simulator.RunReport")

_FIND_DATACLASSES = """
import dataclasses, importlib, json, sys
classes, found = [], []
for name in sys.argv[1:]:
    module = importlib.import_module("frcodes." + name)
    for value in vars(module).values():
        if isinstance(value, type) and value.__module__ == module.__name__:
            classes.append(f"{name}.{value.__qualname__}")
            if dataclasses.is_dataclass(value):
                found.append(classes[-1])
print(json.dumps([classes, found]))
"""


def test_no_module_defines_a_dataclass():
    # in a fresh interpreter, so that nothing but the imports defines classes
    src = pathlib.Path(frcodes.__file__).resolve().parents[1]
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run([sys.executable, "-c", _FIND_DATACLASSES, *MODULES],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    classes, found = json.loads(done.stdout)
    assert set(RECORDS) <= set(classes)
    assert found == []


F2 = GF(2)

# the records that were frozen dataclasses: the named tuples, and a
# function building each slotted one
NAMED_TUPLES = [storage.RepairWitness, storage.AdmissibleState, RepairCode,
                family.StepResult, groupsearch.SearchResult, groupsearch.SearchOutcome,
                fsc.FscDocument, partition_code.PartitionModel, partition_code._PlaneTables,
                simulator.HelperShare, simulator.RepairTranscript, simulator._RepairPlan,
                simulator.RunReport]
SLOTTED = {
    "CodeParams": lambda: storage.CodeParams(4, 4, 2, 3, 2, 1, 2),
    "GoodCollection": lambda: family.construct_good(2, 1, 2),
    "LinearMap": lambda: identity_map(F2, 3),
}


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda cls: cls.__name__)
def test_formerly_frozen_named_tuples_refuse_assignment(cls):
    record = cls(*[None] * len(cls._fields))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


@pytest.mark.parametrize("make", SLOTTED.values(), ids=SLOTTED.keys())
def test_formerly_frozen_slotted_records_refuse_assignment(make):
    record = make()
    for name in type(record).__slots__ + ("unknown",):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        assert getattr(record, name, None) is before


@pytest.mark.parametrize("make", SLOTTED.values(), ids=SLOTTED.keys())
def test_formerly_frozen_slotted_records_copy_and_pickle(make):
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin.__reduce__() == record.__reduce__()


def test_copies_of_a_good_collection_pass_the_goodness_check(monkeypatch):
    good = family.construct_good(2, 1, 2)
    checked = []
    monkeypatch.setattr(family, "is_good", lambda *args: checked.append(args) or False)
    for duplicate in (copy.copy, lambda c: pickle.loads(pickle.dumps(c))):
        with pytest.raises(ValueError, match="not \\(2,1\\) good"):
            duplicate(good)
    assert len(checked) == 2
