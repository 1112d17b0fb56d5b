"""The one field checker every on-disk record reader goes through."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Tuple

import pytest

from repro.campaign.spec import JobSpec
from repro.records import REQUIRED, check_fields, read_record, write_record
from repro.service.queue import JobQueue

FIELDS = {"name": (str, REQUIRED), "count": (int, 0),
          "at": ((int, float), None)}


class RecordError(ValueError):
    pass


def test_defaults_fill_in_and_extra_fields_stay():
    record = check_fields('{"name": "a", "extra": [1]}', FIELDS, RecordError)
    assert record == {"name": "a", "count": 0, "at": None, "extra": [1]}
    # a present value equal to the default passes; bytes are JSON text too
    assert check_fields(b'{"name": "a", "at": null, "count": 3}', FIELDS,
                        RecordError)["count"] == 3


@pytest.mark.parametrize("record,message", [
    ("{", "record: not JSON"),
    (b"\xff\xfe", "record: not JSON"),
    ("[1]", "record: not a JSON object"),
    (None, "record: not a JSON object"),
    ({}, "name: missing"),
    ({"name": 1}, "name: wrong type"),
    ({"name": "a", "count": True}, "count: wrong type"),
    ({"name": "a", "count": 1.0}, "count: wrong type"),
    ({"name": "a", "at": False}, "at: wrong type"),
    ({"name": "a", "at": "1"}, "at: wrong type"),
])
def test_each_problem_names_its_field(record, message):
    with pytest.raises(RecordError) as raised:
        check_fields(record, FIELDS, RecordError)
    assert str(raised.value) == message


def test_label_writes_the_field_name():
    with pytest.raises(RecordError, match="^checkpoint 'name': missing$"):
        check_fields({}, FIELDS, RecordError, "checkpoint {!r}")


@dataclass(frozen=True)
class Knobs:
    name: str
    tags: Tuple[str, ...] = ()
    ratio: float = 0.5
    flag: bool = True
    counts: Dict[str, int] = field(default_factory=dict)


def test_dataclass_record_reads_back_from_its_fields():
    knobs = Knobs("a", tags=("x",), counts={"b": 2, "a": 1})
    assert json.dumps(write_record(knobs)) == (
        '{"name": "a", "tags": ["x"], "ratio": 0.5, "flag": true, '
        '"counts": {"a": 1, "b": 2}}')
    assert read_record(Knobs, json.dumps(write_record(knobs)),
                       RecordError) == knobs
    # a float reads from any number; a missing field takes its default
    assert read_record(Knobs, {"name": "a", "ratio": 1, "flag": False},
                       RecordError) == Knobs("a", ratio=1.0, flag=False)
    assert write_record(Knobs("a"), omit_defaults=("ratio", "flag"),
                        exclude=("counts",)) == {"name": "a", "tags": []}


@pytest.mark.parametrize("record,message", [
    ({}, "name: missing"),
    ({"name": "a", "tags": "x"}, "tags: wrong type"),
    ({"name": "a", "tags": [1]}, "tags: wrong item type"),
    ({"name": "a", "ratio": "1"}, "ratio: wrong type"),
    ({"name": "a", "ratio": 10 ** 400}, "ratio: out of range"),
    ('{"name": "a", "ratio": Infinity}', "ratio: not a finite number"),
    ({"name": "a", "flag": 1}, "flag: wrong type"),
    ({"name": "a", "counts": {"b": True}}, "counts: wrong item type"),
])
def test_each_dataclass_record_problem_names_its_field(record, message):
    with pytest.raises(RecordError) as raised:
        read_record(Knobs, record, RecordError)
    assert str(raised.value) == message


def test_job_record_that_is_not_utf8_fails_its_job(tmp_path):
    """Record files are read as bytes, so one that is not UTF-8 is a
    record that is not JSON, not a ``UnicodeDecodeError`` out of claim."""
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprint = queue.submit(
        "c1", JobSpec(target="gadgets", tool="teapot", iterations=5, seed=1))
    with open(os.path.join(queue.jobs_dir, fingerprint + ".json"),
              "wb") as handle:
        handle.write(b"\xff\xfe")
    assert queue.claim("w0", visibility_timeout=30) is None
    assert queue.result(fingerprint)["result"]["error"] == (
        "JobRecordError: record: not JSON")
