"""The one field checker every on-disk record reader goes through."""

from __future__ import annotations

import os

import pytest

from repro.campaign.spec import JobSpec
from repro.records import REQUIRED, check_fields
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
