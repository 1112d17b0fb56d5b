"""One field checker for the JSON records this library reads back from disk.

Queue job, lease and done records, campaign checkpoints and run
manifests are all written whole, so one that does not read back as the
fields it was written with is damage.  :func:`check_fields` turns it
into the reader's own typed error, naming the field.

Flat dataclass records (job and campaign specs, worker results, group
counters) are written by :func:`write_record` and read back by
:func:`read_record`, whose field table comes from the dataclass itself.
:func:`write_atomic` puts a serialized record on disk whole.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import os
import tempfile
import typing
from typing import Collection, Dict, Mapping, Tuple

#: the default of a field that must be present.
REQUIRED = object()


def write_atomic(path: str, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in one step.

    The text goes to a temp file in the same directory (a dot name, so
    directory scans skip it), which is then renamed over ``path``: a
    reader sees the old file or the new one, never a partial one.  A
    failed write removes its temp file.
    """
    fd, tmp_path = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}-", suffix=".tmp",
        dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def check_fields(record: object, fields: Mapping[str, Tuple[object, object]],
                 error: type, label: str = "{}") -> Dict[str, object]:
    """The record, checked against ``fields``, with defaults filled in.

    ``record`` is a JSON text (``str`` or UTF-8 ``bytes``) or its
    decoded value, and must be a JSON object.  ``fields`` maps a name
    to ``(types, default)``: a missing field takes ``default``
    (:data:`REQUIRED`: it may not be missing), and a present one must
    be an instance of ``types`` (a ``bool`` only of ``bool``: it is no
    number) or ``default`` itself.  Anything else raises
    ``error("<field>: <problem>")``, the field's name written through
    ``label`` and the whole record named ``record``.
    """
    if isinstance(record, (str, bytes)):
        try:
            record = json.loads(record)
        except ValueError:
            raise error(f"{label.format('record')}: not JSON") from None
    if not isinstance(record, dict):
        raise error(f"{label.format('record')}: not a JSON object")
    checked = dict(record)
    for name, (types, default) in fields.items():
        value = checked.setdefault(name, default)
        if value is REQUIRED:
            raise error(f"{label.format(name)}: missing")
        if value is not default and not _is_a(value, types):
            raise error(f"{label.format(name)}: wrong type")
    return checked


def _is_a(value: object, types) -> bool:
    """``isinstance``, except that a bool is only ever a ``bool``."""
    if isinstance(value, bool):
        return types is bool
    return isinstance(value, types)


class _Field(typing.NamedTuple):
    """How one dataclass field reads from JSON (see :func:`_field_table`)."""

    kind: type
    types: object
    default: object
    item: object
    #: what turns the checked JSON value into the field's value, or None.
    read: object


@functools.lru_cache(maxsize=None)
def _field_table(cls: type) -> Dict[str, _Field]:
    """Each field of a dataclass, as :func:`read_record` checks it.

    ``kind`` is the class of the field's annotation and ``types`` what
    JSON value it reads from: a tuple from a list, a float from any
    number, bytes from a hex string and an enum from its value's type.
    ``item`` is the type of a tuple's or list's items or of a dict's
    values (``None``: unchecked).  A field with no default is
    :data:`REQUIRED`.
    """
    hints = typing.get_type_hints(cls)
    table = {}
    for spec in dataclasses.fields(cls):
        hint = hints[spec.name]
        kind = typing.get_origin(hint) or hint
        args = [arg for arg in typing.get_args(hint) if arg is not Ellipsis]
        item = (typing.get_origin(args[-1]) or args[-1]) if args else object
        if spec.default is not dataclasses.MISSING:
            default = spec.default
        elif spec.default_factory is not dataclasses.MISSING:
            default = spec.default_factory()
        else:
            default = REQUIRED
        types, read = {tuple: (list, tuple), list: (list, list),
                       dict: (dict, dict), float: ((int, float), float),
                       bytes: (str, bytes.fromhex)}.get(kind, (kind, None))
        if isinstance(kind, type) and issubclass(kind, enum.Enum):
            types, read = type(next(iter(kind)).value), kind
        table[spec.name] = _Field(kind, types, default,
                                  None if item is object else item, read)
    return table


def write_record(record: object, omit_defaults: Collection[str] = (),
                 exclude: Collection[str] = ()) -> Dict[str, object]:
    """A flat dataclass record as a JSON object (:func:`read_record`'s input).

    Tuples are written as lists, dicts with sorted keys, bytes in hex and
    enums as their values.  A field in ``omit_defaults`` is left out
    while it holds its default, one in ``exclude`` always.
    """
    written: Dict[str, object] = {}
    for name, field in _field_table(type(record)).items():
        value = getattr(record, name)
        if name in exclude or (name in omit_defaults
                               and value == field.default):
            continue
        if isinstance(value, (tuple, list)):
            value = list(value)
        elif isinstance(value, dict):
            value = dict(sorted(value.items()))
        elif isinstance(value, bytes):
            value = value.hex()
        elif isinstance(value, enum.Enum):
            value = value.value
        written[name] = value
    return written


def read_record(cls: type, record: object, error: type, label: str = "{}",
                exclude: Collection[str] = ()):
    """A ``cls`` instance from :func:`write_record` output (or its JSON).

    Each field not in ``exclude`` is checked by :func:`check_fields`
    against its annotation (:func:`_field_table`), and so are the items
    of a tuple, list or dict; a float must be finite (JSON text may
    spell ``NaN`` and ``Infinity``).  A missing field takes its default.
    Raises ``error`` as :func:`check_fields` does.
    """
    table = {name: field for name, field in _field_table(cls).items()
             if name not in exclude}
    checked = check_fields(record, {name: (field.types, field.default)
                                    for name, field in table.items()},
                           error, label)
    values = {}
    for name, field in table.items():
        value = checked[name]
        if field.item is not None and not all(
                _is_a(item, field.item) for item in (
                    value.values() if isinstance(value, dict) else value)):
            raise error(f"{label.format(name)}: wrong item type")
        if field.read is not None:
            try:
                value = field.read(value)
            except OverflowError:
                raise error(f"{label.format(name)}: out of range") from None
            except ValueError:
                raise error(f"{label.format(name)}: bad value") from None
            if field.kind is float and not math.isfinite(value):
                raise error(f"{label.format(name)}: not a finite number")
        values[name] = value
    return cls(**values)
