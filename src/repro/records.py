"""One field checker for the JSON records this library reads back from disk.

Queue job, lease and done records, campaign checkpoints and run
manifests are all written whole, so one that does not read back as the
fields it was written with is damage.  :func:`check_fields` turns it
into the reader's own typed error, naming the field.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Tuple

#: the default of a field that must be present.
REQUIRED = object()


def check_fields(record: object, fields: Mapping[str, Tuple[object, object]],
                 error: type, label: str = "{}") -> Dict[str, object]:
    """The record, checked against ``fields``, with defaults filled in.

    ``record`` is a JSON text (``str`` or UTF-8 ``bytes``) or its
    decoded value, and must be a JSON object.  ``fields`` maps a name
    to ``(types, default)``: a missing field takes ``default``
    (:data:`REQUIRED`: it may not be missing), and a present one must
    be an instance of ``types`` (``bool`` is no number) or ``default``
    itself.  Anything else raises
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
        if value is not default and (isinstance(value, bool)
                                     or not isinstance(value, types)):
            raise error(f"{label.format(name)}: wrong type")
    return checked
