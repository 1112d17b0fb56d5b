"""Tests for TELF serialisation."""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.loader import (
    TelfBinary,
    TelfFormatError,
    dumps_binary,
    load_binary,
    loads_binary,
    save_binary,
)
from repro.targets import get_target


def test_round_trip_preserves_everything(simple_binary):
    data = dumps_binary(simple_binary)
    parsed = loads_binary(data)
    assert parsed.entry == simple_binary.entry
    assert parsed.text.data == simple_binary.text.data
    assert parsed.imports == simple_binary.imports
    assert [s.name for s in parsed.symbols] == [s.name for s in simple_binary.symbols]
    assert [(r.address, r.symbol) for r in parsed.relocations] == \
        [(r.address, r.symbol) for r in simple_binary.relocations]


def test_round_trip_is_stable(simple_binary):
    once = dumps_binary(simple_binary)
    twice = dumps_binary(loads_binary(once))
    assert once == twice


def test_bad_magic_rejected(simple_binary):
    data = bytearray(dumps_binary(simple_binary))
    data[0:4] = b"NOPE"
    with pytest.raises(TelfFormatError):
        loads_binary(bytes(data))


def test_truncated_image_rejected(simple_binary):
    data = dumps_binary(simple_binary)
    with pytest.raises(TelfFormatError):
        loads_binary(data[: len(data) // 2])


def test_file_round_trip(tmp_path, simple_binary):
    path = tmp_path / "program.telf"
    save_binary(simple_binary, str(path))
    loaded = load_binary(str(path))
    assert loaded.text.data == simple_binary.text.data


def test_binary_queries(simple_binary):
    assert simple_binary.has_symbol("main")
    assert not simple_binary.has_symbol("nope")
    main = simple_binary.symbol("main")
    assert simple_binary.symbol_at(main.address).name == "main"
    assert simple_binary.function_at(main.address + 1).name == "main"
    assert simple_binary.entry_address() == main.address
    with pytest.raises(KeyError):
        simple_binary.symbol("missing")
    with pytest.raises(KeyError):
        simple_binary.import_index("printf")


# -- hostile images (Hypothesis) ----------------------------------------------

@pytest.fixture(scope="module")
def gadgets_image():
    return dumps_binary(get_target("gadgets").compile())


def _image_edits(size: int):
    """Byte overwrites, truncations and insertions of an image of ``size``
    bytes."""
    overwrites = st.tuples(st.just("set"), st.integers(0, size - 1),
                           st.binary(min_size=1, max_size=4))
    truncations = st.tuples(st.just("truncate"), st.integers(0, size - 1))
    insertions = st.tuples(st.just("insert"), st.integers(0, size),
                           st.binary(min_size=1, max_size=8))
    return st.lists(st.one_of(overwrites, truncations, insertions),
                    min_size=1, max_size=3)


def _apply_image_edit(image: bytes, edit) -> bytes:
    kind, at = edit[0], edit[1]
    if kind == "truncate":
        return image[:at]
    if kind == "insert":
        return image[:at] + edit[2] + image[at:]
    return image[:at] + edit[2] + image[at + len(edit[2]):]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_image_loads_or_raises_telf_error(gadgets_image, data):
    """A byte-mutated, truncated or extended gadgets image either loads
    or raises :class:`TelfFormatError`: bad UTF-8 in a string and an
    unknown symbol or relocation kind are format errors too."""
    image = gadgets_image
    for edit in data.draw(_image_edits(len(gadgets_image))):
        image = _apply_image_edit(image, edit)
    try:
        binary = loads_binary(image)
    except TelfFormatError:
        return
    assert isinstance(binary, TelfBinary)


@pytest.mark.parametrize("old, new", [
    (b"main", b"\xffain"),                 # the entry name: not UTF-8
    (b"function", b"gadget"),               # an unknown symbol kind
    (b"abs64_code", b"\x1ebs64_code"),      # an unknown relocation kind
])
def test_bad_strings_and_kinds_are_format_errors(gadgets_image, old, new):
    """A string that is not UTF-8 and an unknown symbol or relocation
    kind are format errors, not ``UnicodeDecodeError`` or ``ValueError``."""
    framed = struct.pack("<I", len(old)) + old
    assert framed in gadgets_image
    image = gadgets_image.replace(
        framed, struct.pack("<I", len(new)) + new, 1)
    with pytest.raises(TelfFormatError):
        loads_binary(image)
