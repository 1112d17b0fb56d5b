"""Serialisation of TELF binaries to and from a compact on-disk format.

The format is deliberately simple but genuinely binary, so that the "COTS"
artefacts handled by the pipeline really are opaque byte blobs:

``TELF`` magic, format version, then length-prefixed tables for sections,
symbols, imports, relocations and metadata.  All integers are little-endian.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Dict, List

from repro.loader.binary_format import (
    Relocation,
    RelocationKind,
    Section,
    Symbol,
    SymbolKind,
    TelfBinary,
)
from repro.loader.layout import DEFAULT_LAYOUT

MAGIC = b"TELF"
VERSION = 1


class TelfFormatError(ValueError):
    """Raised when parsing a malformed TELF image."""


def _write_u32(out: BinaryIO, value: int) -> None:
    out.write(struct.pack("<I", value))


def _write_u64(out: BinaryIO, value: int) -> None:
    out.write(struct.pack("<Q", value))


def _write_str(out: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    _write_u32(out, len(data))
    out.write(data)


def _write_bytes(out: BinaryIO, data: bytes) -> None:
    _write_u32(out, len(data))
    out.write(data)


def _read_exact(src: BinaryIO, size: int) -> bytes:
    data = src.read(size)
    if len(data) != size:
        raise TelfFormatError("unexpected end of file")
    return data


def _read_u32(src: BinaryIO) -> int:
    return struct.unpack("<I", _read_exact(src, 4))[0]


def _read_u64(src: BinaryIO) -> int:
    return struct.unpack("<Q", _read_exact(src, 8))[0]


def _read_str(src: BinaryIO) -> str:
    length = _read_u32(src)
    try:
        return _read_exact(src, length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TelfFormatError(f"string is not UTF-8: {exc.reason}") from None


def _read_kind(src: BinaryIO, kind):
    """Read a string and convert it to the enum ``kind``."""
    value = _read_str(src)
    try:
        return kind(value)
    except ValueError:
        raise TelfFormatError(
            f"{value[:32]!r} is not a valid {kind.__name__}") from None


def _read_bytes(src: BinaryIO) -> bytes:
    length = _read_u32(src)
    return _read_exact(src, length)


def dumps_binary(binary: TelfBinary) -> bytes:
    """Serialise a binary to bytes."""
    out = io.BytesIO()
    out.write(MAGIC)
    _write_u32(out, VERSION)
    _write_str(out, binary.entry)

    _write_u32(out, len(binary.sections))
    for name in sorted(binary.sections):
        section = binary.sections[name]
        _write_str(out, section.name)
        _write_u64(out, section.address)
        _write_bytes(out, section.data)

    _write_u32(out, len(binary.symbols))
    for sym in binary.symbols:
        _write_str(out, sym.name)
        _write_u64(out, sym.address)
        _write_u64(out, sym.size)
        _write_str(out, sym.kind.value)
        _write_str(out, sym.section)

    _write_u32(out, len(binary.imports))
    for name in binary.imports:
        _write_str(out, name)

    _write_u32(out, len(binary.relocations))
    for rel in binary.relocations:
        _write_u64(out, rel.address)
        _write_str(out, rel.symbol)
        _write_u64(out, rel.addend & ((1 << 64) - 1))
        _write_str(out, rel.kind.value)

    _write_u32(out, len(binary.metadata))
    for key in sorted(binary.metadata):
        _write_str(out, key)
        _write_str(out, binary.metadata[key])

    return out.getvalue()


def loads_binary(data: bytes) -> TelfBinary:
    """Parse a binary from bytes.

    Raises:
        TelfFormatError: if the image is malformed.
    """
    src = io.BytesIO(data)
    magic = src.read(4)
    if magic != MAGIC:
        raise TelfFormatError(f"bad magic {magic!r}")
    version = _read_u32(src)
    if version != VERSION:
        raise TelfFormatError(f"unsupported TELF version {version}")
    entry = _read_str(src)

    sections: Dict[str, Section] = {}
    for _ in range(_read_u32(src)):
        name = _read_str(src)
        address = _read_u64(src)
        payload = _read_bytes(src)
        sections[name] = Section(name=name, address=address, data=payload)

    symbols: List[Symbol] = []
    for _ in range(_read_u32(src)):
        name = _read_str(src)
        address = _read_u64(src)
        size = _read_u64(src)
        kind = _read_kind(src, SymbolKind)
        section = _read_str(src)
        symbols.append(Symbol(name, address, size, kind, section))

    imports = [_read_str(src) for _ in range(_read_u32(src))]

    relocations: List[Relocation] = []
    for _ in range(_read_u32(src)):
        address = _read_u64(src)
        symbol = _read_str(src)
        addend = _read_u64(src)
        if addend >= 1 << 63:
            addend -= 1 << 64
        kind = _read_kind(src, RelocationKind)
        relocations.append(Relocation(address, symbol, addend, kind))

    metadata = {}
    for _ in range(_read_u32(src)):
        key = _read_str(src)
        metadata[key] = _read_str(src)

    return TelfBinary(
        sections=sections,
        symbols=symbols,
        imports=imports,
        relocations=relocations,
        entry=entry,
        layout=DEFAULT_LAYOUT,
        metadata=metadata,
    )


def save_binary(binary: TelfBinary, path: str) -> None:
    """Write a binary image to ``path``."""
    with open(path, "wb") as handle:
        handle.write(dumps_binary(binary))


def load_binary(path: str) -> TelfBinary:
    """Read a binary image from ``path``."""
    with open(path, "rb") as handle:
        return loads_binary(handle.read())
