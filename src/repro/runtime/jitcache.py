"""Persistent compiled-block cache for the ``jit`` engine.

The jit engine (:mod:`repro.runtime.jit`) compiles decoded basic blocks
into generated Python source and ``compile()``s each block on its own,
so the block module of a binary is a tuple of code objects, one per
block.  Source generation and byte-compilation dominate emulator
construction time, and fuzzing campaigns construct many emulators over
the *same* instrumented binary — one per worker process, one per variant
run, one per re-fuzz.  This module shares that work:

* **In-process memo** — constructing a second ``JitEmulator`` over the
  same (binary, options) pair in one process reuses the compiled code
  objects directly (a "memo" hit; the differential tests construct
  dozens of emulators per binary).
* **On-disk cache** — the tuple is marshalled to a cache file so
  *other* processes (campaign worker children, sequential
  ``repro fuzz`` invocations) skip compilation entirely (a "disk" hit).
* **Single-instruction memo** — the engines compile single-instruction
  functions on first dispatch; their code objects are memoized per
  process under the same (binary, options) key plus address and
  variant, and are never written to disk.
* **Decode memo** — the decoded text section of each binary (keyed by
  the binary hash alone) is memoized per process the same way, so a
  stream of engines over one binary decodes it once.

Cache layout
------------

One file per (binary, options) pair under the cache directory::

    <sha256(binary)[:16]>-<options_digest[:16]>.jitblk

Each file is a single JSON header line followed by the raw
``marshal.dumps`` payload of the compiled module, the tuple of per-block
code objects::

    {"format": 3, "binary": "<full sha256>", "options": "<full digest>",
     "version": "0.5.0", "magic": "<hex of importlib MAGIC_NUMBER>",
     "payload": "<sha256 of the marshal bytes>", ...}
    <marshal bytes>

Invalidation keys
-----------------

A cached entry is only used when *all* of the following match; anything
else is rejected as **stale**, deleted and transparently recompiled (the
fresh entry takes its place):

* the full SHA-256 of the serialized binary (a rebuilt binary whose
  hash prefix collides must not reuse old blocks),
* the engine-options digest (cost model, speculation variants, DIFT
  on/off, codegen version — see
  ``JitEmulator._options_digest``),
* the ``repro`` package version,
* the interpreter's bytecode ``MAGIC_NUMBER`` (marshalled code objects
  are not portable across Python bytecode versions),
* the cache ``format`` (format-2 entries hold one code object for the
  whole module).

Unreadable or truncated files, payloads whose SHA-256 differs from the
header's ``payload`` digest and headers that are not byte for byte the
line ``store`` writes for that payload (killed worker mid-write, disk
corruption) are counted as **corrupt**, deleted, and recompiled: a
damaged payload is never handed to ``marshal.loads``, which can crash
the interpreter on malformed input.  So is a payload that unmarshals to
anything but a tuple of code objects.  Writes go through a temp file +
atomic ``os.replace`` so a crashed writer can never publish a
half-written entry.  The cache is best-effort throughout: any
``OSError`` degrades to plain recompilation.

The cache directory defaults to ``<tempdir>/repro-jit-cache-<uid>`` and
is overridden with ``REPRO_JIT_CACHE`` (set to ``0``/``off`` to disable
persistence; the in-process memo stays on).  It is created with mode
``0o700`` and trusted only while the current user owns it and neither
group nor others can write to it: loaded entries are executed, so a
directory another user could plant entries in leaves the cache
memo-only, as if persistence were disabled.  Platforms without
``os.getuid`` skip the check.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import marshal
import os
import stat
import sys
import tempfile
import types
from typing import Dict, Optional, Tuple

from repro._version import __version__

#: bump when the on-disk layout changes.
CACHE_FORMAT = 3

#: hex of the interpreter's bytecode magic; marshalled code objects are
#: only valid for the exact bytecode version that produced them.
_MAGIC_HEX = importlib.util.MAGIC_NUMBER.hex()

#: values of ``REPRO_JIT_CACHE`` that disable the on-disk cache.
_DISABLED_VALUES = ("0", "off", "none", "disabled")


def default_cache_dir() -> Optional[str]:
    """Resolve the cache directory from ``REPRO_JIT_CACHE``.

    Returns ``None`` when persistence is disabled.
    """
    configured = os.environ.get("REPRO_JIT_CACHE")
    if configured is not None:
        if configured.strip().lower() in _DISABLED_VALUES or not configured.strip():
            return None
        return configured
    try:
        uid = os.getuid()
    except AttributeError:  # non-POSIX
        uid = 0
    return os.path.join(tempfile.gettempdir(), f"repro-jit-cache-{uid}")


def _trusted_dir(directory: str) -> bool:
    """Whether ``directory`` is safe to read code from and write code to.

    It must be a directory owned by the current user that neither group
    nor others can write to; a symlink to it must be the user's too (a
    link another user owns can be re-pointed at any time).
    """
    getuid = getattr(os, "getuid", None)
    if getuid is None:  # non-POSIX: no ownership model to check
        return True
    try:
        link = os.lstat(directory)
        target = os.stat(directory)
    except OSError:
        return False
    uid = getuid()
    return (link.st_uid == uid and target.st_uid == uid
            and stat.S_ISDIR(target.st_mode)
            and not target.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _encode_header(header: Dict[str, object]) -> bytes:
    """The header line of a cache entry (without its newline)."""
    return json.dumps(header, sort_keys=True).encode("utf-8")


class BlockCache:
    """Two-level (memo + disk) cache of compiled jit block modules."""

    def __init__(self, directory: Optional[str] = None,
                 version: str = __version__) -> None:
        #: on-disk location; ``None`` disables persistence (memo only).
        self.directory = directory
        self.version = version
        #: in-process memo: (binary_hash, options_digest) -> tuple of
        #: per-block code objects.
        self._memo: Dict[Tuple[str, str], object] = {}
        #: in-process memo of single-instruction functions:
        #: (binary_hash, options_digest, address, sim variant) -> code
        #: object.  Never persisted: each is compiled on first dispatch.
        self.singles: Dict[Tuple[str, str, int, bool], object] = {}
        #: in-process memo of decoded binaries: binary_hash ->
        #: (instructions, next_address, shadow-escape-free targets), see
        #: ``JitEmulator._decode_text``.  Never persisted.
        self.decoded: Dict[str, tuple] = {}
        #: hit/miss accounting, exposed through ``engine.jit.cache_*``
        #: telemetry gauges and asserted by the cache tests.
        self.stats: Dict[str, int] = {
            "memo_hits": 0,   # same process, same (binary, options)
            "disk_hits": 0,   # valid entry loaded from the cache dir
            "misses": 0,      # no entry anywhere; compiled from scratch
            "stale": 0,       # entry rejected (hash/options/version/magic)
            "corrupt": 0,     # unreadable or digest mismatch; deleted
            "stores": 0,      # entries written
        }

    # -- key / path ----------------------------------------------------------
    def path_for(self, binary_hash: str, options_digest: str) -> Optional[str]:
        """Cache-file path for one (binary, options) pair."""
        if self.directory is None:
            return None
        return os.path.join(
            self.directory, f"{binary_hash[:16]}-{options_digest[:16]}.jitblk"
        )

    def _header(self, binary_hash: str, options_digest: str) -> Dict[str, str]:
        return {
            "format": CACHE_FORMAT,
            "binary": binary_hash,
            "options": options_digest,
            "version": self.version,
            "magic": _MAGIC_HEX,
            "python": "%s-%d.%d" % (sys.implementation.name,
                                    sys.version_info[0], sys.version_info[1]),
        }

    # -- lookup --------------------------------------------------------------
    def load(self, binary_hash: str, options_digest: str):
        """Return the cached per-block code objects, or ``None`` (then
        compile + store)."""
        key = (binary_hash, options_digest)
        memo = self._memo.get(key)
        if memo is not None:
            self.stats["memo_hits"] += 1
            return memo
        path = self.path_for(binary_hash, options_digest)
        if path is None or not _trusted_dir(self.directory):
            self.stats["misses"] += 1
            return None
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self.stats["misses"] += 1
            return None
        code = self._validate(path, data, binary_hash, options_digest)
        if code is not None:
            self._memo[key] = code
        return code

    def _validate(self, path: str, data: bytes, binary_hash: str,
                  options_digest: str):
        """Parse + check one cache file; classifies stale vs corrupt."""
        newline = data.find(b"\n")
        if newline < 0:
            return self._reject_corrupt(path)
        try:
            header = json.loads(data[:newline].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return self._reject_corrupt(path)
        if not isinstance(header, dict):
            return self._reject_corrupt(path)
        expected = self._header(binary_hash, options_digest)
        for field in ("format", "binary", "options", "version", "magic"):
            if header.get(field) != expected[field]:
                self.stats["stale"] += 1
                self._unlink(path)
                return None
        payload = data[newline + 1:]
        # Byte for byte what ``store`` writes for this payload: a damaged
        # payload digest, field or separator is corrupt.
        expected["payload"] = hashlib.sha256(payload).hexdigest()
        if data[:newline] != _encode_header(expected):
            return self._reject_corrupt(path)
        try:
            code = marshal.loads(payload)
        except (EOFError, ValueError, TypeError):
            return self._reject_corrupt(path)
        if not isinstance(code, tuple) or not all(
                isinstance(block, types.CodeType) for block in code):
            return self._reject_corrupt(path)
        self.stats["disk_hits"] += 1
        return code

    def _reject_corrupt(self, path: str):
        self.stats["corrupt"] += 1
        self._unlink(path)
        return None

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- store ---------------------------------------------------------------
    def store(self, binary_hash: str, options_digest: str, code) -> None:
        """Publish a freshly compiled module (memo always; disk if enabled).

        The preceding :meth:`load` already counted the miss, so this
        only counts the store.
        """
        self._memo[(binary_hash, options_digest)] = code
        path = self.path_for(binary_hash, options_digest)
        if path is None:
            return
        header = self._header(binary_hash, options_digest)
        module = marshal.dumps(code)
        header["payload"] = hashlib.sha256(module).hexdigest()
        entry = _encode_header(header) + b"\n" + module
        try:
            os.makedirs(self.directory, mode=0o700, exist_ok=True)
            if not _trusted_dir(self.directory):
                return  # another user could plant entries: memo only
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(entry)
                os.replace(tmp, path)  # atomic publish
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return  # best-effort: a read-only cache dir just disables reuse
        self.stats["stores"] += 1


#: process-wide cache instance, shared by every JitEmulator so the memo
#: and the telemetry counters cover the whole process.  Re-resolved when
#: ``REPRO_JIT_CACHE`` changes (tests point it at temp directories).
_shared: Optional[BlockCache] = None
_shared_dir: Optional[str] = None


def shared_cache() -> BlockCache:
    """The process-wide :class:`BlockCache` for the current environment."""
    global _shared, _shared_dir
    directory = default_cache_dir()
    if _shared is None or directory != _shared_dir:
        _shared = BlockCache(directory)
        _shared_dir = directory
    return _shared
