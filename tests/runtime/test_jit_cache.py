"""Persistent compiled-block cache: hits, reuse, staleness, corruption.

The jit engine's :class:`repro.runtime.jitcache.BlockCache` persists
compiled block modules across emulator constructions and across
processes.  These tests pin the accounting (cold miss → store, warm
memo/disk hits), cross-process reuse (campaign worker processes
and sequential invocations), rejection of stale entries (rebuilt binary,
bumped codegen version, changed engine options, format-2 entries),
recovery from corrupted cache files (including payloads that are not a
tuple of per-block code objects), with a Hypothesis harness of byte
flips, truncations, extensions and header edits of a real entry, the
directory trust rule (a cache directory other users can write to is
never read from or written to) and the memory peak of a cold build.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import subprocess
import sys
import tracemalloc

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.runtime.jit as jit_module
from differential import result_record
from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.coverage.sancov import CoverageRuntime
from repro.runtime import jitcache
from repro.runtime.costs import CostModel
from repro.runtime.fastpath import FastEmulator, resolve_engine
from repro.runtime.jit import JitEmulator
from repro.runtime.jitcache import BlockCache
from repro.runtime.speculation import TeapotNestingPolicy
from repro.sanitizers.policy import KasperPolicy
from repro.targets import get_target

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the shared cache at a fresh per-test directory."""
    directory = str(tmp_path / "jit-cache")
    monkeypatch.setenv("REPRO_JIT_CACHE", directory)
    # the shared instance is keyed on the directory, so force a fresh one
    monkeypatch.setattr(jitcache, "_shared", None)
    monkeypatch.setattr(jitcache, "_shared_dir", None)
    return directory


@pytest.fixture
def gadgets_binary():
    return get_target("gadgets").compile()


def _cache_files(directory):
    if not os.path.isdir(directory):
        return []
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".jitblk"))


def test_cold_then_warm_hit_accounting(cache_dir, gadgets_binary):
    first = JitEmulator(gadgets_binary)
    cache = first._jit_cache
    assert first._jit_cache_event == "miss"
    assert cache.stats["misses"] == 1
    assert cache.stats["stores"] == 1
    assert len(_cache_files(cache_dir)) == 1

    # Same process, same (binary, options): served from the memo.
    second = JitEmulator(gadgets_binary)
    assert second._jit_cache_event == "hit"
    assert cache.stats["memo_hits"] == 1
    assert cache.stats["misses"] == 1

    # The directory is private to the user.
    assert os.stat(cache_dir).st_mode & 0o777 == 0o700

    # Fresh cache instance over the same directory: served from disk.
    fresh = BlockCache(cache_dir)
    assert fresh.load(*first._jit_key) is not None
    assert fresh.stats == {"memo_hits": 0, "disk_hits": 1, "misses": 0,
                           "stale": 0, "corrupt": 0, "stores": 0}


def test_single_instruction_functions_compile_lazily_once(cache_dir,
                                                         gadgets_binary):
    """Single-instruction functions compile on first dispatch only, never
    touch the disk cache, and a second emulator over the same binary
    reuses every compiled code object."""
    first = FastEmulator(gadgets_binary)
    memo = first._jit_cache.singles
    assert not memo and not first._singles_nosim
    data = b"\x00" + b"\x05" * 8
    result = first.run(data)
    compiled = dict(memo)
    assert compiled, "nothing was compiled"
    assert len(compiled) < len(first.instructions), "compiled eagerly"
    assert first._jit_cache.stats["stores"] == 0
    assert _cache_files(cache_dir) == []

    second = FastEmulator(gadgets_binary)
    rerun = second.run(data)
    assert memo.keys() == compiled.keys()
    assert all(memo[key] is code for key, code in compiled.items()), (
        "a code object was compiled twice")
    assert (rerun.status, rerun.steps, rerun.cycles) == \
        (result.status, result.steps, result.cycles)


def test_warm_construction_executes_identically(cache_dir, gadgets_binary):
    data = b"\x00" + b"\x05" * 8
    cold = JitEmulator(gadgets_binary).run(data)
    # A second emulator (memo hit) must run the same: the generated
    # source is instance-independent.
    warm = JitEmulator(gadgets_binary).run(data)
    assert (warm.status, warm.exit_status, warm.steps, warm.cycles) == \
        (cold.status, cold.exit_status, cold.steps, cold.cycles)


def test_cross_process_reuse(cache_dir, gadgets_binary):
    """A second process over the same binary hits the disk cache."""
    parent = JitEmulator(gadgets_binary)
    assert parent._jit_cache_event == "miss"
    script = (
        "import json\n"
        "from repro.targets import get_target\n"
        "from repro.runtime.jit import JitEmulator\n"
        "em = JitEmulator(get_target('gadgets').compile())\n"
        "stats = dict(em._jit_cache.stats)\n"
        "stats['event'] = em._jit_cache_event\n"
        "print(json.dumps(stats))\n"
    )
    env = dict(os.environ, REPRO_JIT_CACHE=cache_dir,
               PYTHONPATH=SRC_ROOT + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    stats = json.loads(proc.stdout)
    assert stats["event"] == "hit"
    assert stats["disk_hits"] == 1
    assert stats["misses"] == 0
    assert stats["stale"] == 0
    assert stats["corrupt"] == 0


def test_pool_scheduler_campaign_reuses_cache(cache_dir):
    """A multi-worker jit campaign completes bit-identically to fast and
    leaves (and reuses) shared cache entries for its worker processes."""
    params = dict(targets=("gadgets",), tools=("teapot",), iterations=20,
                  rounds=2, shards=2, seed=13, workers=3)
    jit_summary = run_campaign(CampaignSpec(engine="jit", **params))
    assert _cache_files(cache_dir), "campaign left no cache entries"
    fast_summary = run_campaign(CampaignSpec(engine="fast", **params))
    jit_dict = jit_summary.to_dict()
    fast_dict = fast_summary.to_dict()
    # identical results; engine is execution mechanics, not fingerprint
    assert jit_dict == fast_dict

    # a one-worker rerun, which runs in this process, reuses the entries
    # the workers published instead of compiling anything new
    before = dict(jitcache.shared_cache().stats)
    serial = dict(params, workers=1)
    rerun = run_campaign(CampaignSpec(engine="jit", **serial))
    assert rerun.to_dict() == jit_dict
    after = jitcache.shared_cache().stats
    assert after["memo_hits"] + after["disk_hits"] > \
        before["memo_hits"] + before["disk_hits"]
    assert after["stores"] == before["stores"]


def test_stale_rejected_when_binary_rebuilt(cache_dir, gadgets_binary):
    """An entry whose header hash mismatches (rebuilt binary behind the
    same truncated file name) is stale: rejected and recompiled."""
    emulator = JitEmulator(gadgets_binary)
    binary_hash, digest = emulator._jit_key
    cache = emulator._jit_cache
    path = cache.path_for(binary_hash, digest)
    # a "rebuilt" binary whose 16-hex prefix collides: same file name,
    # different full hash recorded in the header
    rebuilt_hash = binary_hash[:16] + "f" * (len(binary_hash) - 16)
    rebuilt_path = cache.path_for(rebuilt_hash, digest)
    assert rebuilt_path == path  # the prefix collision this test targets

    fresh = BlockCache(cache_dir)
    assert fresh.load(rebuilt_hash, digest) is None
    assert fresh.stats["stale"] == 1
    assert fresh.stats["corrupt"] == 0


def test_stale_rejected_when_version_bumped(cache_dir, gadgets_binary):
    """Entries from another repro version are stale, never loaded."""
    emulator = JitEmulator(gadgets_binary)
    binary_hash, digest = emulator._jit_key

    upgraded = BlockCache(cache_dir, version="999.0-next")
    assert upgraded.load(binary_hash, digest) is None
    assert upgraded.stats["stale"] == 1

    # ...and the upgraded process overwrites the stale entry in place.
    upgraded.store(binary_hash, digest, emulator._block_code)
    assert upgraded.stats["stores"] == 1
    reload = BlockCache(cache_dir, version="999.0-next")
    assert reload.load(binary_hash, digest) is not None
    assert reload.stats["disk_hits"] == 1


def test_codegen_version_bump_recompiles(cache_dir, gadgets_binary,
                                         monkeypatch):
    """Bumping the codegen version changes the options digest: old
    entries are simply never looked up again (cold recompile)."""
    first = JitEmulator(gadgets_binary)
    monkeypatch.setattr(jit_module, "_CODEGEN_VERSION", 999_999)
    bumped = JitEmulator(gadgets_binary)
    assert bumped._jit_cache_event == "miss"
    assert bumped._jit_key != first._jit_key
    assert len(_cache_files(cache_dir)) == 2


def test_engine_options_change_keys_new_entry(cache_dir, gadgets_binary):
    """Different engine options (here: the cost model, whose costs are
    compiled in) produce a different digest — a fresh compile — and a
    cross-keyed lookup whose header digest mismatches is rejected as
    stale."""
    small = JitEmulator(gadgets_binary)
    large = JitEmulator(gadgets_binary,
                        cost_model=CostModel(emulation_multiplier=50))
    assert small._jit_key != large._jit_key
    assert small._jit_cache.stats["misses"] == 2

    # Cross-key the stored entries: same binary, wrong options digest in
    # the header (simulates a digest-prefix collision after an options
    # change) — must be stale, not served.
    binary_hash, small_digest = small._jit_key
    _, large_digest = large._jit_key
    cache = small._jit_cache
    crossed_digest = large_digest[:16] + small_digest[16:]
    os.replace(cache.path_for(binary_hash, small_digest),
               cache.path_for(binary_hash, crossed_digest))
    fresh = BlockCache(cache_dir)
    assert fresh.load(binary_hash, crossed_digest) is None
    assert fresh.stats["stale"] == 1


def test_fuel_limit_is_not_a_codegen_input(cache_dir):
    """The fuel limit is bound at install, so two Teapot ``gadgets``
    emulators that differ only in ``max_steps`` share one compiled
    module, and each still stops on the legacy engine's step."""
    binary = TeapotRewriter(TeapotConfig()).instrument(
        get_target("gadgets").compile())
    data = get_target("gadgets").seeds[0]

    def run(engine, max_steps):
        emulator_cls, controller_cls = resolve_engine(engine)
        emulator = emulator_cls(
            binary, controller=controller_cls(TeapotNestingPolicy()),
            policy=KasperPolicy(), coverage=CoverageRuntime(),
            max_steps=max_steps)
        return emulator, result_record(emulator.run(data))

    full = run("legacy", 5_000_000)[1]
    assert full["spec_stats"]["simulations_started"] > 1
    fuels = (5_000_000, full["steps"] // 2)
    roomy, roomy_record = run("jit", fuels[0])
    tight, tight_record = run("jit", fuels[1])
    assert tight._jit_key == roomy._jit_key
    assert (roomy._jit_cache_event, tight._jit_cache_event) == ("miss", "hit")
    assert tight._block_code is roomy._block_code
    assert roomy._jit_cache.stats["misses"] == 1
    assert len(_cache_files(cache_dir)) == 1
    assert roomy_record == full
    assert tight_record == run("legacy", fuels[1])[1]
    assert tight_record["status"] == "fuel"


@pytest.mark.parametrize("damage", ["truncate", "garbage", "no_newline",
                                    "bad_payload", "bitflip"])
def test_corrupted_cache_file_recovery(cache_dir, gadgets_binary, damage):
    """Unreadable entries are counted corrupt, deleted, and recompiled."""
    emulator = JitEmulator(gadgets_binary)
    binary_hash, digest = emulator._jit_key
    path = emulator._jit_cache.path_for(binary_hash, digest)
    with open(path, "rb") as handle:
        payload = handle.read()
    if damage == "truncate":
        damaged = payload[: payload.find(b"\n") + 3]
    elif damage == "garbage":
        damaged = b"\xde\xad\xbe\xef" * 8
    elif damage == "no_newline":
        damaged = payload.replace(b"\n", b" ")
    elif damage == "bad_payload":  # valid header, unmarshalable payload
        damaged = payload[: payload.find(b"\n") + 1] + b"not marshal data"
    else:  # one flipped bit in the middle of a marshalable payload
        start = payload.find(b"\n") + 1
        flip = start + (len(payload) - start) // 2
        damaged = (payload[:flip] + bytes([payload[flip] ^ 0x01])
                   + payload[flip + 1:])
    with open(path, "wb") as handle:
        handle.write(damaged)

    fresh = BlockCache(cache_dir)
    assert fresh.load(binary_hash, digest) is None
    assert fresh.stats["corrupt"] == 1
    assert not os.path.exists(path), "corrupt entry must be deleted"

    # recovery: the next construction recompiles and re-publishes
    jitcache._shared = None
    jitcache._shared_dir = None
    recovered = JitEmulator(gadgets_binary)
    assert recovered._jit_cache_event == "miss"
    assert recovered._jit_cache.stats["stores"] == 1
    result = recovered.run(b"\x00" + b"\x05" * 8)
    assert result.status == "exit"


def test_disabled_cache_keeps_memo_only(tmp_path, monkeypatch,
                                        gadgets_binary):
    monkeypatch.setenv("REPRO_JIT_CACHE", "0")
    monkeypatch.setattr(jitcache, "_shared", None)
    monkeypatch.setattr(jitcache, "_shared_dir", None)
    first = JitEmulator(gadgets_binary)
    assert first._jit_cache.directory is None
    assert first._jit_cache_event == "miss"
    second = JitEmulator(gadgets_binary)
    assert second._jit_cache_event == "hit"
    assert second._jit_cache.stats["memo_hits"] == 1


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="no file ownership")
def test_writable_cache_dir_is_not_trusted(cache_dir, tmp_path,
                                           gadgets_binary):
    """A cache directory group or others can write to (another user may
    have pre-created it and planted entries) is neither read nor written:
    the cache runs memo-only."""
    planted = JitEmulator(gadgets_binary)  # publishes a valid entry
    path = planted._jit_cache.path_for(*planted._jit_key)
    with open(path, "rb") as handle:
        entry = handle.read()

    shared = str(tmp_path / "world-writable")
    os.mkdir(shared)
    os.chmod(shared, 0o777)
    target = os.path.join(shared, os.path.basename(path))
    with open(target, "wb") as handle:
        handle.write(entry)

    cache = BlockCache(shared)
    assert cache.load(*planted._jit_key) is None
    cache.store(*planted._jit_key, planted._block_code)
    assert cache.stats == {"memo_hits": 0, "disk_hits": 0, "misses": 1,
                           "stale": 0, "corrupt": 0, "stores": 0}
    assert sorted(os.listdir(shared)) == [os.path.basename(path)]
    with open(target, "rb") as handle:
        assert handle.read() == entry


def _rewrite_entry(path, payload, **fields):
    """Replace the entry at ``path`` with ``payload`` under its own header
    with ``fields`` changed and a matching payload digest: only the edited
    field or the payload's shape can make it a miss."""
    with open(path, "rb") as handle:
        header = json.loads(handle.read().split(b"\n", 1)[0])
    header.update(fields, payload=hashlib.sha256(payload).hexdigest())
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8")
                     + b"\n" + payload)


@pytest.mark.parametrize("shape", ["one_code_object", "list", "non_code"])
def test_payload_that_is_not_a_tuple_of_code_objects_is_corrupt(
        cache_dir, gadgets_binary, shape):
    """A format-3 payload is the tuple of per-block code objects; a single
    code object (the format-2 module), a list of them or a tuple holding
    anything else is corrupt even under a valid header."""
    emulator = JitEmulator(gadgets_binary)
    blocks = emulator._block_code
    assert isinstance(blocks, tuple) and len(blocks) > 1
    payload = {"one_code_object": blocks[0], "list": list(blocks),
               "non_code": blocks[:1] + (1,)}[shape]
    path = emulator._jit_cache.path_for(*emulator._jit_key)
    _rewrite_entry(path, marshal.dumps(payload))

    fresh = BlockCache(cache_dir)
    assert fresh.load(*emulator._jit_key) is None
    assert fresh.stats["corrupt"] == 1
    assert fresh.stats["stale"] == 0
    assert not os.path.exists(path)


def test_format_2_entry_is_stale(cache_dir, gadgets_binary):
    """An entry written under format 2 (one code object for the whole
    module) is stale: deleted, recompiled and replaced by format 3."""
    emulator = JitEmulator(gadgets_binary)
    path = emulator._jit_cache.path_for(*emulator._jit_key)
    _rewrite_entry(path, marshal.dumps(emulator._block_code[0]), format=2)

    fresh = BlockCache(cache_dir)
    assert fresh.load(*emulator._jit_key) is None
    assert fresh.stats["stale"] == 1
    assert fresh.stats["corrupt"] == 0
    assert not os.path.exists(path)

    jitcache._shared = None
    jitcache._shared_dir = None
    recompiled = JitEmulator(gadgets_binary)
    assert recompiled._jit_cache_event == "miss"
    with open(path, "rb") as handle:
        assert json.loads(handle.readline())["format"] == 3


def test_cold_build_peak_memory(cache_dir):
    """A cold Teapot gadgets build compiles block by block, so its
    ``tracemalloc`` peak stays far below one whole-module syntax tree
    (36 MB when the module compiled as one)."""
    config = TeapotConfig()
    binary = TeapotRewriter(config).instrument(get_target("gadgets").compile())
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        runtime = TeapotRuntime(binary, config=config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runtime.emulator._jit_cache_event == "miss"
    assert peak <= 8_000_000, f"{peak / 1e6:.1f} MB"


# -- hostile entries (Hypothesis) ---------------------------------------------

def _entry_edits(entry: bytes):
    """Byte flips, truncations, extensions and header field edits of one
    cache entry; each draws a different file."""
    size = len(entry)
    header = json.loads(entry[:entry.find(b"\n")])
    flips = st.tuples(st.just("flip"), st.integers(0, size - 1),
                      st.integers(1, 255))
    truncations = st.tuples(st.just("truncate"), st.integers(0, size - 1))
    extensions = st.tuples(st.just("extend"),
                           st.binary(min_size=1, max_size=64))
    values = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                       st.text(max_size=8), st.lists(st.integers(),
                                                     max_size=2))
    fields = st.tuples(st.just("field"),
                       st.sampled_from(sorted(header) + ["extra"]), values)
    return st.one_of(flips, truncations, extensions, fields).filter(
        lambda edit: edit[0] != "field" or header.get(edit[1]) != edit[2])


def _apply_edit(entry: bytes, edit) -> bytes:
    kind = edit[0]
    if kind == "flip":
        _, at, mask = edit
        return entry[:at] + bytes([entry[at] ^ mask]) + entry[at + 1:]
    if kind == "truncate":
        return entry[:edit[1]]
    if kind == "extend":
        return entry + edit[1]
    _, field, value = edit
    newline = entry.find(b"\n")
    header = json.loads(entry[:newline])
    header[field] = value
    return json.dumps(header, sort_keys=True).encode("utf-8") + entry[newline:]


GADGETS_INPUT = b"\x00" + b"\x05" * 8


@pytest.fixture(scope="module")
def cold_entry(tmp_path_factory):
    """A real gadgets entry, its cache key and the cold run's record."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_JIT_CACHE", str(tmp_path_factory.mktemp("cold")))
        patch.setattr(jitcache, "_shared", None)
        patch.setattr(jitcache, "_shared_dir", None)
        emulator = JitEmulator(get_target("gadgets").compile())
        with open(emulator._jit_cache.path_for(*emulator._jit_key),
                  "rb") as handle:
            entry = handle.read()
        return entry, emulator._jit_key, emulator.run(GADGETS_INPUT).__dict__


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_entries_are_counted_misses(cold_entry, gadgets_binary,
                                            monkeypatch, tmp_path_factory,
                                            data):
    """Any flipped byte, truncation, extension or header field edit of a
    real entry makes ``load`` return a miss counted ``stale`` or
    ``corrupt``, deletes the entry and raises nothing; the engine then
    recompiles, and its run equals the cold run."""
    entry, key, record = cold_entry
    edit = data.draw(_entry_edits(entry))
    directory = str(tmp_path_factory.mktemp("hostile"))
    cache = BlockCache(directory)
    path = cache.path_for(*key)
    with open(path, "wb") as handle:
        handle.write(_apply_edit(entry, edit))

    assert cache.load(*key) is None
    stats = cache.stats
    assert stats["stale"] + stats["corrupt"] == 1, (edit, stats)
    assert stats["disk_hits"] == stats["misses"] == 0
    assert not os.path.exists(path)

    monkeypatch.setenv("REPRO_JIT_CACHE", directory)
    recompiled = JitEmulator(gadgets_binary)
    assert recompiled._jit_cache_event == "miss"
    assert recompiled.run(GADGETS_INPUT).__dict__ == record
    assert os.path.exists(path)
