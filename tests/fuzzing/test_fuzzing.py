"""Tests for the corpus, mutators, coverage maps and fuzzer loop."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TeapotRewriter
from repro.core.teapot import TeapotRuntime
from repro.coverage.sancov import CoverageMap, CoverageRuntime
from repro.fuzzing import Corpus, Fuzzer, FuzzTarget, Mutator
from repro.fuzzing.corpus import CorpusEntry
from repro.minic.compiler import compile_source


# -- coverage ------------------------------------------------------------------

def test_coverage_map_dedup():
    cov = CoverageMap()
    assert cov.add(1)
    assert not cov.add(1)
    assert cov.add_many([1, 2, 3]) == 2
    assert len(cov) == 3
    assert 2 in cov


def test_coverage_runtime_lazy_speculative_flush():
    runtime = CoverageRuntime()
    runtime.trace_normal(1)
    runtime.note_speculative(10)
    runtime.note_speculative(11)
    # Notes are not visible until the flush at rollback time.
    assert runtime.new_coverage_signature() == (1, 0)
    assert runtime.flush_speculative() == 2
    assert runtime.new_coverage_signature() == (1, 2)
    assert runtime.lazy_flushes == 1


def test_coverage_runtime_reset_drops_pending_notes():
    runtime = CoverageRuntime()
    runtime.note_speculative(5)
    runtime.reset_execution_state()
    assert runtime.flush_speculative() == 0


# -- corpus -----------------------------------------------------------------------

def test_corpus_deduplicates_inputs():
    corpus = Corpus([b"a"])
    assert not corpus.add(b"a", 1, 1)
    assert corpus.add(b"b", 2, 2)
    assert len(corpus) == 2
    assert corpus.total_bytes() == 2


def test_corpus_records_keep_reason():
    corpus = Corpus([b"seed"])
    corpus.add(b"n", 3, 0, reason="normal")
    corpus.add(b"s", 3, 1, reason="speculative")
    corpus.add(b"c", 3, 1, reason="crash")
    assert [e.reason for e in corpus.entries] == [
        "seed", "normal", "speculative", "crash"
    ]


def test_corpus_merge_and_bytes_round_trip():
    left = Corpus([b"a", b"b"])
    right = Corpus([b"b"])
    right.add(b"c", 5, 2, reason="speculative")

    added = left.merge(right)
    assert added == 1
    assert left.to_bytes_list() == [b"a", b"b", b"c"]
    # Merged entries keep their coverage but are tagged as sync'd.
    merged_entry = left.entries[-1]
    assert merged_entry.coverage_signature == (5, 2)
    assert merged_entry.reason == "merge"

    # to_bytes_list round-trips through the constructor.
    rebuilt = Corpus(left.to_bytes_list())
    assert rebuilt.to_bytes_list() == left.to_bytes_list()


def test_corpus_shards_round_robin_and_nonempty():
    corpus = Corpus([b"a", b"b", b"c"])
    shards = corpus.shards(2)
    assert shards == [[b"a", b"c"], [b"b"]]
    # Every shard gets at least one input even when shards > entries.
    shards = corpus.shards(5)
    assert all(shard for shard in shards)
    assert shards[0] == [b"a"]
    assert shards[4] == [b"a"]
    with pytest.raises(ValueError):
        corpus.shards(0)


def test_corpus_dict_round_trip():
    corpus = Corpus([b"a"])
    corpus.add(b"b", 4, 7, reason="both")
    rebuilt = Corpus.from_dicts(corpus.to_dicts())
    assert rebuilt.to_bytes_list() == corpus.to_bytes_list()
    assert rebuilt.entries[1].coverage_signature == (4, 7)
    assert rebuilt.entries[1].reason == "both"
    # The rebuilt corpus still deduplicates against its own entries.
    assert not rebuilt.add(b"b", 0, 0)


def test_corpus_entry_from_dict_names_the_damaged_field():
    record = Corpus([b"a"]).to_dicts()[0]
    with pytest.raises(ValueError, match=r"^data: bad value$"):
        CorpusEntry.from_dict(dict(record, data="zz"))
    with pytest.raises(ValueError, match=r"^executions: wrong type$"):
        CorpusEntry.from_dict(dict(record, executions="1"))


def test_corpus_select_round_robin():
    corpus = Corpus([b"a", b"b"])
    assert corpus.select(0).data == b"a"
    assert corpus.select(1).data == b"b"
    assert corpus.select(2).data == b"a"
    with pytest.raises(IndexError):
        Corpus([]).select(0)


# -- mutators --------------------------------------------------------------------

def test_mutator_is_deterministic_for_fixed_seed():
    a = Mutator(random.Random(7)).mutate(b"hello world")
    b = Mutator(random.Random(7)).mutate(b"hello world")
    assert a == b


def test_mutator_never_returns_empty_and_respects_max_size():
    mutator = Mutator(random.Random(3), max_size=32)
    data = b"x" * 32
    for _ in range(200):
        data = mutator.mutate(data)
        assert 1 <= len(data) <= 32


@given(st.binary(min_size=0, max_size=64), st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_mutator_output_properties(data, seed):
    """Property: mutation always yields a non-empty, bounded bytestring."""
    mutator = Mutator(random.Random(seed), max_size=128)
    out = mutator.mutate(data)
    assert isinstance(out, bytes)
    assert 1 <= len(out) <= 128


# -- fuzzer ------------------------------------------------------------------------

FUZZ_SOURCE = r"""
int limit = 8;
int main() {
    byte buf[32];
    int n = read_input(buf, 32);
    byte *arr = malloc(8);
    byte *probe = malloc(512);
    int total = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (buf[i] < limit) {
            total = total + probe[arr[buf[i]]];
        } else {
            total = total + 1;
        }
    }
    free(arr);
    free(probe);
    return total;
}
"""


@pytest.fixture(scope="module")
def fuzz_runtime():
    binary = compile_source(FUZZ_SOURCE)
    instrumented = TeapotRewriter().instrument(binary)
    return TeapotRuntime(instrumented)


def test_campaign_is_deterministic(fuzz_runtime):
    def campaign():
        fuzzer = Fuzzer(FuzzTarget(fuzz_runtime), seeds=[b"\x01\x02\x03"], seed=42)
        return fuzzer.run_campaign(20)

    first = campaign()
    second = campaign()
    assert first.executions == second.executions == 20
    assert first.corpus_size == second.corpus_size
    # Gadget sites are cumulative across the shared runtime but the counts of
    # the two identical campaigns must agree.
    assert first.gadget_count() == second.gadget_count()


def test_campaign_grows_coverage_and_finds_gadgets(fuzz_runtime):
    fuzzer = Fuzzer(FuzzTarget(fuzz_runtime),
                    seeds=[b"\x01\x02\x03", b"\xff\x20\x05\x09"], seed=7)
    result = fuzzer.run_campaign(30)
    assert result.executions == 30
    assert result.normal_coverage > 0
    assert result.speculative_coverage > 0
    assert result.corpus_size >= 2
    assert result.gadget_count() >= 1
    categories = result.count_by_category()
    assert any(key.startswith("User-") for key in categories)


class _StubRuntime:
    """Deterministic fake runtime: every run enters two simulations and
    rolls back once; like a real runtime it reports cumulative stats."""

    def __init__(self):
        from repro.runtime.emulator import ExecutionResult
        self._result_cls = ExecutionResult
        self._runs = 0

    def run(self, data):
        self._runs += 1
        return self._result_cls(
            status="exit", steps=10, cycles=100,
            spec_stats={"simulations_started": 2 * self._runs,
                        "rollbacks": self._runs},
        )


def test_campaign_accumulates_spec_stats():
    """Regression: per-execution spec_stats must sum, not overwrite."""
    fuzzer = Fuzzer(FuzzTarget(_StubRuntime()), seeds=[b"x"], seed=0)
    result = fuzzer.run_campaign(5)
    assert result.spec_stats == {"simulations_started": 10, "rollbacks": 5}


def test_campaign_spec_stats_equal_the_runtime_counters():
    """A runtime's spec_stats are cumulative: a campaign over a fresh
    runtime reports exactly its controller's totals, also when split into
    chunks (a sum of running totals would grow quadratically)."""
    instrumented = TeapotRewriter().instrument(compile_source(FUZZ_SOURCE))
    runtime = TeapotRuntime(instrumented)
    fuzzer = Fuzzer(FuzzTarget(runtime), seeds=[b"\x01\x02\x03"], seed=9)
    result = fuzzer.run_chunk(15)
    fuzzer.run_chunk(15, into=result)
    assert result.spec_stats == runtime.controller.stats.as_dict()
    assert result.spec_stats["rollbacks"] > 0


def test_run_chunk_resumes_identically():
    """Two chunks of 10 replay exactly like one chunk of 20."""
    # A fresh runtime per campaign: the coverage maps (the fuzzer's feedback
    # signal) must start empty for the two runs to be comparable.
    instrumented = TeapotRewriter().instrument(compile_source(FUZZ_SOURCE))

    def fresh():
        return Fuzzer(FuzzTarget(TeapotRuntime(instrumented)),
                      seeds=[b"\x01\x02\x03"], seed=9)

    whole = fresh().run_campaign(20)
    split_fuzzer = fresh()
    accumulated = split_fuzzer.run_chunk(10)
    split_fuzzer.run_chunk(10, into=accumulated)

    assert accumulated.executions == whole.executions == 20
    assert accumulated.total_steps == whole.total_steps
    assert accumulated.corpus_size == whole.corpus_size
    assert accumulated.spec_stats == whole.spec_stats
    assert accumulated.gadget_count() == whole.gadget_count()


def test_fuzzer_tags_corpus_entries_with_keep_reason():
    # The gadget-samples driver dispatches on the first input byte, so
    # mutations keep discovering new branch sites (and new speculative
    # coverage inside the gadgets) for a while.
    from repro.targets import get_target
    from repro.targets.injection import compile_vanilla

    target = get_target("gadgets")
    runtime = TeapotRuntime(TeapotRewriter().instrument(compile_vanilla(target)))
    fuzzer = Fuzzer(FuzzTarget(runtime), seeds=[target.seeds[0]], seed=7)
    fuzzer.run_campaign(40)
    reasons = {entry.reason for entry in fuzzer.corpus.entries}
    assert reasons <= {"seed", "normal", "speculative", "both", "crash"}
    # The seed keeps its tag; at least one entry was kept per coverage axis.
    assert fuzzer.corpus.entries[0].reason == "seed"
    assert reasons & {"normal", "both"}
    assert reasons & {"speculative", "both"}


def test_campaign_counts_crashes():
    source = r"""
    int main() {
        byte buf[4];
        int n = read_input(buf, 4);
        if (n > 2) {
            byte *p = 0;
            return p[5];
        }
        return 0;
    }
    """
    binary = compile_source(source)
    from repro.runtime import Emulator
    fuzzer = Fuzzer(FuzzTarget(Emulator(binary)), seeds=[b"abc"], seed=1)
    result = fuzzer.run_campaign(5)
    assert result.crashes >= 1
