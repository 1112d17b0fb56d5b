"""Tests for campaign specs: matrix expansion, seeding, serialization."""

import pytest

from repro.campaign.spec import (
    MAX_ATTEMPTS,
    MAX_BACKOFF_S,
    MAX_INPUT_SIZE,
    MAX_ITERATIONS,
    MAX_JOB_TIMEOUT_S,
    MAX_ROUNDS,
    MAX_SHARDS,
    MAX_WORKERS,
    CampaignSpec,
    JobSpec,
    derive_seed,
    split_evenly,
)


# -- helpers ----------------------------------------------------------------

def test_split_evenly():
    assert split_evenly(10, 4) == [3, 3, 2, 2]
    assert split_evenly(3, 5) == [1, 1, 1, 0, 0]
    assert split_evenly(0, 2) == [0, 0]
    with pytest.raises(ValueError):
        split_evenly(4, 0)


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(0, "jsmn", "teapot", "vanilla", 0, 0)
    assert a == derive_seed(0, "jsmn", "teapot", "vanilla", 0, 0)
    assert a != derive_seed(1, "jsmn", "teapot", "vanilla", 0, 0)
    assert a != derive_seed(0, "jsmn", "teapot", "vanilla", 0, 1)
    assert a != derive_seed(0, "jsmn", "teapot", "vanilla", 1, 0)
    assert 0 <= a < 2 ** 63


# -- matrix expansion -------------------------------------------------------

def test_matrix_expansion_counts():
    spec = CampaignSpec(targets=("gadgets", "jsmn"), tools=("teapot", "specfuzz"),
                        iterations=40, rounds=2, shards=2, seed=1)
    jobs = spec.jobs_for_round(0)
    # 2 targets x 2 tools x 2 shards
    assert len(jobs) == 8
    assert all(job.iterations == 10 for job in jobs)
    assert len({job.seed for job in jobs}) == len(jobs)
    assert spec.round_iterations(0) + spec.round_iterations(1) == 40


def test_injected_variant_skipped_without_attack_points():
    # The 'gadgets' sample driver has no attack points, jsmn does.
    spec = CampaignSpec(targets=("gadgets", "jsmn"), variants=("injected",),
                        iterations=10, rounds=1)
    assert spec.groups() == [("jsmn", "teapot", "injected")]
    # The experiment harness keeps every requested program instead.
    spec = CampaignSpec(targets=("gadgets", "jsmn"), variants=("injected",),
                        iterations=10, rounds=1, skip_uninjectable=False)
    assert spec.groups() == [("gadgets", "teapot", "injected"),
                             ("jsmn", "teapot", "injected")]


def test_uneven_iterations_drop_empty_jobs():
    spec = CampaignSpec(targets=("gadgets",), iterations=3, rounds=2, shards=2)
    round0 = spec.jobs_for_round(0)
    round1 = spec.jobs_for_round(1)
    total = sum(job.iterations for job in round0 + round1)
    assert total == 3
    assert all(job.iterations > 0 for job in round0 + round1)


def test_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec(targets=("gadgets",), tools=("honggfuzz",))
    with pytest.raises(ValueError):
        CampaignSpec(targets=("gadgets",), variants=("debug",))
    with pytest.raises(ValueError):
        CampaignSpec(targets=("gadgets",), rounds=0)
    with pytest.raises(ValueError):
        CampaignSpec(targets=("gadgets",), derive_seeds=False, shards=2)


@pytest.mark.parametrize("name, low, high", [
    ("iterations", 1, MAX_ITERATIONS),
    ("rounds", 1, MAX_ROUNDS),
    ("shards", 1, MAX_SHARDS),
    ("workers", 0, MAX_WORKERS),
    ("max_input_size", 1, MAX_INPUT_SIZE),
    ("job_timeout_s", 0, MAX_JOB_TIMEOUT_S),
    ("job_max_attempts", 1, MAX_ATTEMPTS),
    ("job_retry_backoff_s", 0, MAX_BACKOFF_S),
])
def test_spec_integers_are_bounded(name, low, high):
    """A spec number reads back up to its bound and is refused past it,
    naming the field (the HTTP submit path answers that with a 400)."""
    for value in (low, high):
        spec = CampaignSpec.from_dict({"targets": ["gadgets"], name: value})
        assert getattr(spec, name) == value
    for value in (low - 1, high + 1, 10**300):
        with pytest.raises(ValueError) as excinfo:
            CampaignSpec.from_dict({"targets": ["gadgets"], name: value})
        assert str(excinfo.value) == (
            f"{name}: must be between {low} and {high}")


@pytest.mark.parametrize("name", ("job_timeout_s", "job_retry_backoff_s"))
def test_spec_refuses_a_nan_retry_knob(name):
    with pytest.raises(ValueError, match=f"^{name}: must be between "):
        CampaignSpec(targets=("gadgets",), **{name: float("nan")})


def test_legacy_seeding_uses_campaign_seed_directly():
    spec = CampaignSpec(targets=("gadgets",), iterations=10, rounds=1,
                        shards=1, seed=99, derive_seeds=False)
    assert [job.seed for job in spec.jobs_for_round(0)] == [99]


# -- serialization ----------------------------------------------------------

def test_spec_dict_round_trip():
    spec = CampaignSpec(targets=("jsmn", "gadgets"), tools=("teapot",),
                        variants=("vanilla", "injected"), iterations=120,
                        rounds=3, shards=4, seed=7, workers=4)
    assert CampaignSpec.from_dict(spec.to_dict()) == spec


def test_fingerprint_ignores_workers_but_not_shards():
    spec = CampaignSpec(targets=("gadgets",), iterations=10, shards=2, workers=1)
    assert spec.fingerprint() == spec.with_workers(8).fingerprint()
    different = CampaignSpec(targets=("gadgets",), iterations=10, shards=3)
    assert spec.fingerprint() != different.fingerprint()


def test_job_id_and_group():
    job = JobSpec(target="jsmn", tool="teapot", variant="vanilla",
                  shard=1, shard_count=4, round_index=0, iterations=10)
    assert job.group == ("jsmn", "teapot", "vanilla")
    assert job.job_id == "jsmn/teapot/vanilla r0 s2/4"
