"""Property-based serialization tests for the sweep and wire layers.

Three contracts every backend leans on:

* ``RunResult.to_dict``/``from_dict`` (and the JSON forms) are lossless;
* the wire protocol's ``encode_frame``/``decode_frame`` round-trip any
  JSON message, and reject every truncation;
* ``spec_digest`` is invariant under key ordering — the property that
  lets a client and a worker compute the same cache key independently.

Hypothesis drives the search where available; a seeded-random fallback
keeps the core round-trip properties exercised without it.
"""

import random

import pytest

from repro.branch import BranchStats
from repro.core import PBSStats
from repro.pipeline import CoreStats
from repro.sim import (
    ProtocolError,
    RunResult,
    RunSpec,
    decode_frame,
    encode_frame,
    spec_digest,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover — hypothesis ships in CI
    HAVE_HYPOTHESIS = False


def _random_result(rng: random.Random) -> RunResult:
    def metrics(name):
        return BranchStats(
            name=name,
            instructions=rng.randrange(10**9),
            regular_branches=rng.randrange(10**6),
            regular_mispredicts=rng.randrange(10**6),
            prob_branches=rng.randrange(10**6),
            prob_mispredicts=rng.randrange(10**6),
            pbs_hits=rng.randrange(10**6),
        )

    predictors = {
        name: metrics(name)
        for name in rng.sample(["a", "b", "c", "tournament"], rng.randrange(4))
    }
    cores = {
        name: CoreStats(
            name=name, core=f"{name}-core",
            instructions=rng.randrange(10**9),
            cycles=rng.randrange(10**9),
            branch_stall_cycles=rng.randrange(10**6),
            branches=metrics(name),
        )
        for name in list(predictors)[:2]
    }
    return RunResult(
        workload=rng.choice(["pi", "dop", "x"]),
        scale=rng.random() * 2,
        seed=rng.randrange(-2**31, 2**31),
        pbs=rng.random() < 0.5,
        pbs_config={"num_branches": rng.randrange(8)} if rng.random() < 0.5 else None,
        predictors=predictors,
        cores=cores,
        pbs_stats=PBSStats(instances=rng.randrange(10**6),
                           hits=rng.randrange(10**6))
        if rng.random() < 0.5 else None,
        outputs={f"out{i}": rng.uniform(-1e9, 1e9) for i in range(rng.randrange(4))},
        instructions=rng.randrange(10**9),
        wall_time=rng.random() * 100,
        consumed_values=[rng.random() for _ in range(rng.randrange(6))]
        if rng.random() < 0.5 else None,
    )


class TestSeededRoundTrip:
    """Hypothesis-free fallback: 200 seeded-random results per contract."""

    def test_run_result_dict_and_json_roundtrip(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(200):
            result = _random_result(rng)
            assert RunResult.from_dict(result.to_dict()) == result
            assert RunResult.from_json(result.to_json()) == result
            assert RunResult.from_json(result.to_json(indent=2)) == result

    def test_digest_invariant_under_harness_option_order(self):
        rng = random.Random(7)
        for _ in range(100):
            options = {f"k{i}": rng.randrange(100) for i in range(rng.randrange(1, 6))}
            shuffled_keys = list(options)
            rng.shuffle(shuffled_keys)
            a = RunSpec(workload="pi", harness_options=dict(options))
            b = RunSpec(workload="pi",
                        harness_options={k: options[k] for k in shuffled_keys})
            assert a.digest() == b.digest()


if HAVE_HYPOTHESIS:
    finite = st.floats(allow_nan=False, allow_infinity=False)
    counts = st.integers(0, 2**50)
    short_text = st.text(max_size=12)

    predictor_metrics = st.builds(
        BranchStats,
        name=short_text, instructions=counts,
        regular_branches=counts, regular_mispredicts=counts,
        prob_branches=counts, prob_mispredicts=counts, pbs_hits=counts,
    )
    core_metrics = st.builds(
        CoreStats,
        name=short_text, core=short_text, instructions=counts,
        cycles=counts, branch_stall_cycles=counts, branches=predictor_metrics,
    )
    pbs_metrics = st.builds(
        PBSStats, instances=counts, hits=counts, bootstraps=counts,
        fallbacks=counts, allocations=counts,
    )
    run_results = st.builds(
        RunResult,
        workload=short_text,
        scale=finite,
        seed=st.integers(-2**31, 2**31),
        pbs=st.booleans(),
        pbs_config=st.none()
        | st.dictionaries(short_text, st.integers(0, 100), max_size=3),
        predictors=st.dictionaries(short_text, predictor_metrics, max_size=3),
        cores=st.dictionaries(short_text, core_metrics, max_size=2),
        pbs_stats=st.none() | pbs_metrics,
        outputs=st.dictionaries(short_text, finite, max_size=4),
        instructions=counts,
        wall_time=finite,
        consumed_values=st.none() | st.lists(finite, max_size=6),
    )

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-2**53, 2**53)
        | finite | short_text,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(short_text, children, max_size=4),
        max_leaves=20,
    )
    messages = st.fixed_dictionaries(
        {"type": st.text(min_size=1, max_size=12)},
        optional={"id": st.integers(0, 10**9), "payload": json_values},
    )
    payloads = st.dictionaries(
        st.text(min_size=1, max_size=10), json_values, min_size=1, max_size=6
    )

    class TestRunResultProperties:
        @given(run_results)
        @settings(max_examples=60, deadline=None)
        def test_dict_roundtrip_is_lossless(self, result):
            assert RunResult.from_dict(result.to_dict()) == result

        @given(run_results)
        @settings(max_examples=60, deadline=None)
        def test_json_roundtrip_is_lossless(self, result):
            assert RunResult.from_json(result.to_json()) == result

        @given(run_results)
        @settings(max_examples=30, deadline=None)
        def test_json_text_is_a_fixed_point(self, result):
            # Serializing a deserialized result reproduces the bytes —
            # the invariant the golden fixtures and cache depend on.
            text = result.to_json()
            assert RunResult.from_json(text).to_json() == text

    class TestWireProtocolProperties:
        @given(messages)
        @settings(max_examples=80, deadline=None)
        def test_encode_decode_roundtrip(self, message):
            assert decode_frame(encode_frame(message)) == message

        @given(messages, st.data())
        @settings(max_examples=60, deadline=None)
        def test_every_truncation_is_rejected(self, message, data):
            raw = encode_frame(message)
            cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
            with pytest.raises(ProtocolError):
                decode_frame(raw[:cut])

        @given(messages)
        @settings(max_examples=40, deadline=None)
        def test_frames_never_embed_newlines(self, message):
            raw = encode_frame(message)
            assert raw.count(b"\n") == 1 and raw.endswith(b"\n")

    class TestDigestProperties:
        @given(payloads, st.randoms(use_true_random=False))
        @settings(max_examples=80, deadline=None)
        def test_digest_invariant_under_key_order(self, payload, rng):
            keys = list(payload)
            rng.shuffle(keys)
            shuffled = {key: payload[key] for key in keys}
            assert spec_digest(shuffled) == spec_digest(payload)

        @given(payloads, st.text(min_size=1, max_size=10), json_values)
        @settings(max_examples=60, deadline=None)
        def test_digest_sensitive_to_value_changes(self, payload, key, value):
            changed = dict(payload)
            changed[key] = value
            if changed == payload:
                return  # drew an identical mapping; nothing to compare
            assert spec_digest(changed) != spec_digest(payload)
