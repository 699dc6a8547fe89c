"""Tests for the repro.trace subsystem: binary format, content-addressed
store, Session capture/replay, Sweep trace planning, and the sharded
result-cache layout the store shares.  Stores are local: the http
executor refuses them."""

import json
from dataclasses import asdict, replace

import pytest

from repro.core import PBSConfig
from repro.functional.trace import EventBatch, ProbMode, TraceEvent
from repro.isa.opcodes import OP_CLASS, Op
from repro.serve import Coordinator
from repro.serve.client import CoordinatorError
from repro.sim import (
    CoordinatorWorker,
    HttpExecutor,
    ResultCache,
    RunSpec,
    Session,
    Sweep,
)
from repro.storage import canonical_digest
from repro.trace import (
    TraceFormatError,
    TraceReader,
    TraceStore,
    TraceWriter,
    trace_digest,
    unpack_events_batch,
)

SCALE = 0.02


def _normalized(result) -> str:
    return replace(result, wall_time=0.0).to_json(indent=2)


def _event(**overrides) -> TraceEvent:
    base = dict(
        pc=7, op=Op.ADD, op_class=OP_CLASS[Op.ADD], dest=3, srcs=(1, 2),
        is_cond_branch=False, taken=False, target=None, next_pc=8,
        addr=None, is_store=False, prob_mode=ProbMode.NOT_PROB,
    )
    base.update(overrides)
    return TraceEvent(**base)


EVENT_FIELDS = TraceEvent.__slots__


def _assert_events_equal(a: TraceEvent, b: TraceEvent):
    for field in EVENT_FIELDS:
        assert getattr(a, field) == getattr(b, field), field


class _Collect:
    """A batch sink that appends every replayed batch to one
    :class:`EventBatch` (replay reuses its batch between frames)."""

    def __init__(self):
        self.batch = EventBatch()

    def consume_batch(self, batch):
        for column in EventBatch.__slots__:
            getattr(self.batch, column).extend(getattr(batch, column))


def _write(path, events, compress=True, events_per_frame=4, meta=None):
    writer = TraceWriter(path, compress=compress,
                         events_per_frame=events_per_frame)
    writer.consume_batch(EventBatch.from_events(events))
    writer.finalize(meta or {"workload": "x"})
    return path


def _replayed(path) -> list:
    """Every event of a trace file, through ``TraceReader.replay``."""
    collect = _Collect()
    count = TraceReader(path).replay(collect)
    assert count == len(collect.batch)
    return list(collect.batch.events())


class TestEventPacking:
    # Every case sits at pc 7, so the writer's per-site record cache must
    # tell instructions apart by more than pc and flags.
    CASES = [
        _event(),
        _event(op=Op.HALT, op_class=OP_CLASS[Op.HALT], dest=-1, srcs=()),
        _event(op=Op.BLT, op_class=OP_CLASS[Op.BLT], dest=-1,
               is_cond_branch=True, taken=True, target=2, next_pc=2),
        _event(op=Op.BLT, op_class=OP_CLASS[Op.BLT], dest=-1,
               is_cond_branch=True, taken=False, target=2, next_pc=8),
        _event(op=Op.JMP, op_class=OP_CLASS[Op.JMP], dest=-1, srcs=(),
               target=100, next_pc=100),
        _event(op=Op.LOAD, op_class=OP_CLASS[Op.LOAD], srcs=(4,), addr=123),
        _event(op=Op.STORE, op_class=OP_CLASS[Op.STORE], dest=-1,
               srcs=(5, 6), addr=99, is_store=True),
        _event(op=Op.PROB_JMP, op_class=OP_CLASS[Op.PROB_JMP], dest=-1,
               is_cond_branch=True, taken=True, target=3, next_pc=3,
               prob_mode=ProbMode.PBS_HIT),
        _event(op=Op.PROB_JMP, op_class=OP_CLASS[Op.PROB_JMP], dest=-1,
               is_cond_branch=True, taken=False, target=3, next_pc=8,
               prob_mode=ProbMode.PREDICTED),
        # A taken branch whose target happens to be the fall-through.
        _event(op=Op.JT, op_class=OP_CLASS[Op.JT], dest=-1, srcs=(),
               is_cond_branch=True, taken=True, target=8, next_pc=8),
        # Same pc and flags as the first case, different dest and srcs.
        _event(dest=4, srcs=(5,)),
    ]

    def test_roundtrip_preserves_every_field(self, tmp_path):
        # One frame holds every case: the batch codec packs and decodes
        # each record on its own, whatever the framing.
        path = _write(tmp_path / "t.trace", self.CASES, compress=False,
                      events_per_frame=len(self.CASES))
        decoded = _replayed(path)
        assert len(decoded) == len(self.CASES)
        for original, restored in zip(self.CASES, decoded):
            _assert_events_equal(original, restored)

    def test_corrupt_payload_raises(self, tmp_path):
        path = _write(tmp_path / "t.trace", self.CASES[:1], compress=False)
        (payload,) = TraceReader(path)._event_payloads()
        with pytest.raises(TraceFormatError):
            unpack_events_batch(payload[:-1], EventBatch())


class TestTraceFile:
    def _capture(self, tmp_path, events, compress=True, meta=None):
        return _write(tmp_path / "t.trace", events, compress=compress,
                      meta=meta)

    def test_write_read_with_framing_and_compression(self, tmp_path):
        events = TestEventPacking.CASES * 5  # several frames at 4/frame
        for compress in (True, False):
            path = self._capture(tmp_path, events, compress=compress)
            reader = TraceReader(path)
            assert reader.meta["events"] == len(events)
            assert reader.meta["workload"] == "x"
            decoded = _replayed(path)
            assert len(decoded) == len(events)
            for original, restored in zip(events, decoded):
                _assert_events_equal(original, restored)

    def test_unfinalized_file_is_unreadable(self, tmp_path):
        path = tmp_path / "partial.trace"
        writer = TraceWriter(path)
        writer.consume_batch(EventBatch.from_events([_event()]))
        writer._flush_frame()
        writer._handle.close()
        with pytest.raises(TraceFormatError):
            TraceReader(path)

    def test_truncated_and_corrupt_files_raise(self, tmp_path):
        path = self._capture(tmp_path, TestEventPacking.CASES)
        raw = path.read_bytes()
        for mutation in (raw[:10], b"XXXX" + raw[4:], raw[:-4] + b"!!!!"):
            bad = tmp_path / "bad.trace"
            bad.write_bytes(mutation)
            with pytest.raises(TraceFormatError):
                TraceReader(bad)

    def test_version_mismatch_raises(self, tmp_path):
        path = self._capture(tmp_path, [_event()])
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # bump the little-endian u16 version field
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError):
            TraceReader(path)


class TestTraceDigest:
    def test_default_pbs_config_is_expanded(self):
        spelled_out = trace_digest("pi", 0.5, 1, asdict(PBSConfig()))
        spec_default = RunSpec("pi", scale=0.5, seed=1, mode="pbs")
        assert spec_default.trace_digest() == spelled_out
        session_digest = Session("pi", scale=0.5, seed=1).pbs().trace_digest()
        assert session_digest == spelled_out

    def test_partial_pbs_config_expands_to_session_digest(self):
        # A spec spelling only part of the PBS config must land on the
        # digest the Session actually stores the trace under.
        spec = RunSpec("pi", scale=SCALE, seed=1, mode="pbs",
                       pbs_config={"num_branches": 2})
        assert spec.trace_digest() == spec.session().trace_digest()

    def test_key_dimensions(self):
        base = RunSpec("pi", scale=SCALE, seed=1).trace_digest()
        assert RunSpec("pi", scale=SCALE, seed=2).trace_digest() != base
        assert RunSpec("dop", scale=SCALE, seed=1).trace_digest() != base
        assert RunSpec("pi", scale=0.1, seed=1).trace_digest() != base
        assert RunSpec("pi", scale=SCALE, seed=1, mode="pbs").trace_digest() != base

    def test_predictors_timing_and_trace_fields_share_one_trace(self):
        base = RunSpec("pi", scale=SCALE, seed=1).trace_digest()
        assert RunSpec(
            "pi", scale=SCALE, seed=1, predictors=("tournament", "gshare"),
        ).trace_digest() == base
        assert RunSpec(
            "pi", scale=SCALE, seed=1, trace_store="/somewhere",
        ).trace_digest() == base

    def test_trace_fields_do_not_change_cache_digest(self):
        spec = RunSpec("pi", scale=SCALE, seed=1, predictors=("tournament",))
        traced = replace(spec, trace_store="/tmp/traces", trace_mode="replay")
        assert spec.digest() == traced.digest()
        assert "trace_store" not in spec.cache_key()


class TestTraceStore:
    def _capture_one(self, store, digest, events=None, meta=None):
        capture = store.writer(digest)
        capture.sink.consume_batch(
            EventBatch.from_events(events or TestEventPacking.CASES)
        )
        capture.commit(meta or {
            "workload": "pi", "scale": SCALE, "seed": 1, "pbs_config": None,
        })

    def test_miss_then_capture_then_open(self, tmp_path):
        store = TraceStore(tmp_path)
        digest = trace_digest("pi", SCALE, 1, None)
        assert store.open(digest) is None
        assert store.misses == 1
        self._capture_one(store, digest)
        reader = store.open(digest)
        assert reader is not None and store.hits == 1
        assert reader.meta["events"] == len(TestEventPacking.CASES)
        assert reader.meta["workload"] == "pi"

    def test_sharded_layout_without_manifest(self, tmp_path):
        # A store is its trace files and nothing else.
        store = TraceStore(tmp_path)
        digest = trace_digest("pi", SCALE, 2, None)
        self._capture_one(store, digest)
        assert sorted(
            path.relative_to(tmp_path).as_posix()
            for path in tmp_path.rglob("*")
        ) == [digest[:2], f"{digest[:2]}/{digest}.trace"]

    def test_abort_leaves_no_entry(self, tmp_path):
        store = TraceStore(tmp_path)
        digest = trace_digest("pi", SCALE, 3, None)
        capture = store.writer(digest)
        capture.sink.consume_batch(EventBatch.from_events([_event()]))
        capture.abort()
        assert store.open(digest) is None
        assert not list(tmp_path.glob("??/*"))


class TestTraceStoreByteBudget:
    """A trace that vanishes between open() and its event stream (a
    store deleted by hand mid-run): auto mode re-interprets."""

    def test_auto_replay_falls_back_when_trace_vanishes(self, tmp_path):
        # The store says hit, the event stream is gone.  auto mode
        # re-interprets; replay mode propagates the failure.
        store = TraceStore(tmp_path)
        session = Session("pi", scale=SCALE, seed=6).predictors("tournament")
        plain = session.run()
        captured = (
            Session("pi", scale=SCALE, seed=6).predictors("tournament")
            .trace(store).run()
        )
        assert captured.trace_origin == "capture"

        class VanishingStore(TraceStore):
            def open(self, digest):
                reader = super().open(digest)
                if reader is not None:
                    self.path(digest).unlink()   # evicted mid-replay
                return reader

        racing = VanishingStore(tmp_path)
        recovered = (
            Session("pi", scale=SCALE, seed=6).predictors("tournament")
            .trace(racing).run()
        )
        assert recovered.trace_origin == "capture"   # fell back, recaptured
        assert _normalized(recovered) == _normalized(plain)


class TestShardedStoreHelper:
    """The sharded layout and manifest index of the result cache, via a
    minimal text-entry subclass."""

    class TextStore(ResultCache):
        suffix = ".txt"

        def put(self, digest, text):
            self.write_entry(digest, text, meta={"note": text[:3]})

    def test_write_entry_digests_and_clear(self, tmp_path):
        store = self.TextStore(tmp_path)
        digests = [canonical_digest({"i": i}) for i in range(3)]
        for digest in digests:
            store.put(digest, f"payload-{digest[:4]}")
        assert len(store) == 3
        assert store.digests() == sorted(digests)
        prefix = digests[0][:8]
        assert store.digests(prefix) == [digests[0]]
        assert store.entry(digests[1])["note"] == "pay"
        stats = store.stats()
        assert stats["entries"] == 3
        assert store.clear() == 3
        assert len(store) == 0 and not (tmp_path / "manifest.jsonl").exists()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = self.TextStore(tmp_path)
        digest = canonical_digest({"x": 1})
        store.put(digest, "hello")
        shard = tmp_path / digest[:2]
        assert [p.name for p in shard.iterdir()] == [f"{digest}.txt"]


class TestSessionCaptureReplay:
    @pytest.mark.parametrize("pbs", [False, True])
    @pytest.mark.parametrize("timing", [False, True])
    def test_bit_identical_across_modes(self, tmp_path, pbs, timing):
        def build(with_trace):
            session = Session("pi", scale=SCALE, seed=3).predictors(
                "tournament", "tage-sc-l"
            )
            if pbs:
                session.pbs()
            if timing:
                session.timing()
            if with_trace:
                session.trace(tmp_path)
            return session

        plain = build(False).run()
        captured = build(True).run()
        replayed = build(True).run()
        assert captured.trace_origin == "capture"
        assert replayed.trace_origin == "replay"
        assert _normalized(plain) == _normalized(captured) == _normalized(replayed)

    def test_record_consumed_survives_replay(self, tmp_path):
        plain = Session("pi", scale=SCALE, seed=3).pbs().record_consumed().run()
        session = Session("pi", scale=SCALE, seed=3).pbs().record_consumed()
        session.trace(tmp_path)
        assert session.run().trace_origin == "capture"
        replayed = session.run()
        assert replayed.trace_origin == "replay"
        assert replayed.consumed_values == plain.consumed_values
        assert _normalized(plain) == _normalized(replayed)

    def test_replay_mode_raises_on_missing_trace(self, tmp_path):
        with pytest.raises(LookupError):
            Session("pi", scale=SCALE, seed=5).trace(tmp_path, mode="replay").run()

    def test_capture_mode_always_reinterprets(self, tmp_path):
        session = Session("pi", scale=SCALE, seed=5).trace(tmp_path, mode="capture")
        assert session.run().trace_origin == "capture"
        assert session.run().trace_origin == "capture"

    def test_trace_origin_never_serialized(self, tmp_path):
        result = Session("pi", scale=SCALE, seed=5).trace(tmp_path).run()
        assert result.trace_origin == "capture"
        assert "trace_origin" not in result.to_dict()
        assert "trace_origin" not in json.loads(result.to_json())


# The acceptance grid: a predictor-only sweep, >= 4 predictors x 2
# seeds on one workload.  With a trace store, each (workload, scale,
# seed, PBS-config) group must be interpreted exactly once on the local
# executors, while staying bit-identical to the no-trace-store path.
# Each group runs as one engine run whose every point reads "capture".
ACCEPTANCE_GRID = dict(
    workloads=["pi"],
    scales=(SCALE,),
    seeds=(0, 1),
    predictors=("tournament", "tage-sc-l", "gshare", "perceptron"),
    split_predictors=True,
)
ACCEPTANCE_GROUPS = 2 * 2   # seeds x modes
ACCEPTANCE_POINTS = 2 * 2 * 4  # seeds x modes x predictors


class TestSweepTracePlanning:
    @pytest.fixture(scope="class")
    def baseline(self):
        return Sweep(**ACCEPTANCE_GRID).run(executor="serial")

    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_local_executors_interpret_once_per_group(
        self, tmp_path, baseline, name
    ):
        traced = Sweep(**ACCEPTANCE_GRID, trace_dir=tmp_path).run(
            processes=2, executor=name
        )
        # One engine run per group feeds every point live, so every
        # point reads "capture" and the store holds one trace per group.
        stats = traced.to_stats()
        assert stats["trace_captures"] == ACCEPTANCE_POINTS, stats
        assert stats["trace_hits"] == 0, stats
        assert len(list(tmp_path.glob("??/*.trace"))) == ACCEPTANCE_GROUPS
        for plain, shared in zip(baseline, traced):
            assert _normalized(plain) == _normalized(shared)
        # A second sweep over the warm store replays everything.
        warm = Sweep(**ACCEPTANCE_GRID, trace_dir=tmp_path).run(executor=name)
        stats = warm.to_stats()
        assert stats["trace_captures"] == 0
        assert stats["trace_hits"] == ACCEPTANCE_POINTS
        for plain, shared in zip(baseline, warm):
            assert _normalized(plain) == _normalized(shared)

    def test_http_executor_refuses_a_trace_store(self, tmp_path):
        # Trace stores are local and never cross the wire: the
        # coordinator refuses the job before any worker runs a spec.
        coordinator = Coordinator(port=0).start()
        worker = CoordinatorWorker(coordinator.address, processes=1).start()
        try:
            assert coordinator.wait_for_workers(1, timeout=10)
            executor = HttpExecutor(coordinator=coordinator.address)
            with pytest.raises(CoordinatorError, match="trace store") as err:
                Sweep(**ACCEPTANCE_GRID, trace_dir=tmp_path / "traces").run(
                    executor=executor
                )
            assert err.value.status == 400
            assert worker.requests == 0
            assert coordinator.stats_payload()["specs_received"] == 0
        finally:
            worker.stop()
            coordinator.stop()
        assert not (tmp_path / "traces").exists()

    def test_cache_and_trace_compose(self, tmp_path):
        grid = dict(workloads=["pi"], scales=(SCALE,), seeds=(0,),
                    predictors=("tournament", "gshare"), split_predictors=True,
                    cache_dir=tmp_path / "cache", trace_dir=tmp_path / "traces")
        first = Sweep(**grid).run(executor="serial")
        # base + pbs groups, two predictors each, one capture per group.
        assert first.to_stats()["trace_captures"] == 4
        assert len(list((tmp_path / "traces").glob("??/*.trace"))) == 2
        second = Sweep(**grid).run(executor="serial")
        stats = second.to_stats()
        # Everything comes from the result cache; the trace layer idles.
        assert stats["cache_hits"] == len(second)
        assert stats["trace_captures"] == stats["trace_hits"] == 0
        for a, b in zip(first, second):
            assert _normalized(a) == _normalized(b)
