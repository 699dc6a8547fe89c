"""Tests for the worker side of distributed sweeps: the wire protocol's
frame codec, the RunSpec wire encoding, coordinator address parsing,
and the failure paths a worker can cause behind the coordinator — a
worker that answers with a broken frame, a spec that fails on every
attempt, a worker speaking another cache version."""

import json
import socket
import threading

import pytest

from repro.serve import Coordinator
from repro.serve.client import DEFAULT_PORT, parse_coordinator_address
from repro.sim import (
    CoordinatorWorker,
    HttpExecutor,
    ProtocolError,
    RunSpec,
    Sweep,
    decode_frame,
    encode_frame,
)
from repro.sim.cache import CACHE_VERSION
from repro.sim.remote import PROTOCOL_VERSION, _FatalWorkerError, _read_frame

SCALE = 0.02


def _grid(seeds=(0, 1)):
    return dict(workloads=["pi"], scales=(SCALE,), seeds=tuple(seeds))


def _comparable(result):
    data = result.to_dict()
    data.pop("wall_time")
    data.pop("cached", None)
    return data


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip(self):
        message = {"type": "run", "id": 7, "spec": {"workload": "pi"}}
        assert decode_frame(encode_frame(message)) == message

    def test_frame_is_one_ascii_line(self):
        raw = encode_frame({"type": "x", "text": "päivää\nline2"})
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1  # embedded newline was escaped
        raw.decode("ascii")  # no raw non-ASCII bytes on the wire

    def test_truncated_frame_rejected(self):
        raw = encode_frame({"type": "result", "id": 1})
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame(raw[:-1])  # terminator gone

    def test_corrupt_json_rejected(self):
        with pytest.raises(ProtocolError, match="corrupt"):
            decode_frame(b'{"type": "res\n')

    def test_untyped_message_rejected(self):
        with pytest.raises(ProtocolError, match="type"):
            decode_frame(b'{"id": 3}\n')
        with pytest.raises(ProtocolError, match="type"):
            decode_frame(b'[1, 2]\n')

    def test_oversized_frame_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.sim.remote.MAX_FRAME_BYTES", 64)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"type": "run", "blob": "x" * 100})
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(b'{"type": "run", "blob": "' + b"x" * 100 + b'"}\n')

    def test_parse_address(self):
        assert parse_coordinator_address("10.0.0.5:7341") == ("10.0.0.5", 7341)
        assert parse_coordinator_address(("host", 9)) == ("host", 9)
        assert parse_coordinator_address("host") == ("host", DEFAULT_PORT)
        with pytest.raises(ValueError, match="bad coordinator address"):
            parse_coordinator_address("host:not-a-port")

    def test_parse_address_forgives_whitespace(self):
        # "a:1, b:2".split(",") leaves " b:2" — must not become a host
        # literally named " b".
        assert parse_coordinator_address(" hostB:7350 ") == ("hostB", 7350)
        assert parse_coordinator_address((" hostB ", 7350)) == ("hostB", 7350)


class TestRunSpecWireCodec:
    def test_roundtrip_preserves_digest(self):
        spec = RunSpec(
            workload="pi", scale=SCALE, seed=3, mode="pbs",
            predictors=("tournament", "tage-sc-l"),
            harness_options={"filter_probabilistic": True},
            pbs_config={"num_branches": 2},
        )
        wired = json.loads(json.dumps(spec.to_dict()))
        rebuilt = RunSpec.from_dict(wired)
        assert rebuilt == spec
        assert rebuilt.digest() == spec.digest()

    def test_unknown_field_rejected(self):
        data = RunSpec(workload="pi").to_dict()
        data["from_the_future"] = 1
        with pytest.raises(TypeError):
            RunSpec.from_dict(data)


# ----------------------------------------------------------------------
# Failure paths behind the coordinator.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    coordinator = Coordinator(port=0).start()
    worker = CoordinatorWorker(coordinator.address, processes=1).start()
    assert coordinator.wait_for_workers(1, timeout=10)
    yield coordinator
    worker.stop()
    coordinator.stop()


class TestFailurePaths:
    def test_cache_version_mismatch_is_a_clean_error(self, service):
        # A worker that would compute different spec digests is refused
        # at registration instead of polluting the fleet's caches.
        with pytest.raises(_FatalWorkerError, match="registration rejected"):
            CoordinatorWorker(service.address, cache_version=999).start()

    @pytest.mark.parametrize("betrayal", [
        pytest.param(
            lambda run_id: b'{"type": "result", "id"', id="truncated-bytes",
        ),
        pytest.param(
            lambda run_id: encode_frame({"type": "result", "id": run_id}),
            id="well-formed-json-malformed-payload",
        ),
        pytest.param(
            lambda run_id: encode_frame(
                {"type": "result", "id": run_id, "result": "not-a-dict"}
            ),
            id="result-payload-wrong-type",
        ),
    ])
    def test_bad_frame_from_worker_retries_elsewhere(self, betrayal):
        # An "evil" worker registers first (so it is leased the first
        # spec), answers that spec with a broken frame and vanishes.
        # The coordinator must requeue it and finish the job on the
        # good worker, bit-identical to serial.
        coordinator = Coordinator(port=0).start()
        evil = socket.create_connection(coordinator.address, timeout=30)
        rfile = evil.makefile("rb")
        evil.sendall(encode_frame({
            "type": "register", "protocol": PROTOCOL_VERSION,
            "cache_version": CACHE_VERSION, "processes": 1, "name": "evil",
        }))
        assert _read_frame(rfile)["type"] == "registered"

        def betray():
            run = _read_frame(rfile)  # the first leased spec
            evil.sendall(betrayal(run["id"]))
            evil.shutdown(socket.SHUT_RDWR)
            rfile.close()
            evil.close()

        thread = threading.Thread(target=betray, daemon=True)
        thread.start()
        good = CoordinatorWorker(
            coordinator.address, processes=1, name="good"
        ).start()
        try:
            assert coordinator.wait_for_workers(2, timeout=10)
            executor = HttpExecutor(coordinator=coordinator.address)
            over_http = Sweep(**_grid(range(4))).run(executor=executor)
        finally:
            good.stop()
            coordinator.stop()
        thread.join(timeout=5)
        assert not thread.is_alive()
        serial = Sweep(**_grid(range(4))).run(executor="serial")
        assert [_comparable(r) for r in over_http] == \
            [_comparable(r) for r in serial]
        assert coordinator.requeues >= 1
        (telemetry,) = executor.telemetry.values()
        assert telemetry["failures"] == 0
        assert telemetry["completed"] == 8

    def test_deterministically_failing_spec_aborts_batch(self, service):
        # A spec that fails on every worker is failed back after the
        # coordinator's max_attempts, carrying the worker's own error.
        executor = HttpExecutor(coordinator=service.address)
        good = RunSpec(workload="pi", scale=SCALE, seed=0)
        bad = RunSpec(
            workload="pi", scale=SCALE, seed=1,
            predictors=("no-such-predictor",),
        )
        with pytest.raises(
            RuntimeError,
            match=r"1/2 specs failed.*after 3 attempts.*no-such-predictor",
        ):
            executor.map([good, bad])
