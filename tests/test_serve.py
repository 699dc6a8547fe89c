"""Tests for the sweep-as-a-service coordinator (``repro.serve``).

Covers the HTTP/JSON API surface, the worker-registration plane, lease
expiry and reschedule after a worker dies mid-grid, identical-spec
dedupe across concurrent submissions, the server-side result cache,
bearer-token auth on both planes, and the ``http`` executor end to end
— including the acceptance grid (16 points, two workers, one killed
mid-grid, bit-identical to serial).
"""

import json
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import Coordinator, CoordinatorClient, CoordinatorError
from repro.sim import CoordinatorWorker, HttpExecutor, Sweep
from repro.sim.remote import (
    CACHE_VERSION,
    PROTOCOL_VERSION,
    _FatalWorkerError,
    _read_frame,
    decode_frame,
    encode_frame,
)

from .watchdog import run_watched

SCALE = 0.02
TOKEN = "open-sesame"


def _grid(seeds=range(8)):
    return dict(workloads=["pi"], scales=(SCALE,), seeds=tuple(seeds))


def _comparable(result):
    data = result.to_dict()
    data.pop("wall_time")
    data.pop("cached", None)
    return data


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One token-protected coordinator (with a server-side result cache)
    plus one registered worker, shared across this module's tests;
    assertions on counters use before/after deltas."""
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    coordinator = Coordinator(
        port=0, token=TOKEN, cache_dir=str(cache_dir)
    ).start()
    worker = CoordinatorWorker(
        coordinator.address, processes=2, token=TOKEN, name="svc"
    ).start()
    assert coordinator.wait_for_workers(1, timeout=10)
    yield coordinator
    worker.stop()
    coordinator.stop()


@pytest.fixture
def client(service):
    return CoordinatorClient(service.address, token=TOKEN)


# ----------------------------------------------------------------------
# The HTTP/JSON API surface.
# ----------------------------------------------------------------------
class TestHttpApi:
    def test_healthz_is_open_and_versioned(self, service):
        # healthz is the probe endpoint: no token required even when
        # the rest of the API is gated.
        health = CoordinatorClient(service.address, token=None).healthz()
        assert health["ok"] is True
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["cache_version"] == CACHE_VERSION
        assert health["workers"] >= 1

    def test_workers_endpoint_describes_registrations(self, client):
        workers = client.workers()
        assert any(w["name"].startswith("svc-") for w in workers)
        link = workers[0]
        assert link["processes"] == 2
        assert link["capacity"] == 4
        assert link["draining"] is False

    def test_missing_token_is_401(self, service):
        anonymous = CoordinatorClient(service.address, token=None)
        with pytest.raises(CoordinatorError) as excinfo:
            anonymous.workers()
        assert excinfo.value.status == 401

    def test_bad_token_is_401(self, service):
        wrong = CoordinatorClient(service.address, token="guess")
        with pytest.raises(CoordinatorError) as excinfo:
            wrong.stats()
        assert excinfo.value.status == 401

    def test_unknown_job_is_404(self, client):
        with pytest.raises(CoordinatorError) as excinfo:
            client.status("j999999")
        assert excinfo.value.status == 404

    def test_unknown_path_is_404(self, client):
        with pytest.raises(CoordinatorError) as excinfo:
            client._request("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(CoordinatorError) as excinfo:
            client._request("POST", "/v1/workers", {"x": 1})
        assert excinfo.value.status == 405

    @pytest.mark.parametrize("payload", [
        {},                                        # neither specs nor sweep
        {"specs": []},                             # empty batch
        {"specs": [{"workload": "pi"}], "sweep": {}},  # both
        {"sweep": {"bogus_field": 1}},             # unknown grid field
        {"sweep": {"workloads": ["no-such-workload"]}},
        {"specs": [{"workload": "no-such-workload"}]},
        {"specs": [{"workload": "pi", "mystery": 3}]},  # undecodable spec
    ])
    def test_bad_submissions_are_400(self, client, payload):
        with pytest.raises(CoordinatorError) as excinfo:
            client._request("POST", "/v1/sweeps", payload)
        assert excinfo.value.status == 400

    def test_non_http_garbage_gets_a_400(self, service):
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.makefile("rb").read()
        assert b"400" in reply.split(b"\r\n", 1)[0]

    def test_submit_poll_and_status_roundtrip(self, service, client):
        # Server-side grid expansion plus the non-streaming poll path.
        submitted = client.submit(sweep=dict(
            workloads=["pi"], scales=[SCALE], seeds=[0], modes=["base"],
        ))
        assert submitted["specs"] == 1
        job = submitted["job"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            snapshot = client.results(job)
            if snapshot["done"]:
                break
            time.sleep(0.05)
        assert snapshot["done"] is True
        assert snapshot["completed"] == 1
        assert snapshot["failures"] == 0
        entries = snapshot["entries"]
        assert [entry["index"] for entry in entries] == [0]
        assert entries[0]["result"]["workload"] == "pi"
        status = client.status(job)
        assert status["job"] == job
        assert status["done"] is True

    def test_stats_exposes_scheduler_counters(self, client):
        stats = client.stats()
        for key in (
            "jobs_submitted", "specs_received", "simulated", "cache_hits",
            "worker_cache_hits", "deduped", "requeues", "pending",
            "active", "workers",
        ):
            assert isinstance(stats[key], int), key


# ----------------------------------------------------------------------
# The worker registration plane.
# ----------------------------------------------------------------------
class TestWorkerPlane:
    def test_bad_worker_token_is_refused(self, service):
        with pytest.raises(_FatalWorkerError, match="unauthorized"):
            CoordinatorWorker(service.address, token="guess").start()

    def test_version_mismatch_is_refused(self, service):
        with pytest.raises(_FatalWorkerError, match="protocol"):
            CoordinatorWorker(
                service.address, token=TOKEN,
                protocol_version=PROTOCOL_VERSION + 1,
            ).start()

    def test_protocol_2_worker_is_refused(self, service):
        # Protocol 2 workers still park specs and wait for trace
        # frames, which no coordinator sends any more.
        with pytest.raises(_FatalWorkerError, match="worker sent 2"):
            CoordinatorWorker(
                service.address, token=TOKEN, protocol_version=2,
            ).start()

    def test_non_register_first_frame_is_an_error(self, service):
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.sendall(encode_frame({"type": "heartbeat"}))
            reply = decode_frame(sock.makefile("rb").readline())
        assert reply["type"] == "error"
        assert "register" in reply["message"]

    def test_draining_worker_gets_no_new_specs(self, service, client):
        # A second worker that immediately drains must never be picked.
        extra = CoordinatorWorker(
            service.address, processes=2, token=TOKEN, name="drainer"
        ).start()
        assert service.wait_for_workers(2, timeout=10)
        try:
            assert extra.drain(timeout=10) is True
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if len(client.workers()) == 1:
                    break
                time.sleep(0.05)
            assert len(client.workers()) == 1
        finally:
            extra.stop()


# ----------------------------------------------------------------------
# End to end through the "http" executor.
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_acceptance_grid_survives_worker_death(self):
        # The ISSUE's tier-1 E2E: coordinator + two auto-registered
        # workers run the 16-point golden grid; one worker is killed
        # mid-grid (fail_after severs its socket with specs leased) and
        # the grid still completes, bit-identical to serial.
        grid = _grid()
        assert len(Sweep(**grid).specs()) == 16
        coordinator = Coordinator(port=0).start()
        good = CoordinatorWorker(
            coordinator.address, processes=2, name="good"
        ).start()
        doomed = CoordinatorWorker(
            coordinator.address, processes=2, name="doomed", fail_after=3
        ).start()
        assert coordinator.wait_for_workers(2, timeout=10)
        executor = HttpExecutor(coordinator=coordinator.address)
        try:
            over_http = Sweep(**grid).run(executor=executor)
        finally:
            good.stop()
            doomed.stop()
            coordinator.stop()
        serial = Sweep(**grid).run(executor="serial")
        assert [_comparable(a) for a in over_http] == \
            [_comparable(b) for b in serial]
        assert doomed.stopped.is_set()          # the hook really tripped
        assert coordinator.requeues >= 1        # leased specs rescheduled
        assert coordinator.simulated == 16
        telemetry = next(iter(executor.telemetry.values()))
        assert telemetry["specs"] == 16
        assert telemetry["failures"] == 0

    def test_sink_batches_cross_the_wire(self):
        # The result frame carries each run's batch count, so an http
        # sweep's --stats-json reports what its workers delivered, the
        # same count a serial sweep reports.
        grid = dict(_grid(seeds=[0]), predictors=("tournament",))
        coordinator = Coordinator(port=0).start()
        worker = CoordinatorWorker(coordinator.address, processes=1).start()
        try:
            assert coordinator.wait_for_workers(1, timeout=10)
            executor = HttpExecutor(coordinator=coordinator.address)
            stats = Sweep(**grid).run(executor=executor).to_stats()
        finally:
            worker.stop()
            coordinator.stop()
        assert stats["specs"] == stats["simulated"] == 2
        assert stats["sink_batches"] > 0, stats
        serial = Sweep(**grid).run(executor="serial").to_stats()
        assert stats["sink_batches"] == serial["sink_batches"]

    def test_worker_survives_a_killed_simulation_process(self):
        # One worker with two simulation processes; both are SIGKILLed
        # mid-grid.  The dead slot answers an error frame, the
        # coordinator requeues the spec, and the sweep completes.  Under
        # a watchdog: a worker that kept heartbeating a lost spec would
        # hang the sweep for good.
        outcome = run_watched("""
            import json, multiprocessing, os, signal
            from repro.serve import Coordinator
            from repro.sim import CoordinatorWorker, HttpExecutor, Sweep

            GRID = dict(workloads=["pi"], scales=(0.02,), seeds=tuple(range(4)))
            coordinator = Coordinator(port=0).start()
            worker = CoordinatorWorker(coordinator.address, processes=2).start()
            assert coordinator.wait_for_workers(1, timeout=10)
            killed = []

            def kill_simulations(spec, result):
                if not killed:  # the worker's pool processes: our children
                    for child in multiprocessing.active_children():
                        os.kill(child.pid, signal.SIGKILL)
                        killed.append(child.pid)

            over_http = Sweep(**GRID).run(
                executor=HttpExecutor(coordinator=coordinator.address),
                on_result=kill_simulations,
            )
            worker.stop()
            coordinator.stop()
            serial = Sweep(**GRID).run(executor="serial")

            def comparable(result):
                data = result.to_dict()
                data.pop("wall_time")
                data.pop("cached", None)
                return data

            print(json.dumps({
                "killed": len(killed),
                "requeues": coordinator.requeues,
                "simulated": coordinator.simulated,
                "identical": list(map(comparable, over_http))
                == list(map(comparable, serial)),
                "left": len(multiprocessing.active_children()),
            }))
        """)
        assert outcome["killed"] == 2
        assert outcome["requeues"] >= 1
        assert outcome["simulated"] == 8
        assert outcome["identical"]
        assert outcome["left"] == 0  # stop() closed the worker's pool

    def test_concurrent_identical_submissions_simulate_once(self, service):
        # Two clients race the same 16-point grid through one
        # coordinator: in-flight dedupe (plus the server cache for any
        # straggler) must keep total simulations at exactly 16, and
        # both clients get bit-identical results.
        grid = _grid(seeds=range(100, 108))
        before = service.stats_payload()
        barrier = threading.Barrier(2)
        outcomes = [None, None]

        def submit(slot):
            executor = HttpExecutor(coordinator=service.address, token=TOKEN)
            barrier.wait()
            outcomes[slot] = Sweep(**grid).run(executor=executor)

        threads = [
            threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert all(outcome is not None for outcome in outcomes)
        after = service.stats_payload()
        assert after["simulated"] - before["simulated"] == 16
        assert after["deduped"] - before["deduped"] >= 1
        first = [_comparable(r) for r in outcomes[0]]
        second = [_comparable(r) for r in outcomes[1]]
        assert first == second
        serial = [_comparable(r) for r in Sweep(**grid).run(executor="serial")]
        assert first == serial

    def test_server_cache_answers_repeat_jobs(self, service):
        grid = _grid(seeds=range(200, 202))  # 4 specs
        executor = HttpExecutor(coordinator=service.address, token=TOKEN)
        cold = Sweep(**grid).run(executor=executor)
        before = service.stats_payload()
        warm = Sweep(**grid).run(executor=executor)
        after = service.stats_payload()
        assert after["cache_hits"] - before["cache_hits"] == 4
        assert after["simulated"] == before["simulated"]
        assert [_comparable(r) for r in warm] == [_comparable(r) for r in cold]
        assert all(result.cached for result in warm)
        telemetry = next(iter(executor.telemetry.values()))
        assert telemetry["cache_hits"] == 4

    def test_empty_batch_returns_empty(self):
        # An empty batch submits no job, so no coordinator is contacted.
        assert HttpExecutor(coordinator="127.0.0.1:1").map([]) == []

    def test_worker_cache_answers_second_batch(self, tmp_path):
        # Without a coordinator-side cache, a repeat batch reaches the
        # worker again, which answers it from its own result cache.
        coordinator = Coordinator(port=0).start()
        worker = CoordinatorWorker(
            coordinator.address, processes=1, cache_dir=str(tmp_path)
        ).start()
        assert coordinator.wait_for_workers(1, timeout=10)
        executor = HttpExecutor(coordinator=coordinator.address)
        specs = Sweep(**_grid(seeds=(0, 1))).specs()
        try:
            first = executor.map(specs)
            (cold,) = executor.telemetry.values()
            second = executor.map(specs)
            (warm,) = executor.telemetry.values()
        finally:
            worker.stop()
            coordinator.stop()
        assert cold["worker_cache_hits"] == 0
        assert warm["worker_cache_hits"] == len(specs)
        assert all(result.cached for result in second)
        assert [_comparable(a) for a in first] == \
            [_comparable(b) for b in second]

    def test_lease_expiry_reschedules_a_silent_worker(self):
        # A worker that registers, accepts specs, then goes silent must
        # lose its leases; a healthy worker finishes the job.
        coordinator = Coordinator(port=0, lease_seconds=0.5).start()
        silent = socket.create_connection(coordinator.address, timeout=5)
        silent_reader = silent.makefile("rb")
        silent.sendall(encode_frame({
            "type": "register", "protocol": PROTOCOL_VERSION,
            "cache_version": CACHE_VERSION, "processes": 1,
            "name": "silent",
        }))
        registered = _read_frame(silent_reader)
        assert registered["type"] == "registered"
        try:
            executor = HttpExecutor(coordinator=coordinator.address)
            done = [None]

            def run():
                done[0] = Sweep(**_grid(seeds=(0, 1))).run(executor=executor)

            thread = threading.Thread(target=run)
            thread.start()
            # Give the scheduler a moment to lease specs to the silent
            # worker, then bring up a real one to absorb the requeues.
            time.sleep(0.2)
            healthy = CoordinatorWorker(
                coordinator.address, processes=2, name="healthy"
            ).start()
            thread.join(timeout=300)
            assert done[0] is not None and len(done[0]) == 4
            assert coordinator.requeues >= 1
            serial = Sweep(**_grid(seeds=(0, 1))).run(executor="serial")
            assert [_comparable(a) for a in done[0]] == \
                [_comparable(b) for b in serial]
            healthy.stop()
        finally:
            silent.close()
            coordinator.stop()


# ----------------------------------------------------------------------
# The CLI: pbs-experiments sweep --executor http, and graceful worker
# shutdown under SIGTERM.
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_sweep_via_coordinator_flag(self, service, tmp_path, capsys):
        from repro.experiments import runner

        stats_path = tmp_path / "stats.json"
        code = runner.main([
            "sweep", "--workloads", "pi", "--scales", str(SCALE),
            "--seeds", "300,301", "--modes", "base",
            "--executor", "http",
            "--coordinator", f"{service.address[0]}:{service.address[1]}",
            "--token", TOKEN,
            "--cache-dir", "", "--progress",
            "--stats-json", str(stats_path),
        ])
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["specs"] == 2
        assert stats["executor"] == "http"
        label = f"coordinator:{service.address[0]}:{service.address[1]}"
        assert label in stats["workers"]
        assert stats["workers"][label]["specs"] == 2
        err = capsys.readouterr().err
        assert f"[{label}]" in err  # telemetry line under --progress

    def test_coordinator_flag_requires_http_executor(self, service):
        from repro.experiments import runner

        with pytest.raises(SystemExit, match="--coordinator"):
            runner.main([
                "sweep", "--workloads", "pi", "--seeds", "0",
                "--modes", "base", "--cache-dir", "",
                "--executor", "serial",
                "--coordinator", "127.0.0.1:1",
            ])

    def test_http_without_coordinator_is_a_clean_error(self, monkeypatch):
        from repro.experiments import runner
        from repro.serve.client import COORDINATOR_ENV

        monkeypatch.delenv(COORDINATOR_ENV, raising=False)
        with pytest.raises(SystemExit, match=COORDINATOR_ENV):
            runner.main([
                "sweep", "--workloads", "pi", "--seeds", "0",
                "--modes", "base", "--cache-dir", "",
                "--executor", "http",
            ])


def _spawn_worker(extra_args):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.sim.remote"] + extra_args,
        stderr=subprocess.PIPE, text=True,
    )
    # Skip interpreter noise (e.g. runpy warnings) until the banner.
    for _ in range(10):
        banner = process.stderr.readline()
        if not banner or "repro-worker" in banner:
            break
    return process, banner


class TestGracefulShutdown:
    def test_sigterm_drains_inflight_specs(self):
        # A repro-worker that receives SIGTERM with specs in flight
        # finishes what it is executing, flushes those results, and
        # exits 0.  Pipelined frames it will not run are answered with
        # a "draining" error, which the coordinator requeues — so a
        # second worker completes the grid with nothing lost.
        coordinator = Coordinator(port=0).start()
        host, port = coordinator.address
        process, banner = _spawn_worker(
            ["--coordinator", f"{host}:{port}", "--name", "cli"]
        )
        backup = None
        try:
            assert "registered with" in banner
            assert coordinator.wait_for_workers(1, timeout=10)
            executor = HttpExecutor(coordinator=coordinator.address)
            done = [None]

            def run():
                done[0] = Sweep(**_grid(seeds=range(10))).run(executor=executor)

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            deadline = time.monotonic() + 60
            while coordinator.simulated < 1 and time.monotonic() < deadline:
                time.sleep(0.01)  # a spec or two deep into the batch
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
            assert "draining" in process.stderr.read()
            backup = CoordinatorWorker(
                coordinator.address, processes=2, name="backup"
            ).start()
            thread.join(timeout=300)
        finally:
            process.kill()
            process.stderr.close()
            if backup is not None:
                backup.stop()
            coordinator.stop()
        assert done[0] is not None and len(done[0]) == 20
        serial = Sweep(**_grid(seeds=range(10))).run(executor="serial")
        assert [_comparable(a) for a in done[0]] == \
            [_comparable(b) for b in serial]
        (telemetry,) = executor.telemetry.values()
        assert telemetry["failures"] == 0

    def test_sigterm_drains_coordinator_mode(self):
        coordinator = Coordinator(port=0).start()
        host, port = coordinator.address
        process, banner = _spawn_worker(
            ["--coordinator", f"{host}:{port}", "--name", "cli"]
        )
        try:
            assert "registered with" in banner
            assert coordinator.wait_for_workers(1, timeout=10)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
            assert "draining" in process.stderr.read()
        finally:
            process.kill()
            process.stderr.close()
            coordinator.stop()
