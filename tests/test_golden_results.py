"""Golden-result regression suite.

Every registered executor backend replays the checked-in canonical grid
(``tests/golden/``) and must reproduce each fixture **byte for byte**
after wall-time normalization.  The ``remote`` backend runs against an
in-process ``WorkerServer`` on localhost and the ``http`` backend
against an in-process ``Coordinator`` with one registered
``CoordinatorWorker``, so both wire protocols are under the same
bit-identical contract as the local backends.

If a fixture diff is *intentional* (simulation semantics changed),
regenerate with ``PYTHONPATH=src python -m tests.golden.regen`` and
commit the new fixtures alongside the change.
"""

import json
from dataclasses import replace

import pytest

from repro.serve import Coordinator
from repro.sim import (
    EXECUTORS,
    CoordinatorWorker,
    RunSpec,
    Sweep,
    WorkerServer,
    create_executor,
)

from .golden import (
    CFD_ORACLE_FIXTURE,
    GOLDEN_AUTOPILOTS,
    GOLDEN_DIR,
    MANIFEST_PATH,
    autopilot_sweep,
    cfd_oracle_json,
    fixture_name,
    golden_specs,
    normalized_json,
    normalized_report_json,
)


@pytest.fixture(scope="module")
def worker():
    server = WorkerServer(processes=1).start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def service():
    """A coordinator with one registered worker, for the http backend."""
    coordinator = Coordinator(port=0).start()
    worker = CoordinatorWorker(coordinator.address, processes=1).start()
    assert coordinator.wait_for_workers(1, timeout=10)
    yield coordinator
    worker.stop()
    coordinator.stop()


def _manifest():
    return json.loads(MANIFEST_PATH.read_text())


def _build(name, worker, service):
    options = {}
    if name == "remote":
        options["workers"] = [worker.address_string]
    elif name == "http":
        options["coordinator"] = service.address
    return create_executor(name, processes=2, **options)


class TestGoldenCorpus:
    def test_manifest_matches_generator(self):
        # specs.json is a faithful snapshot of golden_specs(): nobody
        # edited one side without regenerating the other.
        entries = _manifest()
        specs = golden_specs()
        assert [e["fixture"] for e in entries] == [fixture_name(s) for s in specs]
        assert [RunSpec.from_dict(e["spec"]) for e in entries] == specs

    def test_digests_are_stable(self):
        # A digest drift silently invalidates every user's warm cache;
        # it must only ever happen behind an intentional CACHE_VERSION
        # bump, which also regenerates this manifest.
        for entry in _manifest():
            assert RunSpec.from_dict(entry["spec"]).digest() == entry["digest"], (
                f"cache digest drifted for {entry['fixture']}"
            )

    def test_fixture_files_exist_and_parse(self):
        for entry in _manifest():
            path = GOLDEN_DIR / entry["fixture"]
            assert path.exists(), f"missing fixture {entry['fixture']}"
            data = json.loads(path.read_text())
            assert data["wall_time"] == 0.0  # normalized at regen time


def test_cfd_oracle_cores_reproduce_fixture():
    # The CFD ablation's queue-branch path runs outside any Session, so
    # no executor replays it; the core stats are pinned here instead.
    expected = (GOLDEN_DIR / CFD_ORACLE_FIXTURE).read_text()
    assert cfd_oracle_json() == expected


@pytest.mark.parametrize("name", sorted(EXECUTORS))
def test_executor_reproduces_golden_corpus(name, worker, service):
    entries = _manifest()
    specs = [RunSpec.from_dict(entry["spec"]) for entry in entries]
    executor = _build(name, worker, service)
    try:
        results = executor.map(specs)
    finally:
        executor.close()
    assert len(results) == len(specs)
    for entry, result in zip(entries, results):
        expected = (GOLDEN_DIR / entry["fixture"]).read_text()
        assert normalized_json(result) == expected, (
            f"executor {name!r} diverged from {entry['fixture']}"
        )


@pytest.mark.parametrize("name", sorted(EXECUTORS))
def test_capture_then_replay_reproduces_golden_corpus(name, tmp_path):
    # Every fixture must also be reproducible through the trace layer:
    # a first pass interprets + captures each spec's committed path
    # (specs sharing a trace key replay within the pass), a second pass
    # replays everything — and both passes match the fixtures byte for
    # byte.  The remote backend runs against a worker owning the store.
    entries = _manifest()
    specs = [
        replace(RunSpec.from_dict(entry["spec"]), trace_store=str(tmp_path))
        for entry in entries
    ]
    teardown = []
    if name == "remote":
        server = WorkerServer(processes=1, trace_dir=str(tmp_path)).start()
        teardown.append(server.stop)
        executor = create_executor(name, workers=[server.address_string])
    elif name == "http":
        coordinator = Coordinator(port=0).start()
        teardown.append(coordinator.stop)
        trace_worker = CoordinatorWorker(
            coordinator.address, processes=1, trace_dir=str(tmp_path)
        ).start()
        teardown.insert(0, trace_worker.stop)
        assert coordinator.wait_for_workers(1, timeout=10)
        executor = create_executor(name, coordinator=coordinator.address)
    else:
        executor = create_executor(name, processes=2)
    try:
        first = executor.map(specs)
        second = executor.map(specs)
    finally:
        executor.close()
        for hook in teardown:
            hook()
    for entry, captured, replayed in zip(entries, first, second):
        expected = (GOLDEN_DIR / entry["fixture"]).read_text()
        assert normalized_json(captured) == expected, (
            f"capture pass under {name!r} diverged from {entry['fixture']}"
        )
        assert normalized_json(replayed) == expected, (
            f"replay pass under {name!r} diverged from {entry['fixture']}"
        )
    assert all(result.trace_origin == "replay" for result in second)


@pytest.mark.parametrize("engine", ["compiled", "vector"])
@pytest.mark.parametrize("name", sorted(EXECUTORS))
def test_engine_tiers_reproduce_golden_corpus(name, engine, worker, service):
    # Execution tiers change speed, never results: the whole corpus,
    # re-run under each engine directive on every backend, must still
    # match the fixtures byte for byte.  Specs a tier cannot take (the
    # vector tier refuses PBS/sink work) fall back to the interpreter
    # inside the Session — the directive itself rides the wire.
    entries = _manifest()
    specs = [
        replace(RunSpec.from_dict(entry["spec"]), engine=engine)
        for entry in entries
    ]
    executor = _build(name, worker, service)
    try:
        results = executor.map(specs)
    finally:
        executor.close()
    for entry, result in zip(entries, results):
        expected = (GOLDEN_DIR / entry["fixture"]).read_text()
        assert normalized_json(result) == expected, (
            f"engine {engine!r} on executor {name!r} diverged "
            f"from {entry['fixture']}"
        )
    if engine == "compiled":
        # The tier annotation crosses every wire protocol intact.
        assert all(r.engine_used == "compiled" for r in results)


@pytest.mark.parametrize(
    "fixture,kwargs", GOLDEN_AUTOPILOTS, ids=[f for f, _ in GOLDEN_AUTOPILOTS]
)
@pytest.mark.parametrize("name", sorted(EXECUTORS))
def test_executor_reproduces_autopilot_fixtures(
    name, fixture, kwargs, worker, service
):
    # The adaptive driver's whole refinement trajectory — allocator
    # choices, midpoint insertions, early stops, the frontier estimate —
    # must be byte-identical on every backend: completion order on
    # parallel and remote executors must never leak into the report.
    executor = _build(name, worker, service)
    try:
        report = autopilot_sweep(kwargs).run(executor=executor)
    finally:
        executor.close()
    expected = (GOLDEN_DIR / fixture).read_text()
    assert normalized_report_json(report) == expected, (
        f"executor {name!r} diverged from {fixture}"
    )
    assert report.executor == name


def test_remote_matches_serial_on_16_point_grid(worker):
    # The acceptance grid: 16 points through a localhost repro-worker,
    # bit-identical to the in-process serial backend.
    grid = dict(workloads=["pi"], scales=(0.02,), seeds=tuple(range(8)))
    assert len(Sweep(**grid).specs()) == 16
    serial = Sweep(**grid).run(executor="serial")
    executor = _build("remote", worker, None)
    try:
        remote = Sweep(**grid).run(executor=executor)
    finally:
        executor.close()
    assert remote.to_stats()["executor"] == "remote"
    for a, b in zip(serial, remote):
        assert normalized_json(a) == normalized_json(b)
