"""Golden-result regression suite.

Every registered executor backend replays the checked-in canonical grid
(``tests/golden/``) and must reproduce each fixture **byte for byte**
after wall-time normalization.  The ``http`` backend runs against an
in-process ``Coordinator`` with one registered ``CoordinatorWorker``
running two simulation processes, so the HTTP API, the worker wire
protocol and the daemon's process pool are under the same
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
    create_executor,
)

from .golden import (
    CFD_ORACLE_FIXTURE,
    GOLDEN_DIR,
    MANIFEST_PATH,
    cfd_oracle_json,
    fixture_name,
    golden_specs,
    normalized_json,
)


@pytest.fixture(scope="module")
def service():
    """A coordinator with one registered worker, for the http backend.
    The worker runs two simulation processes, so the corpus replays
    through the daemon's process pool."""
    coordinator = Coordinator(port=0).start()
    worker = CoordinatorWorker(coordinator.address, processes=2).start()
    assert coordinator.wait_for_workers(1, timeout=10)
    yield coordinator
    worker.stop()
    coordinator.stop()


def _manifest():
    return json.loads(MANIFEST_PATH.read_text())


def _build(name, service):
    options = {"coordinator": service.address} if name == "http" else {}
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
def test_executor_reproduces_golden_corpus(name, service):
    entries = _manifest()
    specs = [RunSpec.from_dict(entry["spec"]) for entry in entries]
    executor = _build(name, service)
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


@pytest.mark.parametrize("name", sorted(set(EXECUTORS) - {"http"}))
def test_capture_then_replay_reproduces_golden_corpus(name, tmp_path):
    # Every fixture must also be reproducible through the trace layer:
    # a first pass interprets + captures each trace group's committed
    # path, a second pass replays everything — and both passes match
    # the fixtures byte for byte.  Trace stores are local, so http (which
    # refuses them) has no case here.
    entries = _manifest()
    specs = [
        replace(RunSpec.from_dict(entry["spec"]), trace_store=str(tmp_path))
        for entry in entries
    ]
    executor = create_executor(name, processes=2)
    try:
        first = executor.map(specs)
        second = executor.map(specs)
    finally:
        executor.close()
    for entry, captured, replayed in zip(entries, first, second):
        expected = (GOLDEN_DIR / entry["fixture"]).read_text()
        assert normalized_json(captured) == expected, (
            f"capture pass under {name!r} diverged from {entry['fixture']}"
        )
        assert normalized_json(replayed) == expected, (
            f"replay pass under {name!r} diverged from {entry['fixture']}"
        )
    assert all(result.trace_origin == "replay" for result in second)


@pytest.mark.parametrize("engine", ["compiled", "interp"])
@pytest.mark.parametrize("name", sorted(EXECUTORS))
def test_engine_tiers_reproduce_golden_corpus(name, engine, service):
    # Execution tiers change speed, never results: the whole corpus,
    # re-run under each engine directive on every backend, must still
    # match the fixtures byte for byte.  The directive itself rides the
    # wire, and every tier runs every spec — the default one and the
    # reference interpreter alike.
    entries = _manifest()
    specs = [
        replace(RunSpec.from_dict(entry["spec"]), engine=engine)
        for entry in entries
    ]
    executor = _build(name, service)
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
    # The tier annotation crosses every wire protocol intact.
    assert all(r.engine_used == engine for r in results)


def test_http_matches_serial_on_16_point_grid(service):
    # The acceptance grid: 16 points through a localhost coordinator and
    # its registered repro-worker, bit-identical to the in-process
    # serial backend.
    grid = dict(workloads=["pi"], scales=(0.02,), seeds=tuple(range(8)))
    assert len(Sweep(**grid).specs()) == 16
    serial = Sweep(**grid).run(executor="serial")
    executor = _build("http", service)
    try:
        over_http = Sweep(**grid).run(executor=executor)
    finally:
        executor.close()
    assert over_http.to_stats()["executor"] == "http"
    for a, b in zip(serial, over_http):
        assert normalized_json(a) == normalized_json(b)
