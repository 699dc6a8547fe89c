"""Tests for the pluggable Sweep executors and the sharded ResultCache."""

import json
import threading

import pytest

from repro.experiments import runner
from repro.sim import (
    ResultCache,
    RunSpec,
    SerialExecutor,
    Session,
    Sweep,
    WorkerPoolExecutor,
    create_executor,
    executor_names,
)

from .watchdog import run_watched

SCALE = 0.02


def _comparable(result):
    """A RunResult dict with the run-dependent fields stripped."""
    data = result.to_dict()
    data.pop("wall_time")
    data.pop("cached", None)
    return data


class TestExecutorRegistry:
    def test_builtin_backends_registered(self):
        assert executor_names() == ["serial", "pool", "http"]

    def test_factory_resolves_names_and_instances(self):
        assert isinstance(create_executor("serial"), SerialExecutor)
        assert isinstance(create_executor("pool", 2), WorkerPoolExecutor)
        pool = WorkerPoolExecutor(processes=2)
        assert create_executor(pool) is pool
        pool.close()

    def test_default_is_the_pool(self):
        backend = create_executor(None, processes=3)
        assert isinstance(backend, WorkerPoolExecutor)
        assert backend.processes == 3

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(KeyError) as excinfo:
            create_executor("no-such-backend")
        message = str(excinfo.value)
        assert "no-such-backend" in message
        assert "pool" in message

    def test_processes_zero_stays_serial(self):
        # Only None means "pick a width"; 0 keeps the historical
        # Sweep.run(processes=0) meaning of serial execution.
        with WorkerPoolExecutor(processes=0) as pool:
            assert pool.processes == 0
            results = pool.map(
                Sweep(workloads=["pi"], scales=(SCALE,), seeds=(0,),
                      modes=("base",)).specs()
            )
            assert len(results) == 1
            assert pool._idle == []  # serial path: no workers spawned
        assert WorkerPoolExecutor().processes >= 1  # None -> cpu count


class TestExecutorEquivalence:
    # The acceptance grid: 16 points (1 workload x 1 scale x 8 seeds x 2
    # modes), executed through every backend.
    GRID = dict(workloads=["pi"], scales=(SCALE,), seeds=tuple(range(8)))

    def test_all_backends_bit_identical_on_16_point_grid(self):
        specs = Sweep(**self.GRID).specs()
        assert len(specs) == 16
        serial = Sweep(**self.GRID).run(executor="serial")
        default = Sweep(**self.GRID).run(processes=4)
        assert default.executor == "pool"
        with WorkerPoolExecutor(processes=4) as pool:
            stolen = Sweep(**self.GRID).run(executor=pool)
        assert len(serial) == len(default) == len(stolen) == 16
        for a, b, c in zip(serial, default, stolen):
            assert _comparable(a) == _comparable(b) == _comparable(c)

    def test_on_result_fires_once_per_spec(self):
        seen = []
        results = Sweep(
            workloads=["pi"], scales=(SCALE,), seeds=(0, 1),
        ).run(on_result=lambda spec, result: seen.append(spec.digest()))
        assert len(seen) == len(results) == 4
        assert sorted(seen) == sorted(s.digest() for s in Sweep(
            workloads=["pi"], scales=(SCALE,), seeds=(0, 1),
        ).specs())

    def test_on_result_covers_cache_hits(self, tmp_path):
        grid = dict(workloads=["pi"], scales=(SCALE,), seeds=(0,),
                    cache_dir=tmp_path)
        Sweep(**grid).run()
        seen = []
        Sweep(**grid).run(on_result=lambda spec, result: seen.append(result))
        assert len(seen) == 2
        assert all(result.cached for result in seen)


class TestSweepCallbackOrder:
    """``Sweep.run`` cache hits notify first, in spec order, after run
    state exists — identically warm and cold."""

    GRID = dict(workloads=["pi"], scales=[0.01], seeds=[0, 1, 2],
                modes=["base"], predictors=[])

    def _run(self, cache_dir, **overrides):
        order = []
        grid = dict(self.GRID, cache_dir=cache_dir, **overrides)
        Sweep(**grid).run(
            executor="serial",
            on_result=lambda spec, result: order.append(
                (spec.seed, bool(result.cached))
            ),
        )
        return order

    def test_warm_and_cold_order_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = self._run(cache_dir)
        warm = self._run(cache_dir)
        assert [seed for seed, _ in cold] == [seed for seed, _ in warm]
        assert all(not cached for _, cached in cold)
        assert all(cached for _, cached in warm)

    def test_partially_warm_hits_first_in_spec_order(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        # Prime only the middle seed, then run the full grid.
        self._run(cache_dir, seeds=[1])
        order = self._run(cache_dir)
        assert order == [(1, True), (0, False), (2, False)]

    def test_raising_callback_leaves_no_partial_state(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._run(cache_dir)  # warm everything

        def boom(spec, result):
            raise RuntimeError("observer exploded")

        with pytest.raises(RuntimeError, match="observer exploded"):
            Sweep(**dict(self.GRID, cache_dir=cache_dir)).run(
                executor="serial", on_result=boom
            )
        # The cache is untouched and a clean run still works.
        order = self._run(cache_dir)
        assert all(cached for _, cached in order)


class TestWorkerPoolExecutor:
    GRID = dict(workloads=["pi"], scales=(SCALE,), seeds=(0, 1))

    def test_pool_reused_across_two_sweep_runs(self):
        with WorkerPoolExecutor(processes=2) as executor:
            first = Sweep(**self.GRID).run(executor=executor)
            live = _worker_pids(executor)
            assert len(live) == 2
            second = Sweep(
                workloads=["pi"], scales=(SCALE,), seeds=(2, 3),
            ).run(executor=executor)
            # Same worker processes served both batches — no respawn.
            assert _worker_pids(executor) == live
            assert executor.batches == 2
            assert executor.dispatched == executor.completed == 8
            assert executor.requeued == 0
        assert executor._idle == []  # context exit closed it
        assert len(first) == len(second) == 4
        assert _comparable(first.results[0]) == _comparable(
            Sweep(**self.GRID).run(executor="serial").results[0]
        )

    def test_completion_order_callback_and_spec_order_results(self):
        specs = Sweep(**self.GRID).specs()
        completions = []
        with WorkerPoolExecutor(processes=2) as executor:
            results = executor.map(
                specs,
                on_result=lambda i, spec, result: completions.append(i),
            )
        assert sorted(completions) == list(range(len(specs)))
        for spec, result in zip(specs, results):
            assert result.seed == spec.seed
            assert result.pbs == (spec.mode == "pbs")

    def test_callback_error_keeps_pool_alive(self):
        # A parent-side on_result failure (e.g. cache disk full) must
        # not terminate a healthy pool: only worker errors do.
        def explode(index, spec, result):
            raise OSError("no space left on device")

        with WorkerPoolExecutor(processes=2) as executor:
            specs = Sweep(**self.GRID).specs()
            with pytest.raises(OSError):
                executor.map(specs, on_result=explode)
            # The worker that delivered is idle and alive; only workers
            # still busy with the failed batch were stopped.
            assert _worker_pids(executor)
            results = executor.map(specs)  # and the pool is still usable
            assert len(results) == len(specs)
            for spec, result in zip(specs, results):
                assert (result.seed, result.pbs) == (spec.seed, spec.mode == "pbs")

    def test_worker_exception_tears_down_pool(self):
        executor = WorkerPoolExecutor(processes=2)
        bad = [
            RunSpec(workload="pi", scale=0.5, seed=0),  # still running...
            RunSpec(workload="no-such-workload", scale=SCALE, seed=1),
        ]
        with pytest.raises(KeyError):
            executor.map(bad)
        # ... when the other spec raised: its worker was stopped, so no
        # stale reply can leak into the next map().  The worker that
        # raised is healthy and stays.
        assert len(_worker_pids(executor)) == 1
        good = executor.map([RunSpec(workload="pi", scale=SCALE, seed=3)])
        assert [r.seed for r in good] == [3]
        executor.close()


class TestPoolSurvivesKilledWorkers:
    """A worker killed outright (SIGKILL, OOM kill) never hangs the pool.
    Each scenario runs under a watchdog, so a hang fails the test."""

    def test_sigkilled_worker_mid_grid_completes_bit_identically(self):
        outcome = run_watched("""
            import multiprocessing, json, os, signal
            from repro.sim import Sweep, WorkerPoolExecutor

            GRID = dict(workloads=["pi"], scales=(0.02,), seeds=tuple(range(8)))
            killed = []

            def kill_workers(spec, result):
                # On the first result: one worker has just gone idle and
                # the other is mid-spec.  SIGKILL both.
                if not killed:
                    for child in multiprocessing.active_children():
                        os.kill(child.pid, signal.SIGKILL)
                        killed.append(child.pid)

            with WorkerPoolExecutor(processes=2) as pool:
                pooled = Sweep(**GRID).run(executor=pool, on_result=kill_workers)
                requeued = pool.requeued
            serial = Sweep(**GRID).run(executor="serial")

            def comparable(result):
                data = result.to_dict()
                data.pop("wall_time")
                data.pop("cached", None)
                return data

            print(json.dumps({
                "killed": len(killed),
                "requeued": requeued,
                "identical": list(map(comparable, pooled))
                == list(map(comparable, serial)),
                "left": len(multiprocessing.active_children()),
            }))
        """)
        assert outcome["killed"] == 2
        assert outcome["requeued"] >= 1
        assert outcome["identical"]
        assert outcome["left"] == 0  # close() reaped the replacements

    def test_spec_that_kills_every_worker_raises_after_three_attempts(self):
        outcome = run_watched("""
            import json, os, signal
            from repro.sim import RunSpec, WorkerPoolExecutor, executors

            execute_spec = executors._execute_spec

            def fatal(spec):
                if spec.seed == 13:  # this spec kills whichever worker runs it
                    os.kill(os.getpid(), signal.SIGKILL)
                return execute_spec(spec)

            executors._execute_spec = fatal  # before any worker forks
            pool = WorkerPoolExecutor(processes=2)
            specs = [RunSpec(workload="pi", scale=0.02, seed=seed)
                     for seed in (0, 13, 1)]
            try:
                pool.map(specs)
                error = None
            except Exception as exc:
                error = exc
            executors._execute_spec = execute_spec
            after = pool.map([RunSpec(workload="pi", scale=0.02, seed=2)])
            requeued = pool.requeued
            pool.close()

            from repro.sim import WorkerDiedError

            print(json.dumps({
                "typed": isinstance(error, WorkerDiedError),
                "message": str(error),
                "requeued": requeued,
                "after": [result.seed for result in after],
            }))
        """)
        assert outcome["typed"], outcome["message"]
        assert "all 3 attempts" in outcome["message"]
        assert outcome["requeued"] == 2  # attempts 2 and 3
        assert outcome["after"] == [2]  # the executor still works

    def test_workers_exit_when_their_driver_is_sigkilled(self):
        outcome = run_watched("""
            import json, subprocess, sys, time

            DRIVER = '''
            import time
            from repro.sim import RunSpec, WorkerPoolExecutor
            pool = WorkerPoolExecutor(processes=2)
            pool.map([RunSpec(workload="pi", scale=0.02, seed=seed)
                      for seed in (0, 1)])
            print(*(process.pid for process, _ in pool._idle), flush=True)
            time.sleep(600)
            '''

            def state(pid):
                # An unreaped zombie still answers os.kill(pid, 0): read
                # its state instead.  No entry means it was reaped.
                try:
                    with open(f"/proc/{pid}/status") as status:
                        for line in status:
                            if line.startswith("State:"):
                                return line.split()[1]
                except FileNotFoundError:
                    return "gone"

            driver = subprocess.Popen(
                [sys.executable, "-c", DRIVER],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            workers = [int(pid) for pid in driver.stdout.readline().split()]
            driver.kill()
            driver.wait()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                states = [state(pid) for pid in workers]
                if all(s in ("Z", "gone") for s in states):
                    break
                time.sleep(0.1)
            print(json.dumps({"workers": len(workers), "states": states}))
        """)
        assert outcome["workers"] == 2
        assert all(s in ("Z", "gone") for s in outcome["states"]), outcome


def _worker_pids(executor):
    """Pids of the pool's live idle workers (all of them between maps)."""
    return {process.pid for process, _ in executor._idle if process.is_alive()}


def _result(seed=1):
    return Session("pi", scale=SCALE, seed=seed).run()


class TestShardedCache:
    def test_sharded_layout_and_index(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(workload="pi", scale=SCALE, seed=1)
        cache.put(spec.digest(), _result())
        digest = spec.digest()
        assert (tmp_path / digest[:2] / f"{digest}.json").exists()
        assert (tmp_path / "manifest.jsonl").exists()
        assert len(cache) == 1
        assert digest in cache
        assert cache.digests(prefix=digest[:4]) == [digest]
        stats = cache.stats()
        assert stats["entries"] == stats["shards"] == 1
        assert stats["by_workload"] == {"pi": 1}

    def test_corrupt_entry_is_a_miss_and_resimulates(self, tmp_path):
        grid = dict(workloads=["pi"], scales=(SCALE,), seeds=(1,),
                    cache_dir=tmp_path)
        first = Sweep(**grid).run()
        assert first.simulated == 2
        # Truncate one entry mid-JSON, as a crashed writer would.
        digest = Sweep(**grid).specs()[0].digest()
        path = ResultCache(tmp_path).path(digest)
        path.write_text(path.read_text()[:40])
        again = Sweep(**grid).run()
        assert (again.simulated, again.cache_hits) == (1, 1)
        # The re-simulation healed the entry.
        healed = Sweep(**grid).run()
        assert (healed.simulated, healed.cache_hits) == (0, 2)

    def test_racing_writers_on_one_digest(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = RunSpec(workload="pi", scale=SCALE, seed=1).digest()
        result = _result()
        errors = []

        def writer():
            try:
                for _ in range(20):
                    ResultCache(tmp_path).put(digest, result)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # A fresh view sees exactly one intact entry, despite duplicate
        # manifest appends from the racing writers.
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 1
        assert fresh.get(digest).to_json() == result.to_json()
        assert not list(tmp_path.glob("*/.*.tmp"))  # no stray temp files

    def test_flat_v1_cache_migrates_in_place(self, tmp_path):
        # Lay a cache out the way the flat v1 format did: one
        # <digest>.json directly in the root, no manifest.
        sweep = Sweep(workloads=["pi"], scales=(SCALE,), seeds=(1, 2, 3),
                      modes=("base",), cache_dir=tmp_path)
        digests = [spec.digest() for spec in sweep.specs()]
        for spec, digest in zip(sweep.specs(), digests):
            result = spec.session().run()
            (tmp_path / f"{digest}.json").write_text(result.to_json())
        (tmp_path / "notes.json").write_text("{}")  # non-digest: untouched

        cache = ResultCache(tmp_path)
        assert len(cache) == 3
        for digest in digests:
            assert not (tmp_path / f"{digest}.json").exists()
            assert cache.path(digest).exists()
            assert cache.get(digest).cached
        assert (tmp_path / "notes.json").exists()
        # Migration recovers run metadata from the stored JSON, so the
        # manifest index isn't left with bare digests.
        assert cache.stats()["by_workload"] == {"pi": 3}
        # Migrated caches keep hitting: same digests, zero re-simulation.
        assert sweep.run().simulated == 0

    def test_manifest_rebuilt_from_shards_when_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = RunSpec(workload="pi", scale=SCALE, seed=1).digest()
        cache.put(digest, _result())
        (tmp_path / "manifest.jsonl").unlink()
        rebuilt = ResultCache(tmp_path)
        assert len(rebuilt) == 1
        assert (tmp_path / "manifest.jsonl").exists()

    def test_clear_removes_entries_shards_and_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = RunSpec(workload="pi", scale=SCALE, seed=1).digest()
        cache.put(digest, _result())
        assert cache.clear() == 1
        assert len(cache) == 0
        assert not list(tmp_path.iterdir())


class TestStatsJsonCLI:
    def test_second_sweep_reports_zero_simulated(self, tmp_path):
        base = [
            "sweep", "--workloads", "pi", "--scales", str(SCALE),
            "--seeds", "0,1", "--modes", "base",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        first_stats = tmp_path / "first.json"
        second_stats = tmp_path / "second.json"
        assert runner.main(
            base + ["--processes", "2",
                    "--stats-json", str(first_stats)]
        ) == 0
        assert runner.main(base + ["--stats-json", str(second_stats)]) == 0
        first = json.loads(first_stats.read_text())
        second = json.loads(second_stats.read_text())
        assert first["specs"] == second["specs"] == 2
        assert (first["simulated"], first["cache_hits"]) == (2, 0)
        assert (second["simulated"], second["cache_hits"]) == (0, 2)
        assert first["executor"] == "pool"
        assert second["executor"] is None  # nothing ran: all cache hits
        assert second["wall_time"] >= 0

    def test_stats_to_stdout_rejects_json_combination(self, capsys):
        with pytest.raises(SystemExit):
            runner.main([
                "sweep", "--workloads", "pi", "--scales", str(SCALE),
                "--seeds", "0", "--cache-dir", "",
                "--stats-json", "-", "--json",
            ])
        assert "--stats-json" in capsys.readouterr().err
