"""Direct unit tests for the PBS hardware tables."""

from repro.core import PBSConfig, PBSEngine, ProbBTB, SwapTable

KEY_A = (100, 0, 0)
KEY_B = (200, 0, 0)
KEY_C = (300, 1, 0)


class TestProbBTB:
    def test_lookup_miss(self):
        assert KEY_A not in ProbBTB(4).entries

    def test_allocate_and_lookup(self):
        btb = ProbBTB(4)
        entry = btb.allocate(KEY_A, const_val=0.5)
        assert btb.entries[KEY_A] is entry
        assert entry.const_val == 0.5
        assert entry.record is None  # no record pulled yet

    def test_entry_valid_once_record_present(self):
        # Depth 1: the first instance's record is pulled in at once.
        engine = PBSEngine(PBSConfig(inflight_depth=1))
        transact_at(engine, 100, 0.3)
        assert engine.btb.entries[(100, -1, 0)].record == (True, [0.3])

    def test_capacity(self):
        btb = ProbBTB(2)
        assert btb.allocate(KEY_A, 0.5) is not None
        assert btb.allocate(KEY_B, 0.5) is not None
        assert btb.full
        assert btb.allocate(KEY_C, 0.5) is None

    def test_invalidate_frees_space(self):
        btb = ProbBTB(1)
        btb.allocate(KEY_A, 0.5)
        btb.invalidate(KEY_A)
        assert not btb.full
        assert KEY_A not in btb.entries

    def test_invalidate_missing_key_is_noop(self):
        ProbBTB(1).invalidate(KEY_A)  # must not raise

    def test_flush_loop_slot(self):
        btb = ProbBTB(4)
        btb.allocate(KEY_A, 0.5)   # slot 0
        btb.allocate(KEY_C, 0.5)   # slot 1
        victims = btb.flush_loop_slot(0)
        assert victims == [KEY_A]
        assert list(btb.entries) == [KEY_C]

    def test_evict_candidate_prefers_lru_outside_active_slot(self):
        btb = ProbBTB(2)
        btb.allocate(KEY_C, 0.5)
        btb.allocate(KEY_A, 0.5)  # KEY_A is the most recent use
        # Active slot 7: both entries are candidates, KEY_C is LRU.
        assert btb.evict_candidate(active_slot=7) == KEY_C
        # A hit (PBSEngine.transact) restamps an entry's last use.
        btb.use_clock += 1
        btb.entries[KEY_C].last_use = btb.use_clock
        assert btb.evict_candidate(active_slot=7) == KEY_A

    def test_evict_candidate_never_picks_active_slot(self):
        btb = ProbBTB(1)
        btb.allocate(KEY_C, 0.5)  # slot 1
        assert btb.evict_candidate(active_slot=1) is None
        assert btb.evict_candidate(active_slot=0) == KEY_C


class TestSwapTable:
    def test_zero_allocation_always_succeeds(self):
        table = SwapTable(0)
        assert table.allocate(KEY_A, 0)

    def test_capacity_enforced(self):
        table = SwapTable(2)
        assert table.allocate(KEY_A, 2)
        assert not table.allocate(KEY_B, 1)

    def test_release_returns_capacity(self):
        table = SwapTable(2)
        table.allocate(KEY_A, 2)
        table.release(KEY_A)
        assert table.free == 2
        assert table.allocate(KEY_B, 2)

    def test_release_unknown_key_is_noop(self):
        SwapTable(2).release(KEY_A)

    def test_used_accounting(self):
        table = SwapTable(4)
        table.allocate(KEY_A, 1)
        table.allocate(KEY_B, 2)
        assert table.used == 3
        assert table.free == 1


def transact_at(engine, jmp_pc, value):
    return engine.transact(jmp_pc, value < 0.5, 0.5, [value])


class TestProbInFlightTable:
    """The push and pull happen in ``PBSEngine.transact``; these tests
    drive it and read the table it fills."""

    def test_pull_requires_depth_records(self):
        engine = PBSEngine(PBSConfig(inflight_depth=3))
        key = (100, -1, 0)
        transact_at(engine, 100, 0.1)
        transact_at(engine, 100, 0.2)
        assert len(engine.inflight.queues.get(key, ())) == 2
        assert engine.btb.entries[key].record is None
        transact_at(engine, 100, 0.3)
        record = engine.btb.entries[key].record
        assert record is not None
        assert record[1] == [0.1]  # FIFO: oldest first
        assert len(engine.inflight.queues.get(key, ())) == 2

    def test_queues_are_per_key(self):
        engine = PBSEngine(PBSConfig(inflight_depth=1))
        transact_at(engine, 100, 0.1)
        transact_at(engine, 200, 0.2)
        assert engine.btb.entries[(100, -1, 0)].record[1] == [0.1]
        assert engine.btb.entries[(200, -1, 0)].record[1] == [0.2]
        assert transact_at(engine, 200, 0.3)[1] == [0.2]

    def test_release_clears_queue(self):
        engine = PBSEngine(PBSConfig(inflight_depth=2))
        key = (100, -1, 0)
        transact_at(engine, 100, 0.1)
        engine.inflight.release(key)
        assert len(engine.inflight.queues.get(key, ())) == 0
        # The next instance starts a fresh queue: no record is pulled.
        transact_at(engine, 100, 0.2)
        assert engine.btb.entries[key].record is None
