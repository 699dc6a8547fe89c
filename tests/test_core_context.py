"""Tests for the Context-Table (loop detection, termination, calls)."""

from repro.core import ContextTable


def make_table(flushes=None, **kwargs):
    flushes = flushes if flushes is not None else []
    return ContextTable(on_flush=flushes.append, **kwargs), flushes


def active_entry(table):
    """The entry of the active loop (the context of a branch met now)."""
    return table.slots[table.active_slot]


class TestLoopDetection:
    def test_no_loop_initially(self):
        table, _ = make_table()
        assert table.active_slot == -1

    def test_taken_backward_branch_allocates_loop(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        assert table.active_slot >= 0
        assert active_entry(table).function_pc == 0
        assert table.loops_detected == 1

    def test_forward_branch_ignored(self):
        table, _ = make_table()
        table.observe_branch(pc=10, taken=True, target=50)
        assert table.active_slot == -1

    def test_not_taken_backward_branch_without_entry_ignored(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=False, target=10)
        assert table.active_slot == -1

    def test_last_pc_grows_with_larger_backward_branch(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        table.observe_branch(pc=60, taken=True, target=10)  # same loop
        entry = active_entry(table)
        assert entry.last_pc == 60
        assert table.loops_detected == 1

    def test_first_loop_flushes_no_loop_context(self):
        table, flushes = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        assert flushes == [-1]


class TestLoopTermination:
    def test_not_taken_backward_at_last_pc_terminates(self):
        table, flushes = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        slot = table.active_slot
        table.observe_branch(pc=50, taken=False, target=10)
        assert table.active_slot == -1
        assert slot in flushes
        assert table.loops_terminated == 1

    def test_not_taken_before_last_pc_does_not_terminate(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        table.observe_branch(pc=60, taken=True, target=10)  # last_pc = 60
        # An early-exit backward branch below last_pc (e.g. a continue).
        table.observe_branch(pc=50, taken=False, target=10)
        assert table.active_slot >= 0

    def test_reexecution_is_a_new_context(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        first = active_entry(table).sequence
        table.observe_branch(pc=50, taken=False, target=10)
        table.observe_branch(pc=50, taken=True, target=10)
        second = active_entry(table).sequence
        assert second > first

    def test_older_termination_erases_both(self):
        table, flushes = make_table()
        table.observe_branch(pc=90, taken=True, target=5)    # outer
        table.observe_branch(pc=50, taken=True, target=30)   # inner
        # Outer (older) terminates while inner entry still live.
        table.observe_branch(pc=90, taken=False, target=5)
        assert table.active_slot == -1
        assert table.loops_terminated == 2
        assert len(flushes) >= 2


class TestNestedLoops:
    def test_inner_loop_becomes_active(self):
        table, _ = make_table()
        table.observe_branch(pc=90, taken=True, target=5)    # outer
        outer_slot = table.active_slot
        table.observe_branch(pc=50, taken=True, target=30)   # inner
        inner_slot = table.active_slot
        assert inner_slot != outer_slot

    def test_inner_termination_restores_outer(self):
        table, _ = make_table()
        table.observe_branch(pc=90, taken=True, target=5)
        outer_slot = table.active_slot
        table.observe_branch(pc=50, taken=True, target=30)
        table.observe_branch(pc=50, taken=False, target=30)
        assert table.active_slot == outer_slot

    def test_third_loop_evicts_oldest(self):
        table, flushes = make_table(entries=2)
        table.observe_branch(pc=90, taken=True, target=5)
        oldest_slot = table.active_slot
        table.observe_branch(pc=50, taken=True, target=30)
        table.observe_branch(pc=70, taken=True, target=60)
        assert table.evictions == 1
        assert oldest_slot in flushes


class TestFunctionCalls:
    def setup_loop(self):
        table, flushes = make_table()
        table.observe_branch(pc=90, taken=True, target=5)
        return table, flushes

    def test_call_within_loop_sets_function_pc(self):
        table, _ = self.setup_loop()
        table.observe_call(pc=42)
        assert active_entry(table).function_pc == 42

    def test_return_clears_function_pc(self):
        table, _ = self.setup_loop()
        table.observe_call(pc=42)
        table.observe_return(pc=99)
        assert active_entry(table).function_pc == 0

    def test_depth_two_untracked(self):
        table, _ = self.setup_loop()
        table.observe_call(pc=42)
        table.observe_call(pc=43)
        # PBSEngine.transact rejects a branch met this deep.
        assert active_entry(table).counter == 2 > table.max_function_depth

    def test_depth_recovers_after_inner_return(self):
        table, _ = self.setup_loop()
        table.observe_call(pc=42)
        table.observe_call(pc=43)
        table.observe_return(pc=99)
        entry = active_entry(table)
        assert (entry.counter, entry.function_pc) == (1, 42)

    def test_calls_without_loop_ignored(self):
        table, _ = make_table()
        table.observe_call(pc=42)
        assert table.active_slot == -1

    def test_different_call_sites_distinct_contexts(self):
        table, _ = self.setup_loop()
        table.observe_call(pc=42)
        first = active_entry(table).function_pc
        table.observe_return(pc=99)
        table.observe_call(pc=77)
        second = active_entry(table).function_pc
        assert first != second


class TestReset:
    def test_reset_clears_everything(self):
        table, flushes = make_table()
        table.observe_branch(pc=90, taken=True, target=5)
        table.reset()
        assert table.active_slot == -1
        assert all(slot is None for slot in table.slots)


def newest_live_slot(table):
    """The active slot by definition: the live slot allocated last."""
    live = [(entry.sequence, index) for index, entry in enumerate(table.slots)
            if entry is not None]
    return max(live)[1] if live else -1


class TestCachedActiveSlot:
    """``active_slot`` is cached, not rescanned: every way the slots
    change must leave it on the newest live slot."""

    def test_tracks_allocation_and_termination(self):
        table, _ = make_table()
        for pc, taken, target in ((90, True, 5), (50, True, 30),
                                  (50, False, 30), (70, True, 60),
                                  (70, False, 60), (90, False, 5)):
            table.observe_branch(pc=pc, taken=taken, target=target)
            assert table.active_slot == newest_live_slot(table)
        assert table.active_slot == -1

    def test_snapshot_restore_round_trip_keeps_executing(self):
        table, flushes = make_table()
        table.observe_branch(pc=90, taken=True, target=5)    # outer
        table.observe_branch(pc=50, taken=True, target=30)   # inner
        inner = table.active_slot
        snapshot = table.snapshot()
        table.observe_branch(pc=50, taken=False, target=30)  # inner ends
        assert table.active_slot != inner
        table.restore(snapshot)
        assert table.active_slot == inner
        # The restored table keeps tracking from the restored state.
        table.observe_call(pc=42)
        assert active_entry(table).function_pc == 42
        table.observe_return(pc=99)
        table.observe_branch(pc=50, taken=False, target=30)
        assert table.active_slot == newest_live_slot(table) != inner
        # Restoring an empty snapshot leaves no loop live: the next loop
        # ends the "no loop" context again.
        empty, _ = make_table()
        table.restore(empty.snapshot())
        assert table.active_slot == -1
        del flushes[:]
        table.observe_branch(pc=90, taken=True, target=5)
        assert flushes == [-1]
        assert table.active_slot == newest_live_slot(table) >= 0

    def test_reset_with_a_loop_active(self):
        table, flushes = make_table()
        table.observe_branch(pc=90, taken=True, target=5)
        table.observe_branch(pc=50, taken=True, target=30)
        table.observe_call(pc=42)
        table.reset()
        assert table.active_slot == -1
        table.observe_call(pc=43)  # no loop: ignored
        assert table.active_slot == -1
        del flushes[:]
        table.observe_branch(pc=70, taken=True, target=60)
        assert flushes == [-1]
        assert table.active_slot == newest_live_slot(table)
        assert active_entry(table).function_pc == 0

    def test_eviction_of_the_older_slot(self):
        table, flushes = make_table(entries=2)
        table.observe_branch(pc=90, taken=True, target=5)
        oldest = table.active_slot
        table.observe_branch(pc=50, taken=True, target=30)
        middle = table.active_slot
        table.observe_branch(pc=70, taken=True, target=60)   # evicts oldest
        assert table.evictions == 1
        assert flushes[-1] == oldest
        assert table.active_slot == oldest == newest_live_slot(table)
        # The evicting loop ends: the middle loop is active again.
        table.observe_branch(pc=70, taken=False, target=60)
        assert table.active_slot == middle
        # The next two loops evict the middle one while it is not the
        # active slot.
        table.observe_branch(pc=80, taken=True, target=75)
        newest = table.active_slot
        table.observe_branch(pc=95, taken=True, target=85)   # evicts middle
        assert flushes[-1] == middle
        assert table.active_slot == newest_live_slot(table) != newest

    def test_single_entry_table_replaces_its_only_loop(self):
        table, flushes = make_table(entries=1)
        table.observe_branch(pc=90, taken=True, target=5)
        table.observe_branch(pc=50, taken=True, target=30)
        assert table.evictions == 1
        assert table.active_slot == 0
        assert table.slots[0].loop_pc == 30
