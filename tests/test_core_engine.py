"""Tests for the PBS engine: bootstrap, replay, safety, capacity."""

import copy

import pytest

from repro.core import PBSConfig, PBSEngine, hardware_cost


def group(jmp_pc=100, value=0.25, const=0.5, cmp_op="lt", extra_values=()):
    """``transact``'s arguments for one group: (jmp_pc, cond, const, values)."""
    values = [value] + list(extra_values)
    cond = value < const if cmp_op == "lt" else value >= const
    return jmp_pc, cond, const, values


def mode(eng, args) -> str:
    """Run one transaction and name its ``PBSStats`` category: ``"hit"``
    when it returns a record, ``"boot"`` when it counted a bootstrap,
    ``"regular"`` otherwise."""
    bootstraps = eng.stats.bootstraps
    if eng.transact(*args) is not None:
        return "hit"
    return "boot" if eng.stats.bootstraps > bootstraps else "regular"


def engine(**kwargs) -> PBSEngine:
    return PBSEngine(PBSConfig(**kwargs))


class TestBootstrapAndReplay:
    def test_first_depth_instances_bootstrap(self):
        eng = engine(inflight_depth=4)
        for i in range(4):
            assert mode(eng, group(value=0.1 * (i + 1))) == "boot"
        assert eng.stats.bootstraps == 4

    def test_steady_state_hits(self):
        eng = engine(inflight_depth=4)
        for i in range(4):
            eng.transact(*group(value=0.1 * (i + 1)))
        assert mode(eng, group(value=0.9)) == "hit"
        assert eng.stats.hits == 1

    def test_replay_lag_is_inflight_depth(self):
        """Instance i must replay the values of instance i - depth."""
        depth = 4
        eng = engine(inflight_depth=depth)
        values = [0.01 * (i + 1) for i in range(20)]
        replayed = []
        for value in values:
            record = eng.transact(*group(value=value))
            if record is not None:
                replayed.append(record[1][0])
        assert replayed == values[: len(values) - depth]

    def test_replayed_direction_matches_replayed_value(self):
        """The PBS correctness rule: a value that evaluated taken steers
        taken when replayed (constant comparison within the context)."""
        eng = engine(inflight_depth=2)
        values = [0.9, 0.1, 0.7, 0.2, 0.3, 0.8]
        for value in values:
            record = eng.transact(*group(value=value, const=0.5, cmp_op="lt"))
            if record is not None:
                taken, swap_values = record
                assert taken == (swap_values[0] < 0.5)

    def test_hit_returns_the_record_pushed_depth_instances_earlier(self):
        depth = 3
        eng = engine(inflight_depth=depth)
        pushed, returned = [], []
        for i in range(depth + 3):
            args = group(value=0.1 * (i + 1))
            returned.append(eng.transact(*args))
            record = eng.inflight.queues[(100, -1, 0)][-1]
            assert record[1] is args[3]  # the caller's list, not a copy
            pushed.append(record)
        assert returned[:depth] == [None] * depth
        for i in range(depth, len(returned)):
            assert returned[i] is pushed[i - depth]

    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_bootstrap_count_equals_depth(self, depth):
        eng = engine(inflight_depth=depth)
        for i in range(depth + 10):
            eng.transact(*group(value=0.01 * (i + 1)))
        assert eng.stats.bootstraps == depth
        assert eng.stats.hits == 10


class TestCategory2:
    def test_extra_values_swapped(self):
        eng = engine(inflight_depth=1)
        eng.transact(*group(value=0.1, extra_values=(1.5,)))
        record = eng.transact(*group(value=0.2, extra_values=(2.5,)))
        assert record is not None
        assert record[1] == [0.1, 1.5]

    def test_value_count_cap(self):
        eng = engine(max_values_per_branch=2)
        assert mode(eng, group(extra_values=(1.0, 2.0))) == "regular"  # 3 values
        assert eng.stats.value_count_rejects == 1

    def test_swap_table_capacity(self):
        # One swap entry total: the second two-value branch cannot allocate.
        eng = engine(swap_entries=1)
        assert mode(eng, group(jmp_pc=100, extra_values=(1.0,))) == "boot"
        assert mode(eng, group(jmp_pc=200, extra_values=(2.0,))) == "regular"
        assert eng.stats.swap_rejects == 1


class TestConstValSafety:
    def test_mismatch_falls_back_to_regular(self):
        eng = engine(inflight_depth=1)
        eng.transact(*group(const=0.5))
        assert mode(eng, group(const=0.6)) == "regular"
        assert eng.stats.const_mismatches == 1

    def test_mismatch_blacklists_until_context_flush(self):
        eng = engine(inflight_depth=1)
        eng.transact(*group(const=0.5))
        eng.transact(*group(const=0.6))
        # Even the original constant is now refused inside this context.
        assert mode(eng, group(const=0.5)) == "regular"

    def test_no_blacklist_when_disabled(self):
        eng = engine(inflight_depth=1, blacklist_on_const_mismatch=False)
        eng.transact(*group(const=0.5))
        eng.transact(*group(const=0.6))
        # Re-allocates with the new constant and bootstraps again.
        assert mode(eng, group(const=0.6)) == "boot"

    def test_decision_still_correct_on_fallback(self):
        # A fallback returns no record, so the branch follows its own
        # condition.
        eng = engine(inflight_depth=1)
        eng.transact(*group(const=0.5))
        jmp_pc, cond, const, values = group(value=0.55, const=0.6)
        assert eng.transact(jmp_pc, cond, const, values) is None
        assert cond is True  # 0.55 < 0.6


class TestContextIntegration:
    def test_loop_termination_rebootstraps(self):
        eng = engine(inflight_depth=2)
        # Enter a loop: backward taken branch.
        eng.observe_branch(pc=50, taken=True, target=10)
        for i in range(5):
            eng.transact(*group(value=0.1 * (i + 1)))
            eng.observe_branch(pc=50, taken=True, target=10)
        assert eng.stats.hits == 3
        # Loop exits; entries for it are flushed.
        eng.observe_branch(pc=50, taken=False, target=10)
        assert eng.stats.loop_flushes >= 1
        # Re-enter: bootstrap starts over.
        eng.observe_branch(pc=50, taken=True, target=10)
        assert mode(eng, group(value=0.9)) == "boot"

    def test_deep_function_call_rejected(self):
        eng = engine()
        eng.observe_branch(pc=50, taken=True, target=10)
        eng.observe_call(pc=20)
        eng.observe_call(pc=21)
        assert mode(eng, group()) == "regular"
        assert eng.stats.deep_call_rejects == 1

    def test_single_function_call_tracked(self):
        eng = engine(inflight_depth=1)
        eng.observe_branch(pc=50, taken=True, target=10)
        eng.observe_call(pc=20)
        assert mode(eng, group()) == "boot"
        assert mode(eng, group()) == "hit"

    def test_distinct_call_sites_distinct_entries(self):
        eng = engine(inflight_depth=1)
        eng.observe_branch(pc=50, taken=True, target=10)
        eng.observe_call(pc=20)
        eng.transact(*group(value=0.11))
        eng.observe_return(pc=30)
        eng.observe_call(pc=25)
        # Different call site: a separate entry, still bootstrapping.
        assert mode(eng, group(value=0.22)) == "boot"
        assert eng.stats.allocations == 2

    def test_context_support_disabled_uses_pc_only(self):
        eng = engine(inflight_depth=1, context_support=False)
        eng.observe_branch(pc=50, taken=True, target=10)
        eng.transact(*group())
        eng.observe_branch(pc=50, taken=False, target=10)  # would flush
        assert mode(eng, group()) == "hit"


class TestCapacity:
    def test_distinct_branches_tracked_up_to_capacity(self):
        eng = engine(num_branches=2, inflight_depth=1)
        assert mode(eng, group(jmp_pc=100)) == "boot"
        assert mode(eng, group(jmp_pc=200)) == "boot"
        assert mode(eng, group(jmp_pc=100)) == "hit"
        assert mode(eng, group(jmp_pc=200)) == "hit"

    def test_full_table_rejects_same_context_overflow(self):
        eng = engine(num_branches=2, inflight_depth=1)
        eng.observe_branch(pc=50, taken=True, target=10)  # active loop
        eng.transact(*group(jmp_pc=100))
        eng.transact(*group(jmp_pc=200))
        assert mode(eng, group(jmp_pc=300)) == "regular"
        assert eng.stats.capacity_rejects == 1

    def test_full_table_evicts_stale_context_first(self):
        eng = engine(num_branches=2, inflight_depth=1)
        # Two entries allocated outside any loop (slot -1).
        eng.transact(*group(jmp_pc=100))
        eng.transact(*group(jmp_pc=200))
        # Enter a loop; the no-loop context is flushed, so the new branch
        # allocates cleanly.
        eng.observe_branch(pc=50, taken=True, target=10)
        assert mode(eng, group(jmp_pc=300)) == "boot"
        assert eng.stats.capacity_rejects == 0

    def test_hit_makes_an_entry_most_recently_used(self):
        eng = engine(num_branches=2, inflight_depth=1)
        eng.observe_branch(pc=90, taken=True, target=5)      # outer
        outer = eng.context.active_slot
        eng.transact(*group(jmp_pc=100))
        eng.transact(*group(jmp_pc=200))
        assert mode(eng, group(jmp_pc=100)) == "hit"
        # In an inner loop both entries are stale-context candidates; the
        # one not hit since its allocation is the least recently used.
        eng.observe_branch(pc=50, taken=True, target=30)     # inner
        inner = eng.context.active_slot
        assert mode(eng, group(jmp_pc=300)) == "boot"
        assert sorted(eng.btb.keys()) == [(100, outer, 0), (300, inner, 0)]


class TestHardwareCost:
    def test_paper_cost_is_193_bytes(self):
        report = hardware_cost(PBSConfig())
        assert report.total_bytes == 193.0
        assert report.within_budget

    def test_breakdown_matches_paper(self):
        report = hardware_cost(PBSConfig())
        assert report.items["prob-btb"] == 4 * 219
        assert report.items["swap-table"] == 4 * 60
        assert report.items["prob-in-flight"] == 16 * 8
        assert report.items["context-table"] == 300

    def test_cost_scales_with_entries(self):
        small = hardware_cost(PBSConfig()).total_bits
        big = hardware_cost(PBSConfig(num_branches=8)).total_bits
        assert big > small


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_branches": 0},
            {"inflight_depth": 0},
            {"max_values_per_branch": 0},
            {"context_entries": 0},
        ],
    )
    def test_rejects_degenerate_sizes(self, kwargs):
        with pytest.raises(ValueError):
            PBSConfig(**kwargs)


class TestReset:
    def test_reset_restores_cold_state(self):
        eng = engine(inflight_depth=1)
        eng.observe_branch(pc=50, taken=True, target=10)
        eng.transact(*group())
        eng.transact(*group())
        eng.reset()
        assert eng.stats.instances == 0
        assert mode(eng, group()) == "boot"


class TestCachedActiveSlot:
    """The fused ``transact`` keys branches by the context table's cached
    active slot; these paths change which slot that is."""

    def test_save_restore_round_trip_keeps_executing(self):
        eng = engine(inflight_depth=2)
        reference = engine(inflight_depth=2)
        for e in (eng, reference):
            e.observe_branch(pc=90, taken=True, target=5)    # outer
            e.observe_branch(pc=50, taken=True, target=30)   # inner
            for i in range(3):
                e.transact(*group(value=0.1 * (i + 1)))
        snapshot = eng.save_state()
        # The inner loop ends (flushing its branch), then the state from
        # before that is restored.
        eng.observe_branch(pc=50, taken=False, target=30)
        eng.transact(*group(value=0.5))
        eng.restore_state(snapshot)
        eng.stats = copy.deepcopy(reference.stats)
        inner = reference.context.active_slot
        assert eng.context.active_slot == inner
        for i in range(4):
            value = 0.05 * (i + 1)
            got, want = eng.transact(*group(value=value)), reference.transact(
                *group(value=value))
            assert got == want
        assert eng.btb.keys() == reference.btb.keys() == [(100, inner, 0)]
        assert eng.stats.as_dict() == reference.stats.as_dict()

    def test_reset_with_a_loop_active(self):
        eng = engine(inflight_depth=1)
        eng.observe_branch(pc=50, taken=True, target=10)
        eng.observe_call(pc=20)
        eng.observe_call(pc=21)
        eng.reset()
        assert eng.context.active_slot == -1
        assert mode(eng, group()) == "boot"
        assert eng.btb.keys() == [(100, -1, 0)]

    def test_eviction_of_the_older_slot_rekeys_branches(self):
        eng = engine(inflight_depth=1)
        eng.observe_branch(pc=90, taken=True, target=5)
        first = eng.context.active_slot
        eng.transact(*group())
        eng.observe_branch(pc=50, taken=True, target=30)
        eng.transact(*group())
        eng.observe_branch(pc=70, taken=True, target=60)     # evicts first
        assert eng.context.evictions == 1
        assert eng.context.active_slot == first
        # The evicted loop's entry went with it; the new loop reuses its
        # slot number but starts a fresh context.
        assert mode(eng, group()) == "boot"
        assert sorted(eng.btb.keys()) == sorted(
            [(100, first, 0), (100, 1 - first, 0)])
        assert eng.stats.loop_flushes == 1

    def test_deep_call_reject_then_return_reenables_tracking(self):
        eng = engine(inflight_depth=1)
        eng.observe_branch(pc=50, taken=True, target=10)
        slot = eng.context.active_slot
        eng.observe_call(pc=20)
        eng.observe_call(pc=21)
        assert mode(eng, group()) == "regular"
        assert eng.stats.deep_call_rejects == 1
        eng.observe_return(pc=30)
        assert mode(eng, group()) == "boot"
        assert mode(eng, group()) == "hit"
        assert eng.btb.keys() == [(100, slot, 20)]
        eng.observe_return(pc=31)
        assert mode(eng, group()) == "boot"  # back in the loop body
        assert eng.stats.deep_call_rejects == 1

    def test_const_val_blacklist_dies_with_its_loop_slot(self):
        eng = engine(inflight_depth=1)
        eng.observe_branch(pc=90, taken=True, target=5)      # outer
        eng.transact(*group(jmp_pc=200))
        eng.observe_branch(pc=50, taken=True, target=30)     # inner
        inner = eng.context.active_slot
        eng.transact(*group(const=0.5))
        eng.transact(*group(const=0.6))                       # blacklisted
        assert mode(eng, group(const=0.5)) == "regular"
        eng.observe_branch(pc=50, taken=False, target=30)    # inner ends
        assert (100, inner, 0) not in eng._blacklist
        assert eng.btb.keys() == [(200, 1 - inner, 0)]
        eng.observe_branch(pc=50, taken=True, target=30)     # re-entered
        assert eng.context.active_slot == inner
        assert mode(eng, group(const=0.5)) == "boot"

    def test_context_support_off_keys_by_pc_alone(self):
        eng = engine(inflight_depth=1, context_support=False)
        eng.observe_branch(pc=90, taken=True, target=5)
        eng.observe_call(pc=20)
        eng.observe_call(pc=21)
        assert mode(eng, group()) == "boot"
        assert mode(eng, group()) == "hit"
        assert eng.btb.keys() == [(100, -1, 0)]
        assert eng.context.active_slot == -1
        assert eng.context.loops_detected == 0
        assert eng.stats.deep_call_rejects == 0
