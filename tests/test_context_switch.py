"""Tests for PBS context-switch save/restore (§V-C2) and CPI stacks."""

import pytest

from repro.core import PBSEngine
from repro.branch import AlwaysNotTaken, PerfectPredictor
from repro.isa import Op, OpClass
from repro.pipeline import OoOCore, four_wide

from .events import Row, batch_of


def group(value, pc=100, const=0.5):
    """``transact``'s arguments for one group: (jmp_pc, cond, const, values)."""
    return pc, value < const, const, [value]


def mode(engine, args) -> str:
    """Run one transaction and name its ``PBSStats`` category: ``"hit"``
    when it returns a record, ``"boot"`` when it counted a bootstrap,
    ``"regular"`` otherwise."""
    bootstraps = engine.stats.bootstraps
    if engine.transact(*args) is not None:
        return "hit"
    return "boot" if engine.stats.bootstraps > bootstraps else "regular"


class TestContextSwitch:
    def warm_engine(self):
        engine = PBSEngine()
        for step in range(10):
            engine.transact(*group(0.05 * (step + 1)))
        return engine

    def test_save_restore_resumes_without_bootstrap(self):
        engine = self.warm_engine()
        snapshot = engine.save_state()
        engine.reset()
        engine.restore_state(snapshot)
        assert mode(engine, group(0.9)) == "hit"

    def test_reset_without_restore_rebootstraps(self):
        engine = self.warm_engine()
        engine.save_state()
        engine.reset()
        assert mode(engine, group(0.9)) == "boot"

    def test_restore_preserves_replay_order(self):
        engine = PBSEngine()
        values = [0.01 * (i + 1) for i in range(12)]
        replayed = []
        for index, value in enumerate(values):
            if index == 6:
                snapshot = engine.save_state()
                engine.reset()
                engine.restore_state(snapshot)
            record = engine.transact(*group(value))
            if record is not None:
                replayed.append(record[1][0])
        # With depth 4 (+1 pre-loop instance handling not present here),
        # the replay sequence is exactly the generated sequence shifted.
        assert replayed == values[: len(replayed)]

    def test_restore_preserves_blacklist(self):
        engine = PBSEngine()
        engine.transact(*group(0.1))
        engine.transact(100, True, 0.7, [0.1])  # mismatch
        snapshot = engine.save_state()
        engine.reset()
        engine.restore_state(snapshot)
        assert mode(engine, group(0.2)) == "regular"

    def test_snapshot_immune_to_later_execution(self):
        """Regression: save_state used to hand out live table references,
        so running the engine after a save corrupted the snapshot unless
        the caller remembered to reset() immediately."""
        engine = self.warm_engine()
        snapshot = engine.save_state()
        # Keep executing on a *different* value stream after the save.
        for step in range(20):
            engine.transact(*group(0.9 - 0.01 * step))
        engine.reset()
        engine.restore_state(snapshot)
        record = engine.transact(*group(0.9))
        assert record is not None
        # The replayed value comes from the pre-snapshot stream (depth-4
        # lag over 0.05*(step+1)), not from the post-save mutations.
        assert record[1] == [0.05 * 7]

    def test_snapshot_restorable_repeatedly(self):
        engine = self.warm_engine()
        snapshot = engine.save_state()
        for _ in range(2):
            engine.reset()
            engine.restore_state(snapshot)
            assert mode(engine, group(0.9)) == "hit"

    def test_restore_preserves_context_table(self):
        engine = PBSEngine()
        engine.observe_branch(pc=50, taken=True, target=10)
        snapshot = engine.save_state()
        engine.reset()
        engine.restore_state(snapshot)
        assert engine.context.active_slot >= 0


class TestCpiStack:
    def branch_event(self, taken=True):
        return Row(
            10, Op.BLT, OpClass.BRANCH, -1, (),
            is_cond_branch=True, taken=taken, target=0, next_pc=0,
        )

    def alu_event(self, pc=0):
        return Row(pc, Op.ADD, OpClass.IALU, 1, (), next_pc=pc + 1)

    def run_core(self, predictor, rounds, *per_round):
        """Feed ``rounds`` repetitions of ``per_round`` events as one
        batch; returns the finalized stats."""
        events = [event for _ in range(rounds) for event in per_round]
        core = OoOCore(four_wide(), predictor)
        core.consume_batch(batch_of(events))
        return core.finalize()

    def test_branch_component_tracks_mispredictions(self):
        stats = self.run_core(
            AlwaysNotTaken(), 500,
            self.branch_event(taken=True),  # always mispredicted
            *(self.alu_event(pc) for pc in range(3)),
        )
        stack = stats.cpi_stack(width=4)
        assert stack["branch"] > 1.0
        assert stack["branch"] > stack["other"]

    def test_no_branch_component_without_mispredicts(self):
        stats = self.run_core(
            PerfectPredictor(), 500, self.branch_event(), self.alu_event()
        )
        assert stats.cpi_stack(width=4)["branch"] == 0.0

    def test_components_sum_to_total_cpi(self):
        stats = self.run_core(
            AlwaysNotTaken(), 300,
            self.branch_event(taken=True), self.alu_event(),
        )
        stack = stats.cpi_stack(width=4)
        total = stats.cycles / stats.instructions
        assert sum(stack.values()) == pytest.approx(total, rel=0.02)

    def test_empty_stack(self):
        core = OoOCore(four_wide(), PerfectPredictor())
        stats = core.finalize()
        assert stats.cpi_stack() == {"base": 0.0, "branch": 0.0, "other": 0.0}
