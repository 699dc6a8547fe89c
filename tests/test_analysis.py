"""Tests for repro.analysis: the pass registry, the built-in passes over
synthetic and real streams, and the live `analyze` CLI — including the
golden-locked guarantee that the mispredicts pass reproduces a
Session's predictor counters bit-identically, and that a live run feeds
every pass exactly what a replay of its captured trace does."""

import contextlib
import io
import json
import math

import pytest

from repro.analysis import (
    AnalysisPass,
    analysis_names,
    create_analysis,
    direction_entropy,
    register_analysis,
    resolve_passes,
)
from repro.analysis.base import ANALYSES
from repro.functional.trace import ProbMode
from repro.isa.opcodes import OP_CLASS, Op
from repro.sim import RunResult, Session
from repro.sim.session import FanOut
from repro.trace import TraceStore

from .events import Row, batch_of
from .golden import GOLDEN_DIR, GOLDEN_PREDICTORS, GOLDEN_SCALE

SCALE = 0.02


def _analyze(argv):
    """``pbs-experiments analyze ... --json``, parsed."""
    from repro.experiments.runner import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["analyze", *argv, "--json"]) == 0
    return json.loads(buffer.getvalue())


def _grid(workload="pi", scale=SCALE, seeds="1", modes="base"):
    return ["--workloads", workload, "--scales", str(scale),
            "--seeds", seeds, "--modes", modes]


def _event(**overrides) -> Row:
    base = dict(
        pc=7, op=Op.ADD, op_class=OP_CLASS[Op.ADD], dest=3, srcs=(1, 2),
        is_cond_branch=False, taken=False, target=None, next_pc=8,
        addr=None, is_store=False, prob_mode=ProbMode.NOT_PROB,
    )
    base.update(overrides)
    return Row(**base)


def _branch(pc, taken, prob=False):
    return _event(
        pc=pc, op=Op.BLT, op_class=OP_CLASS[Op.BLT], dest=-1,
        is_cond_branch=True, taken=taken, target=2,
        next_pc=2 if taken else pc + 1,
        prob_mode=ProbMode.PREDICTED if prob else ProbMode.NOT_PROB,
    )


class TestRegistry:
    def test_builtin_passes_registered(self):
        names = analysis_names()
        for expected in ("instruction-mix", "branch-entropy", "taken-rate",
                         "mispredicts", "working-set"):
            assert expected in names

    def test_unknown_pass_is_a_clean_error(self):
        with pytest.raises(KeyError, match="registered passes"):
            create_analysis("no-such-study")

    def test_custom_pass_plugs_in_everywhere(self):
        @register_analysis("event-count")
        class EventCount(AnalysisPass):
            def __init__(self):
                self.events = 0

            def consume_batch(self, batch):
                self.events += len(batch)

            def result(self):
                return {"events": self.events}

        try:
            (report,) = _analyze(_grid() + ["--passes", "event-count"])
            assert report["analyses"]["event-count"]["events"] == report["events"]
            live = resolve_passes(["event-count"])[0]
            result = Session("pi", scale=SCALE, seed=1).sink(live).run()
            assert live.result()["events"] == result.instructions
        finally:
            del ANALYSES["event-count"]


class TestDirectionEntropy:
    def test_degenerate_rates_carry_no_information(self):
        assert direction_entropy(0, 100) == 0.0
        assert direction_entropy(100, 100) == 0.0
        assert direction_entropy(0, 0) == 0.0

    def test_even_split_is_one_bit(self):
        assert direction_entropy(50, 100) == pytest.approx(1.0)

    def test_symmetric_and_bounded(self):
        for taken in range(1, 100):
            bits = direction_entropy(taken, 100)
            assert 0.0 < bits <= 1.0
            assert bits == pytest.approx(direction_entropy(100 - taken, 100))


class TestPassesOnSyntheticStreams:
    def _run(self, name, events, **options):
        sink = create_analysis(name, **options)
        sink.consume_batch(batch_of(events))
        return sink.result()

    def test_instruction_mix(self):
        events = [
            _event(),
            _event(op=Op.LOAD, op_class=OP_CLASS[Op.LOAD], srcs=(4,), addr=10),
            _event(op=Op.STORE, op_class=OP_CLASS[Op.STORE], dest=-1,
                   srcs=(5, 6), addr=11, is_store=True),
            _branch(3, True),
            _branch(3, False),
        ]
        result = self._run("instruction-mix", events)
        assert result["instructions"] == 5
        assert result["by_class"]["IALU"]["count"] == 1
        assert result["by_class"]["BRANCH"]["count"] == 2
        assert result["branches"] == {
            "conditional": 2, "taken": 1, "taken_rate": 0.5,
            "probabilistic": 0, "pbs_hits": 0,
            "per_kilo_instruction": 400.0,
        }
        assert result["memory"]["loads"] == 1
        assert result["memory"]["stores"] == 1

    def test_branch_entropy_separates_prob_sites(self):
        events = (
            [_branch(1, taken % 2 == 0, prob=True) for taken in range(100)]
            + [_branch(2, True) for _ in range(100)]
        )
        result = self._run("branch-entropy", events)
        assert result["overall"]["sites"] == 2
        assert result["probabilistic"]["bits_per_execution"] == pytest.approx(1.0)
        assert result["regular"]["bits_per_execution"] == 0.0
        top = result["per_branch"][0]
        assert top["pc"] == 1 and top["probabilistic"]
        assert top["entropy_bits"] == pytest.approx(1.0)

    def test_branch_entropy_top_bounds_table(self):
        events = [_branch(pc, pc % 2 == 0) for pc in range(30) for _ in (0, 1)]
        result = self._run("branch-entropy", events, top=5)
        assert len(result["per_branch"]) == 5

    def test_taken_rate_histogram(self):
        events = (
            [_branch(1, True)] * 9 + [_branch(1, False)]      # 0.9 -> last bin
            + [_branch(2, False)] * 10                        # 0.0 -> first bin
        )
        result = self._run("taken-rate", events, bins=10)
        assert result["sites"] == 2 and result["executions"] == 20
        assert result["by_site"][0] == 1 and result["by_site"][9] == 1
        assert result["by_execution"][0] == 10 and result["by_execution"][9] == 10
        assert result["edges"][0] == 0.0 and result["edges"][-1] == 1.0

    def test_taken_rate_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            create_analysis("taken-rate", bins=0)

    def test_working_set(self):
        events = [
            _event(op=Op.LOAD, op_class=OP_CLASS[Op.LOAD], srcs=(4,), addr=10),
            _event(op=Op.LOAD, op_class=OP_CLASS[Op.LOAD], srcs=(4,), addr=12),
            _event(op=Op.STORE, op_class=OP_CLASS[Op.STORE], dest=-1,
                   srcs=(5, 6), addr=12, is_store=True),
            _event(),   # no addr: ignored
        ]
        result = self._run("working-set", events)
        assert result == {
            "accesses": 3, "loads": 2, "stores": 1,
            "unique_addresses": 2, "unique_read": 2, "unique_written": 1,
            "read_only": 1, "address_range": [10, 12],
        }


class TestMispredictsGoldenLock:
    """`pbs-experiments analyze` must reproduce the branch-mispredict
    counts of the equivalent Session run bit-identically — locked
    against the golden corpus fixtures."""

    AGGREGATE_FIELDS = (
        "instructions", "regular_branches", "regular_mispredicts",
        "prob_branches", "prob_mispredicts", "pbs_hits",
    )

    @pytest.mark.parametrize("fixture", [
        "pi-base-seed1.json", "pi-pbs-seed1.json", "dop-base-seed1.json",
    ])
    def test_counts_match_golden_fixture(self, fixture):
        golden = RunResult.from_dict(
            json.loads((GOLDEN_DIR / fixture).read_text())
        )
        (report,) = _analyze(
            _grid(golden.workload, GOLDEN_SCALE, str(golden.seed),
                  "pbs" if golden.pbs else "base")
            + ["--passes", "mispredicts",
               "--predictors", ",".join(GOLDEN_PREDICTORS)]
        )
        for name in GOLDEN_PREDICTORS:
            fixture_metrics = golden.predictor(name)
            analyzed = report["analyses"]["mispredicts"][name]
            for field in self.AGGREGATE_FIELDS:
                assert analyzed[field] == getattr(fixture_metrics, field), (
                    name, field
                )
            assert analyzed["mpki"] == fixture_metrics.mpki

    def test_per_branch_breakdown_sums_to_aggregate(self):
        (report,) = _analyze(_grid() + [
            "--passes", "mispredicts", "--predictors", "tournament",
            "--top", "0",
        ])
        data = report["analyses"]["mispredicts"]["tournament"]
        assert sum(row["mispredicts"] for row in data["per_branch"]) == (
            data["regular_mispredicts"] + data["prob_mispredicts"]
        )


class TestAnalysisIsStreamEquivalent:
    def test_pass_as_live_sink_matches_stored_analysis(self, tmp_path):
        """A pass fed live by Session.sink() sees the same stream a
        replay of the run's captured trace feeds it — analysis composes
        with capture."""
        store = TraceStore(tmp_path)
        live = create_analysis("branch-entropy")
        session = Session("pi", scale=SCALE, seed=4).sink(live).trace(store)
        session.run()
        replayed = create_analysis("branch-entropy")
        store.open(session.trace_digest()).replay(replayed)
        assert live.result() == replayed.result()

    def test_single_reader_pass_feeds_all_consumers(self):
        """One run feeds every requested pass."""
        (report,) = _analyze(_grid() + [
            "--passes", "instruction-mix,working-set",
        ])
        assert set(report["analyses"]) == {"instruction-mix", "working-set"}
        assert report["events"] == report["analyses"][
            "instruction-mix"]["instructions"]


class TestLiveMatchesReplay:
    """For every registered pass, the live `analyze` report equals the
    same passes fed by a replay of a trace captured for that point."""

    @pytest.mark.parametrize("workload", ["pi", "dop"])
    def test_every_pass_matches_a_replayed_trace(self, tmp_path, workload):
        reports = _analyze(_grid(workload, 0.05, modes="base,pbs"))
        assert [report["mode"] for report in reports] == ["base", "pbs"]
        store = TraceStore(tmp_path)
        for report in reports:
            session = Session(workload, scale=0.05, seed=1)
            if report["mode"] == "pbs":
                session.pbs()
            session.trace(store, mode="capture").run()
            # The CLI's defaults: every pass, per-branch tables of 20.
            passes = resolve_passes(
                analysis_names(),
                mispredicts={"predictors": None, "top": 20},
                **{"branch-entropy": {"top": 20}},
            )
            reader = store.open(session.trace_digest())
            assert reader.replay(FanOut(passes)) == report["events"]
            assert report["instructions"] == reader.meta["instructions"]
            assert report["analyses"] == {
                analysis.name: analysis.result() for analysis in passes
            }


class TestAnalyzeCLI:
    GRID = _grid(seeds="0,1")

    def test_json_reports(self):
        reports = _analyze(self.GRID + [
            "--passes", "branch-entropy,mispredicts",
            "--predictors", "tournament",
        ])
        assert len(reports) == 2
        for report in reports:
            assert set(report["analyses"]) == {"branch-entropy", "mispredicts"}
            assert list(report["analyses"]["mispredicts"]) == ["tournament"]
            overall = report["analyses"]["branch-entropy"]["overall"]
            assert overall["total_entropy_bits"] > 0
            assert list(report) == sorted([
                "workload", "scale", "seed", "mode", "instructions",
                "events", "analyses",
            ])

    def test_json_is_deterministic(self):
        assert _analyze(self.GRID) == _analyze(self.GRID)

    def test_selector_filters(self):
        reports = _analyze([
            "--workloads", "pi,dop", "--scales", str(SCALE), "--seeds", "1",
            "--modes", "pbs", "--passes", "instruction-mix",
        ])
        assert [(r["workload"], r["seed"], r["mode"]) for r in reports] == [
            ("pi", 1, "pbs"), ("dop", 1, "pbs"),
        ]

    def test_human_rendering_mentions_every_pass(self, capsys):
        from repro.experiments.runner import main

        assert main(["analyze", *self.GRID]) == 0
        out = capsys.readouterr().out
        for fragment in ("instruction-mix", "branch-entropy", "taken-rate",
                         "mispredicts", "pi scale=0.02 seed=0 base"):
            assert fragment in out

    def test_unknown_pass_fails_cleanly(self):
        with pytest.raises(SystemExit, match="unknown analysis"):
            _analyze(self.GRID + ["--passes", "nope"])

    def test_listed_in_registry_listing(self, capsys):
        from repro.experiments.runner import main

        assert main(["list", "analyses"]) == 0
        out = capsys.readouterr().out
        assert "branch-entropy" in out and "mispredicts" in out


def test_entropy_study_shows_the_papers_story():
    """End to end on a real workload: the probabilistic branch carries
    (much) more direction entropy than the loop branch — the paper's
    motivating observation, measured on a live run."""
    (report,) = _analyze(_grid(scale=0.05) + ["--passes", "branch-entropy"])
    prob = report["analyses"]["branch-entropy"]["probabilistic"]
    regular = report["analyses"]["branch-entropy"]["regular"]
    assert prob["bits_per_execution"] > 0.5
    assert regular["bits_per_execution"] < 0.1
    assert not math.isnan(prob["total_entropy_bits"])
