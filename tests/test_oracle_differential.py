"""Tests for the differential conformance harness itself."""

import numpy as np
import pytest

from repro import obs
from repro import rng as rngmod
from repro.errors import OracleError
from repro.execution.parallel import CTTask
from repro.execution.pct import propose_hint_pairs
from repro.obs import MemorySink, MetricsRegistry
from repro.oracle import (
    DifferentialRunner,
    Mismatch,
    add_runner_checks,
    add_scoring_checks,
    compare_array_sequences,
    compare_campaigns,
    compare_equal,
)


class TestRunnerMechanics:
    def test_agreeing_checks_pass(self):
        report = (
            DifferentialRunner("t")
            .add("ints", lambda: 3, lambda: 3)
            .add("lists", lambda: [1, 2], lambda: [1, 2])
            .run()
        )
        assert report.passed
        assert report.mismatches == ()
        assert "2/2 checks passed" in report.summary()

    def test_disagreement_is_structured_and_non_fatal(self):
        report = (
            DifferentialRunner("t")
            .add("bad", lambda: 1, lambda: 2)
            .add("good", lambda: "x", lambda: "x")
            .run()
        )
        assert not report.passed
        assert [o.passed for o in report.outcomes] == [False, True]
        (mismatch,) = report.mismatches
        assert mismatch == Mismatch(check="bad", field="value", detail=mismatch.detail)
        assert "reference=1" in mismatch.detail and "candidate=2" in mismatch.detail

    def test_raise_if_failed(self):
        report = DifferentialRunner().add("bad", lambda: 1, lambda: 2).run()
        with pytest.raises(OracleError, match="bad"):
            report.raise_if_failed()
        DifferentialRunner().add("ok", lambda: 1, lambda: 1).run().raise_if_failed()

    def test_thunks_are_lazy_until_run(self):
        calls = []
        runner = DifferentialRunner().add(
            "lazy", lambda: calls.append("r"), lambda: calls.append("c")
        )
        assert calls == []
        runner.run()
        assert calls == ["r", "c"]

    def test_telemetry_wiring(self):
        with obs.use_registry(MetricsRegistry(sink=MemorySink())) as registry:
            (
                DifferentialRunner("wired")
                .add("ok", lambda: 1, lambda: 1)
                .add("bad", lambda: (1, 2), lambda: (1, 3))
                .run()
            )
            assert registry.counter("oracle.checks").value == 2
            assert registry.counter("oracle.mismatches").value == 1


class TestComparators:
    def test_compare_equal_truncates_long_reprs(self):
        ((_, detail),) = compare_equal("a" * 500, "b")
        assert len(detail) < 400

    def test_array_sequences_catch_length_shape_and_value(self):
        compare = compare_array_sequences(atol=1e-9)
        assert compare([np.ones(3)], [np.ones(3)]) == []
        assert compare([np.ones(3)], [])[0][0] == "length"
        assert compare([np.ones(3)], [np.ones(4)])[0][0] == "[0].shape"
        problems = compare([np.ones(3)], [np.ones(3) + 1e-3])
        assert problems and "deviation" in problems[0][1]

    def test_compare_campaigns_reports_dotted_fields(self):
        class Ledger:
            executions = 5
            inferences = 7
            total_hours = 1.5

        class Campaign:
            history = (1, 2)
            bug_history = (0, 1)
            manifested_bugs = frozenset({3})
            ledger = Ledger()
            per_cti = {"a": 1}

        left, right = Campaign(), Campaign()
        assert compare_campaigns(left, right) == []
        right.ledger = Ledger()
        right.ledger.executions = 6
        fields = [field for field, _ in compare_campaigns(left, right)]
        assert fields == ["ledger.executions"]


class TestStandardChecks:
    def test_scoring_checks_pass_on_real_model(
        self, dataset_builder, tiny_model
    ):
        entry_a, entry_b = dataset_builder.corpus.sample_pairs(
            rngmod.make_rng(3), 1
        )[0]
        pairs = propose_hint_pairs(
            rngmod.make_rng(11), entry_a.trace, entry_b.trace, 5
        )
        graphs = [
            dataset_builder.graph_for(entry_a, entry_b, list(pair))
            for pair in pairs
        ]
        runner = DifferentialRunner("scoring")
        add_scoring_checks(runner, tiny_model, graphs)
        assert len(runner) == 2
        runner.run().raise_if_failed()

    def test_runner_checks_pass_on_real_kernel(self, kernel, dataset_builder):
        entry_a, entry_b = dataset_builder.corpus.sample_pairs(
            rngmod.make_rng(3), 1
        )[0]
        pairs = propose_hint_pairs(
            rngmod.make_rng(17), entry_a.trace, entry_b.trace, 2
        )
        programs = (entry_a.sti.as_pairs(), entry_b.sti.as_pairs())
        tasks = [
            CTTask.build(programs, list(pair), seed=0, index=i)
            for i, pair in enumerate(pairs)
        ]
        runner = DifferentialRunner("execution")
        add_runner_checks(runner, kernel, tasks, workers=2)
        assert len(runner) == 1
        runner.run().raise_if_failed()
