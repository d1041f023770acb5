"""One run spec: ``campaign`` and ``fleet run`` share one flag table, one
validated :class:`repro.run.RunSpec` and one assembly path.

Both commands train a model before they run, so until ``execute`` took an
already-built deployment nothing in tier-1 could drive their assembly.
Here it runs on the fleet driver's tiny kernel with a seeded, untrained
PIC: byte-identity only needs the *same* predictor on both sides.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import rng as rngmod
from repro.cli import _spec_from_args, build_parser, main
from repro.core import ExplorationConfig, Snowcat, SnowcatConfig
from repro.core.mlpct import MLPCTExplorer, PCTExplorer, run_campaign
from repro.core.strategies import make_strategy
from repro.errors import FleetError, JournalError, SpecError
from repro.fleet import FleetConfig
from repro.kernel import build_kernel
from repro.ml.pic import PICConfig, PICModel
from repro.resilience.atomic import canonical_json
from repro.resilience.journal import CampaignJournal, campaign_result_to_dict
from repro.resilience.log import read_log_tolerant
from repro.run import RunSpec, _trained_snowcat, execute
from tests._fleet_driver import KERNEL_CONFIG, SEED

NUM_CTIS = 3
BUDGETS = dict(execution_budget=3, proposal_pool=6, inference_cap=8)
AXES = ["--threads", "3", "--irq", "--memory-model", "tso"]


# -- (a) the flag surface ------------------------------------------------------

STORE, FLAG = "_StoreAction", "_StoreTrueAction"

#: option string -> (dest, default, choices, action); declared once in
#: ``cli._add_run_flags``, so both commands must show exactly these.
SHARED_FLAGS = {
    "--strategy": ("strategy", "S1", ("S1", "S2", "S3"), STORE),
    "--batch-size": ("batch_size", 8, None, STORE),
    "--model": ("model", None, None, STORE),
    "--serve-socket": ("serve_socket", None, None, STORE),
    "--journal": ("journal", None, None, STORE),
    "--resume": ("resume", None, None, STORE),
    "--inject-faults": ("inject_faults", None, None, STORE),
    "--capture-labels": ("capture_labels", False, None, FLAG),
    "--threads": ("threads", 2, None, STORE),
    "--irq": ("irq", False, None, FLAG),
    "--memory-model": ("memory_model", "sc", ("sc", "tso"), STORE),
}
COMMAND_FLAGS = {
    "campaign": {
        "--ctis": ("ctis", 8, None, STORE),
        "--workers": ("workers", 0, None, STORE),
        "--ct-timeout": ("ct_timeout", None, None, STORE),
        "--retries": ("retries", None, None, STORE),
        "--heartbeat": ("heartbeat", None, None, STORE),
        "--infer-dtype": (
            "infer_dtype", "float64", ("float64", "float32"), STORE,
        ),
    },
    "fleet run": {
        "--ctis": ("ctis", 6, None, STORE),
        "--workers": ("workers", 3, None, STORE),
        "--pct-only": ("pct_only", False, None, FLAG),
        "--lease-seconds": ("lease_seconds", 30.0, None, STORE),
        "--max-job-attempts": ("max_job_attempts", 4, None, STORE),
        "--heartbeat-dir": ("heartbeat_dir", None, None, STORE),
        "--receipts": ("receipts", None, None, STORE),
    },
}


def _subparser(parser, name):
    for action in parser._actions:
        if isinstance(action.choices, dict) and name in action.choices:
            return action.choices[name]
    raise AssertionError(f"no subcommand {name!r}")


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_flag_surface_is_the_literal_table(command):
    parser = build_parser()
    for name in command.split():
        parser = _subparser(parser, name)
    surface = {
        " ".join(action.option_strings): (
            action.dest,
            action.default,
            tuple(action.choices) if action.choices else None,
            type(action).__name__,
        )
        for action in parser._actions
        if action.dest != "help"
    }
    assert surface == {**SHARED_FLAGS, **COMMAND_FLAGS[command]}


# -- the tiny deployment and the hand-built reference -------------------------


@pytest.fixture(scope="module")
def deployment():
    """The fleet driver's kernel, corpus and seeded untrained PIC as a
    :class:`Snowcat` — what ``execute`` otherwise spends ~13 s building."""
    kernel = build_kernel(KERNEL_CONFIG, seed=SEED)
    snowcat = Snowcat(kernel, SnowcatConfig(seed=SEED))
    snowcat.graphs.grow_corpus(rounds=60)
    vocabulary = snowcat.graphs.vocabulary
    snowcat.model = PICModel(
        PICConfig(
            vocab_size=len(vocabulary),
            pad_id=vocabulary.pad_id,
            token_dim=8,
            hidden_dim=12,
            num_layers=2,
        ),
        seed=SEED,
    )
    return snowcat


def _spec(argv, **changes) -> RunSpec:
    """``argv`` read the way the CLI reads it, on the tiny budgets (which
    no flag sets)."""
    spec = _spec_from_args(build_parser().parse_args(["--seed", str(SEED)] + argv))
    return replace(
        spec, exploration=replace(spec.exploration, **BUDGETS), **changes
    )


def _digests(results):
    return [
        canonical_json(campaign_result_to_dict(result)) for result, _ in results
    ]


def _by_hand(deployment, config, journal=None, capture_labels=False, pct_only=False):
    """The same campaigns with no spec and no assembly: explorers built by
    their constructors the way ``tests/test_stages.py`` and
    ``_fleet_driver.build_fleet_campaign`` build them."""
    graphs = deployment.graphs
    rng = rngmod.split(SEED, "ctis:campaign")
    if config.num_threads == 2:
        ctis = graphs.corpus.sample_pairs(rng, NUM_CTIS)
    else:
        ctis = graphs.corpus.sample_groups(rng, NUM_CTIS, config.num_threads)
    shared = dict(config=config, seed=SEED, capture_labels=capture_labels)
    explorers = [PCTExplorer(graphs, **shared)]
    if not pct_only:
        explorers.append(
            MLPCTExplorer(
                graphs,
                predictor=deployment.model,
                strategy=make_strategy("S1"),
                label="MLPCT-S1 (PIC)",
                **shared,
            )
        )
    return [
        (run_campaign(explorer, ctis, journal=journal), None)
        for explorer in explorers
    ]


# -- (b) namespace -> spec -> validated -> assembly ----------------------------

DRIVERS = {
    "inline": ["campaign"],
    "fleet": ["fleet", "run", "--workers", "1", "--lease-seconds", "5"],
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
class TestAssembly:
    def _argv(self, driver, *extra):
        return DRIVERS[driver] + ["--ctis", str(NUM_CTIS)] + list(extra)

    @pytest.mark.parametrize("axes", [[], AXES], ids=["two-thread", "axes"])
    def test_matches_hand_built_explorers(self, deployment, driver, axes):
        spec = _spec(self._argv(driver, *axes)).validated()
        results = list(execute(spec, deployment))
        assert [result.label for result, _ in results] == ["PCT", "MLPCT-S1 (PIC)"]
        assert (spec.fleet is None) == (driver == "inline")
        assert all((report is None) == (driver == "inline") for _, report in results)
        config = ExplorationConfig(
            **BUDGETS,
            **(dict(num_threads=3, irq=True, memory_model="tso") if axes else {}),
        )
        assert spec.exploration == config
        assert _digests(results) == _digests(_by_hand(deployment, config))

    def test_pct_only(self, deployment, driver):
        spec = _spec(self._argv(driver), strategy=None)
        if driver == "fleet":
            assert spec == _spec(self._argv(driver, "--pct-only"))
        results = list(execute(spec, deployment))
        assert [result.label for result, _ in results] == ["PCT"]
        assert _digests(results) == _digests(
            _by_hand(deployment, ExplorationConfig(**BUDGETS), pct_only=True)
        )

    def test_journal_bytes_and_capture_labels(self, deployment, driver, tmp_path):
        """The journal the assembly writes is the hand-built run's, byte
        for byte: header (CTI digest, bound settings), audits, labels."""
        config = ExplorationConfig(**BUDGETS)
        theirs = CampaignJournal(str(tmp_path / "hand.journal"))
        expected = _by_hand(deployment, config, theirs, capture_labels=True)
        theirs.close()
        path = str(tmp_path / "spec.journal")
        argv = self._argv(driver, "--journal", path, "--capture-labels")
        assert _digests(execute(_spec(argv), deployment)) == _digests(expected)
        with open(path, "rb") as ours, open(theirs.path, "rb") as reference:
            written = ours.read()
            assert written == reference.read()
        assert b'"labels"' in written

    def test_journal_then_resume(self, deployment, driver, tmp_path):
        path = str(tmp_path / "run.journal")
        axes = AXES[2:]  # two threads: the same CTI stream either way
        config = ExplorationConfig(**BUDGETS, irq=True, memory_model="tso")
        expected = _digests(_by_hand(deployment, config))
        argv = self._argv(driver, *axes)
        run = execute(_spec(argv + ["--journal", path]), deployment)
        assert _digests([next(run)]) == expected[:1]
        run.close()  # interrupted after the baseline: MLPCT never started
        records, _ = read_log_tolerant(path)
        assert {record["c"] for record in records} == {"PCT"}
        with pytest.raises(JournalError, match=r"\(irq, memory_model mismatch"):
            list(execute(_spec(self._argv(driver, "--resume", path)), deployment))
        resumed = execute(_spec(argv + ["--resume", path]), deployment)
        assert _digests(resumed) == expected


def test_resume_under_a_different_configuration_is_refused(deployment, tmp_path):
    """A TSO+IRQ campaign killed mid-run, then resumed without the axis
    flags, used to finish as a splice of two campaigns and exit 0."""
    graphs = deployment.graphs
    ctis = graphs.corpus.sample_pairs(rngmod.split(SEED, "ctis:campaign"), 4)
    tso = ExplorationConfig(**BUDGETS, irq=True, memory_model="tso")

    class Killed(PCTExplorer):
        def explore_cti(self, *entries):
            if len(self.history) >= 2 * BUDGETS["execution_budget"]:
                raise KeyboardInterrupt  # two CTIs committed, two to go
            return super().explore_cti(*entries)

    def run(explorer_cls, config, path):
        journal = CampaignJournal(str(path))
        try:
            return run_campaign(
                explorer_cls(graphs, config=config, seed=SEED), ctis, journal=journal
            )
        finally:
            journal.close()

    whole = run(PCTExplorer, tso, tmp_path / "whole.journal")
    path = tmp_path / "killed.journal"
    with pytest.raises(KeyboardInterrupt):
        run(Killed, tso, path)
    interrupted = path.read_bytes()
    with pytest.raises(JournalError, match=r"\(irq, memory_model mismatch for 'PCT'\)"):
        run(PCTExplorer, ExplorationConfig(**BUDGETS), path)
    assert path.read_bytes() == interrupted  # the refusal wrote nothing
    resumed = run(PCTExplorer, tso, path)
    assert _digests([(resumed, None)]) == _digests([(whole, None)])
    assert path.read_bytes() == (tmp_path / "whole.journal").read_bytes()


# -- (c) nothing below the namespace reader takes a namespace -------------------


def test_a_literal_spec_runs_and_equals_the_fleet(deployment):
    exploration = ExplorationConfig(**BUDGETS)
    inline = RunSpec(seed=SEED, ctis=NUM_CTIS, exploration=exploration)
    sharded = replace(inline, fleet=FleetConfig(workers=1, lease_seconds=5.0))
    assert _digests(execute(inline, deployment)) == _digests(
        execute(sharded, deployment)
    )
    assert deployment.config.exploration == ExplorationConfig()  # not mutated


# -- refusals: before any setup, exit 2 ----------------------------------------

REFUSALS = [
    (["campaign", "--serve-socket", "S", "--model", "M"], "owns the model"),
    (["campaign", "--serve-socket", "S", "--infer-dtype", "float32"], "its dtype"),
    (["fleet", "run", "--pct-only", "--serve-socket", "S"], "--pct-only"),
    (["fleet", "run", "--pct-only", "--model", "M"], "--pct-only"),
    (["fleet", "run", "--workers", "0"], "at least one worker"),
    # ... and the existing wordings, now for both commands:
    (["campaign", "--journal", "a", "--resume", "b"], "mutually exclusive"),
    (["fleet", "run", "--journal", "a", "--resume", "b"], "mutually exclusive"),
    (["campaign", "--resume", "/nonexistent/journal"], "does not exist"),
    (["fleet", "run", "--resume", "/nonexistent/journal"], "does not exist"),
    (["campaign", "--capture-labels"], "--capture-labels needs a journal"),
    (["fleet", "run", "--capture-labels"], "--capture-labels needs a journal"),
    (["campaign", "--threads", "1"], "--threads must be at least 2"),
    (["fleet", "run", "--threads", "1"], "--threads must be at least 2"),
    (["campaign", "--inject-faults", "frobnicate:0.5"], "frobnicate"),
    (["fleet", "run", "--inject-faults", "frobnicate:0.5"], "frobnicate"),
]


@pytest.mark.parametrize("argv, fragment", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_refused_before_any_deployment_is_built(argv, fragment, capsys, monkeypatch):
    def no_deployment(*args, **kwargs):
        raise AssertionError("a deployment was built for a refused spec")

    monkeypatch.setattr(Snowcat, "standard", no_deployment)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert fragment in captured.err and captured.out == ""


def test_literal_only_refusals():
    """Combinations no flag can express are refused all the same."""
    fleet = FleetConfig(workers=1)
    for spec, error, fragment in [
        (RunSpec(fleet=fleet, exploration=ExplorationConfig(parallel_workers=2)), FleetError, "parallelism"),
        (RunSpec(fleet=fleet, heartbeat="H"), SpecError, "heartbeat"),
        (RunSpec(fleet=replace(fleet, serve_socket="S")), SpecError, "serve_socket"),
        # The baseline builds no model, so no dtype can take effect.
        (RunSpec(strategy=None, infer_dtype="float32"), SpecError, "--infer-dtype"),
    ]:
        with pytest.raises(error, match=fragment):
            spec.validated()
    assert RunSpec().validated() == RunSpec()


# -- the standard deployment, trained or not -----------------------------------


def test_trained_deployment_is_the_standard_one():
    """``learn run`` maps journaled STI ids onto ``Snowcat.standard``'s
    corpus; the campaign that wrote them trained on top of the same one."""
    trained = _trained_snowcat(3, ctis=2, epochs=1)
    standard = Snowcat.standard(3)
    assert trained.model is not None and standard.model is None
    assert trained.kernel.describe() == standard.kernel.describe()

    def sti_ids(entries):
        return [entry.sti.sti_id for entry in entries]

    assert sti_ids(trained.graphs.corpus) == sti_ids(standard.graphs.corpus)
    for threads in (2, 3):
        assert [sti_ids(cti) for cti in trained.cti_stream(5, threads=threads)] == [
            sti_ids(cti) for cti in standard.cti_stream(5, threads=threads)
        ]
