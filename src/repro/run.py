"""One run spec: what a campaign run *is*, and the only code that runs one.

Snowcat's result is comparative — PCT vs MLPCT on the same CTI stream
under the same budget — so a run means nothing unless one object says
which configuration produced it. :class:`RunSpec` is that object for the
two commands that run campaigns (``campaign`` inline, ``fleet run``
sharded): it embeds the config objects that already exist
(:class:`~repro.core.mlpct.ExplorationConfig`, optionally a
:class:`~repro.fleet.FleetConfig`) next to the values that had no home
(seed, CTI count, strategy, model source, dtype, journal,
label capture, heartbeat). :meth:`RunSpec.validated` refuses every
combination that cannot take effect before anything expensive happens;
:func:`execute` is the one assembly path — deployment → backend →
explorers → CTI stream → journal →
:func:`~repro.core.mlpct.run_campaign` or :func:`~repro.fleet.run_fleet`.

Refusals are worded in the CLI's flag names: those are the operator's
names for the fields, and the CLI prints them verbatim.
"""

from __future__ import annotations

import copy
import os
import sys
from contextlib import ExitStack, closing
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Tuple

from repro import obs
from repro.core.mlpct import CampaignResult, ExplorationConfig, run_campaign
from repro.core.snowcat import Snowcat
from repro.errors import CheckpointError, SpecError
from repro.fleet import FleetConfig, FleetReport, run_fleet
from repro.fleet.coordinator import _check_shardable
from repro.ml.pic import PICModel
from repro.obs.export import HeartbeatWriter
from repro.resilience.faults import FaultPlan
from repro.resilience.journal import CampaignJournal, reset_journal
from repro.serve import SocketBackend

__all__ = ["RunSpec", "execute"]


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one ``campaign`` / ``fleet run``."""

    seed: int = 0
    #: CTIs drawn from the deployment's corpus (one entry per thread).
    ctis: int = 8
    #: MLPCT selection strategy run after the PCT baseline; ``None`` runs
    #: the baseline only (no model is trained, loaded or served).
    strategy: Optional[str] = "S1"
    #: Budgets, scenario axes and how selected CTs execute inline. The
    #: inline fault spec lives here, a fleet's in ``fleet.fault_spec``.
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)
    #: Shard the run across worker processes instead of running it
    #: inline. ``fleet.serve_socket`` is filled in from ``serve_socket``.
    fleet: Optional[FleetConfig] = None
    #: Model source: a PIC checkpoint to load (inline, an unusable one
    #: degrades to the baseline) ...
    model: Optional[str] = None
    #: ... or a running ``repro serve`` server's Unix socket, which owns
    #: the model and its dtype; neither trains one first.
    serve_socket: Optional[str] = None
    #: GNN precision of every local PIC inference call.
    infer_dtype: str = "float64"
    #: Durable journal file: reset and started over, or, with ``resume``,
    #: picked up where an interrupted run stopped.
    journal: Optional[str] = None
    resume: bool = False
    #: Record executed-CT coverage labels in the journal.
    capture_labels: bool = False
    #: Inline progress-snapshot file for ``repro top`` (a fleet publishes
    #: to ``fleet.heartbeat_dir``).
    heartbeat: Optional[str] = None

    def validated(self) -> "RunSpec":
        """Refuse what cannot run or cannot take effect; returns ``self``.

        Raises :class:`~repro.errors.SpecError` (or the
        :class:`~repro.errors.FaultSpecError` /
        :class:`~repro.errors.FleetError` of the embedded config at
        fault). Cheap and free of side effects: :func:`execute` calls it
        before building anything.
        """
        for fault_spec in (
            self.exploration.fault_spec,
            self.fleet.fault_spec if self.fleet else None,
        ):
            if fault_spec is not None:
                FaultPlan.parse(fault_spec, seed=self.seed)
        if self.exploration.num_threads < 2:
            raise SpecError("--threads must be at least 2")
        if self.resume and not (self.journal and os.path.exists(self.journal)):
            raise SpecError(f"cannot resume: journal {self.journal} does not exist")
        if self.capture_labels and not self.journal:
            raise SpecError(
                "--capture-labels needs a journal to write labels into "
                "(add --journal FILE or --resume FILE)"
            )
        if self.serve_socket and (self.model or self.infer_dtype != "float64"):
            raise SpecError(
                "the server behind --serve-socket owns the model and its "
                "dtype: --model and --infer-dtype cannot take effect here "
                "(give them to 'repro serve start')"
            )
        if self.strategy is None and (
            self.model or self.serve_socket or self.infer_dtype != "float64"
        ):
            raise SpecError(
                "--pct-only runs the baseline alone: --model, --serve-socket "
                "and --infer-dtype cannot take effect"
            )
        if self.fleet is not None:
            _check_shardable(self.exploration, self.fleet)
            if self.heartbeat or self.fleet.serve_socket:
                raise SpecError(
                    "a fleet scores in its workers and publishes to "
                    "fleet.heartbeat_dir: heartbeat and fleet.serve_socket "
                    "(set serve_socket) cannot take effect"
                )
        return self


def _trained_snowcat(
    seed: int,
    ctis: int = 30,
    epochs: int = 3,
    exploration: Optional[ExplorationConfig] = None,
) -> Snowcat:
    """The standard deployment with a PIC trained on ``ctis`` CTIs."""
    snowcat = Snowcat.standard(seed, exploration=exploration)
    snowcat.config = replace(snowcat.config, dataset_ctis=ctis, epochs=epochs)
    snowcat.train()
    return snowcat


def _load_model(spec: RunSpec, snowcat: Snowcat) -> bool:
    """Load ``spec.model`` into ``snowcat``; False if it is unusable."""
    try:
        model = PICModel.load(spec.model, seed=spec.seed)
        if len(snowcat.graphs.vocabulary) > model.config.vocab_size:
            raise CheckpointError(
                f"checkpoint vocabulary ({model.config.vocab_size} tokens) "
                f"is smaller than this kernel's "
                f"({len(snowcat.graphs.vocabulary)} tokens)"
            )
    except CheckpointError as error:
        # Graceful degradation: an unusable model must not kill the
        # campaign — fall back to the learned-filter-free baseline,
        # loudly.
        print(
            f"warning: model checkpoint {spec.model} is unusable ({error}); "
            "continuing with the PCT baseline",
            file=sys.stderr,
        )
        obs.point("resilience.degraded", checkpoint=spec.model)
        return False
    snowcat.model = model
    return True


def _check_server(backend, socket: str, vocab: int) -> None:
    """The served vocabulary must cover this kernel's ``vocab`` tokens
    (graphs are built client-side); says which model is scoring."""
    status = backend.status()
    if int(status.get("vocab_size", 0)) < vocab:
        raise SpecError(
            f"served model vocabulary ({status.get('vocab_size')} tokens) is "
            f"smaller than this kernel's ({vocab} tokens); serve a compatible "
            "checkpoint"
        )
    print(
        f"scoring via {socket} "
        f"(model {status.get('model_name')} {status.get('version')})"
    )


def _report_cache(backend: SocketBackend) -> None:
    """Print the server's cache totals once an inline run is over, and
    mirror them as counters in this process's metrics snapshot."""
    try:
        cache = backend.status().get("cache", {})
        print(
            f"serving cache: {cache.get('hits', 0):.0f} hits / "
            f"{cache.get('misses', 0):.0f} misses "
            f"(hit rate {cache.get('hit_rate', 0.0):.1%}, "
            f"{cache.get('entries', 0):.0f} entries)"
        )
        obs.add("serve.cache.hits", int(cache.get("hits", 0)))
        obs.add("serve.cache.misses", int(cache.get("misses", 0)))
    except Exception:
        pass


def execute(
    spec: RunSpec, deployment: Optional[Snowcat] = None
) -> Iterator[Tuple[CampaignResult, Optional[FleetReport]]]:
    """Run ``spec``: yields ``(result, fleet report or None)`` per
    explorer — the PCT baseline, then MLPCT — as each completes.

    ``deployment`` stands in for the first stage (the standard kernel and
    corpus, plus training a PIC or loading ``spec.model``): an
    already-built :class:`Snowcat` is used as it is, under the spec's
    seed and exploration config. Everything after is the same path.
    Setup narrates itself on stdout (``scoring via``, the closing
    ``serving cache:`` line) in stage order; journal and
    backend are released when the generator finishes or is closed.
    """
    spec.validated()
    strategy = spec.strategy
    if deployment is not None:
        snowcat = copy.copy(deployment)
        snowcat.config = replace(
            snowcat.config, seed=spec.seed, exploration=spec.exploration
        )
    elif strategy is None or spec.serve_socket or spec.model:
        snowcat = Snowcat.standard(spec.seed, exploration=spec.exploration)
        if spec.model and not _load_model(spec, snowcat):
            if spec.fleet is not None:
                raise SpecError(
                    "model checkpoint unusable; rerun with --pct-only for "
                    "the baseline"
                )
            strategy = None
    else:
        snowcat = _trained_snowcat(spec.seed, exploration=spec.exploration)

    with ExitStack() as stack:
        backend = journal = heartbeat = None
        if spec.serve_socket:
            backend = stack.enter_context(closing(SocketBackend(spec.serve_socket)))
            _check_server(backend, spec.serve_socket, len(snowcat.graphs.vocabulary))
        if spec.infer_dtype != "float64" and snowcat.model is not None:
            snowcat.model.set_inference_mode(spec.infer_dtype)
        if spec.journal:
            if not spec.resume:
                reset_journal(spec.journal)
            try:
                journal = stack.enter_context(closing(CampaignJournal(spec.journal)))
            except OSError as error:
                raise SpecError(str(error)) from None
        if spec.heartbeat:
            heartbeat = HeartbeatWriter(spec.heartbeat)

        explorers = [snowcat.pct_explorer()]
        if strategy is not None:
            explorers.append(snowcat.mlpct_explorer(strategy, backend=backend))
        for explorer in explorers:
            explorer.capture_labels = spec.capture_labels
        ctis = snowcat.cti_stream(spec.ctis, threads=spec.exploration.num_threads)
        if spec.fleet is None:
            if backend is not None:
                # Registered last, so it runs first: once the campaign
                # loop has started, however it ends.
                stack.callback(_report_cache, backend)
            for explorer in explorers:
                yield run_campaign(
                    explorer, ctis, journal=journal, heartbeat=heartbeat
                ), None
        else:
            fleet = replace(spec.fleet, serve_socket=spec.serve_socket)
            for explorer in explorers:
                yield run_fleet(explorer, ctis, config=fleet, journal=journal)
