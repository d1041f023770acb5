"""The pinned deployment and the five campaign workloads.

Every pass starts as a fresh ``repro campaign`` process would: a new
``Snowcat.standard`` deployment (new ``GraphDatasetBuilder`` over the
same seeded corpus, so template and batch-plan caches are empty) and a
model re-loaded from the set-up checkpoint. No warm-up runs over the
timed CTIs: a real campaign pays template construction per new CTI.

The scenario is pinned: kernel, corpus, model and each workload's CTI set
derive from :data:`PIN_SEED`. ``--seed`` seeds the explorers, so every
CTI's candidate schedule pool, every execution's task seed and every IRQ
plan differ per seed while the programs under test stay the same.
Sampling the CTIs themselves from the seed was measured first: at pass
sizes that fit the run-time budget it spread ``races_per_s`` by 47%
across seeds, which no bound could hold. Permuting the CTI order was
measured second: it left the counts unchanged but made the 2-worker
fleet's makespan bimodal (2.25 s or 2.9 s by which CTI came last).
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import resource
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import ExplorationConfig, Snowcat, SnowcatConfig
from repro.core.costs import CostLedger
from repro.core.mlpct import CampaignResult, MLPCTExplorer, PCTExplorer, run_campaign
from repro.core.strategies import make_strategy
from repro.fleet import FleetConfig, run_fleet
from repro.kernel import KernelConfig, build_kernel
from repro.ml.pic import PICModel
from repro.resilience.journal import CampaignJournal, campaign_result_to_dict
from repro.serve import ServerConfig, SocketBackend, probe_socket, serve_forever
from repro.serve.server import decode_graphs, encode_graphs

from tracing import ROOT, Seam, Tracer

__all__ = ["PIN_SEED", "WORKLOADS", "BenchConfig", "FULL", "CHECK", "Bench", "Pass"]

#: Seed of the pinned scenario (the CLI's default is the same 7).
PIN_SEED = 7


@dataclass(frozen=True)
class BenchConfig:
    """The pinned scenario. Its digest goes into every record."""

    #: The CLI-canonical deployment (``repro train`` / ``repro campaign``
    #: shapes): default kernel and 48x4 PIC. Not the ``repro quality``
    #: golden pins, whose 24x2 model would understate PIC forward cost.
    corpus_rounds: int = 200
    dataset_ctis: int = 24
    epochs: int = 3
    #: What ``repro campaign`` runs and section 5.3.1 specifies: 50
    #: executions, 1600 inferences, pool 1600, batch 8, float64.
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)
    #: CTIs per pass. One pass is sized for 3-8 s (13 s on the socket,
    #: whose wire costs 4 s per CTI under S1) so a 10 s run fits a few
    #: passes and reports their median. The MLPCT passes need 6 CTIs for
    #: about a hundred executions: at 4, ``races_per_exec`` spread by 12%
    #: across seeds.
    pct_sc_ctis: int = 12
    pct_axes_ctis: int = 8
    #: ``mlpct_local`` and ``mlpct_fleet`` run the same CTIs so their
    #: result digests can be compared.
    mlpct_ctis: int = 6
    socket_ctis: int = 2
    #: One leased worker: with two on the sandbox's two cores the wall
    #: doubled whenever the host took a core away (see README findings).
    fleet_workers: int = 1

    def digest(self) -> str:
        body = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()


FULL = BenchConfig()

#: ``--check``: every code path at 1-2 CTIs and small budgets, for the
#: schema and digest checks only. Its timings mean nothing.
CHECK = BenchConfig(
    dataset_ctis=8,
    epochs=1,
    exploration=ExplorationConfig(
        execution_budget=8, inference_cap=96, proposal_pool=96
    ),
    pct_sc_ctis=2,
    pct_axes_ctis=2,
    mlpct_ctis=2,
    socket_ctis=1,
)


@dataclass
class Pass:
    """One timed pass of one workload."""

    setup_s: float
    wall_s: float
    #: user+sys over the timed region: this process, and reaped children
    #: (fleet workers, the prediction server).
    cpu_self_s: float
    cpu_children_s: float
    ctis: int
    executions: int
    inferences: int
    races: int
    digest: str
    #: CTIs + executions + serve calls + fleet jobs.
    operations: int
    #: Reassignments, worker deaths, transient errors, reconnects,
    #: circuit-opens and failed output checks.
    failures: int = 0
    #: Layer numbers spans cannot see (cache statistics, CPU, file sizes).
    facts: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    problems: List[str] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return self.cpu_self_s + self.cpu_children_s


def _cpu() -> Tuple[float, float]:
    """CPU seconds so far: (this process, reaped children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


class _Timed:
    """Wall and CPU over the timed region, under the root span if traced."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.wall_s = 0.0

    def __enter__(self) -> "_Timed":
        self._cpu = _cpu()
        self._root = self.tracer.enter(ROOT) if self.tracer is not None else -1
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._started
        if self.tracer is not None:
            self.tracer.exit(self._root)

    def cpu(self) -> Tuple[float, float]:
        """(self, children) CPU since entry; children count once reaped."""
        own, children = _cpu()
        return own - self._cpu[0], children - self._cpu[1]


def campaign_digest(*results: CampaignResult) -> str:
    """sha256 over the canonical JSON of the campaign results."""
    hasher = hashlib.sha256()
    for result in results:
        body = json.dumps(campaign_result_to_dict(result), sort_keys=True)
        hasher.update(body.encode("utf-8"))
    return hasher.hexdigest()


def _short(path: str) -> str:
    """AF_UNIX paths are capped near 107 bytes; prefer the shorter spelling."""
    relative = os.path.relpath(path)
    return relative if len(relative) < len(path) else path


class Bench:
    """The built deployment plus the per-run scratch directory."""

    def __init__(self, config: BenchConfig, workdir: str, seed: int) -> None:
        self.config = config
        self.workdir = workdir
        #: Seed of every explorer this run builds (``--seed``).
        self.seed = seed
        self._passes = 0
        started = time.perf_counter()
        kernel = build_kernel(KernelConfig(), seed=PIN_SEED)
        deployment = Snowcat(
            kernel,
            SnowcatConfig(
                seed=PIN_SEED,
                corpus_rounds=config.corpus_rounds,
                dataset_ctis=config.dataset_ctis,
                epochs=config.epochs,
                exploration=config.exploration,
            ),
        )
        deployment.train()
        self.checkpoint = os.path.join(workdir, "pic.npz")
        deployment.require_model().save(self.checkpoint)
        #: Shared part of ``setup_s``: corpus, dataset, training, save.
        self.build_s = time.perf_counter() - started

    # -- bring-up -----------------------------------------------------------

    def _fresh(self) -> Snowcat:
        deployment = Snowcat.standard(
            PIN_SEED,
            exploration=self.config.exploration,
            corpus_rounds=self.config.corpus_rounds,
        )
        deployment.model = PICModel.load(self.checkpoint, seed=PIN_SEED)
        return deployment

    def _pass_dir(self) -> str:
        self._passes += 1
        path = os.path.join(self.workdir, f"pass{self._passes}")
        os.makedirs(path)
        return path

    # -- explorers with seams -----------------------------------------------

    @staticmethod
    def _graphs(deployment: Snowcat, tracer: Optional[Tracer]):
        if tracer is None:
            return deployment.graphs
        return Seam(deployment.graphs, tracer, {"graph_for": ("graphs", None)})

    @staticmethod
    def _instrument(explorer, tracer: Optional[Tracer]):
        """Time the explorer's public attributes (traced passes only)."""
        if tracer is None:
            return explorer
        explorer.runner = Seam(
            explorer.runner, tracer, {"run_many": ("execution", None)}
        )
        # Runs and steps are counted where results are folded, which is
        # the one place every executed CT passes on all five workloads
        # (fleet workers execute, the coordinator only observes).
        explorer.race_detector = Seam(
            explorer.race_detector,
            tracer,
            {
                "observe": (
                    "execution.races",
                    lambda args, _: {"runs": 1, "steps": args[0].steps},
                )
            },
        )
        explorer.proposals_for = tracer.wrap(
            "execution.pct",
            explorer.proposals_for,
            lambda _, proposals: {"candidates": len(proposals)},
        )
        explorer.explore_cti = tracer.wrap("core.mlpct", explorer.explore_cti)
        return explorer

    def _pct(self, deployment: Snowcat, tracer: Optional[Tracer], exploration=None):
        explorer = PCTExplorer(
            self._graphs(deployment, tracer),
            config=exploration or self.config.exploration,
            seed=self.seed,
            ledger=CostLedger(model=deployment.config.costs),
            label="PCT",
        )
        return self._instrument(explorer, tracer)

    def _mlpct(
        self,
        deployment: Snowcat,
        tracer: Optional[Tracer],
        strategy: str = "S1",
        backend=None,
    ):
        chooser = make_strategy(strategy)
        predictor = deployment.model if backend is None else None
        if tracer is not None:
            chooser = Seam(
                chooser,
                tracer,
                {
                    "is_interesting": (
                        "core.strategies",
                        lambda *_: {"considered": 1},
                    ),
                    "commit": ("core.strategies", lambda *_: {"selected": 1}),
                },
            )
            if predictor is not None:
                predictor = Seam(
                    predictor,
                    tracer,
                    {
                        "predict_proba_batch": (
                            "ml.pic",
                            lambda args, _: {"pic_graphs": len(args[0])},
                        )
                    },
                )
        explorer = MLPCTExplorer(
            self._graphs(deployment, tracer),
            predictor=predictor,
            strategy=chooser,
            backend=backend,
            config=self.config.exploration,
            seed=self.seed,
            ledger=CostLedger(model=deployment.config.costs),
            label=f"MLPCT-{strategy}",
        )
        return self._instrument(explorer, tracer)

    # -- the workloads ------------------------------------------------------

    def _campaign_pass(
        self, make_explorer, count: int, traced: bool, threads: int = 2
    ) -> Pass:
        """Bring-up, then one in-process ``run_campaign`` over ``count`` CTIs."""
        tracer = Tracer() if traced else None
        started = time.perf_counter()
        deployment = self._fresh()
        ctis = deployment.cti_stream(count, threads=threads)
        explorer = make_explorer(deployment, tracer)
        setup_s = time.perf_counter() - started
        with _Timed(tracer) as timed:
            result = run_campaign(explorer, ctis)
        return _summarise(
            setup_s, timed, [result], ctis=len(ctis), tracer=tracer
        )

    def pct_sc(self, traced: bool) -> Pass:
        return self._campaign_pass(self._pct, self.config.pct_sc_ctis, traced)

    def pct_axes(self, traced: bool) -> Pass:
        axes = replace(
            self.config.exploration, num_threads=3, irq=True, memory_model="tso"
        )
        return self._campaign_pass(
            lambda deployment, tracer: self._pct(deployment, tracer, axes),
            self.config.pct_axes_ctis,
            traced,
            threads=3,
        )

    def mlpct_local(self, traced: bool) -> Pass:
        return self._campaign_pass(self._mlpct, self.config.mlpct_ctis, traced)

    def mlpct_socket(self, traced: bool) -> Pass:
        """S1 (all misses) then S2 (mostly hits) against one fresh server."""
        tracer = Tracer() if traced else None
        started = time.perf_counter()
        deployment = self._fresh()
        ctis = deployment.cti_stream(self.config.socket_ctis)
        socket_path = _short(os.path.join(self._pass_dir(), "pic.sock"))
        server = multiprocessing.get_context("fork").Process(
            target=serve_forever,
            args=(deployment.model, ServerConfig(socket_path=socket_path)),
        )
        server.start()
        backend = None
        try:
            deadline = time.monotonic() + 30.0
            while probe_socket(socket_path) != "live":
                if not server.is_alive() or time.monotonic() > deadline:
                    raise RuntimeError("prediction server did not come up")
                time.sleep(0.005)
            backend = SocketBackend(socket_path)
            captured: List[list] = []
            seam = backend
            if tracer is not None:

                def capture(args, _):
                    if len(captured) < 64:
                        captured.append(list(args[0]))
                    return {"serve_graphs": len(args[0])}

                seam = Seam(
                    backend, tracer, {"predict_proba_batch": ("serve", capture)}
                )
            first = self._mlpct(deployment, tracer, "S1", backend=seam)
            second = self._mlpct(deployment, tracer, "S2", backend=seam)
            setup_s = time.perf_counter() - started
            s1_seconds, s1_graphs = 0.0, 0
            with _Timed(tracer) as timed:
                results = [run_campaign(first, ctis)]
                if tracer is not None:
                    s1_seconds = tracer.self_seconds().get("serve", 0.0)
                    s1_graphs = tracer.counts["serve_graphs"]
                results.append(run_campaign(second, ctis))
            status = backend.status()
            failures = backend.reconnects + backend.circuit_opens
            backend.shutdown()
            backend = None
            server.join(timeout=30.0)
        finally:
            if backend is not None:
                backend.close()
            if server.is_alive():
                server.terminate()
                server.join(timeout=10.0)
        summary = _summarise(
            setup_s,
            timed,
            results,
            ctis=2 * len(ctis),
            tracer=tracer,
            serve_calls=int(status["requests"]),
            failures=failures,
        )
        cache = status["cache"]
        summary.facts.update(
            {
                "serve.cache_hits": cache["hits"],
                "serve.cache_misses": cache["misses"],
                "serve.hit_share": cache["hit_rate"],
                "serve.server_cpu_s": summary.cpu_children_s,
                "serve.client_cpu_s": summary.cpu_self_s,
            }
        )
        # Scoring runs in whole batches, so the server looks up each CTI's
        # inferences rounded up to at most one more batch. The traced
        # pass counts the graphs it sent and checks equality.
        lookups = cache["hits"] + cache["misses"]
        batch = self.config.exploration.score_batch_size
        inferences = summary.inferences
        ceiling = sum(
            math.ceil(stats.inferences / batch) * batch
            for result in results
            for stats in result.per_cti
        )
        sent = tracer.counts["serve_graphs"] if tracer is not None else lookups
        if not inferences <= lookups <= ceiling or lookups != sent:
            summary.problems.append(
                f"server looked up {lookups} graphs for {inferences} "
                f"inferences ({sent} graphs sent)"
            )
        if tracer is not None:
            s2_seconds = tracer.self_seconds().get("serve", 0.0) - s1_seconds
            s2_graphs = sent - s1_graphs
            summary.facts["serve.s1_us_per_graph"] = (
                s1_seconds * 1e6 / s1_graphs if s1_graphs else 0.0
            )
            summary.facts["serve.s2_us_per_graph"] = (
                s2_seconds * 1e6 / s2_graphs if s2_graphs else 0.0
            )
            summary.facts.update(_codec_costs(captured))
        return summary

    def mlpct_fleet(self, traced: bool) -> Pass:
        """``mlpct_local``'s CTIs and explorer through ``run_fleet`` leases."""
        tracer = Tracer() if traced else None
        started = time.perf_counter()
        deployment = self._fresh()
        ctis = deployment.cti_stream(self.config.mlpct_ctis)
        explorer = self._mlpct(deployment, tracer)
        scratch = self._pass_dir()
        receipts = os.path.join(scratch, "receipts")
        journal_path = os.path.join(scratch, "fleet.journal")
        journal = CampaignJournal(journal_path)
        fleet = FleetConfig(
            workers=self.config.fleet_workers,
            receipts_dir=receipts,
            heartbeat_dir=os.path.join(scratch, "heartbeats"),
        )
        seam = journal
        if tracer is not None:
            seam = Seam(
                journal,
                tracer,
                {
                    "prepare": ("resilience.journal", None),
                    "record_cti": (
                        "resilience.journal",
                        lambda *_: {"journal_records": 1},
                    ),
                },
            )
        setup_s = time.perf_counter() - started
        try:
            with _Timed(tracer) as timed:
                result, report = run_fleet(explorer, ctis, config=fleet, journal=seam)
        finally:
            journal.close()
        summary = _summarise(
            setup_s,
            timed,
            [result],
            ctis=len(ctis),
            tracer=tracer,
            fleet_jobs=report.jobs_total,
            failures=(
                report.reassignments
                + report.worker_deaths
                + report.transient_errors
                + report.serve_reconnects
            ),
        )
        summary.facts.update(
            {
                "fleet.jobs": report.jobs_completed,
                "fleet.reassignments": report.reassignments,
                "fleet.receipts": report.receipts,
                "fleet.receipt_bytes": sum(
                    entry.stat().st_size for entry in os.scandir(receipts)
                ),
                "fleet.worker_cpu_s": summary.cpu_children_s,
                "fleet.coordinator_cpu_s": summary.cpu_self_s,
                "fleet.worker_busy_share": summary.cpu_children_s
                / (self.config.fleet_workers * summary.wall_s),
                "resilience.journal.bytes": os.path.getsize(journal_path),
            }
        )
        return summary


def _summarise(
    setup_s: float,
    timed: _Timed,
    results: List[CampaignResult],
    ctis: int,
    tracer: Optional[Tracer],
    serve_calls: int = 0,
    fleet_jobs: int = 0,
    failures: int = 0,
) -> Pass:
    executions = sum(result.ledger.executions for result in results)
    inferences = sum(result.ledger.inferences for result in results)
    races = sum(result.total_races for result in results)
    own_cpu, child_cpu = timed.cpu()
    return Pass(
        setup_s=setup_s,
        wall_s=timed.wall_s,
        cpu_self_s=own_cpu,
        cpu_children_s=child_cpu,
        ctis=ctis,
        executions=executions,
        inferences=inferences,
        races=races,
        digest=campaign_digest(*results),
        operations=ctis + executions + serve_calls + fleet_jobs,
        failures=failures,
        tracer=tracer,
    )


def _codec_costs(batches: List[list]) -> Dict[str, float]:
    """Public ``encode_graphs``/``decode_graphs`` timed on captured batches."""
    graphs = sum(len(batch) for batch in batches)
    if not graphs:
        return {}
    started = time.perf_counter()
    payloads = [encode_graphs(batch) for batch in batches]
    encoded = time.perf_counter()
    for payload in payloads:
        decode_graphs(payload)
    decoded = time.perf_counter()
    size = sum(
        len(json.dumps(payload, separators=(",", ":"))) for payload in payloads
    )
    return {
        "serve.encode_us_per_graph": (encoded - started) * 1e6 / graphs,
        "serve.decode_us_per_graph": (decoded - encoded) * 1e6 / graphs,
        "serve.request_bytes_per_graph": size / graphs,
    }


#: Workload name -> pass method. ``BENCHMARK.json`` records why each exists.
WORKLOADS: Dict[str, Callable[[Bench, bool], Pass]] = {
    "pct_sc": Bench.pct_sc,
    "pct_axes": Bench.pct_axes,
    "mlpct_local": Bench.mlpct_local,
    "mlpct_socket": Bench.mlpct_socket,
    "mlpct_fleet": Bench.mlpct_fleet,
}
