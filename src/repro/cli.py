"""Command-line interface: ``python -m repro <command>``.

Runs the pipeline stages a downstream user needs without writing code:

- ``info``      — build a kernel and print its inventory
- ``fuzz``      — grow an STI corpus and report coverage
- ``train``     — full pipeline to a trained PIC model (checkpoint saved)
- ``campaign``  — PCT vs MLPCT race-coverage campaign; ``--batch-size N``
  sets how many candidate graphs the PIC scores per batched inference
  call and ``--workers N`` executes selected CTs in N supervised worker
  processes — isolation and per-CT deadlines, not speed; results are
  identical to serial (see ``docs/ROBUSTNESS.md``)
- ``razzer``    — Razzer / Razzer-Relax / Razzer-PIC on injected races
- ``snowboard`` — INS-PAIR clustering + sampler comparison
- ``filter-model`` — the §A.6 analytic rejection-filter calculator
- ``report``    — render a telemetry trace (stage table + span timeline)
- ``quality``   — model-quality regression gate: rebuild the golden
  pipeline, measure predictor metrics, compare against the stored
  baseline with tolerance bands (non-zero exit on regression; see
  ``docs/TESTING.md``)
- ``serve``     — shared PIC prediction service on a Unix socket
  (``start``/``stop``/``status``/``swap``/``metrics``); campaigns
  attach to it with ``campaign --serve-socket PATH`` (shared model and
  prediction cache; see ``docs/SERVING.md``)
- ``fleet``     — fault-tolerant distributed campaign (``run``): a
  coordinator hands score/execute jobs to N
  worker processes, survives worker crashes/hangs and its own SIGKILL
  (``--resume``), and aggregates byte-identically to the
  single-process campaign (see ``docs/FLEET.md``). ``campaign`` and
  ``fleet run`` share one flag table and one :class:`repro.run.RunSpec`;
  :func:`repro.run.execute` is the only code that runs either
- ``learn``     — continuous-learning lifecycle
  (``run``/``publish``): tail ``--capture-labels`` campaign
  journals into a durable label store, fine-tune the registry's active
  model on fresh labels, gate the candidate on a fresh-label holdout,
  and promote (or quarantine) it; a live ``serve`` server hot-swaps to
  the promoted version with ``serve swap`` (see ``docs/LIFECYCLE.md``)
- ``top``       — the one live progress view: renders the heartbeat
  snapshots of campaigns (``--heartbeat FILE``), fleets
  (``--heartbeat-dir DIR``) and the learn worker (``learn run --dir
  DIR``) from any mix of files and directories

Every command accepts ``--seed`` and prints deterministic results. The
global ``--trace FILE`` flag records a JSON-lines telemetry trace of the
run (readable with ``repro report FILE``) and ``--metrics`` prints the
metrics summary after the command finishes; both are off by default and
cost nothing when unused (see ``docs/OBSERVABILITY.md``).

Exit codes: 0 is success; 1 is a verdict, a ``quality`` gate that failed
or a ``learn run`` candidate that was quarantined; 2 is an error. A
command that cannot go on raises: ``main`` is the one place that prints
a ``ReproError`` or ``OSError`` as ``error: <message>`` on stderr and
exits 2. Argument errors that ``argparse`` catches exit 2 as well.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import closing
from typing import List, Optional

from repro import __version__, obs
from repro.core import ExplorationConfig, Snowcat, SnowcatConfig
from repro.core.filtermodel import FilterModel
from repro.errors import ReproError, SpecError
from repro.fleet import FleetConfig, render_fleet_report
from repro.kernel import KernelConfig, build_kernel
from repro.reporting import format_series, format_table
from repro.resilience.supervisor import SupervisionPolicy
from repro.run import RunSpec, _trained_snowcat, execute

__all__ = ["main", "build_parser"]


def _add_run_flags(parser: argparse.ArgumentParser, ctis: int) -> None:
    """The flags ``campaign`` and ``fleet run`` share: what a run is.

    Declared once so neither command can drift from the other; each adds
    only how *it* executes the run. Defaults reproduce the historical
    two-thread SC campaign byte-for-byte (see docs/TESTING.md, "Scenario
    axes"). Refused combinations: :meth:`repro.run.RunSpec.validated`.
    """
    parser.add_argument("--ctis", type=int, default=ctis)
    parser.add_argument("--strategy", choices=("S1", "S2", "S3"), default="S1")
    parser.add_argument(
        "--batch-size",
        type=int,
        default=ExplorationConfig.score_batch_size,
        help="candidate graphs scored per batched inference call "
        "(1 disables batching)",
    )
    parser.add_argument(
        "--model",
        metavar="CKPT",
        default=None,
        help="use a saved PIC checkpoint instead of training; in a campaign "
        "an unusable checkpoint degrades to the PCT baseline with a warning",
    )
    parser.add_argument(
        "--serve-socket",
        metavar="PATH",
        default=None,
        help="route candidate scoring through a running 'repro serve' "
        "server on this Unix socket (no local model is trained; every "
        "fleet worker opens its own resilient connection)",
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="journal progress durably to FILE (any previous journal state "
        "at FILE is reset first)",
    )
    parser.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="resume an interrupted journaled run from FILE under the "
        "configuration that wrote it (mutually exclusive with --journal)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection, e.g. 'crash:0.05,hang@3': "
        "keyed by executed CT in a campaign (reports the resilience "
        "counters; see docs/ROBUSTNESS.md), by job id in a fleet, where "
        "'die@j' kills the coordinator at dispatch of job j (see "
        "docs/FLEET.md)",
    )
    parser.add_argument(
        "--capture-labels",
        action="store_true",
        help="record executed-CT coverage labels inside the journal for the "
        "continuous-learning tailer (requires --journal/--resume; see "
        "docs/LIFECYCLE.md)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=2,
        help="threads per CT (corpus entries per CTI); 2 is the paper's "
        "configuration and the byte-identical default",
    )
    parser.add_argument(
        "--irq",
        action="store_true",
        help="inject one interrupt per executed CT at a seed-derived "
        "arrival step, drawn from the kernel's IRQ handler pool",
    )
    parser.add_argument(
        "--memory-model",
        choices=("sc", "tso"),
        default="sc",
        help="memory model for dynamic executions: sequential "
        "consistency (default) or TSO per-thread store buffers",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snowcat reproduction: learned coverage prediction for "
        "kernel concurrency testing",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument("--seed", type=int, default=0, help="global seed")
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record a JSON-lines telemetry trace of this run to FILE",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the telemetry metrics summary after the command",
    )
    parser.add_argument(
        "--proc",
        metavar="NAME",
        default=None,
        help="process name stamped on telemetry events (default: p<pid>); "
        "name client and server distinctly for 'repro report --merge'",
    )
    parser.add_argument(
        "--flight",
        metavar="FILE",
        default=None,
        help="arm the flight recorder: keep a ring of recent telemetry "
        "events and dump them atomically to FILE on crash or SIGUSR1",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="build a kernel and print its inventory")

    fuzz = commands.add_parser("fuzz", help="grow an STI corpus")
    fuzz.add_argument("--rounds", type=int, default=200)

    train = commands.add_parser("train", help="train a PIC model")
    train.add_argument("--ctis", type=int, default=30)
    train.add_argument("--epochs", type=int, default=3)
    train.add_argument("--out", type=str, default=None, help="checkpoint path (.npz)")

    campaign = commands.add_parser("campaign", help="PCT vs MLPCT campaign")
    _add_run_flags(campaign, ctis=8)
    campaign.add_argument(
        "--workers",
        type=int,
        default=0,
        help="supervised worker processes for dynamic executions: "
        "isolation and per-CT deadlines, not speed (0 runs serially; "
        "results are identical either way)",
    )
    campaign.add_argument(
        "--ct-timeout",
        type=float,
        default=None,
        help="per-CT wall-clock timeout in seconds (reports the "
        "resilience counters)",
    )
    campaign.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries before a failing CT is quarantined (reports the "
        "resilience counters)",
    )
    campaign.add_argument(
        "--heartbeat",
        metavar="FILE",
        default=None,
        help="publish throttled campaign progress snapshots (CTIs done, "
        "races, rate, ETA) to FILE for 'repro top'",
    )
    campaign.add_argument(
        "--infer-dtype",
        choices=("float64", "float32"),
        default="float64",
        help="GNN precision of every PIC inference call, single graphs "
        "included; float32 is ~1.7x faster and covered by the quality gate",
    )

    razzer = commands.add_parser("razzer", help="directed race reproduction")
    razzer.add_argument("--schedules", type=int, default=400)
    razzer.add_argument("--races", type=int, default=2, help="races to attempt")

    snowboard = commands.add_parser(
        "snowboard", help="INS-PAIR clustering + sampler comparison"
    )
    snowboard.add_argument("--trials", type=int, default=20)
    snowboard.add_argument("--schedules", type=int, default=40)

    filter_model = commands.add_parser(
        "filter-model", help="analytic rejection-filter economics (§A.6)"
    )
    filter_model.add_argument("--fruitful", type=float, default=0.011)
    filter_model.add_argument("--tpr", type=float, default=0.69)
    filter_model.add_argument("--fpr", type=float, default=0.008)

    quality = commands.add_parser(
        "quality",
        help="model-quality regression gate against the golden baseline",
    )
    quality.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline JSON to gate against (default: the packaged baseline)",
    )
    quality.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="measure the golden pipeline and write a fresh baseline to "
        "FILE instead of gating (use after an intentional quality change)",
    )
    quality.add_argument(
        "--model",
        metavar="VERSION",
        default=None,
        help="score a registry candidate version through the golden gate "
        "instead of the golden pipeline's own model (requires --registry)",
    )
    quality.add_argument(
        "--registry",
        metavar="DIR",
        default=None,
        help="model registry holding the --model candidate",
    )

    serve = commands.add_parser(
        "serve",
        help="shared PIC prediction service over a Unix socket "
        "(see docs/SERVING.md)",
    )
    serve_actions = serve.add_subparsers(dest="action", required=True)
    serve_start = serve_actions.add_parser(
        "start", help="host a PIC model on a Unix socket (foreground)"
    )
    serve_start.add_argument(
        "--socket", required=True, metavar="PATH", help="Unix socket path"
    )
    serve_start.add_argument(
        "--model",
        metavar="CKPT",
        default=None,
        help="PIC checkpoint (.npz) to serve; trains a fresh model when "
        "neither --model nor --registry is given",
    )
    serve_start.add_argument(
        "--registry",
        metavar="DIR",
        default=None,
        help="serve a model registry's active version instead of --model",
    )
    serve_start.add_argument(
        "--model-version",
        default=None,
        help="version label for --model, or the registry version to serve",
    )
    serve_start.add_argument(
        "--cache-mb",
        type=int,
        default=64,
        help="prediction-cache budget in MiB",
    )
    serve_start.add_argument(
        "--slow-request-ms",
        type=float,
        default=None,
        help="log serve calls slower than this to the flight recorder's "
        "slow-request log (requires --flight)",
    )
    serve_start.add_argument(
        "--infer-dtype",
        choices=("float64", "float32"),
        default="float64",
        help="GNN precision of every inference call on the server",
    )
    serve_stop = serve_actions.add_parser(
        "stop", help="shut down the server on a socket"
    )
    serve_stop.add_argument("--socket", required=True, metavar="PATH")
    serve_swap = serve_actions.add_parser(
        "swap",
        help="hot-swap a running server (started with --registry) to a "
        "registry version without dropping clients",
    )
    serve_swap.add_argument("--socket", required=True, metavar="PATH")
    serve_swap.add_argument(
        "--model-version",
        default=None,
        help="registry version to swap to (default: the registry's "
        "current active version, re-read from disk)",
    )
    serve_status = serve_actions.add_parser(
        "status", help="print a running server's model identity and stats"
    )
    serve_status.add_argument("--socket", required=True, metavar="PATH")
    serve_status.add_argument(
        "--watch",
        action="store_true",
        help="live view: one line per refresh with qps, p50/p99 latency, "
        "cache hit rate, model version and request count",
    )
    serve_status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch refreshes",
    )
    serve_status.add_argument(
        "--count",
        type=int,
        default=0,
        help="stop --watch after this many refreshes (0 = until Ctrl-C)",
    )
    serve_metrics = serve_actions.add_parser(
        "metrics",
        help="print the server's metrics in Prometheus text exposition",
    )
    serve_metrics.add_argument("--socket", required=True, metavar="PATH")

    fleet = commands.add_parser(
        "fleet",
        help="fault-tolerant distributed campaign fleet: coordinator + "
        "worker processes with crash-exact aggregation (see docs/FLEET.md)",
    )
    fleet_actions = fleet.add_subparsers(dest="action", required=True)
    fleet_run = fleet_actions.add_parser(
        "run", help="run a campaign sharded across N worker processes"
    )
    _add_run_flags(fleet_run, ctis=6)
    fleet_run.add_argument(
        "--pct-only",
        action="store_true",
        help="run only the PCT baseline (no model is trained or served)",
    )
    fleet_run.add_argument(
        "--workers", type=int, default=3, help="fleet worker processes"
    )
    fleet_run.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="seconds one job may run after dispatch before its worker "
        "is declared wedged, killed, and the job reassigned",
    )
    fleet_run.add_argument(
        "--max-job-attempts",
        type=int,
        default=4,
        help="total attempts one job may consume before the fleet fails "
        "(each worker death costs the job it was running one attempt)",
    )
    fleet_run.add_argument(
        "--heartbeat-dir",
        metavar="DIR",
        default=None,
        help="directory for the coordinator's heartbeat file "
        "(watch with 'repro top DIR')",
    )
    fleet_run.add_argument(
        "--receipts",
        metavar="DIR",
        default=None,
        help="write a checksummed provenance receipt per job to DIR and "
        "verify coverage at the end",
    )
    learn = commands.add_parser(
        "learn",
        help="continuous-learning lifecycle: tail labels, fine-tune, "
        "gate, promote (see docs/LIFECYCLE.md)",
    )
    learn_actions = learn.add_subparsers(dest="action", required=True)
    learn_run = learn_actions.add_parser(
        "run",
        help="one lifecycle pass: tail journals into the label store, "
        "then fine-tune/gate/promote when enough fresh labels arrived",
    )
    learn_run.add_argument(
        "--dir",
        required=True,
        metavar="DIR",
        help="learn state directory (label store, worker journal, "
        "candidates, quarantine, status heartbeat)",
    )
    learn_run.add_argument(
        "--registry",
        required=True,
        metavar="DIR",
        help="model registry: base models come from (and promoted "
        "candidates go to) its active lineage",
    )
    learn_run.add_argument(
        "--journals",
        nargs="*",
        metavar="FILE",
        default=[],
        help="campaign/fleet journal file(s) to tail for captured labels "
        "(written by campaign --journal --capture-labels)",
    )
    learn_run.add_argument(
        "--min-labels",
        type=int,
        default=8,
        help="fresh labels since the last cycle that trigger fine-tuning",
    )
    learn_run.add_argument(
        "--window",
        type=int,
        default=256,
        help="sliding training window: the most recent N labels",
    )
    learn_run.add_argument("--epochs", type=int, default=2)
    learn_run.add_argument("--learning-rate", type=float, default=1e-3)
    learn_run.add_argument(
        "--holdout-every",
        type=int,
        default=4,
        help="every k-th window example is held out for the gate",
    )
    learn_run.add_argument(
        "--min-gain",
        type=float,
        default=-0.05,
        help="gate rule: candidate holdout AP must be >= active AP + "
        "MIN_GAIN (negative tolerates noise; large positive forces a "
        "quarantine)",
    )
    learn_run.add_argument(
        "--replay-ctis",
        type=int,
        default=2,
        help="replay CTIs mixed into training against forgetting",
    )
    learn_run.add_argument(
        "--golden-gate",
        action="store_true",
        help="also require the pinned golden quality gate "
        "(vocabulary-compatible candidates only)",
    )
    learn_run.add_argument(
        "--cycles",
        type=int,
        default=1,
        help="maximum fine-tune cycles this invocation runs",
    )
    learn_publish = learn_actions.add_parser(
        "publish",
        help="publish a checkpoint into a registry as the active base "
        "model (bootstraps the lifecycle)",
    )
    learn_publish.add_argument("--registry", required=True, metavar="DIR")
    learn_publish.add_argument("--model", required=True, metavar="CKPT")
    learn_publish.add_argument(
        "--model-version",
        default=None,
        help="version label (default: auto-numbered v<N>)",
    )

    report = commands.add_parser(
        "report", help="render a recorded telemetry trace (--trace output)"
    )
    report.add_argument(
        "trace_file",
        nargs="+",
        help="JSON-lines trace(s) to render; multiple files (e.g. campaign "
        "client + serve server) are merged into one cross-process tree",
    )
    report.add_argument(
        "--merge",
        action="store_true",
        help="merge the given traces into one cross-process report "
        "(implied when more than one file is given)",
    )
    report.add_argument(
        "--timeline-rows",
        type=int,
        default=60,
        help="maximum spans shown in the timeline",
    )

    top = commands.add_parser(
        "top",
        help="live progress of campaigns, fleets and the learn worker "
        "from their heartbeat files",
    )
    top.add_argument(
        "path",
        nargs="+",
        help="heartbeat file(s) and/or directories of them (a fleet's "
        "--heartbeat-dir, a learn run --dir)",
    )
    top.add_argument(
        "--watch", action="store_true", help="refresh until Ctrl-C"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    top.add_argument(
        "--count",
        type=int,
        default=0,
        help="stop --watch after this many refreshes (0 = until Ctrl-C)",
    )

    return parser


def _cmd_info(args) -> int:
    kernel = build_kernel(KernelConfig(), seed=args.seed)
    print(kernel.describe())
    rows = [
        {
            "bug": spec.bug_id,
            "kind": spec.kind.value,
            "subsystem": spec.subsystem,
            "harmful": spec.harmful,
            "trigger": " + ".join(spec.trigger_syscalls),
        }
        for spec in kernel.bugs
    ]
    print(format_table(rows, title="injected concurrency bugs"))
    return 0


def _cmd_fuzz(args) -> int:
    kernel = build_kernel(KernelConfig(), seed=args.seed)
    snowcat = Snowcat(kernel, SnowcatConfig(seed=args.seed, corpus_rounds=args.rounds))
    size = snowcat.prepare_corpus()
    coverage = snowcat.graphs.corpus.coverage_fraction()
    print(f"corpus: {size} STIs after {args.rounds} rounds "
          f"({coverage:.1%} sequential block coverage)")
    return 0


def _cmd_train(args) -> int:
    from repro.resilience.atomic import probe_writable

    def write_checkpoint(write) -> None:
        try:
            write(args.out)
        except OSError as error:
            raise SpecError(
                f"cannot write checkpoint to {args.out}: {error}"
            ) from error

    if args.out:
        # Fail fast on an unwritable destination: before hours of
        # training, not after.
        write_checkpoint(probe_writable)
    snowcat = _trained_snowcat(args.seed, args.ctis, args.epochs)
    result = snowcat.training_result
    assert result is not None and snowcat.model is not None
    print(
        f"trained {snowcat.model.config.name}: "
        f"validation URB AP {result.best_validation_ap:.3f}, "
        f"threshold {result.threshold:.2f}, "
        f"simulated startup {snowcat.startup_hours:.1f} h"
    )
    if args.out:
        write_checkpoint(snowcat.model.save)
        print(f"checkpoint written to {args.out}")
    return 0


def _spec_from_args(args) -> RunSpec:
    """Read a ``campaign`` / ``fleet run`` namespace into a :class:`RunSpec`
    — the one place the two commands' flags are interpreted; everything
    below it takes the spec."""
    if args.journal and args.resume:
        raise SpecError("--journal and --resume are mutually exclusive")
    if args.command == "fleet":
        strategy = None if args.pct_only else args.strategy
        runner = {}  # a fleet runs its executions: FleetConfig says how
        extras = dict(
            fleet=FleetConfig(
                workers=args.workers,
                lease_seconds=args.lease_seconds,
                heartbeat_dir=args.heartbeat_dir,
                receipts_dir=args.receipts,
                max_job_attempts=args.max_job_attempts,
                fault_spec=args.inject_faults,
            )
        )
    else:
        strategy = args.strategy
        overrides = {}
        if args.ct_timeout is not None:
            overrides["timeout_seconds"] = args.ct_timeout
        if args.retries is not None:
            overrides["max_retries"] = args.retries
        supervised = overrides or args.inject_faults is not None
        runner = dict(
            parallel_workers=args.workers,
            supervision=SupervisionPolicy(**overrides) if supervised else None,
            fault_spec=args.inject_faults,
        )
        extras = dict(
            infer_dtype=args.infer_dtype,
            heartbeat=args.heartbeat,
        )
    return RunSpec(
        seed=args.seed,
        ctis=args.ctis,
        strategy=strategy,
        exploration=ExplorationConfig(
            score_batch_size=args.batch_size,
            num_threads=args.threads,
            irq=args.irq,
            memory_model=args.memory_model,
            **runner,
        ),
        model=args.model,
        serve_socket=args.serve_socket,
        journal=args.journal or args.resume,
        resume=bool(args.resume),
        capture_labels=args.capture_labels,
        **extras,
    )


def _print_result(result) -> None:
    print(
        f"{result.label}: {result.total_races} races, "
        f"{result.ledger.executions} executions, "
        f"{result.ledger.total_hours:.2f} simulated hours"
    )
    for delta in result.swap_deltas():
        print(
            f"  learn.swap {delta['previous']} -> "
            f"{delta['version']}: races/execution "
            f"{delta['before_rate']:.4f} before "
            f"({delta['before_executions']} exec), "
            f"{delta['after_rate']:.4f} after "
            f"({delta['after_executions']} exec)"
        )
    if result.resilience is not None:
        counters = result.resilience
        print(
            f"  resilience: {counters['retries']:.0f} retries, "
            f"{counters['timeouts']:.0f} timeouts, "
            f"{counters['quarantined']:.0f} quarantined, "
            f"{counters['worker_deaths']:.0f} worker deaths, "
            f"{counters['fallbacks']:.0f} fallbacks"
        )


def _cmd_campaign(args) -> int:
    """``campaign`` and ``fleet run``: spec → run → print."""
    curves, reports = {}, []
    spec = _spec_from_args(args)
    for result, report in execute(spec):
        curves[result.label] = result.history
        reports.append(report)
        _print_result(result)
    if spec.fleet is None:
        print(format_series(curves, metric_name="races", points=8))
    else:
        print(render_fleet_report(reports))
        if spec.fleet.receipts_dir:
            print(f"provenance receipts verified in {spec.fleet.receipts_dir}")
    return 0


def _cmd_razzer(args) -> int:
    from repro.integrations.razzer import RazzerConfig, RazzerHarness, RazzerVariant

    snowcat = _trained_snowcat(args.seed)
    harness = RazzerHarness(
        snowcat.graphs,
        predictor=snowcat.model,
        config=RazzerConfig(schedules_per_cti=args.schedules, max_candidates=40),
        seed=args.seed,
    )
    races = [spec for spec in snowcat.kernel.bugs if spec.harmful][: args.races]
    rows = []
    for spec in races:
        for variant in RazzerVariant:
            outcome = harness.run_variant(spec, variant)
            rows.append(
                {
                    "race": f"#{spec.bug_id} ({spec.kind.value})",
                    "variant": outcome.variant.value,
                    "CTIs": outcome.num_ctis,
                    "TP": outcome.num_true_positive,
                    "avg h": outcome.avg_hours,
                    "worst h": outcome.worst_hours,
                }
            )
    print(format_table(rows, title="race reproduction", float_digits=2))
    return 0


def _cmd_snowboard(args) -> int:
    from repro.integrations.snowboard import SnowboardConfig, SnowboardHarness

    snowcat = _trained_snowcat(args.seed)
    harness = SnowboardHarness(
        snowcat.graphs,
        predictor=snowcat.model,
        config=SnowboardConfig(
            schedules_per_cti=args.schedules, trials=args.trials
        ),
        seed=args.seed,
    )
    clusters = harness.build_clusters()
    buggy = harness.buggy_clusters(clusters)
    print(f"{len(clusters)} INS-PAIR clusters, {len(buggy)} buggy")
    rows = []
    for cluster in buggy:
        for sampler, fraction in (
            ("SB-RND", 0.5),
            ("SB-PIC(S1)", 0.0),
            ("SB-PIC(S2)", 0.0),
        ):
            outcome = harness.evaluate_sampler(cluster, sampler, fraction)
            rows.append(
                {
                    "cluster": str(cluster.key),
                    "sampler": outcome.sampler,
                    "P(bug)": outcome.bug_finding_probability,
                    "rate": outcome.sampling_rate,
                }
            )
    print(format_table(rows, title="sampler comparison on buggy clusters"))
    return 0


def _cmd_filter_model(args) -> int:
    model = FilterModel(
        fruitful_probability=args.fruitful,
        true_positive_rate=args.tpr,
        false_positive_rate=args.fpr,
    )
    rows = [
        {"quantity": "cost/fruitful without filter (s)",
         "value": model.unfiltered_cost_per_fruitful},
        {"quantity": "cost/fruitful with filter (s)",
         "value": model.filtered_cost_per_fruitful},
        {"quantity": "speedup", "value": model.speedup},
        {"quantity": "execution rate", "value": model.execution_rate},
        {"quantity": "break-even FPR",
         "value": model.breakeven_false_positive_rate()},
    ]
    print(format_table(rows, title="rejection-filter economics (§A.6)"))
    return 0


def _cmd_quality(args) -> int:
    """The model-quality regression gate (exit 1 on regression).

    The golden pipeline is fully pinned, so ``--seed`` intentionally has
    no effect here: the command always measures the same artefacts the
    baseline was recorded from.
    """
    from repro.oracle.quality import (
        GOLDEN_CONFIG,
        build_golden,
        check_against_baseline,
        load_baseline,
        measure_quality,
        write_baseline,
    )

    if bool(args.model) != bool(args.registry):
        raise SpecError("--model and --registry must be given together")
    if args.model and args.write_baseline:
        raise SpecError(
            "--write-baseline records the golden pipeline's own model; it "
            "cannot be combined with --model"
        )
    model, examples = build_golden(GOLDEN_CONFIG)
    if args.model:
        # Gate a registry candidate through the pinned golden pipeline:
        # same golden examples and baseline, the candidate's predictions.
        from repro.serve import ModelRegistry

        candidate = ModelRegistry(args.registry).load(args.model, seed=args.seed)
        if candidate.config.vocab_size < model.config.vocab_size:
            raise SpecError(
                f"candidate {args.model} vocabulary "
                f"({candidate.config.vocab_size} tokens) is smaller than "
                f"the golden kernel's ({model.config.vocab_size} tokens); "
                "the golden gate only scores vocabulary-compatible models"
            )
        model = candidate
        print(f"gating registry candidate {args.model} from {args.registry}")
    measured = measure_quality(model, examples, GOLDEN_CONFIG)
    if args.write_baseline:
        try:
            write_baseline(args.write_baseline, measured, GOLDEN_CONFIG)
        except OSError as error:
            raise SpecError(
                f"cannot write baseline to {args.write_baseline}: {error}"
            ) from error
        print(f"baseline written to {args.write_baseline}")
        for name in sorted(measured):
            print(f"  {name}: {measured[name]:.4f}")
        return 0
    baseline = load_baseline(args.baseline)
    report = check_against_baseline(measured, baseline, GOLDEN_CONFIG)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_serve(args) -> int:
    from repro.serve import SocketBackend, probe_socket

    if args.action == "start":
        return _serve_start(args)
    if args.action == "stop":
        # Idempotent: stopping a server that is already gone (clean
        # shutdown, SIGKILL leaving a stale socket, never started) is a
        # success, not an error — operators script this in cleanup paths.
        state = probe_socket(args.socket)
        if state == "absent":
            print(f"no server on {args.socket}; nothing to stop")
            return 0
        if state == "dead":
            try:
                os.unlink(args.socket)
            except OSError:
                pass
            print(
                f"server on {args.socket} already gone; "
                "removed stale socket"
            )
            return 0
    with closing(SocketBackend(args.socket)) as backend:
        if args.action == "stop":
            backend.shutdown()
            print(f"server on {args.socket} stopped")
        elif args.action == "metrics":
            print(backend.metrics()["exposition"], end="")
        elif args.action == "swap":
            outcome = backend.swap(args.model_version)
            if outcome.get("swapped"):
                print(
                    f"swapped {outcome.get('previous')} -> "
                    f"{outcome.get('version')} on {args.socket}"
                )
            else:
                print(
                    f"already serving {outcome.get('version')} on {args.socket}"
                )
        elif args.watch:
            from repro.obs.export import render_serve_watch

            previous = []  # the last frame's (status, snapshot), once there is one

            def frame() -> str:
                current = (backend.status(), backend.metrics()["snapshot"])
                line = render_serve_watch(
                    current,
                    previous[0] if previous else None,
                    elapsed=args.interval if previous else None,
                )
                previous[:] = [current]
                return line

            return _watch(frame, args.interval, args.count)
        else:
            status = backend.status()
            cache = status.get("cache", {})
            print(
                f"serving {status.get('model_name')} "
                f"version {status.get('version')} on {args.socket}\n"
                f"  threshold {status.get('threshold'):.2f}, "
                f"vocab {status.get('vocab_size')}, "
                f"{status.get('requests', 0)} requests\n"
                f"  cache: {cache.get('hits', 0):.0f} hits / "
                f"{cache.get('misses', 0):.0f} misses "
                f"(hit rate {cache.get('hit_rate', 0.0):.1%}), "
                f"{cache.get('entries', 0):.0f} entries, "
                f"{cache.get('bytes', 0):.0f}/{cache.get('max_bytes', 0):.0f} B, "
                f"{cache.get('evictions', 0):.0f} evictions"
            )
    return 0


def _serve_start(args) -> int:
    from repro.errors import ServeError
    from repro.serve import ServerConfig, serve_forever

    if args.model and args.registry:
        raise SpecError("--model and --registry are mutually exclusive")
    model_registry = None
    if args.registry:
        from repro.serve import ModelRegistry

        model_registry = ModelRegistry(args.registry)
        version = args.model_version or model_registry.active_version
        if version is None:
            raise SpecError(f"registry {args.registry} has no active model")
        model = model_registry.load(version, seed=args.seed)
    elif args.model:
        from repro.ml.pic import PICModel

        model = PICModel.load(args.model, seed=args.seed)
        version = args.model_version or "cli"
    else:
        print("no --model/--registry given; training a fresh model...")
        model = _trained_snowcat(args.seed).require_model()
        version = args.model_version or "trained"
    config = ServerConfig(
        socket_path=args.socket,
        cache_bytes=args.cache_mb * 1024 * 1024,
        slow_request_ms=args.slow_request_ms,
        infer_dtype=args.infer_dtype,
    )
    if obs.active() is None:
        # A sink-less registry so the 'metrics' op and 'status --watch'
        # have live instruments (latency histogram, counters) even when
        # the operator didn't ask for a trace file. No sink, no events
        # on disk — and the wire protocol is unaffected either way.
        obs.set_registry(obs.MetricsRegistry(process="server"))
    print(
        f"serving {model.config.name} version {version} on {args.socket} "
        f"(cache {args.cache_mb} MiB) — Ctrl-C or "
        f"'repro serve stop --socket {args.socket}' to stop"
    )
    try:
        serve_forever(
            model,
            config,
            version=version,
            model_registry=model_registry,
            model_seed=args.seed,
        )
    except (ServeError, OSError) as error:
        raise SpecError(f"cannot serve on {args.socket}: {error}") from error
    return 0


def _cmd_report(args) -> int:
    import json

    from repro.obs.report import (
        merge_traces,
        render_merged_report,
        render_trace_report,
    )
    from repro.obs.sink import read_events_tolerant

    event_sets = []
    truncated_total = 0
    for path in args.trace_file:
        try:
            events, truncated = read_events_tolerant(path)
        except OSError as error:
            raise SpecError(f"cannot read trace file: {error}") from error
        except json.JSONDecodeError as error:
            raise SpecError(
                f"{path} is not a JSON-lines telemetry trace ({error})"
            ) from error
        if truncated:
            print(
                f"warning: {path}: skipped {truncated} truncated trailing "
                "record (crash mid-write?)",
                file=sys.stderr,
            )
            truncated_total += truncated
        event_sets.append(events)

    if args.merge or len(event_sets) > 1:
        merged = merge_traces(
            event_sets,
            labels=[os.path.basename(path) for path in args.trace_file],
        )
        print(
            render_merged_report(
                merged,
                title="merged telemetry report — "
                + ", ".join(args.trace_file),
                timeline_rows=args.timeline_rows,
            )
        )
        return 0
    print(
        render_trace_report(
            event_sets[0],
            title=f"telemetry run report — {args.trace_file[0]}",
            timeline_rows=args.timeline_rows,
        )
    )
    return 0


def _watch(render_frame, interval: float, count: int, watch: bool = True) -> int:
    """Print ``render_frame()`` once or, with ``watch``, every ``interval``
    seconds until ``count`` frames (0 = no limit) or Ctrl-C."""
    refreshes = 0
    try:
        while True:
            print(render_frame(), flush=True)
            refreshes += 1
            if not watch or (count and refreshes >= count):
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _cmd_top(args) -> int:
    from repro.obs.export import render_top

    return _watch(
        lambda: render_top(args.path), args.interval, args.count, args.watch
    )


def _cmd_learn(args) -> int:
    from repro.serve import ModelRegistry

    if args.action == "publish":
        from repro.ml.pic import PICModel

        registry = ModelRegistry(args.registry)
        model = PICModel.load(args.model, seed=args.seed)
        record = registry.publish(model, version=args.model_version, activate=True)
        print(
            f"published {record.model_name} as {record.version} "
            f"(active) in {args.registry}"
        )
        return 0

    # -- run -----------------------------------------------------------------
    from repro.learn import FineTuneWorker, LabelStore, LabelTailer, LearnConfig

    registry = ModelRegistry(args.registry)
    with closing(LabelStore(args.dir)) as store:
        ingested = LabelTailer(store, args.journals).poll()
        print(
            f"tailed {len(args.journals)} journal(s): {ingested} new labels "
            f"({store.count} total)"
        )
        worker = FineTuneWorker(
            args.dir,
            store,
            registry,
            Snowcat.standard(args.seed),
            config=LearnConfig(
                min_labels=args.min_labels,
                window=args.window,
                epochs=args.epochs,
                learning_rate=args.learning_rate,
                holdout_every=args.holdout_every,
                seed=args.seed,
                min_gain=args.min_gain,
                replay_ctis=args.replay_ctis,
                golden_gate=args.golden_gate,
            ),
        )
        with closing(worker):
            for _ in range(max(args.cycles, 1)):
                summary = worker.run_once()
                if summary is None:
                    print(
                        f"idle: {store.count} labels ingested; fine-tuning "
                        f"triggers after {args.min_labels} fresh labels"
                    )
                    break
                print(
                    f"cycle {summary['cycle']}: {summary['outcome']} "
                    f"{summary['candidate']} (base {summary['base']}, holdout "
                    f"AP {summary['candidate_ap']:.3f} vs "
                    f"{summary['active_ap']:.3f}, {summary['examples']} fresh + "
                    f"{summary['replay']} replay examples)"
                )
                if summary["outcome"] == "quarantined":
                    return 1
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "fuzz": _cmd_fuzz,
    "train": _cmd_train,
    "campaign": _cmd_campaign,
    "razzer": _cmd_razzer,
    "snowboard": _cmd_snowboard,
    "filter-model": _cmd_filter_model,
    "quality": _cmd_quality,
    "serve": _cmd_serve,
    "fleet": _cmd_campaign,  # ``run``, its one action
    "learn": _cmd_learn,
    "report": _cmd_report,
    "top": _cmd_top,
}


def _install_sigterm_flush() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks run.

    A supervised kill (``kill <pid>``, container stop) otherwise
    terminates the process without unwinding, losing the final metrics
    snapshot and leaving the trace's temp file unrenamed. Main thread
    only; inability to install (not main thread, exotic platform) is
    non-fatal.
    """
    import signal

    def _on_sigterm(signum, frame):
        raise SystemExit(143)

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):
        pass


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    registry = None
    if args.trace or args.metrics:
        try:
            sink = obs.JsonLinesSink(args.trace) if args.trace else None
        except OSError as error:
            print(f"error: cannot open trace file: {error}", file=sys.stderr)
            return 2
        registry = obs.set_registry(
            obs.MetricsRegistry(sink=sink, process=args.proc)
        )
        _install_sigterm_flush()
    if args.flight:
        from repro.obs.flight import install as install_flight

        install_flight(args.flight)
        if registry is None:
            _install_sigterm_flush()
    try:
        with obs.span(f"cli.{args.command}", seed=args.seed):
            return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if registry is not None:
            summary = registry.close()
            obs.clear_registry()
            if args.metrics:
                from repro.obs.report import render_metrics_summary

                print(render_metrics_summary(summary))
            if args.trace:
                print(
                    f"telemetry trace written to {args.trace} "
                    f"(render with: repro report {args.trace})",
                    file=sys.stderr,
                )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
