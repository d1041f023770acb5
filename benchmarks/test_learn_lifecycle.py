"""Perf bench for the continuous-learning lifecycle's mid-campaign hot-swap.

Scenario: the kernel drifted from v5.12 to v5.13, but the prediction
service still serves the model trained on v5.12. A campaign on the
drifted kernel runs against that stale model; halfway through, the
lifecycle promotes a candidate fine-tuned on v5.13 data and hot-swaps it
into the live server — exactly what ``repro learn run`` plus ``repro
serve swap`` do in production. The bench records the ``learn.swap``
boundary bookkeeping from :class:`~repro.core.mlpct.CampaignResult`:
races per execution before vs after the swap, next to a stale-model
control (never swaps) and a fine-tuned-from-start reference, both split
at the same execution index for an apples-to-apples tail comparison.

The gate is the bookkeeping contract, not the (noisy, tiny-substrate)
race counts: exactly one swap is recorded, its deltas partition the
per-execution history, and the reported rates equal what the raw
history says.

``REPRO_BENCH_SMOKE=1`` shrinks sizes so CI can run this as a quick
regression gate; the committed results file comes from a full run.
"""

from __future__ import annotations

import os

from repro.core.mlpct import ExplorationConfig, run_campaign
from repro.core.snowcat import Snowcat, SnowcatConfig
from repro.kernel import EvolutionConfig, KernelConfig, build_kernel, evolve_kernel
from repro.reporting import format_table
from repro.serve import InProcessServer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SEED = 7
NUM_CTIS = 4 if SMOKE else 10

KERNEL_CONFIG = KernelConfig(
    num_subsystems=2,
    functions_per_subsystem=3,
    syscalls_per_subsystem=3,
    vars_per_subsystem=6,
    segments_per_function=(2, 3),
    num_atomicity_bugs=1,
    num_order_bugs=1,
    num_data_races=1,
    version="v5.12",
)

DRIFT = EvolutionConfig(
    version="v5.13",
    rebuild_fraction=0.3,
    new_syscalls_per_subsystem=1,
    new_data_races=1,
)


class _SwapAt:
    """Hot-swap the backend once a fixed number of CTIs completed —
    the deterministic stand-in for ``repro serve swap`` mid-campaign."""

    def __init__(self, backend, model, version, at):
        self.backend = backend
        self.model = model
        self.version = version
        self.at = at
        self.swapped = False

    def begin(self, label, total, done=0):
        pass

    def update(self, done, races, executions):
        if not self.swapped and done >= self.at:
            self.backend.swap_model(self.model, self.version)
            self.swapped = True
        return False

    def close(self):
        pass


def _build_substrate():
    kernel512 = build_kernel(KERNEL_CONFIG, seed=SEED)
    snowcat512 = Snowcat(
        kernel512,
        SnowcatConfig(
            seed=SEED,
            corpus_rounds=60,
            dataset_ctis=4 if SMOKE else 8,
            train_interleavings=3,
            evaluation_interleavings=3,
            pretrain_epochs=1,
            epochs=1 if SMOKE else 3,
            exploration=ExplorationConfig(execution_budget=3, proposal_pool=6),
        ),
    )
    snowcat512.train("PIC-5")
    kernel513 = evolve_kernel(kernel512, DRIFT, seed=13)
    adapted = snowcat512.adapt_to(
        kernel513,
        dataset_ctis=3 if SMOKE else 6,
        epochs=1 if SMOKE else 2,
        name="PIC-5.13.ft",
    )
    return snowcat512.model, adapted


def _served_campaign(adapted, ctis, model, version, heartbeat=None):
    server = InProcessServer(model, version=version)
    if heartbeat is not None:
        heartbeat.backend = server
    explorer = adapted.mlpct_explorer(backend=server, label=f"MLPCT ({version})")
    try:
        return run_campaign(explorer, ctis, heartbeat=heartbeat)
    finally:
        server.close()


def _split_rates(result, boundary):
    """Races per execution before/after an execution index, from the raw
    cumulative history — the reference the swap deltas must agree with."""
    total = len(result.history)
    races_at = result.history[boundary - 1][1] if boundary >= 1 else 0
    before = races_at / boundary if boundary else 0.0
    after_n = total - boundary
    after = (result.total_races - races_at) / after_n if after_n else 0.0
    return before, after


def test_learn_lifecycle_swap(report):
    stale_model, adapted = _build_substrate()
    ctis = adapted.cti_stream(NUM_CTIS, "learn-lifecycle")

    swapped = _served_campaign(
        adapted,
        ctis,
        stale_model,
        "stale",
        heartbeat=_SwapAt(None, adapted.model, "ft-c1", at=NUM_CTIS // 2),
    )
    assert len(swapped.swaps) == 1
    swap = swapped.swaps[0]
    assert swap["previous"] == "stale" and swap["version"] == "ft-c1"
    deltas = swapped.swap_deltas()
    assert len(deltas) == 1
    delta = deltas[0]
    boundary = int(swap["execution_index"])
    assert (
        delta["before_executions"] + delta["after_executions"]
        == len(swapped.history)
    )
    want_before, want_after = _split_rates(swapped, boundary)
    assert abs(delta["before_rate"] - want_before) < 1e-12
    assert abs(delta["after_rate"] - want_after) < 1e-12

    stale = _served_campaign(adapted, ctis, stale_model, "stale")
    finetuned = _served_campaign(adapted, ctis, adapted.model, "ft-c1")

    rows = []
    for label, result in (
        ("stale throughout", stale),
        ("hot-swap mid-campaign", swapped),
        ("fine-tuned throughout", finetuned),
    ):
        before, after = _split_rates(result, boundary)
        rows.append(
            {
                "campaign": label,
                "races": result.total_races,
                "executions": len(result.history),
                "races/exec before swap": round(before, 4),
                "races/exec after swap": round(after, 4),
            }
        )
    report(
        "learn_lifecycle",
        format_table(
            rows,
            title=(
                "Continuous learning: races/execution around a mid-campaign "
                f"hot-swap on drifted kernel v5.13 (boundary at execution "
                f"{boundary} of {len(swapped.history)})"
            ),
            float_digits=4,
        ),
    )
