"""Shared fixtures: one small kernel + corpus + dataset + models per session.

Building kernels, labeled datasets, and trained models is the expensive
part of the test suite, so the heavyweight objects are session-scoped
and treated as read-only by tests (tests that need mutation build their
own).

The kernel/dataset/model pins live in :mod:`repro.oracle.quality`
(:data:`GOLDEN_KERNEL_CONFIG` / :data:`GOLDEN_CONFIG`): the fixtures
here ARE the golden model-quality pipeline, so quality-gate tests can
reuse them instead of rebuilding from scratch, and a pin change shows
up simultaneously in the suite and in ``repro quality``.

Markers (registered in ``pyproject.toml``):

- ``slow``   — subprocess-heavy resilience/soak tests. Plain ``pytest``
  runs them; ``-m "not slow"`` skips them, and CI runs them once, in
  its "Recovery suite" step (``-m slow``)
- ``oracle`` — ground-truth conformance suite (``-m oracle``)
- ``tier1``  — everything else; applied automatically below
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import settings

from repro.kernel import build_kernel
from repro.graphs.dataset import GraphDatasetBuilder
from repro.oracle.quality import GOLDEN_CONFIG, GOLDEN_KERNEL_CONFIG

# ``--hypothesis-profile ci``: a raised example budget for the tests that
# leave ``max_examples`` to the profile (``test_stepper_equivalence.py``,
# ``test_scoring.py::TestBatchIndependence`` and ``::TestTemplateDelta``);
# CI's ``oracle`` and ``tests`` jobs select it. The default profile is
# untouched.
settings.register_profile("ci", max_examples=1500, deadline=None)

# Kept under its historic name: many tests import this to build kernel
# variants; it is the same object the quality gate pins.
SMALL_KERNEL_CONFIG = GOLDEN_KERNEL_CONFIG


def pytest_collection_modifyitems(config, items):
    """Auto-apply ``tier1`` to any test not already slow/oracle.

    Keeps marker selection exhaustive (``-m tier1``, ``-m slow`` and
    ``-m oracle`` partition the suite) without hand-tagging every file.
    """
    for item in items:
        if item.get_closest_marker("slow") is None and (
            item.get_closest_marker("oracle") is None
        ):
            item.add_marker(pytest.mark.tier1)


#: Threads a stopped server must not leave running (an
#: ``InProcessServer`` starts none: it serves on its callers' threads).
_SERVE_THREADS = ("repro-serve-socket",)


def _serve_threads() -> set:
    return {t for t in threading.enumerate() if t.name in _SERVE_THREADS}


@pytest.fixture(autouse=True)
def no_leaked_serve_threads():
    """Fail a test that leaves a socket-server thread alive: stop every
    server in teardown."""
    before = _serve_threads()
    yield
    leaked = _serve_threads() - before
    for thread in leaked:
        thread.join(timeout=1.0)  # one already told to stop may be exiting
    alive = sorted(thread.name for thread in leaked if thread.is_alive())
    if alive:
        pytest.fail(f"test left serving threads running: {alive}")


@pytest.fixture(scope="session")
def kernel():
    """A small deterministic kernel shared across the suite."""
    return build_kernel(GOLDEN_KERNEL_CONFIG, seed=GOLDEN_CONFIG.kernel_seed)


@pytest.fixture(scope="session")
def dataset_builder(kernel):
    """Dataset builder with a grown corpus (read-only for tests)."""
    builder = GraphDatasetBuilder(kernel, seed=GOLDEN_CONFIG.corpus_seed)
    builder.grow_corpus(rounds=GOLDEN_CONFIG.corpus_rounds)
    return builder


@pytest.fixture(scope="session")
def corpus(dataset_builder):
    return dataset_builder.corpus


@pytest.fixture(scope="session")
def small_splits(dataset_builder):
    """A small labeled dataset (train/validation/evaluation)."""
    return dataset_builder.build_splits(
        num_ctis=GOLDEN_CONFIG.num_ctis,
        train_fraction=GOLDEN_CONFIG.train_fraction,
        validation_fraction=GOLDEN_CONFIG.validation_fraction,
        train_interleavings=GOLDEN_CONFIG.train_interleavings,
        evaluation_interleavings=GOLDEN_CONFIG.evaluation_interleavings,
    )


@pytest.fixture(scope="session")
def tiny_model(dataset_builder, small_splits):
    """A briefly trained PIC model for integration-level tests.

    Built from the :data:`GOLDEN_CONFIG` pins, so this model and
    ``small_splits.evaluation`` are exactly the artefacts the
    ``repro quality`` gate rebuilds.
    """
    from repro.ml.pic import PICConfig, PICModel
    from repro.ml.training import TrainingConfig, train_pic

    config = PICConfig(
        vocab_size=len(dataset_builder.vocabulary),
        pad_id=dataset_builder.vocabulary.pad_id,
        token_dim=GOLDEN_CONFIG.token_dim,
        hidden_dim=GOLDEN_CONFIG.hidden_dim,
        num_layers=GOLDEN_CONFIG.num_layers,
        name=GOLDEN_CONFIG.model_name,
    )
    model = PICModel(config, seed=GOLDEN_CONFIG.model_seed)
    train_pic(
        model,
        small_splits.train,
        small_splits.validation,
        TrainingConfig(
            epochs=GOLDEN_CONFIG.epochs,
            learning_rate=GOLDEN_CONFIG.learning_rate,
            seed=GOLDEN_CONFIG.model_seed,
        ),
    )
    return model


@pytest.fixture(scope="session")
def trained_snowcat(kernel):
    """One fully trained Snowcat deployment shared by orchestrator-level
    tests (previously each module trained its own).

    Read-only: tests that mutate the deployment (or need different
    hyperparameters) must build their own instance.
    """
    from repro.core import Snowcat, SnowcatConfig

    snowcat = Snowcat(
        kernel,
        SnowcatConfig(
            seed=5,
            corpus_rounds=80,
            dataset_ctis=8,
            train_interleavings=3,
            evaluation_interleavings=3,
            pretrain_epochs=1,
            token_dim=8,
            hidden_dim=16,
            num_layers=2,
            epochs=2,
        ),
    )
    snowcat.train()
    return snowcat


@pytest.fixture(scope="session")
def sibling_hints(kernel):
    """``sibling_hints(entries, hints)``: a hint tuple naming *other*
    instructions of the same basic blocks (the same hint where a block
    ran only one) — a structural repeat under the §3.1 encoding."""
    from repro.execution.concurrent import ScheduleHint

    def sibling(entries, hints):
        result = []
        for hint, entry in zip(hints, entries):
            block = kernel.block_of_instruction(hint.iid)
            others = [
                iid
                for iid in dict.fromkeys(entry.trace.iid_trace)
                if iid != hint.iid and kernel.block_of_instruction(iid) == block
            ]
            iid = others[0] if others else hint.iid
            result.append(ScheduleHint(thread=hint.thread, iid=iid))
        return tuple(result)

    return sibling
