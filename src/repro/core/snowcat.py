"""The Snowcat orchestrator: the end-to-end workflow of §3.

Ties every stage together behind one object:

1. fuzz STIs and record their sequential traces (Syzkaller stand-in),
2. build the whole-kernel CFG for URB identification (Angr stand-in),
3. collect a labeled CT-graph dataset by dynamic execution (SKI stand-in),
4. pre-train the assembly encoder and train the PIC model,
5. hand out PCT / MLPCT explorers for testing campaigns,
6. adapt to a new kernel version by fine-tuning on a smaller dataset
   (§5.4), carrying the pre-trained knowledge forward.

This is the class the examples use; the benchmark harness reaches into
the pieces directly where an experiment needs finer control.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro import rng as rngmod
from repro.core.costs import CostLedger, CostModel
from repro.core.mlpct import (
    CampaignResult,
    ExplorationConfig,
    MLPCTExplorer,
    PCTExplorer,
    run_campaign,
)
from repro.core.strategies import make_strategy
from repro.errors import ModelError
from repro.fuzz.corpus import CorpusEntry
from repro.graphs.dataset import DatasetSplits, GraphDatasetBuilder
from repro.kernel.code import Kernel
from repro.ml.encoder import AsmEncoder, EncoderConfig, pretrain_encoder
from repro.ml.pic import PICConfig, PICModel
from repro.ml.training import TrainingConfig, TrainingResult, fine_tune_pic, train_pic

__all__ = ["SnowcatConfig", "Snowcat"]


@dataclass(frozen=True)
class SnowcatConfig:
    """End-to-end configuration of one Snowcat instance."""

    seed: int = 0
    #: Fuzzing rounds used to populate the STI corpus.
    corpus_rounds: int = 250
    #: CTIs sampled for the training dataset, and schedules per CTI.
    dataset_ctis: int = 40
    train_interleavings: int = 6
    evaluation_interleavings: int = 8
    train_fraction: float = 0.6
    validation_fraction: float = 0.15
    #: Encoder pre-training epochs (masked-token objective).
    pretrain_epochs: int = 2
    #: PIC shape.
    token_dim: int = 32
    hidden_dim: int = 48
    num_layers: int = 4
    dropout: float = 0.1
    positive_weight: float = 4.0
    urb_weight: float = 4.0
    #: PIC training.
    epochs: int = 5
    learning_rate: float = 3e-3
    #: Exploration budgets.
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)
    costs: CostModel = field(default_factory=CostModel)


class Snowcat:
    """One Snowcat deployment against one kernel version."""

    def __init__(self, kernel: Kernel, config: Optional[SnowcatConfig] = None) -> None:
        self.kernel = kernel
        self.config = config or SnowcatConfig()
        self.graphs = GraphDatasetBuilder(kernel, seed=self.config.seed)
        self.splits: Optional[DatasetSplits] = None
        self.encoder: Optional[AsmEncoder] = None
        self.model: Optional[PICModel] = None
        self.training_result: Optional[TrainingResult] = None
        #: Simulated hours spent on data collection + training (§5.4).
        self.startup_hours: float = 0.0

    @classmethod
    def standard(
        cls,
        seed: int,
        exploration: Optional[ExplorationConfig] = None,
        corpus_rounds: int = 200,
    ) -> "Snowcat":
        """The CLI's canonical deployment: default kernel, 200-round corpus.

        Campaigns and fleets (:func:`repro.run.execute` — trained, loaded
        from a checkpoint or served alike), every other command that
        trains, and the continuous-learning worker all build their
        deployment through this one constructor, which is what
        guarantees the learn worker maps journaled ``sti_id`` values onto
        the *same* corpus entries the campaign executed.
        """
        from repro.kernel import KernelConfig, build_kernel

        kernel = build_kernel(KernelConfig(), seed=seed)
        deployment = cls(
            kernel,
            SnowcatConfig(
                seed=seed,
                corpus_rounds=corpus_rounds,
                exploration=exploration or ExplorationConfig(),
            ),
        )
        deployment.prepare_corpus()
        return deployment

    # -- pipeline stages ------------------------------------------------------

    def prepare_corpus(self) -> int:
        """Stage 1-2: fuzz STIs; returns corpus size."""
        self.graphs.grow_corpus(self.config.corpus_rounds)
        return len(self.graphs.corpus)

    def collect_dataset(self) -> DatasetSplits:
        """Stage 3-4: label CT graphs by dynamic execution."""
        if len(self.graphs.corpus) < 2:
            self.prepare_corpus()
        cfg = self.config
        self.splits = self.graphs.build_splits(
            num_ctis=cfg.dataset_ctis,
            train_fraction=cfg.train_fraction,
            validation_fraction=cfg.validation_fraction,
            train_interleavings=cfg.train_interleavings,
            evaluation_interleavings=cfg.evaluation_interleavings,
        )
        return self.splits

    def pic_config(self, name: str = "PIC") -> PICConfig:
        cfg = self.config
        return PICConfig(
            vocab_size=len(self.graphs.vocabulary),
            pad_id=self.graphs.vocabulary.pad_id,
            token_dim=cfg.token_dim,
            hidden_dim=cfg.hidden_dim,
            num_layers=cfg.num_layers,
            dropout=cfg.dropout,
            positive_weight=cfg.positive_weight,
            urb_weight=cfg.urb_weight,
            name=name,
        )

    def pretrain(self) -> AsmEncoder:
        """Stage 5a: masked-token pre-training of the assembly encoder."""
        cfg = self.config
        with obs.span("pretrain.encoder", epochs=cfg.pretrain_epochs) as span:
            self.encoder = AsmEncoder(
                EncoderConfig(
                    vocab_size=len(self.graphs.vocabulary),
                    token_dim=cfg.token_dim,
                    output_dim=cfg.hidden_dim,
                ),
                seed=rngmod.derive_seed(cfg.seed, "encoder"),
            )
            pretrain_encoder(
                self.encoder,
                self.kernel,
                self.graphs.vocabulary,
                epochs=cfg.pretrain_epochs,
                seed=cfg.seed,
            )
            span.set(vocabulary=len(self.graphs.vocabulary))
        return self.encoder

    def train(self, name: str = "PIC") -> TrainingResult:
        """Stage 5b: train the PIC model; charges startup hours."""
        with obs.span("train.pipeline", model=name, kernel=self.kernel.version) as span:
            if self.splits is None:
                self.collect_dataset()
            if self.encoder is None:
                self.pretrain()
            cfg = self.config
            assert self.splits is not None
            model = PICModel(
                self.pic_config(name),
                seed=rngmod.derive_seed(cfg.seed, "pic"),
                pretrained_encoder=self.encoder,
            )
            self.training_result = train_pic(
                model,
                self.splits.train,
                self.splits.validation,
                TrainingConfig(
                    epochs=cfg.epochs, learning_rate=cfg.learning_rate, seed=cfg.seed
                ),
            )
            self.model = self.training_result.model
            labeled = (
                len(self.splits.train)
                + len(self.splits.validation)
                + len(self.splits.evaluation)
            )
            self.startup_hours = cfg.costs.startup_hours(
                labeled_graphs=labeled,
                training_steps=cfg.epochs * len(self.splits.train),
            )
            span.set(
                labeled_graphs=labeled,
                best_validation_ap=round(
                    self.training_result.best_validation_ap, 4
                ),
                simulated_startup_hours=round(self.startup_hours, 3),
            )
        return self.training_result

    def require_model(self) -> PICModel:
        if self.model is None:
            raise ModelError("no trained PIC model; call train() first")
        return self.model

    # -- explorers -----------------------------------------------------------

    def _ledger(self, include_startup: bool) -> CostLedger:
        return CostLedger(
            model=self.config.costs,
            startup_hours=self.startup_hours if include_startup else 0.0,
        )

    def mlpct_explorer(
        self,
        strategy: str = "S1",
        include_startup_cost: bool = False,
        s3_limit: int = 3,
        label: Optional[str] = None,
        backend: Optional[object] = None,
    ) -> MLPCTExplorer:
        """``backend`` (a :mod:`repro.serve` prediction backend) routes
        scoring through the shared inference service; campaigns without
        one call this deployment's model directly, as before. With a
        backend, a deployment that never trained locally (socket
        campaigns) is allowed — predictions come from the service."""
        model = self.model if backend is not None else self.require_model()
        return MLPCTExplorer(
            self.graphs,
            predictor=model,
            strategy=make_strategy(strategy, s3_limit=s3_limit),
            backend=backend,
            config=self.config.exploration,
            seed=self.config.seed,
            ledger=self._ledger(include_startup_cost),
            label=label
            or (
                f"MLPCT-{strategy} ({model.config.name})"
                if model is not None
                else f"MLPCT-{strategy} (served)"
            ),
        )

    def pct_explorer(self, label: str = "PCT") -> PCTExplorer:
        return PCTExplorer(
            self.graphs,
            config=self.config.exploration,
            seed=self.config.seed,
            ledger=self._ledger(False),
            label=label,
        )

    def cti_stream(
        self, count: int, seed_label: str = "campaign", threads: int = 2
    ) -> List[Tuple[CorpusEntry, ...]]:
        """A deterministic stream of CTIs for campaigns.

        ``threads`` entries per CTI; the default keeps the historical
        two-thread stream bit-for-bit (``sample_pairs`` and the same RNG
        label).
        """
        rng = rngmod.split(self.config.seed, f"ctis:{seed_label}")
        if threads == 2:
            return self.graphs.corpus.sample_pairs(rng, count)
        return self.graphs.corpus.sample_groups(rng, count, threads)

    def run_campaign(
        self,
        explorer,
        num_ctis: int,
        seed_label: str = "campaign",
        heartbeat=None,
        threads: int = 2,
    ) -> CampaignResult:
        return run_campaign(
            explorer,
            self.cti_stream(num_ctis, seed_label, threads=threads),
            heartbeat=heartbeat,
        )

    # -- generalisation across versions (§5.4) ---------------------------------

    def adapt_to(
        self,
        new_kernel: Kernel,
        dataset_ctis: Optional[int] = None,
        epochs: int = 2,
        learning_rate: float = 1e-3,
        name: Optional[str] = None,
    ) -> "Snowcat":
        """Fine-tune this deployment's model for ``new_kernel``.

        Collects a (typically much smaller) dataset on the new version and
        continues training from the current parameters — the PIC-x.ft.*
        recipe of Table 2. Returns a new :class:`Snowcat` whose startup
        cost reflects only the incremental data + fine-tuning.
        """
        base_model = self.require_model()
        with obs.span(
            "adapt.pipeline",
            source=self.kernel.version,
            target=new_kernel.version,
        ):
            return self._adapt_to(
                new_kernel, base_model, dataset_ctis, epochs, learning_rate, name
            )

    def _adapt_to(
        self,
        new_kernel: Kernel,
        base_model: PICModel,
        dataset_ctis: Optional[int],
        epochs: int,
        learning_rate: float,
        name: Optional[str],
    ) -> "Snowcat":
        cfg = self.config
        adapted_config = replace(
            cfg,
            dataset_ctis=dataset_ctis if dataset_ctis is not None else max(cfg.dataset_ctis // 4, 2),
            epochs=epochs,
            learning_rate=learning_rate,
            # Small incremental datasets need a proportionally bigger
            # validation share or model selection degenerates.
            train_fraction=0.55,
            validation_fraction=0.3,
            seed=rngmod.derive_seed(cfg.seed, f"adapt:{new_kernel.version}"),
        )
        adapted = Snowcat(new_kernel, adapted_config)
        # The vocabulary transfers across versions (same ISA); reuse it so
        # the fine-tuned encoder's token table stays aligned.
        adapted.graphs = GraphDatasetBuilder(
            new_kernel, seed=adapted_config.seed, vocabulary=self.graphs.vocabulary
        )
        adapted.prepare_corpus()
        splits = adapted.collect_dataset()
        result = fine_tune_pic(
            base_model,
            splits.train,
            splits.validation,
            TrainingConfig(
                epochs=epochs,
                learning_rate=learning_rate,
                seed=adapted_config.seed,
            ),
            name=name or f"{base_model.config.name}.ft.{new_kernel.version}",
        )
        adapted.model = result.model
        adapted.training_result = result
        adapted.encoder = None
        labeled = len(splits.train) + len(splits.validation) + len(splits.evaluation)
        adapted.startup_hours = cfg.costs.startup_hours(
            labeled_graphs=labeled, training_steps=epochs * len(splits.train)
        )
        return adapted
