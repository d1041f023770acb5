"""Training, model selection, threshold tuning, and fine-tuning (§5.1.2).

The loop mirrors the paper's methodology:

- per-graph BCE minimised with Adam;
- after each epoch, Average Precision on *validation URBs* is computed and
  the best checkpoint across epochs is kept ("we chose the model training
  checkpoint with the highest AP ... computed over URBs only");
- the classification threshold is then tuned for the best mean F2 on
  validation URBs ("F2 favors a higher recall over a higher precision");
- :func:`fine_tune_pic` forks an existing model and continues training on a
  new kernel version's data — the PIC-6.ft.* variants of Table 2;
- :func:`hyperparameter_search` is the miniature of the paper's 80-config
  sweep, and reproduces its observation that deeper GNNs do better.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro import rng as rngmod
from repro.errors import DatasetError
from repro.graphs.dataset import CTExample
from repro.ml.autograd import Parameter
from repro.ml.metrics import average_precision, tune_threshold
from repro.ml.optim import Adam
from repro.ml.pic import PICConfig, PICModel

__all__ = [
    "TrainingConfig",
    "TrainingResult",
    "train_pic",
    "fine_tune_pic",
    "fine_tune_with_replay",
    "hyperparameter_search",
    "validation_urb_ap",
]


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of one training run."""

    epochs: int = 5
    learning_rate: float = 3e-3
    clip_norm: float = 5.0
    weight_decay: float = 0.0
    seed: int = 0
    threshold_beta: float = 2.0


@dataclass
class TrainingResult:
    """Outcome of a training run."""

    model: PICModel
    best_epoch: int
    history: List[Dict[str, float]] = field(default_factory=list)
    threshold: float = 0.5
    threshold_fbeta: float = 0.0
    num_training_graphs: int = 0

    @property
    def best_validation_ap(self) -> float:
        if not self.history:
            return 0.0
        return max(entry["validation_urb_ap"] for entry in self.history)


def validation_urb_ap(model: PICModel, examples: Sequence[CTExample]) -> float:
    """Mean per-graph Average Precision on URB nodes."""
    values = []
    for example in examples:
        mask = example.graph.urb_mask()
        if not mask.any() or example.labels[mask].sum() == 0:
            continue
        scores = model.predict_proba(example.graph)[mask]
        values.append(average_precision(example.labels[mask], scores))
    return float(np.mean(values)) if values else 0.0


def _tune_model_threshold(
    model: PICModel, validation: Sequence[CTExample], beta: float
) -> Tuple[float, float]:
    """Global F-beta threshold over pooled validation URB nodes."""
    all_labels, all_scores = [], []
    for example in validation:
        mask = example.graph.urb_mask()
        if not mask.any():
            continue
        all_labels.append(example.labels[mask])
        all_scores.append(model.predict_proba(example.graph)[mask])
    if not all_labels:
        return 0.5, 0.0
    labels = np.concatenate(all_labels)
    scores = np.concatenate(all_scores)
    return tune_threshold(labels, scores, beta=beta)


def train_pic(
    model: PICModel,
    train: Sequence[CTExample],
    validation: Sequence[CTExample],
    config: Optional[TrainingConfig] = None,
) -> TrainingResult:
    """Train ``model`` in place; keeps the best-AP checkpoint."""
    config = config or TrainingConfig()
    if not train:
        raise DatasetError("empty training set")
    rng = rngmod.split(config.seed, "train-shuffle")
    optimizer = Adam(
        model.parameters(),
        learning_rate=config.learning_rate,
        weight_decay=config.weight_decay,
        clip_norm=config.clip_norm,
    )
    history: List[Dict[str, float]] = []
    best_state: Optional[Dict[str, np.ndarray]] = None
    best_ap = -1.0
    best_epoch = 0
    from repro.ml.batching import iter_batches

    with obs.span(
        "train.pic",
        model=model.config.name,
        epochs=config.epochs,
        graphs=len(train),
    ) as span:
        for epoch in range(config.epochs):
            epoch_started = time.perf_counter() if obs.is_enabled() else 0.0
            losses = []
            for example in iter_batches(train, rng):
                optimizer.zero_grad()
                loss = model.loss(example, training=True)
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            epoch_ap = validation_urb_ap(model, validation)
            history.append(
                {
                    "epoch": float(epoch),
                    "train_loss": float(np.mean(losses)),
                    "validation_urb_ap": epoch_ap,
                }
            )
            if obs.is_enabled():
                epoch_seconds = time.perf_counter() - epoch_started
                obs.add("train.epochs")
                obs.add("train.gradient_steps", len(losses))
                obs.observe("train.epoch_seconds", epoch_seconds)
                obs.point(
                    "train.epoch",
                    model=model.config.name,
                    epoch=epoch,
                    train_loss=history[-1]["train_loss"],
                    validation_urb_ap=epoch_ap,
                    seconds=round(epoch_seconds, 6),
                )
            if epoch_ap > best_ap:
                best_ap = epoch_ap
                best_epoch = epoch
                best_state = model.state_dict()
        if best_state is not None:
            model.load_state_dict(best_state)
        threshold, fbeta = _tune_model_threshold(
            model, validation, beta=config.threshold_beta
        )
        model.threshold = threshold
        span.set(best_epoch=best_epoch, best_validation_ap=best_ap,
                 threshold=round(threshold, 4))
    return TrainingResult(
        model=model,
        best_epoch=best_epoch,
        history=history,
        threshold=threshold,
        threshold_fbeta=fbeta,
        num_training_graphs=len(train),
    )


def fine_tune_pic(
    base: PICModel,
    train: Sequence[CTExample],
    validation: Sequence[CTExample],
    config: Optional[TrainingConfig] = None,
    name: str = "PIC.ft",
) -> TrainingResult:
    """Fork ``base`` and continue training on new-version data (§5.4).

    The base model is untouched; the returned result holds the fine-tuned
    clone. Defaults to a gentler learning rate than from-scratch training.
    """
    config = config or TrainingConfig(epochs=2, learning_rate=1e-3)
    with obs.span("train.fine_tune", base=base.config.name, model=name):
        clone = base.clone(name=name, seed=config.seed)
        return train_pic(clone, train, validation, config)


def fine_tune_with_replay(
    base: PICModel,
    fresh: Sequence[CTExample],
    replay: Sequence[CTExample],
    validation: Sequence[CTExample],
    config: Optional[TrainingConfig] = None,
    name: str = "PIC.ft",
) -> TrainingResult:
    """Fine-tune on fresh campaign labels mixed with replay examples.

    The continuous-learning worker's training recipe: ``fresh`` is the
    sliding window of journal-tailed labels, ``replay`` a sample of the
    original training distribution that anchors the model against
    catastrophic forgetting. The two sets are concatenated and shuffled
    together by :func:`train_pic`'s seeded epoch shuffle, so the mix is
    a pure function of the inputs and ``config.seed``.
    """
    combined = list(fresh) + list(replay)
    return fine_tune_pic(base, combined, validation, config=config, name=name)


def hyperparameter_search(
    base_config: PICConfig,
    train: Sequence[CTExample],
    validation: Sequence[CTExample],
    num_layers_grid: Sequence[int] = (1, 2, 4),
    hidden_dim_grid: Sequence[int] = (32, 48),
    learning_rate_grid: Sequence[float] = (1e-3, 3e-3),
    epochs: int = 3,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Small grid search over PIC hyperparameters (§5.1.2 in miniature).

    Returns one record per configuration with its best validation URB AP,
    sorted best-first. The paper's headline observation — deeper GNN stacks
    reach higher AP because concurrent behaviour depends on longer-range
    flows — is directly visible in the returned records.
    """
    records: List[Dict[str, float]] = []
    for num_layers, hidden_dim, learning_rate in itertools.product(
        num_layers_grid, hidden_dim_grid, learning_rate_grid
    ):
        config = replace(
            base_config,
            num_layers=num_layers,
            hidden_dim=hidden_dim,
            name=f"PIC.l{num_layers}.d{hidden_dim}.lr{learning_rate}",
        )
        model = PICModel(config, seed=seed)
        result = train_pic(
            model,
            train,
            validation,
            TrainingConfig(epochs=epochs, learning_rate=learning_rate, seed=seed),
        )
        records.append(
            {
                "num_layers": float(num_layers),
                "hidden_dim": float(hidden_dim),
                "learning_rate": learning_rate,
                "best_validation_ap": result.best_validation_ap,
            }
        )
    records.sort(key=lambda record: -record["best_validation_ap"])
    return records
