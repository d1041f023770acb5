"""The assembly encoder: the RoBERTa stand-in (§3.2).

Embeds a basic block's (numeric-elided) assembly token stream into a fixed
vector. Architecture: learned token embeddings, masked mean pooling over
the block's tokens, and a projection layer. Pre-training uses a masked-
token objective — mask a token, predict its identity from the pooled
context — the same masked-language-model idea the paper applies, sized for
the tiny synthetic ISA vocabulary.

The pre-trained token table is shared into the PIC model and fine-tuned
together with the GNN, exactly as the paper fine-tunes θ_BERT during PIC
training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import rng as rngmod
from repro.graphs.tokens import Vocabulary, block_token_ids
from repro.kernel.code import Kernel
from repro.ml.autograd import (
    Parameter,
    Tensor,
    embedding_mean,
    matmul,
    relu,
    softmax_cross_entropy,
)
from repro.ml.optim import Adam

__all__ = ["EncoderConfig", "AsmEncoder", "pretrain_encoder"]


@dataclass(frozen=True)
class EncoderConfig:
    """Shape of the assembly encoder."""

    vocab_size: int
    token_dim: int = 32
    output_dim: int = 48


class AsmEncoder:
    """Token-embedding + pooling + projection block encoder."""

    def __init__(self, config: EncoderConfig, seed: int = 0) -> None:
        self.config = config
        rng = rngmod.split(seed, "encoder-init")
        scale_token = 1.0 / np.sqrt(config.token_dim)
        scale_proj = 1.0 / np.sqrt(config.token_dim)
        self.token_table = Parameter(
            rng.normal(0.0, scale_token, size=(config.vocab_size, config.token_dim)),
            name="encoder.token_table",
        )
        self.w_proj = Parameter(
            rng.normal(0.0, scale_proj, size=(config.token_dim, config.output_dim)),
            name="encoder.w_proj",
        )
        self.b_proj = Parameter(
            np.zeros(config.output_dim), name="encoder.b_proj"
        )

    def parameters(self) -> List[Parameter]:
        return [self.token_table, self.w_proj, self.b_proj]

    def pooled(self, token_ids: np.ndarray, pad_id: int) -> Tensor:
        """Masked mean of token embeddings: (N, T) ids → (N, token_dim).

        One fused :func:`~repro.ml.autograd.embedding_mean` node, never
        the (N, T, token_dim) gather; training, pre-training and the
        per-template inference encode all pool here.
        """
        return embedding_mean(self.token_table, token_ids, pad_id)

    def encode(self, token_ids: np.ndarray, pad_id: int) -> Tensor:
        """(N, T) token ids → (N, output_dim) block embeddings."""
        pooled = self.pooled(token_ids, pad_id)
        return relu(matmul(pooled, self.w_proj) + self.b_proj)


@dataclass
class PretrainResult:
    """Loss trajectory of the masked-token pre-training."""

    losses: List[float]

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def improved(self) -> bool:
        return len(self.losses) >= 2 and self.losses[-1] < self.losses[0]


def pretrain_encoder(
    encoder: AsmEncoder,
    kernel: Kernel,
    vocabulary: Vocabulary,
    epochs: int = 3,
    batch_size: int = 64,
    learning_rate: float = 5e-3,
    seed: int = 0,
    max_tokens: int = 48,
) -> PretrainResult:
    """Masked-token pre-training over all kernel assembly (§3.2).

    Per example: one random non-pad token of a block is replaced by [MASK];
    the model predicts its identity from the pooled context embedding
    through a throwaway output head (discarded after pre-training, like
    BERT's MLM head).
    """
    rng = rngmod.split(seed, "encoder-pretrain")
    token_rows = np.stack(
        [
            block_token_ids(vocabulary, block, max_tokens)
            for block in kernel.blocks.values()
            if len(block.instructions) > 0
        ]
    )
    head = Parameter(
        rng.normal(0.0, 0.1, size=(encoder.config.token_dim, encoder.config.vocab_size)),
        name="encoder.mlm_head",
    )
    optimizer = Adam(
        encoder.parameters()[:1] + [head], learning_rate=learning_rate
    )
    pad_id = vocabulary.pad_id
    mask_id = vocabulary.mask_id
    losses: List[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(token_rows))
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            batch = token_rows[order[start : start + batch_size]].copy()
            targets = np.zeros(batch.shape[0], dtype=np.int64)
            for row in range(batch.shape[0]):
                valid = np.flatnonzero(batch[row] != pad_id)
                position = int(valid[rng.integers(len(valid))])
                targets[row] = batch[row, position]
                batch[row, position] = mask_id
            optimizer.zero_grad()
            pooled = encoder.pooled(batch, pad_id)
            logits = matmul(pooled, head)
            loss = softmax_cross_entropy(logits, targets)
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)))
    return PretrainResult(losses=losses)
