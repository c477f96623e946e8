import math

import numpy as np
import pytest

from figphm import neuralnet as nn
from figphm.corpus import PAD_TOKEN, UNK_TOKEN
from figphm.embeddings import EmbeddingTable


def make_table(word_vectors: dict[str, list[float]]) -> EmbeddingTable:
    """Small embedding table with the reserved PAD/UNK rows prepended."""
    dim = len(next(iter(word_vectors.values())))
    vocab = {PAD_TOKEN: 0, UNK_TOKEN: 1}
    rows = [np.zeros(dim), np.zeros(dim)]
    for word, vector in word_vectors.items():
        vocab[word] = len(rows)
        rows.append(np.asarray(vector, dtype=np.float64))
    return EmbeddingTable(vocab=vocab, matrix=np.vstack(rows))


def activation_margins(model, inputs) -> tuple[float, float]:
    """(min ReLU pre-activation magnitude, min active pool gap) of a model's
    conv branches over a batch; both must clear the finite-difference step
    for a safe gradient check."""
    ids, features, _ = model._batch(inputs)
    margins = []
    for branch, x in zip(model._all_branches, model._branch_inputs(ids, features)):
        pre = nn.conv1d(x, branch.kernels.value, branch.bias.value)
        margins.append((float(np.abs(pre).min()), pool_gap(nn.relu(pre), branch.pool)))
    return min(r for r, _ in margins), min(g for _, g in margins)


def pool_gap(act: np.ndarray, pool: int) -> float:
    """Smallest top1-top2 gap over pooling windows whose max is positive.

    Windows whose entries are all zero (fully inactive ReLUs) are harmless
    ties: every route carries zero gradient, so they are excluded.
    """
    if pool < 2:
        return math.inf
    n_windows = act.shape[-2] // pool
    view = np.sort(act[..., :n_windows * pool, :].reshape(
        act.shape[:-2] + (n_windows, pool, act.shape[-1])), axis=-2)
    top1 = view[..., -1, :]
    top2 = view[..., -2, :]
    gaps = np.where(top1 > 0.0, top1 - top2, math.inf)
    return float(gaps.min()) if gaps.size else math.inf


@pytest.fixture
def tiny_table():
    return make_table({"a": [1.0], "b": [2.0], "c": [-1.0]})
