"""PHM classifiers: one sentence CNN with an optional feature branch, and
the figurative-gated pipeline combiner.

``PhmdModel`` is the text-only CNN; ``FeatAugModel`` is the same CNN with
one more conv branch over the figurative-usage feature vector. Models own
their Parameters; training is single-threaded per model with sequential,
order-fixed gradient accumulation so traces are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .corpus import NONPHM, PHM, PaddedSequence
from .embeddings import EmbeddingTable
from .errors import DataError
from .figurative import FIGURATIVE, FigurativeVerdict, LinguisticFeatures
from . import neuralnet as nn
from .neuralnet import Parameter


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for both architectures (defaults follow the standard
    sentence-CNN configuration used throughout the experiments)."""

    max_sequence_length: int = 50
    filters: int = 100
    kernel_widths: tuple[int, ...] = (3, 4, 5)
    pool: int = 2
    dropout_rates: tuple[float, ...] = (0.2, 0.3, 0.5)
    feataug_dropout_rates: tuple[float, ...] = (0.3, 0.1, 0.3)
    right_kernel_width: int = 2
    include_score_feature: bool = True
    trainable_embeddings: bool = True
    init_bound: float = 0.05
    epochs: int = 35
    batch_size: int = 128
    learning_rate: float = 1e-3

    def __post_init__(self):
        if min(self.pool, self.filters, self.epochs, self.batch_size,
               *self.kernel_widths, self.right_kernel_width) < 1:
            raise ValueError("pool, filters, epochs, batch and kernel widths must be >= 1")
        if self.max_sequence_length - max(self.kernel_widths) + 1 < self.pool:
            raise ValueError(f"max_sequence_length {self.max_sequence_length} shorter than "
                             f"largest kernel {max(self.kernel_widths)} plus pool - 1")
        if feature_vector_length(self.include_score_feature) \
                - self.right_kernel_width + 1 < self.pool:
            raise ValueError(f"feature vector shorter than right kernel "
                             f"{self.right_kernel_width} plus pool - 1")
        for rates in (self.dropout_rates, self.feataug_dropout_rates):
            if len(rates) != len(self.kernel_widths):
                raise ValueError("need one dropout rate per kernel width")
            if not all(0.0 <= rate < 1.0 for rate in rates):
                raise ValueError(f"dropout rates must lie in [0, 1), got {rates}")


@dataclass
class Prediction:
    doc_id: str
    probability: float
    label: str
    figurative_label: str | None = None


def verdict_feature_vector(verdict: FigurativeVerdict,
                           include_score: bool = True) -> np.ndarray:
    """Figurative-usage feature block for the augmented classifier:
    thresholded label bit, linguistic features, and optionally the raw score."""
    parts = [np.array([1.0 if verdict.label == FIGURATIVE else 0.0]),
             verdict.features.to_vector()]
    if include_score:
        parts.append(np.array([verdict.literal_score]))
    return np.concatenate(parts)


def feature_vector_length(include_score: bool = True) -> int:
    return 1 + LinguisticFeatures.vector_length() + int(include_score)


class _ConvBranch:
    """conv -> relu -> maxpool -> dropout over one kernel width."""

    def __init__(self, kernels: Parameter, bias: Parameter, width: int,
                 dropout_rate: float, pool: int):
        self.kernels = kernels
        self.bias = bias
        self.width = width
        self.dropout_rate = dropout_rate
        self.pool = pool

    def flat_size(self, seq_len: int) -> int:
        return (seq_len - self.width + 1) // self.pool * self.kernels.value.shape[0]

    def forward(self, x: np.ndarray, train: bool, rng, cache: dict) -> np.ndarray:
        pre = nn.conv1d(x, self.kernels.value, self.bias.value)
        act = nn.relu(pre)
        pooled = nn.maxpool1d(act, self.pool)
        if train and self.dropout_rate > 0.0:
            mask = nn.make_dropout_mask(pooled.shape, self.dropout_rate, rng)
            out = pooled * mask
        else:
            mask = None
            out = pooled
        cache.update(x=x, pre=pre, act=act, mask=mask)
        return out.ravel()

    def backward(self, dflat: np.ndarray, cache: dict, grad_scale: float) -> np.ndarray:
        act = cache["act"]
        n_windows = act.shape[0] // self.pool
        dpooled = dflat.reshape(n_windows, -1)
        if cache["mask"] is not None:
            dpooled = dpooled * cache["mask"]
        dact = nn.maxpool1d_backward(dpooled, act, self.pool)
        dpre = nn.relu_backward(dact, cache["pre"])
        dx, dkernels, dbias = nn.conv1d_backward(dpre, cache["x"], self.kernels.value)
        self.kernels.grad += grad_scale * dkernels
        self.bias.grad += grad_scale * dbias
        return dx

    def margins(self, cache: dict) -> tuple[float, float]:
        """(min |relu pre-activation|, min active pooling-window gap)."""
        relu_margin = float(np.abs(cache["pre"]).min())
        return relu_margin, _pool_gap(cache["act"], self.pool)


def _pool_gap(act: np.ndarray, pool: int) -> float:
    """Smallest top1-top2 gap over pooling windows whose max is positive.

    Windows whose entries are all zero (fully inactive ReLUs) are harmless
    ties: every route carries zero gradient, so they are excluded.
    """
    if pool < 2:
        return math.inf
    n_windows = act.shape[0] // pool
    view = np.sort(act[:n_windows * pool].reshape(n_windows, pool, act.shape[1]), axis=1)
    top1 = view[:, -1, :]
    top2 = view[:, -2, :]
    gaps = np.where(top1 > 0.0, top1 - top2, math.inf)
    return float(gaps.min()) if gaps.size else math.inf


class _SentenceCnn:
    """Embedding lookup into parallel conv/relu/pool/dropout text branches,
    plus, when ``feature_length`` is set, one conv branch over the
    figurative-usage feature vector; a single sigmoid unit reads the
    concatenated pooled features. Parameters are declared (and drawn from
    the seed) in checkpoint order: embedding, text branches, feature
    branch, dense head.
    """

    kind = ""

    def __init__(self, table: EmbeddingTable, config: ModelConfig, seed: int,
                 dropout_rates: tuple[float, ...], feature_length: int | None):
        if feature_length is not None and \
                feature_length - config.right_kernel_width + 1 < config.pool:
            raise ValueError(f"feature vector of length {feature_length} shorter than "
                             f"right kernel {config.right_kernel_width} plus pool - 1")
        self.config = config
        self.feature_length = feature_length
        self.forward_count = 0
        self._params: list[Parameter] = []
        self.vocab = dict(table.vocab)
        rng = np.random.default_rng(seed)
        self.embedding = self._register(table.matrix.copy(), "embedding")
        self.branches = [self._add_branch(f"conv{width}", width, table.dim, rate, rng)
                         for width, rate in zip(config.kernel_widths, dropout_rates)]
        self.right = None if feature_length is None else \
            self._add_branch("right", config.right_kernel_width, 1, 0.0, rng)
        self._all_branches = self.branches + ([self.right] if self.right else [])
        flat = sum(b.flat_size(config.max_sequence_length) for b in self.branches)
        if self.right is not None:
            flat += self.right.flat_size(feature_length)
        self.dense_w = self._register(
            nn.uniform_init((1, flat), config.init_bound, rng), "dense_w")
        self.dense_b = self._register(np.zeros(1), "dense_b")

    def _add_branch(self, name: str, width: int, depth: int, dropout_rate: float,
                    rng) -> _ConvBranch:
        config = self.config
        kernels = self._register(
            nn.uniform_init((config.filters, width, depth), config.init_bound, rng),
            f"{name}_kernels")
        bias = self._register(np.zeros(config.filters), f"{name}_bias")
        return _ConvBranch(kernels, bias, width, dropout_rate, config.pool)

    def _register(self, value: np.ndarray, name: str) -> Parameter:
        param = Parameter(value, name=name)
        self._params.append(param)
        return param

    def all_parameters(self) -> list[Parameter]:
        """Every parameter in declaration order (checkpoint order)."""
        return list(self._params)

    def parameters(self) -> list[Parameter]:
        """Trainable parameters; excludes the embedding matrix when frozen."""
        if self.config.trainable_embeddings:
            return list(self._params)
        return [p for p in self._params if p.name != "embedding"]

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self._params)

    def zero_grad(self) -> None:
        for p in self._params:
            p.zero_grad()

    def loss(self, inputs, target: int) -> float:
        prob, _ = self._forward(inputs, train=False, rng=None, want_cache=False)
        return float(nn.bce_loss(prob, target))

    def loss_and_grad(self, inputs, target: int, train: bool = False, rng=None,
                      grad_scale: float = 1.0, accumulate: bool = False) -> float:
        if not accumulate:
            self.zero_grad()
        prob, cache = self._forward(inputs, train=train, rng=rng, want_cache=True)
        loss = float(nn.bce_loss(prob, target))
        dprob = nn.bce_grad(prob, target)
        self._backward(dprob, cache, grad_scale)
        return loss

    def predict_proba(self, inputs) -> float:
        """``inputs`` is the token-id sequence, or the pair (ids, feature
        vector) when the model has a feature branch."""
        prob, _ = self._forward(inputs, train=False, rng=None, want_cache=False)
        return prob

    def _forward(self, inputs, train, rng, want_cache):
        ids, features = inputs if self.right is not None else (inputs, None)
        ids = np.asarray(ids, dtype=np.intp)
        if ids.shape[0] != self.config.max_sequence_length:
            raise ValueError(f"expected sequence of length "
                             f"{self.config.max_sequence_length}, got {ids.shape[0]}")
        x = self.embedding.value[ids]
        branch_inputs = [x] * len(self.branches)
        if self.right is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.shape[0] != self.feature_length:
                raise ValueError(f"expected feature vector of length "
                                 f"{self.feature_length}, got {features.shape[0]}")
            branch_inputs.append(features[:, None])
        self.forward_count += 1
        caches = [dict() for _ in self._all_branches]
        flats = [b.forward(bx, train, rng, c)
                 for b, bx, c in zip(self._all_branches, branch_inputs, caches)]
        hidden = np.concatenate(flats)
        out = nn.dense(hidden, self.dense_w.value, self.dense_b.value, "sigmoid")
        prob = float(np.clip(out[0], 1e-12, 1.0 - 1e-12))
        if not want_cache:
            return prob, None
        return prob, dict(ids=ids, caches=caches, hidden=hidden, out=out,
                          sizes=[f.size for f in flats])

    def _backward(self, dprob, cache, grad_scale):
        dout = np.array([dprob])
        dhidden, dw, db = nn.dense_backward(dout, cache["hidden"], self.dense_w.value,
                                            "sigmoid", cache["out"])
        self.dense_w.grad += grad_scale * dw
        self.dense_b.grad += grad_scale * db
        dxs = []
        offset = 0
        for branch, bcache, size in zip(self._all_branches, cache["caches"], cache["sizes"]):
            dxs.append(branch.backward(dhidden[offset:offset + size], bcache, grad_scale))
            offset += size
        if self.config.trainable_embeddings:
            demb = np.zeros_like(self.embedding.value)
            np.add.at(demb, cache["ids"], sum(dxs[1:len(self.branches)], dxs[0]))
            self.embedding.grad += grad_scale * demb

    def activation_margins(self, inputs) -> tuple[float, float]:
        """(min ReLU pre-activation magnitude, min active pool gap) at this
        input; both must clear the finite-difference step for a safe
        gradient check."""
        _, cache = self._forward(inputs, train=False, rng=None, want_cache=True)
        self.forward_count -= 1  # diagnostics only
        margins = [b.margins(c) for b, c in zip(self._all_branches, cache["caches"])]
        return min(r for r, _ in margins), min(g for _, g in margins)


# PhmdModel and FeatAugModel are siblings, never parent and child, so that
# per-class method patches (e.g. tracing wrappers) apply exactly once.

class PhmdModel(_SentenceCnn):
    """The PHMD classifier: text branches only."""

    kind = "phmd"

    def __init__(self, table: EmbeddingTable, config: ModelConfig, seed: int = 0):
        super().__init__(table, config, seed, config.dropout_rates, None)


class FeatAugModel(_SentenceCnn):
    """PHMD plus the feature branch over the figurative-usage vector, with
    its own dropout rates; inputs are (ids, feature vector) pairs."""

    kind = "feataug"

    def __init__(self, table: EmbeddingTable, config: ModelConfig, seed: int = 0,
                 feature_length: int | None = None):
        if feature_length is None:
            feature_length = feature_vector_length(config.include_score_feature)
        super().__init__(table, config, seed, config.feataug_dropout_rates,
                         feature_length)


def build_phmd(table: EmbeddingTable, config: ModelConfig = ModelConfig(),
               seed: int = 0) -> PhmdModel:
    """PHMD classifier with the embedding matrix copied row-for-row from the
    table and conv/dense parameters drawn uniform from the run seed."""
    return PhmdModel(table, config, seed)


def build_feataug(table: EmbeddingTable, config: ModelConfig = ModelConfig(),
                  seed: int = 0, feature_length: int | None = None) -> FeatAugModel:
    return FeatAugModel(table, config, seed, feature_length)


def _as_feature_vector(verdict, config: ModelConfig) -> np.ndarray:
    if isinstance(verdict, FigurativeVerdict):
        return verdict_feature_vector(verdict, config.include_score_feature)
    return np.asarray(verdict, dtype=np.float64)


def _canonical_examples(model, corpus):
    """Normalize and sort training examples so the trace is invariant to
    the storage order of the input corpus."""
    examples = []
    for item in corpus:
        seq, label = item[0], item[1]
        ids = np.asarray(seq.token_ids if isinstance(seq, PaddedSequence) else seq,
                         dtype=np.intp)
        y = 1 if label == PHM else 0
        if model.kind == "feataug":
            if len(item) < 3 or item[2] is None:
                raise ValueError("feature-augmented training requires a figurative "
                                 "verdict per example")
            features = _as_feature_vector(item[2], model.config)
        else:
            features = None
        examples.append((ids, y, features))
    examples.sort(key=lambda e: (tuple(e[0]), e[1],
                                 tuple(e[2]) if e[2] is not None else ()))
    return examples


def train(model, corpus, epochs: int | None = None, batch: int | None = None,
          seed: int = 0, lr: float | None = None) -> list[float]:
    """Minimize mean BCE with Adam; returns the per-epoch mean loss trace.

    The per-epoch shuffle and all dropout masks come from one generator
    seeded here, so identical (corpus, seed) pairs give identical traces.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    config = model.config
    epochs = config.epochs if epochs is None else epochs
    batch = config.batch_size if batch is None else batch
    lr = config.learning_rate if lr is None else lr
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")

    examples = _canonical_examples(model, corpus)
    optimizer = nn.Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(epochs):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for start in range(0, len(examples), batch):
            chunk = order[start:start + batch]
            optimizer.zero_grad()
            scale = 1.0 / len(chunk)
            for i in chunk:
                ids, y, features = examples[i]
                inputs = (ids, features) if model.kind == "feataug" else ids
                epoch_loss += model.loss_and_grad(inputs, y, train=True, rng=rng,
                                                  grad_scale=scale, accumulate=True)
            if not math.isfinite(epoch_loss):
                raise FloatingPointError("non-finite training loss")
            optimizer.step()
        trace.append(epoch_loss / len(examples))
    return trace


def predict_phmd(model: PhmdModel, seq: PaddedSequence, doc_id: str = "") -> Prediction:
    """Eval-mode forward pass; PHM iff the probability reaches 0.5."""
    prob = model.predict_proba(np.asarray(seq.token_ids, dtype=np.intp))
    return Prediction(doc_id=doc_id, probability=prob,
                      label=PHM if prob >= 0.5 else NONPHM)


def pipeline_predict(verdict: FigurativeVerdict, model: PhmdModel,
                     seq: PaddedSequence, doc_id: str = "") -> Prediction:
    """Figurative verdicts short-circuit to NonPHM without touching the
    classifier; literal verdicts delegate to predict_phmd."""
    if verdict.label == FIGURATIVE:
        return Prediction(doc_id=doc_id, probability=0.0, label=NONPHM,
                          figurative_label=FIGURATIVE)
    prediction = predict_phmd(model, seq, doc_id)
    prediction.figurative_label = verdict.label
    return prediction


def feataug_predict(model: FeatAugModel, seq: PaddedSequence, verdict,
                    doc_id: str = "") -> Prediction:
    """Forward pass with the feature branch; ``verdict`` may be a
    FigurativeVerdict or a pre-built feature vector of the model's length."""
    features = _as_feature_vector(verdict, model.config)
    prob = model.predict_proba((np.asarray(seq.token_ids, dtype=np.intp), features))
    figurative_label = verdict.label if isinstance(verdict, FigurativeVerdict) else None
    return Prediction(doc_id=doc_id, probability=prob,
                      label=PHM if prob >= 0.5 else NONPHM,
                      figurative_label=figurative_label)


def save_model(model, path) -> None:
    """Checkpoint: manifest (kind, config, vocab, feature length) + arrays."""
    manifest = {
        "kind": model.kind,
        "config": asdict(model.config),
        "vocab": sorted(model.vocab, key=model.vocab.get),
    }
    if model.kind == "feataug":
        manifest["feature_length"] = model.feature_length
    nn.save_checkpoint(manifest, model.all_parameters(), path)


def load_model(path):
    checkpoint = nn.load_checkpoint(path)
    manifest = checkpoint.manifest
    kind = manifest.get("kind")
    if kind not in ("phmd", "feataug"):
        raise DataError(f"unknown model kind {kind!r} in checkpoint")
    if not checkpoint.arrays or checkpoint.arrays[0].ndim != 2:
        raise DataError(f"{path}: checkpoint has no embedding matrix")
    try:
        raw = dict(manifest["config"])
        for key in ("kernel_widths", "dropout_rates", "feataug_dropout_rates"):
            raw[key] = tuple(raw[key])
        config = ModelConfig(**raw)
        vocab = {word: i for i, word in enumerate(manifest["vocab"])}
        dim = checkpoint.arrays[0].shape[1]
        table = EmbeddingTable(vocab=vocab, matrix=np.zeros((len(vocab), dim)))
        if kind == "phmd":
            model = PhmdModel(table, config)
        else:
            model = FeatAugModel(table, config, feature_length=manifest["feature_length"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad checkpoint manifest "
                        f"({type(exc).__name__}: {exc})") from None
    params = model.all_parameters()
    if len(params) != len(checkpoint.arrays):
        raise DataError(f"checkpoint has {len(checkpoint.arrays)} arrays, "
                        f"model expects {len(params)}")
    for param, array in zip(params, checkpoint.arrays):
        if param.value.shape != array.shape:
            raise DataError(f"shape mismatch for {param.name}: "
                            f"{array.shape} vs {param.value.shape}")
        param.value[...] = array
    return model
