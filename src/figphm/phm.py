"""PHM classifiers: one sentence CNN with an optional feature branch, and
the figurative-gated pipeline combiner.

``PhmdModel`` is the text-only CNN; ``FeatAugModel`` is the same CNN with
one more conv branch over the figurative-usage feature row, whose length
``feature_row_length(config.include_score_feature)`` fixes.
``_parameter_shapes`` is the one list of their parameters' names and shapes.
A model wraps one given array per entry: ``build_phmd``/``build_feataug``
pass a copy of the embedding table and seeded kernels, ``load_model`` the
checkpoint's arrays. Training runs one forward/backward per minibatch over the
stacked examples, with the shuffle and every dropout mask drawn from one
seeded generator in a fixed order, so traces are reproducible, and the
embedding trains as a table of only the rows the examples hold. Every pass of
one call (``train``, ``loss``, ``predict_proba``, ``loss_and_grad``) writes
its activations and gradients into one ``_Workspace`` that lives for that
call only; ``loss`` and ``predict_proba`` share one loop of eval passes.

``predict`` labels a whole split with one eval forward per model, and
``pipeline_predict`` is the one copy of the pipeline rule: it combines the
gate labels with PHMD's predictions and never calls the classifier.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus import NONPHM, PHM
from .embeddings import EmbeddingTable
from .errors import DataError
from .figurative import FIGURATIVE, FigurativeVerdict, feature_row, feature_row_length
from . import neuralnet as nn
from .neuralnet import Parameter

PASS_BYTES = 1 << 21        # ReLU activations cached per training pass
_PASS_EXAMPLES = 16         # and at most this many examples per pass


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
        # a float count would pass the checkpoint shape checks (2.0 == 2)
        # and fail only when an array is sized or sliced with it
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (
                self.max_sequence_length, self.pool, self.filters, self.epochs,
                self.batch_size, self.right_kernel_width, *self.kernel_widths)):
            raise ValueError("sequence length, pool, filters, epochs, batch and kernel "
                             "widths must be integers >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.init_bound) and self.init_bound >= 0.0):
            raise ValueError(f"init bound must be finite and >= 0, got {self.init_bound}")
        if self.max_sequence_length - max(self.kernel_widths) + 1 < self.pool:
            raise ValueError(f"max_sequence_length {self.max_sequence_length} shorter than "
                             f"largest kernel {max(self.kernel_widths)} plus pool - 1")
        if feature_row_length(self.include_score_feature) \
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


class _Workspace:
    """Named buffers that every pass of one call reuses. A request gets the
    leading part of its key's buffer, which is allocated on first use and
    replaced when a request outgrows it. A call's first pass is its largest,
    so a key that several branches share settles within one pass.

    Without it every pass allocates and frees a few MB of temporaries, and
    the allocator hands them back to the system and faults them in again:
    a desk experiment took 570k minor page faults that way.
    """

    def __init__(self):
        self._buffers: dict = {}

    def __call__(self, key, shape: tuple[int, ...], dtype=np.float64,
                 fill: float | None = None) -> np.ndarray:
        """An array of ``shape``; ``fill`` is written only when the buffer
        is allocated, so entries a pass leaves alone keep it."""
        size = math.prod(shape)
        flat = self._buffers.get(key)
        if flat is None or flat.size < size:
            flat = self._buffers[key] = np.empty(size, dtype)
            if fill is not None:
                flat.fill(fill)
        return flat[:size].reshape(shape)


class _ConvBranch:
    """conv -> relu -> maxpool over one kernel width, for a batch; the
    model applies the branch's dropout to the pooled output."""

    def __init__(self, kernels: Parameter, bias: Parameter, width: int,
                 dropout_rate: float, pool: int):
        self.kernels = kernels
        self.bias = bias
        self.width = width
        self.dropout_rate = dropout_rate
        self.pool = pool

    def forward(self, x: np.ndarray, pooled: np.ndarray, ws: _Workspace,
                key: int | None) -> tuple[np.ndarray | None, np.ndarray]:
        """x (B, T, depth) -> (im2col windows, ReLU activations), both in
        ``ws`` under ``key`` for the backward; the pooled (B, windows, F)
        maxima go to ``pooled``. With no key (an eval pass) the windows are
        not kept and the activations go to a buffer every branch shares."""
        batch, seq_len, depth = x.shape
        out_len = seq_len - self.width + 1
        windows = None if key is None else ws((key, "windows"),
                                              (batch, out_len, self.width * depth))
        act = nn.conv1d(x, self.kernels.value, self.bias.value, windows=windows,
                        out=ws((key, "act"), (batch, out_len, self.kernels.value.shape[0])))
        nn.relu(act, out=act)
        nn.maxpool1d(act, self.pool, out=pooled)
        return windows, act

    def backward(self, dpooled: np.ndarray, x: np.ndarray, windows: np.ndarray,
                 act: np.ndarray, grad_scale: float, ws: _Workspace,
                 dx_key: str | None) -> np.ndarray | None:
        """Adds the parameter gradients; returns the input gradient, in
        ``ws`` under ``dx_key``, or None without a key. The pool and kernel
        gradients' buffers are shared by every branch, and the input
        gradient's GEMM overwrites this branch's windows, which are dead
        once the kernel gradient is formed."""
        # a contiguous copy: numpy's iterator gives each operand it cannot
        # walk as one block a 64 KiB buffer, and dpooled is a column slice
        contiguous = ws("dpooled", dpooled.shape)
        contiguous[...] = dpooled
        dpre = nn.maxpool1d_backward(contiguous, act, self.pool,
                                     out=ws("dpre", act.shape))
        # act > 0 exactly where the pre-activation is, so act stands in for it
        nn.relu_backward(dpre, act, out=dpre)
        dx, dkernels, dbias = nn.conv1d_backward(
            dpre, x, self.kernels.value, input_grad=dx_key is not None, windows=windows,
            dkernels=ws("dkernels", self.kernels.value.shape), contrib=windows,
            dx=None if dx_key is None else ws(dx_key, x.shape))
        dkernels *= grad_scale
        self.kernels.grad += dkernels
        self.bias.grad += grad_scale * dbias
        return dx

    def margins(self, x: np.ndarray) -> tuple[float, float]:
        """(min |relu pre-activation|, min active pooling-window gap)."""
        pre = nn.conv1d(x, self.kernels.value, self.bias.value)
        return float(np.abs(pre).min()), _pool_gap(nn.relu(pre), self.pool)


def _pool_gap(act: np.ndarray, pool: int) -> float:
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


def _branch_specs(config: ModelConfig, dim: int,
                  feature_length: int | None) -> list[tuple[str, int, int, int]]:
    """(name, kernel width, depth, input length) of every conv branch in
    declaration order: the text branches, then the feature branch."""
    specs = [(f"conv{width}", width, dim, config.max_sequence_length)
             for width in config.kernel_widths]
    if feature_length is not None:
        specs.append(("right", config.right_kernel_width, 1, feature_length))
    return specs


def _pooled_size(config: ModelConfig, width: int, seq_len: int) -> int:
    """Pooled features one branch gives the dense head."""
    return (seq_len - width + 1) // config.pool * config.filters


def _parameter_shapes(config: ModelConfig, vocab_size: int, dim: int,
                      feature_length: int | None) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter in declaration order, from the
    configuration alone; nothing is allocated. This is the one definition
    of a model's parameters: building, loading and checkpoints follow it."""
    shapes = [("embedding", (vocab_size, dim))]
    hidden = 0
    for name, width, depth, seq_len in _branch_specs(config, dim, feature_length):
        shapes += [(f"{name}_kernels", (config.filters, width, depth)),
                   (f"{name}_bias", (config.filters,))]
        hidden += _pooled_size(config, width, seq_len)
    return shapes + [("dense_w", (1, hidden)), ("dense_b", (1,))]


def _initial_arrays(table: EmbeddingTable, config: ModelConfig, seed: int,
                    feature_length: int | None) -> list[np.ndarray]:
    """Seeded starting values in declaration order: a copy of the table's
    matrix, kernels and dense weights drawn uniform in +-init_bound from
    ``seed`` one after another, zero biases."""
    rng = np.random.default_rng(seed)
    arrays = []
    for name, shape in _parameter_shapes(config, *table.matrix.shape, feature_length):
        if name == "embedding":
            arrays.append(table.matrix.copy())
        elif name.endswith(("_bias", "_b")):
            arrays.append(np.zeros(shape))
        else:
            arrays.append(nn.uniform_init(shape, config.init_bound, rng))
    return arrays


class _SentenceCnn:
    """Embedding lookup into parallel conv/relu/pool/dropout text branches,
    plus, for FeatAug, one conv branch over the figurative-usage feature
    vector, whose length the config fixes; a single sigmoid unit reads the
    concatenated pooled features. The model adopts ``vocab`` and ``arrays``
    without copying them: one array per ``_parameter_shapes`` entry, in that
    order (embedding, text branches, feature branch, dense head).

    Every forward and backward runs on a batch. ``inputs`` is one example
    (token ids (T,), or the pair (ids, feature vector)) or a batch of them
    stacked along a leading axis; losses and gradients are sums over the
    batch, and one example is a batch of one.
    """

    kind = ""

    def __init__(self, vocab: dict[str, int], config: ModelConfig,
                 arrays: list[np.ndarray], dropout_rates: tuple[float, ...],
                 feature_length: int | None):
        self.config = config
        self.feature_length = feature_length
        self.forward_count = 0
        self.vocab = vocab
        shapes = _parameter_shapes(config, *arrays[0].shape, feature_length)
        self._params = [Parameter(array, name)
                        for (name, _), array in zip(shapes, arrays, strict=True)]
        self.embedding, *conv, self.dense_w, self.dense_b = self._params
        specs = _branch_specs(config, arrays[0].shape[1], feature_length)
        rates = tuple(dropout_rates) + (0.0,) * (feature_length is not None)
        self._all_branches = [
            _ConvBranch(kernels, bias, width, rate, config.pool)
            for kernels, bias, (_, width, _, _), rate
            in zip(conv[0::2], conv[1::2], specs, rates, strict=True)]
        self.branches = self._all_branches[:len(config.kernel_widths)]
        self.right = None if feature_length is None else self._all_branches[-1]
        sizes = [_pooled_size(config, width, seq_len) for _, width, _, seq_len in specs]
        ends = list(itertools.accumulate(sizes))
        self._columns = [slice(end - size, end) for size, end in zip(sizes, ends)]
        # Dropout masks are drawn as one block, example-major, over the
        # pooled-feature columns of the branches with rate > 0, in branch order.
        column_rates = np.repeat([b.dropout_rate for b in self._all_branches], sizes)
        self._dropout_columns = np.flatnonzero(column_rates)
        self._dropout_rates = column_rates[self._dropout_columns]
        # The backward needs every branch's ReLU activations, so training
        # runs a minibatch in passes of at most _PASS_EXAMPLES examples and
        # PASS_BYTES of activations, which bounds memory whatever the batch.
        # At paper shape a PHMD pass is 16 examples (1.7 MiB). There, passes
        # of 18 took 0.85x the time of passes of 4 and passes of 128 took
        # 1.13x; whole 64-example desk passes were no faster and raised peak
        # RSS by 15%.
        act_bytes = 8 * config.filters * sum(seq_len - width + 1
                                             for _, width, _, seq_len in specs)
        self._pass_size = max(1, min(_PASS_EXAMPLES, PASS_BYTES // act_bytes))

    def all_parameters(self) -> list[Parameter]:
        """Every parameter in declaration order (checkpoint order)."""
        return list(self._params)

    def parameters(self) -> list[Parameter]:
        """Trainable parameters; excludes the embedding matrix when frozen."""
        if self.config.trainable_embeddings:
            return list(self._params)
        return [p for p in self._params if p.name != "embedding"]

    def zero_grad(self) -> None:
        for p in self._params:
            p.zero_grad()

    def loss(self, inputs, target) -> float:
        """Summed BCE over the batch, on ``predict_proba``'s eval passes."""
        ids, features, _ = self._batch(inputs)
        probs = self._eval_probs(ids, features)
        return float(nn.bce_loss(probs, self._targets(target, ids.shape[0])).sum())

    def loss_and_grad(self, inputs, target, train: bool = False, rng=None,
                      grad_scale: float = 1.0, accumulate: bool = False,
                      workspace: _Workspace | None = None) -> float:
        """Summed BCE over the batch; adds grad_scale times its gradient to
        every parameter's grad (after zeroing them, unless accumulating).
        The passes run in ``workspace`` (``train`` passes one for all its
        minibatches), or in one made for this call."""
        if not accumulate:
            self.zero_grad()
        ids, features, _ = self._batch(inputs)
        targets = self._targets(target, ids.shape[0])
        ws = _Workspace() if workspace is None else workspace
        loss = 0.0
        for start in range(0, ids.shape[0], self._pass_size):
            rows = slice(start, start + self._pass_size)
            probs, cache = self._forward(ids[rows], None if features is None else features[rows],
                                         train, rng, ws, backward=True)
            self._backward(nn.bce_grad(probs, targets[rows]), cache, grad_scale, ws)
            loss += float(nn.bce_loss(probs, targets[rows]).sum())
        return loss

    def predict_proba(self, inputs):
        """Eval-mode probability: a float for one example, an array for a batch."""
        ids, features, single = self._batch(inputs)
        probs = self._eval_probs(ids, features)
        return float(probs[0]) if single else probs

    def _eval_probs(self, ids, features) -> np.ndarray:
        """Dropout-free probabilities of a batch in training-sized passes:
        2000 documents at paper shape in one pass peaked at 571 MiB; a pass
        of 16 there caches 1.7 MiB of activations."""
        probs = np.empty(ids.shape[0])
        ws = _Workspace()
        for start in range(0, ids.shape[0], self._pass_size):
            rows = slice(start, start + self._pass_size)
            probs[rows], _ = self._forward(ids[rows], None if features is None else features[rows],
                                           False, None, ws)
        return probs

    @staticmethod
    def _targets(target, batch: int) -> np.ndarray:
        targets = np.asarray(target, dtype=np.float64).reshape(-1)
        if targets.size != batch:
            raise ValueError(f"{targets.size} targets for a batch of {batch}")
        return targets

    def _batch(self, inputs):
        """(ids (B, T), features (B, n) or None, single) from one example or
        a batch."""
        ids, features = inputs if self.right is not None else (inputs, None)
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim not in (1, 2) or ids.shape[-1] != self.config.max_sequence_length:
            raise ValueError(f"expected sequences of length "
                             f"{self.config.max_sequence_length}, got shape {ids.shape}")
        single = ids.ndim == 1
        ids = ids.reshape(1, -1) if single else ids
        if self.right is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.shape[-1] != self.feature_length:
                raise ValueError(f"expected feature vector of length "
                                 f"{self.feature_length}, got {features.shape[-1]}")
            features = features.reshape(ids.shape[0], self.feature_length)
        return ids, features, single

    def _branch_inputs(self, ids, features, ws: _Workspace | None = None) -> list[np.ndarray]:
        embedded = None if ws is None else ws("embedded",
                                                ids.shape + self.embedding.value.shape[1:])
        x = self.embedding.value.take(ids, axis=0, out=embedded)
        return [x] * len(self.branches) + ([] if features is None else [features[:, :, None]])

    def _forward(self, ids, features, train, rng, ws, backward=False):
        """Probabilities and the cache ``_backward`` reads, which holds each
        branch's windows and activations only when ``backward`` is set."""
        branch_inputs = self._branch_inputs(ids, features, ws)
        batch = ids.shape[0]
        self.forward_count += batch
        width = self.dense_w.value.shape[1]
        hidden = ws("hidden", (batch, width))
        windows, acts = [], []
        for key, (branch, x, columns) in enumerate(zip(self._all_branches, branch_inputs,
                                                       self._columns)):
            pooled = hidden[:, columns].reshape(batch, -1, branch.kernels.value.shape[0])
            branch_windows, act = branch.forward(x, pooled, ws, key if backward else None)
            windows.append(branch_windows)
            acts.append(act)
        mask = None
        if train and self._dropout_columns.size:
            # columns without dropout keep the 1.0 written at allocation
            mask = ws("mask", (batch, width), fill=1.0)
            shape = (batch, self._dropout_columns.size)
            # the draw borrows dhidden's buffer, which only the backward writes
            mask[:, self._dropout_columns] = nn.make_dropout_mask(
                shape, self._dropout_rates, rng, out=ws("dhidden", shape),
                keep=ws("keep", shape, dtype=bool))
            hidden *= mask
        out = nn.dense(hidden, self.dense_w.value, self.dense_b.value)
        return out[:, 0], dict(ids=ids, inputs=branch_inputs, windows=windows, acts=acts,
                               hidden=hidden, mask=mask, out=out)

    def _backward(self, dprobs, cache, grad_scale, ws):
        hidden = cache["hidden"]
        dhidden, dw, db = nn.dense_backward(dprobs[:, None], hidden, self.dense_w.value,
                                            cache["out"], dx=ws("dhidden", hidden.shape))
        dw *= grad_scale
        self.dense_w.grad += dw
        self.dense_b.grad += grad_scale * db
        if cache["mask"] is not None:
            dhidden *= cache["mask"]
        trainable = self.config.trainable_embeddings
        dembedded = None
        for branch, x, windows, act, columns in zip(self._all_branches, cache["inputs"],
                                                    cache["windows"], cache["acts"],
                                                    self._columns):
            dpooled = dhidden[:, columns].reshape(act.shape[0], -1, act.shape[-1])
            input_grad = trainable and branch is not self.right
            # the first input gradient is the sum the others are added to
            dx_key = ("dembedded" if dembedded is None else "dx") if input_grad else None
            dx = branch.backward(dpooled, x, windows, act, grad_scale, ws, dx_key)
            if dx is None:
                continue
            if dembedded is None:
                dembedded = dx
            else:
                dembedded += dx
        if dembedded is not None:
            dembedded *= grad_scale
            np.add.at(self.embedding.grad, cache["ids"], dembedded)

    def activation_margins(self, inputs) -> tuple[float, float]:
        """(min ReLU pre-activation magnitude, min active pool gap) over the
        batch; both must clear the finite-difference step for a safe
        gradient check."""
        ids, features, _ = self._batch(inputs)
        margins = [b.margins(x) for b, x in zip(self._all_branches,
                                                self._branch_inputs(ids, features))]
        return min(r for r, _ in margins), min(g for _, g in margins)


# PhmdModel and FeatAugModel are siblings, never parent and child, so that
# per-class method patches (e.g. tracing wrappers) apply exactly once.

class PhmdModel(_SentenceCnn):
    """The PHMD classifier: text branches only."""

    kind = "phmd"

    def __init__(self, vocab: dict[str, int], config: ModelConfig,
                 arrays: list[np.ndarray]):
        super().__init__(vocab, config, arrays, config.dropout_rates, None)


class FeatAugModel(_SentenceCnn):
    """PHMD plus the feature branch over the figurative-usage feature row,
    with its own dropout rates; inputs are (ids, feature row) pairs."""

    kind = "feataug"

    def __init__(self, vocab: dict[str, int], config: ModelConfig,
                 arrays: list[np.ndarray]):
        super().__init__(vocab, config, arrays, config.feataug_dropout_rates,
                         feature_row_length(config.include_score_feature))


def build_phmd(table: EmbeddingTable, config: ModelConfig = ModelConfig(),
               seed: int = 0) -> PhmdModel:
    """PHMD classifier with its own copy of the table's matrix as the
    embedding and conv/dense parameters drawn uniform from the run seed."""
    return PhmdModel(dict(table.vocab), config, _initial_arrays(table, config, seed, None))


def build_feataug(table: EmbeddingTable, config: ModelConfig = ModelConfig(),
                  seed: int = 0) -> FeatAugModel:
    """FeatAug classifier, drawn like ``build_phmd``; the feature branch
    reads rows of ``feature_row_length(config.include_score_feature)``."""
    return FeatAugModel(dict(table.vocab), config, _initial_arrays(
        table, config, seed, feature_row_length(config.include_score_feature)))


def _feature_rows(items, config: ModelConfig) -> np.ndarray:
    """(B, n) FeatAug feature rows, one per item: a FigurativeVerdict's
    ``feature_row``, or the item itself as a row."""
    return np.array([feature_row(item, config.include_score_feature)
                     if isinstance(item, FigurativeVerdict) else item for item in items],
                    dtype=np.float64)


def _training_arrays(model, corpus):
    """(ids (N, T), targets (N,), feature rows (N, n) or None) of the
    (ids, label[, verdict]) examples, ordered by one stable lexsort on ids,
    then target, then feature row, so the trace does not depend on the
    corpus's storage order. An id outside the embedding table raises, a
    negative one included: numpy would wrap it onto another row."""
    ids = np.array([item[0] for item in corpus], dtype=np.intp)
    size = model.embedding.value.shape[0]
    outside = ids[(ids < 0) | (ids >= size)]
    if outside.size:
        raise IndexError(f"index {outside[0]} is out of bounds for axis 0 with size {size}")
    targets = np.array([1.0 if item[1] == PHM else 0.0 for item in corpus])
    keys = [targets, *ids.T[::-1]]
    features = None
    if model.kind == "feataug":
        if any(len(item) < 3 or item[2] is None for item in corpus):
            raise ValueError("feature-augmented training requires a figurative "
                             "verdict per example")
        features = _feature_rows([item[2] for item in corpus], model.config)
        keys[:0] = features.T[::-1]
    order = np.lexsort(keys)
    return ids[order], targets[order], None if features is None else features[order]


def train(model, corpus, epochs: int | None = None, batch: int | None = None,
          seed: int = 0, lr: float | None = None) -> list[float]:
    """Minimize mean BCE with Adam; returns the per-epoch mean loss trace.

    The per-epoch shuffle and all dropout masks come from one generator
    seeded here, so identical (corpus, seed) pairs give identical traces.
    The embedding trains as a table of the rows the examples hold, written
    back into the model's own array when training ends or fails; it keeps
    no gradient afterwards.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    config = model.config
    epochs = config.epochs if epochs is None else epochs
    batch = config.batch_size if batch is None else batch
    lr = config.learning_rate if lr is None else lr
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")

    ids, targets, features = _training_arrays(model, corpus)
    # Only the rows the examples hold ever get a gradient, so the gradient
    # and Adam's moments need only those rows. A row no minibatch has used
    # yet has zero moments, and Adam leaves it bitwise unchanged (see
    # nn.Adam), so every value ends as a step over the whole table leaves it.
    embedding = model.embedding
    table = embedding.value
    rows, inverse = np.unique(ids, return_inverse=True)
    embedding.value = table[rows]
    embedding.grad = None
    ids = inverse.reshape(ids.shape)
    try:
        optimizer = nn.Adam(model.parameters(), lr=lr)
        rng = np.random.default_rng(seed)
        # one set of pass buffers for every minibatch; freed when train returns
        workspace = _Workspace()
        trace = []
        for _ in range(epochs):
            order = rng.permutation(len(targets))
            epoch_loss = 0.0
            for start in range(0, len(targets), batch):
                chunk = order[start:start + batch]
                inputs = ids[chunk] if features is None else (ids[chunk], features[chunk])
                epoch_loss += model.loss_and_grad(inputs, targets[chunk], train=True, rng=rng,
                                                  grad_scale=1.0 / len(chunk),
                                                  workspace=workspace)
                if not math.isfinite(epoch_loss):
                    raise FloatingPointError("non-finite training loss")
                optimizer.step()
                _check_finite(optimizer.params)
            trace.append(epoch_loss / len(targets))
        return trace
    finally:
        # restore the model's own array before the write-back can raise
        compact, embedding.value = embedding.value, table
        embedding.grad = None
        table[rows] = compact


def _check_finite(params: list[Parameter]) -> None:
    """Name the first parameter, in declaration order, with a non-finite
    value."""
    for param in params:
        if not np.isfinite(param.value).all():
            raise FloatingPointError(f"non-finite values in parameter {param.name!r} "
                                     f"after an Adam step")


def predict(model, ids, verdicts=None, doc_ids=None) -> list[Prediction]:
    """Eval-mode predictions for the padded id rows ``ids`` (B, T), in one
    ``predict_proba``; PHM iff the probability reaches 0.5.

    ``verdicts`` (FigurativeVerdicts or feature rows, one per id row) feed
    the FeatAug feature branch, which requires them; a FigurativeVerdict's
    label becomes the prediction's figurative label.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if model.kind == "feataug":
        if verdicts is None:
            raise ValueError("feature-augmented prediction requires a figurative "
                             "verdict per document")
        probs = model.predict_proba((ids, _feature_rows(verdicts, model.config)))
    else:
        probs = model.predict_proba(ids)
    verdicts = [None] * len(ids) if verdicts is None else verdicts
    doc_ids = [""] * len(ids) if doc_ids is None else doc_ids
    return [Prediction(doc_id=doc_id, probability=float(prob),
                       label=PHM if prob >= 0.5 else NONPHM,
                       figurative_label=v.label if isinstance(v, FigurativeVerdict) else None)
            for doc_id, prob, v in zip(doc_ids, probs, verdicts, strict=True)]


def pipeline_predict(gate_labels, phmd_predictions: list[Prediction]) -> list[Prediction]:
    """The +Pipeline combiner: a figurative gate label makes its document
    NonPHM with probability 0, without the classifier; a literal one keeps
    the PHMD prediction."""
    return [Prediction(doc_id=pred.doc_id, probability=0.0, label=NONPHM,
                       figurative_label=FIGURATIVE) if gate == FIGURATIVE
            else replace(pred, figurative_label=gate)
            for gate, pred in zip(gate_labels, phmd_predictions, strict=True)]


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


# a number too large for a float is a manifest error too
_MANIFEST_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def load_model(path):
    """The model a ``save_model`` checkpoint holds. Every parameter shape the
    manifest's config implies is compared with the stored arrays (a stored
    FeatAug feature length must be the config's), and the model then adopts
    those arrays: it allocates only their gradients."""
    checkpoint = nn.load_checkpoint(path)
    manifest = checkpoint.manifest
    kind = manifest.get("kind")
    if kind not in ("phmd", "feataug"):
        raise DataError(f"{path}: unknown model kind {kind!r} in checkpoint")
    if not checkpoint.arrays or checkpoint.arrays[0].ndim != 2:
        raise DataError(f"{path}: checkpoint has no embedding matrix")
    stored = [array.shape for array in checkpoint.arrays]
    try:
        raw = dict(manifest["config"])
        for key in ("kernel_widths", "dropout_rates", "feataug_dropout_rates"):
            raw[key] = tuple(raw[key])
        config = ModelConfig(**raw)
        vocab = {word: i for i, word in enumerate(manifest["vocab"])}
        feature_length = feature_row_length(config.include_score_feature) \
            if kind == "feataug" else None
        if kind == "feataug" and operator.index(manifest["feature_length"]) != feature_length:
            raise ValueError(f"feature_length {manifest['feature_length']} stored, "
                             f"{feature_length} from its config")
        shapes = _parameter_shapes(config, len(vocab), stored[0][1], feature_length)
    except _MANIFEST_ERRORS as exc:
        raise DataError(f"{path}: bad checkpoint manifest "
                        f"({type(exc).__name__}: {exc})") from None
    if len(shapes) != len(stored):
        raise DataError(f"{path}: checkpoint has {len(stored)} arrays, "
                        f"model expects {len(shapes)}")
    for (name, shape), array_shape in zip(shapes, stored):
        if shape != array_shape:
            raise DataError(f"{path}: bad checkpoint manifest (shape mismatch for {name}: "
                            f"{array_shape} stored, {shape} from its config)")
    return (PhmdModel if kind == "phmd" else FeatAugModel)(vocab, config, checkpoint.arrays)
