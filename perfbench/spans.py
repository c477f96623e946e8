"""In-memory span tracer that wraps figphm's public functions from outside.

Spans are kept in flat arrays (name id, start, end, parent, run id) while a
traced pass runs and are written out once, at exit. Names are wrapped where
they are looked up, not where they are defined: ``figphm.harness`` imports
``train``, ``build_phmd`` and friends by name, ``figphm.figurative`` imports
``cosine`` and ``nearest_neighbors``, ``figphm.phm`` calls ``nn.<fn>`` through
the module, and the detector's tagger is a bound default, so it is reached
through the detector's public ``tagger`` attribute.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

NO_PARENT = -1
SETUP_RUN = 0


def _conv_flop(x: np.ndarray, kernels: np.ndarray) -> float:
    """Multiply-adds of one valid conv1d forward, counted as 2 flop each."""
    n_filters, width, dim = kernels.shape
    return 2.0 * (x.shape[0] - width + 1) * n_filters * width * dim


class Tracer:
    """Records nested spans around wrapped callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self._stack = [NO_PARENT]
        self.run_id = SETUP_RUN
        self.active = False
        self.conv_flop = 0.0                    # computed from call shapes
        self.models: list[tuple[int, object]] = []   # (run id, model) built while tracing
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name_id: int, fn, args, kwargs):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[index] = t0
            self.end[index] = t1

    def wrap(self, name: str, fn):
        """A transparent wrapper that records one span per call while active."""
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.span(name_id, fn, args, kwargs)
        return traced

    def _wrap_conv(self, base: str, fn, backward: bool):
        ids = {w: self._id(f"{base}.w{w}") for w in range(2, 6)}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            x, kernels = (args[1], args[2]) if backward else (args[0], args[1])
            width = int(kernels.shape[1])
            self.conv_flop += _conv_flop(x, kernels) * (2.0 if backward else 1.0)
            name_id = ids[width] if width in ids else self._id(f"{base}.w{width}")
            return self.span(name_id, fn, args, kwargs)
        return traced

    def _wrap_build(self, name: str, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def keep(*args, **kwargs):
            model = traced(*args, **kwargs)
            if self.active:
                self.models.append((self.run_id, model))
            return model
        return keep

    def _wrap_detector_init(self, fn):
        traced = self.wrap("figurative.detector_init", fn)

        @functools.wraps(fn)
        def init(detector, *args, **kwargs):
            traced(detector, *args, **kwargs)
            if self.active:
                detector.tagger = self.wrap("figurative.pos_tag", detector.tagger)
        return init

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def install(self, run_id: int) -> None:
        """Wrap every traced name and start recording under ``run_id``."""
        from figphm import embeddings, figurative, harness, neuralnet, phm

        self.run_id = run_id
        nn_names = {
            "relu": "relu", "relu_backward": "relu_backward",
            "maxpool1d": "maxpool1d", "maxpool1d_backward": "maxpool1d_backward",
            "make_dropout_mask": "make_dropout_mask", "dense": "dense",
            "dense_backward": "dense_backward", "bce_loss": "bce", "bce_grad": "bce",
        }
        for attr, label in nn_names.items():
            self._patch(neuralnet, attr, self.wrap(f"neuralnet.{label}", getattr(neuralnet, attr)))
        self._patch(neuralnet, "conv1d",
                    self._wrap_conv("neuralnet.conv1d", neuralnet.conv1d, backward=False))
        self._patch(neuralnet, "conv1d_backward",
                    self._wrap_conv("neuralnet.conv1d_backward", neuralnet.conv1d_backward,
                                    backward=True))
        self._patch(neuralnet.Adam, "step", self.wrap("neuralnet.adam_step", neuralnet.Adam.step))

        for cls in (phm.PhmdModel, phm.FeatAugModel):
            self._patch(cls, "loss_and_grad", self.wrap("phm.loss_and_grad", cls.loss_and_grad))
            self._patch(cls, "predict_proba", self.wrap("phm.predict", cls.predict_proba))
        for owner in (phm, harness):
            self._patch(owner, "train", self.wrap("phm.train", owner.train))
            self._patch(owner, "build_phmd", self._wrap_build("phm.build", owner.build_phmd))
            self._patch(owner, "build_feataug", self._wrap_build("phm.build", owner.build_feataug))

        for owner in (embeddings, figurative):
            self._patch(owner, "cosine", self.wrap("embeddings.cosine", owner.cosine))
        self._patch(figurative, "nearest_neighbors",
                    self.wrap("embeddings.nearest_neighbors", figurative.nearest_neighbors))
        for owner in (embeddings, harness):
            self._patch(owner, "load_table", self.wrap("embeddings.load_table", owner.load_table))
            self._patch(owner, "retrofit", self.wrap("embeddings.retrofit", owner.retrofit))
        for owner in (embeddings, harness):
            self._patch(owner, "random_table",
                        self.wrap("embeddings.random_table", owner.random_table))
        self._patch(harness, "project_table",
                    self.wrap("embeddings.project_table", harness.project_table))

        detector = figurative.FigurativeDetector
        self._patch(detector, "__init__", self._wrap_detector_init(detector.__init__))
        self._patch(detector, "verdict", self.wrap("figurative.verdict", detector.verdict))
        for attr in ("literal_usage_score", "extract_features"):
            self._patch(figurative, attr, self.wrap(f"figurative.{attr}",
                                                    getattr(figurative, attr)))
        for owner in (figurative, harness):
            self._patch(owner, "lda_estimate",
                        self.wrap("figurative.lda_estimate", owner.lda_estimate))

        for attr in ("run_experiment", "stratified_kfold", "build_detector",
                     "build_spec_table"):
            self._patch(harness, attr, self.wrap(f"harness.{attr}", getattr(harness, attr)))
        self._patch(harness, "load_dataset", self.wrap("corpus.load_dataset", harness.load_dataset))
        self._patch(harness, "pad", self.wrap("corpus.pad", harness.pad))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Every span recorded in this process, as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


class SpanStats:
    """Per-name busy time, self time, call count and durations, restricted
    to traced passes (run id > 0) plus the set-up phase (run id 0)."""

    def __init__(self, tracer: Tracer, n_traced_passes: int):
        spans = tracer.arrays()
        self.n_passes = max(1, n_traced_passes)
        duration = spans["end"] - spans["start"]
        child = np.zeros_like(duration)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], duration[has_parent])
        self._duration = duration
        self._self = duration - child
        self._name = spans["name"]
        self._setup = spans["run"] == SETUP_RUN
        self._ids = {name: i for i, name in enumerate(tracer.names)}

    def _mask(self, name: str) -> np.ndarray | None:
        name_id = self._ids.get(name)
        return None if name_id is None else self._name == name_id

    def _per_pass(self, values: np.ndarray, mask: np.ndarray) -> float:
        return (float(values[mask & ~self._setup].sum()) / self.n_passes
                + float(values[mask & self._setup].sum()))

    def busy_s(self, name: str) -> float:
        mask = self._mask(name)
        return 0.0 if mask is None else self._per_pass(self._duration, mask)

    def self_s(self, name: str) -> float:
        mask = self._mask(name)
        return 0.0 if mask is None else self._per_pass(self._self, mask)

    def calls(self, name: str) -> float:
        mask = self._mask(name)
        return 0.0 if mask is None else self._per_pass(np.ones_like(self._duration), mask)

    def durations(self, name: str) -> np.ndarray:
        mask = self._mask(name)
        return np.empty(0) if mask is None else self._duration[mask & ~self._setup]
