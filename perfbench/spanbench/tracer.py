"""Per-layer tracing from outside the program.

The tracer wraps spanfeat's public functions and methods. A function that
other spanfeat modules import by name (``from .tensor import lstm_cell``) is
replaced in every loaded spanfeat module that holds it, so the wrapper sees
every call. Each call becomes a span (name, start, end, parent) kept in
compact in-memory arrays and written out once the run ends. Self time is a
span's duration minus the part of it its child spans cover. Covered time is
the time inside outermost spans that their child spans account for: what
the outermost spans keep for themselves, or what runs in no span at all, is
not covered.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute path, span name). Methods are patched on the class named
# in the path, so inherited methods (IntentTagger.loss) are timed for that
# class only.
TRACED = (
    ("spanfeat.tensor", "lstm_cell", "tensor.lstm_cell"),
    ("spanfeat.tensor", "unstack_rows", "tensor.unstack_rows"),
    ("spanfeat.tensor", "stack_rows", "tensor.stack_rows"),
    ("spanfeat.tensor", "concat", "tensor.concat"),
    ("spanfeat.tensor", "conv1d_same", "tensor.conv1d_same"),
    ("spanfeat.tensor", "max_over_time", "tensor.max_over_time"),
    ("spanfeat.tensor", "gather_rows", "tensor.gather_rows"),
    ("spanfeat.tensor", "relu", "tensor.relu"),
    ("spanfeat.tensor", "matmul", "tensor.matmul"),
    ("spanfeat.tensor", "add", "tensor.add"),
    ("spanfeat.tensor", "softmax_cross_entropy", "tensor.softmax_cross_entropy"),
    ("spanfeat.tensor", "index_sum", "tensor.index_sum"),
    ("spanfeat.tensor", "Tape.backward", "tensor.Tape.backward"),
    ("spanfeat.encoders", "TokenEncoder.encode", "encoders.TokenEncoder.encode"),
    ("spanfeat.encoders", "TokenEncoder.char_cnn", "encoders.TokenEncoder.char_cnn"),
    ("spanfeat.encoders", "BiLstm.encode", "encoders.BiLstm.encode"),
    ("spanfeat.crf", "log_partition", "crf.log_partition"),
    ("spanfeat.crf", "gold_score", "crf.gold_score"),
    ("spanfeat.crf", "viterbi", "crf.viterbi"),
    ("spanfeat.models", "IntentTagger.loss", "models.IntentTagger.loss"),
    ("spanfeat.models", "IntentTagger.decode", "models.IntentTagger.decode"),
    ("spanfeat.models", "GlobalLocalClassifier.loss", "models.GlobalLocalClassifier.loss"),
    ("spanfeat.models", "GlobalLocalClassifier.classify", "models.GlobalLocalClassifier.classify"),
    ("spanfeat.models", "GlobalLocalClassifier.represent", "models.GlobalLocalClassifier.represent"),
    ("spanfeat.models", "SpanCnnClassifier.loss", "models.SpanCnnClassifier.loss"),
    ("spanfeat.models", "SpanCnnClassifier.classify", "models.SpanCnnClassifier.classify"),
    ("spanfeat.models", "load_model", "models.load_model"),
    ("spanfeat.models", "serialize_model", "models.serialize_model"),
    ("spanfeat.training", "train", "training.train"),
    ("spanfeat.training", "SgdMomentum.step", "training.SgdMomentum.step"),
    ("spanfeat.training", "Adadelta.step", "training.Adadelta.step"),
    ("spanfeat.data", "build_vocabularies", "data.build_vocabularies"),
    ("spanfeat.data", "masked_examples", "data.masked_examples"),
    ("spanfeat.data", "utterance_from_json", "data.utterance_from_json"),
    ("spanfeat.data", "utterance_to_json", "data.utterance_to_json"),
    ("spanfeat.data", "decode_iobes", "data.decode_iobes"),
    ("spanfeat.synthetic", "generate_synthetic", "synthetic.generate_synthetic"),
    ("spanfeat.evaluation", "evaluate_feature_model", "evaluation.evaluate_feature_model"),
    ("spanfeat.evaluation", "intent_span_f1", "evaluation.intent_span_f1"),
)

# Spans the benchmark opens around its own calls into the program.
BENCH_SPANS = ("cli.predict", "training.dev_metric")

# Counters kept beside the spans.
COUNTERS = (
    "tensor.tape_nodes",
    "tensor.tensors_created",
    "models.bundle_bytes",
    "data.decode_iobes.repairs",
)


_INHERITED = object()  # marks a patched attribute the owner did not define


class Tracer:
    """Records spans and counters while installed; a no-op ``span`` otherwise."""

    def __init__(self) -> None:
        self.names: list[str] = list(name for _, _, name in TRACED) + list(BENCH_SPANS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.counters = {name: 0 for name in COUNTERS}
        # span arrays, indexed by span number in start order
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span number, name id, start, child time]
        self._stack: list[list] = []
        self.covered_s = 0.0
        self.paused = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name_id: int) -> None:
        start = time.perf_counter()
        number = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([number, name_id, start, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        number, name_id, start, child = self._stack.pop()
        self.span_end[number] = end
        duration = end - start
        self.calls[name_id] += 1
        self.self_s[name_id] += duration - child
        self.total_s[name_id] += duration
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.covered_s += child

    @contextmanager
    def span(self, name: str):
        """Open a span around code of the benchmark's own (see BENCH_SPANS)."""
        if self.paused or not self._patches:
            yield
            return
        self._enter(self._ids[name])
        try:
            yield
        finally:
            self._exit()

    @contextmanager
    def pause(self):
        """Stop recording, e.g. while the benchmark checks outputs."""
        previous, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = previous

    # -- patching ----------------------------------------------------------

    def _wrap(self, original, name: str):
        name_id = self._ids[name]
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            tracer._enter(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit()

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every traced name; call ``uninstall`` to restore them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in TRACED:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                cls = getattr(module, class_name)
                self._set(cls, method, self._wrap(getattr(cls, method), name))
                continue
            original = getattr(module, path)
            self._replace_everywhere(original, self._wrap(original, name))
        self._install_counters()

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every name in a loaded spanfeat module that refers to ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("spanfeat"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _install_counters(self) -> None:
        tensor = importlib.import_module("spanfeat.tensor")
        models = importlib.import_module("spanfeat.models")
        counters = self.counters
        tracer = self

        init = tensor.Tensor.__init__

        def counted_init(obj, values) -> None:
            if not tracer.paused:
                counters["tensor.tensors_created"] += 1
            init(obj, values)

        self._set(tensor.Tensor, "__init__", counted_init)

        backward = tensor.Tape.backward  # already the span wrapper

        def counted_backward(tape, loss, seed=1.0):
            if not tracer.paused:
                counters["tensor.tape_nodes"] += len(tape)
            return backward(tape, loss, seed)

        self._set(tensor.Tape, "backward", counted_backward)

        data = importlib.import_module("spanfeat.data")
        traced_decode = data.decode_iobes

        def counted_decode(tags):
            spans, repairs = traced_decode(tags)
            if not tracer.paused:
                counters["data.decode_iobes.repairs"] += repairs
            return spans, repairs

        self._replace_everywhere(traced_decode, counted_decode)

        load = models.load_model

        def counted_load(path):
            if not tracer.paused:
                counters["models.bundle_bytes"] += Path(path).stat().st_size
            return load(path)

        self._replace_everywhere(load, counted_load)

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._patches):
            if previous is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            if name == "training.dev_metric":
                out["training.dev_metric_s"] = (self.total_s[i], "s")
                continue
            out[f"{name}.calls"] = (self.calls[i], "count")
            if name != "data.decode_iobes":
                out[f"{name}.self_s"] = (self.self_s[i], "s")
        for name, value in self.counters.items():
            out[name] = (value, "bytes" if name == "models.bundle_bytes" else "count")
        return out

    def write(self, path: Path) -> None:
        """Write every span as compressed arrays; times are seconds from the first span."""
        starts = np.frombuffer(self.span_start, dtype=np.float64)
        origin = starts[0] if starts.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=starts - origin,
            end=np.frombuffer(self.span_end, dtype=np.float64) - origin,
        )


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in output order."""
    return [(name, unit) for name, (_, unit) in Tracer().per_layer().items()]
