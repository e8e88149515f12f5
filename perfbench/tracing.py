"""Outside-in span tracing of tmcn's layers for the benchmark's traced run.

No tmcn source changes: for the length of a ``traced`` block each layer's
public function is replaced by a timing wrapper on the attribute its
caller looks up.  The package imports with ``from .tensor import ...``,
so ``tmcn.fusion.state_scan`` is wrapped, not ``tmcn.tensor.state_scan``.
On exit every original attribute is put back.

Backward time is found by wrapping ``tensor.Tape.record``: each backward
closure it receives is timed when the tape replays it, and charged to
the innermost span that was open when the node was recorded.  A closure
span's parent is the ``tensor.backward`` span it ran in, so self times
still add up along the execution tree.

Spans are timed with the wall clock, stay in memory and are reduced to
per-layer metrics once, at the end of the run.  Each per-layer metric is listed below with the
end-to-end metric it should move, and on which workload:

====================================  ========================  ================================
metric                                should move               on
====================================  ========================  ================================
tensor.state_scan.fwd_s / .bwd_s      train_s; eval_s (fwd)     acceptance; eval_s on
                                                                cluster_large
tensor.state_scan.calls               train_s                   acceptance
tensor.state_scan.bytes_computed      train_s                   acceptance
tensor.conv1d_depthwise.fwd_s/.bwd_s  train_s                   acceptance
tensor.matmul.fwd_s / .bwd_s / .calls train_s                   acceptance
tensor.cosine_similarity_matrix.*     train_s                   acceptance
tensor.backward_s                     train_s                   both
tensor.tape_records_per_step          train_s                   acceptance
autoencoder.encode_s/.decode_s/.bwd_s train_s                   acceptance
fusion.forward_s / .bwd_s / .self_s   train_s, eval_s           acceptance; eval_s on
                                                                cluster_large
contrastive.*                         train_s                   acceptance
clustering.kmeans_s / .lloyd_iters    eval_s                    cluster_large; train_s nowhere
clustering.metrics_s                  eval_s                    cluster_large
trainer.adam_step_s / .steps          train_s                   acceptance
trainer.fused_embedding_s             eval_s, peak_rss_mib      cluster_large
trainer.checkpoint_save_s / _load_s   train_s / eval_s          cluster_large
data.generate_s/.rescale_s/.save_s    setup_s                   both
data.load_s / .normalize_s            eval_s                    cluster_large
cli.eval_self_s                       eval_s                    cluster_large
trace.overhead_frac                   (none)                    both
trace.unattributed_frac               (none)                    both
====================================  ========================  ================================

``tensor.state_scan.bytes_computed`` is computed, not measured: 8*N*L*C*S
bytes (one float64 state slab per step) per state pass, one pass forward
and two backward (the checkpoint replay and the reverse sweep).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

BWD = "bwd"            # name of a backward-closure span
TRAIN = "trainer.train"


class Span:
    """One timed interval.  ``charged`` is set on backward-closure spans only."""

    __slots__ = ("name", "start", "end", "parent", "charged", "work")

    def __init__(self, name, start, parent=None, charged=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.charged = charged
        self.work = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a stack of open spans and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[Span] = []

    def begin(self, name: str, charged: Span | None = None) -> Span:
        span = Span(name, self.clock(), self._open[-1] if self._open else None, charged)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed while {popped.name} is open")

    def innermost(self) -> Span | None:
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)


class NullTracer:
    """Stands in for a Tracer in untraced sessions: spans cost one no-op context."""

    def span(self, name: str):
        return _NULL


_NULL = contextlib.nullcontext()


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans: list[Span]) -> dict[Span, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[Span, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s] = s.duration - covered
    return out


def _lineage(span: Span | None):
    while span is not None:
        yield span
        span = span.parent


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce a traced run's spans and counters to the per-layer metrics."""
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1

    self_total = defaultdict(float)
    for s, t in self_times(spans).items():
        self_total[s.name] += t

    bwd_op = defaultdict(float)        # innermost recording span
    bwd_layer = defaultdict(float)     # every layer on the recording span's lineage
    scan_bytes = sum(s.work for s in spans if s.name == "tensor.state_scan")
    for s in spans:
        if s.name != BWD or s.charged is None:
            continue
        bwd_op[s.charged.name] += s.duration
        if s.charged.name == "tensor.state_scan":
            scan_bytes += 2 * s.charged.work
        for layer in {a.name.split(".")[0] for a in _lineage(s.charged)}:
            bwd_layer[layer] += s.duration

    steps = calls["tensor.backward"]
    terms = tracer.counters["contrastive.terms"]
    m = {}
    for op in ("state_scan", "conv1d_depthwise", "matmul", "cosine_similarity_matrix"):
        m[f"tensor.{op}.fwd_s"] = total[f"tensor.{op}"]
        m[f"tensor.{op}.bwd_s"] = bwd_op[f"tensor.{op}"]
    m["tensor.state_scan.calls"] = calls["tensor.state_scan"]
    m["tensor.state_scan.bytes_computed"] = scan_bytes
    m["tensor.matmul.calls"] = calls["tensor.matmul"]
    m["tensor.backward_s"] = total["tensor.backward"]
    m["tensor.tape_records_per_step"] = tracer.counters["tape.records"] / steps if steps else 0.0
    m["autoencoder.encode_s"] = total["autoencoder.encode"]
    m["autoencoder.decode_s"] = total["autoencoder.decode"]
    m["autoencoder.bwd_s"] = bwd_layer["autoencoder"]
    m["fusion.forward_s"] = total["fusion.forward"]
    m["fusion.bwd_s"] = bwd_layer["fusion"]
    m["fusion.self_s"] = self_total["fusion.forward"]
    m["contrastive.view_similarity_s"] = total["contrastive.view_similarity"]
    m["contrastive.loss_s"] = total["contrastive.loss"]
    m["contrastive.bwd_s"] = bwd_layer["contrastive"]
    m["contrastive.clamp_frac"] = tracer.counters["contrastive.clamped"] / terms if terms else 0.0
    m["clustering.kmeans_s"] = total["clustering.kmeans"]
    m["clustering.lloyd_iters"] = tracer.counters["clustering.lloyd_iters"]
    m["clustering.metrics_s"] = total["clustering.metrics"]
    m["trainer.adam_step_s"] = total["trainer.adam_step"]
    m["trainer.steps"] = calls["trainer.adam_step"]
    m["trainer.fused_embedding_s"] = total["trainer.fused_embedding"]
    m["trainer.checkpoint_save_s"] = total["trainer.checkpoint_save"]
    m["trainer.checkpoint_load_s"] = total["trainer.checkpoint_load"]
    for stage in ("generate", "rescale", "save", "load", "normalize"):
        m[f"data.{stage}_s"] = total[f"data.{stage}"]
    m["cli.eval_self_s"] = self_total["cli.eval"]
    m["trace.unattributed_frac"] = self_total[TRAIN] / total[TRAIN] if total[TRAIN] else 0.0
    return {name: float(value) for name, value in m.items()}


# ---------------------------------------------------------------------------
# wrappers

def _note_scan(signature, tracer, span, args, kwargs, out):
    bound = signature.bind(*args, **kwargs).arguments
    n, length, channels = bound["x"].shape
    span.work = 8 * n * length * channels * bound["b_seq"].shape[2]


def _note_kmeans(tracer, span, args, kwargs, out):
    tracer.counters["clustering.lloyd_iters"] += out.n_iter


def _note_contrastive(tracer, span, args, kwargs, out):
    stats = out[1]
    tracer.counters["contrastive.clamped"] += stats.clamped
    tracer.counters["contrastive.terms"] += stats.terms


def _targets():
    """(owner, attribute, span name, note) for every wrapped layer entry.

    A note runs after the call with the call's arguments and result, to
    record work counts on the span or the tracer.
    """
    from tmcn import cli, contrastive, fusion, nn, tensor, trainer

    model = trainer.TmcnModel
    note_scan = functools.partial(_note_scan, inspect.signature(fusion.state_scan))
    return [
        (fusion, "state_scan", "tensor.state_scan", note_scan),
        (fusion, "conv1d_depthwise", "tensor.conv1d_depthwise", None),
        (fusion, "matmul", "tensor.matmul", None),
        (nn, "matmul", "tensor.matmul", None),
        (contrastive, "cosine_similarity_matrix", "tensor.cosine_similarity_matrix", None),
        (tensor.Tape, "backward", "tensor.backward", None),
        (model, "encode_views", "autoencoder.encode", None),
        (model, "decode_views", "autoencoder.decode", None),
        (trainer, "reconstruction_loss", "autoencoder.loss", None),
        (model, "fuse", "fusion.forward", None),
        (trainer, "view_similarity", "contrastive.view_similarity", None),
        (trainer, "average_similarity", "contrastive.average_similarity", None),
        (trainer, "project", "contrastive.project", None),
        (trainer, "contrastive_loss", "contrastive.loss", _note_contrastive),
        (trainer, "kmeans", "clustering.kmeans", _note_kmeans),
        (trainer, "evaluate_labels", "clustering.metrics", None),
        (trainer.Adam, "step", "trainer.adam_step", None),
        (model, "from_config", "trainer.model_init", None),
        (model, "fused_embedding", "trainer.fused_embedding", None),
        (cli, "train", TRAIN, None),
        (cli, "evaluate", "trainer.evaluate", None),
        (cli, "save_checkpoint", "trainer.checkpoint_save", None),
        (cli, "load_model", "trainer.checkpoint_load", None),
        (cli, "load_dataset", "data.load", None),
        (cli, "normalize_views", "data.normalize", None),
        (cli, "dataset_fingerprint", "data.fingerprint", None),
    ]


def _timed(tracer: Tracer, name: str, func, note=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            out = func(*args, **kwargs)
        finally:
            tracer.end(span)
        if note is not None:
            note(tracer, span, args, kwargs, out)
        return out
    return wrapper


def _timed_record(tracer: Tracer, record):
    @functools.wraps(record)
    def wrapper(tape, out, inputs, backward_fn):
        charged = tracer.innermost()

        def timed_backward(g):
            span = tracer.begin(BWD, charged)
            try:
                backward_fn(g)
            finally:
                tracer.end(span)

        tracer.counters["tape.records"] += 1
        return record(tape, out, inputs, timed_backward)
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install every layer wrapper for the block; restore the originals on exit."""
    from tmcn import tensor

    saved = []
    try:
        for owner, attr, name, note in _targets():
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_timed(tracer, name, raw.__func__, note)))
            else:
                setattr(owner, attr, _timed(tracer, name, raw, note))
        raw = tensor.Tape.__dict__["record"]
        saved.append((tensor.Tape, "record", raw))
        tensor.Tape.record = _timed_record(tracer, raw)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def wrapped_attributes():
    """(owner, attribute) of every wrapper site, for checking they are restored."""
    from tmcn import tensor

    return [(owner, attr) for owner, attr, _, _ in _targets()] + [(tensor.Tape, "record")]
