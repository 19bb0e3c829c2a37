"""The intensity extractor: transformer feature encoder over speech frames.

Input frames pass through an input projection, sinusoidal positional
encoding, and a stack of feed-forward-transformer blocks (multi-head
self-attention plus a two-layer 1-D convolutional feed-forward, each with a
residual connection and layer norm). An emotion embedding row is then added
to every frame, yielding the per-frame intensity representation. Every
residual add and layer norm, and the position table's and the embedding's
adds, run as epilogues of the affine op before them (see
``numerics._affine``). Two small heads read the time-pooled vectors: a
linear classifier over emotion classes, and a two-layer projector producing
the scalar rank score.

Every stage takes one shape: a packed (sum T, C) batch of utterances with
their frame counts as segment lengths, and (B, hidden) pooled rows for the
heads. A single utterance is a batch of one segment.

Models persist in the EMOM format, one binio table section (see save_model).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .binio import (FileFormatError, atomic_write, check_tables, read_table_section,
                    write_table_section)
from .numerics import Tensor

EMOM_MAGIC = b"EMOM"
EMOM_VERSION = 1


@dataclass
class ExtractorConfig:
    """Architecture hyperparameters; all widths are config-exposed."""

    input_dim: int = 82
    hidden_dim: int = 256
    n_fft_blocks: int = 2
    n_heads: int = 2
    conv_kernel: int = 9
    conv_filter_dim: int = 1024
    dropout: float = 0.1
    n_emotion_classes: int = 2  # includes neutral
    projector_hidden: int = 128

    def __post_init__(self):
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by n_heads {self.n_heads}")
        if self.n_emotion_classes < 2:
            raise ValueError(f"need >= 2 emotion classes, got {self.n_emotion_classes}")
        for name in ("input_dim", "hidden_dim", "n_fft_blocks", "n_heads",
                     "conv_kernel", "conv_filter_dim", "projector_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


class ModelParams:
    """All trainable tensors plus the metadata needed to use them.

    ``emotions`` maps class index to label; index 0 is always the neutral
    class. ``feat_mean``/``feat_std`` are the per-channel normalization
    statistics gathered from the training corpus, applied to raw features
    before the first projection. The tensors and the statistics share one
    dtype, else ValueError, also when the statistics are assigned later.
    """

    def __init__(self, config: ExtractorConfig, emotions: list[str],
                 tensors: dict[str, Tensor],
                 feat_mean: np.ndarray | None = None,
                 feat_std: np.ndarray | None = None):
        if len(emotions) != config.n_emotion_classes:
            raise ValueError(f"{len(emotions)} emotion labels for "
                             f"{config.n_emotion_classes} classes")
        if len({t.dtype for t in tensors.values()}) > 1:
            raise ValueError("tensors need one dtype")
        self.config = config
        self.emotions = list(emotions)
        self.tensors = tensors
        self.feat_mean = feat_mean
        self.feat_std = feat_std

    def __setattr__(self, name, value):
        if name in ("feat_mean", "feat_std") and value is not None and value.dtype != self.dtype:
            raise ValueError(f"tensors and feature statistics need one dtype: "
                             f"{name} is {value.dtype}, tensors are {self.dtype}")
        super().__setattr__(name, value)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    @property
    def dtype(self):
        return self.tensors["in_proj.w"].dtype

    def class_index(self, emotion) -> int:
        if isinstance(emotion, (int, np.integer)):
            idx = int(emotion)
            if not 0 <= idx < len(self.emotions):
                raise ValueError(f"class index {idx} out of range")
            return idx
        label = str(emotion).strip().lower()
        try:
            return self.emotions.index(label)
        except ValueError:
            raise ValueError(f"unknown emotion label '{emotion}'; "
                             f"model knows {self.emotions}") from None

    def zero_grads(self):
        for t in self.tensors.values():
            t.zero_grad()

    def constants(self) -> "ModelParams":
        """A tape-free view for inference: the same arrays as constant
        tensors, so ops on them keep no parents and no backward closures."""
        return ModelParams(self.config, self.emotions,
                           {name: Tensor(t.data) for name, t in self.tensors.items()},
                           self.feat_mean, self.feat_std)


def _expected_shapes(cfg: ExtractorConfig) -> dict[str, tuple]:
    h, f, k = cfg.hidden_dim, cfg.conv_filter_dim, cfg.conv_kernel
    shapes = {"in_proj.w": (cfg.input_dim, h), "in_proj.b": (h,)}
    for i in range(cfg.n_fft_blocks):
        p = f"block{i}."
        for nm_ in ("wq", "wk", "wv", "wo"):
            shapes[p + "attn." + nm_] = (h, h)
        for nm_ in ("bq", "bk", "bv", "bo"):
            shapes[p + "attn." + nm_] = (h,)
        shapes[p + "norm1.gain"] = (h,)
        shapes[p + "norm1.bias"] = (h,)
        shapes[p + "conv1.w"] = (k, h, f)
        shapes[p + "conv1.b"] = (f,)
        shapes[p + "conv2.w"] = (1, f, h)
        shapes[p + "conv2.b"] = (h,)
        shapes[p + "norm2.gain"] = (h,)
        shapes[p + "norm2.bias"] = (h,)
    shapes["emb.table"] = (cfg.n_emotion_classes, h)
    shapes["cls.w"] = (h, cfg.n_emotion_classes)
    shapes["cls.b"] = (cfg.n_emotion_classes,)
    shapes["proj.w1"] = (h, cfg.projector_hidden)
    shapes["proj.b1"] = (cfg.projector_hidden,)
    shapes["proj.w2"] = (cfg.projector_hidden, 1)
    shapes["proj.b2"] = (1,)
    return shapes


def init_params(cfg: ExtractorConfig, emotions: list[str],
                rng: np.random.Generator, dtype=np.float32) -> ModelParams:
    """Fresh parameters: weights uniform in +-1/sqrt(fan_in), biases zero,
    norm gains one, emotion embeddings N(0, 0.01)."""
    tensors: dict[str, Tensor] = {}
    for name, shape in _expected_shapes(cfg).items():
        if name == "emb.table":
            data = rng.normal(0.0, 0.01, size=shape)
        elif name.endswith(".gain"):
            data = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo", ".bias")):
            data = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[:-1]))
            bound = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-bound, bound, size=shape)
        tensors[name] = Tensor(np.asarray(data, dtype=dtype), requires_grad=True)
    return ModelParams(cfg, emotions, tensors)


# ---------------------------------------------------------------------------
# forward pass

_POSENC_CACHE: dict[tuple, np.ndarray] = {}


def _position_table(t_len: int, dim: int, dtype) -> np.ndarray:
    """The (t_len, dim) sinusoidal position table, computed afresh."""
    pos = np.arange(t_len, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * (idx // 2) / dim)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return np.asarray(table, dtype=dtype)


def positional_encoding(t_len: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Standard sinusoidal position table, (t_len, dim) in ``dtype``, as a
    read-only view.

    Every entry is computed from its own position and channel alone, so the
    table of T rows is bitwise the first T rows of any longer one. One
    read-only table is kept per (dim, dtype), grown geometrically to the
    longest length asked for, and each call returns a view of its first
    ``t_len`` rows: a corpus of many distinct lengths costs one table.
    """
    key = (dim, np.dtype(dtype).str)
    table = _POSENC_CACHE.get(key)
    if table is None or table.shape[0] < t_len:
        rows = t_len if table is None else max(t_len, 2 * table.shape[0])
        table = _POSENC_CACHE[key] = _position_table(rows, dim, dtype)
        table.flags.writeable = False
    return table[:t_len]


def draw_dropout_masks(cfg: ExtractorConfig, t_len: int,
                       rng: np.random.Generator) -> list[np.ndarray]:
    """The bool dropout keep masks of one training forward over ``t_len``
    frames.

    Shapes and order are the forward's own: per FFT block, the attention
    output (T, hidden), the first conv's activations (T, filter) and the
    second conv's output (T, hidden), all drawn in one
    :func:`numerics.dropout_masks` call.
    """
    if cfg.dropout == 0.0:
        return []
    widths = (cfg.hidden_dim, cfg.conv_filter_dim, cfg.hidden_dim) * cfg.n_fft_blocks
    return nm.dropout_masks([(t_len, w) for w in widths], cfg.dropout, rng)


def _self_attention(params: ModelParams, prefix: str, x: Tensor, lengths, keep) -> Tensor:
    """LayerNorm(x + dropout(attention(x) wo + bo)) as three ``matmul`` ops,
    an ``attention`` op and the output projection, whose dropout, residual
    add and layer norm are its in-place epilogues."""
    cfg = params.config
    q = nm.matmul(x, params[prefix + "attn.wq"], params[prefix + "attn.bq"])
    k = nm.matmul(x, params[prefix + "attn.wk"], params[prefix + "attn.bk"])
    v = nm.matmul(x, params[prefix + "attn.wv"], params[prefix + "attn.bv"])
    heads = nm.attention(q, k, v, cfg.n_heads, lengths)
    return nm.matmul(heads, params[prefix + "attn.wo"], params[prefix + "attn.bo"],
                     p=cfg.dropout, keep=next(keep, None), residual=x,
                     norm=(params[prefix + "norm1.gain"], params[prefix + "norm1.bias"]))


def _conv_ff(params: ModelParams, prefix: str, x: Tensor, lengths, keep) -> Tensor:
    """LayerNorm(x + dropout(conv2(dropout(ReLU(conv1(x)))))) as two
    ``conv1d`` ops: the ReLU and each dropout, and the residual add and layer
    norm after the second conv, are in-place epilogues of the conv before
    them, so the graph keeps one (T, filter) activation per block and no
    (T, hidden) array between conv2 and the norm. In eval mode, and at
    dropout 0, ``keep`` yields no masks and nothing is dropped."""
    cfg = params.config
    c = nm.conv1d(x, params[prefix + "conv1.w"], params[prefix + "conv1.b"], lengths,
                  relu=True, p=cfg.dropout, keep=next(keep, None))
    return nm.conv1d(c, params[prefix + "conv2.w"], params[prefix + "conv2.b"], lengths,
                     p=cfg.dropout, keep=next(keep, None), residual=x,
                     norm=(params[prefix + "norm2.gain"], params[prefix + "norm2.bias"]))


def _fft_block(params: ModelParams, index: int, x: Tensor, lengths, keep) -> Tensor:
    prefix = f"block{index}."
    x = _self_attention(params, prefix, x, lengths, keep)
    return _conv_ff(params, prefix, x, lengths, keep)


def forward_intensity(params: ModelParams, x, emotion_class, *,
                      dropout_masks: list | None = None) -> Tensor:
    """Per-frame intensity representation: FFT blocks plus the class embedding.

    ``x`` is a list of raw (T, input_dim) feature matrices and
    ``emotion_class`` one class index or label per matrix; passing the
    neutral class is allowed for diagnostics only. The matrices run as one
    packed batch, joined along time into a (sum T, hidden) result with no
    padding. Every segment is encoded as if it ran alone: positions restart
    at 0, convolutions pad each segment with its own zeros, attention stays
    inside the segment, and the segment's class embedding is added to its
    frames. Pool the result with the segment lengths. A bare matrix and one
    class are a batch of one.

    Normalization statistics stored on the model are applied first. A
    forward handed ``dropout_masks`` is a training forward: one
    :func:`draw_dropout_masks` list per segment (``3 * n_fft_blocks`` bool
    masks, or none at dropout 0), each site's masks joined along time; any
    other count raises ValueError. Without masks the forward is eval mode
    and deterministic.
    """
    cfg = params.config
    if not isinstance(x, (list, tuple)):
        x, emotion_class = [x], [emotion_class]
    segments = [np.asarray(s) for s in x]
    classes = [params.class_index(c) for c in emotion_class]
    if len(classes) != len(segments):
        raise ValueError(f"{len(classes)} emotion classes for {len(segments)} segments")
    for seg in segments:
        if seg.ndim != 2 or seg.shape[1] != cfg.input_dim or seg.shape[0] < 1:
            raise ValueError(f"expected (T, {cfg.input_dim}) input, got {seg.shape}")
    lengths = [seg.shape[0] for seg in segments]
    data = np.concatenate(segments)
    if params.feat_mean is not None:
        data = (data - params.feat_mean) / params.feat_std

    keep = iter(())
    if dropout_masks is not None:
        n_masks = 3 * cfg.n_fft_blocks if cfg.dropout > 0.0 else 0
        if [len(m) for m in dropout_masks] != [n_masks] * len(segments):
            raise ValueError(f"need {n_masks} dropout masks for each of "
                             f"{len(segments)} segments")
        keep = (np.concatenate(site) for site in zip(*dropout_masks))

    h = Tensor(np.asarray(data, dtype=params.dtype))
    pos = [positional_encoding(t, cfg.hidden_dim, params.dtype) for t in lengths]
    # the position table is a constant residual: the graph does not hold it
    h = nm.matmul(h, params["in_proj.w"], params["in_proj.b"], residual=np.concatenate(pos))
    for i in range(cfg.n_fft_blocks):
        h = _fft_block(params, i, h, lengths, keep)
    # each frame's class embedding row, as a one-hot matmul so the table's
    # gradient is one product rather than a scatter over frames, with h as
    # its residual
    one_hot = np.zeros((h.shape[0], cfg.n_emotion_classes), dtype=params.dtype)
    one_hot[np.arange(h.shape[0]), np.repeat(classes, lengths)] = 1.0
    i_seq = nm.matmul(Tensor(one_hot), params["emb.table"], residual=h)
    i_seq.validate_finite()
    return i_seq


def pool(i_seq: Tensor, lengths=None) -> Tensor:
    """Average each segment of a packed intensity sequence over time: one
    (B, hidden) row per segment. Without ``lengths`` the sequence is one
    segment, pooled into a (1, hidden) row."""
    return nm.mean_over_time(i_seq, [i_seq.shape[0]] if lengths is None else lengths)


def classify(params: ModelParams, h: Tensor) -> Tensor:
    """Affine map from (B, hidden) pooled rows to (B, classes) logits."""
    return nm.matmul(nm.as_tensor(h), params["cls.w"], params["cls.b"])


def project_score(params: ModelParams, h: Tensor) -> Tensor:
    """Two-layer projector (tanh between) mapping (B, hidden) pooled rows to
    (B,) scalar rank scores."""
    hidden = nm.tanh(nm.matmul(nm.as_tensor(h), params["proj.w1"], params["proj.b1"]))
    return nm.pick(nm.matmul(hidden, params["proj.w2"], params["proj.b2"]), 0)


# ---------------------------------------------------------------------------
# EMOM model files: one binio table section. The header holds the config,
# class labels and meta; the tables are the parameters in canonical order,
# then the feature statistics if any. Checkpoints append one more section.


def save_model(params: ModelParams, path, meta: dict | None = None):
    """Write the model section; deterministic bytes for identical params."""
    with atomic_write(path) as fh:
        _write_model_section(fh, params, meta)


def _write_model_section(fh, params: ModelParams, meta: dict | None):
    header = {"config": asdict(params.config), "emotions": params.emotions,
              "meta": meta or {}}
    tables = {name: t.data for name, t in params.tensors.items()}
    if params.feat_mean is not None:
        tables["feat.mean"] = np.asarray(params.feat_mean, dtype=params.dtype)
        tables["feat.std"] = np.asarray(params.feat_std, dtype=params.dtype)
    write_table_section(fh, EMOM_MAGIC, EMOM_VERSION, header, tables)


def _read_model_section(fh) -> tuple[ModelParams, dict]:
    header, tables = read_table_section(fh, EMOM_MAGIC, EMOM_VERSION)
    where = f"model {fh.name}"
    try:
        cfg = ExtractorConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as e:  # missing, unknown key, bad value
        raise FileFormatError(f"{where} header has no valid extractor config: {e!r}") from e
    emotions = header.get("emotions")
    if not (isinstance(emotions, list) and len(emotions) == cfg.n_emotion_classes
            and all(isinstance(e, str) for e in emotions)):
        raise FileFormatError(f"{where} header needs {cfg.n_emotion_classes} emotion "
                              f"labels, got {emotions!r}")
    shapes = _expected_shapes(cfg)
    if tables.keys() & {"feat.mean", "feat.std"}:  # both or neither
        shapes.update({"feat.mean": (cfg.input_dim,), "feat.std": (cfg.input_dim,)})
    tables = check_tables(tables, shapes, where)
    feat_mean, feat_std = tables.pop("feat.mean", None), tables.pop("feat.std", None)
    tensors = {name: Tensor(data, requires_grad=True) for name, data in tables.items()}
    try:
        return ModelParams(cfg, emotions, tensors, feat_mean, feat_std), header.get("meta", {})
    except ValueError as e:  # the labels are checked above: mixed dtypes
        raise FileFormatError(f"{where}: {e}") from e


def load_model(path) -> tuple[ModelParams, dict]:
    """Read a model (or the model section of a checkpoint) and the ``meta``
    dict saved with it; trailing sections are ignored here. A file that is
    not a whole, well-formed model raises :class:`FileFormatError`."""
    with open(path, "rb") as fh:
        return _read_model_section(fh)
