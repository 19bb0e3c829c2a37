"""Per-layer timing taken from outside the program.

Every layer is measured by replacing a public function with a timing wrapper
on the module object the program looks it up from at call time (for
example ``emorank.numerics.conv1d`` or ``emorank.training.sample_pair``).
Nothing inside the package changes; uninstalling puts the originals back.

Spans nest: a span's *self* time is its duration minus the time of the
spans it encloses, so the self times of all spans inside one step, plus the
step's own uncovered remainder, add up to the step's duration.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

from emorank import codebook, features, numerics, training

# Op kinds reported on their own; every other public op is "other".
OP_KINDS = ("matmul", "conv1d", "softmax", "log_softmax", "layer_norm", "add",
            "slice_cols", "concat_cols", "dropout")

# Public numerics functions that are not tape ops.
_NOT_OPS = {"as_tensor", "adam_step", "finite_difference_grad"}

# Spans whose duration including their children is reported as well.
INCLUSIVE = ("extractor.forward_intensity", "losses.fwd", "numerics.backward",
             "codebook.score_corpus", "features.featurize_audio")


def numerics_ops() -> list[str]:
    """Every public function of emorank.numerics that records a tape op.

    Found by inspection, so an op added later is counted (as "other")
    without a change here.
    """
    return sorted(name for name, fn in vars(numerics).items()
                  if inspect.isfunction(fn) and fn.__module__ == numerics.__name__
                  and not name.startswith("_") and name not in _NOT_OPS)


def op_kind(name: str) -> str:
    return name if name in OP_KINDS else "other"


class Tracer:
    """Span stack, per-name self and inclusive time, and counters."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [self seconds, inclusive seconds]
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []  # one [child seconds] cell per open span
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin_step(self):
        """Open the step frame that encloses every span of one step."""
        self._stack.clear()
        self._stack.append([0.0])

    def end_step(self, step_s: float):
        """Close the step frame; its uncovered time becomes ``step.self``."""
        covered = self._stack[0][0]
        self.spans.setdefault("step.self", [0.0, 0.0])[0] += step_s - covered
        self.counts["steps"] += 1
        self._stack.clear()

    @property
    def self_s(self) -> dict[str, float]:
        return {name: acc[0] for name, acc in self.spans.items()}

    @property
    def incl_s(self) -> dict[str, float]:
        return {name: acc[1] for name, acc in self.spans.items()}

    def _wrap(self, name: str, fn, after=None):
        st = self._stack
        acc = self.spans.setdefault(name, [0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cell = [0.0]
            st.append(cell)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.pop()
                acc[0] += dt - cell[0]
                acc[1] += dt
                if st:
                    st[-1][0] += dt
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper._perfbench_timed = True
        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_fn(self, owner, attr, name, after=None):
        self._patch(owner, attr, self._wrap(name, getattr(owner, attr), after))

    def install(self):
        """Wrap every layer boundary; :meth:`uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for op in numerics_ops():
            kind = op_kind(op)
            self._patch_fn(numerics, op, f"numerics.{kind}.fwd",
                           self._time_backward(f"numerics.{kind}.bwd"))
        self._patch_fn(numerics, "adam_step", "numerics.adam_step")
        self._patch_fn(numerics.Tensor, "backward", "numerics.backward")
        trace_fn = numerics.ComputeGraph.__dict__["trace"].__func__
        self._patch(numerics.ComputeGraph, "trace",
                    classmethod(self._wrap("numerics.trace", trace_fn)))

        frames = self._count_frames
        for mod in (training, codebook):
            self._patch_fn(mod, "forward_intensity", "extractor.forward_intensity", frames)
            for head in ("pool", "classify", "project_score"):
                if head in vars(mod):
                    self._patch_fn(mod, head, "extractor.heads")
        for loss in ("mixup_ce", "pair_probability", "rank_loss", "total_loss"):
            self._patch_fn(training, loss, "losses.fwd")
        self._patch_fn(training, "make_mix_pair", "mixup.make_mix_pair", self._count_mix)
        self._patch_fn(training, "sample_pair", "training.sample_pair")
        self._patch_fn(training, "save_checkpoint", "training.save_checkpoint",
                       self._count_checkpoint)
        self._patch_fn(training, "load_corpus", "training.load_corpus")
        self._patch_fn(training, "read_features", "features.read_features",
                       self._count_read)

        self._patch_fn(features, "load_wav", "features.load_wav")
        self._patch_fn(features, "featurize_audio", "features.featurize_audio")
        for ext in ("extract_mel", "extract_pitch", "extract_energy"):
            self._patch_fn(features, ext, "features." + ext)
        self._patch_fn(features, "write_features", "features.write_features",
                       self._count_write)
        for fn in ("score_corpus", "build_codebook", "save_codebook", "condition"):
            self._patch_fn(codebook, fn, "codebook." + fn)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- ops: count the call and time the backward closure of its output ------

    def _time_backward(self, bwd_name: str):
        counts = self.counts

        def after(args, kwargs, out):
            counts["ops"] += 1
            closure = getattr(out, "_backward", None)
            # an op may return its input unchanged (dropout at p=0) or
            # another op's output (sub returns add's): time each closure once
            if closure is not None and not getattr(closure, "_perfbench_timed", False):
                out._backward = self._wrap(bwd_name, closure)

        return after

    # -- counters -------------------------------------------------------------

    def _count_frames(self, args, kwargs, out):
        self.counts["frames"] += out.shape[0]

    def _count_mix(self, args, kwargs, pair):
        x_emo, x_neu = args[0], args[1]
        self.counts["mix_frames_kept"] += 2 * pair.x_mix_i.shape[0]
        self.counts["mix_frames_source"] += x_emo.n_frames + x_neu.n_frames

    def _count_checkpoint(self, args, kwargs, out):
        path = kwargs.get("path", args[-1] if args else None)
        size = os.path.getsize(path)
        self.counts["checkpoint_writes"] += 1
        self.counts["checkpoint_bytes"] += size
        self.counts["bytes_written"] += size

    def _count_write(self, args, kwargs, out):
        self.counts["bytes_written"] += os.path.getsize(args[1])

    def _count_read(self, args, kwargs, out):
        self.counts["bytes_read"] += os.path.getsize(args[0])
