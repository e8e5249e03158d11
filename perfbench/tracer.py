"""Per-layer spans around fsad's public functions, installed from outside.

A span records calls and self time: its duration minus the time covered by
the spans it caused. Wrappers replace the function on its defining module and
rebind every ``from .x import y`` copy in the other fsad modules, so calls
through an imported name are seen too. ``AdamW.step`` is wrapped on the class.

``LAYERS`` lists every wrapped function with the stats it reports and the
workloads it must run on; on every other workload it must not run at all.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
import time

import numpy as np

ALL = frozenset({"grid", "train_single", "eval_wide"})
TRAINING = frozenset({"grid", "train_single"})
CALLS_SELF = ("calls", "self_s")

# numcore ops whose calls and self time are reported; every public op is
# wrapped so that numcore.ops.calls counts them all. softmax_rows is reported
# but predicted zero everywhere: attention does its own softmax, and only
# gradcheck calls softmax_rows.
REPORTED_OPS = ("matmul", "attention", "layernorm_rows", "softmax_rows",
                "sigmoid", "add", "mul", "concat", "narrow", "reshape")
OTHER_OPS = ("sub", "scale", "mean_axis", "sum_all", "transpose", "silu", "exp",
             "log", "clip", "cosine_rows")

# (module, function, reported stats, workloads it must run on; None: unchecked)
LAYERS = (
    [("numcore", "backward", CALLS_SELF, TRAINING)]
    + [("numcore", op, CALLS_SELF, frozenset() if op == "softmax_rows" else ALL)
       for op in REPORTED_OPS]
    + [("numcore", op, (), None) for op in OTHER_OPS]
    + [
        ("backbone", "encode_prompt", CALLS_SELF, ALL),
        ("backbone", "encode_images", ("self_s",), ALL),
        ("adaptation", "apply_visual_adapter", CALLS_SELF, ALL),
        ("adaptation", "apply_text_adapter", CALLS_SELF, ALL),
        ("clsa", "clsa_forward", CALLS_SELF, ALL),
        ("model", "forward", CALLS_SELF, ALL),
        ("model", "forward_text", CALLS_SELF, ALL),
        ("model", "forward_visual", CALLS_SELF, ALL),
        ("model", "save_checkpoint", ("self_s",), {"train_single"}),
        ("model", "apply_checkpoint", ("self_s",), {"eval_wide"}),
        ("training", "train_episode", CALLS_SELF, TRAINING),
        ("training", "AdamW.step", CALLS_SELF, TRAINING),
        ("training", "bce_loss", CALLS_SELF, TRAINING),
        ("inference", "score_batch", CALLS_SELF, ALL),
        ("inference", "semantic_scores", CALLS_SELF, ALL),
        ("inference", "build_prototypes", CALLS_SELF, ALL),
        ("inference", "proto_distance", CALLS_SELF, ALL),
        ("evalmetrics", "auc", ("self_s",), ALL),
        ("evalmetrics", "average_precision", ("self_s",), ALL),
        ("evalmetrics", "threshold_from_support", ("self_s",), ALL),
        ("evalmetrics", "compute_report", ("calls",), ALL),
        ("synthdata", "generate_dataset", ("self_s",), ALL),
        ("synthdata", "sample_episode", CALLS_SELF, ALL),
        ("runner", "build_feature_store", ("self_s",), ALL),
        ("runner", "run_episode", ("calls",), ALL),
    ]
)

# counters derived from the spans; the first five must repeat exactly
EXACT_COUNTS = ("numcore.tape_nodes_per_step", "backbone.encode_prompt.calls",
                "training.steps", "runner.trainings", "runner.distinct_trainings")
DERIVED = {  # name -> (unit, better)
    "numcore.tape_nodes_per_step": ("count", "lower"),
    "numcore.ops.calls": ("count", "lower"),
    "model.checkpoint_bytes": ("bytes", "lower"),
    "training.steps": ("count", "lower"),
    "runner.trainings": ("count", "lower"),
    "runner.distinct_trainings": ("count", "lower"),
    "runner.useful_training_ratio": ("ratio", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def metric_names() -> dict[str, tuple[str, str]]:
    """Every per-layer metric a traced run reports: name -> (unit, better)."""
    out = {}
    for module, func, stats, _ in LAYERS:
        for stat in stats:
            out[f"{module}.{func}.{stat}"] = ("count" if stat == "calls" else "s",
                                             "lower")
    out.update(DERIVED)
    return out


class Tracer:
    """Spans and counters for one traced pass; ``install`` patches fsad."""

    def __init__(self):
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.stats = {f"{m}.{f}": [0, 0.0] for m, f, _, _ in LAYERS}
        self.reset()

    def reset(self) -> None:
        for stat in self.stats.values():  # in place: the wrappers hold them
            stat[:] = [0, 0.0]
        self.tape_lengths: dict[int, int] = {}
        self.training_keys: list[str] = []
        self.checkpoint_bytes = 0

    def _span(self, key: str, fn, before=None, after=None):
        stack, stat, clock = self._stack, self.stats[key], time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stat[0] += 1
                stat[1] += spent - stack.pop()
                if stack:
                    stack[-1] += spent
                if after is not None:
                    after(*args, **kwargs)
        return wrapper

    def _hooks(self, key: str):
        if key == "numcore.backward":
            return self._on_backward, None
        if key == "training.train_episode":
            return self._on_training, None
        if key in ("model.save_checkpoint", "model.apply_checkpoint"):
            return None, self._on_checkpoint
        return None, None

    def install(self) -> None:
        self.missing = []
        fsad = [m for name, m in sorted(sys.modules.items())
                if name == "fsad" or name.startswith("fsad.")]
        for module_name, func, _, _ in LAYERS:
            key = f"{module_name}.{func}"
            try:
                owner = importlib.import_module(f"fsad.{module_name}")
            except ModuleNotFoundError:
                self.missing.append(key)
                continue
            attr = func
            if "." in func:  # a method: wrap it on its class
                cls_name, attr = func.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(key)
                continue
            wrapper = self._span(key, original, *self._hooks(key))
            targets = [owner] if "." in func else fsad
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._saved.append((target, name, original))
                        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._saved):
            setattr(target, name, original)
        self._saved.clear()

    def _on_backward(self, loss, tape, *args, **kwargs) -> None:
        n = len(tape)
        self.tape_lengths[n] = self.tape_lengths.get(n, 0) + 1

    def _on_training(self, model, support_feats, labels, config) -> None:
        """Identify a training by everything that determines its result:
        initial parameters and which of them learn (strategy, taps, gate init
        and learnability, model seed), support set and train config."""
        from fsad.model import named_parameters
        h = hashlib.sha256(f"{model.strategy}|{model.spec}|{config}".encode())
        for name, p in named_parameters(model).items():
            h.update(f"{name}:{p.requires_grad}".encode())
            h.update(np.ascontiguousarray(p.data).tobytes())
        for layer in sorted(support_feats):
            h.update(np.ascontiguousarray(support_feats[layer]).tobytes())
        h.update(np.asarray(labels, dtype=np.int64).tobytes())
        self.training_keys.append(h.hexdigest())

    def _on_checkpoint(self, model, path, *args, **kwargs) -> None:
        self.checkpoint_bytes = os.path.getsize(path)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, without the overhead figure."""
        out: dict[str, float] = {}
        for module, func, stats, _ in LAYERS:
            key = f"{module}.{func}"
            if key in self.missing:
                continue
            calls, self_s = self.stats[key]
            if "calls" in stats:
                out[f"{key}.calls"] = calls
            if "self_s" in stats:
                out[f"{key}.self_s"] = self_s
        steps = sum(self.tape_lengths.values())
        nodes = sum(n * c for n, c in self.tape_lengths.items())
        trainings = len(self.training_keys)
        distinct = len(set(self.training_keys))
        out.update({
            "numcore.tape_nodes_per_step": nodes / steps if steps else 0,
            "numcore.ops.calls": sum(self.stats[f"numcore.{op}"][0]
                                     for op in REPORTED_OPS + OTHER_OPS),
            "model.checkpoint_bytes": self.checkpoint_bytes,
            "training.steps": self.stats["training.AdamW.step"][0],
            "runner.trainings": trainings,
            "runner.distinct_trainings": distinct,
            "runner.useful_training_ratio": distinct / trainings if trainings else 1.0,
        })
        return out

    def coverage_problems(self, workload: str) -> list[str]:
        """Wrapped functions that are missing, unused where the predictions
        say they run, or used where the predictions say zero."""
        problems = [f"{key}: not found" for key in self.missing]
        for module, func, _, used_on in LAYERS:
            key = f"{module}.{func}"
            if key in self.missing or used_on is None:
                continue
            calls = self.stats[key][0]
            if workload in used_on and calls == 0:
                problems.append(f"{key}: predicted to run on {workload}, never called")
            if workload not in used_on and calls:
                problems.append(f"{key}: predicted zero on {workload}, called {calls}x")
        return problems
