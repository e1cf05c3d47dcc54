"""Span recorder for the traced benchmark run.

Tracing wraps vprkit's public functions where they are looked up: every
vprkit module's global that refers to a traced function (the defining
module's own name and every ``from .x import f`` copy) is replaced by a
wrapper that records a span, and restored afterwards.  Spans live in
memory as ``[name, start, end, parent, request, error]`` and are written
out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the durations of the
root spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from pathlib import Path

# Traced public functions, and the end-to-end metric each should move.
TRAINING = "pipeline_s on domain_gap; none on the localize workloads"
MAP_BUILD = "pipeline_s on localize_1k (map build is ~40% of its round); little elsewhere"
TRACED = {
    "embedding.extract_raw": "pipeline_s and query_* on domain_gap; query_* on localize_1k; ~1% of localize_100k",
    "imageops.resize_area": "pipeline_s and query_* on domain_gap; query_* on localize_1k; ~1% of localize_100k",
    "embedding.forward": "pipeline_s on domain_gap; query_* slightly on domain_gap and localize_1k",
    "embedding.forward_batch": TRAINING,
    "embedding.backward": TRAINING,
    "rsf.triplet_loss": TRAINING,
    "rsf.mine_triplets": TRAINING,
    "rsf.train": TRAINING,
    "rsf.rsf_finetune": TRAINING,
    "evaluation.evaluate_model": TRAINING,
    "evaluation.ground_truth": "pipeline_s and peak_rss_mb on localize_100k",
    "evaluation.recall_at_n": "pipeline_s on localize_100k",
    "retrieval.knn": "query_* and queries_per_s on localize_100k (most), localize_1k (some); none on domain_gap",
    "retrieval.build_map": MAP_BUILD,
    "retrieval.save_map": MAP_BUILD,
    "retrieval.load_map": "pipeline_s on localize_100k (small)",
    "dataset.load_dataset": MAP_BUILD,
    "ppm.read_ppm": MAP_BUILD,
    "manifest.hash_input": MAP_BUILD,
    "cli.main": MAP_BUILD,
    "synth.generate_synthetic": "setup_s on every workload",
}
# augmentation.apply is recorded per op kind; each kind moves pipeline_s on domain_gap.
AUG_KINDS = (
    "identity",
    "brightness",
    "contrast",
    "hue_shift",
    "grayscale",
    "gamma",
    "gaussian_noise",
    "box_blur",
    "crop_resize",
    "horizontal_flip",
    "perspective_jitter",
)
# Metrics that are not per-function aggregates (name -> unit).
EXTRA_METRICS = {
    "rsf.train.epochs": "count",  # epochs run, from TrainLog.epoch_seconds
    "rsf.train.epoch_ms": "ms",  # mean epoch time, from TrainLog.epoch_seconds
    "rsf.triplet_loss.active_ratio": "ratio",  # calls with loss > 0 / rsf.triplet_loss.calls
    "rsf.mine_triplets.realized": "count",  # augmented queries realized for mining
    "rsf.mine_triplets.skipped_ratio": "ratio",  # skipped / rsf.mine_triplets.realized
    "bench.pretrain.s": "s",  # domain_gap's pretraining call
    "bench.self_s": "s",  # time in the benchmark's own code, outside traced calls
    "trace.root_s": "s",  # root spans' time; the sum of every self_s
    "trace.pass_s": "s",  # the traced pass
    "trace.untraced_pass_s": "s",  # the same pass without tracing
    "trace.overhead_s": "s",  # trace.pass_s - trace.untraced_pass_s
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TRACED:
        units.update(
            {f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s", f"{name}.errors": "count"}
        )
    for kind in AUG_KINDS:
        units.update({f"augmentation.apply.{kind}.calls": "count", f"augmentation.apply.{kind}.s": "s"})
    units.update(EXTRA_METRICS)
    return units


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, s (summed durations), self_s, errors."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _req, _err in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent, _req, err) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["errors"] += int(err)
    return out


class Tracer:
    """In-memory spans; disabled until ``install`` is called."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.request = -1
        self.counters = {
            "active": 0,
            "realized": 0,
            "skipped": 0,
            "epochs": 0,
            "epoch_s": 0.0,
        }
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def _span(self, name: str, request: bool):
        rec = self._open(name)
        saved = self.request
        if request:
            self.request = rec[4] = self._stack[-1]
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            self._close(rec)
            self.request = saved

    def span(self, name: str, request: bool = False):
        """A span around the benchmark's own code; ``request`` starts a new
        request id shared by every span inside it."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, request)

    def _wrap(self, name: str, fn, observe=None, name_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                self._close(rec)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_loss(self, args, result) -> None:
        self.counters["active"] += result[0] > 0

    def _observe_mining(self, args, result) -> None:
        stream = args[1]
        self.counters["realized"] += stream.multiplicity * len(stream.references)
        self.counters["skipped"] += result[1]

    def _observe_train(self, args, result) -> None:
        log = result[1]
        self.counters["epochs"] += len(log.epoch_seconds)
        self.counters["epoch_s"] += sum(log.epoch_seconds)

    def install(self, package) -> None:
        """Replace every vprkit module global that names a traced function."""
        observers = {
            "rsf.triplet_loss": self._observe_loss,
            "rsf.mine_triplets": self._observe_mining,
            "rsf.train": self._observe_train,
        }
        wrappers = {}
        for name in TRACED:
            module, func = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"{package.__name__}.{module}"), func)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, observers.get(name)))
        aug = importlib.import_module(f"{package.__name__}.augmentation").apply
        wrappers[id(aug)] = (
            aug,
            self._wrap(
                "augmentation.apply",
                aug,
                name_of=lambda args, kwargs: "augmentation.apply."
                + (args[1] if len(args) > 1 else kwargs["op"]).kind,
            ),
        )
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self.enabled = True

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        self.enabled = False

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric except the trace.* timings the run adds."""
        agg = aggregate(self.spans)
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0}
        values: dict[str, float] = {}
        for name in TRACED:
            for key, v in agg.get(name, zero).items():
                values[f"{name}.{key}"] = v
        for kind in AUG_KINDS:
            a = agg.get(f"augmentation.apply.{kind}", zero)
            values[f"augmentation.apply.{kind}.calls"] = a["calls"]
            values[f"augmentation.apply.{kind}.s"] = a["s"]
        c = self.counters
        values["rsf.train.epochs"] = c["epochs"]
        values["rsf.train.epoch_ms"] = 1e3 * c["epoch_s"] / c["epochs"] if c["epochs"] else 0.0
        calls = values["rsf.triplet_loss.calls"]
        values["rsf.triplet_loss.active_ratio"] = c["active"] / calls if calls else 0.0
        values["rsf.mine_triplets.realized"] = c["realized"]
        values["rsf.mine_triplets.skipped_ratio"] = (
            c["skipped"] / c["realized"] if c["realized"] else 0.0
        )
        values["bench.pretrain.s"] = agg.get("bench.pretrain", zero)["s"]
        values["bench.self_s"] = sum(a["self_s"] for n, a in agg.items() if n.startswith("bench."))
        values["trace.root_s"] = sum(end - start for _, start, end, parent, _, _ in self.spans if parent < 0)
        return values

    def write(self, path: Path) -> None:
        """One tab-separated line per span: index, parent, request, name,
        start, end, error."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["index\tparent\trequest\tname\tstart\tend\terror"]
        lines += [
            f"{i}\t{parent}\t{req}\t{name}\t{start!r}\t{end!r}\t{int(err)}"
            for i, (name, start, end, parent, req, err) in enumerate(self.spans)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
