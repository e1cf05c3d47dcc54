"""vprkit benchmark: runs one workload and prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload localize_1k --seed 3 --seconds 10 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

- ``domain_gap``: the acceptance pipeline of ``tests/test_acceptance.py``
  (pretrain on world A, five RSF variants on world B, eight Recall@1
  evaluations), then localization of world B's 60 queries with the
  RSF-all model.
- ``localize_1k``: a seeded 1000-place world; ``vprkit build-map`` run
  in-process through ``cli.main``, then one client sending 1000 queries
  in a closed loop (``extract_raw`` -> ``forward`` -> ``knn(k=10)``, the
  next query after the previous answer), then Recall@N scoring.
- ``localize_100k``: the same, with the map padded to 100k rows by seeded
  unit-norm distractors that lie off every query's radius; 200 queries.

A run first sets up the workload's inputs from ``--seed``, at least
MIN_SETUPS times (``setup_s`` is the median).  It then adapts the model
(domain_gap only) and runs localization rounds (build the map, load it,
send the queries, score) until ``--seconds`` have passed, at least one.
``pipeline_s`` is the adaptation time plus the median round.  The query
metrics pool every query of every round; ``query_tail_ms`` is the median over
ten consecutive blocks of them of each block's p90 (``checks.tail_latency``),
and the record names the sample count and the median
(``stages.query_p50_ms``).
``--trace 1`` instead sets up once, then adapts
and runs one round untraced and again traced, and reports the per-layer
metrics of the traced set-up and round.  Every run checks vprkit's
outputs; the last line of standard output is the result.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the first numpy import

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from checks import (
    KnnOracle,
    acceptance_pins,
    direction_checks,
    recall_oracle,
    tail_latency,
)
from tracing import Tracer, per_layer_units

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"  # scratch inputs (removed after a run), traces, results
K = 10
NS = (1, 5, 10)
RADIUS_M = 25.0
# Set-up runs MIN_SETUPS times, and more (up to MAX_SETUPS) while it has
# taken less than MIN_SETUP_S in all.
MIN_SETUPS = 2
MAX_SETUPS = 5
MIN_SETUP_S = 2.0

# Every end-to-end metric is reported on every workload.  Stage times
# that are too short to measure steadily on some workload (map_build_s,
# map_load_s, score_s; pretrain_s and rsf_s exist on domain_gap only) are
# reported as medians in the "stages" record instead.  So is the median
# query latency: on hosts whose speed alternates between two states, the
# median jumps from one state's latency to the other's as the share of
# time in each crosses one half, while the tail and the rate move evenly.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


class Run:
    """Samples, checks and side records of one benchmark run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.detail: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pending: list = []  # checks run after timing ends
        self.latencies: list[float] = []  # every query of every round, in seconds
        self.query_loop_s = 0.0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


def load_vprkit():
    src = ROOT / "src"
    if not (src / "vprkit" / "__init__.py").is_file():
        raise BenchError(f"no vprkit sources at {src}")
    sys.path.insert(0, str(src))
    import vprkit
    import vprkit.cli
    import vprkit.presets

    if Path(vprkit.__file__).resolve().parent != (src / "vprkit").resolve():
        raise BenchError(f"imported vprkit from {vprkit.__file__}, not from {src}")
    return vprkit


def build_map_cli(vk, dataset: Path, model: Path, out: Path) -> Path:
    """``vprkit build-map`` through cli.main; returns the map file."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = vk.cli.main(
            ["build-map", "--dataset", str(dataset), "--model", str(model), "--out", str(out)]
        )
    if code != 0:
        raise RuntimeError(f"vprkit build-map exited with {code}")
    return Path(printed.getvalue().splitlines()[-1]) / "map.vprm"


@dataclasses.dataclass
class Target:
    """What a localization round works on: a reference dataset on disk, a
    model file, the query images, and optional distractor rows."""

    dataset: Path
    model: Path
    queries: list
    pad: dict | None = None


def localize(vk, run: Run, tracer: Tracer, work: Path, target: Target) -> None:
    """One localization round: build the map, load it, localize each query
    after the previous one returns, then score.  Checks are queued for
    after the timing."""
    clock = time.perf_counter
    dataset, model_path, queries, pad = target.dataset, target.model, target.queries, target.pad
    with tracer.span("bench.map_build"):
        t = clock()
        map_path = build_map_cli(vk, dataset, model_path, work / "runs")
        run.samples["map_build_s"].append(clock() - t)
    if pad is not None:
        with tracer.span("bench.map_pad"):
            built = vk.load_map(map_path)
            map_path = work / "padded.vprm"
            vk.save_map(
                vk.DescriptorMap(
                    descriptors=np.vstack([built.descriptors, pad["descriptors"]]),
                    poses=np.vstack([built.poses, pad["poses"]]),
                    ids=built.ids + pad["ids"],
                    model_fingerprint=built.model_fingerprint,
                ),
                map_path,
            )
    with tracer.span("bench.map_load"):
        t = clock()
        dmap = vk.load_map(map_path)
        run.samples["map_load_s"].append(clock() - t)
    model = vk.load_model(model_path)

    latencies, results, descs = [], [], []
    loop_start = clock()
    for q in queries:
        with tracer.span("bench.query", request=True):
            t = clock()
            desc = vk.forward(model, vk.extract_raw(q))
            results.append(vk.knn(dmap, desc, K, query_id=q.id))
            latencies.append(clock() - t)
        descs.append(desc)
    loop_s = clock() - loop_start

    query_poses = [q.pose for q in queries]
    query_ids = [q.id for q in queries]
    ref_poses = [vk.Pose(float(x), float(y)) for x, y in dmap.poses]
    with tracer.span("bench.score"):
        t = clock()
        gt = vk.ground_truth(query_poses, ref_poses, RADIUS_M, query_ids=query_ids)
        report = vk.recall_at_n(results, gt, NS)
        run.samples["score_s"].append(clock() - t)

    run.latencies.extend(latencies)
    run.query_loop_s += loop_s
    run.detail["queries_per_round"] = len(queries)
    run.detail["map_rows"] = dmap.size

    run.pending.append(
        functools.partial(
            check_localization, run, dmap.descriptors, descs, results, report.recalls,
            np.array([[p.x, p.y] for p in query_poses]), np.asarray(dmap.poses),
        )
    )


def check_localization(run: Run, descriptors, descs, results, recalls, query_xy, ref_xy) -> None:
    """Every top-K equals the oracle's, in order; Recall@N equals the
    oracle's."""
    oracle = KnnOracle(descriptors)
    ranked = []
    for desc, res in zip(descs, results):
        expected = oracle(desc, K)
        ranked.append([i for i, _ in expected])
        got = [i for i, _ in res.ranked]
        close = all(abs(a - b) <= 1e-9 for (_, a), (_, b) in zip(res.ranked, expected))
        run.check(got == ranked[-1] and close, f"query {res.query_id}: top-{K} {got} != {ranked[-1]}")
    expected_recalls = recall_oracle(ranked, query_xy, ref_xy, RADIUS_M, NS)
    run.check(recalls == expected_recalls, f"recall {recalls} != oracle {expected_recalls}")


class DomainGap:
    """Acceptance pipeline on the domain-gap pair, then localization on B."""

    def __init__(self, seed: int):
        self.seed = seed
        # Seed 0 renders the acceptance suite's worlds (11, 22).
        self.seed_a, self.seed_b = 11 + 100 * seed, 22 + 100 * seed

    def setup(self, vk, work: Path):
        world_a, world_b = vk.presets.domain_gap_pair(seed_a=self.seed_a, seed_b=self.seed_b)
        vk.save_dataset(world_b.reference_only(), work / "world_b")
        return world_a, world_b

    def adapt(self, vk, inputs, run: Run, tracer: Tracer, work: Path) -> Target:
        """Pretrain on A and finetune five RSF variants on B, as run_experiment
        in tests/test_acceptance.py does; localization then uses RSF-all."""
        world_a, world_b = inputs
        clock = time.perf_counter
        train_a, val_a = vk.split_validation(world_a, 0.3, seed=5)
        pretrain = vk.TrainConfig(epochs=8, learning_rate=1e-3, batch_size=16, seed=100)
        with tracer.span("bench.pretrain"):
            t = clock()
            baseline, _ = vk.train(vk.init_model(seed=7), train_a, pretrain, validation=val_a)
            run.samples["pretrain_s"].append(clock() - t)

        evaluated = []  # (key, model, dataset) of every Recall@1 value

        def r1(key, model, ds):
            evaluated.append((key, model, ds))
            return vk.evaluate_model(model, ds, ns=(1,)).recalls[0]

        values = {
            "baseline_a": r1("baseline_a", baseline, world_a),
            "baseline_b": r1("baseline_b", baseline, world_b),
        }
        cfg = vk.TrainConfig(
            epochs=15, learning_rate=1e-2, margin=0.4, batch_size=16, aug_multiplicity=3, seed=200
        )
        variants = (
            ("none", "none", cfg),
            ("appearance", "appearance", cfg),
            ("viewpoint", "viewpoint", cfg),
            ("all", "appearance,viewpoint", cfg),
            ("poseless", "appearance,viewpoint", dataclasses.replace(cfg, poseless=True)),
        )
        rsf_s = 0.0
        models = {}
        for key, label, config in variants:
            spec = vk.AugmentationSpec.from_string(label)
            t = clock()
            models[key], _ = vk.rsf_finetune(baseline, world_b, config, spec, validation=val_a)
            rsf_s += clock() - t
            values[f"rsf_{key}_b"] = r1(f"rsf_{key}_b", models[key], world_b)
            if key == "all":
                values["rsf_all_a"] = r1("rsf_all_a", models[key], world_a)
        run.samples["rsf_s"].append(rsf_s)
        run.pending.append(functools.partial(self.check_values, vk, run, values, evaluated))

        model_path = work / "rsf_all.vprh"
        vk.save_model(models["all"], model_path)
        return Target(work / "world_b", model_path, world_b.queries)

    def check_values(self, vk, run: Run, values: dict[str, float], evaluated) -> None:
        """Every seed: each Recall@1 equals the one recomputed from the
        model's descriptors by the brute-force oracle.  Seed 0 (the
        acceptance suite's worlds): also the pinned values and the
        suite's ablation directions.  Those directions are findings on
        these two worlds, not properties of the code, and at other seeds
        they are recorded, not checked: at seed 1543175592, for one,
        RSF-all lifts A's Recall@1 from 0.983 to 1.0, which fails the
        suite's "baseline >= RSF on A" column check."""
        run.detail["recall1"] = values
        for key, model, ds in evaluated:
            expected = recall1_oracle(vk, model, ds)
            run.check(abs(values[key] - expected) <= 1e-12, f"{key} = {values[key]}, oracle {expected}")
        directions = direction_checks(values)
        run.detail["directions"] = directions
        if self.seed == 0:
            pinned, tol = acceptance_pins(ROOT / "tests" / "test_acceptance.py")
            for key, pin in pinned.items():
                run.check(abs(values[key] - pin) <= tol, f"{key} = {values[key]}, pinned {pin}")
            for what, ok in directions.items():
                run.check(ok, what)


def recall1_oracle(vk, model, ds) -> float:
    """Recall@1 of ``model`` on ``ds`` from its descriptors (stored as
    float32, as a map stores them), the brute-force oracle and
    RADIUS_M."""
    refs = np.array([vk.forward(model, vk.extract_raw(r)) for r in ds.references], dtype=np.float32)
    oracle = KnnOracle(refs)
    ranked = [[i for i, _ in oracle(vk.forward(model, vk.extract_raw(q)), 1)] for q in ds.queries]
    query_xy = np.array([[p.x, p.y] for p in ds.query_poses])
    ref_xy = np.array([[p.x, p.y] for p in ds.reference_poses])
    return recall_oracle(ranked, query_xy, ref_xy, RADIUS_M, (1,))[0]


class Localize:
    """Closed-loop localization against a 1000-place map, optionally
    padded with distractor rows."""

    PLACES = 1000
    SPACING_M = 30.0

    def __init__(self, seed: int, queries: int, map_rows: int):
        self.seed = seed
        self.query_count = queries
        self.map_rows = map_rows

    def setup(self, vk, work: Path):
        # The world B style of vprkit.presets.domain_gap_pair.
        world = vk.generate_synthetic(
            vk.SynthWorldSpec(
                place_count=self.PLACES,
                spacing=self.SPACING_M,
                reference_style=vk.StyleParams(palette_id=1, texture_family="stripes"),
                query_style=vk.StyleParams(
                    palette_id=1, texture_family="stripes", hue_shift=35.0,
                    brightness_offset=-0.2, contrast_gain=0.7, noise_sigma=0.04,
                ),
                queries_per_place=1,
                image_size=64,
                seed=self.seed,
            )
        )
        vk.save_dataset(world.reference_only(), work / "world")
        model = vk.init_model(seed=self.seed)
        vk.save_model(model, work / "model.vprh")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xD157]))
        queries = world.queries
        if self.query_count < len(queries):
            pick = rng.choice(len(queries), size=self.query_count, replace=False)
            queries = [queries[i] for i in pick]
        pad = None
        extra = self.map_rows - self.PLACES
        if extra > 0:
            rows = rng.standard_normal((extra, model.output_dim))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            pad = {
                "descriptors": rows.astype(np.float32),
                # At least 100 m off the track, so outside every query's radius.
                "poses": np.column_stack(
                    [rng.uniform(0.0, self.PLACES * self.SPACING_M, extra),
                     rng.uniform(100.0, 10_000.0, extra)]
                ),
                "ids": [f"x{i:06d}" for i in range(extra)],
            }
        return Target(work / "world", work / "model.vprh", queries, pad)

    def adapt(self, vk, inputs, run: Run, tracer: Tracer, work: Path) -> Target:
        """Nothing to adapt: the seeded model is used as it is."""
        return inputs


WORKLOADS = {
    "domain_gap": lambda seed: DomainGap(seed),
    "localize_1k": lambda seed: Localize(seed, queries=1000, map_rows=1000),
    "localize_100k": lambda seed: Localize(seed, queries=200, map_rows=100_000),
}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, loadavg) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def untraced(vk, workload, run: Run, work: Path, seconds: float) -> dict[str, float]:
    """Set up, adapt once, then localization rounds until ``seconds`` have
    passed."""
    clock = time.perf_counter
    setups = run.samples["setup_s"]
    while len(setups) < MIN_SETUPS or (sum(setups) < MIN_SETUP_S and len(setups) < MAX_SETUPS):
        inputs = None  # free the previous set-up's inputs first
        t = clock()
        inputs = workload.setup(vk, work)
        setups.append(clock() - t)
    null = Tracer()
    t = clock()
    target = workload.adapt(vk, inputs, run, null, work)
    adapt_s = clock() - t
    start = clock()
    while True:
        t = clock()
        localize(vk, run, null, work, target)
        run.samples["round_s"].append(clock() - t)
        if clock() - start >= seconds:
            break
    lat_ms = np.asarray(run.latencies) * 1e3
    metrics = {
        "setup_s": run.median("setup_s"),
        "pipeline_s": adapt_s + run.median("round_s"),
        "query_tail_ms": tail_latency(lat_ms),
        "queries_per_s": len(lat_ms) / run.query_loop_s,
    }
    run.samples["query_p50_ms"].append(float(np.percentile(lat_ms, 50)))
    run.detail["queries"] = len(lat_ms)
    run.samples["adapt_s"].append(adapt_s)
    metrics["peak_rss_mb"] = peak_rss_mb()
    run.detail["samples"] = {name: len(v) for name, v in run.samples.items()}
    return metrics


def traced(vk, workload, run: Run, work: Path, trace_file: Path) -> dict[str, float]:
    """Set up once (traced), then adapt plus one round untraced and again
    traced; per-layer metrics cover the traced set-up and pass."""
    clock = time.perf_counter
    tracer = Tracer()
    tracer.install(vk)
    try:
        with tracer.span("bench.setup"):
            inputs = workload.setup(vk, work)
    finally:
        tracer.uninstall()
    null = Tracer()
    t = clock()
    localize(vk, run, null, work, workload.adapt(vk, inputs, run, null, work))
    untraced_s = clock() - t
    tracer.install(vk)
    try:
        with tracer.span("bench.pass"):
            t = clock()
            localize(vk, run, tracer, work, workload.adapt(vk, inputs, run, tracer, work))
            traced_s = clock() - t
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer()
    metrics["trace.pass_s"] = traced_s
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    tracer.write(trace_file)
    run.detail["spans"] = len(tracer.spans)
    run.detail["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_arg, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        vk = load_vprkit()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    run = Run()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics = traced(vk, workload, run, work, OUT / "traces" / f"{stem}.tsv")
            units = per_layer_units()
        else:
            metrics = untraced(vk, workload, run, work, args.seconds)
            units = END_TO_END
        for check in run.pending:
            check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.detail["stages"] = {
        name: run.median(name) for name in sorted(run.samples) if name not in END_TO_END
    }
    run.detail["failed_ratio"] = run.failed / run.attempted
    run.detail["failures"] = run.failures[:20]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"env": environment(args, loadavg), "detail": run.detail}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
