"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import vprkit as vk  # noqa: E402
from checks import KnnOracle, recall_oracle, tail_latency  # noqa: E402
from tracing import Tracer, aggregate, per_layer_units  # noqa: E402


def test_oracle_matches_knn_on_small_maps_with_ties():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 300))
        d = int(rng.integers(2, 40))
        rows = rng.normal(size=(n, d)).astype(np.float32)
        if n > 4:
            rows[n // 2] = rows[1]  # exact ties
            rows[n - 1] = rows[0]
        if trial % 2:
            rows = np.round(rows)  # many equal distances
        dmap = vk.DescriptorMap(
            descriptors=rows, poses=np.zeros((n, 2)),
            ids=[str(i) for i in range(n)], model_fingerprint=bytes(32),
        )
        oracle = KnnOracle(rows)
        for _ in range(5):
            query = rows[int(rng.integers(n))] if trial % 3 == 0 else rng.normal(size=d)
            k = int(rng.integers(1, n + 1))
            assert oracle(query, k) == vk.knn(dmap, query, k).ranked


def test_oracle_breaks_ties_toward_lower_index():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], dtype=np.float32)
    assert [i for i, _ in KnnOracle(rows)(np.zeros(2), 4)] == [0, 1, 2, 3]
    assert [i for i, _ in KnnOracle(rows)(np.array([1.0, 0.0]), 2)] == [0, 2]


def test_recall_oracle_skips_queries_without_a_reference_in_radius():
    ref_xy = np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0]])
    query_xy = np.array([[0.0, 0.0], [30.0, 0.0], [500.0, 0.0]])
    ranked = [[1, 0, 2], [1, 2, 0], [0, 1, 2]]
    assert recall_oracle(ranked, query_xy, ref_xy, 25.0, (1, 2)) == [0.5, 1.0]


def test_recall1_oracle_agrees_with_evaluate_model():
    from run import recall1_oracle

    world = vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=12, spacing=30.0, reference_style=vk.StyleParams(),
            query_style=vk.StyleParams(hue_shift=35.0, noise_sigma=0.04),
            queries_per_place=2, image_size=16, seed=3,
        )
    )
    for seed in range(3):
        model = vk.init_model(seed=seed)
        assert recall1_oracle(vk, model, world) == vk.evaluate_model(model, world, ns=(1,)).recalls[0]


def test_tail_latency_ignores_bursts_in_a_minority_of_blocks():
    samples = np.ones(200)
    samples[:80] = 10.0  # a burst over four of the ten blocks
    assert tail_latency(samples) == 1.0
    samples = np.ones(200)
    samples[::5] = 10.0  # one query in five is slow, in every block
    assert tail_latency(samples) == 10.0
    with pytest.raises(ValueError):
        tail_latency(np.ones(9))


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]; second root [20, 21]
    spans = [
        ["root", 0.0, 10.0, -1, -1, False],
        ["a", 1.0, 4.0, 0, -1, False],
        ["a1", 2.0, 3.0, 1, -1, False],
        ["b", 5.0, 6.0, 0, -1, True],
        ["root", 20.0, 21.0, -1, -1, False],
    ]
    agg = aggregate(spans)
    assert agg["root"] == {"calls": 2, "s": 11.0, "self_s": 7.0, "errors": 0}
    assert agg["a"]["self_s"] == 2.0 and agg["a1"]["self_s"] == 1.0
    assert agg["b"]["errors"] == 1
    assert sum(a["self_s"] for a in agg.values()) == 11.0


def test_install_wraps_every_imported_name_and_uninstall_restores():
    import vprkit.retrieval

    original = vprkit.retrieval.knn
    world = vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=4, spacing=30.0, reference_style=vk.StyleParams(),
            query_style=vk.StyleParams(), image_size=16, seed=1,
        )
    )
    tracer = Tracer()
    tracer.install(vk)
    try:
        assert vprkit.retrieval.knn is not original and vk.knn is vprkit.retrieval.knn
        with tracer.span("bench.pass"):
            vk.evaluate_model(vk.init_model(seed=1), world, ns=(1,))
    finally:
        tracer.uninstall()
    assert vprkit.retrieval.knn is original and vk.knn is original
    agg = aggregate(tracer.spans)
    assert agg["retrieval.knn"]["calls"] == 4
    assert agg["embedding.extract_raw"]["calls"] == 8
    assert agg["evaluation.evaluate_model"]["calls"] == 1
    values = tracer.per_layer()
    assert values["trace.root_s"] == pytest.approx(sum(a["self_s"] for a in agg.values()))


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    from run import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
