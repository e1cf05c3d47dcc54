"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
The end-to-end domain-gap experiment values are frozen regression
numbers from the first oracle run of this code base (tolerance one
absolute point).
"""

import dataclasses
import time

import numpy as np
import pytest

import vprkit as vk
from vprkit.errors import FormatError, TruncatedError
from vprkit.presets import domain_gap_pair
from vprkit.retrieval import load_map, save_map

# Frozen from the implementer's first oracle run (Recall@1 fractions).
PINNED = {
    "baseline_a": 1.000000,
    "baseline_b": 0.500000,
    "rsf_all_b": 0.983333,
    "rsf_all_a": 1.000000,
    "rsf_appearance_b": 0.950000,
    "rsf_viewpoint_b": 0.566667,
    "rsf_none_b": 0.500000,
    "rsf_poseless_b": 0.800000,
}
PIN_TOL = 0.01  # one absolute point


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def pretrain_config():
    return vk.TrainConfig(epochs=8, learning_rate=1e-3, batch_size=16, seed=100)


def rsf_config():
    return vk.TrainConfig(
        epochs=15, learning_rate=1e-2, margin=0.4, batch_size=16,
        aug_multiplicity=3, seed=200,
    )


def run_experiment():
    """The shared domain-gap pipeline: pretrain on A, RSF variants on B."""
    t0 = time.perf_counter()
    world_a, world_b = domain_gap_pair()
    train_a, val_a = vk.split_validation(world_a, 0.3, seed=5)
    baseline, _ = vk.train(
        vk.init_model(seed=7), train_a, pretrain_config(), validation=val_a
    )

    def r1(model, ds):
        return vk.evaluate_model(model, ds, ns=(1,)).recalls[0]

    models = {"baseline": baseline}
    values = {
        "baseline_a": r1(baseline, world_a),
        "baseline_b": r1(baseline, world_b),
    }
    cfg = rsf_config()
    for key, label in (
        ("none", "none"),
        ("appearance", "appearance"),
        ("viewpoint", "viewpoint"),
        ("all", "appearance,viewpoint"),
    ):
        spec = vk.AugmentationSpec.from_string(label)
        model, _ = vk.rsf_finetune(baseline, world_b, cfg, spec, validation=val_a)
        models[f"rsf_{key}"] = model
        values[f"rsf_{key}_b"] = r1(model, world_b)
    values["rsf_all_a"] = r1(models["rsf_all"], world_a)
    poseless_cfg = dataclasses.replace(cfg, poseless=True)
    model, _ = vk.rsf_finetune(
        baseline, world_b, poseless_cfg,
        vk.AugmentationSpec.from_string("appearance,viewpoint"), validation=val_a,
    )
    models["rsf_poseless"] = model
    values["rsf_poseless_b"] = r1(model, world_b)
    return {
        "world_a": world_a,
        "world_b": world_b,
        "models": models,
        "values": values,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def experiment():
    return run_experiment()


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    configs = 0
    while configs < 100:
        dims_in = int(rng.integers(4, 9))
        hidden = int(rng.integers(3, 7))
        dims_out = int(rng.integers(2, 6))
        model = vk.init_model([hidden], dims_out, seed=int(rng.integers(1 << 30)),
                              input_dim=dims_in)
        raws = rng.normal(size=(3, dims_in))
        margin = float(rng.uniform(0.3, 1.0))

        def objective():
            f = [vk.forward(model, r) for r in raws]
            return vk.triplet_loss(f[0], f[1], f[2], margin)[0]

        if objective() <= 0.05:  # stay away from the hinge kink
            continue
        configs += 1
        f = [vk.forward(model, r) for r in raws]
        _, g_q, g_p, g_n = vk.triplet_loss(f[0], f[1], f[2], margin)
        total = vk.ParamGradients.zeros_like(model)
        for r, g in zip(raws, (g_q, g_p, g_n)):
            total += vk.backward(model, r, g)
        h = 1e-5
        for k in range(len(model.weights)):
            for i in range(model.weights[k].shape[0]):
                for j in range(model.weights[k].shape[1]):
                    model.weights[k][i, j] += h
                    fp = objective()
                    model.weights[k][i, j] -= 2 * h
                    fm = objective()
                    model.weights[k][i, j] += h
                    num = (fp - fm) / (2 * h)
                    ana = total.weights[k][i, j]
                    worst = max(worst, abs(num - ana) / max(1e-8, abs(num), abs(ana)))
            for j in range(len(model.biases[k])):
                model.biases[k][j] += h
                fp = objective()
                model.biases[k][j] -= 2 * h
                fm = objective()
                model.biases[k][j] += h
                num = (fp - fm) / (2 * h)
                ana = total.biases[k][j]
                worst = max(worst, abs(num - ana) / max(1e-8, abs(num), abs(ana)))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e} over {configs} configs in {elapsed:.1f}s",
    )


def test_criterion_2_triplet_loss_formula_oracle():
    rng = np.random.default_rng(20)
    branches = {True: 0, False: 0}
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 10))
        f_q, f_p, f_n = rng.normal(size=(3, d))
        m = float(rng.uniform(0.01, 1.5))
        loss, *_ = vk.triplet_loss(f_q, f_p, f_n, m)
        direct = max(np.linalg.norm(f_q - f_p) - np.linalg.norm(f_q - f_n) + m, 0.0)
        worst = max(worst, abs(loss - direct))
        branches[loss > 0] += 1
    report(
        2,
        worst < 1e-12 and branches[True] > 0 and branches[False] > 0,
        f"max dev {worst:.2e}; active/flat branches {branches[True]}/{branches[False]}",
    )


def test_criterion_3_retrieval_oracle():
    rng = np.random.default_rng(30)
    ok = True
    for trial in range(50):
        n = int(rng.integers(2, 501))
        d = int(rng.integers(2, 65))
        rows = rng.normal(size=(n, d)).astype(np.float32)
        if trial % 3 == 0 and n > 4:  # force ties via duplicated rows
            rows[n // 2] = rows[1]
            rows[n - 1] = rows[0]
        query = rng.normal(size=d)
        k = int(rng.integers(1, n + 1))
        dmap = vk.DescriptorMap(
            descriptors=rows, poses=np.zeros((n, 2)),
            ids=[str(i) for i in range(n)], model_fingerprint=bytes(32),
        )
        res = vk.knn(dmap, query, k)
        dists = np.sqrt(
            np.sum((rows.astype(np.float64) - query) ** 2, axis=1)
        )
        expected = sorted(range(n), key=lambda i: (dists[i], i))[:k]
        ok &= [i for i, _ in res.ranked] == expected
        ok &= all(
            abs(d_ - dists[i]) < 1e-6 for i, d_ in res.ranked
        )
        if not ok:
            break
    report(3, ok, "50 random instances match naive brute force exactly")


def test_criterion_4_mining_oracle():
    rng = np.random.default_rng(40)
    config = vk.TrainConfig(negative_radius=25.0)
    ok = True
    for trial in range(50):
        n_refs = int(rng.integers(4, 14))
        refs = [
            vk.ImageRecord(
                f"r{i:02d}", rng.random((16, 16, 3)),
                vk.Pose(float(rng.uniform(0, 120)), float(rng.uniform(0, 120))),
            )
            for i in range(n_refs)
        ]
        ds = vk.Dataset(references=refs)
        stream = vk.FinetuneDataset(
            refs, 1, vk.AugmentationSpec.from_string("appearance"), seed=trial
        )
        model = vk.init_model([8], 6, seed=trial)
        (_, positives, negatives), skipped = vk.mine_triplets(model, stream, config, epoch=0)
        ref_descs = vk.forward_batch(
            model, np.stack([vk.extract_raw(r) for r in refs])
        )
        mined = dict(zip(positives.tolist(), negatives.tolist()))
        expected_skips = 0
        for src, query in stream.realize_epoch(0):
            eligible = [
                ri for ri, rp in enumerate(ds.reference_poses)
                if query.pose.distance(rp) > config.negative_radius
            ]
            if not eligible:
                expected_skips += 1
                continue
            q_desc = vk.forward(model, vk.extract_raw(query))
            best = min(
                eligible, key=lambda ri: (float(np.linalg.norm(ref_descs[ri] - q_desc)), ri)
            )
            ok &= mined.get(src) == best  # keyed by positive: also checks positive == src
        ok &= skipped == expected_skips
        if not ok:
            break
    report(4, ok, "pose-mode hard negatives match brute-force scan on 50 instances")


def test_criterion_5_finetune_structure_and_hygiene(experiment):
    world_b = experiment["world_b"]
    spec = vk.AugmentationSpec.from_string("appearance,viewpoint")
    ok = True
    for m in (1, 2, 4):
        stream = vk.FinetuneDataset(world_b.references, m, spec, seed=1)
        realized = stream.realize_epoch(0)
        ok &= len(realized) == m * len(world_b.references)
        ok &= all(q.pose == stream.references[src].pose for src, q in realized)

    class CountingList(list):
        accesses = 0

        def __getitem__(self, idx):
            CountingList.accesses += 1
            return super().__getitem__(idx)

        def __iter__(self):
            CountingList.accesses += 1
            return super().__iter__()

    ds = vk.Dataset(references=world_b.references, queries=CountingList(world_b.queries))
    cfg = dataclasses.replace(rsf_config(), epochs=1)
    vk.rsf_finetune(vk.init_model(seed=1), ds, cfg, spec)
    ok &= CountingList.accesses == 0
    report(5, ok, f"|queries| = M x |refs| for M in {{1,2,4}}; query accesses = {CountingList.accesses}")


def test_criterion_6_domain_gap_reproduction(experiment):
    v = experiment["values"]
    gain = v["rsf_all_b"] - v["baseline_b"]
    # Every declared pin, as the benchmark harness checks them at seed 0.
    off_pin = [f"{key}={v[key]:.4f} (pinned {pin})" for key, pin in PINNED.items()
               if not abs(v[key] - pin) <= PIN_TOL]
    ok = gain >= 0.03 and not off_pin and experiment["elapsed"] < 600
    report(
        6,
        ok,
        f"baseline B R@1={v['baseline_b']:.4f}, RSF B R@1={v['rsf_all_b']:.4f} "
        f"(+{100 * gain:.1f} pts, off pin: {off_pin or 'none'}, {experiment['elapsed']:.0f}s)",
    )


def test_criterion_7_generalization_retention(experiment):
    v = experiment["values"]
    retention_ok = v["baseline_a"] - v["rsf_all_a"] <= 0.02
    # 2x2 matrix: rows {baseline, rsf_all}, columns {A, B}
    col_a_ok = v["baseline_a"] >= v["rsf_all_a"]
    col_b_ok = v["rsf_all_b"] >= v["baseline_b"]
    ok = retention_ok and col_a_ok and col_b_ok
    report(
        7,
        ok,
        f"RSF on A={v['rsf_all_a']:.4f} vs baseline {v['baseline_a']:.4f}; "
        f"diagonal max per column: A={col_a_ok}, B={col_b_ok}",
    )


def test_criterion_8_pose_ablation(experiment):
    v = experiment["values"]
    ok = (
        v["rsf_poseless_b"] >= v["baseline_b"]
        and v["rsf_poseless_b"] <= v["rsf_all_b"] + 0.005
    )
    report(
        8,
        ok,
        f"baseline {v['baseline_b']:.4f} <= poseless {v['rsf_poseless_b']:.4f} "
        f"<= pose-mode {v['rsf_all_b']:.4f}",
    )


def test_criterion_9_augmentation_ablation(experiment):
    v = experiment["values"]
    ok = (
        v["rsf_appearance_b"] >= v["rsf_viewpoint_b"]
        and v["rsf_none_b"] < v["rsf_all_b"]
    )
    report(
        9,
        ok,
        f"appearance {v['rsf_appearance_b']:.4f} >= viewpoint {v['rsf_viewpoint_b']:.4f}; "
        f"none {v['rsf_none_b']:.4f} < all {v['rsf_all_b']:.4f}",
    )


def test_criterion_10_determinism(experiment, tmp_path):
    second = run_experiment()
    ok = True
    for key in ("baseline", "rsf_all", "rsf_poseless"):
        a, b = tmp_path / f"{key}_a.vprh", tmp_path / f"{key}_b.vprh"
        vk.save_model(experiment["models"][key], a)
        vk.save_model(second["models"][key], b)
        ok &= a.read_bytes() == b.read_bytes()
    for world in ("world_a", "world_b"):
        a, b = tmp_path / f"{world}_a.vprm", tmp_path / f"{world}_b.vprm"
        save_map(vk.build_map(experiment[world], experiment["models"]["rsf_all"]), a)
        save_map(vk.build_map(second[world], second["models"]["rsf_all"]), b)
        ok &= a.read_bytes() == b.read_bytes()
    ok &= experiment["values"] == second["values"]
    report(10, ok, "two same-seed runs produce byte-identical models, maps, reports")


def test_criterion_11_format_round_trips(experiment, tmp_path):
    model = experiment["models"]["rsf_all"]
    mpath = tmp_path / "m.vprh"
    vk.save_model(model, mpath)
    ok = vk.load_model(mpath).fingerprint() == model.fingerprint()

    dmap = vk.build_map(experiment["world_b"], model)
    dpath = tmp_path / "m.vprm"
    save_map(dmap, dpath)
    back = load_map(dpath)
    ok &= (
        np.array_equal(back.descriptors, dmap.descriptors)
        and np.array_equal(back.poses, dmap.poses)
        and back.ids == dmap.ids
        and back.model_fingerprint == dmap.model_fingerprint
    )
    errors_ok = True
    for path, loader in ((mpath, vk.load_model), (dpath, load_map)):
        full = path.read_bytes()
        path.write_bytes(b"XXXX" + full[4:])
        try:
            loader(path)
            errors_ok = False
        except FormatError:
            pass
        path.write_bytes(full[: len(full) - 7])
        try:
            loader(path)
            errors_ok = False
        except TruncatedError:
            pass
        path.write_bytes(full)
    ok &= errors_ok
    report(11, ok, "model and map files round-trip bit-exactly; corruption raises")
