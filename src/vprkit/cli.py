"""Command-line surface for reproducible experiments.

Every subcommand writes its artifacts into a run directory named by a
hash of the invocation (command + resolved config + input hashes +
seed) and drops a manifest.json next to them. Seeds are mandatory on
stochastic commands; nothing is ever seeded from the clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .augmentation import AugmentationSpec
from .dataset import load_dataset, save_dataset, split_validation
from .embedding import init_model, load_model, save_model
from .errors import ShapeError, VprError
from .evaluation import (
    evaluate_model,
    format_matrix,
    format_recall,
    generalization_matrix,
    ground_truth,
    project_2d,
    recall_at_n,
)
from .manifest import RunContext, atomic_write_text
from .retrieval import RetrievalResult, build_map, load_map, retrieve_all, save_map
from .rsf import TrainConfig, TrainLog, rsf_finetune, train
from .synth import StyleParams, SynthWorldSpec, generate_synthetic

DEFAULT_OUT_ENV = "VPRKIT_OUT"


def _out_root(args: argparse.Namespace) -> str:
    return args.out or os.environ.get(DEFAULT_OUT_ENV, "runs")


def _parse_style(text: str) -> StyleParams:
    """Parse 'palette=1,family=stripes,hue=35,brightness=-0.2,...'."""
    kwargs: dict = {}
    keymap = {
        "palette": ("palette_id", int),
        "family": ("texture_family", str),
        "hue": ("hue_shift", float),
        "brightness": ("brightness_offset", float),
        "contrast": ("contrast_gain", float),
        "noise": ("noise_sigma", float),
    }
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise VprError(f"style entry {part!r} is not key=value")
        key, value = part.split("=", 1)
        if key not in keymap:
            raise VprError(f"unknown style key {key!r}")
        field, cast = keymap[key]
        try:
            kwargs[field] = cast(value)
        except ValueError:
            raise VprError(f"style key {key!r} expects {cast.__name__}, got {value!r}") from None
    return StyleParams(**kwargs)


def _parse_ns(text: str) -> tuple[int, ...]:
    try:
        ns = tuple(int(p) for p in text.split(","))
        if min(ns) >= 1:
            return ns
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"--ns expects comma-separated positive integers, got {text!r}"
    )


def _apply_config_file(args: argparse.Namespace) -> None:
    """Plain key=value config file; entries override command-line flags.
    An unreadable file or a mistyped value is a usage error, as on the
    command line."""
    if not getattr(args, "config", None):
        return
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise argparse.ArgumentTypeError(f"{args.config}: cannot read config: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise VprError(f"{args.config}:{lineno}: expected key=value, got {line!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        key = key.replace("-", "_")
        if not hasattr(args, key):
            raise VprError(f"{args.config}:{lineno}: unknown config key {key!r}")
        current = getattr(args, key)
        if isinstance(current, bool):
            setattr(args, key, value.lower() in ("1", "true", "yes"))
            continue
        cast = type(current) if isinstance(current, (int, float)) else str
        try:
            setattr(args, key, cast(value))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{args.config}:{lineno}: {key} expects {cast.__name__}, got {value!r}"
            ) from None


# Flags naming input files or directories; the plural ones take a
# comma-separated list.
_INPUT_FLAGS = ("results", "map", "model", "dataset", "validation")
_INPUT_LIST_FLAGS = ("models", "datasets", "maps")


def _check_inputs(args: argparse.Namespace) -> None:
    """A missing input path is a usage error naming its flag, raised before
    any input is hashed."""
    for flag in (*_INPUT_FLAGS, *_INPUT_LIST_FLAGS):
        value = getattr(args, flag, None)
        if not value:
            continue
        for path in value.split(",") if flag in _INPUT_LIST_FLAGS else [value]:
            if not Path(path).exists():
                raise argparse.ArgumentTypeError(f"--{flag} {path}: no such file or directory")


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        margin=args.margin,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        positive_radius=args.positive_radius,
        negative_radius=args.negative_radius,
        negatives_per_query=args.negatives_per_query,
        early_stop_patience=args.patience,
        aug_multiplicity=args.multiplicity,
        poseless=getattr(args, "no_poses", False),
        validation_radius=args.radius,
        seed=args.seed,
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--margin", type=float, default=0.4)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--positive-radius", type=float, default=10.0)
    p.add_argument("--negative-radius", type=float, default=25.0)
    p.add_argument("--negatives-per-query", type=int, default=1)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--multiplicity", "-M", type=int, default=2)
    p.add_argument("--radius", type=float, default=25.0)


def _write_trainlog(ctx: RunContext, log: TrainLog, name: str = "trainlog.csv") -> None:
    lines = ["record,index,value"]
    lines += [f"step_loss,{i},{v:.8f}" for i, v in enumerate(log.step_losses)]
    lines += [f"epoch_mean_loss,{i},{v:.8f}" for i, v in enumerate(log.epoch_mean_loss)]
    lines += [
        f"epoch_val_recall1,{i},{v:.6f}" for i, v in enumerate(log.epoch_val_recall1)
    ]
    lines += [
        f"epoch_skipped_queries,{i},{v}"
        for i, v in enumerate(log.epoch_skipped_queries)
    ]
    # Wall time: the one record that differs between same-seed runs.
    lines += [f"epoch_seconds,{i},{v:.6f}" for i, v in enumerate(log.epoch_seconds)]
    lines.append(f"selected_epoch,0,{log.selected_epoch}")
    atomic_write_text(ctx.path(name), "\n".join(lines) + "\n")


def _write_report(ctx: RunContext, reports, stem: str) -> None:
    rows = ["model_fingerprint,dataset,N,recall,evaluated,total"]
    text_lines = []
    for rep in reports:
        rows.extend(rep.rows())
        cells = "  ".join(
            f"R@{n}={format_recall(r)}" for n, r in zip(rep.ns, rep.recalls)
        )
        text_lines.append(f"{rep.dataset or '-'}  {cells}")
    atomic_write_text(ctx.path(f"{stem}.csv"), "\n".join(rows) + "\n")
    atomic_write_text(ctx.path(f"{stem}.txt"), "\n".join(text_lines) + "\n")
    for line in text_lines:
        print(line)


# ---------------------------------------------------------------- commands


def cmd_synth_gen(args) -> int:
    spec = SynthWorldSpec(
        place_count=args.places,
        spacing=args.spacing,
        reference_style=_parse_style(args.ref_style),
        query_style=_parse_style(args.query_style),
        queries_per_place=args.queries_per_place,
        image_size=args.image_size,
        seed=args.seed,
        jitter_px=args.jitter,
    )
    ctx = RunContext(
        "synth-gen", dataclasses.asdict(spec), {}, args.seed, _out_root(args)
    )
    dataset = generate_synthetic(spec)
    out_dir = ctx.run_dir / "dataset"
    save_dataset(dataset, out_dir)
    ctx.outputs.append("dataset")
    print(ctx.finalize().parent)
    return 0


def cmd_pretrain(args) -> int:
    config = _train_config(args)
    ctx = RunContext(
        "pretrain",
        {**dataclasses.asdict(config), "val_fraction": args.val_fraction},
        {"dataset": args.dataset},
        args.seed,
        _out_root(args),
    )
    dataset = load_dataset(args.dataset)
    train_split, val_split = split_validation(dataset, args.val_fraction, args.seed)
    model = init_model(seed=args.seed)
    model, log = train(model, train_split, config, validation=val_split or None)
    save_model(model, ctx.path("model.vprh"))
    _write_trainlog(ctx, log)
    ctx.extra["model_fingerprint"] = model.fingerprint_hex()
    print(ctx.finalize().parent)
    return 0


def cmd_build_map(args) -> int:
    ctx = RunContext(
        "build-map",
        {},
        {"dataset": args.dataset, "model": args.model},
        None,
        _out_root(args),
    )
    dmap = build_map(load_dataset(args.dataset), load_model(args.model))
    save_map(dmap, ctx.path("map.vprm"))
    print(ctx.finalize().parent)
    return 0


def cmd_retrieve(args) -> int:
    ctx = RunContext(
        "retrieve",
        {"k": args.k},
        {"map": args.map, "model": args.model, "dataset": args.dataset},
        None,
        _out_root(args),
    )
    dmap = load_map(args.map)
    model = load_model(args.model)
    dataset = load_dataset(args.dataset)
    results = retrieve_all(dmap, dataset, model, min(args.k, dmap.size))
    rows = ["query_id,rank,ref_index,ref_id,distance"]
    for res in results:
        for rank, (idx, dist) in enumerate(res.ranked):
            rows.append(f"{res.query_id},{rank},{idx},{dmap.ids[idx]},{dist:.9f}")
    atomic_write_text(ctx.path("results.csv"), "\n".join(rows) + "\n")
    print(ctx.finalize().parent)
    return 0


def _read_results(path: Path) -> list[RetrievalResult]:
    by_query: dict[str, list[tuple[int, int, float]]] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            qid, rank, idx, _rid, dist = line.split(",")
            by_query.setdefault(qid, []).append((int(rank), int(idx), float(dist)))
        except ValueError:
            raise VprError(f"{path}:{lineno}: malformed results row {line!r}") from None
    results = []
    for qid, entries in by_query.items():
        entries.sort()
        results.append(
            RetrievalResult(query_id=qid, ranked=[(i, d) for _, i, d in entries])
        )
    return results


def cmd_evaluate(args) -> int:
    ctx = RunContext(
        "evaluate",
        {"radius": args.radius, "ns": list(args.ns), "name": args.name},
        {"results": args.results, "map": args.map, "dataset": args.dataset},
        None,
        _out_root(args),
    )
    results = _read_results(Path(args.results))
    dmap = load_map(args.map)
    dataset = load_dataset(args.dataset)
    gt = ground_truth(
        dataset.query_poses,
        dmap.poses,
        args.radius,
        query_ids=[q.id for q in dataset.queries],
    )
    report = recall_at_n(
        results,
        gt,
        args.ns,
        dataset=args.name,
        model_fingerprint=dmap.model_fingerprint.hex(),
    )
    _write_report(ctx, [report], "report")
    print(ctx.finalize().parent)
    return 0


def _load_rsf_inputs(args):
    model = load_model(args.model)
    test_dataset = load_dataset(args.dataset)
    validation = load_dataset(args.validation) if args.validation else None
    return model, test_dataset, validation


def cmd_rsf(args) -> int:
    config = _train_config(args)
    spec = AugmentationSpec.from_string(args.augment)
    ctx = RunContext(
        "rsf",
        {**dataclasses.asdict(config), "augment": args.augment},
        {
            "model": args.model,
            "dataset": args.dataset,
            **({"validation": args.validation} if args.validation else {}),
        },
        args.seed,
        _out_root(args),
    )
    model, test_dataset, validation = _load_rsf_inputs(args)
    finetuned, log = rsf_finetune(model, test_dataset, config, spec, validation)
    save_model(finetuned, ctx.path("model.vprh"))
    _write_trainlog(ctx, log)
    ctx.extra["mode"] = log.mode
    ctx.extra["model_fingerprint"] = finetuned.fingerprint_hex()
    print(ctx.finalize().parent)
    return 0


def cmd_xeval(args) -> int:
    model_paths = [Path(p) for p in args.models.split(",")]
    dataset_paths = [Path(p) for p in args.datasets.split(",")]
    ctx = RunContext(
        "xeval",
        {"radius": args.radius, "ns": list(args.ns)},
        {
            **{f"model:{p.stem}": p for p in model_paths},
            **{f"dataset:{p.name}": p for p in dataset_paths},
        },
        None,
        _out_root(args),
    )
    models = [(p.stem, load_model(p)) for p in model_paths]
    datasets = [(p.name, load_dataset(p)) for p in dataset_paths]
    matrix = generalization_matrix(models, datasets, args.radius, args.ns)
    rows = ["model_fingerprint,dataset,N,recall,evaluated,total"]
    for (mname, model), row in zip(models, matrix):
        for cell in row:
            if isinstance(cell, Exception):
                rows.append(f"{model.fingerprint_hex()},error,{type(cell).__name__},,,")
            else:
                rows.extend(cell.rows())
    atomic_write_text(ctx.path("xeval.csv"), "\n".join(rows) + "\n")
    for n in args.ns:
        table = format_matrix(
            [m for m, _ in models], [d for d, _ in datasets], matrix, n=n
        )
        atomic_write_text(ctx.path(f"xeval_r{n}.txt"), table + "\n")
        print(f"Recall@{n}")
        print(table)
    print(ctx.finalize().parent)
    return 0


def cmd_project(args) -> int:
    paths = [Path(p) for p in args.maps.split(",")]
    ctx = RunContext(
        "project",
        {},
        {f"map:{p.stem}": p for p in paths},
        None,
        _out_root(args),
    )
    maps = [load_map(p) for p in paths]
    dims = {m.descriptor_dim for m in maps}
    if len(dims) > 1:
        raise ShapeError(f"maps have differing descriptor dims: {sorted(dims)}")
    stacked = np.vstack([m.descriptors for m in maps]).astype(np.float64)
    coords = project_2d(stacked)
    rows = ["source_label,x,y"]
    offset = 0
    for p, m in zip(paths, maps):
        for i in range(m.size):
            x, y = coords[offset + i]
            rows.append(f"{p.stem},{x:.9f},{y:.9f}")
        offset += m.size
    atomic_write_text(ctx.path("projection.csv"), "\n".join(rows) + "\n")
    print(ctx.finalize().parent)
    return 0


def cmd_ablate_aug(args) -> int:
    config = _train_config(args)
    ctx = RunContext(
        "ablate-aug",
        dataclasses.asdict(config),
        {
            "model": args.model,
            "dataset": args.dataset,
            **({"validation": args.validation} if args.validation else {}),
        },
        args.seed,
        _out_root(args),
    )
    model, test_dataset, validation = _load_rsf_inputs(args)
    reports = []
    for label in ("none", "appearance", "viewpoint", "appearance,viewpoint"):
        spec = AugmentationSpec.from_string(label)
        finetuned, _ = rsf_finetune(model, test_dataset, config, spec, validation)
        rep = evaluate_model(finetuned, test_dataset, args.radius, args.ns, name=label)
        reports.append(rep)
    _write_report(ctx, reports, "ablate_aug")
    print(ctx.finalize().parent)
    return 0


def cmd_ablate_poses(args) -> int:
    config = _train_config(args)
    ctx = RunContext(
        "ablate-poses",
        {**dataclasses.asdict(config), "augment": args.augment},
        {
            "model": args.model,
            "dataset": args.dataset,
            **({"validation": args.validation} if args.validation else {}),
        },
        args.seed,
        _out_root(args),
    )
    model, test_dataset, validation = _load_rsf_inputs(args)
    spec = AugmentationSpec.from_string(args.augment)
    reports = [evaluate_model(model, test_dataset, args.radius, args.ns, name="baseline")]
    for poseless, label in ((False, "rsf-poses"), (True, "rsf-no-poses")):
        cfg = dataclasses.replace(config, poseless=poseless)
        finetuned, _ = rsf_finetune(model, test_dataset, cfg, spec, validation)
        reports.append(
            evaluate_model(finetuned, test_dataset, args.radius, args.ns, name=label)
        )
    _write_report(ctx, reports, "ablate_poses")
    print(ctx.finalize().parent)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vprkit", description="VPR toolkit with reference-set finetuning"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output root (default $VPRKIT_OUT or ./runs)")
        p.add_argument("--config", default=None, help="key=value file overriding flags")
        return p

    p = add("synth-gen", cmd_synth_gen, help="generate a synthetic world")
    p.add_argument("--places", type=int, default=30)
    p.add_argument("--spacing", type=float, default=30.0)
    p.add_argument("--queries-per-place", type=int, default=2)
    p.add_argument("--image-size", type=int, default=64)
    p.add_argument("--jitter", type=int, default=2)
    p.add_argument("--ref-style", default="palette=0,family=blocks")
    p.add_argument("--query-style", default="palette=0,family=blocks")
    p.add_argument("--seed", type=int, required=True)

    p = add("pretrain", cmd_pretrain, help="train a head on a labeled dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--val-fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, required=True)
    _add_train_flags(p)

    p = add("build-map", cmd_build_map, help="encode references into a map file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)

    p = add("retrieve", cmd_retrieve, help="run k-NN retrieval for all queries")
    p.add_argument("--map", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int, default=10)

    p = add("evaluate", cmd_evaluate, help="score a results file with Recall@N")
    p.add_argument("--results", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--radius", type=float, default=25.0)
    p.add_argument("--ns", default="1,5,10")
    p.add_argument("--name", default="dataset")

    p = add("rsf", cmd_rsf, help="finetune a model on a test reference set")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--validation", default=None)
    p.add_argument("--augment", default="appearance,viewpoint")
    p.add_argument("--no-poses", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    _add_train_flags(p)

    p = add("xeval", cmd_xeval, help="models x datasets recall matrix")
    p.add_argument("--models", required=True, help="comma-separated model files")
    p.add_argument("--datasets", required=True, help="comma-separated dataset dirs")
    p.add_argument("--radius", type=float, default=25.0)
    p.add_argument("--ns", default="1,5")

    p = add("project", cmd_project, help="2-D projection of map descriptors")
    p.add_argument("--maps", required=True, help="comma-separated map files")

    p = add("ablate-aug", cmd_ablate_aug, help="RSF with each augmentation category")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--validation", default=None)
    p.add_argument("--ns", default="1,5")
    p.add_argument("--seed", type=int, required=True)
    _add_train_flags(p)

    p = add("ablate-poses", cmd_ablate_poses, help="RSF with vs without poses")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--validation", default=None)
    p.add_argument("--augment", default="appearance,viewpoint")
    p.add_argument("--ns", default="1,5")
    p.add_argument("--seed", type=int, required=True)
    _add_train_flags(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        if hasattr(args, "ns"):
            args.ns = _parse_ns(args.ns)
        _check_inputs(args)
        return args.fn(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))  # usage error: exits 2
    except VprError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
