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
import resource
import sys
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .augmentation import AugmentationSpec
from .dataset import load_dataset, read_utf8, save_dataset, split_validation
from .embedding import init_model, load_model, save_model
from .errors import ShapeError, VprError
from .evaluation import (
    REPORT_HEADER,
    _csv_row,
    evaluate_model,
    format_matrix,
    format_recall,
    generalization_matrix,
    project_2d,
    score_results,
)
from .manifest import RunContext, atomic_write_text
from .retrieval import DescriptorMap, RetrievalResult, build_map, load_map, retrieve_all, save_map
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


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


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
        # fn and command are set by the parser, not by flags; config is read.
        if key in ("fn", "command", "config") or not hasattr(args, key):
            raise VprError(f"{args.config}:{lineno}: unknown config key {key!r}")
        current = getattr(args, key)
        kind = type(current) if isinstance(current, (bool, int, float)) else str
        try:
            parsed = _BOOLS[value.lower()] if kind is bool else kind(value)
        except (KeyError, ValueError):
            raise argparse.ArgumentTypeError(
                f"{args.config}:{lineno}: {key} expects {kind.__name__}, got {value!r}"
            ) from None
        setattr(args, key, parsed)


# Every flag that names an input path: (names a directory rather than a
# file, takes a comma-separated list, manifest key of one entry, formatted
# with the entry's Path). The keys are hashed into run ids.
_INPUTS = {
    "results": (False, False, "results"),
    "map": (False, False, "map"),
    "model": (False, False, "model"),
    "dataset": (True, False, "dataset"),
    "validation": (True, False, "validation"),
    "models": (False, True, "model:{0.stem}"),
    "maps": (False, True, "map:{0.stem}"),
    "datasets": (True, True, "dataset:{0.name}"),
}


def _input_entries(args: argparse.Namespace) -> Iterator[tuple[str, str, bool, str]]:
    """(flag, path, names a directory, manifest key) of each input path given."""
    for flag, (directory, listed, key) in _INPUTS.items():
        value = getattr(args, flag, None)
        if value:
            for path in value.split(",") if listed else [value]:
                yield flag, path, directory, key.format(Path(path))


def _check_inputs(args: argparse.Namespace) -> None:
    """A missing input path, one of the wrong kind, or two list entries
    with one manifest key are a usage error naming the flag, raised before
    any input is hashed."""
    seen: dict[str, str] = {}
    for flag, path, directory, key in _input_entries(args):
        if not path or not Path(path).exists():  # Path("") is "."
            raise argparse.ArgumentTypeError(f"--{flag} {path}: no such file or directory")
        if not (Path(path).is_dir() if directory else Path(path).is_file()):
            kind = "a directory" if directory else "a file"
            raise argparse.ArgumentTypeError(f"--{flag} {path}: expected {kind}")
        if key in seen:
            raise argparse.ArgumentTypeError(
                f"--{flag} {seen[key]} and {path} share the manifest key {key!r}"
            )
        seen[key] = path


def _run_context(args: argparse.Namespace, config: dict) -> RunContext:
    """The run of this invocation. Only the config is the subcommand's own;
    the command, seed and inputs are read from the parsed arguments."""
    inputs = {key: path for _, path, _, key in _input_entries(args)}
    return RunContext(
        args.command, config, inputs, getattr(args, "seed", None), _out_root(args)
    )


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


def _add_finetune_flags(p: argparse.ArgumentParser) -> None:
    """The inputs, seed and train flags of rsf and both ablations."""
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--validation", default=None)
    p.add_argument("--seed", type=int, required=True)
    _add_train_flags(p)


def _write_trainlog(ctx: RunContext, log: TrainLog, name: str = "trainlog.csv") -> None:
    lines = ["record,index,value"]
    lines += [f"step_loss,{i},{v:.8f}" for i, v in enumerate(log.step_losses)]
    for record in ("epoch_mean_loss", "epoch_grad_norm"):
        lines += [f"{record},{i},{v:.8f}" for i, v in enumerate(getattr(log, record))]
    lines += [
        f"epoch_val_recall1,{i},{v:.6f}" for i, v in enumerate(log.epoch_val_recall1)
    ]
    for record in ("epoch_skipped_queries", "epoch_triplets", "epoch_active_triplets"):
        lines += [f"{record},{i},{v}" for i, v in enumerate(getattr(log, record))]
    # Wall times, the records that differ between same-seed runs: each
    # epoch's, then its stages'.
    for record in ("epoch_seconds", "epoch_mine_seconds", "epoch_step_seconds",
                   "epoch_validate_seconds"):
        lines += [f"{record},{i},{v:.6f}" for i, v in enumerate(getattr(log, record))]
    lines.append(f"selected_epoch,0,{log.selected_epoch}")
    lines.append(f"stop_reason,0,{log.stop_reason}")
    atomic_write_text(ctx.path(name), "\n".join(lines) + "\n")


def _write_report(ctx: RunContext, reports, stem: str) -> None:
    rows = [REPORT_HEADER]
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


def _append_event(ctx: RunContext, wall_s: float) -> None:
    """Append the run's command, wall seconds and peak resident memory, of
    this process and of its reaped children (the realization workers), to
    events.jsonl in its run directory.  They are measurements, so they
    stay out of the manifest and the run id."""
    mb = 2**20 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes there, KiB on Linux
    event = {
        "command": ctx.command,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / mb,
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / mb,
    }
    with open(ctx.run_dir / "events.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(event) + "\n")


# ---------------------------------------------------------------- commands
# Each command fills the run that _run_context opens and returns it; main
# writes its manifest.


def cmd_synth_gen(args) -> RunContext:
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
    ctx = _run_context(args, dataclasses.asdict(spec))
    save_dataset(generate_synthetic(spec), ctx.run_dir / "dataset")
    ctx.outputs.append("dataset")
    return ctx


def cmd_pretrain(args) -> RunContext:
    config = _train_config(args)
    ctx = _run_context(
        args, {**dataclasses.asdict(config), "val_fraction": args.val_fraction}
    )
    dataset = load_dataset(args.dataset)
    train_split, val_split = split_validation(dataset, args.val_fraction, args.seed)
    model = init_model(seed=args.seed)
    validation = val_split if val_split.queries else None  # e.g. --val-fraction 0
    model, log = train(model, train_split, config, validation=validation)
    save_model(model, ctx.path("model.vprh"))
    _write_trainlog(ctx, log)
    ctx.extra["model_fingerprint"] = model.fingerprint_hex()
    return ctx


def cmd_build_map(args) -> RunContext:
    ctx = _run_context(args, {})
    dmap = build_map(load_dataset(args.dataset), load_model(args.model))
    save_map(dmap, ctx.path("map.vprm"))
    return ctx


def cmd_retrieve(args) -> RunContext:
    ctx = _run_context(args, {"k": args.k})
    dmap = load_map(args.map)
    model = load_model(args.model)
    dataset = load_dataset(args.dataset)
    results = retrieve_all(dmap, dataset, model, min(args.k, dmap.size))
    rows = ["query_id,rank,ref_index,ref_id,distance"]
    for res in results:
        for rank, (idx, dist) in enumerate(res.ranked):
            rows.append(f"{res.query_id},{rank},{idx},{dmap.ids[idx]},{dist:.9f}")
    atomic_write_text(ctx.path("results.csv"), "\n".join(rows) + "\n")
    return ctx


# One results row: its "file:line", query id, rank, reference index and id,
# distance.
_ResultsRow = tuple[str, str, int, int, str, float]


def _read_results(path: Path) -> list[_ResultsRow]:
    """The rows of a results file; a malformed row, or a second row for
    one (query id, rank), is a VprError naming its line."""
    rows: list[_ResultsRow] = []
    seen: set[tuple[str, int]] = set()
    lines = read_utf8(path).splitlines()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            qid, rank, idx, rid, dist = line.split(",")
            row = (f"{path}:{lineno}", qid, int(rank), int(idx), rid, float(dist))
        except ValueError:
            raise VprError(f"{path}:{lineno}: malformed results row {line!r}") from None
        if row[1:3] in seen:
            raise VprError(f"{path}:{lineno}: a second row for query {qid!r} at rank {row[2]}")
        seen.add(row[1:3])
        rows.append(row)
    return rows


def _ranked_results(rows: list[_ResultsRow], dmap: DescriptorMap) -> list[RetrievalResult]:
    """Each query's rows in rank order.  A row naming a reference the map
    does not hold at its index, or a query whose ranks are not 0, 1, ...,
    k - 1, is a VprError naming a line."""
    by_query: dict[str, list[tuple[int, int, float, str]]] = {}
    for where, qid, rank, idx, rid, dist in rows:
        if not 0 <= idx < dmap.size:
            raise VprError(f"{where}: ref_index {idx} is outside the map's {dmap.size} references")
        if rid != dmap.ids[idx]:
            raise VprError(
                f"{where}: ref_id {rid!r} is not {dmap.ids[idx]!r}, the map's id at {idx}"
            )
        by_query.setdefault(qid, []).append((rank, idx, dist, where))
    results = []
    for qid, entries in by_query.items():
        entries.sort()  # by rank alone: each (query, rank) is one row
        for expected, (rank, _, _, where) in enumerate(entries):
            if rank != expected:
                raise VprError(
                    f"{where}: query {qid!r} has rank {rank} where rank {expected} is due; "
                    "a query's ranks must be 0, 1, 2, ..."
                )
        results.append(RetrievalResult(qid, [(i, d) for _, i, d, _ in entries]))
    return results


def cmd_evaluate(args) -> RunContext:
    ctx = _run_context(
        args, {"radius": args.radius, "ns": list(args.ns), "name": args.name}
    )
    rows = _read_results(Path(args.results))
    dmap = load_map(args.map)
    results = _ranked_results(rows, dmap)
    dataset = load_dataset(args.dataset)
    report = score_results(results, dataset, dmap, args.radius, args.ns, args.name)
    _write_report(ctx, [report], "report")
    return ctx


def _load_rsf_inputs(args):
    model = load_model(args.model)
    test_dataset = load_dataset(args.dataset)
    validation = load_dataset(args.validation) if args.validation else None
    return model, test_dataset, validation


def cmd_rsf(args) -> RunContext:
    config = _train_config(args)
    spec = AugmentationSpec.from_string(args.augment)
    ctx = _run_context(args, {**dataclasses.asdict(config), "augment": args.augment})
    model, test_dataset, validation = _load_rsf_inputs(args)
    finetuned, log = rsf_finetune(model, test_dataset, config, spec, validation)
    save_model(finetuned, ctx.path("model.vprh"))
    _write_trainlog(ctx, log)
    ctx.extra["mode"] = log.mode
    ctx.extra["model_fingerprint"] = finetuned.fingerprint_hex()
    return ctx


def cmd_xeval(args) -> RunContext:
    ctx = _run_context(args, {"radius": args.radius, "ns": list(args.ns)})
    models = [(Path(p).stem, load_model(p)) for p in args.models.split(",")]
    datasets = [(Path(p).name, load_dataset(p)) for p in args.datasets.split(",")]
    matrix = generalization_matrix(models, datasets, args.radius, args.ns)
    rows = [REPORT_HEADER]
    for (mname, model), row in zip(models, matrix):
        for (dname, _), cell in zip(datasets, row):
            if isinstance(cell, Exception):
                error = f"error:{type(cell).__name__}"
                rows.append(_csv_row([model.fingerprint_hex(), dname, "", error, "", ""]))
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
    return ctx


def cmd_project(args) -> RunContext:
    ctx = _run_context(args, {})
    paths = [Path(p) for p in args.maps.split(",")]
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
    return ctx


def cmd_ablate_aug(args) -> RunContext:
    config = _train_config(args)
    ctx = _run_context(args, dataclasses.asdict(config))
    model, test_dataset, validation = _load_rsf_inputs(args)
    reports = []
    for label in ("none", "appearance", "viewpoint", "appearance,viewpoint"):
        spec = AugmentationSpec.from_string(label)
        finetuned, _ = rsf_finetune(model, test_dataset, config, spec, validation)
        rep = evaluate_model(finetuned, test_dataset, args.radius, args.ns, name=label)
        reports.append(rep)
    _write_report(ctx, reports, "ablate_aug")
    return ctx


def cmd_ablate_poses(args) -> RunContext:
    config = _train_config(args)
    spec = AugmentationSpec.from_string(args.augment)
    ctx = _run_context(args, {**dataclasses.asdict(config), "augment": args.augment})
    model, test_dataset, validation = _load_rsf_inputs(args)
    reports = [evaluate_model(model, test_dataset, args.radius, args.ns, name="baseline")]
    for poseless, label in ((False, "rsf-poses"), (True, "rsf-no-poses")):
        cfg = dataclasses.replace(config, poseless=poseless)
        finetuned, _ = rsf_finetune(model, test_dataset, cfg, spec, validation)
        reports.append(
            evaluate_model(finetuned, test_dataset, args.radius, args.ns, name=label)
        )
    _write_report(ctx, reports, "ablate_poses")
    return ctx


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
    p.add_argument("--augment", default="appearance,viewpoint")
    p.add_argument("--no-poses", action="store_true")
    _add_finetune_flags(p)

    p = add("xeval", cmd_xeval, help="models x datasets recall matrix")
    p.add_argument("--models", required=True, help="comma-separated model files")
    p.add_argument("--datasets", required=True, help="comma-separated dataset dirs")
    p.add_argument("--radius", type=float, default=25.0)
    p.add_argument("--ns", default="1,5")

    p = add("project", cmd_project, help="2-D projection of map descriptors")
    p.add_argument("--maps", required=True, help="comma-separated map files")

    p = add("ablate-aug", cmd_ablate_aug, help="RSF with each augmentation category")
    p.add_argument("--ns", default="1,5")
    _add_finetune_flags(p)

    p = add("ablate-poses", cmd_ablate_poses, help="RSF with vs without poses")
    p.add_argument("--augment", default="appearance,viewpoint")
    p.add_argument("--ns", default="1,5")
    _add_finetune_flags(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        if hasattr(args, "ns"):
            args.ns = _parse_ns(args.ns)
        _check_inputs(args)
        ctx = args.fn(args)
        ctx.finalize()
        _append_event(ctx, time.perf_counter() - start)
        print(ctx.run_dir)
        return 0
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))  # usage error: exits 2
    except VprError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
