import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import vprkit as vk
from vprkit.cli import _INPUTS, _apply_config_file, build_parser, main
from vprkit.dataset import read_csv
from vprkit.errors import InconsistentManifest, VprError
from vprkit.ppm import write_ppm
from vprkit.manifest import RunContext, hash_input


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_world(capsys, tmp_path, seed=11, name="w"):
    code, out, _ = run(
        capsys,
        "synth-gen",
        "--seed", str(seed),
        "--places", "6",
        "--queries-per-place", "1",
        "--query-style", "palette=0,family=blocks,brightness=-0.1,noise=0.02",
        "--out", str(tmp_path / name),
    )
    assert code == 0
    return out.strip().splitlines()[-1] + "/dataset"


@pytest.fixture()
def pipeline(capsys, tmp_path):
    ds = gen_world(capsys, tmp_path)
    code, out, _ = run(
        capsys, "pretrain", "--dataset", ds, "--seed", "5", "--epochs", "1",
        "--out", str(tmp_path / "pre"),
    )
    assert code == 0
    model = out.strip().splitlines()[-1] + "/model.vprh"
    code, out, _ = run(
        capsys, "build-map", "--dataset", ds, "--model", model,
        "--out", str(tmp_path / "map"),
    )
    assert code == 0
    dmap = out.strip().splitlines()[-1] + "/map.vprm"
    return ds, model, dmap


def test_synth_gen_is_reproducible(capsys, tmp_path):
    a = gen_world(capsys, tmp_path, name="a")
    b = gen_world(capsys, tmp_path, name="b")
    assert hash_input(a) == hash_input(b)


def test_retrieve_then_evaluate_wiring(capsys, tmp_path, pipeline):
    ds, model, dmap = pipeline
    code, out, _ = run(
        capsys, "retrieve", "--map", dmap, "--model", model, "--dataset", ds,
        "--k", "5", "--out", str(tmp_path / "ret"),
    )
    assert code == 0
    results = out.strip().splitlines()[-1] + "/results.csv"
    code, out, _ = run(
        capsys, "evaluate", "--results", results, "--map", dmap, "--dataset", ds,
        "--radius", "25", "--ns", "1,5", "--out", str(tmp_path / "ev"),
    )
    assert code == 0
    run_dir = out.strip().splitlines()[-1]
    report = (tmp_path / "ev").glob("*/report.csv")
    rows = next(report).read_text().splitlines()
    assert rows[0] == "model_fingerprint,dataset,N,recall,evaluated,total"
    assert len(rows) == 3  # header + R@1 + R@5
    assert "R@1=" in out and "R@5=" in out
    # build-map, retrieve and evaluate score as evaluate_model does in one call.
    report = vk.evaluate_model(
        vk.load_model(model), vk.load_dataset(ds), 25.0, (1, 5), name="dataset"
    )
    assert rows[1:] == report.rows()


def test_every_report_row_parses_into_the_headers_fields(capsys, tmp_path, pipeline):
    """Labels holding commas or quotes are quoted, so each row of every
    report CSV reads back as the header's six fields."""
    ds, model, dmap = pipeline

    def rows_of(*argv):
        code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "runs"))
        assert code == 0
        (path,) = Path(out.strip().splitlines()[-1]).glob("*.csv")
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model_fingerprint", "dataset", "N", "recall", "evaluated", "total"]
        assert all(len(row) == 6 for row in rows)
        return rows[1:]

    code, out, _ = run(
        capsys, "retrieve", "--map", dmap, "--model", model, "--dataset", ds,
        "--out", str(tmp_path / "ret"),
    )
    results = out.strip().splitlines()[-1] + "/results.csv"
    name = 'a,b "c"'
    evaluated = rows_of(
        "evaluate", "--results", results, "--map", dmap, "--dataset", ds, "--name", name
    )
    assert [row[1] for row in evaluated] == [name] * 3
    finetune = ["--model", model, "--dataset", ds, "--seed", "9", "--epochs", "1"]
    labels = [row[1] for row in rows_of("ablate-aug", *finetune)]
    assert labels == [x for x in ("none", "appearance", "viewpoint", "appearance,viewpoint")
                      for _ in range(2)]  # --ns 1,5
    assert len(rows_of("ablate-poses", *finetune)) == 6
    assert len(rows_of("xeval", "--models", model, "--datasets", ds)) == 2


def test_manifest_hashes_verify_against_inputs(capsys, tmp_path, pipeline):
    ds, model, dmap = pipeline
    manifest = json.loads(
        (next((tmp_path / "map").glob("*/manifest.json"))).read_text()
    )
    assert manifest["inputs"]["dataset"] == hash_input(ds)
    assert manifest["inputs"]["model"] == hash_input(model)
    assert manifest["command"] == "build-map"
    assert "map.vprm" in manifest["outputs"]


def test_rsf_no_poses_records_mode(capsys, tmp_path, pipeline):
    ds, model, _ = pipeline
    code, out, _ = run(
        capsys, "rsf", "--model", model, "--dataset", ds, "--seed", "9",
        "--epochs", "1", "--no-poses", "--out", str(tmp_path / "rsf"),
    )
    assert code == 0
    manifest = json.loads(next((tmp_path / "rsf").glob("*/manifest.json")).read_text())
    assert manifest["mode"] == "poseless"
    assert manifest["config"]["poseless"] is True


def test_project_emits_one_row_per_descriptor(capsys, tmp_path, pipeline):
    _, _, dmap = pipeline
    code, out, _ = run(
        capsys, "project", "--maps", dmap, "--out", str(tmp_path / "proj")
    )
    assert code == 0
    rows = next((tmp_path / "proj").glob("*/projection.csv")).read_text().splitlines()
    assert rows[0] == "source_label,x,y"
    assert len(rows) == 1 + 6


def test_unknown_flag_exits_two(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth-gen", "--seed", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_domain_error_exits_one_with_record(capsys, tmp_path):
    (tmp_path / "nope").mkdir()  # a dataset directory without a pose manifest
    model = tmp_path / "m.vprh"
    vk.save_model(vk.init_model(seed=1), model)
    code, out, err = run(
        capsys, "build-map", "--dataset", str(tmp_path / "nope"),
        "--model", str(model), "--out", str(tmp_path / "o"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ManifestMissing"


def test_config_file_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("places = 8\n# comment\nseed = 21\n")
    code, out, _ = run(
        capsys, "synth-gen", "--seed", "11", "--places", "4",
        "--config", str(cfg), "--out", str(tmp_path / "cfgd"),
    )
    assert code == 0
    ds = out.strip().splitlines()[-1] + "/dataset"
    loaded = vk.load_dataset(ds)
    assert len(loaded.references) == 8
    manifest = json.loads(next((tmp_path / "cfgd").glob("*/manifest.json")).read_text())
    assert manifest["config"]["seed"] == 21


def test_trainlog_records_epoch_seconds(tmp_path, pipeline):
    log = next((tmp_path / "pre").glob("*/trainlog.csv")).read_text().splitlines()
    seconds = [row.split(",") for row in log if row.startswith("epoch_seconds,")]
    assert [index for _, index, _ in seconds] == ["0"]  # --epochs 1
    assert float(seconds[0][2]) > 0


def test_trainlog_records_stage_seconds(tmp_path, pipeline):
    log = next((tmp_path / "pre").glob("*/trainlog.csv")).read_text().splitlines()
    records = ("epoch_seconds", "epoch_mine_seconds", "epoch_step_seconds",
               "epoch_validate_seconds")
    rows = {}
    for row in log:
        record, index, value = row.split(",")
        if record in records:
            rows[record, index] = float(value)
    assert set(rows) == {(record, "0") for record in records}  # --epochs 1
    stages = [rows[record, "0"] for record in records[1:]]
    assert min(stages) >= 0
    assert sum(stages) <= rows["epoch_seconds", "0"] + 2e-6  # each printed to 1e-6


def test_trainlog_records_triplets_and_active_triplets(tmp_path, pipeline):
    log = next((tmp_path / "pre").glob("*/trainlog.csv")).read_text().splitlines()
    rows = {row.rsplit(",", 1)[0]: int(row.rsplit(",", 1)[1]) for row in log
            if row.startswith(("epoch_triplets,", "epoch_active_triplets,"))}
    assert set(rows) == {"epoch_triplets,0", "epoch_active_triplets,0"}  # --epochs 1
    assert 0 <= rows["epoch_active_triplets,0"] <= rows["epoch_triplets,0"] > 0


def test_trainlog_records_stop_reason_and_gradient_norms(tmp_path, pipeline):
    log = next((tmp_path / "pre").glob("*/trainlog.csv")).read_text().splitlines()
    rows = [row.split(",") for row in log]
    assert ["stop_reason", "0", "epochs"] in rows  # --epochs 1
    norms = [value for record, index, value in rows if record == "epoch_grad_norm"]
    assert len(norms) == 1 and len(norms[0].split(".")[1]) == 8 and float(norms[0]) > 0


def test_manifest_records_python_and_numpy_outside_the_run_id(capsys, tmp_path):
    code, out, _ = run(
        capsys, "synth-gen", "--seed", "1", "--places", "2", "--image-size", "16",
        "--queries-per-place", "1", "--out", str(tmp_path),
    )
    assert code == 0
    run_dir = Path(out.strip().splitlines()[-1])
    assert run_dir.name == "6282da9dddf1"  # the run id before these keys
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert (manifest["python"], manifest["numpy"]) == (platform.python_version(), np.__version__)


def test_each_run_appends_its_wall_time_and_peak_memory_to_events(
    capsys, tmp_path, pipeline, monkeypatch
):
    """One events.jsonl line per run, outside the manifest.  The children's
    peak is the largest of every child process this one has reaped, here
    the worker each run's RSF epoch forks on two CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ds, model, _ = pipeline
    argv = ["rsf", "--model", model, "--dataset", ds, "--seed", "5", "--epochs", "1",
            "--out", str(tmp_path / "rsf")]
    manifests = []
    for runs in (1, 2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        run_dir = Path(out.strip().splitlines()[-1])
        manifests.append((run_dir / "manifest.json").read_bytes())
        events = [json.loads(line) for line in (run_dir / "events.jsonl").read_text().splitlines()]
        assert len(events) == runs
        event = events[-1]
        assert set(event) == {"command", "wall_s", "peak_rss_mb", "children_peak_rss_mb"}
        assert event["command"] == "rsf"
        assert min(event["wall_s"], event["peak_rss_mb"], event["children_peak_rss_mb"]) > 0
    assert "events.jsonl" not in json.loads(manifests[0])["outputs"]
    assert manifests[0] == manifests[1]


def test_an_error_in_a_realization_worker_exits_one_with_its_record(
    capsys, tmp_path, pipeline, monkeypatch
):
    """A reference whose copies cannot be extracted: the worker's
    ShapeError is the inline run's record, and no run directory is left."""
    ds, model, _ = pipeline
    load = vk.load_dataset

    def with_four_channels(path):
        dataset = load(path)
        ref = dataset.references[0]  # its copies are the worker's slice
        ref.raw
        ref.pixels = np.concatenate([ref.pixels, ref.pixels[..., :1]], axis=2)
        return dataset

    monkeypatch.setattr(vk.cli, "load_dataset", with_four_channels)
    records = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        code, _, err = run(
            capsys, "rsf", "--model", model, "--dataset", ds, "--seed", "5", "--epochs", "1",
            "--augment", "none", "--out", str(tmp_path / "rsf"),
        )
        assert code == 1
        records.append(json.loads(err.strip().splitlines()[-1]))
    assert records[0] == records[1]
    assert records[0]["error"] == "ShapeError"
    assert records[0]["message"].startswith("image 'r0#identity': expected non-empty (H, W, 3)")
    assert not (tmp_path / "rsf").exists()


@pytest.mark.parametrize("ns", ["1,,5", "a", "0,1", ""])
def test_bad_ns_is_a_usage_error(capsys, tmp_path, ns):
    with pytest.raises(SystemExit) as exc:
        main([
            "evaluate", "--results", "r.csv", "--map", "m.vprm", "--dataset", "d",
            "--ns", ns, "--out", str(tmp_path / "ev"),
        ])
    assert exc.value.code == 2
    assert "--ns" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_failed_save_leaves_no_temp_file(capsys, tmp_path, monkeypatch):
    ds = gen_world(capsys, tmp_path)
    model = tmp_path / "m.vprh"
    vk.save_model(vk.init_model(seed=1), model)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        main([
            "build-map", "--dataset", ds, "--model", str(model),
            "--out", str(tmp_path / "map"),
        ])
    (run_dir,) = (tmp_path / "map").iterdir()
    assert list(run_dir.iterdir()) == []


def test_missing_config_file_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "absent.cfg"
    with pytest.raises(SystemExit) as exc:
        main(["synth-gen", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("line", ["places = abc", "spacing = far", "no_poses = ture"])
def test_non_numeric_config_value_is_a_usage_error(capsys, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# comment\n{line}\n")
    # --no-poses is an rsf flag; the config is read before any input is checked.
    command = ["rsf", "--model", "m", "--dataset", "d"] if "no_poses" in line else ["synth-gen"]
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", "1", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"{cfg}:2:" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_a_usage_error_naming_the_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"places = 3\rseed = \xff\n")
    with pytest.raises(SystemExit) as exc:
        main(["synth-gen", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"{cfg}:2: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_a_config_value_may_hold_what_splitlines_breaks_at(capsys, tmp_path, small_map, brk):
    """Config lines end at "\\r", "\\n" or "\\r\\n" alone: `name = a\\x85b`
    was read as two lines, the second "b" no key=value (exit 1)."""
    ds, dmap, _, _ = small_map
    results = tmp_path / "results.csv"
    results.write_text("query_id,rank,ref_index,ref_id,distance\n")
    cfg = tmp_path / "name.cfg"
    cfg.write_text(f"# a comment{brk}still the comment\r\nname = a{brk}b\rns = 1\n", encoding="utf-8")
    code, _, err = run(
        capsys, "evaluate", "--results", str(results), "--map", str(dmap), "--dataset", str(ds),
        "--config", str(cfg), "--out", str(tmp_path / "ev"),
    )
    assert code == 0, err
    (report,) = (tmp_path / "ev").glob("*/report.csv")
    with report.open(newline="", encoding="utf-8") as fh:
        _, *rows = csv.reader(fh)
    assert [(row[1], row[2]) for row in rows] == [(f"a{brk}b", "1")]


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("true", True), ("Yes", True), ("0", False), ("FALSE", False), ("no", False)],
)
def test_config_booleans_in_any_case(tmp_path, value, expected):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"no_poses = {value}\n")
    args = build_parser().parse_args(
        ["rsf", "--model", "m", "--dataset", "d", "--seed", "1", "--config", str(cfg)]
    )
    _apply_config_file(args)
    assert args.no_poses is expected


@pytest.mark.parametrize(
    "line, needle",
    [("fn = x", "unknown config key 'fn'"), ("command = xeval", "unknown config key 'command'"),
     ("config = other.cfg", "unknown config key 'config'"),
     ("places 3", "bad.cfg:1: expected key=value, got 'places 3'")],
    ids=["fn = x", "command = xeval", "config = other.cfg", "places 3"],
)
def test_config_key_that_is_no_flag_exits_one(capsys, tmp_path, line, needle):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n")
    code, _, err = run(
        capsys, "synth-gen", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "o")
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError"
    assert needle in record["message"]
    assert not (tmp_path / "o").exists()


def test_project_over_maps_of_differing_dims_exits_one(capsys, tmp_path):
    paths = []
    for dim in (2, 3):
        paths.append(tmp_path / f"d{dim}.vprm")
        rows = np.eye(3, dim, dtype=np.float32)
        vk.save_map(vk.DescriptorMap(rows, np.zeros((3, 2)), ["a", "b", "c"], bytes(32)), paths[-1])
    code, _, err = run(
        capsys, "project", "--maps", ",".join(map(str, paths)), "--out", str(tmp_path / "o")
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ShapeError" and "[2, 3]" in record["message"]
    assert not (tmp_path / "o").exists()


def test_malformed_results_row_exits_one_naming_the_line(capsys, tmp_path, small_map):
    ds, dmap, _, _ = small_map
    results = tmp_path / "results.csv"
    results.write_text("query_id,rank,ref_index,ref_id,distance\nq0,0,1,r1,0.5\nq1,0,x,r1,0.5\n")
    code, _, err = run(
        capsys, "evaluate", "--results", str(results), "--map", str(dmap),
        "--dataset", str(ds), "--out", str(tmp_path / "ev"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError"
    assert f"{results}:3:" in record["message"]


@pytest.mark.parametrize(
    "rows, line, needle",
    [
        (f"q0_0,0,1,{'r' * 200_000},0.5\n", 2, "malformed results row: field larger than"),
        ('q0_0,0,1,r1,0.5\n"q\n1",0,1\n', 3, "malformed results row '\"q\\n1\",0,1'"),
        ('\n   \n"   "\n', 4, "malformed results row"),
        ('q0_0,0,0,"r\n0",0.5\n', 2, "ref_id 'r\\n0' is not 'r0', the map's id at 0"),
    ],
    ids=["oversized-field", "quoted-line-break", "quoted-blank", "map-check-of-a-quoted-id"],
)
def test_results_row_exits_one_naming_the_line_it_starts_on(small_map, rows, line, needle):
    """Only an empty or whitespace line is skipped as blank; a row that
    csv cannot read, one of the wrong width, or one the map refuses names
    the line it starts on, though a quoted id spans lines."""
    ds, dmap, _, _ = small_map
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp, "results.csv")
        results.write_text("query_id,rank,ref_index,ref_id,distance\n" + rows)
        code, err = run_main([
            "evaluate", "--results", str(results), "--map", str(dmap), "--dataset", str(ds),
            "--out", str(Path(tmp, "ev")),
        ])
        assert code == 1
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "VprError"
        assert record["message"].startswith(f"{results}:{line}: {needle}")


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda f: [f[0], f[1], "-7", "zzz", f[4]], "ref_index -7 is outside the map's 6"),
        (lambda f: [f[0], f[1], "6", f[3], f[4]], "ref_index 6 is outside"),
        (lambda f: [f[0], f[1], f[2], "zzz", f[4]], "ref_id 'zzz' is not"),
    ],
    ids=["negative-index", "index-past-the-end", "wrong-id"],
)
def test_results_row_naming_a_reference_the_map_lacks_exits_one(
    capsys, tmp_path, pipeline, edit, needle
):
    """With each query's first row rewritten, the first one is named."""
    ds, model, dmap = pipeline
    code, out, _ = run(
        capsys, "retrieve", "--map", dmap, "--model", model, "--dataset", ds,
        "--k", "3", "--out", str(tmp_path / "ret"),
    )
    assert code == 0
    results = Path(out.strip().splitlines()[-1]) / "results.csv"
    lines = results.read_text().splitlines()
    for i in range(1, len(lines), 3):  # rank 0 of each query
        lines[i] = ",".join(edit(lines[i].split(",")))
    results.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "evaluate", "--results", str(results), "--map", dmap, "--dataset", ds,
        "--out", str(tmp_path / "ev"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError"
    assert f"{results}:2: {needle}" in record["message"]
    assert not (tmp_path / "ev").exists()


def test_second_row_for_a_query_and_rank_exits_one_naming_it(capsys, tmp_path, small_map):
    ds, dmap, _, _ = small_map
    results = tmp_path / "results.csv"
    results.write_text(
        "query_id,rank,ref_index,ref_id,distance\n"
        "q0,0,1,r1,0.5\nq0,1,2,r2,0.6\nq1,0,1,r1,0.5\n\nq0,1,0,r0,0.7\n"
    )
    code, _, err = run(
        capsys, "evaluate", "--results", str(results), "--map", str(dmap),
        "--dataset", str(ds), "--out", str(tmp_path / "ev"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError"
    assert f"{results}:6: a second row for query 'q0' at rank 1" in record["message"]


@pytest.mark.parametrize(
    "keep, renumber, line, needle",
    [
        ({2}, {}, 2, "rank 2 where rank 0 is due"),
        ({0, 2}, {}, 3, "rank 2 where rank 1 is due"),
        ({0, 1}, {1: -1}, 3, "rank -1 where rank 0 is due"),
    ],
    ids=["correct-only-at-rank-2", "rank-1-missing", "negative-rank"],
)
def test_a_query_whose_ranks_are_not_0_to_k_exits_one(
    capsys, tmp_path, pipeline, keep, renumber, line, needle
):
    """A file that lists one query's rank-2 row alone scored R@1 on it as
    if it were rank 0; such a query is refused, naming the row."""
    ds, model, dmap = pipeline
    code, out, _ = run(
        capsys, "retrieve", "--map", dmap, "--model", model, "--dataset", ds,
        "--k", "3", "--out", str(tmp_path / "ret"),
    )
    assert code == 0
    results = Path(out.strip().splitlines()[-1]) / "results.csv"
    header, *rows = results.read_text().splitlines()
    first = [r.split(",") for r in rows[:3]]  # the first query, ranks 0 to 2
    kept = [
        [f[0], str(renumber.get(int(f[1]), f[1])), *f[2:]] for f in first if int(f[1]) in keep
    ]
    results.write_text("\n".join([header, *map(",".join, kept), *rows[3:]]) + "\n")
    code, _, err = run(
        capsys, "evaluate", "--results", str(results), "--map", dmap, "--dataset", ds,
        "--out", str(tmp_path / "ev"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError"
    assert record["message"].startswith(f"{results}:{line}: query {first[0][0]!r} has {needle}")
    assert not (tmp_path / "ev").exists()


def test_results_file_that_is_not_utf8_exits_one_naming_the_line(capsys, tmp_path, small_map):
    ds, dmap, _, _ = small_map
    results = tmp_path / "results.csv"
    results.write_bytes(b"query_id,rank,ref_index,ref_id,distance\nq0,0,1,r\xff,0.5\n")
    code, _, err = run(
        capsys, "evaluate", "--results", str(results), "--map", str(dmap),
        "--dataset", str(ds), "--out", str(tmp_path / "ev"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError"
    assert f"{results}:2:" in record["message"]


@pytest.mark.parametrize(
    "rows, line, needle",
    [
        ("q0_0,0,0,r0,0.5\nq0_0,1,1,zzz,0.6\nq1_0,0,1,r1,0.5\n\nq0_0,0,2,r2,0.7\n", 3,
         "ref_id 'zzz' is not 'r1', the map's id at 1"),
        ("q0_0,0,0,r0,0.5\nq0_0,0,1,r1,0.6\nq1_0,0,9,r1,0.5\n", 3,
         "a second row for query 'q0_0' at rank 0"),
        ("q0_0,1,0,r0,0.5\nq1_0,0,7,r1,0.5\nq1_0,x\n", 3,
         "ref_index 7 is outside the map's 3 references"),
        ("q0_0,1,0,r0,0.5\nq1_0,0,1,r1,0.5\n", 2, "query 'q0_0' has rank 1 where rank 0 is due"),
    ],
    ids=["map-before-a-later-duplicate", "duplicate-before-a-later-map-fault",
         "map-before-a-later-malformed-row", "ranks-after-the-last-row"],
)
def test_evaluate_names_the_first_faulty_row_in_file_order(small_map, rows, line, needle):
    """Each row is checked where it is read, so the first faulty row in the
    file is named whatever its fault; a query's ranks are checked after the
    last row."""
    ds, dmap, _, _ = small_map
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp, "results.csv")
        results.write_text("query_id,rank,ref_index,ref_id,distance\n" + rows)
        code, err = run_main([
            "evaluate", "--results", str(results), "--map", str(dmap), "--dataset", str(ds),
            "--out", str(Path(tmp, "ev")),
        ])
        assert code == 1
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "VprError"
        assert record["message"].startswith(f"{results}:{line}: {needle}")
        assert not Path(tmp, "ev").exists()


def test_evaluate_reports_a_bad_map_ahead_of_a_bad_results_file(capsys, tmp_path, small_map):
    ds, _, _, _ = small_map
    results = tmp_path / "results.csv"
    results.write_bytes(b"query_id,rank,ref_index,ref_id,distance\nq0,0,1,r\xff,0.5\n")
    (tmp_path / "m.vprm").write_bytes(b"")
    code, _, err = run(
        capsys, "evaluate", "--results", str(results), "--map", str(tmp_path / "m.vprm"),
        "--dataset", str(ds), "--out", str(tmp_path / "ev"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "FormatError" and "bad magic" in record["message"]


def test_ppm_with_an_overlong_header_number_exits_one(capsys, tmp_path):
    ds = tmp_path / "ds"
    (ds / "references").mkdir(parents=True)
    (ds / "reference_poses.csv").write_text("id,x_m,y_m\nr0,0,0\n")
    (ds / "references" / "r0.ppm").write_bytes(b"P6 " + b"9" * 5000 + b" 1 255\n")
    model = tmp_path / "m.vprh"
    vk.save_model(vk.init_model(seed=1), model)
    code, _, err = run(
        capsys, "build-map", "--dataset", str(ds), "--model", str(model),
        "--out", str(tmp_path / "map"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "DecodeError" and "r0.ppm" in record["message"]


@pytest.mark.parametrize("kind", ["directory", "dangling link"])
def test_an_image_that_cannot_be_read_exits_one(capsys, tmp_path, kind):
    """A directory or a dangling link named like an image escaped as
    IsADirectoryError or FileNotFoundError."""
    ds = tmp_path / "ds"
    (ds / "references").mkdir(parents=True)
    (ds / "reference_poses.csv").write_text("id,x_m,y_m\nr0,0,0\nr1,50,0\n")
    write_ppm(ds / "references" / "r0.ppm", np.zeros((8, 8, 3)))
    image = ds / "references" / "r1.ppm"
    if kind == "directory":
        image.mkdir()
    else:
        image.symlink_to(tmp_path / "gone.ppm")
    model = tmp_path / "m.vprh"
    vk.save_model(vk.init_model(seed=1), model)
    code, _, err = run(
        capsys, "build-map", "--dataset", str(ds), "--model", str(model),
        "--out", str(tmp_path / "map"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "DecodeError" and "r1.ppm: cannot read" in record["message"]


def test_pretrain_with_no_validation_queries_selects_by_training_loss(
    capsys, tmp_path, pipeline
):
    """--val-fraction 0 trains without validation: no validation recall
    is logged, where scoring zero queries would log 0.000 every epoch."""
    ds, _, _ = pipeline
    code, out, _ = run(
        capsys, "pretrain", "--dataset", ds, "--seed", "5", "--epochs", "2",
        "--val-fraction", "0", "--out", str(tmp_path / "pre0"),
    )
    assert code == 0
    rows = (Path(out.strip().splitlines()[-1]) / "trainlog.csv").read_text().splitlines()
    recalls = [r.split(",")[2] for r in rows if r.startswith("epoch_val_recall1,")]
    assert recalls == ["nan", "nan"]


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["--augment", ""], "unknown augmentation category ''"),
        (["--augment", "appearance,"], "unknown augmentation category ''"),
        (["--validation", "{refs}"], "no queries"),
    ],
    ids=["empty", "trailing-comma", "reference-only-validation"],
)
def test_rsf_input_that_would_pass_silently_exits_one(capsys, tmp_path, pipeline, argv, needle):
    ds, model, _ = pipeline
    refs = tmp_path / "refs"
    shutil.copytree(Path(ds) / "references", refs / "references")
    shutil.copy(Path(ds) / "reference_poses.csv", refs)
    argv = [a.format(refs=refs) for a in argv]
    code, _, err = run(
        capsys, "rsf", "--model", model, "--dataset", ds, "--seed", "1", "--epochs", "1",
        *argv, "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert needle in json.loads(err.strip().splitlines()[-1])["message"]


def test_pretrain_on_empty_references_exits_one(capsys, tmp_path):
    ds = tmp_path / "empty"
    (ds / "references").mkdir(parents=True)
    (ds / "reference_poses.csv").write_text("id,x_m,y_m\n")
    code, _, err = run(
        capsys, "pretrain", "--dataset", str(ds), "--seed", "1", "--epochs", "1",
        "--out", str(tmp_path / "pre"),
    )
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "EmptyReferences"


@pytest.mark.parametrize(
    "argv, refs, error, needle",
    [
        (["pretrain", "--val-fraction", "1"], None, "VprError", "labeled dataset with no queries"),
        (["rsf", "--no-poses"], 1, "VprError", "at least two references, got 1"),
        (["rsf"], 1, "VprError", "mines no triplet: 2 queries skipped"),
        (["rsf"], 0, "EmptyReferences", "zero references"),
    ],
    ids=["all-queries-validate", "poseless-one-reference", "pose-one-reference", "no-reference"],
)
def test_training_that_can_form_no_triplet_exits_one(
    capsys, tmp_path, pipeline, argv, refs, error, needle
):
    ds, model, _ = pipeline
    if refs is not None:
        full = vk.load_dataset(ds)
        ds = tmp_path / "few"
        vk.save_dataset(vk.Dataset(references=full.references[:refs]), ds)
    if argv[0] == "rsf":
        argv = [*argv, "--model", model]
    code, _, err = run(
        capsys, *argv, "--dataset", str(ds), "--seed", "1", "--epochs", "2",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == error and needle in record["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "batch_size, needle",
    [("16", "non-finite loss at epoch 0, step 0"),
     ("1", "non-finite mean loss at epoch 0, step 5")],
    ids=["step-sum", "epoch-mean"],
)
def test_a_loss_sum_that_overflows_exits_one(capsys, tmp_path, pipeline, batch_size, needle):
    """--margin 1e308 keeps each triplet's loss finite but not their sum:
    the run exits 1 with a NumericalDivergence, writes no run and prints no
    NumPy warning."""
    ds, model, _ = pipeline
    code, _, err = run(
        capsys, "rsf", "--model", model, "--dataset", ds, "--seed", "1", "--epochs", "1",
        "-M", "1", "--margin", "1e308", "--batch-size", batch_size, "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert json.loads(err) == {"error": "NumericalDivergence", "message": needle}
    assert not (tmp_path / "o").exists()


def test_perspective_jitter_on_one_pixel_high_images_exits_one(capsys, tmp_path, pipeline):
    _, model, _ = pipeline
    pixels = np.random.default_rng(0).random((1, 8, 3))
    refs = [vk.ImageRecord(f"r{i}", pixels, vk.Pose(100.0 * i, 0.0)) for i in range(4)]
    vk.save_dataset(vk.Dataset(references=refs), tmp_path / "thin")
    code, _, err = run(
        capsys, "rsf", "--model", model, "--dataset", str(tmp_path / "thin"), "--seed", "1",
        "--augment", "viewpoint", "--epochs", "1", "--out", str(tmp_path / "o"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ShapeError" and "got 1x8" in record["message"]


def test_xeval_error_row_names_its_dataset(capsys, tmp_path, pipeline):
    ds, model, _ = pipeline
    empty = tmp_path / "empty"
    (empty / "references").mkdir(parents=True)
    (empty / "reference_poses.csv").write_text("id,x_m,y_m\n")
    code, out, _ = run(
        capsys, "xeval", "--models", model, "--datasets", f"{ds},{empty}",
        "--out", str(tmp_path / "x"),
    )
    assert code == 0
    with (Path(out.strip().splitlines()[-1]) / "xeval.csv").open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) == 6 for row in rows)
    fingerprint = vk.load_model(model).fingerprint_hex()
    assert rows[-1] == [fingerprint, "empty", "", "error:EmptyReferences", "", ""]


def test_retrieve_with_another_models_map_exits_one(capsys, tmp_path, pipeline):
    ds, _, dmap = pipeline
    other = tmp_path / "other.vprh"
    vk.save_model(vk.init_model(seed=123), other)
    code, _, err = run(
        capsys, "retrieve", "--map", dmap, "--model", str(other), "--dataset", ds,
        "--out", str(tmp_path / "ret"),
    )
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ModelMismatch"


def test_pose_csv_that_is_not_utf8_exits_one_naming_the_line(capsys, tmp_path):
    ds = tmp_path / "ds"
    (ds / "references").mkdir(parents=True)
    (ds / "reference_poses.csv").write_bytes(b"id,x_m,y_m\nr0,1\xff,2\n")
    model = tmp_path / "m.vprh"
    vk.save_model(vk.init_model(seed=1), model)
    code, _, err = run(
        capsys, "build-map", "--dataset", str(ds), "--model", str(model),
        "--out", str(tmp_path / "map"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "InconsistentManifest"
    assert "reference_poses.csv:2:" in record["message"]


def test_missing_results_file_is_a_usage_error(capsys, tmp_path):
    results = tmp_path / "missing.csv"
    with pytest.raises(SystemExit) as exc:
        main([
            "evaluate", "--results", str(results), "--map", str(tmp_path / "m.vprm"),
            "--dataset", str(tmp_path), "--out", str(tmp_path / "ev"),
        ])
    assert exc.value.code == 2
    assert str(results) in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["build-map", "--dataset", "{dir}", "--model", "{missing}"],
        ["retrieve", "--map", "{missing}", "--model", "{file}", "--dataset", "{dir}"],
        ["rsf", "--model", "{missing}", "--dataset", "{dir}", "--seed", "1"],
        ["xeval", "--models", "{file},{missing}", "--datasets", "{dir}"],
        ["project", "--maps", "{file},{missing}"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_input_is_a_usage_error_naming_flag_and_path(capsys, tmp_path, argv):
    present, missing = tmp_path / "present.bin", tmp_path / "missing.bin"
    present.write_bytes(b"")
    flag = argv[next(i for i, a in enumerate(argv) if "{missing}" in a) - 1]
    argv = [a.format(dir=tmp_path, file=present, missing=missing) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"{flag} {missing}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build-map", "--dataset", "{dir}", "--model", "{dir}"],
         "--model {dir}: expected a file"),
        (["retrieve", "--map", "{dir}", "--model", "{file}", "--dataset", "{dir}"],
         "--map {dir}: expected a file"),
        (["evaluate", "--results", "{dir}", "--map", "{file}", "--dataset", "{dir}"],
         "--results {dir}: expected a file"),
        (["xeval", "--models", "{file},{dir}", "--datasets", "{dir}"],
         "--models {dir}: expected a file"),
        (["project", "--maps", "{file},{dir}"], "--maps {dir}: expected a file"),
        (["build-map", "--dataset", "{file}", "--model", "{file}"],
         "--dataset {file}: expected a directory"),
        (["rsf", "--model", "{file}", "--dataset", "{dir}", "--validation", "{file}",
          "--seed", "1"],
         "--validation {file}: expected a directory"),
        (["xeval", "--models", "{file}", "--datasets", "{dir},{file}"],
         "--datasets {file}: expected a directory"),
        # An empty entry is not ".", the current directory.
        (["xeval", "--models", "{file},,{file}", "--datasets", "{dir}"],
         "--models : no such file or directory"),
        (["xeval", "--models", "{file}", "--datasets", "{dir},"],
         "--datasets : no such file or directory"),
    ],
)
def test_input_of_the_wrong_kind_is_a_usage_error(capsys, tmp_path, argv, message):
    present = tmp_path / "present.bin"
    present.write_bytes(b"")
    argv = [a.format(dir=tmp_path, file=present) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message.format(dir=tmp_path, file=present) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--batch-size", "0", "batch_size"),
        ("--batch-size", "-1", "batch_size"),
        ("--negatives-per-query", "-1", "negatives_per_query"),
        ("--margin", "nan", "margin"),
        ("--lr", "inf", "learning_rate"),
        ("--positive-radius", "nan", "positive_radius"),
        ("--positive-radius", "-5", "positive_radius"),
        ("--radius", "-1", "validation_radius"),
        ("--seed", "-1", "seed"),
        ("--epochs", "-1", "epochs"),
        ("--patience", "0", "early_stop_patience"),
        ("--patience", "-1", "early_stop_patience"),
    ],
)
def test_bad_train_config_exits_one_naming_the_field(capsys, tmp_path, flag, value, field):
    code, _, err = run(
        capsys, "pretrain", "--dataset", str(tmp_path), "--seed", "1", flag, value,
        "--out", str(tmp_path / "pre"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError" and field in record["message"]


def test_poseless_rsf_with_more_negatives_exits_one(capsys, tmp_path):
    """Poseless mining draws one negative per query, so --negatives-per-query
    2 mined the same triplets as 1."""
    model = tmp_path / "m.vprh"
    model.write_bytes(b"never read")
    code, _, err = run(
        capsys, "rsf", "--model", str(model), "--dataset", str(tmp_path), "--seed", "1",
        "--no-poses", "--negatives-per-query", "2", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError"
    assert "negatives_per_query" in record["message"] and "poseless" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag",
    [("pretrain", "--multiplicity"), ("pretrain", "-M"), ("rsf", "--positive-radius"),
     ("ablate-aug", "--positive-radius"), ("ablate-poses", "--positive-radius"),
     ("ablate-poses", "--negatives-per-query")],
)
def test_a_training_flag_the_run_does_not_read_is_not_taken(
    capsys, tmp_path, monkeypatch, command, flag
):
    """pretrain makes no augmented copy, an RSF copy's positive is its
    source, and ablate-poses's poseless arm draws one negative per query:
    such a flag is a usage error (exit 2) and such a config key unknown
    (exit 1), before any input is read."""
    monkeypatch.setattr(vk.cli, "load_dataset", lambda path: pytest.fail("an input was read"))
    model = tmp_path / "m.vprh"
    model.write_bytes(b"never read")
    argv = [command, "--dataset", str(tmp_path), "--seed", "1", "--out", str(tmp_path / "out")]
    argv += [] if command == "pretrain" else ["--model", str(model)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1"])
    assert exc.value.code == 2 and f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    if flag.startswith("--"):
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, _, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert f"unknown config key {key!r}" in json.loads(err.strip().splitlines()[-1])["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_rsf_multiplicity_below_one_exits_one(capsys, tmp_path, value):
    model = tmp_path / "m.vprh"
    model.write_bytes(b"never read")
    code, _, err = run(
        capsys, "rsf", "--model", str(model), "--dataset", str(tmp_path), "--seed", "1",
        "--multiplicity", value, "--out", str(tmp_path / "out"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "InvalidMultiplicity"
    assert f"aug_multiplicity must be at least 1, got {value}" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, error, needle",
    [
        (["--ref-style", "palette=0,hue=abc"], "VprError", "'hue'"),
        (["--query-style", "palette=x"], "VprError", "'palette'"),
        (["--ref-style", "hue=nan"], "InvalidSpec", "hue_shift"),
        (["--spacing", "nan"], "InvalidSpec", "spacing"),
        (["--seed", "-1"], "InvalidSpec", "seed"),
        (["--jitter", "1000"], "InvalidSpec", "jitter_px"),
        (["--jitter", "-1"], "InvalidSpec", "jitter_px"),
        (["--places", "3", "--spacing", "1e308"], "InvalidSpec", "spacing 1e+308"),
        (["--ref-style", "palette"], "VprError", "'palette' is not key=value"),
        (["--ref-style", "shade=1"], "VprError", "unknown style key 'shade'"),
    ],
)
def test_bad_synth_gen_input_exits_one(capsys, tmp_path, argv, error, needle):
    code, _, err = run(capsys, "synth-gen", "--seed", "1", *argv, "--out", str(tmp_path))
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == error and needle in record["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--results", "{results}", "--map", "{map}", "--dataset", "{ds}"],
        ["xeval", "--models", "{model}", "--datasets", "{ds}"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_finite_radius_exits_one(capsys, tmp_path, pipeline, argv):
    ds, model, dmap = pipeline
    results = tmp_path / "results.csv"
    results.write_text("query_id,rank,ref_index,ref_id,distance\n")
    argv = [a.format(results=results, map=dmap, ds=ds, model=model) for a in argv]
    code, _, err = run(capsys, *argv, "--radius", "nan", "--out", str(tmp_path / "o"))
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError" and "radius" in record["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pretrain", "--dataset", "{ds}", "--seed", "5", "--val-fraction", "2"],
        ["rsf", "--model", "{model}", "--dataset", "{ds}", "--seed", "5", "-M", "0"],
        ["retrieve", "--map", "{map}", "--model", "{model}", "--dataset", "{ds}", "--k", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_failed_run_leaves_no_run_directory(capsys, tmp_path, pipeline, argv):
    ds, model, dmap = pipeline
    argv = [a.format(ds=ds, model=model, map=dmap) for a in argv]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["xeval", "--models", "{a}/model.vprh,{b}/model.vprh", "--datasets", "{a}"],
         "model:model"),
        (["project", "--maps", "{a}/map.vprm,{b}/map.vprm"], "map:map"),
        (["xeval", "--models", "{a}/model.vprh", "--datasets", "{a}/ds,{b}/ds"],
         "dataset:ds"),
    ],
    ids=["models", "maps", "datasets"],
)
def test_list_entries_with_one_manifest_key_are_a_usage_error(capsys, tmp_path, argv, key):
    for run_dir in ("a", "b"):
        (tmp_path / run_dir / "ds").mkdir(parents=True)
        (tmp_path / run_dir / "model.vprh").write_bytes(b"")
        (tmp_path / run_dir / "map.vprm").write_bytes(b"")
    argv = [arg.format(a=tmp_path / "a", b=tmp_path / "b") for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "a") in err and str(tmp_path / "b") in err and repr(key) in err
    assert not (tmp_path / "out").exists()


def test_every_subcommand_exits_zero_and_records_its_run(capsys, tmp_path):
    """The manifest of each run names its command, its seed and exactly
    the inputs it was given, and every output it lists exists."""

    def check(argv, seed, inputs):
        argv = [str(a) for a in argv]
        code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "runs"))
        assert code == 0
        run_dir = Path(out.strip().splitlines()[-1])
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert (manifest["command"], manifest["seed"]) == (argv[0], seed)
        assert set(manifest["inputs"]) == inputs
        assert manifest["outputs"]
        assert all((run_dir / name).exists() for name in manifest["outputs"])
        return run_dir

    ds = check(
        ["synth-gen", "--seed", 11, "--places", 6, "--queries-per-place", 1,
         "--query-style", "palette=0,family=blocks,brightness=-0.1,noise=0.02"],
        11, set(),
    ) / "dataset"
    train = ["--epochs", 1]
    model = check(
        ["pretrain", "--dataset", ds, "--seed", 5, *train], 5, {"dataset"}
    ) / "model.vprh"
    dmap = check(
        ["build-map", "--dataset", ds, "--model", model], None, {"dataset", "model"}
    ) / "map.vprm"
    results = check(
        ["retrieve", "--map", dmap, "--model", model, "--dataset", ds],
        None, {"map", "model", "dataset"},
    ) / "results.csv"
    check(
        ["evaluate", "--results", results, "--map", dmap, "--dataset", ds],
        None, {"results", "map", "dataset"},
    )
    finetune = ["--model", model, "--dataset", ds, "--seed", 9, *train]
    finetuned = check(["rsf", *finetune], 9, {"model", "dataset"}) / "model.vprh"
    check(["rsf", *finetune, "--validation", ds], 9, {"model", "dataset", "validation"})
    check(["ablate-aug", *finetune], 9, {"model", "dataset"})
    check(
        ["ablate-poses", *finetune, "--validation", ds],
        9, {"model", "dataset", "validation"},
    )
    # The list flags key each entry by file stem or directory name.
    shutil.copy(model, tmp_path / "m.vprh")
    shutil.copy(finetuned, tmp_path / "rsf.vprh")
    shutil.copytree(ds, tmp_path / "ds.v1")
    shutil.copy(dmap, tmp_path / "other.vprm")
    check(
        ["xeval", "--models", f"{tmp_path / 'm.vprh'},{tmp_path / 'rsf.vprh'}",
         "--datasets", f"{tmp_path / 'ds.v1'},{ds}"],
        None, {"model:m", "model:rsf", "dataset:ds.v1", "dataset:dataset"},
    )
    check(
        ["project", "--maps", f"{dmap},{tmp_path / 'other.vprm'}"],
        None, {"map:map", "map:other"},
    )


def run_main(argv: list[str]) -> tuple[int, str]:
    """main's exit code, a usage error's included, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_exit_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 1:
        record = json.loads(err.strip().splitlines()[-1])
        assert set(record) == {"error", "message"}


# What every synth-gen number flag is drawn from besides its valid and
# boundary values: zero, negatives, nan and infinities, text and empty.
_BAD_NUMBERS = ["0", "-1", "-7", "nan", "inf", "-inf", "abc", "1.5", "1e3", ""]


def _number(valid, boundary):
    """A number flag's (valid values, any other values)."""
    return valid.map(str), st.sampled_from(boundary + _BAD_NUMBERS)


_STYLES = (
    st.sampled_from([
        "palette=0,family=blocks", "palette=3,family=stripes,hue=35,brightness=-0.2",
        "family=gradients,contrast=1.4,noise=0.05", "palette=-9", "",
    ]),
    st.sampled_from([
        "x", "palette", "hue=abc", "family=dots", "noise=-1", "contrast=0", "hue=nan",
        "brightness=inf", "palette=1e9",
    ]),
)

# Each flag's (valid values, other values) and where it may be given: on
# the command line, in the --config file, or not at all.  Nothing bounds --places or
# --image-size from above, so they stay at most 8 and 32 and are always
# given; --seed is required on the command line.
_SYNTH_FLAGS = {
    "--places": (_number(st.integers(2, 8), ["1", "2", "8"]), ["argv", "config"]),
    "--image-size": (_number(st.integers(16, 32), ["15", "16", "32"]), ["argv", "config"]),
    "--queries-per-place": (_number(st.integers(1, 2), ["1", "3"]), ["argv", "config", None]),
    "--spacing": (
        _number(st.floats(0.5, 100.0), ["1e-300", "5e-324", "1e308"]),
        ["argv", "config", None],
    ),
    "--jitter": (_number(st.integers(0, 4), ["15", "16", "31", "32"]), ["argv", "config", None]),
    "--seed": (_number(st.integers(0, 2**32 - 1), ["4294967296", str(2**70)]), ["argv"]),
    "--ref-style": (_STYLES, ["argv", "config", None]),
    "--query-style": (_STYLES, ["argv", "config", None]),
}


@st.composite
def synth_gen_flags(draw):
    """Each flag's value and place; half the draws use valid values only,
    as a bad value in any of eight flags would make most runs fail."""
    clean = draw(st.booleans())
    return {
        flag: (draw(valid if clean else valid | other), draw(st.sampled_from(places)))
        for flag, ((valid, other), places) in _SYNTH_FLAGS.items()
    }


@settings(max_examples=60, deadline=None)
@given(flags=synth_gen_flags())
def test_synth_gen_argv_property(flags):
    """Whatever the flags, main exits 0, 1 or 2 and nothing escapes it;
    exit 1 prints a JSON error record, and exit 0 leaves a dataset that
    loads back with --places references."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["synth-gen", "--out", tmp]
        config = []
        for flag, (value, place) in flags.items():
            if place == "argv":
                argv += [flag, value]
            elif place == "config":
                config.append(f"{flag[2:]} = {value}")
        if config:
            Path(tmp, "exp.cfg").write_text("\n".join(config) + "\n")
            argv += ["--config", str(Path(tmp, "exp.cfg"))]
        code, err = run_main(argv)
        assert_exit_contract(code, err)
        if code == 0:
            (run_dir,) = [p for p in Path(tmp).iterdir() if p.is_dir()]
            loaded = vk.load_dataset(run_dir / "dataset")
            assert len(loaded.references) == int(flags["--places"][0])


@pytest.fixture(scope="module")
def small_map(tmp_path_factory):
    """A saved 3-place world and its map: (dataset directory, map file,
    the map's ids, the query ids)."""
    root = tmp_path_factory.mktemp("small")
    world = vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=3, spacing=30.0, reference_style=vk.StyleParams(),
            query_style=vk.StyleParams(), queries_per_place=1, image_size=16, seed=3,
        )
    )
    vk.save_dataset(world, root / "ds")
    dmap = vk.build_map(world, vk.init_model(hidden_dims=[8], output_dim=4, seed=1))
    vk.save_map(dmap, root / "map.vprm")
    return root / "ds", root / "map.vprm", dmap.ids, [q.id for q in world.queries]


_GARBAGE_ROWS = [
    "x", "q0_0,0,1", "q0_0,zero,1,r1,0.5", "q0_0,0,1,r1,0.5,9", "q0_0,0,1.5,r1,0.5",
    "q0_0,0,1,r1,far", ",,,,",
]


@st.composite
def results_rows(draw, ids, query_ids):
    """(row text, fault): fault is None, "malformed", "map" (the map holds
    no such reference at that index) or "query" (the dataset has no such
    query)."""
    kind = draw(st.sampled_from(
        ["good", "good", "good", "index", "id", "query", "garbage", "blank"]
    ))
    if kind == "garbage":
        return draw(st.sampled_from(_GARBAGE_ROWS)), "malformed"
    if kind == "blank":
        return draw(st.sampled_from(["", "   "])), None
    qid = "nope" if kind == "query" else draw(st.sampled_from(query_ids))
    rank = draw(st.integers(-2, 4))
    idx = draw(st.integers(0, len(ids) - 1))
    rid = ids[idx]
    if kind == "index":
        idx = draw(st.integers(-10, -1) | st.integers(len(ids), len(ids) + 5))
        rid = draw(st.sampled_from([*ids, "zzz"]))
    elif kind == "id":
        rid = draw(st.sampled_from(["zzz", "", ids[(idx + 1) % len(ids)]]))
    dist = draw(st.floats(allow_nan=True, allow_infinity=True))
    fault = {"index": "map", "id": "map", "query": "query"}.get(kind)
    return f"{qid},{rank},{idx},{rid},{dist!r}", fault


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_results_property(small_map, data):
    """evaluate exits 0 exactly when every row parses, no (query, rank)
    pair repeats, each row names the map's reference at its index, each
    query is the dataset's and its ranks are 0, 1, ...; otherwise 1, with
    a JSON error record."""
    ds, dmap, ids, query_ids = small_map
    rows = data.draw(st.lists(results_rows(ids, query_ids), max_size=8))
    pairs = [text.split(",")[:2] for text, fault in rows
             if text.strip() and fault != "malformed"]
    repeated = len({tuple(pair) for pair in pairs}) < len(pairs)
    ranks: dict[str, list[int]] = {}
    for qid, rank in pairs:
        ranks.setdefault(qid, []).append(int(rank))
    gapped = any(sorted(r) != list(range(len(r))) for r in ranks.values())
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp, "results.csv")
        lines = ["query_id,rank,ref_index,ref_id,distance", *(text for text, _ in rows)]
        results.write_text("\n".join(lines) + "\n")
        code, err = run_main([
            "evaluate", "--results", str(results), "--map", str(dmap), "--dataset", str(ds),
            "--out", str(Path(tmp, "ev")),
        ])
        assert_exit_contract(code, err)
        assert code == (1 if repeated or gapped or any(fault for _, fault in rows) else 0)
        if code == 0:
            assert len(list(Path(tmp, "ev").glob("*/report.csv"))) == 1


@pytest.fixture(scope="module")
def small_results(small_map, tmp_path_factory):
    """The results.csv that retrieve writes at --k 3 on the small_map world,
    and evaluate's report of it: (evaluate's input flags, the file's lines,
    the bytes of report.csv and report.txt)."""
    ds, dmap, _, _ = small_map
    root = tmp_path_factory.mktemp("results")
    vk.save_model(vk.init_model(hidden_dims=[8], output_dim=4, seed=1), root / "model.vprh")
    inputs = ["--map", str(dmap), "--dataset", str(ds)]
    code, err = run_main([
        "retrieve", *inputs, "--model", str(root / "model.vprh"), "--k", "3", "--out", str(root),
    ])
    assert code == 0, err
    (results,) = root.glob("*/results.csv")
    code, err = run_main(["evaluate", "--results", str(results), *inputs, "--out", str(root)])
    assert code == 0, err
    reports = tuple(next(root.glob(f"*/{name}")).read_bytes() for name in _REPORT)
    return inputs, results.read_text().splitlines(), reports


_REPORT = ("report.csv", "report.txt")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_order_of_retrieves_rows_scores_the_same(small_results, data):
    """Any shuffle of the rows retrieve writes, with blank lines mixed in,
    gives the report of the file as written; with one row written twice,
    evaluate exits 1 naming the later line."""
    inputs, (header, *rows), reports = small_results
    lines = data.draw(st.permutations(rows))
    for blank in data.draw(st.lists(st.sampled_from(["", "  "]), max_size=3)):
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
    twice = data.draw(st.none() | st.sampled_from(rows))
    if twice is not None:
        lines.insert(data.draw(st.integers(0, len(lines))), twice)
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp, "results.csv")
        results.write_text("\n".join([header, *lines]) + "\n")
        out = Path(tmp, "ev")
        code, err = run_main(["evaluate", "--results", str(results), *inputs, "--out", str(out)])
        if twice is None:
            assert code == 0, err
            (run_dir,) = out.iterdir()
            assert tuple((run_dir / name).read_bytes() for name in _REPORT) == reports
        else:
            later = 2 + max(i for i, line in enumerate(lines) if line == twice)  # line 1: header
            assert code == 1
            message = json.loads(err.strip().splitlines()[-1])["message"]
            assert message.startswith(f"{results}:{later}: a second row for query ")
            assert not out.exists()


@pytest.fixture(scope="module")
def retrieve_inputs(tmp_path_factory):
    """A saved 3-place world, its reference side alone, a model and the
    model's map: (directory, map size, query count)."""
    root = tmp_path_factory.mktemp("retrieve")
    world = vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=3, spacing=30.0, reference_style=vk.StyleParams(),
            query_style=vk.StyleParams(), queries_per_place=1, image_size=16, seed=3,
        )
    )
    vk.save_dataset(world, root / "ds")
    vk.save_dataset(world.reference_only(), root / "refs")
    model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
    vk.save_model(model, root / "model.vprh")
    vk.save_map(vk.build_map(world, model), root / "map.vprm")
    return root, len(world.references), len(world.queries)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from(["1", "3", "4", "0", "-2", "abc", "", "2.5"]), queries=st.booleans())
def test_retrieve_k_property(retrieve_inputs, k, queries):
    """Whatever --k, retrieve exits 0, 1 or 2 and nothing escapes it: 2 for
    text that is no integer, 1 with a JSON error record for k below 1 with
    queries to search, else 0 with min(k, N) rows per query, and evaluate
    scores every results.csv written."""
    root, n, n_queries = retrieve_inputs
    ds = str(root / ("ds" if queries else "refs"))
    inputs = ["--map", str(root / "map.vprm"), "--dataset", ds]
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_main(
            ["retrieve", *inputs, "--model", str(root / "model.vprh"), "--k", k, "--out", tmp]
        )
        assert_exit_contract(code, err)
        number = k.lstrip("-").isdigit()
        assert code == (2 if not number else 1 if queries and int(k) < 1 else 0)
        if code == 0:
            (results,) = Path(tmp).glob("*/results.csv")
            rows = results.read_text().splitlines()[1:]
            assert len(rows) == (n_queries * min(int(k), n) if queries else 0)
            code, err = run_main(["evaluate", "--results", str(results), *inputs, "--out", tmp])
            assert code == 0, err


# Characters that a CSV writer must quote, or that str.splitlines() takes
# for a line break, drawn often beside any other text.
_AWKWARD = ",\"\r\n\x85\u2028\x0b\x0c\x1c\x1e é地"


def _text(exclude: str = "", min_size: int = 0) -> st.SearchStrategy[str]:
    """Short text of awkward and arbitrary characters, none of ``exclude``
    and no lone surrogate, which UTF-8 cannot hold."""
    chars = st.sampled_from([c for c in _AWKWARD if c not in exclude]) | st.characters(
        exclude_categories=("Cs",), exclude_characters=exclude
    )
    return st.text(chars, min_size=min_size, max_size=8)


# Any text save_map takes as an id, and any text save_dataset takes as one:
# it refuses only an id holding a line break, a NUL or a path separator, or
# empty.
_MAP_IDS = st.lists(_text(), min_size=3, max_size=3)
_QUERY_IDS = st.lists(_text("\r\n\0/", min_size=1), min_size=3, max_size=3, unique=True)


@pytest.fixture(scope="module")
def id_world(tmp_path_factory):
    """A 3-place world, a saved model and the map of the world's saved
    references: (world, model, model file, map)."""
    root = tmp_path_factory.mktemp("ids")
    world = vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=3, spacing=30.0, reference_style=vk.StyleParams(),
            query_style=vk.StyleParams(), queries_per_place=1, image_size=16, seed=3,
        )
    )
    model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
    vk.save_model(model, root / "model.vprh")
    vk.save_dataset(world.reference_only(), root / "refs")
    return world, model, root / "model.vprh", vk.build_map(vk.load_dataset(root / "refs"), model)


def save_with_ids(id_world, root: Path, map_ids, query_ids, map_name="map.vprm", ds_name="ds"):
    """The world saved with these query ids under root/data, and its map
    with these ids under root/maps: (dataset directory, map file).  Ids
    that save_dataset refuses are rejected."""
    world, _, _, dmap = id_world
    queries = [dataclasses.replace(q, id=qid) for q, qid in zip(world.queries, query_ids)]
    try:
        vk.save_dataset(vk.Dataset(world.references, queries), root / "data" / ds_name)
    except InconsistentManifest:
        reject()
    (root / "maps").mkdir()
    vk.save_map(dataclasses.replace(dmap, ids=map_ids), root / "maps" / map_name)
    return root / "data" / ds_name, root / "maps" / map_name


@settings(max_examples=40, deadline=None)
@given(map_ids=_MAP_IDS, query_ids=_QUERY_IDS)
@example(map_ids=["a,b", 'c"d', "e"], query_ids=["q0", "q1", "q2"])
@example(map_ids=["r0", "r1", "r2"], query_ids=["q\u2028x", "q\x85y", 'q "z" '])
def test_any_id_round_trips_from_retrieve_to_evaluate(id_world, map_ids, query_ids):
    """Whatever ids the map and the dataset hold, evaluate reads the
    results.csv that retrieve writes and scores the Recall@N that
    evaluate_model gives."""
    _, model, model_path, _ = id_world
    with tempfile.TemporaryDirectory() as tmp:
        ds, dmap = save_with_ids(id_world, Path(tmp, "in"), map_ids, query_ids)
        inputs = ["--map", str(dmap), "--dataset", str(ds)]
        out = str(Path(tmp, "runs"))
        code, err = run_main(["retrieve", *inputs, "--model", str(model_path), "--out", out])
        assert code == 0, err
        (results,) = Path(out).glob("*/results.csv")
        code, err = run_main(
            ["evaluate", "--results", str(results), *inputs, "--ns", "1,2", "--out", out]
        )
        assert code == 0, err
        (report,) = Path(out).glob("*/report.csv")
        want = vk.evaluate_model(model, vk.load_dataset(ds), 25.0, (1, 2), name="dataset")
        assert report.read_text().splitlines()[1:] == want.rows()


@settings(max_examples=20, deadline=None)
@given(
    map_ids=_MAP_IDS,
    query_ids=_QUERY_IDS,
    # A --maps or --datasets entry holds no comma; "." and ".." name no new directory.
    map_stem=_text(",/\0", min_size=1),
    ds_name=_text(",/\0", min_size=1).filter(lambda s: s not in (".", "..")),
    name=_text(),
)
@example(map_ids=["a,b", "c", "d"], query_ids=["q0", "q1", "q2"], map_stem='"m', ds_name="ds",
         name="dataset")
def test_every_table_a_command_writes_reads_back_as_wide_as_its_header(
    id_world, map_ids, query_ids, map_stem, ds_name, name
):
    """results.csv, trainlog.csv, report.csv, xeval.csv and projection.csv
    read back with csv.reader into rows as wide as their header, whatever
    the ids, file names and labels in their fields."""
    _, _, model_path, _ = id_world
    with tempfile.TemporaryDirectory() as tmp:
        ds, dmap = save_with_ids(
            id_world, Path(tmp, "in"), map_ids, query_ids, f"{map_stem}.vprm", ds_name
        )
        out = str(Path(tmp, "runs"))
        inputs = ["--map", str(dmap), "--dataset", str(ds)]
        argvs = [
            ["retrieve", *inputs, "--model", str(model_path)],
            ["pretrain", "--dataset", str(ds), "--seed", "5", "--epochs", "1"],
            ["xeval", "--models", str(model_path), "--datasets", str(ds)],
            ["project", "--maps", str(dmap)],
        ]
        for argv in argvs:
            code, err = run_main([*argv, "--out", out])
            assert code == 0, err
        (results,) = Path(out).glob("*/results.csv")
        code, err = run_main(["evaluate", "--results", str(results), *inputs, f"--name={name}",
                              "--out", out])
        assert code == 0, err
        tables = {}
        for table in ("results", "trainlog", "report", "xeval", "projection"):
            (path,) = Path(out).glob(f"*/{table}.csv")
            with path.open(newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), table
            tables[table] = rows
        assert all(rid == map_ids[int(idx)] for _, _, idx, rid, _ in tables["results"])
        assert {row[1] for row in tables["report"]} == {name}
        assert {row[1] for row in tables["xeval"]} == {ds_name}
        assert {row[0] for row in tables["projection"]} == {Path(dmap).stem}


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """Inputs of every kind for the training commands and xeval: {flag:
    {label: path}}.  "valid" is a labeled 3-place world; "refs" holds no
    query, "empty" no reference; "truncated-ref" and "truncated-query" each
    hold one PPM cut short on that side.  Paths alone, so that hypothesis
    prints a failing example's inputs in a few lines."""
    root = tmp_path_factory.mktemp("commands")
    world = vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=3, spacing=30.0, reference_style=vk.StyleParams(),
            query_style=vk.StyleParams(), queries_per_place=1, image_size=16, seed=3,
        )
    )
    vk.save_dataset(world, root / "ds")
    vk.save_dataset(world.reference_only(), root / "refs")
    (root / "empty" / "references").mkdir(parents=True)
    (root / "empty" / "reference_poses.csv").write_text("id,x_m,y_m\n")
    shutil.copytree(root / "ds", root / "garbage")
    (root / "garbage" / "query_poses.csv").write_bytes(b'id,x_m,y_m\n"q,0\n\xff\n')
    for side in ("references", "queries"):
        shutil.copytree(root / "ds", root / f"truncated-{side}")
        ppm = next((root / f"truncated-{side}" / side).glob("*.ppm"))
        ppm.write_bytes(ppm.read_bytes()[:40])
    vk.save_model(vk.init_model(hidden_dims=[8], output_dim=4, seed=1), root / "model.vprh")
    (root / "junk.vprh").write_bytes(b"\x00garbage\xff,\n" * 9)
    datasets = {"valid": root / "ds", "refs": root / "refs", "empty": root / "empty",
                "garbage": root / "garbage", "missing": root / "missing",
                "file": root / "model.vprh", "truncated-ref": root / "truncated-references",
                "truncated-query": root / "truncated-queries"}
    models = {"valid": root / "model.vprh", "garbage": root / "junk.vprh",
              "missing": root / "missing", "directory": root / "ds"}
    return {"--dataset": datasets, "--datasets": datasets, "--validation": datasets,
            "--models": models, "--model": models}


def _labels(valid: list[str], labels: list[str], max_size: int = 1):
    """A path flag's (valid values, any other values): comma-joined labels
    that run_with_flags turns into the paths they name."""
    return st.sampled_from(valid), st.lists(
        st.sampled_from(labels), min_size=1, max_size=max_size
    ).map(",".join)


# Where an optional flag may be: on the command line, in the --config
# file, or not at all.
_ANYWHERE = ["argv", "config", None]

# What a --config file holds besides its overrides: lines every command
# takes, and lines that are an error (1) or make the file a usage error (2).
_CONFIG_NOISE = {
    "# note\x85 with breaks": 0, "": 0, "  # indented": 0,
    "no_such_key = 1": 1, "key value": 1, "\udcff": 2,
}


_REAL = _number(st.floats(1.0, 90.0), ["5e-324", "1e308"])

# pretrain's flags, as _SYNTH_FLAGS gives synth-gen's.  --epochs stays at
# most 3, as no integer flag takes "1e3"; a required path is on the command
# line, where argparse looks for it.
_PRETRAIN_FLAGS = {
    "--dataset": (
        _labels(["valid"], ["refs", "empty", "garbage", "missing", "file"]), ["argv"]
    ),
    "--seed": (_number(st.integers(0, 2**32 - 1), ["4294967296", str(2**70)]), ["argv"]),
    "--val-fraction": (_number(st.floats(0.0, 0.9), ["1", "1.5"]), _ANYWHERE),
    "--epochs": (_number(st.integers(1, 3), ["3"]), _ANYWHERE),
    "--batch-size": (_number(st.integers(1, 8), ["1", "99999"]), _ANYWHERE),
    "--margin": (_number(st.floats(0.01, 1.0), ["5e-324", "1e308"]), _ANYWHERE),
    "--lr": (_number(st.floats(1e-4, 0.1), ["5e-324", "1e308"]), _ANYWHERE),
    "--positive-radius": (_number(st.floats(10.0, 20.0), ["5e-324", "1e308"]), _ANYWHERE),
    "--negative-radius": (_number(st.floats(20.0, 90.0), ["20", "1e308"]), _ANYWHERE),
    "--negatives-per-query": (_number(st.integers(1, 2), ["1", "9"]), _ANYWHERE),
    "--patience": (_number(st.integers(1, 3), ["1", "99999"]), _ANYWHERE),
    "--radius": (_REAL, _ANYWHERE),
}

_XEVAL_FLAGS = {
    "--models": (
        _labels(["valid"], ["valid", "garbage", "missing", "directory"], max_size=2), ["argv"]
    ),
    "--datasets": (
        _labels(["valid", "ids", "ids,valid"],
                ["valid", "ids", "refs", "empty", "garbage", "missing", "file"], max_size=2),
        ["argv"],
    ),
    "--radius": (_REAL, _ANYWHERE),
    "--ns": ((st.sampled_from(["1", "1,2", "5,1"]),
              st.sampled_from(["0", "-1", "nan", "inf", "abc", "", "1,,2", "1.5"])), _ANYWHERE),
}


@st.composite
def command_flags(draw, flags: dict):
    """Each flag's value and place, as synth_gen_flags draws them."""
    clean = draw(st.booleans())
    return {
        flag: (draw(valid if clean else valid | other), draw(st.sampled_from(places)))
        for flag, ((valid, other), places) in flags.items()
    }


def run_with_flags(
    command: str, flags: dict, paths: dict, tmp: str, noise=(), end: str = "\n"
) -> tuple[int, list[Path]]:
    """main's exit code for ``command`` with each flag in its place, a path
    flag's labels given as the paths they name, and the run directories it
    left under tmp/runs; exit 1 must print a JSON error record.  The
    _CONFIG_NOISE lines ``noise`` open the --config file, written as UTF-8
    (a lone surrogate as the byte 0xff) with each line ending in ``end``;
    the worst of them bounds the exit from below."""
    argv, config = [command, "--out", str(Path(tmp, "runs"))], list(noise)
    for flag, (value, place) in flags.items():
        if flag in paths:
            value = ",".join(str(paths[flag][label]) for label in value.split(","))
        if place == "argv":
            argv += [flag, value]
        elif place == "switch":  # a flag that takes no value, given bare
            argv.append(flag)
        elif place == "config":
            config.append(f"{flag[2:]} = {value}")
    if config:
        text = end.join(config) + end
        Path(tmp, "exp.cfg").write_bytes(text.encode("utf-8", "surrogateescape"))
        argv += ["--config", str(Path(tmp, "exp.cfg"))]
    code, err = run_main(argv)
    assert_exit_contract(code, err)
    assert code >= max((_CONFIG_NOISE[line] for line in noise), default=0)
    return code, sorted(Path(tmp, "runs").glob("*/"))


def _report_reads_back(path: Path) -> None:
    """The recall report has rows, each as wide as its header."""
    (_, header, _), *rows = read_csv(path, VprError, "report row")
    assert rows and all(len(fields) == len(header) for _, fields, _ in rows)


@settings(max_examples=40, deadline=None)
@given(flags=command_flags(_PRETRAIN_FLAGS))
def test_pretrain_argv_property(command_inputs, flags):
    """Whatever the flags, pretrain exits 0, 1 or 2 and nothing escapes it;
    exit 1 prints a JSON error record, and exit 0 leaves a model that
    load_model reads."""
    paths = command_inputs
    with tempfile.TemporaryDirectory() as tmp:
        code, runs = run_with_flags("pretrain", flags, paths, tmp)
        if code == 0:
            (run_dir,) = runs
            vk.load_model(run_dir / "model.vprh")


@settings(max_examples=30, deadline=None)
@given(flags=command_flags(_XEVAL_FLAGS), ref_ids=_QUERY_IDS, query_ids=_QUERY_IDS)
@example(
    flags={"--models": ("valid", "argv"), "--datasets": ("ids,valid", "argv"),
           "--radius": ("25", "config"), "--ns": ("1,2", None)},
    ref_ids=["r,0", " r1", 'r "3" '], query_ids=["q,1", " q3", '"q4"'],
)
def test_xeval_argv_property(command_inputs, flags, ref_ids, query_ids):
    """Whatever the flags, and whatever ids dataset "ids" holds, xeval
    exits 0, 1 or 2 and nothing escapes it; exit 1 prints a JSON error
    record, and exit 0 leaves an xeval.csv whose rows read back as wide as
    its header."""
    paths = command_inputs
    world = vk.load_dataset(paths["--dataset"]["valid"])
    with tempfile.TemporaryDirectory() as tmp:
        refs = [dataclasses.replace(r, id=rid) for r, rid in zip(world.references, ref_ids)]
        queries = [dataclasses.replace(q, id=qid) for q, qid in zip(world.queries, query_ids)]
        vk.save_dataset(vk.Dataset(refs, queries), Path(tmp, "ids"))
        paths = {**paths, "--datasets": {**paths["--datasets"], "ids": Path(tmp, "ids")}}
        code, runs = run_with_flags("xeval", flags, paths, tmp)
        if code == 0:
            (run_dir,) = runs
            _report_reads_back(run_dir / "xeval.csv")


# The flags rsf and both ablations share, drawn as pretrain's are; at most
# two epochs and two copies per reference keep each run small.  Each
# property also draws up to two _CONFIG_NOISE lines and the config's line end.
_NOISE = st.lists(st.sampled_from(sorted(_CONFIG_NOISE)), max_size=2)
_ENDS = st.sampled_from(["\n", "\r", "\r\n"])
_FINETUNE_FLAGS = {
    "--model": (_labels(["valid"], ["garbage", "missing", "directory"]), ["argv"]),
    "--dataset": (_labels(["valid", "refs"], ["empty", "garbage", "missing", "file",
                                               "truncated-ref", "truncated-query"]), ["argv"]),
    "--validation": (_labels(["valid"], ["refs", "empty", "garbage", "missing", "file",
                                         "truncated-ref", "truncated-query"]), _ANYWHERE),
    "--seed": _PRETRAIN_FLAGS["--seed"],
    "--epochs": (_number(st.integers(1, 2), ["2"]), _ANYWHERE),
    **{flag: _PRETRAIN_FLAGS[flag] for flag in
       ("--batch-size", "--margin", "--lr", "--negative-radius", "--patience", "--radius")},
    "--multiplicity": (_number(st.integers(1, 2), ["1", "3"]), _ANYWHERE),
}
_AUGMENT = ((st.sampled_from(["none", "appearance", "viewpoint", "appearance,viewpoint"]),
             st.sampled_from(["", "appearance,", "none,appearance", "weather"])), _ANYWHERE)
_RSF_FLAGS = {
    **_FINETUNE_FLAGS,
    "--negatives-per-query": _PRETRAIN_FLAGS["--negatives-per-query"],
    "--augment": _AUGMENT,
    "--no-poses": ((st.sampled_from(["yes", "0", "True"]), st.sampled_from(["ture", "2", ""])),
                   ["switch", "config", None]),
}
_ABLATE_AUG_FLAGS = {
    **_FINETUNE_FLAGS,
    "--negatives-per-query": _PRETRAIN_FLAGS["--negatives-per-query"],
    "--ns": _XEVAL_FLAGS["--ns"],
}
_ABLATE_POSES_FLAGS = {**_FINETUNE_FLAGS, "--augment": _AUGMENT, "--ns": _XEVAL_FLAGS["--ns"]}


@settings(max_examples=25, deadline=None)
@given(flags=command_flags(_RSF_FLAGS), noise=_NOISE, end=_ENDS)
def test_rsf_argv_property(command_inputs, flags, noise, end):
    """Whatever the flags, rsf exits 0, 1 or 2 and nothing escapes it;
    exit 1 prints a JSON error record, and exit 0 leaves a model that
    load_model reads."""
    paths = command_inputs
    with tempfile.TemporaryDirectory() as tmp:
        code, runs = run_with_flags("rsf", flags, paths, tmp, noise, end)
        if code == 0:
            (run_dir,) = runs
            vk.load_model(run_dir / "model.vprh")


@settings(max_examples=20, deadline=None)
@given(flags=command_flags(_ABLATE_AUG_FLAGS), noise=_NOISE, end=_ENDS)
def test_ablate_aug_argv_property(command_inputs, flags, noise, end):
    """As test_rsf_argv_property, for ablate-aug: exit 0 leaves an
    ablate_aug.csv whose rows read back as wide as its header."""
    paths = command_inputs
    with tempfile.TemporaryDirectory() as tmp:
        code, runs = run_with_flags("ablate-aug", flags, paths, tmp, noise, end)
        if code == 0:
            (run_dir,) = runs
            _report_reads_back(run_dir / "ablate_aug.csv")


@settings(max_examples=20, deadline=None)
@given(flags=command_flags(_ABLATE_POSES_FLAGS), noise=_NOISE, end=_ENDS)
def test_ablate_poses_argv_property(command_inputs, flags, noise, end):
    """As test_rsf_argv_property, for ablate-poses: exit 0 leaves an
    ablate_poses.csv whose rows read back as wide as its header."""
    paths = command_inputs
    with tempfile.TemporaryDirectory() as tmp:
        code, runs = run_with_flags("ablate-poses", flags, paths, tmp, noise, end)
        if code == 0:
            (run_dir,) = runs
            _report_reads_back(run_dir / "ablate_poses.csv")


# The config of a training run with no training flag given and --seed 5:
# every TrainConfig field, whether or not the command takes its flag.
_DEFAULT_TRAINING = {
    "margin": 0.4, "learning_rate": 0.01, "epochs": 15, "batch_size": 16,
    "positive_radius": 10.0, "negative_radius": 25.0, "negatives_per_query": 1,
    "early_stop_patience": 5, "aug_multiplicity": 2, "poseless": False,
    "validation_radius": 25.0, "seed": 5,
}


@pytest.mark.parametrize(
    "command, extra",
    [("pretrain", {"val_fraction": 0.3}), ("rsf", {"augment": "appearance,viewpoint"}),
     ("ablate-aug", {"ns": [1, 5]}),
     ("ablate-poses", {"augment": "appearance,viewpoint", "ns": [1, 5]})],
)
def test_a_default_runs_manifest_holds_every_training_field(
    capsys, tmp_path, command_inputs, command, extra
):
    """The manifest, and so the run id, of a default run is the one it was
    when every command took every training flag."""
    paths = command_inputs
    argv = [command, "--dataset", str(paths["--dataset"]["valid"]), "--seed", "5"]
    argv += [] if command == "pretrain" else ["--model", str(paths["--model"]["valid"])]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0, err
    manifest = json.loads(Path(out.strip().splitlines()[-1], "manifest.json").read_text())
    assert manifest["config"] == {**_DEFAULT_TRAINING, **extra}


def test_only_labeled_training_refuses_a_negative_radius_below_the_positive(
    capsys, tmp_path, command_inputs
):
    paths = command_inputs
    inputs = ["--dataset", str(paths["--dataset"]["valid"]), "--seed", "1", "--epochs", "1",
              "--negative-radius", "5"]
    code, _, err = run(
        capsys, "rsf", *inputs, "--model", str(paths["--model"]["valid"]),
        "--out", str(tmp_path / "rsf"),
    )
    assert code == 0, err
    code, _, err = run(capsys, "pretrain", *inputs, "--out", str(tmp_path / "pre"))
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "VprError"
    assert "negative_radius 5.0" in record["message"]
    assert "positive_radius 10.0" in record["message"]
    assert not (tmp_path / "pre").exists()


@pytest.mark.parametrize("command", ["ablate-aug", "ablate-poses"])
def test_an_ablation_refuses_a_dataset_with_no_queries_before_any_arm_trains(
    capsys, tmp_path, command_inputs, monkeypatch, command
):
    """Both ablations trained every arm on a reference-only dataset and
    wrote recall 0.000000 over zero queries, which reads like a score."""
    paths = command_inputs
    finetunings = []
    monkeypatch.setattr("vprkit.cli.rsf_finetune", lambda *args: finetunings.append(args))
    refs = paths["--dataset"]["refs"]
    code, _, err = run(
        capsys, command, "--model", str(paths["--model"]["valid"]), "--dataset", str(refs),
        "--seed", "1", "--out", str(tmp_path / "out"),
    )
    assert code == 1
    record = json.loads(err.strip().splitlines()[-1])
    assert record == {"error": "VprError", "message": f"--dataset {refs} has no queries to score"}
    assert not finetunings
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """Inputs of every kind for build-map and project: {flag: {label: path}}.
    "valid" and the maps "a", "b" and "c" are good inputs; "b" holds wider
    descriptors than "a" and "c"."""
    root = tmp_path_factory.mktemp("inputs")
    world = vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=3, spacing=30.0, reference_style=vk.StyleParams(),
            query_style=vk.StyleParams(), queries_per_place=1, image_size=16, seed=3,
        )
    )
    vk.save_dataset(world, root / "ds")
    vk.save_model(vk.init_model(hidden_dims=[8], output_dim=4, seed=1), root / "model.vprh")
    for name, dim, seed in (("a", 4, 1), ("b", 6, 2), ("c", 4, 3)):
        model = vk.init_model(hidden_dims=[8], output_dim=dim, seed=seed)
        vk.save_map(vk.build_map(world, model), root / f"{name}.vprm")
    for src in ("model.vprh", "a.vprm"):
        data = (root / src).read_bytes()
        (root / f"truncated-{src}").write_bytes(data[: len(data) // 2])
    (root / "garbage.bin").write_bytes(b"\x00garbage\xff,\n" * 9)
    shutil.copytree(root / "ds", root / "ds-truncated")
    ppm = next((root / "ds-truncated" / "references").glob("*.ppm"))
    ppm.write_bytes(ppm.read_bytes()[:40])
    shutil.copytree(root / "ds", root / "ds-garbage")
    (root / "ds-garbage" / "reference_poses.csv").write_bytes(b"id,x_m,y_m\nr0,\xff\n")
    (root / "ds-empty").mkdir()
    common = {"missing": root / "missing", "garbage": root / "garbage.bin"}
    return {
        "dataset": {"valid": root / "ds", "missing": root / "missing",
                    "file": root / "model.vprh", "truncated": root / "ds-truncated",
                    "garbage": root / "ds-garbage", "empty": root / "ds-empty"},
        "model": {"valid": root / "model.vprh", **common, "directory": root / "ds",
                  "truncated": root / "truncated-model.vprh", "map": root / "a.vprm"},
        "maps": {**{m: root / f"{m}.vprm" for m in "abc"}, **common, "directory": root / "ds",
                 "truncated": root / "truncated-a.vprm", "model": root / "model.vprh"},
    }


@pytest.mark.parametrize(
    "line, key, value",
    [("name = run#2", "name", "run#2"), ("name = run #2", "name", "run"),
     ("places = 3  # note", "places", 3), ("places = 3\t#note", "places", 3),
     *[(line, "places", 30) for line, code in _CONFIG_NOISE.items() if code == 0]],
)
def test_a_config_comment_starts_at_a_hash_opening_the_line_or_after_whitespace(
    tmp_path, line, key, value
):
    """`name = run#2` was cut at its "#" and set --name to `run`, so an
    augmented id could not be given through --config."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    command = ["evaluate", "--results", "r", "--map", "m", "--dataset", "d"]
    args = build_parser().parse_args(
        [*(command if key == "name" else ["synth-gen", "--seed", "1"]), "--config", str(cfg)]
    )
    _apply_config_file(args)
    assert getattr(args, key) == value


_GOOD_INPUTS = {"dataset": ["valid"], "model": ["valid"], "maps": ["a", "b", "c"]}


@st.composite
def cli_inputs(draw, files, flags):
    """(argv entries, config text or None, {flag: labels in effect}, the
    worst config line's exit) with each flag's labels drawn from ``files``;
    a --config entry overrides the command line's.  Half the draws take
    good inputs and config lines only, as most others fail."""
    clean = draw(st.booleans())

    def labels(flag):
        pool = _GOOD_INPUTS[flag] if clean else sorted(files[flag])
        return draw(st.lists(st.sampled_from(pool), min_size=1,
                             max_size=3 if flag == "maps" else 1))

    def path(flag, chosen):
        return ",".join(str(files[flag][label]) for label in chosen)

    used = {flag: labels(flag) for flag in flags}
    argv = [arg for flag in flags for arg in (f"--{flag}", path(flag, used[flag]))]
    if not draw(st.booleans()):
        return argv, None, used, 0
    lines, worst = [], 0
    noise = sorted(line for line, code in _CONFIG_NOISE.items() if code == 0 or not clean)
    for line in draw(st.lists(st.sampled_from(noise), max_size=2)):
        lines.append(line)
        worst = max(worst, _CONFIG_NOISE[line])
    for flag in draw(st.lists(st.sampled_from(flags), unique=True)):
        used[flag] = labels(flag)
        lines.append(f"{flag} = {path(flag, used[flag])}")
    ends = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    return argv, ends.join(lines) + ends, used, worst


def _run_with_config(argv, config, tmp):
    """run_main on argv, with the config written as UTF-8 (a lone surrogate
    as the byte 0xff) and given by --config."""
    if config is not None:
        cfg = Path(tmp, "run.cfg")
        cfg.write_bytes(config.encode("utf-8", "surrogateescape"))
        argv = [*argv, "--config", str(cfg)]
    return run_main([*argv, "--out", str(Path(tmp, "out"))])


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_build_map_property(input_files, data):
    """Whatever the dataset, model and config files, build-map exits 0, 1
    or 2 and nothing escapes it, with a JSON record on exit 1; good inputs
    exit 0, and load_map reads the map, which holds the model's fingerprint
    and the references' ids."""
    argv, config, used, worst = data.draw(cli_inputs(input_files, ["dataset", "model"]))
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_with_config(["build-map", *argv], config, tmp)
        assert_exit_contract(code, err)
        if used == {"dataset": ["valid"], "model": ["valid"]} and worst == 0:
            assert code == 0, err
        if code == 0:
            (path,) = Path(tmp, "out").glob("*/map.vprm")
            dmap = vk.load_map(path)
            model = vk.load_model(input_files["model"][used["model"][0]])
            assert dmap.model_fingerprint == model.fingerprint()
            dataset = vk.load_dataset(input_files["dataset"][used["dataset"][0]])
            assert dmap.ids == [r.id for r in dataset.references]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_project_property(input_files, data):
    """Whatever the map and config files, project exits 0, 1 or 2 and
    nothing escapes it, with a JSON record on exit 1; distinct good maps of
    one width exit 0, and projection.csv reads back with csv.reader as
    wide as its header, a row per map row."""
    argv, config, used, worst = data.draw(cli_inputs(input_files, ["maps"]))
    maps = used["maps"]
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_with_config(["project", *argv], config, tmp)
        assert_exit_contract(code, err)
        one_width = set(maps) <= {"a", "c"} or maps == ["b"]
        if one_width and len(set(maps)) == len(maps) and worst == 0:
            assert code == 0, err
        if code == 0:
            (path,) = Path(tmp, "out").glob("*/projection.csv")
            with path.open(newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["source_label", "x", "y"]
            assert all(len(row) == len(header) for row in rows)
            assert len(rows) == 3 * len(maps)


# A second valid value of each text option, for the run id test below.
_OTHER_TEXT = {"--ref-style": "palette=1", "--query-style": "palette=1",
               "--augment": "appearance", "--ns": "1,2", "--name": "other"}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _options():
    """(command, option) for every option of every subcommand but --out,
    --config and the input paths."""
    return [
        (command, action.option_strings[0])
        for command, parser in _subcommands().items() for action in parser._actions
        if action.option_strings and action.dest not in ("help", "out", "config", *_INPUTS)
    ]


class _Opened(Exception):
    """Raised with the run a command opens, to stop it there."""


@pytest.mark.parametrize("command, option", _options())
def test_every_option_moves_the_run_id(monkeypatch, tmp_path, command, option):
    """Two invocations that differ in one option other than --out, --config
    or an input path open runs with different ids: a report of one never
    overwrites the other's."""
    actions = {a.option_strings[0]: a for a in _subcommands()[command]._actions
               if a.option_strings}
    argv = [command, "--out", str(tmp_path / "runs")]
    for flag, action in actions.items():
        if action.dest in _INPUTS and action.required:
            path = tmp_path / action.dest
            file = path / "f" if _INPUTS[action.dest][0] else path  # a directory holds a file
            file.parent.mkdir(parents=True, exist_ok=True)
            file.write_text(action.dest)
            argv += [flag, str(path)]
        elif action.required:
            argv += [flag, "0"]
    action = actions[option]
    if action.nargs == 0:
        other = [option]
    elif action.required:
        other = [option, "1"]
    elif action.type in (int, float):
        other = [option, str(action.type(action.default) * 2)]
    else:
        other = [option, _OTHER_TEXT[option]]
    opened = []

    def opening(*args):
        opened.append(RunContext(*args))
        raise _Opened

    monkeypatch.setattr("vprkit.cli.RunContext", opening)
    for variant in (argv, argv + other):
        with pytest.raises(_Opened):
            main(variant)
    first, second = opened
    assert first.run_id != second.run_id, (first.core, second.core)
