"""Datasets of geo-tagged images: loading, saving, validation splits.

Directory layout (the on-disk interchange format):

    root/
      references/*.ppm
      reference_poses.csv      # header row, then id,x_m,y_m
      queries/*.ppm            # optional
      query_poses.csv          # optional

Poses are planar metric coordinates (meters east, meters north) in a
local frame. Latitude/longitude manifests can be ingested with
``latlon=True``, which applies an equirectangular approximation around
one origin for both sides: the centroid of the reference rows, or of the
query rows when there are no references.

In memory, each pose is stored once, on its ``ImageRecord``. A
``Dataset(references, queries)`` holds only the two record lists; its
``reference_poses`` / ``query_poses`` are read from the records.
``rsf.rsf_finetune`` keeps its last finetuning stream on the dataset it
adapts to, as each record keeps its ``raw``.
"""

from __future__ import annotations

import functools
import io
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (InconsistentManifest, InvalidFraction, ManifestMissing, VprError,
                     check_count, check_real)
from .manifest import atomic_write_text, temp_name_bytes
from .ppm import check_pixels, read_ppm, write_ppm

EARTH_RADIUS_M = 6378137.0


class Pose(NamedTuple):
    """Planar position in meters (x east, y north) within a local frame."""

    x: float
    y: float

    def distance(self, other: "Pose") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass
class ImageRecord:
    """An image with a unique id and an optional pose."""

    id: str
    pixels: np.ndarray  # (H, W, 3) float in [0, 1]
    pose: Pose | None = None

    @functools.cached_property
    def raw(self) -> np.ndarray:
        """The backbone feature ``embedding.extract_raw(self)``, computed on
        first read and kept as a read-only array.  It depends on the pixels
        alone, so do not modify or replace ``pixels`` after the first read."""
        # embedding imports this module, so it is imported here; reading
        # extract_raw off the module at call time lets it be wrapped.
        from . import embedding

        raw = embedding.extract_raw(self)
        raw.flags.writeable = False
        return raw


def record_poses(records: Sequence[ImageRecord]) -> list[Pose]:
    """The records' poses; InconsistentManifest names a record without one."""
    poses = [r.pose for r in records]
    if None in poses:
        raise InconsistentManifest(f"record {records[poses.index(None)].id!r} has no pose")
    return poses


def pose_distances(query_poses, reference_poses) -> np.ndarray:
    """(Q, N) planar distances; each argument is a Pose list or (·, 2) array."""
    qp = np.asarray(query_poses, np.float64).reshape(-1, 2)
    rp = np.asarray(reference_poses, np.float64).reshape(-1, 2)
    diffs = qp[:, None, :] - rp[None, :, :]
    return np.sqrt(np.einsum("qrc,qrc->qr", diffs, diffs))


@dataclass
class Dataset:
    """Reference and query images, each record carrying its own pose."""

    references: list[ImageRecord]
    queries: list[ImageRecord] = field(default_factory=list)

    @property
    def reference_poses(self) -> list[Pose]:
        return record_poses(self.references)

    @property
    def query_poses(self) -> list[Pose]:
        return record_poses(self.queries)

    def reference_only(self) -> "Dataset":
        """A view of this dataset that exposes only the reference side."""
        return Dataset(self.references)


def read_utf8(path: Path, error: type[VprError] = VprError) -> str:
    """The text of a file; bytes that are not UTF-8 raise `error` naming
    the file and line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not valid UTF-8") from None


def _read_pose_manifest(path: Path, latlon: bool) -> dict[str, tuple[float, float]]:
    if not path.is_file():
        raise ManifestMissing(f"pose manifest not found: {path}")
    text = read_utf8(path, InconsistentManifest)
    rows: list[tuple[str, float, float]] = []
    with io.StringIO(text, newline=None) as fh:
        header = fh.readline()
        if not header.strip():
            raise InconsistentManifest(f"{path.name}: missing header row")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise InconsistentManifest(
                    f"{path.name}:{lineno}: expected id,x,y got {line!r}"
                )
            try:
                x, y = float(parts[1]), float(parts[2])
            except ValueError:
                x = y = math.nan
            xmax, ymax = (90.0, 180.0) if latlon else (sys.float_info.max,) * 2
            if not (abs(x) <= xmax and abs(y) <= ymax):  # also rejects nan
                raise InconsistentManifest(
                    f"{path.name}:{lineno}: expected finite coordinates "
                    f"(|lat| <= 90, |lon| <= 180 with latlon), got {line!r}"
                )
            rows.append((parts[0], x, y))
    ids = [r[0] for r in rows]
    if len(set(ids)) != len(ids):
        dupe = next(i for i in ids if ids.count(i) > 1)
        raise InconsistentManifest(f"{path.name}: duplicate id {dupe!r}")
    return {rid: (x, y) for rid, x, y in rows}


def _project_latlon(
    sides: list[dict[str, tuple[float, float]]],
) -> list[dict[str, tuple[float, float]]]:
    """(lat, lon) rows of every side to meters (east, north) around one
    origin: the centroid of the first non-empty side, the references
    unless they are empty."""
    origin = next((rows for rows in sides if rows), None)
    if origin is None:
        return sides
    lat0 = sum(lat for lat, _ in origin.values()) / len(origin)
    lon0 = sum(lon for _, lon in origin.values()) / len(origin)
    cos0 = math.cos(math.radians(lat0))
    return [
        {
            rid: (
                EARTH_RADIUS_M * math.radians(lon - lon0) * cos0,
                EARTH_RADIUS_M * math.radians(lat - lat0),
            )
            for rid, (lat, lon) in rows.items()
        }
        for rows in sides
    ]


def _load_side(
    image_dir: Path, manifest: Path, poses: dict[str, tuple[float, float]]
) -> list[ImageRecord]:
    files = {p.stem: p for p in sorted(image_dir.glob("*.ppm"))}
    orphan_poses = sorted(set(poses) - set(files))
    if orphan_poses:
        raise InconsistentManifest(
            f"{manifest.name}: pose entry {orphan_poses[0]!r} has no image file"
        )
    orphan_images = sorted(set(files) - set(poses))
    if orphan_images:
        raise InconsistentManifest(
            f"{manifest.name}: image {orphan_images[0]!r} has no pose entry"
        )
    # lexicographic id order keeps indices stable
    return [
        ImageRecord(id=rid, pixels=read_ppm(files[rid]), pose=Pose(*poses[rid]))
        for rid in sorted(poses)
    ]


def load_dataset(root_path: str | Path, latlon: bool = False) -> Dataset:
    """Load a dataset directory into memory.

    Raises ManifestMissing / InconsistentManifest / DecodeError as
    appropriate; all orderings are lexicographic by id.
    """
    root = Path(root_path)
    sides = [(root / "references", root / "reference_poses.csv")]
    if (root / "queries").is_dir() or (root / "query_poses.csv").is_file():
        sides.append((root / "queries", root / "query_poses.csv"))
    # Both manifests are read before either is projected: latitude and
    # longitude share one origin, so queries and references share a frame.
    poses = [_read_pose_manifest(manifest, latlon) for _, manifest in sides]
    if latlon:
        poses = _project_latlon(poses)
    return Dataset(*(_load_side(d, m, p) for (d, m), p in zip(sides, poses)))


def save_dataset(dataset: Dataset, root_path: str | Path) -> None:
    """Write a dataset back to the standard directory layout, each file
    atomically.  Every record is checked before any file is written: a
    record with no pose or a non-finite one, or an id that load_dataset
    would refuse or read back as another, is an InconsistentManifest, and
    pixels that write_ppm would refuse raise its ShapeError or
    NonFiniteValue.  Each names the record's id."""
    root = Path(root_path)
    sides = [("references", "reference_poses.csv", dataset.references)]
    if dataset.queries:
        sides.append(("queries", "query_poses.csv", dataset.queries))
    manifests = []
    for images, _, records in sides:
        manifests.append(_pose_manifest(records, _name_max(root / images)))
        for rec in records:
            check_pixels(rec.pixels, f"image {rec.id!r}")
    for (images, manifest, records), text in zip(sides, manifests):
        (root / images).mkdir(parents=True, exist_ok=True)
        for rec in records:
            write_ppm(root / images / f"{rec.id}.ppm", rec.pixels)
        atomic_write_text(root / manifest, text)


def _name_max(directory: Path) -> int:
    """The longest file name, in bytes, that the file system of
    ``directory`` takes, read at its nearest existing ancestor; 255 where
    the system cannot tell."""
    existing = next(p for p in (directory, *directory.parents) if p.exists())
    try:
        return os.pathconf(existing, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        return 255


def _pose_manifest(records: list[ImageRecord], name_max: int) -> str:
    """The records' pose manifest, in id order.  Each id must be one line's
    first field as _read_pose_manifest splits it, and the stem of its file
    as _load_side globs it: InconsistentManifest names the first that is
    not a string, is repeated, is not UTF-8, holds a comma, a line break, a
    NUL or a path separator, starts with whitespace, or is empty, and the
    first whose file's names are longer than ``name_max`` bytes or whose
    pose is not finite."""
    bad = next((rec.id for rec in records if not isinstance(rec.id, str)), None)
    if bad is not None:
        raise InconsistentManifest(f"record id {bad!r} is not a string")
    records = sorted(records, key=lambda r: r.id)
    for i, rec in enumerate(records):
        if i and rec.id == records[i - 1].id:
            raise InconsistentManifest(f"record id {rec.id!r} is repeated")
        try:
            rec.id.encode("utf-8")
        except UnicodeEncodeError:
            raise InconsistentManifest(f"record id {rec.id!r} is not UTF-8") from None
        if (
            any(c in rec.id for c in ",\r\n\0")
            or rec.id[:1].isspace()
            or Path(f"{rec.id}.ppm").stem != rec.id
        ):
            raise InconsistentManifest(
                f"record id {rec.id!r} would not load back: an id holds no comma, line "
                "break, NUL or path separator, and is not empty or led by whitespace"
            )
        name_bytes = temp_name_bytes(f"{rec.id}.ppm")
        if name_bytes > name_max:
            raise InconsistentManifest(
                f"record id {rec.id!r} is too long: writing its file takes a name of "
                f"{name_bytes} bytes, and this file system's are at most {name_max}"
            )
    lines = ["id,x_m,y_m"]
    for rec, pose in zip(records, record_poses(records)):
        x, y = float(pose.x), float(pose.y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InconsistentManifest(f"record {rec.id!r} has a non-finite pose {pose}")
        lines.append(f"{rec.id},{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def split_validation(
    dataset: Dataset, fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Partition the queries into (train, validation) by a seeded shuffle.

    References are shared by both splits. Same seed, same partition.  A
    fraction outside [0, 1] is an InvalidFraction, a seed that is not an
    integer of at least 0 a VprError.
    """
    if not 0.0 <= check_real(fraction, "fraction", InvalidFraction) <= 1.0:
        raise InvalidFraction(f"fraction must be in [0, 1], got {fraction}")
    check_count(seed, "seed", 0)
    n = len(dataset.queries)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    order = rng.permutation(n)
    n_val = int(round(fraction * n))
    val_idx = sorted(order[:n_val].tolist())
    train_idx = sorted(order[n_val:].tolist())

    def take(indices: list[int]) -> Dataset:
        return Dataset(dataset.references, [dataset.queries[i] for i in indices])

    return take(train_idx), take(val_idx)
