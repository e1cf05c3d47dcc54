"""Experiment manifests: every CLI run records what went in and came out.

A run directory is named by a hash of the manifest core (command,
resolved config, input hashes, seed), so identical invocations land in
the same place and different ones never collide. Output files are
written atomically (temp file, then rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import struct
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FormatError, TruncatedError


def hash_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_input(path: str | Path) -> str:
    """sha256 of a file, or of the sorted (relpath, file-hash) list of a
    directory tree."""
    path = Path(path)
    if path.is_file():
        return hash_file(path)
    entries = []
    for p in sorted(path.rglob("*")):
        if p.is_file():
            entries.append(f"{p.relative_to(path)}:{hash_file(p)}")
    h = hashlib.sha256("\n".join(entries).encode("utf-8"))
    return h.hexdigest()


def atomic_write_bytes(path: Path, parts) -> None:
    """Write an iterable of parts one after another as the file at
    ``path``, or leave the file as it was.  A part is anything ``write``
    takes: bytes or a C-contiguous array, so large arrays are written
    without a copy, and a generator's parts need not all exist at once."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def temp_name_bytes(name: str) -> int:
    """The bytes of the longest file name atomic_write_bytes makes to write
    a file named ``name``: its temporary ``.{name}.`` plus mkstemp's eight
    random characters."""
    return len(name.encode("utf-8")) + 10


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])


class BinaryReader:
    """In-order reads of a binary file after its 4-byte magic and u16
    version, both checked (FormatError). A read past the end of the file
    is a TruncatedError; ``end`` makes bytes left over a FormatError."""

    def __init__(self, data: bytes, magic: bytes, version: int):
        if data[:4] != magic:
            raise FormatError(f"bad magic {data[:4]!r}, expected {magic!r}")
        self.data, self.pos, self.base = data, 4, 0  # base: file offset of data[0]
        (found,) = self.unpack("<H")
        if found != version:
            raise FormatError(f"unsupported {magic.decode()} file version {found}")

    # Reads check bounds inline: a 100k-row map's id table is 200,000 reads.
    def _truncated(self) -> TruncatedError:
        return TruncatedError(
            f"expected {self.base + self.pos} bytes, file has only {self.base + len(self.data)}"
        )

    def unpack(self, fmt: str) -> tuple:
        start, self.pos = self.pos, self.pos + struct.calcsize(fmt)
        if self.pos > len(self.data):
            raise self._truncated()
        return struct.unpack_from(fmt, self.data, start)

    def array(self, dtype: str, *shape: int) -> np.ndarray:
        """A read-only view of the next prod(shape) values, not a copy."""
        count = math.prod(shape)
        start, self.pos = self.pos, self.pos + np.dtype(dtype).itemsize * count
        if self.pos > len(self.data):
            raise self._truncated()
        return np.frombuffer(self.data, dtype, count, start).reshape(shape)

    def take(self, size: int) -> bytes:
        start, self.pos = self.pos, self.pos + size
        if self.pos > len(self.data):
            raise self._truncated()
        return self.data[start : self.pos]

    def resume(self, skipped: int, data: bytes) -> None:
        """Go on after ``skipped`` bytes that the caller read itself, with
        ``data`` the bytes that follow them."""
        self.base += self.pos + skipped
        self.data, self.pos = data, 0

    def end(self, after: str) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{len(self.data) - self.pos} bytes after the {after} at byte {self.base + self.pos}"
            )


class RunContext:
    """Resolves the run directory for one CLI invocation and collects the
    manifest as outputs are produced."""

    def __init__(
        self,
        command: str,
        config: dict,
        inputs: dict[str, str | Path],
        seed: int | None,
        out_root: str | Path,
    ):
        self.command = command
        self.config = config
        self.input_hashes = {name: hash_input(p) for name, p in inputs.items()}
        self.seed = seed
        core = {
            "command": command,
            "config": config,
            "inputs": self.input_hashes,
            "seed": seed,
            "version": __version__,
        }
        digest = hashlib.sha256(
            json.dumps(core, sort_keys=True).encode("utf-8")
        ).hexdigest()
        self.run_id = digest[:12]
        self.run_dir = Path(out_root) / self.run_id  # made by its first write
        self.outputs: list[str] = []
        self.extra: dict = {}

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.run_dir / name

    def finalize(self) -> Path:
        manifest = {
            "command": self.command,
            "config": self.config,
            "inputs": self.input_hashes,
            "outputs": sorted(set(self.outputs)),
            "seed": self.seed,
            "run_id": self.run_id,
            "version": __version__,
            # The interpreter and NumPy of this run: recorded, not hashed.
            "python": platform.python_version(),
            "numpy": np.__version__,
            **self.extra,
        }
        dest = self.run_dir / "manifest.json"
        atomic_write_text(dest, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return dest
