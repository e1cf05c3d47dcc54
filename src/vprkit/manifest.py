"""Experiment manifests: every CLI run records what went in and came out.

A run directory is named by a hash of the manifest core (command,
resolved config, input hashes, seed), so identical invocations land in
the same place and different ones never collide. Output files are
written atomically (temp file, then rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import __version__


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


def atomic_write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


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
            **self.extra,
        }
        dest = self.run_dir / "manifest.json"
        atomic_write_text(dest, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return dest
