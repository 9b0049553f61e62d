"""Run manifests: the reproducibility record attached to every pipeline artifact.

The run id is a deterministic digest of (command, config, input digests,
seed) and excludes worker count, wall times and timestamps, so artifacts
produced by identical inputs carry identical ids while the manifest file
itself may record when and how a particular run happened.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from jamcast import __version__


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def make_run_id(command: str, config: dict, input_digests: dict[str, str]) -> str:
    doc = {"command": command, "config": config, "inputs": input_digests}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunManifest:
    command: str
    command_line: list[str]
    run_id: str
    config: dict
    input_digests: dict[str, str] = field(default_factory=dict)
    output_digests: dict[str, str] = field(default_factory=dict)
    seed: int | None = None
    n_workers: int | None = None
    artifacts: list[str] = field(default_factory=list)
    tool_version: str = __version__
    created_utc: str = ""

    def write(self, path: str | Path) -> None:
        doc = asdict(self)
        if not doc["created_utc"]:
            doc["created_utc"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def build_manifest(
    command: str,
    command_line: list[str],
    config: dict,
    input_digests: dict[str, str],
    artifacts: list[str | Path],
    seed: int | None,
    n_workers: int | None,
) -> RunManifest:
    """Manifest of a finished run; `input_digests` are the ones its run id was made from."""
    run_id = make_run_id(command, config, input_digests)
    output_digests = {str(p): file_digest(p) for p in artifacts if Path(p).exists()}
    return RunManifest(
        command=command,
        command_line=list(command_line),
        run_id=run_id,
        config=config,
        input_digests=input_digests,
        output_digests=output_digests,
        seed=seed,
        n_workers=n_workers,
        artifacts=[str(p) for p in artifacts],
    )
