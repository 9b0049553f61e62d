"""Run records and the JSON rules of every artifact.

Two serializations exist, both strict: `canonical_json` is the compact form
that run ids, schema fingerprints and the `.tjm` header are made of, and
`write_json` is the one writer of JSON artifacts (manifests, model files,
ingest reports, bench reports). Neither writes NaN or Infinity, which are
not JSON: a non-finite number is a ValidationError, raised before any byte
is written.

The run id is a deterministic digest of (command, config, input digests)
and excludes worker count, wall times and timestamps, so artifacts
produced by identical inputs carry identical ids while the manifest file
itself may record when and how a particular run happened.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from jamcast.errors import ValidationError


def canonical_json(doc) -> bytes:
    """`doc` as compact ASCII JSON with sorted keys, the form that ids are digests of."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    except ValueError as exc:
        raise ValidationError(f"not strict JSON ({exc})") from None


def write_json(path: str | Path, doc) -> None:
    """Write a JSON artifact: indent 1, sorted keys, a final newline, no NaN or Infinity."""
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"{path}: not strict JSON ({exc})") from None
    Path(path).write_text(text + "\n")


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def make_run_id(command: str, config: dict, input_digests: dict[str, str]) -> str:
    doc = {"command": command, "config": config, "inputs": input_digests}
    return hashlib.sha256(canonical_json(doc)).hexdigest()[:16]
