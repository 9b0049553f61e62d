"""Run records, the JSON rules of every artifact, and their one writer.

`write_artifact` writes every output file whole or not at all, and digests it as it goes.

Two serializations exist, both strict: `canonical_json` is the compact form
that run ids, schema fingerprints and the `.tjm` header are made of, and
`write_json` is the one writer of JSON artifacts (manifests, model files,
ingest reports, bench reports). Neither writes NaN or Infinity, which are
not JSON: a non-finite number is a ValidationError, raised before any file
is opened.

The run id is a deterministic digest of (command, config, input digests)
and excludes worker count, wall times and timestamps, so artifacts
produced by identical inputs carry identical ids while the manifest file
itself may record when and how a particular run happened.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from jamcast.errors import ValidationError


def canonical_json(doc) -> bytes:
    """`doc` as compact ASCII JSON with sorted keys, the form that ids are digests of."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    except ValueError as exc:
        raise ValidationError(f"not strict JSON ({exc})") from None


def write_json(path: str | Path, doc) -> str:
    """Write a strict JSON artifact (indent 1, sorted keys, a final newline); its sha256."""
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"{path}: not strict JSON ({exc})") from None
    with write_artifact(path) as fh:
        fh.write(text.encode() + b"\n")
    return fh.sha256.hexdigest()


class _Digesting:
    """A file's writer that feeds each byte it writes to one sha256, `sha256`."""

    def __init__(self, fh: BinaryIO):
        self._fh, self.sha256 = fh, hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()


@contextlib.contextmanager
def write_artifact(path: str | Path) -> Iterator[_Digesting]:
    """A writer whose bytes replace `path` when the block ends, and vanish if it raises.

    They go to the sibling `.NAME.<12 hex>.tmp`, renamed over `path` with no fsync
    (docs/formats.md). An existing `path` that is not a regular file is written through.
    The writer's `sha256` is of every byte written.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield _Digesting(fh)
        return
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield _Digesting(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def numeric_env() -> dict:
    """numpy's version and SIMD targets, on which gbt and xgb model bytes depend."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # np.core: numpy 1.x
    return {"numpy": np.__version__, "cpu_baseline": umath.__cpu_baseline__,
            "cpu_dispatch": umath.__cpu_dispatch__,
            "cpu_features": [k for k, on in umath.__cpu_features__.items() if on]}


def make_run_id(command: str, config: dict, input_digests: dict[str, str]) -> str:
    doc = {"command": command, "config": config, "inputs": input_digests}
    return hashlib.sha256(canonical_json(doc)).hexdigest()[:16]
