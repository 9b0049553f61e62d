"""One benchmark process: runs jamcast operations in-process and reports on them.

The parent starts a fresh interpreter per timed repetition, so each peak
resident-memory reading belongs to that repetition alone. Imports finish
before any clock starts: a timing covers what `jamcast <command>` does, not
interpreter start-up.

    python3 perfbench/child.py SPEC.json

SPEC holds `src` (the directory to import jamcast from), `trace_dir` (null
for an untraced run) and `ops`, each either
    {"op": "cli", "argv": [...]}            jamcast.cli.main(argv)
    {"op": "stages", "input", "feature_set", "out"}
                                            parse, clean, encode, save one at a time
The last line of standard output is a JSON object with one result per op
and, for a traced run, the summed layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, peak_rss_mb  # noqa: E402


def _run_cli(argv: list[str], tracer: Tracer | None) -> dict:
    from jamcast.cli import main

    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    except Exception:  # a raw traceback breaks the CLI's exit-code contract
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.finish_command()
    return {"rc": rc, "wall_s": wall, "peak_rss_mb": peak_rss_mb()}


def _run_stages(op: dict) -> dict:
    """Time each lazy ingest stage on its own by draining it before the next."""
    from jamcast.ingest import clean, encode, parse_jams, save_matrix, schema_for

    t0 = time.perf_counter()
    with open(op["input"], "rb") as fh:
        records, parse_report = parse_jams(fh)
        records = list(records)
    t1 = time.perf_counter()
    cleaned, clean_report = clean(records)
    cleaned = list(cleaned)
    t2 = time.perf_counter()
    matrix, encoding = encode(cleaned, schema_for(op["feature_set"]))
    t3 = time.perf_counter()
    save_matrix(op["out"], matrix, encoding)
    t4 = time.perf_counter()
    times = {
        "ingest.parse_s": t1 - t0,
        "ingest.clean_s": t2 - t1,
        "ingest.encode_s": t3 - t2,
        "ingest.save_matrix_s": t4 - t3,
    }
    return {
        "rc": 0,
        "times": times,
        "parse": parse_report.as_dict(),
        "clean": clean_report.as_dict(),
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import jamcast.cli  # noqa: F401  (loads every layer before the tracer looks)

    tracer = None
    if spec.get("trace_dir"):
        tracer = Tracer(spec["trace_dir"])
        tracer.install()
    results = []
    try:
        for op in spec["ops"]:
            if op["op"] == "cli":
                results.append(_run_cli(op["argv"], tracer))
            elif op["op"] == "stages":
                results.append(_run_stages(op))
            else:
                raise ValueError(f"unknown op {op['op']!r}")
    finally:
        if tracer is not None:
            tracer.restore()
    out = {"results": results}
    if tracer is not None:
        out["layers"] = tracer.report()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
