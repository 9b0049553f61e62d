"""Command-line pipeline: generate, ingest, train, bench.

Exit codes are a stable scripting contract: 0 success, 1 validation or
configuration error, 2 I/O error. Each command removes its old run manifest,
writes its outputs whole (`write_artifact`), then writes the new manifest;
all randomness flows from the single --seed flag. Worker count comes from
--workers, else the JAMCAST_WORKERS environment variable, else 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob as globmod
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from jamcast import __version__
from jamcast.datagen import GenConfig, generate_alerts, generate_jams
from jamcast.errors import ConfigError, JamcastError
from jamcast.evaluation import bench, render_table, reports_to_csv, write_reports
from jamcast.ingest import FEATURE_SETS, ingest_files, load_matrix, save_matrix, schema_for
from jamcast.manifest import file_digest, make_run_id, numeric_env, write_artifact, write_json
from jamcast.trees.binning import quantize
from jamcast.trees.training import TRAINERS, TrainConfig, save_model

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 1 per the CLI contract."""

    def error(self, message):  # noqa: D102
        raise ConfigError(message)


def _parse_when(text: str) -> int:
    """ISO date/datetime (naive treated as UTC) or raw epoch-ms integer."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ConfigError(f"bad timestamp {text!r}: {exc}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def _resolve_workers(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("JAMCAST_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"JAMCAST_WORKERS must be an integer, got {env!r}") from exc
    return 1


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    # each dest is a TrainConfig field; None means the flag was not given
    p.add_argument("--trees", dest="n_trees", type=int, default=None, help="number of trees")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-leaves", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="leaf L2 term")
    p.add_argument("--gamma", type=float, default=None, help="minimum split gain")
    p.add_argument("--min-child-weight", type=float, default=None)
    p.add_argument("--max-bins", type=int, default=None)
    p.add_argument("--subsample-rows", type=float, default=None, help="rf bagging fraction")
    p.add_argument("--subsample-features", type=float, default=None)
    p.add_argument(
        "--no-bootstrap",
        dest="bootstrap",
        action="store_false",
        default=None,
        help="rf: sample without replacement",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None, help="data-parallel workers")


def _train_config(args) -> TrainConfig:
    """TrainConfig from the training flags given; the others keep the defaults."""
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None}
    return TrainConfig(**given, n_workers=_resolve_workers(args.workers))


def build_parser() -> _Parser:
    parser = _Parser(prog="jamcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"jamcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write synthetic alert/jam JSONL corpora")
    g.add_argument("--config", type=Path, default=None, help="GenConfig JSON file")
    g.add_argument("--jams", type=int, default=None)
    g.add_argument("--alerts", type=int, default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--start", type=str, default=None, help="window start (ISO or epoch-ms)")
    g.add_argument("--end", type=str, default=None, help="window end (ISO or epoch-ms)")
    g.add_argument("--coupling-noise", type=float, default=None)
    g.add_argument(
        "--level-weights", type=str, default=None, help="five comma-separated weights"
    )
    g.add_argument("--out", type=Path, required=True, help="output directory")

    i = sub.add_parser("ingest", help="parse/clean/encode jam JSONL into a matrix file")
    i.add_argument("--input", required=True, help="glob of *.jsonl files")
    i.add_argument("--feature-set", choices=FEATURE_SETS, default="leaky")
    i.add_argument("--window-start", type=str, default=None)
    i.add_argument("--window-end", type=str, default=None)
    i.add_argument("--out", type=Path, required=True, help="matrix output path (.tjm)")

    t = sub.add_parser("train", help="train one model from a matrix file")
    t.add_argument("--matrix", type=Path, required=True)
    t.add_argument("--model", choices=tuple(TRAINERS), required=True)
    t.add_argument("--out", type=Path, required=True, help="model JSON output path")
    _add_train_flags(t)

    b = sub.add_parser("bench", help="compare models on one matrix, table-style report")
    b.add_argument("--matrix", type=Path, required=True)
    b.add_argument(
        "--models", type=str, default=",".join(TRAINERS), help="comma-separated kinds"
    )
    b.add_argument("--train-fraction", type=float, default=0.75)
    b.add_argument("--threshold", type=float, default=0.5)
    b.add_argument("--out-dir", type=Path, required=True)
    _add_train_flags(b)
    return parser


def _gen_config(args) -> GenConfig:
    """GenConfig from the --config JSON object overlaid with the flags given.

    Malformed JSON, unknown keys and values of the wrong shape are a
    ConfigError here; values out of their domain, a ValidationError.
    """
    try:
        fields = {} if args.config is None else json.loads(args.config.read_text())
        if not isinstance(fields, dict):
            raise TypeError("--config must hold a JSON object")
        for key in ("date_window", "level_weights"):
            if key in fields:
                fields[key] = tuple(fields[key])
        flags = {"n_jams": args.jams, "n_alerts": args.alerts, "seed": args.seed,
                 "coupling_noise": args.coupling_noise}
        fields.update({k: v for k, v in flags.items() if v is not None})
        if args.start is not None or args.end is not None:
            start, end = fields.get("date_window", GenConfig().date_window)
            if args.start is not None:
                start = _parse_when(args.start)
            if args.end is not None:
                end = _parse_when(args.end)
            fields["date_window"] = (start, end)
        if args.level_weights is not None:
            fields["level_weights"] = tuple(float(x) for x in args.level_weights.split(","))
        config = GenConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generate config: {exc}") from None
    config.validate()
    return config


def _record(
    args,
    argv: list[str],
    run_id: str,
    config: dict,
    inputs: dict[str, str],
    outputs: dict[Path, str],
    manifest: Path,
    seed: int | None = None,
    n_workers: int | None = None,
) -> None:
    """Write a finished command's manifest; `outputs` maps each output to its writer's sha256.

    `run_id` is `make_run_id(args.command, config, inputs)`, made once by the
    command; worker count and the time stamp are recorded beside it, not in it.
    """
    write_json(manifest, {
        "command": args.command,
        "command_line": argv,
        "run_id": run_id,
        "config": config,
        "input_digests": inputs,
        "output_digests": {str(p): d for p, d in outputs.items()},
        "seed": seed,
        "n_workers": n_workers,
        "artifacts": [str(p) for p in outputs],
        "tool_version": __version__,
        "numeric_env": numeric_env(),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    })


def _cmd_generate(args, argv: list[str]) -> int:
    config = _gen_config(args)
    config_doc = dataclasses.asdict(config)
    run_id = make_run_id("generate", config_doc, {})
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    jams_path = out_dir / "jams.jsonl"
    alerts_path = out_dir / "alerts.jsonl"
    manifest = out_dir / "generate.manifest.json"
    manifest.unlink(missing_ok=True)
    with write_artifact(jams_path) as jams:
        n_jams = generate_jams(config, jams)
    with write_artifact(alerts_path) as alerts:
        n_alerts = generate_alerts(config, alerts)
    outputs = {jams_path: jams.sha256.hexdigest(), alerts_path: alerts.sha256.hexdigest()}
    _record(args, argv, run_id, config_doc, {}, outputs, manifest, seed=config.seed)
    print(f"wrote {n_jams} jams and {n_alerts} alerts to {out_dir}")
    return 0


def _cmd_ingest(args, argv: list[str]) -> int:
    paths = sorted(globmod.glob(args.input))
    if not paths:
        raise FileNotFoundError(f"no input files matched {args.input!r}")
    window = None
    if args.window_start is not None or args.window_end is not None:
        if args.window_start is None or args.window_end is None:
            raise ConfigError("--window-start and --window-end must be given together")
        window = (_parse_when(args.window_start), _parse_when(args.window_end))
        if window[0] >= window[1]:
            raise ConfigError("--window-start must be before --window-end")
    schema = schema_for(args.feature_set)
    digests = {p: file_digest(p) for p in paths}
    # the spool sits beside the matrix, on the filesystem chosen for it
    args.out.parent.mkdir(parents=True, exist_ok=True)
    matrix, encoding, summary = ingest_files(paths, schema, window=window,
                                             spool_dir=args.out.parent)

    config_doc = {
        "feature_set": args.feature_set,
        "window": list(window) if window else None,
        "schema_fingerprint": matrix.schema_fingerprint,
    }
    run_id = make_run_id("ingest", config_doc, digests)
    manifest = Path(str(args.out) + ".manifest.json")
    manifest.unlink(missing_ok=True)
    outputs = {args.out: save_matrix(args.out, matrix, encoding, run_id=run_id)}
    report_path = Path(str(args.out) + ".report.json")
    outputs[report_path] = write_json(report_path, summary.as_dict())
    _record(args, argv, run_id, config_doc, digests, outputs, manifest)
    print(
        f"ingested {matrix.n_rows} rows "
        f"({summary.parse.rows_rejected} parse-rejected, "
        f"{summary.clean.rows_rejected} clean-dropped) -> {args.out}"
    )
    return 0


def _cmd_train(args, argv: list[str]) -> int:
    config = _train_config(args)
    config.validate()
    matrix, _ = load_matrix(args.matrix)
    digests = {str(args.matrix): file_digest(args.matrix)}
    binned = quantize(matrix, config.max_bins, n_workers=config.n_workers)
    model = TRAINERS[args.model](binned, matrix.labels, config, matrix.schema)

    config_doc = {**config.identity(), "model": args.model}
    run_id = make_run_id("train", config_doc, digests)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    manifest = Path(str(args.out) + ".manifest.json")
    manifest.unlink(missing_ok=True)
    outputs = {args.out: save_model(args.out, model, run_id=run_id)}
    _record(args, argv, run_id, config_doc, digests, outputs, manifest,
            seed=config.seed, n_workers=config.n_workers)
    print(f"trained {args.model} ({len(model.trees)} trees) -> {args.out}")
    return 0


def _cmd_bench(args, argv: list[str]) -> int:
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    if not kinds:
        raise ConfigError("--models names no model kind")
    for kind in kinds:
        if kind not in TRAINERS:
            raise ConfigError(f"unknown model kind {kind!r}")
    if not math.isfinite(args.threshold):
        raise ConfigError(f"--threshold must be finite, got {args.threshold}")
    config = _train_config(args)
    config.validate()
    matrix, _ = load_matrix(args.matrix)
    digests = {str(args.matrix): file_digest(args.matrix)}
    reports = bench(
        matrix,
        kinds,
        config,
        train_fraction=args.train_fraction,
        seed=args.seed,
        threshold=args.threshold,
    )
    config_doc = {
        **config.identity(),
        "models": kinds,
        "train_fraction": args.train_fraction,
        "threshold": args.threshold,
    }
    run_id = make_run_id("bench", config_doc, digests)
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "bench.manifest.json"
    manifest.unlink(missing_ok=True)
    table = render_table(reports)
    outputs = {}
    for name, text in (("bench_table.txt", table), ("bench_table.csv", reports_to_csv(reports))):
        with write_artifact(out_dir / name) as fh:
            fh.write(text.encode())
        outputs[out_dir / name] = fh.sha256.hexdigest()
    report_path = out_dir / "bench_reports.json"
    outputs[report_path] = write_reports(report_path, reports, run_id=run_id)
    _record(args, argv, run_id, config_doc, digests, outputs, manifest,
            seed=args.seed, n_workers=config.n_workers)
    print(table, end="")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, argv)
    except JamcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
