"""Output checks: each returns a list of problems, empty when the output is right.

Expected values come from the injection plan and from the paper's
acceptance criteria, never from the report under check.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from inject import CLEAN_REASONS, PARSE_REASONS, InjectionPlan

N_FEATURES = {"leaky": 13, "honest": 10}
MODEL_KINDS = ("rf", "gbt", "xgb")
LEAKY_FLOOR = 0.99  # criterion 1: leaky AUC, precision and recall reach it


def check_reports(parse: dict, clean: dict, plan: InjectionPlan) -> list[str]:
    """Parse and clean report dicts against the plan, and the conservation law."""
    problems = []
    expected = plan.counts()
    stages = (("parse", parse, PARSE_REASONS), ("clean", clean, CLEAN_REASONS))
    for stage, report, reasons in stages:
        want = {r: expected[r] for r in reasons}
        if report["rejection_reasons"] != want:
            problems.append(f"{stage} rejections {report['rejection_reasons']} != plan {want}")
    accepted = clean["rows_accepted"]
    rejected = parse["rows_rejected"] + clean["rows_rejected"]
    if accepted != plan.rows_accepted:
        problems.append(f"accepted {accepted} != plan {plan.rows_accepted}")
    if accepted + rejected != plan.nonempty_lines:
        problems.append(
            f"accepted {accepted} + rejected {rejected} != {plan.nonempty_lines} non-empty lines"
        )
    return problems


def read_tjm_header(path: Path) -> dict:
    with open(path, "rb") as fh:
        if fh.read(4) != b"TJMX":
            raise ValueError("bad magic")
        (length,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(length))
    header["_data_offset"] = 8 + length
    return header


def check_matrix(path: Path, plan: InjectionPlan, feature_set: str) -> list[str]:
    """Row and feature counts of a .tjm file, and a file size that matches them."""
    try:
        header = read_tjm_header(path)
    except (OSError, ValueError, struct.error) as exc:
        return [f"{path.name}: unreadable matrix ({exc})"]
    n, f = header.get("n_rows"), header.get("n_features")
    problems = []
    if n != plan.rows_accepted:
        problems.append(f"{path.name}: {n} rows, plan accepts {plan.rows_accepted}")
    if f != N_FEATURES[feature_set]:
        problems.append(f"{path.name}: {f} features, {feature_set} has {N_FEATURES[feature_set]}")
    if not problems and path.stat().st_size != header["_data_offset"] + n * f * 8 + n:
        problems.append(f"{path.name}: size {path.stat().st_size} does not fit {n}x{f}")
    return problems


def check_ingest(out: Path, plan: InjectionPlan, feature_set: str) -> list[str]:
    """`jamcast ingest` outputs: the report against the plan, then the matrix."""
    try:
        report = json.loads(Path(str(out) + ".report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"ingest report unreadable ({exc})"]
    problems = check_reports(report["parse"], report["clean"], plan)
    if report["n_rows"] != plan.rows_accepted:
        problems.append(f"report n_rows {report['n_rows']} != plan {plan.rows_accepted}")
    return problems + check_matrix(out, plan, feature_set)


def check_bench(out_dir: Path, feature_set: str) -> tuple[dict[str, float], list[str]]:
    """`jamcast bench` reports: no errors, criterion 1 on leaky, criterion 2 on honest.

    An honest workload has no leaky AUC of its own to compare with; a leaky
    AUC is at least LEAKY_FLOOR by criterion 1, so an honest AUC at or above
    that floor fails criterion 2, as does one below chance.
    """
    try:
        reports = json.loads((out_dir / "bench_reports.json").read_text())
    except (OSError, ValueError) as exc:
        return {}, [f"bench reports unreadable ({exc})"]
    aucs: dict[str, float] = {}
    problems = []
    for r in reports:
        kind = r["model_kind"]
        if r["error"]:
            problems.append(f"{kind}: {r['error']}")
            continue
        aucs[kind] = r["auc"]
        if feature_set == "leaky":
            low = [m for m in ("auc", "precision", "recall") if not r[m] >= LEAKY_FLOOR]
            if low:
                problems.append(f"{kind}: leaky {low} below {LEAKY_FLOOR}")
        elif not 0.5 <= r["auc"] < LEAKY_FLOOR:
            problems.append(f"{kind}: honest auc {r['auc']} not in [0.5, {LEAKY_FLOOR})")
    if sorted(aucs) != sorted(MODEL_KINDS) and not problems:
        problems.append(f"bench reported models {sorted(aucs)}")
    return aucs, problems
