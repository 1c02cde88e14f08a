"""Command line driver: run scenario files, sweeps, constructions, inspection.

Reports are serialized canonically (sorted keys, no whitespace, floats in
.17g) so a rerun with the same inputs produces byte-identical output.
Exit codes: 0 all verdicts matched expectations, 1 at least one mismatch,
2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

from ..groups import ORDER_CAP
from ..scenarios import (
    SWEEP_KINDS,
    ScenarioFormatError,
    check_document,
    run_construct,
    run_inspect,
    run_scenario,
    run_sweep,
)

__all__ = ["canonical_json", "main"]


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, .17g floats."""
    parts: list[str] = []
    append = parts.append
    keys: dict[str, str] = {}  # each quoted key with its ":", quoted once a call

    def emit(obj):
        # exact types first: almost every value in a report is a float, str, dict or list;
        # a container puts "," after each item, then closes over the last one (or its opener)
        kind = type(obj)
        if kind is float:
            if not isfinite(obj):
                raise ValueError("non-finite float in report")
            append("%.17g" % obj)
        elif kind is str:
            append(_quote(obj))
        elif kind is dict:
            append("{")
            for key in sorted(obj):
                if not isinstance(key, str):
                    raise ValueError(f"non-string report key {key!r}")
                text = keys.get(key)
                if text is None:
                    text = keys[key] = _quote(key) + ":"
                append(text)
                emit(obj[key])
                append(",")
            parts[-1] = "}" if obj else "{}"
        elif kind is list or kind is tuple:
            append("[")
            for item in obj:
                emit(item)
                append(",")
            parts[-1] = "]" if obj else "[]"
        elif kind is int:
            append(str(obj))
        elif obj is None or kind is bool:
            append("null" if obj is None else "true" if obj else "false")
        elif isinstance(obj, str):
            append(_quote(obj))
        elif isinstance(obj, int):
            append(str(obj))
        elif isinstance(obj, float):  # numpy's float64 among them
            emit(float(obj))
        elif isinstance(obj, (list, tuple)):
            emit(list(obj))
        elif isinstance(obj, dict):
            emit(dict(obj))
        elif hasattr(obj, "item"):  # the other numpy scalars
            emit(obj.item())
        else:
            raise ValueError(f"unserializable report value {type(obj).__name__}")

    emit(obj)
    return "".join(parts)


def _finish(reports: list[dict], out_path: str | None) -> int:
    """Write the canonical report (a list of them for several) and return the exit code."""
    payload = reports[0] if len(reports) == 1 else {"schema": "qchar-report-1", "reports": reports}
    text = canonical_json(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r["matched"] for r in reports) else 1


def _load_scenarios(paths: list[str]) -> list[tuple[str, dict]]:
    """Validated scenarios of the files, each with its location "file: $..."."""
    scenarios = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ScenarioFormatError(f"{path}: {exc}") from exc
        except ValueError as exc:
            raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc
        try:
            check_document(doc)
        except ScenarioFormatError as exc:
            raise ScenarioFormatError(f"{path}: {exc}") from exc
        if "scenarios" in doc:
            scenarios.extend((f"{path}: $.scenarios[{i}]", s)
                             for i, s in enumerate(doc["scenarios"]))
        else:
            scenarios.append((f"{path}: $", doc))
    return scenarios


def _located(where: str, run, *args) -> dict:
    """run(*args), placing a payload input error under the scenario at ``where``."""
    try:
        return run(*args)
    except ScenarioFormatError as exc:
        if exc.path is None:
            raise
        raise ScenarioFormatError(f"{where}.payload{exc.path}: {exc.reason}") from exc


def _cmd_run(args) -> int:
    scenarios = _load_scenarios(args.files)
    profile = args.tolerance_profile

    def one(located):
        where, scenario = located
        return _located(where, run_scenario, scenario, profile)

    return _finish([one(s) for s in scenarios], args.out)


def _sweep_arities(args) -> tuple[int, ...]:
    """The sweep's arities, after checking every argument before any draw."""
    try:
        arities = tuple(int(a) for a in args.arities.split(","))
    except ValueError as exc:
        raise ScenarioFormatError(f"--arities: {exc}") from exc
    if min(arities) < 2:
        raise ScenarioFormatError(f"--arities: {min(arities)} is below 2; "
                                  "a one-factor joint is always a product")
    if args.count < 0:
        raise ScenarioFormatError(f"--count: {args.count} is negative")
    if args.seed < 0:
        raise ScenarioFormatError(f"--seed: {args.seed} is negative")
    group, flags = f"Z_{args.max_order}", f"--max-order {args.max_order}"
    power = max(arities) if args.kind == "independence-collapse" else 1
    if power > 1:
        group, flags = f"{group}^{power}", f"{flags} with --arities {args.arities}"
    # 2 ** ORDER_CAP.bit_length() > ORDER_CAP already, so no huge power is formed
    if args.max_order >= 2 and (power >= ORDER_CAP.bit_length()
                                or args.max_order ** power > ORDER_CAP):
        raise ScenarioFormatError(f"{flags}: the largest swept group {group} "
                                  f"exceeds the order cap {ORDER_CAP}")
    return arities


def _cmd_sweep(args) -> int:
    arities = _sweep_arities(args)
    report = run_sweep(args.kind, seed=args.seed, count=args.count,
                       max_order=args.max_order, arities=arities)
    return _finish([report], args.out)


def _parse_inline_json(text: str, what: str) -> dict:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioFormatError(f"{what}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ScenarioFormatError(f"{what}: invalid JSON: {exc}") from exc


def _cmd_construct(args) -> int:
    phi = _parse_inline_json(args.phi, "--phi")
    pair = _parse_inline_json(args.pair_phi, "--pair-phi") if args.pair_phi else None
    report = _located("$", run_construct, phi, args.min_truncation, args.radius, pair)
    return _finish([report], args.out)


def _cmd_inspect(args) -> int:
    try:
        orders = [int(o) for o in args.orders.split(",")]
    except ValueError as exc:
        raise ScenarioFormatError(f"--orders: {exc}") from exc
    report = _located("$", run_inspect, orders)
    return _finish([report], args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchar",
        description="Verification workbench for characteristic-function "
                    "identities on finite abelian groups and the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario files")
    p_run.add_argument("files", nargs="+", help="scenario JSON files")
    p_run.add_argument("--out", default=None, help="write the report here")
    p_run.add_argument("--tolerance-profile", choices=["default", "strict"],
                       default="default")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="randomized property sweeps")
    p_sweep.add_argument("kind", choices=list(SWEEP_KINDS))
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--count", type=int, default=20,
                         help="cases per group and arity")
    p_sweep.add_argument("--max-order", type=int, default=12)
    p_sweep.add_argument("--arities", default="2,3")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_con = sub.add_parser("construct", help="build a circle density from "
                                             "an even polynomial exponent")
    p_con.add_argument("--phi", required=True,
                       help="JSON {'even_coeffs': {...}} or @file")
    p_con.add_argument("--pair-phi", default=None,
                       help="optional second exponent for the joint witness")
    p_con.add_argument("--min-truncation", type=int, default=None)
    p_con.add_argument("--radius", type=int, default=None)
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=_cmd_construct)

    p_ins = sub.add_parser("inspect", help="structural report on an object")
    p_ins.add_argument("target", choices=["group"])
    p_ins.add_argument("--orders", required=True,
                       help="comma separated cyclic orders, e.g. 2,4")
    p_ins.add_argument("--out", default=None)
    p_ins.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioFormatError as exc:
        print(f"qchar: invalid input: {exc}", file=sys.stderr)
        return 2

