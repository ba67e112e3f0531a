"""Command-line pipeline: build plans, verify, sample, run the metric pipeline.

All randomness flows from the explicit ``--seed`` (default 0) through
labeled substreams, so identical inputs and seed produce byte-identical
artifacts.  Exit codes: 0 success, 1 verification failure (including a
plan that ``sample`` refuses because it fails the exact audit, and one
the sampler cannot draw from), 2 bad input or an output that cannot be
written.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import jsonio, streams, verify
from .engine import build_plan, plan_exact_checks
from .skorohod import build_skorohod_coupling
from .version import __version__

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 1000
DEFAULT_DEPTH = 2


class InputError(Exception):
    """Unusable input file or option; maps to exit code 2."""


def _load_json(path: Path) -> dict:
    if not path.exists():
        raise InputError(f"input file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer longer than the interpreter's digit limit, or nesting
        # deeper than the parser's recursion limit
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _read(path: Path, parse):
    """``parse`` applied to the document at ``path``; bad input raises InputError.

    A ``ValueError`` is shown as its message and a ``KeyError`` as the
    document field it names.
    """
    doc = _load_json(path)
    try:
        return parse(doc)
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _cmd_build(args: argparse.Namespace) -> int:
    plan = _read(args.spec, lambda doc: build_plan(jsonio.sequence_from_doc(doc)))
    _write_text(args.out, jsonio.canonical_dumps(jsonio.plan_to_doc(plan)))
    print(f"plan written to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    plan = _read(args.plan, jsonio.plan_from_doc)
    report = verify.certify(plan, args.samples, args.seed)
    if args.out is not None:
        _write_text(args.out, jsonio.canonical_dumps(jsonio.report_to_doc(report)))
    sys.stdout.write(report.to_text())
    return 0 if report.all_passed else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    plan = _read(args.plan, jsonio.plan_from_doc)
    # the exact checks that ``verify`` audits, which imply its marginal check:
    # samples of a plan that fails them do not have the coupling's law
    failed = [c for c in plan_exact_checks(plan) if not c.passed]
    if failed:
        first = failed[0]
        more = f" (and {len(failed) - 1} more failing checks)" if len(failed) > 1 else ""
        print(
            f"error: {args.plan}: plan fails the exact audit, no samples drawn:"
            f" {first.name}: {first.witness}{more}",
            file=sys.stderr,
        )
        return 1
    lines = []
    try:
        sampler = plan.sampler
        for i in range(args.samples):
            derived = streams.derive_seed(args.seed, "sample", i)
            draw = sampler.sample(random.Random(derived))
            lines.append(jsonio.compact_dumps(jsonio.sample_record(plan, draw, derived)))
    except Exception as exc:  # a corrupted plan can break sampling anywhere
        print(
            f"error: {args.plan}: sampling failed after {len(lines)} draws:"
            f" {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        _write_text(args.out, text)
        print(f"{args.samples} samples written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_skorohod(args: argparse.Namespace) -> int:
    def build(doc: dict):
        seq = jsonio.law_sequence_from_doc(doc)
        return build_skorohod_coupling(seq.model, seq, args.depth)

    coupling = _read(args.spec, build)
    out = args.out
    _write_text(out / "tree.json", jsonio.canonical_dumps(jsonio.tree_to_doc(coupling.tree)))
    _write_text(out / "plan.json", jsonio.canonical_dumps(jsonio.plan_to_doc(coupling.plan)))
    report = verify.certify(coupling, args.samples, args.seed)
    _write_text(out / "report.json", jsonio.canonical_dumps(jsonio.report_to_doc(report)))
    sys.stdout.write(report.to_text())
    return 0 if report.all_passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    report = _read(args.report, jsonio.report_from_doc)
    text = report.to_text()
    if args.out is not None:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def _at_least(minimum: int):
    """An argparse type accepting integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windowcoupling",
        description="Exact widening-window couplings and finite Skorohod representations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    build = sub.add_parser("build", help="build a coupling plan from a sequence document")
    build.add_argument("--spec", type=Path, required=True, help="process sequence JSON")
    build.add_argument("--out", type=Path, required=True, help="output plan JSON")
    build.set_defaults(run=_cmd_build)

    ver = sub.add_parser("verify", help="audit a plan and run Monte Carlo guards")
    ver.add_argument("--plan", type=Path, required=True, help="plan JSON")
    ver.add_argument("--out", type=Path, help="write the report JSON here")
    ver.add_argument("--samples", type=_at_least(1), default=DEFAULT_SAMPLES)
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.set_defaults(run=_cmd_verify)

    smp = sub.add_parser("sample", help="stream coupled samples as JSON lines")
    smp.add_argument("--plan", type=Path, required=True, help="plan JSON")
    smp.add_argument("--samples", type=_at_least(1), default=DEFAULT_SAMPLES)
    smp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    smp.add_argument("--out", type=Path, help="output JSONL (default stdout)")
    smp.set_defaults(run=_cmd_sample)

    sko = sub.add_parser(
        "skorohod", help="metric pipeline: tree, digitization, plan, report"
    )
    sko.add_argument("--spec", type=Path, required=True, help="metric law sequence JSON")
    sko.add_argument("--out", type=Path, required=True, help="output directory")
    sko.add_argument("--depth", type=_at_least(1), default=DEFAULT_DEPTH)
    sko.add_argument("--samples", type=_at_least(1), default=DEFAULT_SAMPLES)
    sko.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sko.set_defaults(run=_cmd_skorohod)

    rep = sub.add_parser("report", help="render an existing report to text")
    rep.add_argument("report", type=Path, help="report JSON")
    rep.add_argument("--out", type=Path, help="write the text here too")
    rep.set_defaults(run=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
