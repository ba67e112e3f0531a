"""JSON wire formats for every artifact the pipeline reads or writes.

Rationals serialize as "num/den" strings and points as comma-joined
coordinate symbols, so no float ever enters or leaves a file; a point's
label and its code convert through its space's ``format_point`` and
``parse_point``.  Dumps
are canonical (sorted keys, fixed separators), which makes artifacts
byte-identical across runs with the same inputs and seed.

A plan document holds its format, its sequence and its window list,
and nothing that can be derived from them: the envelopes and the
mixture laws are derived when the loaded plan is first read, on the
path a built plan takes (see ``CouplingPlan``).

Reading keeps every byte the writer would write.  A law whose masses
all have the form ``law_to_doc`` writes, ``num/den`` in positive ASCII
digits, is parsed in one batch; any other law goes through
``parse_ratio`` one value at a time, with the same result or the same
error.  A loaded plan whose masses are all in lowest terms keeps its
laws as read, and the hash that reports record is taken from them on
first read, instead of writing the sequence document again.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Iterator

from .engine import (
    CouplingPlan,
    CouplingSample,
    DeficitEntry,
    ExactCheck,
    WindowSchedule,
)
from .measures import (
    Alphabet,
    MassFunction,
    ProcessSequenceSpec,
    ProductSpace,
)
from .skorohod import (
    LawSequence,
    MetricSpaceModel,
    PartitionTree,
    weight_of,
)


def fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_ratio(text: Any) -> tuple[int, int]:
    """A rational from an int or a string that ``Fraction`` accepts.

    Returns the numerator and the positive denominator, not necessarily
    reduced.  Canonical ASCII ``[-]digits/digits`` and ``[-]digits``,
    the forms the package writes, are split into two ints; every other
    string goes through ``Fraction``'s own parser, which is several times
    slower.  A decimal exponent larger in magnitude than
    ``sys.get_int_max_str_digits()``, the limit ``int`` puts on digit
    strings, is refused before that parser expands it (a limit of 0
    turns the check off, as it does for ``int``).
    """
    if type(text) is int:  # not a bool, which JSON writes as true/false
        return text, 1
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            denominator = int(den) if slash else 1
            if denominator:
                return int(num), denominator
        _check_exponent(text)
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"rational {text!r} has a zero denominator") from None
        return value.numerator, value.denominator
    raise ValueError(f"expected a rational string, got {text!r}")


# a decimal with an exponent, in the grammar ``Fraction`` reads
_DECIMAL_EXPONENT = re.compile(
    r"\s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.\d*(?:_\d+)*)?[eE]([-+]?\d+(?:_\d+)*)\s*"
)


def _check_exponent(text: str) -> None:
    """Refuse a decimal exponent whose expansion would pass the digit limit."""
    match = _DECIMAL_EXPONENT.fullmatch(text)
    # interpreters without the limit have no such check in ``int`` either
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if match and limit and abs(int(match[1])) > limit:
        raise ValueError(
            f"rational {text[:40]!r} has an exponent beyond the {limit}-digit limit"
        )


def parse_fraction(text: Any) -> Fraction:
    """``parse_ratio`` as a ``Fraction``."""
    return Fraction(*parse_ratio(text))


def canonical_dumps(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, from C-encoded pieces.

    CPython encodes in C only without ``indent``.  So each flat object,
    whose keys and values are all strings (every law),
    is written by one C-encoded call that carries the indentation in its
    item separator, and every other object or array is written item by
    item, its keys and scalars C-encoded.  Object keys must be strings,
    as in every document the package writes.
    """
    out: list[str] = []
    _write_indented(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_indented(value: Any, newline: str, out: list[str]) -> None:
    """Append ``value`` as ``canonical_dumps`` writes it at the indentation ``newline``."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        if set(map(type, value)) == set(map(type, value.values())) == {str}:
            flat = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
            out += "{", inner, flat[1:-1], newline, "}"
            return
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out += separator, json.encoder.encode_basestring_ascii(key), ": "
            _write_indented(item, inner, out)
            separator = "," + inner
        out += newline, "}"
    elif isinstance(value, (list, tuple)) and value:
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_indented(item, inner, out)
            separator = "," + inner
        out += newline, "]"
    else:
        out.append(json.dumps(value))


# json.dumps builds an encoder per call when given options; one sample
# record is small enough for that to be a quarter of its cost
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def compact_dumps(doc: Any) -> str:
    return _COMPACT.encode(doc)


def document_sha256(doc: Any) -> str:
    return hashlib.sha256(compact_dumps(doc).encode("utf-8")).hexdigest()


# -- laws and process sequences ---------------------------------------------


def law_to_doc(law: MassFunction) -> dict:
    """Each mass as ``"num/den"``, in lowest terms: one gcd per mass."""
    label = law.space.format_point
    denominator = law.denominator
    doc = {}
    for z, w in law.weights.items():
        common = math.gcd(w, denominator)
        doc[label(z)] = f"{w // common}/{denominator // common}"
    return doc


def law_from_doc(space: ProductSpace, doc: dict) -> MassFunction:
    """Parse each mass into two ints and scale them to the lcm of the denominators."""
    return _law_from_doc(space, doc)[0]


# the masses of a law as ``law_to_doc`` writes them, joined by newlines:
# a positive ASCII numerator and denominator without leading zeros each
_WRITTEN_MASSES = re.compile(r"[1-9][0-9]*/[1-9][0-9]*(?:\n[1-9][0-9]*/[1-9][0-9]*)*")


def _law_from_doc(space: ProductSpace, doc: dict) -> tuple[MassFunction, bool]:
    """``law_from_doc``, and whether every mass is in lowest terms as ``law_to_doc`` writes it.

    A law whose masses all have the written form, reduced or not, is
    parsed in one batch: one ``fullmatch`` of the values joined by
    newlines, one ``split`` and ``map(int, ...)``.  A value that holds a
    newline splits into more than two parts, so the part count sends it
    back, with every law that is not in the written form, to
    ``parse_ratio``, one value at a time, which gives the same law or
    the same error.
    """
    items = doc.items()  # first, so that a document that is not an object fails as before
    ratios = _written_ratios(list(doc.values()))
    if ratios is None:
        parse = space.parse_point
        entries = [(parse(key), *parse_ratio(value)) for key, value in items]
        common = math.lcm(*(den for _, _, den in entries))
        weights = {z: num * (common // den) for z, num, den in entries}
        return MassFunction(space, common, weights), False
    nums, dens = ratios
    common = math.lcm(*dens)
    scaled = map(operator.mul, nums, map(operator.floordiv, itertools.repeat(common), dens))
    # every key is a code that parse_point gave and every weight is positive
    law = MassFunction._derived(space, common, dict(zip(map(space.parse_point, doc), scaled)))
    return law, set(map(math.gcd, nums, dens)) == {1}


def _written_ratios(values: list) -> tuple[list[int], list[int]] | None:
    """The numerators and denominators of masses in the written form, else None."""
    try:
        joined = "\n".join(values)
    except TypeError:  # a value that is not a string
        return None
    if not _WRITTEN_MASSES.fullmatch(joined):
        return None
    parts = joined.replace("\n", "/").split("/")
    if len(parts) != 2 * len(values):  # a value that holds a newline
        return None
    try:
        ints = list(map(int, parts))
    except ValueError:  # a part past the interpreter's digit limit
        return None
    return ints[0::2], ints[1::2]


def space_to_doc(space: ProductSpace) -> list[list[str]]:
    return [list(a.symbols) for a in space.coordinates]


def _array(value: Any, name: str) -> list:
    """A JSON array as read; a string or any other value raises TypeError.

    Python iterates a string as its characters, so without this check
    ``"ab"`` would read as the array ``["a", "b"]``.
    """
    if type(value) is not list:
        raise TypeError(f"{name} {value!r} is not an array")
    return value


def _integer(value: Any, name: str) -> int:
    """A JSON integer as read; a boolean, a float (even ``2.0``) or a string raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def _object(value: Any, name: str) -> dict:
    """A JSON object as read; an array of pairs, which ``dict`` would accept, raises TypeError."""
    if type(value) is not dict:
        raise TypeError(f"{name} {value!r} is not an object")
    return value


def _boolean(value: Any, name: str) -> bool:
    """A JSON boolean as read; a string such as ``"no"`` or a number raises TypeError."""
    if type(value) is not bool:
        raise TypeError(f"{name} {value!r} is not a boolean")
    return value


def space_from_doc(doc: list) -> ProductSpace:
    return ProductSpace(
        tuple(Alphabet(tuple(_array(symbols, "alphabet"))) for symbols in _array(doc, "space"))
    )


def _laws_to_doc(seq: ProcessSequenceSpec) -> dict:
    return {
        "members": [law_to_doc(m) for m in seq.members],
        "limit": law_to_doc(seq.limit),
        "tail": {"eventually_equal": seq.horizon},
    }


def sequence_to_doc(seq: ProcessSequenceSpec) -> dict:
    return {"space": space_to_doc(seq.space), **_laws_to_doc(seq)}


@contextmanager
def _doc_field(kind: str, name: str) -> Iterator[None]:
    """Report a wrongly shaped document field as a ValueError naming it."""
    try:
        yield
    except (AttributeError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed {kind} field {name!r}: {exc}") from exc


def sequence_from_doc(doc: dict) -> ProcessSequenceSpec:
    """Parse a sequence document; a field of the wrong shape raises ValueError."""
    return _sequence_from_doc(doc)[0]


def _sequence_from_doc(doc: dict) -> tuple[ProcessSequenceSpec, bool]:
    """``sequence_from_doc``, and whether every mass is in lowest terms as written."""
    with _doc_field("spec", "space"):
        space = space_from_doc(doc["space"])
    return _laws_from_doc(space, doc)


def _laws_from_doc(space: ProductSpace, doc: dict) -> tuple[ProcessSequenceSpec, bool]:
    """The members and limit of a spec document, on ``space``, and whether all are as written.

    The document's tail index must be the number of members.
    """
    with _doc_field("spec", "members"):
        members = [_law_from_doc(space, m) for m in doc["members"]]
    with _doc_field("spec", "limit"):
        limit, written = _law_from_doc(space, doc["limit"])
    with _doc_field("spec", "tail"):
        tail = _integer(doc["tail"]["eventually_equal"], "tail index")
    if tail < 1:
        raise ValueError("tail index must be at least 1")
    if len(members) != tail:
        raise ValueError(f"{len(members)} members but tail index {tail}")
    seq = ProcessSequenceSpec(tuple(law for law, _ in members), limit)
    return seq, written and all(member_written for _, member_written in members)


# -- coupling plans -----------------------------------------------------------

# Format 6 stores the sequence and the schedule's window list, and
# nothing else: the envelope densities that format 5 stored, and the
# mixture laws that format 4 stored, are derived from them (see
# ``CouplingPlan``), and the horizon is the sequence's member count.
PLAN_FORMAT = 6


def plan_to_doc(plan: CouplingPlan) -> dict:
    return {
        "format": PLAN_FORMAT,
        "sequence": sequence_to_doc(plan.sequence),
        "schedule": list(plan.schedule.windows),
    }


def plan_from_doc(doc: dict) -> CouplingPlan:
    """Rebuild a plan without re-validating invariants.

    Loading is intentionally permissive so that a corrupted artifact can
    be reconstructed and then failed by the audit with a witness; the
    derived laws are built only when read.  Only plan format 6 is read;
    any other document, a field of the wrong shape, a window outside the
    space's width and a window list that does not hold one window per
    index 1..M + 1 raise ValueError.  Where every mass is in lowest
    terms, as ``law_to_doc`` writes it, the plan keeps a copy of the
    sequence document (``_sequence_doc_as_read``) for ``spec_sha256`` to
    hash.
    """
    found = doc.get("format", "(missing)") if isinstance(doc, dict) else "(not an object)"
    if found != PLAN_FORMAT:
        raise ValueError(
            f"unsupported plan format {found}; this version reads format"
            f" {PLAN_FORMAT}; rebuild the plan from its spec"
        )
    with _doc_field("plan", "sequence"):
        seq, written = _sequence_from_doc(doc["sequence"])
    with _doc_field("plan", "schedule"):
        windows = tuple(_integer(k, "window") for k in _array(doc["schedule"], "windows"))
    if len(windows) != seq.horizon + 1:
        raise ValueError(
            f"plan field 'schedule' must hold one window per index 1..{seq.horizon + 1},"
            f" found {len(windows)}"
        )
    for k in windows:
        seq.space.check_window(k)
    plan = CouplingPlan(seq, WindowSchedule(windows))
    if written:
        # the plan is frozen, and only its loader knows the document it was read from
        object.__setattr__(plan, "sequence_doc", _sequence_doc_as_read(doc["sequence"], seq))
    return plan


def _sequence_doc_as_read(doc: dict, seq: ProcessSequenceSpec) -> dict:
    """``sequence_to_doc(seq)``, its laws copied from ``doc``, the document ``seq`` was read from.

    For a document whose every mass is in lowest terms, as
    ``law_to_doc`` writes it: each law's keys are labels that parsed,
    which are their points' labels symbol for symbol, and each mass is
    the one ``law_to_doc`` writes, so each law's object as read is the
    one written.  The space and the tail are written from ``seq``, so
    other fields of the document, or of its tail, change nothing.  The
    laws are copied so that the plan does not share them with the
    caller.
    """
    return {
        "space": space_to_doc(seq.space),
        "members": [dict(law) for law in doc["members"]],
        "limit": dict(doc["limit"]),
        "tail": {"eventually_equal": seq.horizon},
    }


def sample_record(plan: CouplingPlan, draw: CouplingSample, seed: int) -> dict:
    """One sample as ``sample`` writes it; the space keeps each point's label."""
    label = plan.sequence.space.format_point
    return {
        "seed": seed,
        "N": draw.index,
        "Z_hat": label(draw.limit_point),
        "Z_hat_n": list(map(label, draw.member_points)),
    }


# -- metric models and law sequences -----------------------------------------


def model_to_doc(model: MetricSpaceModel) -> dict:
    doc: dict[str, Any] = {"points": list(model.labels)}
    if model.coords is not None:
        doc["metric"] = "linf"
        doc["coords"] = [[fraction_to_str(c) for c in row] for row in model.coords]
    else:
        scale = model.scale

        def written(d: int) -> str:  # d / scale in lowest terms, one gcd, as in law_to_doc
            common = math.gcd(d, scale)
            return f"{d // common}/{scale // common}"

        doc["dist"] = [list(map(written, row)) for row in model.rows]
    if not all(model.separable_support):
        doc["separable_support"] = list(model.separable_support)
    return doc


def model_from_doc(doc: dict) -> MetricSpaceModel:
    """The model of a ``coords`` or a ``dist`` document, which gives exactly one of them.

    A field of the wrong shape raises TypeError.  Only a missing
    ``points`` field of a ``coords`` document falls back to the labels
    ``p0``, ``p1``, ..., and only a missing ``separable_support`` flags
    every point.
    """
    has_coords = "coords" in doc
    if "metric" in doc and doc["metric"] != "linf":
        raise ValueError(f"unknown metric {doc['metric']!r}, the only metric is 'linf'")
    if has_coords and "dist" in doc:
        raise TypeError("a model gives coords or dist, not both")
    if "metric" in doc and not has_coords:
        raise ValueError("the linf metric requires a coords field")
    support = doc.get("separable_support")
    if "separable_support" in doc:  # given, even as null: an array of flags
        support = _array(support, "separable_support")
    if has_coords:
        coords = _rational_rows(doc["coords"], "coords")
        if "points" not in doc:
            labels = [f"p{i}" for i in range(len(coords))]
        elif not _array(doc["points"], "points"):
            raise TypeError("points [] names no point")
        else:
            labels = doc["points"]
            if len(labels) != len(coords):
                raise TypeError(
                    f"points holds {len(labels)} labels for {len(coords)} coordinate rows"
                )
        return MetricSpaceModel.from_coords(labels, coords, support)
    dist = _rational_rows(doc["dist"], "dist")
    return MetricSpaceModel.from_table(_array(doc["points"], "points"), dist, support)


def _rational_rows(doc: Any, name: str) -> list[list[Fraction]]:
    """An array of arrays of rationals, such as the ``coords`` or ``dist`` field."""
    return [
        [parse_fraction(v) for v in _array(row, f"{name} row")] for row in _array(doc, name)
    ]


def law_sequence_to_doc(seq: LawSequence) -> dict:
    return {"model": model_to_doc(seq.model), **_laws_to_doc(seq.sequence)}


def law_sequence_from_doc(doc: dict) -> LawSequence:
    """Parse a metric law sequence; a field of the wrong shape raises ValueError."""
    with _doc_field("spec", "model"):
        model = model_from_doc(doc["model"])
    return LawSequence(model, _laws_from_doc(model.space, doc)[0])


def tree_to_doc(tree: PartitionTree) -> dict:
    model = tree.model
    law = tree.law
    return {
        "depth": tree.depth,
        "backend": "table" if model.coords is None else "linf",
        "levels": [
            [
                {
                    "path": list(cell.path),
                    "members": [model.labels[i] for i in cell.members],
                    "diameter": fraction_to_str(cell.diameter),
                    "limit_mass": fraction_to_str(
                        Fraction(weight_of(law, cell.members), law.denominator)
                    ),
                    "certificate": [
                        [model.labels[c], fraction_to_str(r)]
                        for c, r in cell.certificate
                    ],
                }
                for cell in level
            ]
            for level in tree.levels
        ],
        "point_paths": {
            model.labels[i]: list(path) for i, path in enumerate(tree.paths)
        },
    }


# -- verification reports -----------------------------------------------------


def report_to_doc(report) -> dict:
    return {
        "exact_checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in report.exact_checks
        ],
        "mc_checks": [
            {
                "name": c.name,
                "samples": c.samples,
                "failures": c.failures,
                "note": c.note,
            }
            for c in report.mc_checks
        ],
        "deficit_trace": [
            {
                "index": e.index,
                "window": e.window,
                "deficit": fraction_to_str(e.deficit),
                "bound": fraction_to_str(e.bound),
            }
            for e in report.deficit_trace
        ],
        "provenance": dict(report.provenance),
        "all_passed": report.all_passed,
    }


def report_from_doc(doc: dict):
    """Parse a report document; a field of the wrong shape raises ValueError."""
    from .verify import McCheck, VerificationReport

    with _doc_field("report", "exact_checks"):
        exact_checks = tuple(
            ExactCheck(c["name"], _boolean(c["passed"], "passed"), c["witness"])
            for c in doc["exact_checks"]
        )
    with _doc_field("report", "mc_checks"):
        mc_checks = tuple(
            McCheck(
                c["name"],
                _integer(c["samples"], "samples"),
                _integer(c["failures"], "failures"),
                c["note"],
            )
            for c in doc["mc_checks"]
        )
    with _doc_field("report", "deficit_trace"):
        deficit_trace = tuple(
            DeficitEntry(
                _integer(e["index"], "index"),
                _integer(e["window"], "window"),
                parse_fraction(e["deficit"]),
                parse_fraction(e["bound"]),
            )
            for e in doc["deficit_trace"]
        )
    with _doc_field("report", "provenance"):
        provenance = _object(doc["provenance"], "provenance")
    return VerificationReport(
        exact_checks=exact_checks,
        mc_checks=mc_checks,
        deficit_trace=deficit_trace,
        provenance=provenance,
    )
