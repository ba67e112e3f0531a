"""Exact per-plan counts for the traced output.

Counts repeat exactly from run to run, so they can back count-based
claims: support sizes, kernel rows and how many the sampler can reach,
denominator bit-lengths, joint support size, plan bytes per section and
the schedule itself.
"""
from __future__ import annotations

import json

from windowcoupling import jsonio
from windowcoupling.engine import joint_support_size
from windowcoupling.measures import window_marginal

# Plan-document keys per byte section; keys a format drops count as zero.
SECTIONS = {
    "sequence": ("sequence",),
    "ladder": ("ladder",),
    "laws": ("index_law", "increment_laws", "residual_laws"),
    "kernels": ("kernels",),
}


def section_bytes(text: str) -> dict[str, int]:
    """Bytes each section adds to the canonical plan text."""
    doc = json.loads(text)
    full = len(text.encode("utf-8"))
    out = {}
    for section, keys in SECTIONS.items():
        rest = {key: value for key, value in doc.items() if key not in keys}
        out[section] = full - len(jsonio.canonical_dumps(rest).encode("utf-8"))
    return out


def one_plan(plan, text: str) -> dict:
    seq = plan.sequence
    windows = plan.schedule.windows
    rows = reachable = 0
    for n, kernel in enumerate(plan.kernels, start=1):
        member_window = window_marginal(seq.member(n), windows[n - 1])
        rows += len(kernel)
        reachable += sum(1 for prefix in kernel if member_window[prefix] > 0)
    laws = [
        plan.index_law,
        *plan.ladder.floors,
        *plan.ladder.envelopes,
        *plan.increment_laws,
        *plan.residual_laws,
        *(row.law for kernel in plan.kernels for row in kernel.values()),
    ]
    return {
        "schedule": list(windows),
        "support": {
            "limit": len(seq.limit.mass),
            "members": [len(m.mass) for m in seq.members],
            "increments": [len(law.mass) for law in plan.increment_laws],
            "residuals": [len(law.mass) for law in plan.residual_laws],
        },
        "support_entries": sum(len(law.mass) for law in laws),
        "kernel_rows": rows,
        "kernel_rows_reachable": reachable,
        "max_denominator_bits": max(
            v.denominator.bit_length() for law in laws for v in law.mass.values()
        ),
        "joint_support_size": joint_support_size(plan),
        "plan_bytes": section_bytes(text),
    }


def plan_counts(plans: list[tuple]) -> dict:
    """Per-plan counts and their totals.

    ``plans`` holds (coupling or None, loaded plan, plan text); a coupling
    marks a metric spec, whose digit space size is counted too.
    """
    per_plan = []
    for coupling, loaded, text in plans:
        entry = one_plan(loaded, text)
        if coupling is not None:
            entry["digit_space_points"] = coupling.digit_sequence.space.size()
        per_plan.append(entry)
    totals = {
        key: sum(p[key] for p in per_plan)
        for key in ("support_entries", "kernel_rows", "kernel_rows_reachable", "joint_support_size")
    }
    totals["max_denominator_bits"] = max((p["max_denominator_bits"] for p in per_plan), default=0)
    totals["digit_space_points"] = sum(p.get("digit_space_points", 0) for p in per_plan)
    totals["plan_bytes"] = {
        section: sum(p["plan_bytes"][section] for p in per_plan) for section in SECTIONS
    }
    return {"plans": per_plan, "totals": totals}
