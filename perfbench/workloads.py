"""Seeded workload generators.

Each generator returns the JSON documents a user would hand to the CLI
(``build --spec`` for process sequences, ``skorohod --spec`` for metric
law sequences); the package sees only these documents.  The same seed
gives byte-identical documents.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# The CLI's default cap on the joint support of the exact joint-law oracle.
ORACLE_CAP = 1_000_000
# Partition depth of every metric spec, the CLI's --depth.
DEPTH = 3


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _prefix_masses(law: dict[tuple, Fraction], k: int) -> dict[tuple, Fraction]:
    out: dict[tuple, Fraction] = {}
    for point, value in law.items():
        out[point[:k]] = out.get(point[:k], 0) + value
    return out


def widening_docs(
    rng: random.Random, width: int = 6, letters: int = 3, members: int = 8, max_weight: int = 20
) -> list[dict]:
    """One process sequence on letters**width points whose windows widen.

    Member n keeps the limit's marginal on its first f(n) coordinates and
    redraws the conditional law of the rest, with f non-decreasing and
    strictly between 0 and the width.  Every law has full support, so the
    k-window infimum from index n loses no mass for k <= f(n) and a
    positive amount beyond it, which makes the schedule pass through
    intermediate windows instead of jumping from 0 to the full width.
    """
    symbols = [chr(ord("a") + i) for i in range(letters)]
    points = list(itertools.product(range(letters), repeat=width))

    def weights() -> list[int]:
        return [rng.randint(1, max_weight) for _ in points]

    raw = weights()
    total = sum(raw)
    limit = {z: Fraction(w, total) for z, w in zip(points, raw)}
    laws = []
    for n in range(1, members + 1):
        k = 1 + ((width - 1) * n) // (members + 1)
        kept = _prefix_masses(limit, k)
        suffix = dict(zip(points, weights()))
        suffix_total = _prefix_masses(suffix, k)
        laws.append(
            {z: kept[z[:k]] * Fraction(suffix[z], suffix_total[z[:k]]) for z in points}
        )

    def to_doc(law: dict[tuple, Fraction]) -> dict[str, str]:
        return {",".join(symbols[i] for i in z): _rational(v) for z, v in law.items()}

    return [
        {
            "space": [symbols] * width,
            "members": [to_doc(law) for law in laws],
            "limit": to_doc(limit),
            "tail": {"eventually_equal": members},
        }
    ]


def check_widening(windows: tuple[int, ...], width: int) -> str | None:
    """None when the schedule has two distinct windows strictly inside (0, width)."""
    inner = {k for k in windows if 0 < k < width}
    if len(inner) < 2:
        return f"schedule {windows} has fewer than two intermediate windows"
    return None


def metric_grid_docs(
    rng: random.Random,
    columns: int = 10,
    rows: int = 8,
    step: int = 300,
    jitter: int = 9,
    scale: int = 1000,
    members: int = 3,
    max_weight: int = 8,
) -> list[dict]:
    """One metric law sequence on a jittered lattice of rational points.

    Lattice spacing 3/10 with jitter below 1/100 keeps every pairwise
    distance at least 1/20 away from the ball radii 1/2, 1/4 and 1/6 of
    a depth-3 partition tree, and labels follow lattice order, so the
    tree and the digit space have the same shape for every seed; the
    seed moves the exact coordinates and the laws.  Members and limit
    are random rational laws with some zero masses.
    """
    coords = [
        (i * step + rng.randint(-jitter, jitter), j * step + rng.randint(-jitter, jitter))
        for i in range(columns)
        for j in range(rows)
    ]
    labels = [f"p{i}" for i in range(len(coords))]

    def law() -> dict[str, str]:
        while True:
            raw = [rng.randint(0, max_weight) for _ in labels]
            total = sum(raw)
            if total:
                return {
                    label: _rational(Fraction(w, total))
                    for label, w in zip(labels, raw)
                    if w
                }

    return [
        {
            "model": {
                "points": labels,
                "coords": [[_rational(Fraction(c, scale)) for c in xy] for xy in coords],
                "metric": "linf",
            },
            "members": [law() for _ in range(members)],
            "limit": law(),
            "tail": {"eventually_equal": members},
        }
    ]


def line_docs(
    rng: random.Random, points: int = 4, members: int = 2, max_weight: int = 8
) -> list[dict]:
    """One small metric law sequence on evenly spaced points of [0, 1].

    With full-support laws on four points it stays small for every seed.
    """
    labels = [f"x{i}" for i in range(points)]

    def law() -> dict[str, str]:
        raw = [rng.randint(1, max_weight) for _ in labels]
        return {label: _rational(Fraction(w, sum(raw))) for label, w in zip(labels, raw)}

    return [
        {
            "model": {
                "points": labels,
                "coords": [[_rational(Fraction(i, points - 1))] for i in range(points)],
                "metric": "linf",
            },
            "members": [law() for _ in range(members)],
            "limit": law(),
            "tail": {"eventually_equal": members},
        }
    ]


@dataclass(frozen=True)
class Part:
    """Specs from one generator and the per-plan counts applied to them.

    ``draws`` samples are streamed and ``mc_samples`` feed the MC guard,
    per plan; ``schedule_check`` returns a witness when a built schedule
    lacks the property the part was chosen for.
    """

    generate: Callable[[random.Random], list[dict]]
    draws: int
    mc_samples: int
    schedule_check: Callable[[tuple[int, ...], int], str | None] | None = None


# The line spec gives the skorohod layer a little work in the process
# workload, so none of its per-layer times reads 0; one batch of draws
# keeps it out of the sample-path median.
LINE = Part(line_docs, draws=100, mc_samples=100)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple[Part, ...]

    def specs(self, seed: int) -> list[tuple[int, dict]]:
        """(part index, spec document) pairs, all drawn from one seeded stream."""
        rng = random.Random(seed)
        return [(i, doc) for i, part in enumerate(self.parts) for doc in part.generate(rng)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "widening",
            "729-point laws whose windows widen through intermediate values: "
            "the window-infimum build path, ladder and exact checks dominate",
            (Part(widening_docs, 10_000, 1000, check_widening), LINE),
        ),
        Workload(
            "metric-grid",
            "80-point linf metric pipeline at depth 3: model validation, partition "
            "tree and a large sparse kernel table drive set-up, plan bytes and load",
            (Part(metric_grid_docs, 10_000, 1000),),
        ),
    )
}
