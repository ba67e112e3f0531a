#!/usr/bin/env python3
"""Metric-space coupling demo on three rational points of the line.

Digitizes a point mass and the uniform law through a nested continuity
partition, couples the digit processes, and tabulates the realized
distances d(X_n, X) against the 1/k_n guarantees.
"""
import argparse
import random
from collections import Counter
from fractions import Fraction as F
from itertools import islice

from windowcoupling import (
    LawSequence,
    MassFunction,
    MetricSpaceModel,
    ProcessSequenceSpec,
    audit_skorohod,
    build_skorohod_coupling,
    distance_violations,
    sample_coupled_points,
)
from windowcoupling import streams


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=5000)
    parser.add_argument("--depth", type=int, default=2)
    args = parser.parse_args()

    model = MetricSpaceModel.from_coords(
        ("x0", "x1", "x2"), ((F(0),), (F(1, 2),), (F(1),))
    )
    space = model.space
    start = MassFunction.point_mass(space, (0,))
    uniform = MassFunction.uniform(space)
    laws = LawSequence(model, ProcessSequenceSpec((start,), uniform))

    coupling = build_skorohod_coupling(model, laws, args.depth)
    print("partition tree:")
    for k, level in enumerate(coupling.tree.levels, start=1):
        for cell in level:
            members = [model.labels[i] for i in cell.members]
            print(f"  level {k} cell {cell.path}: {members} (diameter {cell.diameter})")
    print("windows:", coupling.plan.schedule.windows)
    for n in range(1, coupling.plan.count + 1):
        print(f"  distance bound once N <= {n}:", coupling.distance_bound(n))

    violations = 0
    realized = Counter()
    index_counts = Counter()
    # one generator, reseeded per sample to the state of streams.stream(seed, "sample", i)
    rng = random.Random()
    for derived in islice(streams.seeds(args.seed, "sample"), args.samples):
        rng.seed(derived)
        draw = sample_coupled_points(coupling, rng)
        violations += bool(distance_violations(coupling, draw))
        index_counts[draw.index] += 1
        for n in range(draw.index, coupling.plan.count + 1):
            d = model.distance(draw.point, draw.member_points[n - 1])
            realized[(n, str(d))] += 1

    print(f"\n{args.samples} samples, distance violations: {violations}")
    print("law of N (empirical):", dict(sorted(index_counts.items())))
    print("realized d(X_n, X) for n >= N:")
    for (n, d), c in sorted(realized.items()):
        print(f"  n={n} d={d}: {c}")

    print()
    print(audit_skorohod(coupling).to_text())


if __name__ == "__main__":
    main()
