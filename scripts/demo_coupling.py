#!/usr/bin/env python3
"""Walk through the coupling construction on a two-point example.

Builds the plan for one skewed member law against the uniform limit,
prints the schedule, ladder, mixture components and a few coupled
draws, then audits every exact invariant.
"""
import argparse
import random
from fractions import Fraction as F

from windowcoupling import (
    Alphabet,
    MassFunction,
    ProcessSequenceSpec,
    ProductSpace,
    audit_plan,
    build_plan,
    exact_joint_law,
    sample,
)


def show(law):
    return {law.space.format_point(z): str(v) for z, v in sorted(law.mass.items())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=10)
    args = parser.parse_args()

    space = ProductSpace((Alphabet(("a", "b")),))
    member = MassFunction.from_masses(space, {(0,): F(1, 4), (1,): F(3, 4)})
    limit = MassFunction.from_masses(space, {(0,): F(1, 2), (1,): F(1, 2)})
    seq = ProcessSequenceSpec((member,), limit)

    plan = build_plan(seq)
    print("member law :", show(member))
    print("limit law  :", show(limit))
    print("windows    :", plan.schedule.windows)
    print("index law  :", show(plan.index_law))
    for n in range(1, plan.count + 1):
        print(f"increment {n}:", show(plan.increment_laws[n - 1]))
        print(f"residual  {n}:", show(plan.residual_laws[n - 1]))

    joint = exact_joint_law(plan)
    print("joint agreement mass:", joint.agreement_mass())
    print("joint member-1 marginal equals member law:",
          joint.marginal_member(1) == member)

    rng = random.Random(args.seed)
    print(f"\n{args.samples} draws (N, coupled limit point, member points):")
    for _ in range(args.samples):
        draw = sample(plan, rng)
        points = [space.format_point(z) for z in draw.member_points]
        print(f"  N={draw.index}  Z={space.format_point(draw.limit_point)}  Zn={points}")

    print()
    print(audit_plan(plan).to_text())


if __name__ == "__main__":
    main()
