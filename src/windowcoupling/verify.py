"""Certification and reporting for plans, trees and samplers.

Exact invariants are audited by rational arithmetic and either pass or
fail with a pointwise witness; among them, ``joint_law_marginals``
compares the coupling's exact marginals, each component's window
mixture extended along its member at any size, with the input laws.
Every exact check is run by the engine's ``run_checks``.  ``audit_plan``
and ``audit_skorohod`` share one audit body: the plan checks, then a
metric coupling's tree checks.  It, ``certify`` and ``mc_agreement``
split their target into its plan and coupling in one place, ``_split``.

Monte Carlo suites guard the sampler implementation only: agreement
and distance guarantees hold surely by construction, so any violation
is a bug, while the empirical-versus-exact law comparisons record their
total-variation thresholds in the report rather than hiding constants.  Reports are
deterministic functions of (input, seed, version).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import streams
from .engine import (
    CouplingPlan,
    DeficitEntry,
    ExactCheck,
    build_plan,
    coupling_marginals,
    deficit_entries,
    joint_support_size,
    plan_exact_checks,
    run_checks,
)
from .measures import (
    Alphabet,
    MassFunction,
    ProcessSequenceSpec,
    ProductSpace,
    total_variation,
)
from .skorohod import (
    LawSequence,
    MetricSpaceModel,
    SkorohodCoupling,
    decode_sample,
    distance_violations,
    tree_exact_checks,
)
from .version import __version__


class McCheck(NamedTuple):
    name: str
    samples: int
    failures: int
    note: str

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class VerificationReport:
    exact_checks: tuple[ExactCheck, ...]
    mc_checks: tuple[McCheck, ...]
    deficit_trace: tuple[DeficitEntry, ...]
    provenance: dict

    @property
    def all_exact_passed(self) -> bool:
        return all(c.passed for c in self.exact_checks)

    @property
    def all_passed(self) -> bool:
        return self.all_exact_passed and all(c.passed for c in self.mc_checks)

    def to_text(self) -> str:
        lines = ["verification report"]
        for key in sorted(self.provenance):
            lines.append(f"{key}: {self.provenance[key]}")
        if self.exact_checks:
            lines.append("exact checks:")
            for check in self.exact_checks:
                if check.passed:
                    lines.append(f"  PASS {check.name}")
                else:
                    lines.append(f"  FAIL {check.name}: {check.witness}")
        if self.deficit_trace:
            lines.append("deficit trace:")
            for entry in self.deficit_trace:
                lines.append(
                    f"  n={entry.index} window={entry.window}"
                    f" deficit={entry.deficit} bound={entry.bound}"
                )
        if self.mc_checks:
            lines.append("monte carlo checks:")
            for mc in self.mc_checks:
                verdict = "PASS" if mc.passed else "FAIL"
                lines.append(
                    f"  {verdict} {mc.name}: {mc.failures} failures"
                    f" in {mc.samples} samples ({mc.note})"
                )
        lines.append("overall: " + ("PASS" if self.all_passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _provenance(target: CouplingPlan | SkorohodCoupling, seed: int | None) -> dict:
    return {"spec_sha256": target.spec_sha256, "seed": seed, "version": __version__}


def _split(
    target: CouplingPlan | SkorohodCoupling,
) -> tuple[CouplingPlan, SkorohodCoupling | None]:
    """The target's plan, and the target itself when it is a metric coupling."""
    if isinstance(target, SkorohodCoupling):
        return target.plan, target
    return target, None


def _audit(target: CouplingPlan | SkorohodCoupling) -> VerificationReport:
    """The plan checks, a coupling's tree checks and the deficit trace.

    The plan checks and the deficit trace read the sequence's one window
    table, which a loaded plan has already filled to derive its envelopes.
    """
    plan, coupling = _split(target)
    checks = plan_exact_checks(plan)
    if coupling is not None:
        checks += tree_exact_checks(coupling.tree)
    return VerificationReport(
        exact_checks=tuple(checks),
        mc_checks=(),
        deficit_trace=tuple(deficit_entries(plan)),
        provenance=_provenance(target, None),
    )


def audit_plan(plan: CouplingPlan) -> VerificationReport:
    """Run every exact invariant of the coupling construction."""
    return _audit(plan)


def audit_skorohod(coupling: SkorohodCoupling) -> VerificationReport:
    """Exact plan invariants plus partition-tree invariants."""
    return _audit(coupling)


def _tv_check(name: str, counts: dict, law: MassFunction, samples: int) -> McCheck:
    tv = total_variation(MassFunction._derived(law.space, samples, counts), law)
    size = len(law.weights)
    threshold = 3 * math.sqrt(size / samples)
    note = f"TV {float(tv):.6f} vs threshold 3*sqrt({size}/{samples}) = {threshold:.6f}"
    return McCheck(name, samples, 0 if tv <= threshold else 1, note)


def _sampler_failure(samples: int, drawn: int, exc: Exception) -> McCheck:
    """The one failing check reported when a plan cannot be sampled."""
    return McCheck(
        "sampler-runs",
        samples,
        1,
        f"sampling failed after {drawn} draws: {type(exc).__name__}: {exc}",
    )


def mc_agreement(
    target: CouplingPlan | SkorohodCoupling, samples: int, seed: int
) -> VerificationReport:
    """Sample-based guard of the surely-true coupling guarantees.

    Counts violations of the window-agreement guarantee (and, for a
    metric coupling, the distance guarantee), which must be zero, and
    compares the empirical law of the agreement index against its exact
    law in total variation.  If the sampler cannot be built or fails to
    draw, as for a corrupted plan, the report holds the single failing
    check ``sampler-runs`` whose note names the exception.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    plan, coupling = _split(target)
    provenance = _provenance(target, seed)

    agreement_failures = 0
    distance_failures = 0
    index_counts: dict[int, int] = {}
    point_counts: dict[int, int] = {}
    i = 0
    try:
        sampler = plan.sampler
        strides = plan.window_strides
        # one generator, reseeded per sample to the state of random.Random(derived)
        rng = random.Random()
        for i, derived in zip(range(samples), streams.seeds(seed, "sample")):
            rng.seed(derived)
            draw = sampler.sample(rng)
            if not draw.agreement_holds(strides):
                agreement_failures += 1
            index, limit_point, _ = draw
            index_counts[index - 1] = index_counts.get(index - 1, 0) + 1
            point_counts[limit_point] = point_counts.get(limit_point, 0) + 1
            if coupling is not None:
                if distance_violations(coupling, decode_sample(coupling, draw)):
                    distance_failures += 1
    except Exception as exc:  # a corrupted plan can break sampling anywhere
        return VerificationReport(
            exact_checks=(),
            mc_checks=(_sampler_failure(samples, i, exc),),
            deficit_trace=(),
            provenance=provenance,
        )

    checks = [
        McCheck(
            "window-agreement-violations",
            samples,
            agreement_failures,
            "must be zero: agreement holds surely by construction",
        )
    ]
    if coupling is not None:
        checks.append(
            McCheck(
                "distance-guarantee-violations",
                samples,
                distance_failures,
                "must be zero: the shared cell has diameter below the bound",
            )
        )
    checks.append(
        _tv_check("index-law-total-variation", index_counts, plan.index_law, samples)
    )
    checks.append(
        _tv_check(
            "limit-marginal-total-variation",
            point_counts,
            plan.sequence.limit,
            samples,
        )
    )
    return VerificationReport(
        exact_checks=(),
        mc_checks=tuple(checks),
        deficit_trace=(),
        provenance=provenance,
    )


def joint_law_marginals(plan: CouplingPlan) -> ExactCheck:
    """Whether every exact marginal of the coupling is its input law.

    The marginals come from ``coupling_marginals``, so no joint law is
    enumerated, no kernel row is built and the check runs at any size.
    They read every law the sampler draws, so envelopes that derive no
    law, such as an envelope above a member on its window, fail the
    check with the derivation's error as its witness.  Each member's
    window marginal is read from the sequence's window table.
    """
    seq = plan.sequence

    def marginals_differ() -> str | None:
        members, limit = coupling_marginals(plan)
        for n, law in enumerate(members, start=1):
            if law != seq.member(n):
                return f"component {n} marginal differs"
        if limit != seq.limit:
            return "limit marginal differs"
        return None

    return run_checks(("joint-law-marginals", marginals_differ))[0]


def certify(
    target: CouplingPlan | SkorohodCoupling, samples: int, seed: int
) -> VerificationReport:
    """The report of ``verify`` and ``skorohod``.

    The exact audit, then the exact marginal check, then the Monte Carlo
    guard of ``mc_agreement``.
    """
    audit = _audit(target)
    marginals = joint_law_marginals(_split(target)[0])
    mc = mc_agreement(target, samples, seed)
    return VerificationReport(
        exact_checks=audit.exact_checks + (marginals,),
        mc_checks=mc.mc_checks,
        deficit_trace=audit.deficit_trace,
        provenance={**audit.provenance, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Random instance generation for meta-tests.  Sizes are kept small enough
# that the brute-force joint enumeration stays affordable; instances whose
# joint support would be too large are rejected and redrawn.
# ---------------------------------------------------------------------------

_LETTERS = "abc"


def random_rational_pmf(rng: random.Random, size: int, max_weight: int = 8) -> list[Fraction]:
    while True:
        weights = [rng.randint(0, max_weight) for _ in range(size)]
        total = sum(weights)
        if total > 0:
            return [Fraction(w, total) for w in weights]


def random_process_spec(
    rng: random.Random,
    max_coordinates: int = 3,
    max_alphabet: int = 3,
    max_members: int = 4,
    max_weight: int = 8,
) -> ProcessSequenceSpec:
    width = rng.randint(1, max_coordinates)
    coordinates = tuple(
        Alphabet(tuple(_LETTERS[: rng.randint(1, max_alphabet)]))
        for _ in range(width)
    )
    space = ProductSpace(coordinates)
    points = list(space.points())

    def pmf() -> MassFunction:
        values = random_rational_pmf(rng, len(points), max_weight)
        return MassFunction.from_masses(space, dict(zip(points, values)))

    count = rng.randint(1, max_members)
    return ProcessSequenceSpec(tuple(pmf() for _ in range(count)), pmf())


def random_enumerable_plan(
    rng: random.Random, cap: int = 200_000, **spec_kwargs
) -> tuple[ProcessSequenceSpec, CouplingPlan]:
    """A random spec and its plan, redrawn until the joint law fits the cap."""
    while True:
        seq = random_process_spec(rng, **spec_kwargs)
        plan = build_plan(seq)
        if joint_support_size(plan) <= cap:
            return seq, plan


def random_metric_model(
    rng: random.Random,
    max_points: int = 6,
    dim: int = 2,
    grid: int = 6,
    partial_support: bool = False,
) -> MetricSpaceModel:
    count = rng.randint(1, max_points)
    coords: set[tuple[Fraction, ...]] = set()
    while len(coords) < count:
        coords.add(
            tuple(
                Fraction(rng.randint(0, grid), rng.choice((1, 2, 4)))
                for _ in range(dim)
            )
        )
    rows = sorted(coords)
    labels = tuple(f"p{i}" for i in range(count))
    if partial_support and count > 1:
        flags = [True] * count
        flags[rng.randrange(count)] = False
        if not any(flags):
            flags[0] = True
        support: tuple[bool, ...] | None = tuple(flags)
    else:
        support = None
    return MetricSpaceModel.from_coords(labels, rows, support)


def random_law_sequence(
    rng: random.Random,
    model: MetricSpaceModel,
    max_members: int = 3,
    max_weight: int = 8,
) -> LawSequence:
    space = model.space
    support = model.support_indices()
    count = rng.randint(1, max_members)

    def pmf(indices: list[int]) -> MassFunction:
        values = random_rational_pmf(rng, len(indices), max_weight)
        return MassFunction.from_masses(space, dict(zip(indices, values)))

    everything = list(range(model.size))
    members = tuple(pmf(everything) for _ in range(count))
    return LawSequence(model, ProcessSequenceSpec(members, pmf(support)))
