"""Widening-window coupling construction for discrete-time process laws.

Given a sequence of laws converging in density in every finite window,
this module materializes the coupling in four stages:

1. a non-decreasing window schedule whose per-index mass deficit is
   certified below ``2**-n``;
2. a ladder of sub-probability measures: window infima extended to the
   full space along the limit law's conditional kernel (``floors``) and
   the lower envelopes, the pointwise minima of the floors from index n
   on, whose masses telescope to one (``envelopes``);
3. the mixture decomposition, derived from the envelopes: the law of
   the agreement index N, the envelope increment laws (full-space
   components) and the residual window laws used while N has not been
   reached;
4. an exact sampler, which extends each window prefix to a full point
   by the member's conditional law given that prefix, drawn from one
   sorted table per member in which every prefix's row is a contiguous
   slice; the index, increment and residual laws are drawn from the
   same kind of table at window 0, whose one row is the law itself;
   the exact law of every component at any size, its window mixture
   extended along the member; and, for small instances, brute-force
   enumeration of the whole joint law as an independent oracle.

A plan stores only the sequence and the schedule.  Everything else is
derived from them, once per plan and only when read, on one path
(``CouplingPlan``).  The envelopes come first, as laws on the k_M
window: floor n is the table's window infimum inf_n|k_n extended along
the limit law L, and envelope n is the pointwise minimum of the floors
from index n on.  The schedule does not decrease, so each of these is
its k_M-marginal extended along L, and ``build_ladder`` sweeps the
k_M-marginals from E_{M+1}|k_M = L|k_M down, by the pointwise minimum
with which the window table sweeps its infima.  The mixture follows
from the envelopes; only ``CouplingPlan.ladder`` extends the floors and
the envelopes to the full space.  Kernel row n at a
prefix is member n's conditional law given that prefix.  Component n's prefix
always has positive mass under member n: while N > n it is drawn from
the residual law, which sits below the member's window marginal, and
from N on it is the limit point's, drawn from the N-th envelope, which
every later member dominates on its window.  Sorting member n's support
makes each row a slice of one ``KernelTable`` per member, built once per
plan; only the joint-law oracle builds the rows as laws
(``CouplingPlan.kernels``).

Every derived law comes from four operations: ``window_marginal``,
``pointwise_minimum`` and ``weighted_sum`` of ``measures``, and one
integer step here, ``_extended``, which extends a window law along a
law's conditionals given the k-prefix, reading the law's k-marginal
from the sequence's window table.  The envelopes are swept by pointwise
minima; the increments and the residuals are differences of laws
(weighted sums) over their masses; the exact marginals' window mixtures
and limit law are weighted sums; floors, envelopes, increments, tail
mixtures and exact marginals are extended.

A point is its ``int`` code in its space (see ``measures``), and its
k-prefix is the code floor-divided by the space's stride at k, which is
the prefix's own code in the window space.  The schedule's prefixes,
the envelopes, the kernel tables' rows and the sampler's lookups
are all keyed by these ints.  Sorted codes are the tuples in
lexicographic order, so tables, draws and artifacts do not depend on
the coding; check witnesses and errors name points by their tuples.

Every window marginal and window infimum the construction and its
checks read comes from the sequence's one ``WindowTable``
(``ProcessSequenceSpec.window_table``), so a built plan and a loaded
one each fill one table, which its audit reads too.  The table computes
a marginal or an infimum only when it is read, and the schedule scan
reads index n only at windows between k_n and k_{n+1}, so no infimum
wider than the schedule can use is computed; the envelopes and the
checks read each index at its scheduled window.
Every member after the M-th is the limit law, which makes density
convergence automatic (from index M + 1 on only the limit law remains),
so no convergence scan runs.

``window_infimum``, ``window_deficit``, ``extend_window_law`` and
``extended_floor`` compute the same quantities one ``Fraction`` at a
time; they are the reference the table and the extension are tested
against.

Every quantity is an exact rational.  Laws are integer weights over one
denominator each (see ``measures``), so the ladder, the mixture and the
checks add, scale and compare integers; plan construction verifies the paper's
identities and refuses to return an inconsistent plan.

Every exact check is a witness function run by ``run_checks``: the plan
checks here, the partition-tree checks of ``skorohod`` and the marginal
check of ``verify``.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from random import Random
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .measures import (
    ONE,
    ZERO,
    Alphabet,
    MassFunction,
    Point,
    ProcessSequenceSpec,
    ProductSpace,
    density_convergence,  # noqa: F401  (perfbench/tracer.py wraps it here)
    pointwise_minimum,
    prefix_conditionals,
    weighted_sum,
    window_infimum,
    window_marginal,
)


class EnumerationCapError(ValueError):
    """Joint-law enumeration would exceed the configured support cap."""


class InternalInvariantError(RuntimeError):
    """A construction invariant failed; this signals a bug, not bad input."""


class ExactCheck(NamedTuple):
    name: str
    passed: bool
    witness: str | None


def run_checks(*checks: tuple[str, Callable[[], str | None]]) -> list[ExactCheck]:
    """Each named witness function run as an exact check, in the order given.

    A witness of None passes.  An exception raised while checking, as on
    corrupted data, is the witness of its own check alone.
    """
    results = []
    for name, witness_of in checks:
        try:
            witness = witness_of()
        except Exception as exc:  # corrupted data may break check arithmetic
            witness = f"check raised {type(exc).__name__}: {exc}"
        results.append(ExactCheck(name, witness is None, witness))
    return results


class DeficitEntry(NamedTuple):
    index: int
    window: int
    deficit: Fraction
    bound: Fraction


@dataclass(frozen=True)
class WindowSchedule:
    """Non-decreasing window lengths k_1..k_{M+1}, ending at the full width."""

    windows: tuple[int, ...]

    def window(self, n: int) -> int:
        return self.windows[n - 1]


@dataclass(frozen=True)
class MeasureLadder:
    """The measure ladder underlying the mixture decomposition.

    ``floors[n-1]`` is the window infimum at the scheduled window,
    extended to the full space along the limit law; ``envelopes[n-1]``
    is the pointwise minimum of the floors from index n on.  Envelopes
    are pointwise non-decreasing and the last one equals the limit law
    exactly.  A plan does not store it and derives it on demand
    (``CouplingPlan.ladder``) by extending its k_M-window laws: the
    floors' window infima and the envelopes' k_M-marginals
    (``build_ladder``), which are all that the mixture needs.
    """

    floors: tuple[MassFunction, ...]
    envelopes: tuple[MassFunction, ...]


@dataclass(frozen=True)
class KernelRow:
    """One extension-kernel row of component n at a k_n-prefix.

    ``law`` is member n's conditional law given the prefix, a full-space
    probability law concentrated on the prefix's cylinder.  Rows are
    derived from the member (``CouplingPlan.kernels``), never stored,
    and exist only at prefixes where the member has positive mass, which
    are the only prefixes the sampler can land on.  Only the joint-law
    oracle ``exact_joint_law`` reads them; the sampler draws each row
    from its slice of a ``KernelTable`` instead.
    """

    law: MassFunction


@dataclass(frozen=True)
class CouplingPlan:
    """Coupling of a process-law sequence: the sequence and its window schedule.

    These are all a plan stores.  Everything else is derived on first
    read and kept with the plan, on the one path that ``build_plan`` and
    a loaded document share.  ``envelopes[n-1]``, for n = 1..M + 1, is
    E_n|k_M, envelope n's marginal on the k_M window
    (k_M = ``schedule.windows[-2]``): ``build_ladder``'s sweep for
    n <= M, and L|k_M, the limit law's, for n = M + 1.  Envelope n is
    E_n|k_M extended along L.  N = n is the index law's point with code
    n - 1, and a law drawn only on an event of probability 0 is the
    empty law.

    On a non-decreasing schedule every derived law is a law by
    construction.  The sweep gives E_1|k_M <= ... <= E_M|k_M <= L|k_M,
    so every increment E_n - E_{n-1} is non-negative with total
    P(N = n), hence empty where P(N = n) = 0.  It also gives
    E_n|k_M <= F_n, floor n's k_M-marginal, whose k_n-marginal is
    inf_n|k_n <= P_n|k_n; every residual P_n|k_n - E_n|k_n is then
    non-negative with total P(N > n), hence empty where P(N > n) = 0.
    The mixture rebuilds the limit, since E_{M+1} = L, and window
    mixture n, E_n|k_n + P(N > n) * residual n, is P_n|k_n.  The plan
    keeps neither sum: ``coupling_marginals`` takes each by
    ``weighted_sum`` when it runs.  So the audit (``plan_exact_checks``)
    checks only the schedule and the mass bound.  A decreasing schedule
    still loads and fails ``schedule-monotone``; where some k_n exceeds
    k_M the derivation raises, and the checks that read a derived law
    report that as their witness.

    ``draw_tables`` holds every table a draw reads, and every
    ``CouplingSampler`` of the plan shares it; ``kernels[n-1]`` maps each
    k_n-prefix of positive mass under member n to its extension row as
    a law and is read only by ``exact_joint_law``; ``window_strides``
    holds the stride of each scheduled window (a window out of range
    raises WindowRangeError); ``spec_sha256`` is the hash of the
    sequence's document that reports record, written by
    ``jsonio.sequence_to_doc``, which copies each law that was read in
    the written form as read (``MassFunction.as_read``).
    """

    sequence: ProcessSequenceSpec
    schedule: WindowSchedule

    @cached_property
    def envelopes(self) -> tuple[MassFunction, ...]:
        """E_n|k_M for n = 1..M (``build_ladder``), then L|k_M."""
        last = self.schedule.windows[-2]
        limit = self.sequence.window_table.marginal(self.count, last)
        return (*build_ladder(self.sequence, self.schedule), limit)

    @cached_property
    def envelope_windows(self) -> tuple[MassFunction, ...]:
        """E_n|k_n: each E_n|k_M marginalized to k_n; then L."""
        pairs = zip(self.schedule.windows, self.envelopes[:-1])
        return (*(window_marginal(env, k) for k, env in pairs), self.sequence.limit)

    @cached_property
    def index_cumulative(self) -> tuple[Fraction, ...]:
        """P(N <= n) for n = 1..M+1: the masses of the envelopes."""
        return tuple(env.total_mass for env in self.envelopes)

    @cached_property
    def index_law(self) -> MassFunction:
        """P(N = n) = P(N <= n) - P(N <= n - 1) on one coordinate with the labels 1..M+1."""
        space = ProductSpace((Alphabet(tuple(str(n) for n in range(1, self.count + 1))),))
        steps = itertools.pairwise((ZERO, *self.index_cumulative))
        return MassFunction.from_masses(space, {n: c - prev for n, (prev, c) in enumerate(steps)})

    @cached_property
    def increment_laws(self) -> tuple[MassFunction, ...]:
        """(E_n - E_{n-1}) / P(N = n): E_n|k_M - E_{n-1}|k_M normalized, extended along L.

        E_0 is the zero measure; where E_n equals E_{n-1} the increment is
        the empty law, and nothing is extended.
        """
        limit = self.sequence.limit
        top = self.envelopes[-1]
        empty = MassFunction(limit.space, 1, {})
        laws = []
        for lower, upper in itertools.pairwise((MassFunction(top.space, 1, {}), *self.envelopes)):
            excess = _normalized_excess(upper, lower)
            laws.append(_extended(limit, top, excess) if excess.weights else empty)
        return tuple(laws)

    @cached_property
    def residual_laws(self) -> tuple[MassFunction, ...]:
        """P_n|k_n - E_n|k_n over its mass P(N > n), and the empty law where P(N > n) = 0."""
        space = self.sequence.space
        table = self.sequence.window_table
        return tuple(
            _normalized_excess(table.marginal(n, k), env)
            if reached != 1
            else MassFunction(space.window(k), 1, {})
            for n, (k, env, reached) in enumerate(
                zip(self.schedule.windows, self.envelope_windows, self.index_cumulative), 1
            )
        )

    @cached_property
    def kernels(self) -> tuple[dict[Point, KernelRow], ...]:
        """Per component n, member n's conditional law at each k_n-prefix of positive mass."""
        return tuple(
            {
                prefix: KernelRow(law)
                for prefix, law in prefix_conditionals(
                    self.sequence.member(n), self.schedule.window(n)
                ).items()
            }
            for n in range(1, self.count + 1)
        )

    @cached_property
    def draw_tables(self) -> "DrawTables":
        """The sampling tables of the laws a draw can reach, built once per plan."""
        return DrawTables(
            KernelTable(self.index_law),
            tuple(
                KernelTable(law) if self.index_probability(n) else None
                for n, law in enumerate(self.increment_laws, start=1)
            ),
            tuple(
                KernelTable(law) if self.index_tail_probability(n) else None
                for n, law in enumerate(self.residual_laws, start=1)
            ),
            tuple(
                KernelTable(self.sequence.member(n), k)
                for n, k in enumerate(self.schedule.windows, start=1)
            ),
        )

    @cached_property
    def ladder(self) -> MeasureLadder:
        """The floors, and each E_n|k_M extended along the limit law."""
        floors = extended_floors(self.sequence, self.schedule)
        limit, top = self.sequence.limit, self.envelopes[-1]
        envelopes = (*(_extended(limit, top, env) for env in self.envelopes[:-1]), limit)
        return MeasureLadder(floors, envelopes)

    @property
    def count(self) -> int:
        """Number of coupled components, horizon + 1."""
        return self.sequence.horizon + 1

    def index_probability(self, n: int) -> Fraction:
        return self.index_law[n - 1]

    def index_tail_probability(self, n: int) -> Fraction:
        """P(N > n)."""
        return ONE - self.index_cumulative[n - 1]

    @cached_property
    def window_strides(self) -> tuple[int, ...]:
        """The stride of each scheduled window in the sequence's space."""
        return tuple(map(self.sequence.space.stride, self.schedule.windows))

    @cached_property
    def sampler(self) -> "CouplingSampler":
        return CouplingSampler(self)

    @cached_property
    def spec_sha256(self) -> str:
        """SHA-256 of the sequence's canonical document, computed once per plan, on first read."""
        from . import jsonio  # jsonio imports this module

        return jsonio.document_sha256(jsonio.sequence_to_doc(self.sequence))


class CouplingSample(NamedTuple):
    """One realization (N, limit point, per-index member points)."""

    index: int
    limit_point: Point
    member_points: tuple[Point, ...]

    def agreement_holds(self, strides: Sequence[int]) -> bool:
        """Window prefixes of components with n >= N match the limit point's.

        ``strides[n-1]`` is the stride of component n's window, as in
        ``CouplingPlan.window_strides``.
        """
        index, limit_point, member_points = self
        for n in range(index, len(member_points) + 1):
            stride = strides[n - 1]
            if member_points[n - 1] // stride != limit_point // stride:
                return False
        return True


def window_deficit(seq: ProcessSequenceSpec, n: int, k: int) -> Fraction:
    """Mass missing from the k-window infimum starting at index n."""
    return ONE - window_infimum(seq, n, k).total_mass


def largest_feasible_windows(seq: ProcessSequenceSpec) -> list[int]:
    """Per index n, the largest window whose deficit is at most 2**-n.

    The deficit is non-decreasing in the window length, so scanning from
    the full width down finds the maximum; window 0 always has deficit 0.
    This reads the infimum of every index at every window down to its
    cap; ``build_schedule`` reads fewer and finds the same schedule, so
    this is the reference it is tested against.
    """
    table = seq.window_table
    full = seq.space.width
    caps: list[int] = []
    for n in range(1, seq.horizon + 2):
        bound = Fraction(1, 2**n)
        for k in range(full, -1, -1):
            if table.deficit(n, k) <= bound:
                caps.append(k)
                break
    return caps


def build_schedule(seq: ProcessSequenceSpec) -> WindowSchedule:
    """The pointwise-largest non-decreasing schedule meeting all deficit bounds.

    Taking the running minimum of the per-index largest feasible windows
    over all later indices dominates every other valid schedule: any
    non-decreasing choice is bounded at index n by each later index's
    feasible maximum.  Greedily maximizing index by index instead can
    dead-end when a later bound tightens faster than its deficit shrinks.
    From index M + 1 on only the limit law remains, so its deficit is 0
    in every window and the schedule always reaches the full width.

    The scan walks n = M + 1 down to 1 and lowers one running window
    while its deficit at n exceeds 2**-n.  Since the deficit does not
    decrease in the window length and window 0 has deficit 0, it stops
    at the smaller of the running window and index n's largest feasible
    window, which is that running minimum (``largest_feasible_windows``)
    without reading any window wider than the schedule can use.
    """
    table = seq.window_table
    running = seq.space.width
    windows: list[int] = []
    for n in range(seq.horizon + 1, 0, -1):
        bound = Fraction(1, 2**n)
        while table.deficit(n, running) > bound:
            running -= 1
        windows.append(running)
    windows.reverse()
    return WindowSchedule(tuple(windows))


def extend_window_law(window_law: MassFunction, full_law: MassFunction) -> MassFunction:
    """Extend a window law to the full space along full_law's suffix kernel.

    The result places, above each prefix, the window law's prefix mass
    split proportionally to full_law's conditional suffix masses.  Its
    window marginal reproduces the input exactly, so total mass is
    preserved.  Requires the window law's support to be dominated by
    full_law's window marginal.  It computes one ``Fraction`` at a time
    and is the reference the integer extension is tested against.
    """
    k = window_law.space.width
    full_prefix = window_marginal(full_law, k).mass
    window_mass = window_law.mass
    prefix = full_law.space.prefix
    out: dict[Point, Fraction] = {}
    for z, value in full_law.mass.items():
        prefix_mass = window_mass.get(prefix(z, k), ZERO)
        if prefix_mass > 0:
            out[z] = prefix_mass * value / full_prefix[prefix(z, k)]
    extended = MassFunction.from_masses(full_law.space, out)
    if extended.total_mass != window_law.total_mass:
        # only possible if some window mass sits on a zero-mass prefix
        raise InternalInvariantError(
            "window law not dominated by the extending law's marginal"
        )
    return extended


def extended_floor(
    seq: ProcessSequenceSpec, schedule: WindowSchedule, n: int
) -> MassFunction:
    """The scheduled window infimum at index n, extended to the full space."""
    return extend_window_law(
        window_infimum(seq, n, schedule.window(n)), seq.limit
    )


def _extended(law: MassFunction, marginal: MassFunction, window_law: MassFunction) -> MassFunction:
    """law(z) * window(z|k) / marginal(z|k), where ``marginal`` is law's k-marginal.

    This is the window law, of width k, extended along law's conditionals
    given the k-prefix; it is 0 above a prefix the window law does not
    charge, and law itself where the window law equals the marginal.  A
    prefix that the window law charges and the marginal does not raises
    ``KeyError`` naming the prefix as a tuple.
    """
    stride = law.space.stride(window_law.space.width)
    if window_law == marginal:
        return law
    below = marginal.weights
    try:
        common = math.lcm(*(below[p] for p in window_law.weights))
    except KeyError as exc:
        raise KeyError(marginal.space.decode(exc.args[0])) from None
    scale = marginal.denominator * common
    factors = {p: w * (scale // below[p]) for p, w in window_law.weights.items()}
    return MassFunction._derived(
        law.space,
        law.denominator * window_law.denominator * common,
        {z: w * factors.get(z // stride, 0) for z, w in law.weights.items()},
    )


def extended_floors(
    seq: ProcessSequenceSpec, schedule: WindowSchedule
) -> tuple[MassFunction, ...]:
    """Every scheduled window infimum, extended to the full space along the limit law."""
    table = seq.window_table
    limit_index = seq.horizon + 1
    return tuple(
        _extended(seq.limit, table.marginal(limit_index, k), table.infimum(n, k))
        for n, k in enumerate(schedule.windows, start=1)
    )


def build_ladder(seq: ProcessSequenceSpec, schedule: WindowSchedule) -> tuple[MassFunction, ...]:
    """The envelopes' k_M-marginals E_1|k_M..E_M|k_M, swept from index M down.

    F_n, floor n's k_M-marginal, is the window infimum inf_n|k_n
    extended along L|k_M, the limit law's k_M-marginal.  The sweep starts
    from L|k_M and takes E_n|k_M = min(E_{n+1}|k_M, F_n) by
    ``pointwise_minimum``, the step that sweeps the window table's
    infima.  So E_1|k_M <= ... <= E_M|k_M <= L|k_M and E_n|k_M <= F_n at
    every prefix: this is why ``CouplingPlan`` needs no audit of the
    envelopes.  A window k_n wider than k_M, which only a decreasing
    schedule has, raises WindowRangeError.  Every law is read from the
    sequence's window table, and none is extended to the full space (see
    ``extended_floors``).
    """
    table = seq.window_table
    limit_index = seq.horizon + 1
    limit = running = table.marginal(limit_index, schedule.windows[-2])
    envelopes = []
    for n in range(seq.horizon, 0, -1):
        k = schedule.window(n)
        floor = _extended(limit, table.marginal(limit_index, k), table.infimum(n, k))
        running = pointwise_minimum(running, floor)
        envelopes.append(running)
    envelopes.reverse()
    return tuple(envelopes)


def _normalized_excess(upper: MassFunction, lower: MassFunction) -> MassFunction:
    """upper - lower (``weighted_sum``) over its mass; the empty law where that is 0."""
    excess = weighted_sum(upper.space, ((1, upper), (-1, lower)))
    total = sum(excess.weights.values())
    if not total:
        return MassFunction(upper.space, 1, {})
    return MassFunction._derived(upper.space, total, excess.weights)


def build_plan(seq: ProcessSequenceSpec) -> CouplingPlan:
    """Schedule the windows; the envelopes and the mixture are derived from them.

    The plan's identities are re-checked by exact arithmetic, and a
    failure raises InternalInvariantError rather than returning a bad
    plan.
    """
    plan = CouplingPlan(seq, build_schedule(seq))
    failures = [c for c in plan_exact_checks(plan) if not c.passed]
    if failures:
        raise InternalInvariantError(
            "plan invariants violated: "
            + "; ".join(f"{c.name} ({c.witness})" for c in failures)
        )
    return plan


def deficit_entries(plan: CouplingPlan) -> list[DeficitEntry]:
    table = plan.sequence.window_table
    return [
        DeficitEntry(
            n,
            plan.schedule.window(n),
            table.deficit(n, plan.schedule.window(n)),
            Fraction(1, 2**n),
        )
        for n in range(1, plan.count + 1)
    ]


def plan_exact_checks(plan: CouplingPlan) -> list[ExactCheck]:
    """The paper's identities for a plan, as exact pass/fail results.

    Used both by plan construction (which refuses to return a failing
    plan) and by the audit report.  A plan stores only its sequence and
    its schedule, so the checks are on the schedule: it does not
    decrease, it reaches the full window, each window meets its deficit
    bound, and the derived envelopes bound P(N > n) by 2**-(n-1).  Every
    other identity of the mixture holds by its derivation on a
    non-decreasing schedule (see ``CouplingPlan``).  The checks are
    witness functions run by ``run_checks``, so an exception raised
    while checking, as when a decreasing schedule's envelopes cannot be
    derived, fails that check alone.  Every law is read from the
    sequence's window table.
    """
    schedule = plan.schedule
    full = plan.sequence.space.width

    def schedule_monotone() -> str | None:
        for a, b in itertools.pairwise(schedule.windows):
            if b < a:
                return f"window drops from {a} to {b}"
        return None

    def schedule_full() -> str | None:
        if schedule.windows[-1] != full:
            return f"final window {schedule.windows[-1]} != width {full}"
        return None

    def deficit_certificates() -> str | None:
        for entry in deficit_entries(plan):
            if entry.deficit > entry.bound:
                return f"n={entry.index}: deficit {entry.deficit} > {entry.bound}"
        return None

    def ladder_mass_bound() -> str | None:
        for n, reached in enumerate(plan.index_cumulative, start=1):
            gap = ONE - reached
            bound = Fraction(1, 2 ** (n - 1))
            if gap > bound:
                return f"n={n}: envelope mass gap {gap} > {bound}"
        return None

    return run_checks(
        ("schedule-monotone", schedule_monotone),
        ("schedule-reaches-full-window", schedule_full),
        ("window-deficit-certificates", deficit_certificates),
        ("ladder-mass-bound", ladder_mass_bound),
    )


class KernelTable:
    """Exact draws from a law's conditionals given its k-prefixes, one sorted table.

    ``points`` is the law's support in sorted order.  Sorting puts the
    points of each k-prefix next to each other, so ``slices`` maps each
    k-prefix code of positive mass to ``(lo, hi, total)``, its row being
    ``points[lo:hi]``.  The row's law, the conditional given the prefix,
    is in canonical form its weights divided by their gcd over the sum
    ``total`` of those quotients; ``cumulative[lo:hi]`` holds their
    running sums, so one uniform draw from ``range(total)`` (``draw_below``)
    is distributed exactly.  Window 0 (the default) gives the law itself: a canonical
    probability law's weights have gcd 1, so its one slice ``()`` spans
    the whole table with the law's denominator as its total, at the
    unit space's one point, code 0.  Every
    draw of the sampler reads one of these tables.
    """

    __slots__ = ("points", "cumulative", "slices")

    def __init__(self, law: MassFunction, k: int = 0) -> None:
        if not law.is_probability:
            raise ValueError("can only sample probability laws")
        weights = law.weights
        stride = law.space.stride(k)
        self.points = points = sorted(weights)
        ordered = [weights[z] for z in points]
        prefixes = [z // stride for z in points]
        starts = [i for i, (a, b) in enumerate(itertools.pairwise(prefixes), 1) if a != b]
        self.cumulative: list[int] = []
        self.slices: dict[Point, tuple[int, int, int]] = {}
        for lo, hi in itertools.pairwise([0, *starts, len(points)]):
            row = ordered[lo:hi]
            g = math.gcd(*row)
            self.cumulative += itertools.accumulate([w // g for w in row])
            self.slices[prefixes[lo]] = (lo, hi, self.cumulative[-1])

    def draw(self, rng: Random, prefix: Point = 0) -> Point:
        """One point of the conditional law given ``prefix``."""
        lo, hi, total = self.slices[prefix]
        return self.points[bisect_right(self.cumulative, draw_below(rng, total), lo, hi)]


def draw_below(rng: Random, total: int) -> int:
    """A uniform draw from ``range(total)``: ``total.bit_length()`` bits, redrawn while too large.

    These are the calls to ``getrandbits`` that ``rng.randrange(total)``
    makes on Python 3.10 to 3.13, so the draw and the generator's state
    after it are the same, without the standard library's argument
    handling around them and without depending on how a later version
    implements ``randrange``.
    """
    bits = total.bit_length()
    value = rng.getrandbits(bits)
    while value >= total:
        value = rng.getrandbits(bits)
    return value


class DrawTables(NamedTuple):
    """A plan's sampling tables; the slot of a law no draw can reach holds None.

    The index, increment and residual tables are window-0 tables of
    their laws; kernel table n is member n's table at window k_n.
    """

    index: KernelTable
    increments: tuple[KernelTable | None, ...]
    residuals: tuple[KernelTable | None, ...]
    kernels: tuple[KernelTable, ...]


class CouplingSampler:
    """Reusable exact sampler for one plan.

    Draw order per sample, fixed for reproducibility: the agreement
    index N, then the full limit point, then for each component index
    n = 1..M+1 the window prefix (only when n < N) followed by the
    kernel-row draw for that prefix.  Every table is a ``KernelTable``
    from the plan's ``draw_tables``, built once per plan and shared by
    every sampler of it: the window-0 tables of the index law, of
    increment n where P(N = n) > 0 and of residual n where P(N > n) > 0
    (the other slots hold None), and member n's table at window k_n,
    whose rows are slices.  Every row is drawn as ``draw_below`` draws
    it, with the bits ``randrange`` would consume; the kernel-row draw
    is inlined, since it runs once per component (a call to
    ``draw_below`` there cost about 1 µs of an 8 µs sample on
    ``widening``).
    """

    def __init__(self, plan: CouplingPlan) -> None:
        self.plan = plan
        tables = plan.draw_tables
        self._index_table = tables.index
        self._increment_tables = tables.increments
        # per component n: the stride of window k_n, the residual table and
        # kernel table n's parts
        self._components = tuple(
            (stride, residual, kernel.slices, kernel.points, kernel.cumulative)
            for stride, residual, kernel in zip(
                plan.window_strides, tables.residuals, tables.kernels
            )
        )

    def sample(self, rng: Random) -> CouplingSample:
        index = self._index_table.draw(rng) + 1
        limit_point = self._increment_tables[index - 1].draw(rng)
        getrandbits = rng.getrandbits
        members: list[Point] = []
        for n, (stride, residual, slices, points, cumulative) in enumerate(
            self._components, start=1
        ):
            prefix = residual.draw(rng) if n < index else limit_point // stride
            row = slices.get(prefix)
            if row is None:
                window = self.plan.sequence.space.window(self.plan.schedule.window(n))
                raise InternalInvariantError(
                    f"no kernel row for prefix {window.decode(prefix)!r} at index {n}"
                )
            lo, hi, total = row
            bits = total.bit_length()
            value = getrandbits(bits)
            while value >= total:
                value = getrandbits(bits)
            members.append(points[bisect_right(cumulative, value, lo, hi)])
        return CouplingSample(index, limit_point, tuple(members))


def sample(plan: CouplingPlan, rng: Random) -> CouplingSample:
    """Draw one coupled realization; see CouplingSampler for draw order."""
    return plan.sampler.sample(rng)


def _tail_mixture_laws(plan: CouplingPlan) -> dict[int, MassFunction]:
    """Per component n with P(N > n) > 0, its law on that event: residual n extended."""
    table = plan.sequence.window_table
    laws = zip(plan.schedule.windows, plan.residual_laws)
    return {
        n: _extended(plan.sequence.member(n), table.marginal(n, k), residual)
        for n, (k, residual) in enumerate(laws, start=1)
        if plan.index_tail_probability(n)
    }


def coupling_marginals(
    plan: CouplingPlan,
) -> tuple[tuple[MassFunction, ...], MassFunction]:
    """The exact law of every component and of the limit point, unenumerated.

    Component n's k_n-prefix has the window mixture E_n|k_n +
    P(N > n) * residual n (``weighted_sum``).  The last component's has
    P(N > M) = 0 and equals member M's k_M-marginal, so ``_extended``
    returns member M itself.  Component n extends its prefix along
    member n's conditional, so its law is the window mixture extended
    along member n.  The limit point's law is the sum of P(N = n) times
    increment n.  These are the marginals of ``exact_joint_law``.  The
    increments are exactly the envelopes' differences or raise, so they
    sum to the limit law on every plan whose mixture is made of laws.
    """
    table = plan.sequence.window_table
    members = []
    for n, (k, envelope, residual) in enumerate(
        zip(plan.schedule.windows, plan.envelope_windows, plan.residual_laws), start=1
    ):
        terms = ((1, envelope), (plan.index_tail_probability(n), residual))
        mixture = weighted_sum(envelope.space, terms)
        members.append(_extended(plan.sequence.member(n), table.marginal(n, k), mixture))
    limit = weighted_sum(
        plan.sequence.space,
        ((plan.index_probability(n), law) for n, law in enumerate(plan.increment_laws, start=1)),
    )
    return tuple(members), limit


def joint_support_size(plan: CouplingPlan) -> int:
    """Exact support size of the joint law enumerated by exact_joint_law.

    Component n has, given its prefix, the support of its kernel row,
    one slice of kernel table n; on {N > n} it has the tail mixture's
    support, whose rows sit on disjoint cylinders, so its size is the
    sum of the row sizes over the residual law's prefixes.
    """
    return sum(_joint_support_terms(plan))


def _joint_support_terms(plan: CouplingPlan) -> Iterator[int]:
    """The joint support's size for each (N, limit point) in turn; their sum is the whole."""
    sizes = [
        {prefix: hi - lo for prefix, (lo, hi, _) in table.slices.items()}
        for table in plan.draw_tables.kernels
    ]
    strides = plan.window_strides
    tails = {
        n: sum(sizes[n - 1][prefix] for prefix in plan.residual_laws[n - 1].weights)
        for n in range(1, plan.count + 1)
        if plan.index_tail_probability(n)
    }
    for m in range(1, plan.count + 1):
        if plan.index_probability(m) == 0:
            continue
        for z in plan.increment_laws[m - 1].weights:
            combos = 1
            for n in range(1, plan.count + 1):
                combos *= sizes[n - 1][z // strides[n - 1]] if n >= m else tails[n]
            yield combos


@dataclass(frozen=True)
class JointLaw:
    """Brute-force enumeration of the sampler's joint law.

    Entries map (N, limit point, member points) to exact mass.  The
    marginal accessors recompute laws by summation over entries, making
    this an independent oracle for the mixture identities.
    """

    plan: CouplingPlan
    mass: Mapping[tuple[int, Point, tuple[Point, ...]], Fraction]

    @property
    def total_mass(self) -> Fraction:
        return sum(self.mass.values(), ZERO)

    def _marginal(self, space: ProductSpace, point_of: Callable[[tuple], Point]) -> MassFunction:
        """The law on ``space`` of ``point_of(entry)``, summed one ``Fraction`` at a time."""
        acc: dict[Point, Fraction] = {}
        for entry, v in self.mass.items():
            z = point_of(entry)
            acc[z] = acc.get(z, ZERO) + v
        return MassFunction.from_masses(space, acc)

    def index_marginal(self) -> MassFunction:
        return self._marginal(self.plan.index_law.space, lambda entry: entry[0] - 1)

    def marginal_limit(self) -> MassFunction:
        return self._marginal(self.plan.sequence.space, lambda entry: entry[1])

    def marginal_member(self, n: int) -> MassFunction:
        return self._marginal(self.plan.sequence.space, lambda entry: entry[2][n - 1])

    def agreement_mass(self) -> Fraction:
        prefix = self.plan.sequence.space.prefix
        windows = self.plan.schedule.windows
        total = ZERO
        for (m, z, pts), v in self.mass.items():
            if all(
                prefix(pts[n - 1], windows[n - 1]) == prefix(z, windows[n - 1])
                for n in range(m, len(pts) + 1)
            ):
                total += v
        return total


def exact_joint_law(plan: CouplingPlan, cap: int = 1_000_000) -> JointLaw:
    """Enumerate the exact joint law of (N, limit point, member points).

    Components are conditionally independent given N and the limit
    point, each with the kernel-row law of its prefix (the residual
    window law mixed over prefixes when n < N).  Raises
    EnumerationCapError when the joint support would exceed ``cap``:
    the count stops at the first term that takes it past the cap.
    """
    if any(size > cap for size in itertools.accumulate(_joint_support_terms(plan))):
        raise EnumerationCapError(f"joint support size exceeds cap {cap}")
    mixes = _tail_mixture_laws(plan)
    strides = plan.window_strides
    entries: dict[tuple[int, Point, tuple[Point, ...]], Fraction] = {}
    for m in range(1, plan.count + 1):
        prob = plan.index_probability(m)
        if prob == 0:
            continue
        increment = plan.increment_laws[m - 1]
        for z, vz in increment.weights.items():
            component_laws = [
                plan.kernels[n - 1][z // strides[n - 1]].law if n >= m else mixes[n]
                for n in range(1, plan.count + 1)
            ]
            base = prob.numerator * vz
            denominator = prob.denominator * increment.denominator
            for law in component_laws:
                denominator *= law.denominator
            for combo in itertools.product(
                *(law.weights.items() for law in component_laws)
            ):
                weight = base
                for _, w in combo:
                    weight *= w
                entries[(m, z, tuple(pt for pt, _ in combo))] = Fraction(weight, denominator)
    return JointLaw(plan, entries)
