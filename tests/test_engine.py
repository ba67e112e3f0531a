import itertools
import json
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from math import sqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windowcoupling import (
    Alphabet,
    CouplingSampler,
    EnumerationCapError,
    MassFunction,
    ProcessSequenceSpec,
    ProductSpace,
    WindowSchedule,
    WindowTable,
    audit_plan,
    build_ladder,
    build_plan,
    build_schedule,
    deficit_entries,
    exact_joint_law,
    extend_window_law,
    extended_floor,
    joint_support_size,
    sample,
    conditional_given_prefix,
    window_deficit,
    window_marginal,
)
from windowcoupling import engine, jsonio, measures
from windowcoupling.measures import weighted_sum
from windowcoupling import build_skorohod_coupling
from windowcoupling.engine import (
    CouplingPlan,
    CouplingSample,
    InternalInvariantError,
    KernelTable,
    coupling_marginals,
    extended_floors,
    largest_feasible_windows,
    plan_exact_checks,
)
from windowcoupling.verify import (
    joint_law_marginals,
    random_enumerable_plan,
    random_law_sequence,
    random_metric_model,
    random_process_spec,
)
from conftest import tuple_mass, widening_sequence, with_envelopes


def binary_sequence(member_masses, limit_masses):
    space = ProductSpace((Alphabet(("a", "b")),))

    def law(masses):
        return MassFunction.from_masses(space, {(i,): F(m) for i, m in enumerate(masses) if m})

    members = tuple(law(m) for m in member_masses)
    return ProcessSequenceSpec(members, law(limit_masses))


class TestSchedule:
    def test_constant_sequence_uses_full_windows(self, constant_sequence):
        schedule = build_schedule(constant_sequence)
        assert schedule.windows == (1, 1)
        assert all(e.deficit == 0 for e in deficit_entries_for(constant_sequence))

    def test_quarter_member_keeps_full_window(self):
        seq = binary_sequence([(F(1, 4), F(3, 4))], (F(1, 2), F(1, 2)))
        # infimum mass 3/4, deficit 1/4 <= 1/2
        assert window_deficit(seq, 1, 1) == F(1, 4)
        assert build_schedule(seq).windows == (1, 1)

    def test_point_mass_member_still_feasible(self):
        seq = binary_sequence([(0, 1)], (F(1, 2), F(1, 2)))
        assert window_deficit(seq, 1, 1) == F(1, 2)
        assert build_schedule(seq).windows == (1, 1)

    def test_skewed_limit_forces_window_zero(self):
        seq = binary_sequence([(0, 1)], (F(3, 4), F(1, 4)))
        assert window_deficit(seq, 1, 1) == F(3, 4)
        schedule = build_schedule(seq)
        assert schedule.windows == (0, 1)

    def test_greedy_per_index_maxima_can_dip(self):
        # member 2 is a point mass, so its deficit against the uniform
        # limit exceeds 1/4 at window 1; the largest feasible windows dip
        # in the middle and the schedule must stay below the dip.
        seq = binary_sequence(
            [(F(1, 2), F(1, 2)), (1, 0)], (F(1, 2), F(1, 2))
        )
        assert largest_feasible_windows(seq) == [1, 0, 1]
        schedule = build_schedule(seq)
        assert schedule.windows == (0, 0, 1)
        for entry in deficit_entries_for(seq):
            assert entry.deficit <= entry.bound

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_schedules_certified(self, seed):
        seq = random_process_spec(random.Random(seed))
        schedule = build_schedule(seq)
        assert all(a <= b for a, b in zip(schedule.windows, schedule.windows[1:]))
        assert schedule.windows[-1] == seq.space.width
        for n, k in enumerate(schedule.windows, start=1):
            assert window_deficit(seq, n, k) <= F(1, 2**n)


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_table_matches_direct_deficits(self, seed):
        seq = random_process_spec(random.Random(seed))
        full = seq.space.width
        # reference: the per-index scan on window_deficit, then the
        # running minimum over later indices
        caps = [
            max(
                k
                for k in range(full + 1)
                if window_deficit(seq, n, k) <= F(1, 2**n)
            )
            for n in range(1, seq.horizon + 2)
        ]
        windows = [min(caps[i:]) for i in range(len(caps))]
        # the scan fills the sequence's table first, then the reference reads it
        assert list(build_schedule(seq).windows) == windows
        assert largest_feasible_windows(seq) == caps

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["random", "enumerable", "widening"]))
    def test_scan_is_the_running_minimum_and_reads_no_wider_window(self, seed, kind):
        rng = random.Random(seed)
        if kind == "random":
            seq = random_process_spec(rng)
        elif kind == "enumerable":
            seq, _ = random_enumerable_plan(rng)
        else:
            seq = widening_sequence(rng, rng.randint(3, 4))
        caps = largest_feasible_windows(seq)
        seq = replace(seq)  # the same laws with no table yet
        table = vars(seq)["window_table"] = RecordingTable(seq)
        windows = build_schedule(seq).windows
        assert list(windows) == [min(caps[i:]) for i in range(len(caps))]
        # index n is read only between k_n and k_{n+1}, index M + 1 at the full width
        upper = (*windows[1:], seq.space.width)
        assert table.reads
        for n, k in table.reads:
            assert windows[n - 1] <= k <= upper[n - 1]


class RecordingTable(WindowTable):
    """A window table that records each (n, k) whose infimum is read."""

    def __init__(self, seq):
        super().__init__(seq)
        self.reads = []

    def infimum(self, n, k):
        self.reads.append((n, k))
        return super().infimum(n, k)


def deficit_entries_for(seq):
    return deficit_entries(build_plan(seq))


class TestExtension:
    def test_matching_window_extends_to_full_law(self, pair_space):
        q = MassFunction.uniform(pair_space)
        assert extend_window_law(window_marginal(q, 1), q) == q

    def test_ratio_formula_by_hand(self, pair_space):
        q = MassFunction.uniform(pair_space)
        window = MassFunction.from_masses(pair_space.window(1), {(0,): F(1, 4), (1,): F(1, 2)})
        got = extend_window_law(window, q)
        assert tuple_mass(got) == {
            (0, 0): F(1, 8),
            (0, 1): F(1, 8),
            (1, 0): F(1, 4),
            (1, 1): F(1, 4),
        }

    def test_window_zero_scales_the_full_law(self, pair_space):
        q = MassFunction.uniform(pair_space)
        window = MassFunction.from_masses(pair_space.window(0), {(): F(1, 3)})
        assert extend_window_law(window, q) == weighted_sum(pair_space, ((F(1, 3), q),))

    def test_extension_preserves_window_marginal(self, two_member_sequence):
        schedule = build_schedule(two_member_sequence)
        for n in range(1, 4):
            floor = extended_floor(two_member_sequence, schedule, n)
            k = schedule.window(n)
            from windowcoupling import window_infimum

            assert window_marginal(floor, k) == window_infimum(
                two_member_sequence, n, k
            )


def random_dominated_window(rng, law, k):
    """A sub-probability window law charging a random part of law's k-marginal."""
    charged = [p for p in window_marginal(law, k).weights if rng.random() < 0.7]
    weights = {p: rng.randint(1, 9) for p in charged}
    total = sum(weights.values())
    share = F(rng.randint(1, 4), 4)
    return MassFunction.from_masses(
        law.space.window(k), {p: share * F(w, total) for p, w in weights.items()}
    )


class TestIntegerExtension:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_equals_the_fraction_reference(self, seed):
        rng = random.Random(seed)
        space = ProductSpace(
            tuple(
                Alphabet(tuple(f"s{i}" for i in range(rng.randint(1, 3))))
                for _ in range(rng.randint(0, 3))
            )
        )
        masses = {z: rng.choice((0, 0, 1, 2, 5)) for z in space.points()}
        if not any(masses.values()):
            masses[space.points()[0]] = 1
        total = sum(masses.values()) + rng.choice((0, 0, 3))  # some laws are sub-probabilities
        law = MassFunction.from_masses(space, {z: F(m, total) for z, m in masses.items() if m})
        k = rng.randint(0, space.width)
        window = random_dominated_window(rng, law, k)
        got = engine._extended(law, window_marginal(law, k), window)
        assert got == extend_window_law(window, law)

    def test_uncharged_prefix_raises_key_error_naming_it(self, pair_space):
        law = MassFunction.from_masses(pair_space, {(0, 0): F(1, 2), (0, 1): F(1, 2)})
        window = MassFunction.from_masses(pair_space.window(1), {(0,): F(1, 2), (1,): F(1, 4)})
        with pytest.raises(KeyError) as info:
            engine._extended(law, window_marginal(law, 1), window)
        assert info.value.args == ((1,),)  # the prefix's code 1, named as its tuple

    def test_a_window_law_equal_to_the_marginal_gives_the_law_itself(self, pair_space):
        law = MassFunction.from_masses(
            pair_space, {(0, 0): F(1, 8), (0, 1): F(3, 8), (1, 1): F(1, 2)}
        )
        for k in (1, 2):
            marginal = window_marginal(law, k)
            rebuilt = MassFunction(marginal.space, marginal.denominator, dict(marginal.weights))
            assert rebuilt is not marginal
            assert engine._extended(law, marginal, rebuilt) is law


def floors_of(seq, schedule):
    return extended_floors(seq, schedule)


def floor_ratios(seq, floors):
    """Each floor's density against the limit law, on the limit's support."""
    return [{z: floor[z] / q for z, q in seq.limit.mass.items()} for floor in floors]


def envelopes_of(seq, schedule):
    """The envelopes that ``build_ladder`` sweeps, extended to the full space."""
    return CouplingPlan(seq, schedule).ladder.envelopes


def certified_failures(plan):
    """Each failing check of ``verify``'s exact audit, by name: the plan checks and the marginals."""
    checks = [*plan_exact_checks(plan), joint_law_marginals(plan)]
    return {c.name: c.witness for c in checks if not c.passed}


def assert_envelopes_are_minimal_ratios(seq, schedule, envelopes):
    """envelope(n)[z] == limit[z] * min over i >= n of floor_i[z] / limit[z]."""
    ratios = floor_ratios(seq, floors_of(seq, schedule))
    for n, env in enumerate(envelopes, start=1):
        expected = {
            z: q * min(r[z] for r in ratios[n - 1 :]) for z, q in seq.limit.mass.items()
        }
        assert env == MassFunction.from_masses(seq.space, expected)


class TestLadder:
    def test_constant_sequence_ladder_is_limit(self, constant_sequence):
        schedule = build_schedule(constant_sequence)
        assert build_ladder(constant_sequence, schedule) == (constant_sequence.limit,)
        envelopes = envelopes_of(constant_sequence, schedule)
        for ratios in floor_ratios(constant_sequence, floors_of(constant_sequence, schedule)):
            assert set(ratios.values()) == {F(1)}
        assert_envelopes_are_minimal_ratios(constant_sequence, schedule, envelopes)
        for env in envelopes:
            assert env == constant_sequence.limit

    def test_worked_example(self, skewed_sequence):
        schedule = build_schedule(skewed_sequence)
        first = MassFunction.from_masses(skewed_sequence.space, {0: F(1, 4), 1: F(1, 2)})
        assert build_ladder(skewed_sequence, schedule) == (first,)
        envelopes = envelopes_of(skewed_sequence, schedule)
        floors = floors_of(skewed_sequence, schedule)
        assert floor_ratios(skewed_sequence, floors)[0] == {0: F(1, 2), 1: F(1)}
        assert_envelopes_are_minimal_ratios(skewed_sequence, schedule, envelopes)
        assert envelopes[0].mass == {0: F(1, 4), 1: F(1, 2)}
        assert envelopes[1] == skewed_sequence.limit
        gap = 1 - envelopes[0].total_mass
        assert gap == F(1, 4) <= F(1, 2 ** 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_envelopes_are_minimal_ratios(self, seed):
        seq = random_process_spec(random.Random(seed))
        schedule = build_schedule(seq)
        assert_envelopes_are_minimal_ratios(seq, schedule, envelopes_of(seq, schedule))

    def test_build_extends_no_law_to_the_full_space(self, monkeypatch):
        # a plan's build extends each window infimum to the k_M window only;
        # its ladder extends the floors and the envelopes to the full space
        seq = widening_sequence(random.Random(2), 4)
        built = []  # (width extended to, width of the window law)
        extended = engine._extended

        def counted(law, marginal, window_law):
            built.append((law.space.width, window_law.space.width))
            return extended(law, marginal, window_law)

        monkeypatch.setattr(engine, "_extended", counted)
        plan = build_plan(seq)
        windows, full = plan.schedule.windows, seq.space.width
        last = windows[-2]
        assert last < full
        assert built == [(last, k) for k in reversed(windows[:-1])]
        built.clear()
        assert len(plan.ladder.floors) == plan.count
        floors = [(full, k) for k in windows]
        assert built == floors + [(full, last)] * seq.horizon


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["random", "enumerable", "widening"]))
    def test_envelopes_are_the_law_ladder(self, seed, kind):
        # E_n|k_M is the minimum over i >= n of floor i's k_M-marginal, each
        # floor from the Fraction reference; the sweep makes the envelopes a
        # ladder below the limit and below their own floors
        rng = random.Random(seed)
        if kind == "random":
            seq = random_process_spec(rng)
        elif kind == "enumerable":
            seq, _ = random_enumerable_plan(rng)
        else:
            seq = widening_sequence(rng, rng.randint(3, 4))
        plan = build_plan(seq)
        schedule = plan.schedule
        last = schedule.windows[-2]
        floors = [
            window_marginal(extended_floor(seq, schedule, i), last).mass
            for i in range(1, seq.horizon + 1)
        ]
        *envelopes, limit = plan.envelopes
        assert limit == window_marginal(seq.limit, last) and len(envelopes) == seq.horizon
        for n, env in enumerate(envelopes, start=1):
            expected = {p: min(f.get(p, 0) for f in floors[n - 1 :]) for p in limit.weights}
            assert env.mass == {p: v for p, v in expected.items() if v}
            assert all(v <= floors[n - 1][p] for p, v in env.mass.items())
        for lower, upper in itertools.pairwise(plan.envelopes):
            assert all(v <= upper[p] for p, v in lower.mass.items())
        assert jsonio.plan_from_doc(jsonio.plan_to_doc(plan)).envelopes == plan.envelopes


class TestPlan:
    def test_constant_sequence_couples_immediately(self, constant_sequence):
        plan = build_plan(constant_sequence)
        assert plan.envelopes == (constant_sequence.limit,) * 2
        assert plan.index_law.mass == {0: F(1)}
        assert plan.increment_laws[0] == constant_sequence.limit
        assert plan.index_tail_probability(1) == 0
        # the never-drawn residual is the empty law on the window space
        assert plan.residual_laws[0] == MassFunction(constant_sequence.space.window(1), 1, {})

    def test_worked_example_mixture(self, skewed_sequence):
        plan = build_plan(skewed_sequence)
        assert plan.index_probability(1) == F(3, 4)
        assert plan.index_probability(2) == F(1, 4)
        assert plan.increment_laws[0].mass == {0: F(1, 3), 1: F(2, 3)}
        assert plan.increment_laws[1].mass == {0: F(1)}
        assert plan.residual_laws[0].mass == {1: F(1)}

    def test_weighted_increments_rebuild_limit(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        acc = {}
        for n in range(1, plan.count + 1):
            p = plan.index_probability(n)
            for z, v in plan.increment_laws[n - 1].mass.items():
                acc[z] = acc.get(z, F(0)) + p * v
        assert MassFunction.from_masses(plan.sequence.space, acc) == two_member_sequence.limit

    def test_build_validates(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        assert all(c.passed for c in plan_exact_checks(plan))

    def test_build_and_audit_read_only_the_table(self, monkeypatch, two_member_sequence):
        def refuse(*args):
            raise AssertionError("direct infimum computation on the build path")

        for module in (engine, measures):
            monkeypatch.setattr(module, "window_infimum", refuse)
            monkeypatch.setattr(module, "density_convergence", refuse)
        plan = build_plan(two_member_sequence)
        assert audit_plan(plan).all_exact_passed

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_member_rows_are_member_conditionals(self, seed):
        seq = random_process_spec(random.Random(seed))
        plan = build_plan(seq)
        for n, rows in enumerate(plan.kernels, start=1):
            member = seq.member(n)
            member_window = window_marginal(member, plan.schedule.window(n))
            assert set(rows) == set(member_window.mass)
            for prefix, row in rows.items():
                assert row.law == conditional_given_prefix(member, prefix, plan.schedule.window(n))

    def test_audit_checks_the_schedule_then_the_envelopes(self, skewed_sequence):
        # the envelopes are derived, so only their masses are left to check
        names = [c.name for c in plan_exact_checks(build_plan(skewed_sequence))]
        assert names == [
            "schedule-monotone",
            "schedule-reaches-full-window",
            "window-deficit-certificates",
            "ladder-mass-bound",
        ]

    def test_moved_increment_mass_detected(self, skewed_sequence):
        # P(N = 1) = 3/4, so increment 1 = (2/3, 1/3) is envelope 1 = (1/2, 1/4)
        # against the uniform limit: density 1 at a, above the floor's 1/2,
        # so residual 1 is negative at a
        plan = build_plan(skewed_sequence)
        moved = MassFunction.from_masses(plan.sequence.space, {(0,): F(2, 3), (1,): F(1, 3)})
        bad_plan = with_envelopes(plan, {0: F(1, 2), 1: F(1, 4)})
        assert bad_plan.increment_laws[0] == moved
        assert bad_plan.index_law == plan.index_law
        assert certified_failures(bad_plan) == {
            "joint-law-marginals": "check raised ValueError: negative mass -1/4 at (0,)"
        }

    def test_index_mass_moved_between_values_detected(self, skewed_sequence):
        plan = build_plan(skewed_sequence)
        # all of N = 2's mass moved onto N = 1: envelope 1 is the limit
        to_first = with_envelopes(plan, {0: F(1, 2), 1: F(1, 2)})
        assert to_first.index_law.mass == {0: F(1)}
        assert certified_failures(to_first) == {
            "joint-law-marginals": "component 1 marginal differs"
        }
        # N = 1's mass moved halfway onto N = 2 only lowers envelope 1,
        # which is still a coupling's
        to_second = with_envelopes(plan, {0: F(1, 6), 1: F(1, 3)})
        assert to_second.index_law.mass == {0: F(1, 2), 1: F(1, 2)}
        assert to_second.increment_laws[0] == plan.increment_laws[0]
        assert all(c.passed for c in plan_exact_checks(to_second))
        assert joint_law_marginals(to_second).passed

    def test_moved_increment_mass_on_a_width_2_space_names_tuples(self, pair_space):
        # the schedule is (2, 2), so the envelopes are laws on the full space;
        # the witnesses decode the points' codes to their tuples
        member = MassFunction.from_masses(
            pair_space, {(0, 0): F(1, 8), (0, 1): F(1, 4), (1, 0): F(3, 8), (1, 1): F(1, 4)}
        )
        limit = MassFunction.uniform(pair_space)
        plan = build_plan(ProcessSequenceSpec((member,), limit))
        assert plan.schedule.windows == (2, 2)
        assert plan.index_probability(1) == F(7, 8)
        # increment 1 moved onto (1, 0) and (1, 1), with P(N = 1) kept
        moved = MassFunction.from_masses(pair_space, {(1, 0): F(1, 2), (1, 1): F(1, 2)})
        bad_plan = with_envelopes(plan, {2: F(7, 16), 3: F(7, 16)})
        assert bad_plan.envelopes[0] == weighted_sum(pair_space, ((F(7, 8), moved),))
        assert certified_failures(bad_plan) == {
            "joint-law-marginals": "check raised ValueError: negative mass -1/16 at (1, 0)"
        }

    def test_late_agreement_breaks_the_mass_bound(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        quarter = {p: v / 4 for p, v in plan.envelopes[-1].mass.items()}
        late = with_envelopes(plan, quarter, quarter)
        assert late.index_law.mass == {0: F(1, 4), 2: F(3, 4)}
        failed = {c.name: c.witness for c in plan_exact_checks(late) if not c.passed}
        assert failed == {"ladder-mass-bound": "n=2: envelope mass gap 3/4 > 1/2"}
        # a late agreement is still a coupling, so only the bound fails
        assert joint_law_marginals(late).passed

    def test_limit_point_on_zero_mass_prefix_detected(self):
        # the member is a point mass on b; envelope 1 on a, at the limit's
        # mass there, swaps the two increments, so N = 1 draws the limit point a, a prefix of member
        # mass zero
        seq = binary_sequence([(0, 1)], (F(1, 2), F(1, 2)))
        plan = build_plan(seq)
        assert set(plan.kernels[0]) == {1}
        assert plan.envelopes == (MassFunction.from_masses(seq.space, {1: F(1, 2)}), seq.limit)
        bad_plan = with_envelopes(plan, {0: F(1, 2)})
        assert bad_plan.increment_laws == plan.increment_laws[::-1]
        assert certified_failures(bad_plan) == {
            "joint-law-marginals": "check raised ValueError: negative mass -1/2 at (0,)"
        }

    def test_corrupted_envelope_detected(self, two_member_sequence):
        # envelope M lifted above the limit at a, with its mass kept at 1:
        # the mass bound holds, but envelope M falls below envelope M - 1,
        # (1/4, 1/2), at b, so increment M is negative there
        plan = build_plan(two_member_sequence)
        bad_plan = with_envelopes(plan, plan.envelopes[0], {0: F(3, 4), 1: F(1, 4)})
        assert bad_plan.index_cumulative[-2:] == (1, 1)
        assert certified_failures(bad_plan) == {
            "joint-law-marginals": "check raised ValueError: negative mass -1/4 at (1,)"
        }

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_derived_mixture_identities(self, seed):
        # the identities that the audit no longer checks, because the
        # mixture is derived from the envelopes; the laws are read from a
        # loaded document, as ``verify`` reads them
        seq = random_process_spec(random.Random(seed))
        plan = jsonio.plan_from_doc(jsonio.plan_to_doc(build_plan(seq)))
        space = seq.space
        # the weighted increments rebuild the limit law
        acc = {}
        for n, law in enumerate(plan.increment_laws, start=1):
            for z, v in law.mass.items():
                acc[z] = acc.get(z, 0) + plan.index_probability(n) * v
        assert MassFunction.from_masses(space, acc) == seq.limit
        for n, k in enumerate(plan.schedule.windows, start=1):
            member = window_marginal(seq.member(n), k).mass
            envelope = window_marginal(plan.ladder.envelopes[n - 1], k).mass
            tail = plan.index_tail_probability(n)
            # every residual is non-negative: the envelope sits below the member
            assert all(v <= member.get(p, 0) for p, v in envelope.items())
            # the window mixture rebuilds the member's window law
            mixture = dict(envelope)
            for p, v in plan.residual_laws[n - 1].mass.items():
                mixture[p] = mixture.get(p, 0) + tail * v
            assert {p: v for p, v in mixture.items() if v} == member
            # a law the sampler never draws is empty
            if plan.index_probability(n) == 0:
                assert not plan.increment_laws[n - 1].weights
            if tail == 0:
                assert not plan.residual_laws[n - 1].weights

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_derived_ladder_is_the_built_ladder(self, seed):
        seq = random_process_spec(random.Random(seed))
        plan = build_plan(seq)
        assert plan.envelopes[:-1] == build_ladder(seq, plan.schedule)
        assert_envelopes_are_minimal_ratios(seq, plan.schedule, plan.ladder.envelopes)
        assert plan.ladder.floors == floors_of(seq, plan.schedule)


class TestSampling:
    def test_constant_sequence_agrees_everywhere(self, constant_sequence):
        plan = build_plan(constant_sequence)
        rng = random.Random(0)
        for _ in range(200):
            draw = sample(plan, rng)
            assert draw.index == 1
            assert draw.member_points == (draw.limit_point,) * plan.count

    def test_agreement_holds_on_every_draw(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        rng = random.Random(123)
        for _ in range(2000):
            assert sample(plan, rng).agreement_holds(plan.window_strides)

    def test_empirical_member_marginal_within_3_sigma(self, skewed_sequence):
        plan = build_plan(skewed_sequence)
        sampler = CouplingSampler(plan)
        rng = random.Random(42)
        draws = 10_000
        counts = Counter(sampler.sample(rng).member_points[0] for _ in range(draws))
        for z, p in skewed_sequence.member(1).mass.items():
            dev = abs(counts[z] - draws * float(p))
            assert dev <= 3 * sqrt(draws * float(p) * (1 - float(p))) + 1

    def test_same_seed_reproduces_draws(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        first = [sample(plan, random.Random(9)) for _ in range(50)]
        second = [sample(plan, random.Random(9)) for _ in range(50)]
        assert first == second

    def test_residual_on_a_prefix_without_a_row_raises(self):
        # the member is a point mass on a, so component 1 has a kernel row
        # at prefix a only; a residual law moved to b lands where none is
        seq = binary_sequence([(1, 0)], (F(1, 2), F(1, 2)))
        plan = build_plan(seq)
        assert plan.schedule.windows == (1, 1)
        assert set(plan.kernels[0]) == {0}
        moved = MassFunction.from_masses(plan.residual_laws[0].space, {(1,): F(1)})
        # no envelopes derive this residual law, so it is put in the plan's cache
        bad_plan = replace(plan)
        vars(bad_plan)["residual_laws"] = (moved, plan.residual_laws[1])
        sampler = CouplingSampler(bad_plan)
        rng = random.Random(0)
        with pytest.raises(InternalInvariantError, match=r"no kernel row for prefix \(1,\) at index 1"):
            for _ in range(100):
                sampler.sample(rng)

    def test_sampler_is_kept_with_its_plan(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        assert plan.sampler is plan.sampler
        assert plan.sampler.plan is plan
        copy = replace(plan)
        assert copy.sampler is not plan.sampler and copy.sampler.plan is copy


def randrange_draw(table, prefix, rng):
    """Draw a table's row at ``prefix`` with ``rng.randrange``, the reference for every row draw."""
    lo, hi, total = table.slices[prefix]
    return table.points[bisect_right(table.cumulative, rng.randrange(total), lo, hi)]


def randrange_sample(plan, rng):
    """One draw of the coupling in the sampler's order, every row drawn by ``randrange_draw``."""
    tables = plan.draw_tables
    index = randrange_draw(tables.index, 0, rng) + 1
    limit_point = randrange_draw(tables.increments[index - 1], 0, rng)
    members = []
    for n, (stride, residual, kernel) in enumerate(
        zip(plan.window_strides, tables.residuals, tables.kernels), start=1
    ):
        prefix = randrange_draw(residual, 0, rng) if n < index else limit_point // stride
        members.append(randrange_draw(kernel, prefix, rng))
    return CouplingSample(index, limit_point, tuple(members))


def assert_sampler_draws_as_randrange(plan, seeds):
    for seed in seeds:
        ours, theirs = random.Random(seed), random.Random(seed)
        assert plan.sampler.sample(ours) == randrange_sample(plan, theirs)
        assert ours.getstate() == theirs.getstate()


class TestKernelTable:
    """Each kernel row is a slice of its member's sorted table, drawn exactly as its own law."""

    @staticmethod
    def assert_slices_draw_rows(member, k, table, seeds=range(20)):
        assert set(table.slices) == set(window_marginal(member, k).weights)
        for prefix, (lo, hi, total) in table.slices.items():
            # the reference row: the conditional law's sorted points and running sums
            row = conditional_given_prefix(member, prefix, k)
            points = sorted(row.weights)
            cumulative = list(itertools.accumulate(row.weights[z] for z in points))
            assert table.points[lo:hi] == points
            assert table.cumulative[lo:hi] == cumulative and total == row.denominator
            for seed in seeds:
                ours, method, theirs = (random.Random(seed) for _ in range(3))
                expected = points[bisect_right(cumulative, theirs.randrange(row.denominator))]
                assert randrange_draw(table, prefix, ours) == expected
                assert table.draw(method, prefix) == expected
                assert ours.getstate() == method.getstate() == theirs.getstate()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_slices_draw_the_member_conditionals(self, seed):
        seq = random_process_spec(random.Random(seed))
        plan = build_plan(seq)
        for n, (k, table) in enumerate(zip(plan.schedule.windows, plan.draw_tables.kernels), 1):
            self.assert_slices_draw_rows(seq.member(n), k, table, seeds=range(5))
        assert_sampler_draws_as_randrange(plan, seeds=range(20))

    def test_rows_with_a_common_factor_are_reduced(self):
        # the row at a has weights 2 and 4 (gcd 2), the row at b 1 and 3
        space = ProductSpace((Alphabet(("a", "b")), Alphabet(("x", "y"))))
        member = MassFunction(space, 10, {(0, 0): 2, (0, 1): 4, (1, 0): 1, (1, 1): 3})
        table = KernelTable(member, 1)
        assert table.points == [0, 1, 2, 3]  # the codes of (0, 0), (0, 1), (1, 0), (1, 1)
        assert table.cumulative == [1, 3, 1, 4]
        assert table.slices == {0: (0, 2, 3), 1: (2, 4, 4)}
        self.assert_slices_draw_rows(member, 1, table, seeds=range(200))
        rng = random.Random(0)
        draws = Counter(table.draw(rng, 0) for _ in range(3000))
        assert set(draws) == {0, 1}
        assert 800 < draws[0] < 1200  # mass 1/3

    def test_full_and_empty_windows(self):
        space = ProductSpace((Alphabet(("a", "b")), Alphabet(("x", "y"))))
        member = MassFunction(space, 6, {(1, 1): 3, (0, 1): 2, (1, 0): 1})
        assert KernelTable(member, 0).slices == {0: (0, 3, 6)}
        full = KernelTable(member, 2)
        assert full.cumulative == [1, 1, 1]
        assert full.slices == {1: (0, 1, 1), 2: (1, 2, 1), 3: (2, 3, 1)}
        for k in (0, 2):
            self.assert_slices_draw_rows(member, k, KernelTable(member, k))

    @pytest.mark.parametrize(
        "total",
        [1, 2, 3, 4, 5, 7, 8, 9, 2**16 - 1, 2**16, 2**16 + 1, 2**140 - 1, 2**140, 2**140 + 1,
         3**90],
    )
    def test_rows_draw_as_randrange_at_every_total(self, total):
        # a total of 2**j needs j + 1 bits and is redrawn about half the time,
        # 2**j - 1 fits in j bits, 2**j + 1 is the first total past them, and
        # the largest rows take more than one 32-bit word of the generator
        space = ProductSpace((Alphabet(("a", "b")), Alphabet(("x", "y"))))
        member = MassFunction(space, 2 * total, {(0, 0): 1, (0, 1): total - 1, (1, 1): total})
        tables = [KernelTable(member, k) for k in range(3)]
        # the law's own total, then the totals of the rows at a and at b
        assert tables[0].slices[0][2] == 2 * total
        assert [row[2] for row in tables[1].slices.values()] == [total, 1]
        for k, table in enumerate(tables):
            self.assert_slices_draw_rows(member, k, table, seeds=range(40))
            # the sampler's own row draws: index total 1, limit total 2 * total,
            # and component rows at window k
            plan = CouplingPlan(ProcessSequenceSpec((member,), member), WindowSchedule((k, k)))
            assert plan.draw_tables.kernels[0].slices == table.slices
            assert_sampler_draws_as_randrange(plan, seeds=range(40))

    @settings(max_examples=100)
    @given(st.data())
    def test_window_0_table_is_the_law(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=0, max_size=3))
        space = ProductSpace(tuple(Alphabet(tuple("abc"[:size])) for size in sizes))
        points = list(space.points())
        weights = data.draw(
            st.lists(st.integers(0, 12), min_size=len(points), max_size=len(points)).filter(any)
        )
        scale = data.draw(st.integers(1, 6))  # a common factor the law cancels
        law = MassFunction(
            space, scale * sum(weights), {z: scale * w for z, w in zip(points, weights)}
        )
        table = KernelTable(law)
        assert table.slices == {0: (0, len(law.weights), law.denominator)}
        assert table.points == sorted(law.weights)
        assert table.cumulative == list(
            itertools.accumulate(law.weights[z] for z in sorted(law.weights))
        )
        self.assert_slices_draw_rows(law, 0, table, seeds=range(3))

    def test_refuses_laws_that_are_not_probabilities(self, binary_space):
        for law in (
            MassFunction(binary_space, 4, {(0,): 1, (1,): 2}),  # mass 3/4
            MassFunction(binary_space, 1, {}),  # the empty law
        ):
            for k in (0, 1):
                with pytest.raises(ValueError, match="^can only sample probability laws$"):
                    KernelTable(law, k)

    def test_samplers_of_one_plan_share_its_tables(self, skewed_sequence):
        plan = build_plan(skewed_sequence)
        first, second = CouplingSampler(plan), CouplingSampler(plan)
        tables = plan.draw_tables
        for sampler in (first, second, plan.sampler):
            assert sampler._index_table is tables.index
            assert sampler._increment_tables is tables.increments
            for (_, residual, *parts), table, kernel in zip(
                sampler._components, tables.residuals, tables.kernels
            ):
                assert residual is table
                shared = (kernel.slices, kernel.points, kernel.cumulative)
                assert all(ours is theirs for ours, theirs in zip(parts, shared, strict=True))

    def test_joint_support_size_counts_the_joint_law(self):
        rng = random.Random(11)
        tails = 0
        for _ in range(40):
            _, plan = random_enumerable_plan(rng, cap=20_000)
            horizon = plan.sequence.horizon
            if any(plan.index_tail_probability(n) for n in range(1, horizon + 1)):
                tails += 1
            assert joint_support_size(plan) == len(exact_joint_law(plan).mass)
        assert tails >= 10


class TestJointLaw:
    def test_constant_sequence_diagonal(self, constant_sequence):
        plan = build_plan(constant_sequence)
        joint = exact_joint_law(plan)
        assert joint.total_mass == 1
        for (m, z, pts), v in joint.mass.items():
            assert m == 1 and pts == (z,) * plan.count
            assert v == constant_sequence.limit[z]

    def test_worked_example_marginals(self, skewed_sequence):
        plan = build_plan(skewed_sequence)
        joint = exact_joint_law(plan)
        assert joint.marginal_member(1) == skewed_sequence.member(1)
        assert joint.marginal_member(2) == skewed_sequence.limit
        assert joint.marginal_limit() == skewed_sequence.limit
        assert joint.index_marginal() == plan.index_law

    def test_agreement_event_has_full_mass(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        assert exact_joint_law(plan).agreement_mass() == 1

    def test_cap_enforced(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        size = joint_support_size(plan)
        with pytest.raises(EnumerationCapError):
            exact_joint_law(plan, cap=size - 1)
        assert len(exact_joint_law(plan, cap=size).mass) == size

    def test_cap_stops_the_count_at_the_first_term_past_it(self, monkeypatch):
        rng = random.Random(3)
        plan = build_plan(random_process_spec(rng, max_coordinates=2, max_members=3))
        terms = list(engine._joint_support_terms(plan))
        assert len(terms) > 2 and sum(terms) == joint_support_size(plan)
        drawn = []

        def counted(plan):
            for term in terms:
                drawn.append(term)
                yield term

        monkeypatch.setattr(engine, "_joint_support_terms", counted)
        with pytest.raises(EnumerationCapError, match="^joint support size exceeds cap 0$"):
            exact_joint_law(plan, cap=0)
        assert drawn == terms[:1]
        drawn.clear()
        with pytest.raises(EnumerationCapError):
            exact_joint_law(plan, cap=terms[0] + terms[1] - 1)
        assert drawn == terms[:2]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_plans_have_exact_marginals(self, seed):
        rng = random.Random(seed)
        seq = random_process_spec(rng, max_coordinates=2, max_members=3)
        plan = build_plan(seq)
        if joint_support_size(plan) > 60_000:
            return
        joint = exact_joint_law(plan, cap=60_000)
        assert joint.marginal_limit() == seq.limit
        for n in range(1, plan.count + 1):
            assert joint.marginal_member(n) == seq.member(n)
        assert joint.agreement_mass() == 1


class TestCouplingMarginals:
    """The factored marginals against the brute-force joint law."""

    @staticmethod
    def assert_matches_joint_law(plan):
        joint = exact_joint_law(plan)
        members, limit = coupling_marginals(plan)
        assert limit == joint.marginal_limit()
        assert members == tuple(joint.marginal_member(n) for n in range(1, plan.count + 1))

    def test_random_enumerable_plans(self):
        rng = random.Random(7)
        for _ in range(60):
            _, plan = random_enumerable_plan(rng, cap=20_000)
            self.assert_matches_joint_law(plan)

    def test_random_metric_couplings(self):
        rng = random.Random(8)
        for i in range(20):
            model = random_metric_model(rng, partial_support=i % 4 == 0)
            laws = random_law_sequence(rng, model)
            coupling = build_skorohod_coupling(model, laws, rng.choice((2, 3)))
            self.assert_matches_joint_law(coupling.plan)


def assert_checked(law):
    """Every support point lies in the law's space, and the checking constructor agrees."""
    assert all(z in law.space for z in law.weights)
    assert law == MassFunction(law.space, law.denominator, dict(law.weights))


class TestDerivedLaws:
    """Laws built by ``MassFunction._derived`` are the laws the checking constructor builds."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_build_and_audit_laws_pass_the_checking_constructor(self, seed):
        seq = random_process_spec(random.Random(seed))
        derived = MassFunction._derived.__func__
        made = []

        def record(cls, space, denominator, weights):
            made.append(derived(cls, space, denominator, weights))
            return made[-1]

        with mock.patch.object(MassFunction, "_derived", classmethod(record)):
            plan = build_plan(seq)
            text = jsonio.canonical_dumps(jsonio.plan_to_doc(plan))
            loaded = jsonio.plan_from_doc(json.loads(text))
            assert audit_plan(loaded).all_exact_passed
            assert joint_law_marginals(loaded).passed
            table = WindowTable(seq)
            laws = [
                law
                for n in range(1, seq.horizon + 2)
                for k in range(seq.space.width + 1)
                for law in (table.marginal(n, k), table.infimum(n, k))
            ]
            for member in (*seq.members, seq.limit):
                for k in range(seq.space.width + 1):
                    conditionals = measures.prefix_conditionals(member, k)
                    laws += conditionals.values()
                    laws += (conditional_given_prefix(member, p, k) for p in conditionals)
                laws.append(weighted_sum(member.space, ((F(2, 3), member),)))
            for p in (plan, loaded):
                laws += (*p.ladder.floors, *p.ladder.envelopes, *p.envelopes)
                laws += (*p.increment_laws, *p.residual_laws, *coupling_marginals(p)[0])
                laws += engine._tail_mixture_laws(p).values()
                laws += (row.law for rows in p.kernels for row in rows.values())
        assert made
        for law in (*made, *laws):
            assert_checked(law)
