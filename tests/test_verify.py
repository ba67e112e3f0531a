import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from windowcoupling import (
    MassFunction,
    ProcessSequenceSpec,
    WindowRangeError,
    WindowSchedule,
    audit_plan,
    audit_skorohod,
    build_plan,
    build_skorohod_coupling,
    mc_agreement,
    window_marginal,
)
from windowcoupling import engine, jsonio, verify
from windowcoupling.measures import weighted_sum
from windowcoupling.verify import (
    certify,
    joint_law_marginals,
    random_enumerable_plan,
    random_law_sequence,
    random_metric_model,
    random_process_spec,
    random_rational_pmf,
)
from conftest import widening_sequence, with_envelopes


class TestAuditPlan:
    def test_constant_plan_all_pass(self, constant_sequence):
        report = audit_plan(build_plan(constant_sequence))
        assert report.all_exact_passed
        assert all(entry.deficit == 0 for entry in report.deficit_trace)
        assert report.provenance["version"]
        assert report.provenance["seed"] is None

    def test_worked_example_reconstruction_exact(self, skewed_sequence):
        plan = build_plan(skewed_sequence)
        report = audit_plan(plan)
        names = {c.name for c in report.exact_checks}
        assert "ladder-mass-bound" in names
        assert report.all_exact_passed
        laws = zip(plan.schedule.windows, plan.envelope_windows, plan.residual_laws)
        for n, (k, envelope, residual) in enumerate(laws, start=1):
            tail = plan.index_tail_probability(n)
            mixture = weighted_sum(envelope.space, ((1, envelope), (tail, residual)))
            assert mixture == window_marginal(skewed_sequence.member(n), k)

    def test_corrupted_plan_fails_with_witness(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        # move the mass of N = 2 onto N = 1: envelope 1 becomes envelope 2
        first, second, third = (plan.index_probability(n) for n in (1, 2, 3))
        moved = with_envelopes(plan, plan.envelopes[1], plan.envelopes[1])
        assert moved.index_law.mass == {0: first + second, 2: third}
        # the plan checks pass; residual 2 is negative, which the marginals find
        assert audit_plan(moved).all_exact_passed
        report = certify(moved, 20, seed=0)
        failed = {c.name: c.witness for c in report.exact_checks if not c.passed}
        assert failed == {
            "joint-law-marginals": "check raised ValueError: negative mass -1/12 at (0,)"
        }

    def test_audit_never_raises_on_corrupt_plans(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        # window 1 is wider than k_2 = 0, so no envelope derives and the
        # mass bound cannot read one; that must surface as failures, not
        # exceptions
        bad = replace(plan, schedule=WindowSchedule((1, 0, 1)))
        report = audit_plan(bad)
        failed = {c.name: c.witness for c in report.exact_checks if not c.passed}
        assert failed == {
            "schedule-monotone": "window drops from 1 to 0",
            "ladder-mass-bound": "check raised WindowRangeError: window length 1 out of range 0..0",
        }


class TestMcAgreement:
    def test_single_sample(self, constant_sequence):
        report = mc_agreement(build_plan(constant_sequence), 1, seed=0)
        agreement = next(
            c for c in report.mc_checks if c.name == "window-agreement-violations"
        )
        assert agreement.samples == 1 and agreement.failures == 0

    def test_no_violations_and_tv_pass(self, two_member_sequence):
        report = mc_agreement(build_plan(two_member_sequence), 2000, seed=5)
        assert report.all_passed
        tv = next(
            c for c in report.mc_checks if c.name == "index-law-total-variation"
        )
        assert "threshold" in tv.note

    def test_requires_positive_sample_count(self, constant_sequence):
        with pytest.raises(ValueError):
            mc_agreement(build_plan(constant_sequence), 0, seed=0)

    def test_skorohod_distance_checks(self, line_model, line_laws):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        report = mc_agreement(coupling, 400, seed=3)
        names = {c.name for c in report.mc_checks}
        assert "distance-guarantee-violations" in names
        assert report.all_passed

    def test_reports_are_deterministic(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        first = mc_agreement(plan, 500, seed=11)
        second = mc_agreement(plan, 500, seed=11)
        assert jsonio.canonical_dumps(jsonio.report_to_doc(first)) == (
            jsonio.canonical_dumps(jsonio.report_to_doc(second))
        )

    def test_unsampleable_plan_gives_one_failing_check(self, line_model, line_laws):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        plan = coupling.plan
        # increment 1 halved is no probability law, so no sampling table is
        # built for it
        halved = replace(plan)
        vars(halved)["increment_laws"] = (
            weighted_sum(plan.sequence.space, ((F(1, 2), plan.increment_laws[0]),)),
            *plan.increment_laws[1:],
        )
        broken = replace(coupling, plan=halved)
        for checks in (
            mc_agreement(broken, 30, seed=1).mc_checks,
            mc_agreement(broken.plan, 30, seed=1).mc_checks,
        ):
            assert [(c.name, c.passed) for c in checks] == [("sampler-runs", False)]
            assert "ValueError: can only sample probability laws" in checks[0].note


class TestJointLawMarginals:
    def test_line_coupling_passes(self, line_model, line_laws):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        assert joint_law_marginals(coupling.plan) == ("joint-law-marginals", True, None)

    def test_full_first_envelope_fails_with_witness(self, skewed_sequence):
        # envelope 1 is the limit, so N = 1 surely and component 1 draws
        # the limit's law, not the member's
        plan = build_plan(skewed_sequence)
        full = with_envelopes(plan, skewed_sequence.limit)
        assert full.index_law.mass == {0: F(1)}
        check = joint_law_marginals(full)
        assert not check.passed
        assert check.witness == "component 1 marginal differs"

    def test_prefix_without_kernel_row_fails_with_witness(self, binary_space):
        # member 1 puts no mass on "b", so component 1 has no row at (1,);
        # envelope 1 on b makes residual 1, the member minus it, negative there
        member = MassFunction.from_masses(binary_space, {(0,): F(1)})
        limit = MassFunction.from_masses(binary_space, {(0,): F(1, 2), (1,): F(1, 2)})
        plan = build_plan(ProcessSequenceSpec((member,), limit))
        on_b = MassFunction.point_mass(binary_space, (1,))
        bad = with_envelopes(plan, {1: F(1, 2)})
        assert bad.increment_laws[0] == on_b
        check = joint_law_marginals(bad)
        assert not check.passed
        assert check.witness == "check raised ValueError: negative mass -1/2 at (1,)"

    def test_builds_no_kernel_rows(self, two_member_sequence):
        plan = reloaded(build_plan(two_member_sequence))
        assert joint_law_marginals(plan).passed
        assert "kernels" not in vars(plan)

    def test_report_runs_the_check_after_the_audit(self, two_member_sequence):
        plan = build_plan(two_member_sequence)
        report = certify(plan, 50, seed=1)
        audit = audit_plan(plan)
        assert report.exact_checks == audit.exact_checks + (joint_law_marginals(plan),)
        assert report.exact_checks[-1].name == "joint-law-marginals"
        assert report.mc_checks == mc_agreement(plan, 50, seed=1).mc_checks
        assert report.provenance["seed"] == 1
        assert report.all_passed

    def test_skorohod_report_ends_its_exact_checks_with_the_check(
        self, line_model, line_laws
    ):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        report = certify(coupling, 50, seed=1)
        assert report.exact_checks == audit_skorohod(coupling).exact_checks + (
            joint_law_marginals(coupling.plan),
        )
        assert report.all_passed


def reloaded(plan):
    """The plan as ``verify`` loads it, with no derived data computed yet."""
    return jsonio.plan_from_doc(jsonio.plan_to_doc(plan))


class TestOncePerPlan:
    def test_certify_builds_the_envelopes_once(self, monkeypatch, two_member_sequence):
        plan = reloaded(build_plan(two_member_sequence))
        calls = []
        original = engine.build_ladder

        def counting(seq, schedule):
            calls.append((seq, schedule))
            return original(seq, schedule)

        monkeypatch.setattr(engine, "build_ladder", counting)
        assert certify(plan, 50, seed=1).all_passed
        assert calls == [(plan.sequence, plan.schedule)]

    @pytest.mark.parametrize("width", [3, 4])
    def test_certify_reads_the_laws_window_marginals_from_the_table(self, monkeypatch, width):
        # the exact marginals extend each window law along the member's
        # window marginal, which the table already holds; only derived laws
        # such as the envelopes are marginalized outside it
        plan = reloaded(build_plan(widening_sequence(random.Random(width), width)))
        seq = plan.sequence
        laws = (*seq.members, seq.limit)
        marginalized = []
        original = engine.window_marginal

        def recorded(law, k):
            marginalized.append(law)
            return original(law, k)

        monkeypatch.setattr(engine, "window_marginal", recorded)
        assert certify(plan, 50, seed=1).all_passed
        assert marginalized
        assert not [law for law in marginalized if any(law is member for member in laws)]

    def test_certify_builds_the_window_mixtures_once(self, monkeypatch, two_member_sequence):
        plan = reloaded(build_plan(two_member_sequence))
        calls = []
        original = verify.coupling_marginals

        def counting(target):
            calls.append(target)
            return original(target)

        monkeypatch.setattr(verify, "coupling_marginals", counting)
        assert certify(plan, 50, seed=1).all_passed
        assert calls == [plan]

    def test_reports_of_one_plan_serialize_the_sequence_once(
        self, monkeypatch, two_member_sequence
    ):
        # a built plan writes its sequence document once to hash it; a plan
        # reloaded from a canonical document hashes the document as read
        built = build_plan(two_member_sequence)
        plan = reloaded(built)
        expected = jsonio.document_sha256(jsonio.sequence_to_doc(two_member_sequence))
        calls = []
        original = jsonio.sequence_to_doc

        def counting(seq):
            calls.append(seq)
            return original(seq)

        monkeypatch.setattr(jsonio, "sequence_to_doc", counting)
        for target, serialized in ((built, 1), (plan, 0)):
            calls.clear()
            reports = [
                audit_plan(target), mc_agreement(target, 20, seed=1), certify(target, 20, seed=1)
            ]
            assert [r.provenance["spec_sha256"] for r in reports] == [expected] * 3
            assert len(calls) == serialized

    def test_mc_guard_takes_the_window_strides_once(self, monkeypatch, skewed_sequence):
        plan = reloaded(build_plan(skewed_sequence))
        plan.draw_tables  # the tables read the strides of their own windows
        calls = []
        original = type(plan.sequence.space).stride

        def counting(space, k):
            calls.append(k)
            return original(space, k)

        monkeypatch.setattr(type(plan.sequence.space), "stride", counting)
        # once per plan: the sampler and every guard run share the strides
        for _ in range(2):
            assert mc_agreement(plan, 200, seed=1).all_passed
        assert calls == list(plan.schedule.windows)

    def test_a_window_out_of_range_still_raises(self, two_member_sequence):
        plan = replace(build_plan(two_member_sequence), schedule=WindowSchedule((1, 2, 1)))
        with pytest.raises(WindowRangeError, match="^window length 2 out of range 0..1$"):
            plan.window_strides  # the space has width 1
        # in the MC guard the error is the witness of its one failing check
        report = mc_agreement(plan, 20, seed=1)
        assert [c.name for c in report.mc_checks] == ["sampler-runs"]
        assert "WindowRangeError: window length 2 out of range 0..1" in report.mc_checks[0].note

    def test_reports_of_one_coupling_serialize_the_laws_once(
        self, monkeypatch, line_model, line_laws
    ):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        expected = jsonio.document_sha256(jsonio.law_sequence_to_doc(line_laws))
        calls = []
        original = jsonio.law_sequence_to_doc

        def counting(seq):
            calls.append(seq)
            return original(seq)

        monkeypatch.setattr(jsonio, "law_sequence_to_doc", counting)
        reports = [audit_skorohod(coupling), mc_agreement(coupling, 20, seed=1)]
        assert [r.provenance["spec_sha256"] for r in reports] == [expected] * 2
        assert len(calls) == 1


class TestAuditSkorohod:
    def test_merges_tree_and_plan_checks(self, line_model, line_laws):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        report = audit_skorohod(coupling)
        names = {c.name for c in report.exact_checks}
        assert "partition-disjoint-cover" in names
        assert "ladder-mass-bound" in names
        assert report.all_exact_passed


class TestGenerators:
    def test_random_pmf_is_probability(self):
        rng = random.Random(0)
        for _ in range(50):
            values = random_rational_pmf(rng, 5)
            assert sum(values) == 1
            assert all(v >= 0 for v in values)

    def test_random_spec_respects_bounds(self):
        rng = random.Random(1)
        for _ in range(25):
            seq = random_process_spec(rng)
            assert 1 <= seq.space.width <= 3
            assert all(len(a) <= 3 for a in seq.space.coordinates)
            assert 1 <= seq.horizon <= 4

    def test_generation_is_deterministic(self):
        a = random_process_spec(random.Random(123))
        b = random_process_spec(random.Random(123))
        assert a == b

    def test_random_plans_audit_clean(self):
        rng = random.Random(2)
        for _ in range(10):
            _, plan = random_enumerable_plan(rng, cap=50_000)
            assert audit_plan(plan).all_exact_passed
            assert mc_agreement(plan, 300, seed=4).all_passed

    def test_random_models_are_valid_metrics(self):
        rng = random.Random(3)
        for _ in range(20):
            model = random_metric_model(rng)
            assert 1 <= model.size <= 6
            laws = random_law_sequence(rng, model)
            limit = laws.sequence.limit
            assert sum(limit[(j,)] for j in model.support_indices()) == 1
