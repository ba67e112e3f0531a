"""Acceptance suite: one test per release criterion, exact tolerances.

Criteria (all exact unless stated):
  1. joint-law marginals equal every input law on 200 random small sequences;
  2. zero window-agreement violations in 10^4 samples per generated plan;
  3. window deficits certified below 2**-n, schedules monotone and full;
  4. ladder monotonicity, floor domination, member-window domination and
     the 2**-(n-1) mass gap bound on every generated instance;
  5. zero distance-guarantee violations in 10^4 samples on 50 random
     metric models, with decoded marginals exact on every model by the
     factored marginal check, which enumerates no joint law;
  6. partition-tree validity on every built tree;
  7. byte-identical artifacts for identical seeds.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; expected runtime is a few minutes.
"""
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from windowcoupling import (
    CouplingSampler,
    MassFunction,
    build_skorohod_coupling,
    distance_violations,
    exact_joint_law,
    sample_coupled_points,
    tree_exact_checks,
    window_deficit,
    window_marginal,
)
from windowcoupling import jsonio, streams
from windowcoupling.cli import main
from windowcoupling.engine import coupling_marginals
from windowcoupling.skorohod import decode_sample
from windowcoupling.verify import (
    joint_law_marginals,
    random_enumerable_plan,
    random_law_sequence,
    random_metric_model,
)

ROOT_SEED = 20250810
SEQUENCE_COUNT = 200
MODEL_COUNT = 50
SAMPLES_PER_PLAN = 10_000
JOINT_CAP = 300_000


@pytest.fixture(scope="module")
def generated_plans():
    rng = random.Random(ROOT_SEED)
    return [random_enumerable_plan(rng, cap=150_000) for _ in range(SEQUENCE_COUNT)]


@pytest.fixture(scope="module")
def generated_couplings():
    rng = random.Random(ROOT_SEED + 1)
    couplings = []
    while len(couplings) < MODEL_COUNT:
        model = random_metric_model(rng, partial_support=len(couplings) % 4 == 0)
        laws = random_law_sequence(rng, model, max_members=3)
        depth = rng.choice((2, 3))
        couplings.append(build_skorohod_coupling(model, laws, depth))
    return couplings


def test_marginal_exactness(generated_plans):
    """Criterion 1: enumerated joint marginals equal P and every P_n exactly."""
    for i, (seq, plan) in enumerate(generated_plans):
        joint = exact_joint_law(plan, cap=JOINT_CAP)
        assert joint.total_mass == 1, f"sequence {i}: joint mass"
        assert joint.marginal_limit() == seq.limit, f"sequence {i}: limit marginal"
        for n in range(1, plan.count + 1):
            assert joint.marginal_member(n) == seq.member(n), f"sequence {i}, n={n}"
        assert joint.index_marginal() == plan.index_law, f"sequence {i}: index law"
        assert joint.agreement_mass() == 1, f"sequence {i}: agreement event"
    print(
        f"\nACCEPTANCE PASS: marginal exactness on {len(generated_plans)}"
        " random sequences (exact rational equality)"
    )


def test_agreement_event(generated_plans):
    """Criterion 2: 10^4 samples per plan, zero prefix-agreement violations."""
    total = 0
    for i, (_, plan) in enumerate(generated_plans):
        sampler = CouplingSampler(plan)
        rng = streams.stream(ROOT_SEED, "agreement", i)
        for _ in range(SAMPLES_PER_PLAN):
            draw = sampler.sample(rng)
            assert draw.agreement_holds(plan.window_strides), f"plan {i}"
            total += 1
    print(
        f"\nACCEPTANCE PASS: agreement event held in all {total} samples"
        f" ({SAMPLES_PER_PLAN} per plan)"
    )


def test_window_certificates(generated_plans):
    """Criterion 3: deficits below 2**-n, schedule monotone, full by M+1."""
    for i, (seq, plan) in enumerate(generated_plans):
        windows = plan.schedule.windows
        assert all(a <= b for a, b in zip(windows, windows[1:])), f"sequence {i}"
        assert windows[-1] == seq.space.width, f"sequence {i}: never reaches full window"
        for n, k in enumerate(windows, start=1):
            assert window_deficit(seq, n, k) <= F(1, 2**n), f"sequence {i}, n={n}"
    print(
        f"\nACCEPTANCE PASS: window certificates on {len(generated_plans)}"
        " schedules (deficit <= 2^-n, monotone, full by M+1)"
    )


def test_ladder_properties(generated_plans):
    """Criterion 4: ladder monotone, below floors, dominated, mass gap bounded."""
    for i, (seq, plan) in enumerate(generated_plans):
        ladder = plan.ladder
        zero = MassFunction(seq.space, 1, {})
        for n, (prev, env) in enumerate(itertools.pairwise((zero, *ladder.envelopes)), start=1):
            assert all(prev[z] <= env[z] for z in prev.mass), f"sequence {i}, n={n}"
            floor = ladder.floors[n - 1]
            assert all(v <= floor[z] for z, v in env.mass.items()), f"sequence {i}, n={n}"
            k = plan.schedule.window(n)
            env_window = window_marginal(env, k)
            member_window = window_marginal(seq.member(n), k)
            assert all(
                v <= member_window[z] for z, v in env_window.mass.items()
            ), f"sequence {i}, n={n}: domination"
            assert 1 - env.total_mass <= F(1, 2 ** (n - 1)), f"sequence {i}, n={n}: gap"
        assert ladder.envelopes[-1] == seq.limit, f"sequence {i}: final envelope"
    print(
        f"\nACCEPTANCE PASS: ladder properties on {len(generated_plans)}"
        " instances (exact monotonicity, domination, mass bounds)"
    )


def test_skorohod_distance_guarantee(generated_couplings):
    """Criterion 5: distance bound in every sample; decoded marginals exact."""
    total = 0
    for i, coupling in enumerate(generated_couplings):
        sampler = CouplingSampler(coupling.plan)
        rng = streams.stream(ROOT_SEED, "skorohod", i)
        for _ in range(SAMPLES_PER_PLAN):
            draw = decode_sample(coupling, sampler.sample(rng))
            assert not distance_violations(coupling, draw), f"model {i}"
            total += 1
        check = joint_law_marginals(coupling.plan)
        assert check.passed, f"model {i}: {check.witness}"
        members, limit = coupling_marginals(coupling.plan)
        laws = coupling.laws.sequence
        targets = [laws.member(n) for n in range(1, coupling.plan.count + 1)]
        for n, (digit_marginal, target) in enumerate(
            zip(members + (limit,), targets + [laws.limit]), start=1
        ):
            decoded = {}
            for z, v in digit_marginal.mass.items():
                idx = coupling.decode(z)
                decoded[idx] = decoded.get(idx, F(0)) + v
            target_masses = dict(target.mass)
            assert decoded == target_masses, f"model {i}, law {n}: decoded marginal"
    print(
        f"\nACCEPTANCE PASS: distance guarantee in all {total} samples on"
        f" {len(generated_couplings)} models; decoded marginals exact on all"
        f" {len(generated_couplings)}"
    )


def test_partition_validity(generated_couplings):
    """Criterion 6: every built tree passes all exact partition checks."""
    for i, coupling in enumerate(generated_couplings):
        failed = [c for c in tree_exact_checks(coupling.tree) if not c.passed]
        assert not failed, f"model {i}: {failed}"
    print(
        f"\nACCEPTANCE PASS: partition validity on {len(generated_couplings)}"
        " trees (disjoint, nested, covering, diameters, residual and sphere masses)"
    )


def test_determinism(tmp_path, line_laws, two_member_sequence):
    """Criterion 7: identical inputs and seed give byte-identical artifacts."""
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(jsonio.canonical_dumps(jsonio.sequence_to_doc(two_member_sequence)))
    sko_path = tmp_path / "line.json"
    sko_path.write_text(jsonio.canonical_dumps(jsonio.law_sequence_to_doc(line_laws)))

    artifacts = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        plan_path = base / "plan.json"
        assert main(["build", "--spec", str(seq_path), "--out", str(plan_path)]) == 0
        samples_path = base / "samples.jsonl"
        assert (
            main(
                [
                    "sample",
                    "--plan",
                    str(plan_path),
                    "--samples",
                    "200",
                    "--seed",
                    "77",
                    "--out",
                    str(samples_path),
                ]
            )
            == 0
        )
        report_path = base / "report.json"
        assert (
            main(
                [
                    "verify",
                    "--plan",
                    str(plan_path),
                    "--out",
                    str(report_path),
                    "--samples",
                    "500",
                    "--seed",
                    "77",
                ]
            )
            == 0
        )
        sko_dir = base / "sko"
        assert (
            main(
                [
                    "skorohod",
                    "--spec",
                    str(sko_path),
                    "--depth",
                    "2",
                    "--samples",
                    "500",
                    "--seed",
                    "77",
                    "--out",
                    str(sko_dir),
                ]
            )
            == 0
        )
        artifacts[run] = {
            "plan": plan_path.read_bytes(),
            "samples": samples_path.read_bytes(),
            "report": report_path.read_bytes(),
            "tree": (sko_dir / "tree.json").read_bytes(),
            "sko_plan": (sko_dir / "plan.json").read_bytes(),
            "sko_report": (sko_dir / "report.json").read_bytes(),
        }
    assert artifacts["a"] == artifacts["b"]
    records = [json.loads(line) for line in artifacts["a"]["samples"].decode().splitlines()]
    assert len(records) == 200
    print("\nACCEPTANCE PASS: determinism (byte-identical plans, samples, reports)")
