import itertools
from dataclasses import replace
from fractions import Fraction as F

import pytest

from windowcoupling import (
    Alphabet,
    LawSequence,
    MassFunction,
    MetricSpaceModel,
    ProcessSequenceSpec,
    ProductSpace,
)


@pytest.fixture
def binary_space():
    return ProductSpace((Alphabet(("a", "b")),))


@pytest.fixture
def constant_sequence(binary_space):
    """All members equal the limit; every construction step is trivial."""
    q = MassFunction.from_masses(binary_space, {(0,): F(1, 2), (1,): F(1, 2)})
    return ProcessSequenceSpec((q,), q)


@pytest.fixture
def skewed_sequence(binary_space):
    """One member (1/4, 3/4) against the uniform limit; the worked example."""
    p1 = MassFunction.from_masses(binary_space, {(0,): F(1, 4), (1,): F(3, 4)})
    q = MassFunction.from_masses(binary_space, {(0,): F(1, 2), (1,): F(1, 2)})
    return ProcessSequenceSpec((p1,), q)


@pytest.fixture
def two_member_sequence(binary_space):
    """P1=(1/4,3/4), P2=(1/3,2/3), limit uniform, tail index 2."""
    p1 = MassFunction.from_masses(binary_space, {(0,): F(1, 4), (1,): F(3, 4)})
    p2 = MassFunction.from_masses(binary_space, {(0,): F(1, 3), (1,): F(2, 3)})
    q = MassFunction.from_masses(binary_space, {(0,): F(1, 2), (1,): F(1, 2)})
    return ProcessSequenceSpec((p1, p2), q)


@pytest.fixture
def pair_space():
    return ProductSpace((Alphabet(("a", "b")), Alphabet(("x", "y"))))


@pytest.fixture
def line_model():
    """Three rational points 0, 1/2, 1 on the line under the max-metric."""
    return MetricSpaceModel.from_coords(
        ("x0", "x1", "x2"), ((F(0),), (F(1, 2),), (F(1),))
    )


@pytest.fixture
def line_laws(line_model):
    space = line_model.space
    uniform = MassFunction.from_masses(space, {(0,): F(1, 3), (1,): F(1, 3), (2,): F(1, 3)})
    start = MassFunction.from_masses(space, {(0,): F(1)})
    return LawSequence(line_model, ProcessSequenceSpec((start,), uniform))


def tuple_mass(law):
    """A law's masses keyed by the tuples of its points' symbol indices, in support order."""
    return {law.space.decode(z): v for z, v in law.mass.items()}


def with_envelopes(plan, *envelopes):
    """A copy of the plan with E_1|k_M..E_M|k_M put in its cache, as no schedule derives them.

    Each envelope is a law on the k_M window, or its masses keyed by
    k_M-prefix codes; E_{M+1}|k_M stays the limit's L|k_M.
    """
    top = plan.envelopes[-1]
    laws = (
        e if isinstance(e, MassFunction) else MassFunction.from_masses(top.space, e)
        for e in envelopes
    )
    copy = replace(plan)
    vars(copy)["envelopes"] = (*laws, top)
    return copy


def widening_sequence(rng, width, letters=3, members=8, max_weight=20):
    """Member n keeps the limit's marginal on its first f(n) coordinates and redraws the rest.

    f is non-decreasing and strictly between 0 and the width, and every
    law has full support, so the schedule passes through intermediate
    windows instead of jumping from 0 to the full width.
    """
    space = ProductSpace(tuple(Alphabet(tuple("abc"[:letters])) for _ in range(width)))
    points = list(itertools.product(range(letters), repeat=width))

    def weights():
        return {z: rng.randint(1, max_weight) for z in points}

    def prefix_sums(masses, k):
        sums = {}
        for z, v in masses.items():
            sums[z[:k]] = sums.get(z[:k], 0) + v
        return sums

    raw = weights()
    total = sum(raw.values())
    limit = {z: F(w, total) for z, w in raw.items()}
    laws = []
    for n in range(1, members + 1):
        k = 1 + ((width - 1) * n) // (members + 1)
        kept, suffix = prefix_sums(limit, k), weights()
        suffix_total = prefix_sums(suffix, k)
        laws.append(
            MassFunction.from_masses(
                space, {z: kept[z[:k]] * F(suffix[z], suffix_total[z[:k]]) for z in points}
            )
        )
    return ProcessSequenceSpec(tuple(laws), MassFunction.from_masses(space, limit))
