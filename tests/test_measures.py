import itertools
import math
import re
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windowcoupling import (
    Alphabet,
    MassFunction,
    ProcessSequenceSpec,
    ProductSpace,
    SpaceMismatchError,
    WindowRangeError,
    WindowTable,
    build_schedule,
    conditional_given_prefix,
    density_convergence,
    extended_floor,
    total_variation,
    window_deficit,
    window_infimum,
    window_marginal,
)
from windowcoupling.engine import CouplingPlan, KernelTable, extended_floors
from windowcoupling import measures
from windowcoupling.measures import ZERO, pointwise_minimum, prefix_conditionals, weighted_sum

from conftest import tuple_mass


@st.composite
def spaces(draw, max_width=3, max_alphabet=3):
    width = draw(st.integers(1, max_width))
    return ProductSpace(
        tuple(
            Alphabet(tuple("abc"[: draw(st.integers(1, max_alphabet))]))
            for _ in range(width)
        )
    )


@st.composite
def probability_laws(draw, space):
    points = list(space.points())
    weights = draw(
        st.lists(st.integers(0, 8), min_size=len(points), max_size=len(points)).filter(
            lambda w: sum(w) > 0
        )
    )
    total = sum(weights)
    return MassFunction.from_masses(space, {z: F(w, total) for z, w in zip(points, weights)})


@st.composite
def sequences(draw):
    space = draw(spaces())
    count = draw(st.integers(1, 3))
    members = tuple(draw(probability_laws(space)) for _ in range(count))
    limit = draw(probability_laws(space))
    return ProcessSequenceSpec(members, limit)


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabet(("a", "a"))

    def test_rejects_comma(self):
        with pytest.raises(ValueError, match="comma"):
            Alphabet(("a,b",))

    def test_index(self):
        assert Alphabet(("a", "b")).index("b") == 1
        with pytest.raises(ValueError):
            Alphabet(("a",)).index("z")
        with pytest.raises(ValueError):
            Alphabet(("a",)).index(["a"])


class TestProductSpace:
    def test_size_and_points(self, pair_space):
        assert pair_space.size() == 4
        assert pair_space.points() == range(4)
        tuples = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert list(map(pair_space.decode, pair_space.points())) == tuples

    def test_window_range(self, pair_space):
        assert pair_space.window(0).width == 0
        assert pair_space.window(2) == pair_space
        with pytest.raises(WindowRangeError):
            pair_space.window(3)
        with pytest.raises(WindowRangeError):
            pair_space.window(-1)

    def test_unit_space_has_one_point(self, pair_space):
        assert list(pair_space.window(0).points()) == [0]
        assert pair_space.window(0).decode(0) == ()

    def test_point_formatting_round_trip(self, pair_space):
        assert pair_space.format_point(pair_space.encode((0, 1))) == "a,y"
        assert pair_space.parse_point("a,y") == pair_space.encode((0, 1)) == 1
        unit = pair_space.window(0)
        assert unit.format_point(unit.encode(())) == ""
        assert unit.parse_point("") == 0

    @pytest.mark.parametrize("point", [(2, 0), (0, -1), (0,), (0, 1, 0), ("a", 0), [0, 1]])
    def test_format_point_outside_the_space(self, pair_space, point):
        # a tuple is not a code; all but the list [0, 1] are outside as tuples too
        with pytest.raises(ValueError, match="outside the space"):
            pair_space.format_point(point)
        if point != [0, 1]:
            with pytest.raises(ValueError, match="outside the space"):
                pair_space.encode(point)

    def test_label_map_keeps_every_check(self, pair_space):
        labels = [pair_space.format_point(z) for z in pair_space.points()]
        assert labels == ["a,x", "a,y", "b,x", "b,y"]
        assert pair_space.format_point(2) is labels[2]  # joined once
        for point in [1.0, True, -1, 4, (1, 0), "1", None]:
            with pytest.raises(ValueError, match="outside the space"):
                pair_space.format_point(point)
        assert pair_space.format_point(pair_space.encode((True, False))) == "b,x"
        assert pair_space.format_point(pair_space.encode((True, 0))) == "b,x"

    def test_parse_point_unknown_symbol(self, pair_space):
        with pytest.raises(ValueError) as info:
            pair_space.parse_point("a,z")
        assert info.value.args == ("symbol 'z' not in alphabet of 2 symbols",)

    @pytest.mark.parametrize("text", ["a", "a,x,y", ""])
    def test_parse_point_wrong_coordinate_count(self, pair_space, text):
        with pytest.raises(ValueError, match="coordinates, expected 2"):
            pair_space.parse_point(text)

    def test_parse_point_warm_map_keeps_every_check(self, pair_space):
        for z in pair_space.points():
            assert pair_space.parse_point(pair_space.format_point(z)) == z
        first = pair_space.parse_point("b,x")
        assert pair_space.parse_point("b,x") is first  # served from the label map
        assert pair_space.window(1).parse_point("b") == 1  # one map per space
        for _ in range(2):  # a failed parse is not kept
            with pytest.raises(ValueError) as info:
                pair_space.parse_point("a,z")
            assert info.value.args == ("symbol 'z' not in alphabet of 2 symbols",)
            for text in ["a", "a,x,y", ""]:
                with pytest.raises(ValueError, match="coordinates, expected 2"):
                    pair_space.parse_point(text)

    @settings(max_examples=200)
    @given(st.lists(st.integers(1, 4), min_size=0, max_size=4), st.randoms(use_true_random=False))
    def test_codes_are_the_mixed_radix_index_of_the_tuples(self, sizes, rng):
        space = ProductSpace(tuple(Alphabet(tuple("abcd"[:size])) for size in sizes))
        tuples = list(itertools.product(*(range(size) for size in sizes)))
        # points() enumerates the tuples in lexicographic (cartesian) order
        assert [space.decode(z) for z in space.points()] == tuples
        for t in tuples:
            assert space.decode(space.encode(t)) == t
        shuffled = tuples[:]
        rng.shuffle(shuffled)
        codes = [space.encode(t) for t in shuffled]
        assert [space.decode(z) for z in sorted(codes)] == sorted(shuffled)
        for z in space.points():
            for k in range(space.width + 1):
                assert space.prefix(z, k) == space.window(k).encode(space.decode(z)[:k])

    def test_membership(self, pair_space):
        assert 3 in pair_space and 0 in pair_space
        for point in [4, -1, 1.0, True, (1, 1), "1"]:  # codes only: no bool, no tuple
            assert point not in pair_space
        assert pair_space.encode((1, 1)) == 3
        assert pair_space.encode((True, 0)) == 2  # bool is an int subclass
        for point in [(2, 0), (0, 1.0), (1.0, 0), (0,)]:
            with pytest.raises(ValueError, match="outside the space"):
                pair_space.encode(point)
        assert pair_space.encode([0, 1]) == 1


def reference_mass_function(space, mass):
    """The one-Fraction-at-a-time validation loop, kept as the reference.

    A law holds one mass per point, so keys that convert to equal points
    are rejected before any entry is checked.
    """
    seen = set()
    for point, _ in mass.items():
        pt = tuple(point)
        if pt in seen:
            raise ValueError(f"point {pt!r} given twice")
        seen.add(pt)
    sizes = [len(a) for a in space.coordinates]
    clean = {}
    total = ZERO
    for point, value in mass.items():
        pt = tuple(point)
        if len(pt) != len(sizes) or not all(
            isinstance(i, int) and 0 <= i < n for i, n in zip(pt, sizes)
        ):
            raise ValueError(f"point {pt!r} outside the space")
        val = F(value)
        if val < 0:
            raise ValueError(f"negative mass {val} at {pt!r}")
        if val > 0:
            clean[pt] = val
            total += val
    if total > 1:
        raise ValueError(f"total mass {total} exceeds 1")
    return clean, total


class Pairs(list):
    """A list of (point, mass) pairs read through ``items()``, so keys may be lists."""

    def items(self):
        return iter(self)


def outcome(construct):
    try:
        clean, total = construct()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    # key and value types and insertion order all reach the wire format
    return [(k, type(k), v, type(v)) for k, v in clean.items()], total, type(total)


bad_coordinates = st.one_of(st.integers(-2, 4), st.just(1.0), st.just("a"), st.none())
masses = st.one_of(
    st.integers(0, 1),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=12),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=12).map(str),
)
bad_masses = st.one_of(
    st.integers(-1, 2), st.fractions(min_value=-1, max_value=2, max_denominator=12)
)


@st.composite
def raw_mass_maps(draw):
    """Spaces with mass maps that are mostly valid and sometimes break one rule."""
    space = draw(spaces())
    sizes = [len(a) for a in space.coordinates]
    entries = []
    for _ in range(draw(st.integers(0, 5))):
        coords = [
            draw(st.integers(0, n - 1) | st.booleans().filter(lambda b, n=n: b < n))
            for n in sizes
        ]
        flaw = draw(st.integers(0, 11))
        if flaw == 0:
            coords[draw(st.integers(0, len(coords) - 1))] = draw(bad_coordinates)
        elif flaw == 1:
            coords = coords[:-1] if draw(st.booleans()) else coords + [0]
        key = coords if draw(st.booleans()) else tuple(coords)
        entries.append((key, draw(bad_masses if flaw == 2 else masses)))
    if all(isinstance(key, tuple) for key, _ in entries) and draw(st.booleans()):
        return space, dict(entries)
    return space, Pairs(entries)


class TestMassFunction:
    @settings(max_examples=400)
    @given(raw_mass_maps())
    def test_matches_reference_validation(self, case):
        space, mass = case

        def construct():
            law = MassFunction.from_masses(space, mass)
            return tuple_mass(law), law.total_mass

        assert outcome(construct) == outcome(lambda: reference_mass_function(space, mass))

    @settings(max_examples=300)
    @given(st.data())
    def test_derived_matches_the_checking_constructor(self, data):
        """On points of the space, ``_derived`` builds or refuses exactly as the constructor does."""
        space = data.draw(spaces())
        k = data.draw(st.integers(0, space.width))
        points = sorted({space.prefix(z, k) for z in space.points()})
        chosen = data.draw(st.lists(st.sampled_from(points), unique=True, max_size=6))
        weights = {z: data.draw(st.integers(-2, 9)) for z in chosen}
        denominator = data.draw(st.integers(-1, 24))
        window = space.window(k)

        def construct(build):
            def run():
                law = build(window, denominator, weights)
                assert type(law) is MassFunction and law.space is window
                return law.mass, law.total_mass

            return run

        # masses in support order, or the error type and message
        assert outcome(construct(MassFunction._derived)) == outcome(construct(MassFunction))

    def test_getitem_accepts_any_sequence(self, pair_space):
        law = MassFunction.from_masses(pair_space, {(0, 1): F(1, 3)})
        assert law[(0, 1)] == law[[0, 1]] == F(1, 3)
        assert law[(1, 1)] == 0

    def test_drops_zero_entries(self, binary_space):
        law = MassFunction.from_masses(binary_space, {(0,): F(1), (1,): F(0)})
        assert law.mass == {0: F(1)}
        assert law.is_probability

    def test_rejects_negative(self, binary_space):
        with pytest.raises(ValueError, match="negative"):
            MassFunction.from_masses(binary_space, {(0,): F(-1, 2)})

    def test_rejects_excess_mass(self, binary_space):
        with pytest.raises(ValueError, match="exceeds"):
            MassFunction.from_masses(binary_space, {(0,): F(2, 3), (1,): F(2, 3)})

    def test_rejects_foreign_point(self, binary_space):
        with pytest.raises(ValueError, match="outside"):
            MassFunction.from_masses(binary_space, {(5,): F(1)})

    def test_sub_probability_flagged(self, binary_space):
        law = MassFunction.from_masses(binary_space, {(0,): F(1, 3)})
        assert not law.is_probability
        assert law.total_mass == F(1, 3)


class TestWindowMarginal:
    def test_uniform_pair_first_coordinate(self, pair_space):
        law = MassFunction.uniform(pair_space)
        got = window_marginal(law, 1)
        assert got.mass == {0: F(1, 2), 1: F(1, 2)}

    def test_window_zero_is_total_mass_on_empty_tuple(self, pair_space):
        law = MassFunction.uniform(pair_space)
        got = window_marginal(law, 0)
        assert tuple_mass(got) == {(): F(1)}

    def test_mixed_law_matches_direct_summation(self, pair_space):
        law = MassFunction.from_masses(
            pair_space, {(0, 0): F(1, 3), (0, 1): F(1, 6), (1, 0): F(1, 2)}
        )
        # independent oracle: group masses by prefix
        expected = defaultdict(F)
        for z, v in law.mass.items():
            expected[pair_space.prefix(z, 1)] += v
        got = window_marginal(law, 1)
        assert got.mass == dict(expected)
        assert tuple_mass(got) == {(0,): F(1, 2), (1,): F(1, 2)}

    def test_out_of_range(self, pair_space):
        with pytest.raises(WindowRangeError):
            window_marginal(MassFunction.uniform(pair_space), 3)

    def test_full_width_is_the_law_itself(self, pair_space):
        # as ``ProductSpace.window`` is the space itself at the full width
        law = MassFunction.from_masses(pair_space, {(0, 1): F(1, 3), (1, 0): F(2, 3)})
        assert window_marginal(law, 2) is law
        window = window_marginal(law, 1)
        assert window_marginal(window, 1) is window

    @given(st.data())
    def test_matches_fraction_summing_reference(self, data):
        space = data.draw(spaces())
        law = data.draw(probability_laws(space))
        k = data.draw(st.integers(0, space.width))
        expected = {}
        for z, v in law.mass.items():
            p = space.prefix(z, k)
            expected[p] = expected.get(p, ZERO) + v
        got = window_marginal(law, k)
        assert list(got.mass.items()) == list(expected.items())
        assert got.total_mass == law.total_mass

    @given(st.data())
    def test_preserves_total_mass(self, data):
        space = data.draw(spaces())
        law = data.draw(probability_laws(space))
        k = data.draw(st.integers(0, space.width))
        assert window_marginal(law, k).total_mass == law.total_mass

    @given(st.data())
    def test_marginal_composition(self, data):
        space = data.draw(spaces())
        law = data.draw(probability_laws(space))
        k2 = data.draw(st.integers(0, space.width))
        k1 = data.draw(st.integers(0, k2))
        assert window_marginal(window_marginal(law, k2), k1) == window_marginal(law, k1)


@st.composite
def mixed_masses(draw, space, probability=True):
    """Fraction masses with mixed denominators on some points of the space.

    Each point draws its own fraction, so the reduced denominators
    differ; a probability law is normalized by the sum, and otherwise
    the law is scaled down by a drawn factor of at most one.
    """
    points = list(space.points())
    values = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=30),
            min_size=len(points),
            max_size=len(points),
        ).filter(lambda v: sum(v) > 0)
    )
    scale = 1 if probability else draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
    total = sum(values)
    return {z: v * scale / total for z, v in zip(points, values)}


@st.composite
def mixed_sequences(draw):
    space = draw(spaces())
    count = draw(st.integers(1, 3))
    laws = [
        MassFunction.from_masses(space, draw(mixed_masses(space))) for _ in range(count + 1)
    ]
    return ProcessSequenceSpec(tuple(laws[:-1]), laws[-1])


def fraction_marginal(space, mass, k):
    """Window marginal of a Fraction mass map on ``space``, one addition at a time."""
    out = {}
    for z, v in mass.items():
        p = space.prefix(z, k)
        out[p] = out.get(p, ZERO) + v
    return out


class TestIntegerForm:
    """Integer-weight laws against the one-Fraction-at-a-time references."""

    @settings(max_examples=200)
    @given(st.data())
    def test_canonical_form_and_views(self, data):
        space = data.draw(spaces())
        probability = data.draw(st.booleans())
        masses = data.draw(mixed_masses(space, probability))
        law = MassFunction.from_masses(space, masses)
        positive = [(z, v) for z, v in masses.items() if v]
        assert law.denominator == math.lcm(*(v.denominator for _, v in positive))
        assert math.gcd(law.denominator, *law.weights.values()) == 1
        assert list(law.mass.items()) == positive
        assert all(type(v) is F for v in law.mass.values())
        with pytest.raises(TypeError):
            law.mass[next(iter(space.points()))] = F(0)  # a read-only view
        assert all(law[z] == masses[z] for z in space.points())
        assert law.total_mass == sum(masses.values(), ZERO)
        assert law.is_probability == (law.total_mass == 1)
        # any common scale of denominator and weights gives the same law
        scale = data.draw(st.integers(1, 12))
        scaled = {z: w * scale for z, w in law.weights.items()}
        assert MassFunction(space, law.denominator * scale, scaled) == law
        if law.is_probability:
            assert KernelTable(law).slices == {0: (0, len(law.weights), law.denominator)}

    @settings(max_examples=100)
    @given(st.data())
    def test_window_marginal_matches_fraction_reference(self, data):
        space = data.draw(spaces())
        masses = data.draw(mixed_masses(space, data.draw(st.booleans())))
        law = MassFunction.from_masses(space, masses)
        for k in range(space.width + 1):
            expected = {p: v for p, v in fraction_marginal(space, masses, k).items() if v}
            assert list(window_marginal(law, k).mass.items()) == list(expected.items())

    @settings(max_examples=60, deadline=None)
    @given(mixed_sequences())
    def test_table_conditionals_and_ladder_match_fraction_references(self, seq):
        table = seq.window_table
        for n in range(1, seq.horizon + 3):
            member = seq.member(n)
            for k in range(seq.space.width + 1):
                expected = fraction_marginal(seq.space, member.mass, k)
                assert table.marginal(n, k).mass == {p: v for p, v in expected.items() if v}
                assert table.infimum(n, k) == window_infimum(seq, n, k)
                grouped = prefix_conditionals(member, k)
                assert set(grouped) == set(expected)
                for prefix, conditional in grouped.items():
                    assert conditional.mass == {
                        z: v / expected[prefix]
                        for z, v in member.mass.items()
                        if seq.space.prefix(z, k) == prefix
                    }
        schedule = build_schedule(seq)
        envelopes = CouplingPlan(seq, schedule).ladder.envelopes
        limit = seq.limit.mass
        floors = [extended_floor(seq, schedule, n) for n in range(1, seq.horizon + 2)]
        assert extended_floors(seq, schedule) == tuple(floors)
        for n, env in enumerate(envelopes, start=1):
            expected = {
                z: q * min(floor[z] / q for floor in floors[n - 1 :]) for z, q in limit.items()
            }
            assert env.mass == {z: v for z, v in expected.items() if v}


class TestPointwiseMinimum:
    def test_minimum_over_the_first_support(self, binary_space):
        first = MassFunction.from_masses(binary_space, {0: F(1, 2), 1: F(1, 4)})
        second = MassFunction.from_masses(binary_space, {1: F(1, 8)})
        assert pointwise_minimum(first, second).mass == {1: F(1, 8)}
        assert pointwise_minimum(second, first).mass == {1: F(1, 8)}

    def test_first_itself_where_second_is_nowhere_below_it(self, binary_space):
        first = MassFunction.from_masses(binary_space, {0: F(1, 2), 1: F(1, 4)})
        assert pointwise_minimum(first, MassFunction.uniform(binary_space)) is first


class TestWeightedSum:
    """``weighted_sum`` against the sum of c * law.mass, one ``Fraction`` at a time."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_fraction_reference(self, data):
        space = data.draw(spaces())
        coefficients = st.one_of(
            st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=12)
        )
        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            masses = data.draw(mixed_masses(space, data.draw(st.booleans())))
            terms.append((data.draw(coefficients), MassFunction.from_masses(space, masses)))
        # points in the order the terms first charge them
        expected: dict = {}
        for c, law in terms:
            for z, v in law.mass.items():
                expected[z] = expected.get(z, ZERO) + c * v
        negative = [(z, v) for z, v in expected.items() if v < 0]
        total = sum(expected.values(), ZERO)
        if negative:
            z, v = negative[0]
            message = f"negative mass {v} at {space.decode(z)}"
        elif total > 1:
            message = f"total mass {total} exceeds 1"
        else:
            law = weighted_sum(space, iter(terms))
            assert law.mass == {z: v for z, v in expected.items() if v}
            assert law.space is space
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            weighted_sum(space, terms)

    def test_laws_on_another_space_are_refused(self, binary_space, pair_space):
        with pytest.raises(SpaceMismatchError):
            weighted_sum(binary_space, ((1, MassFunction.uniform(pair_space)),))


class TestWindowInfimum:
    def test_constant_sequence_is_identity(self, constant_sequence):
        got = window_infimum(constant_sequence, 1, 1)
        assert got == window_marginal(constant_sequence.limit, 1)

    def test_two_member_example(self, two_member_sequence):
        # min over {1/4, 1/3, 1/2} and {3/4, 2/3, 1/2}
        got = window_infimum(two_member_sequence, 1, 1)
        assert got.mass == {0: F(1, 4), 1: F(1, 2)}

    def test_past_tail_equals_limit(self, two_member_sequence):
        got = window_infimum(two_member_sequence, 3, 1)
        assert got == window_marginal(two_member_sequence.limit, 1)

    def test_start_below_one_rejected(self, constant_sequence):
        with pytest.raises(ValueError):
            window_infimum(constant_sequence, 0, 1)

    @settings(max_examples=50)
    @given(st.data())
    def test_monotone_in_start_and_dominated(self, data):
        seq = data.draw(sequences())
        k = data.draw(st.integers(0, seq.space.width))
        previous = None
        for n in range(1, seq.horizon + 2):
            current = window_infimum(seq, n, k)
            if previous is not None:
                assert all(previous[z] <= current[z] for z in previous.mass)
            for m in range(n, seq.horizon + 1):
                member = window_marginal(seq.member(m), k)
                assert all(v <= member[z] for z, v in current.mass.items())
            previous = current


class TestWindowTable:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_direct_functions(self, data):
        # the marginals and infima are filled on first read, so read them in a random order
        seq = data.draw(sequences())
        entries = [(n, k) for n in range(1, seq.horizon + 3) for k in range(seq.space.width + 1)]
        table = WindowTable(seq)
        for n, k in data.draw(st.permutations(entries)):
            assert table.marginal(n, k) == window_marginal(seq.member(n), k)
            assert table.infimum(n, k) == window_infimum(seq, n, k)
            assert table.deficit(n, k) == window_deficit(seq, n, k)

    def test_marginals_are_computed_when_read_from_the_narrowest_wider_one(self, monkeypatch):
        space = ProductSpace((Alphabet(("a", "b")),) * 3)
        member = MassFunction.from_masses(space, {z: F(z + 1, 36) for z in space.points()})
        seq = ProcessSequenceSpec((member,), MassFunction.uniform(space))
        truncations = []  # (width of the law truncated, window)
        marginal = measures.window_marginal

        def recorded(law, k):
            truncations.append((law.space.width, k))
            return marginal(law, k)

        monkeypatch.setattr(measures, "window_marginal", recorded)
        table = seq.window_table
        assert table is seq.window_table and not truncations
        table.infimum(1, 2)  # the limit's and the member's window-2 marginals
        assert truncations == [(3, 2), (3, 2)]
        table.infimum(1, 1)  # each from its window-2 marginal
        assert truncations[2:] == [(2, 1), (2, 1)]
        # a probability law's window-0 marginal is the unit mass, truncated from nothing
        assert table.infimum(1, 0) == MassFunction(space.window(0), 1, {0: 1})
        assert table.marginal(2, 3) is seq.limit and len(truncations) == 4

    def test_rejects_bad_indices(self, two_member_sequence):
        table = WindowTable(two_member_sequence)
        with pytest.raises(ValueError):
            table.infimum(0, 1)
        with pytest.raises(WindowRangeError):
            table.infimum(1, 2)
        with pytest.raises(WindowRangeError):
            table.marginal(1, -1)


class TestDensityConvergence:
    def test_constant_sequence(self, constant_sequence):
        assert density_convergence(constant_sequence, 1) == (True, 1)

    def test_two_member_sequence_witnessed_at_tail(self, two_member_sequence):
        # infimum reaches (1/2, 1/2) exactly when only the limit remains
        assert density_convergence(two_member_sequence, 1) == (True, 3)

    def test_tail_rule_dominates_point_mass_members(self, binary_space):
        point = MassFunction.from_masses(binary_space, {(0,): F(1)})
        uniform = MassFunction.from_masses(binary_space, {(0,): F(1, 2), (1,): F(1, 2)})
        seq = ProcessSequenceSpec((point, point), uniform)
        assert density_convergence(seq, 1) == (True, 3)

    @settings(max_examples=50)
    @given(st.data())
    def test_infimum_mass_reaches_one_at_witness(self, data):
        seq = data.draw(sequences())
        k = data.draw(st.integers(0, seq.space.width))
        verdict = density_convergence(seq, k)
        assert verdict.converges
        masses = [
            window_infimum(seq, n, k).total_mass for n in range(1, seq.horizon + 2)
        ]
        assert all(a <= b for a, b in zip(masses, masses[1:]))
        assert masses[verdict.witness - 1] == 1


class TestTotalVariation:
    def test_identical_laws(self, binary_space):
        law = MassFunction.uniform(binary_space)
        assert total_variation(law, law) == 0

    def test_disjoint_point_masses(self, binary_space):
        a = MassFunction.from_masses(binary_space, {(0,): F(1)})
        b = MassFunction.from_masses(binary_space, {(1,): F(1)})
        assert total_variation(a, b) == 1

    def test_quarter_example(self, binary_space):
        p = MassFunction.from_masses(binary_space, {(0,): F(1, 4), (1,): F(3, 4)})
        q = MassFunction.uniform(binary_space)
        assert total_variation(p, q) == F(1, 4)

    def test_space_mismatch(self, binary_space, pair_space):
        with pytest.raises(SpaceMismatchError):
            total_variation(
                MassFunction.uniform(binary_space), MassFunction.uniform(pair_space)
            )

    @given(st.data())
    def test_symmetric_and_bounded(self, data):
        space = data.draw(spaces())
        p = data.draw(probability_laws(space))
        q = data.draw(probability_laws(space))
        tv = total_variation(p, q)
        assert 0 <= tv <= 1
        assert tv == total_variation(q, p)
        assert (tv == 0) == (p == q)


class TestConditioning:
    def test_conditional_given_prefix(self, pair_space):
        law = MassFunction.from_masses(
            pair_space, {(0, 0): F(1, 3), (0, 1): F(1, 6), (1, 0): F(1, 2)}
        )
        got = conditional_given_prefix(law, 0, 1)
        assert tuple_mass(got) == {(0, 0): F(2, 3), (0, 1): F(1, 3)}

    def test_zero_mass_prefix_rejected(self, pair_space):
        law = MassFunction.from_masses(pair_space, {(0, 0): F(1)})
        with pytest.raises(ValueError, match="zero-mass"):
            conditional_given_prefix(law, 1, 1)

    @given(st.data())
    def test_prefix_conditionals_match_one_by_one(self, data):
        space = data.draw(spaces())
        law = data.draw(probability_laws(space))
        k = data.draw(st.integers(0, space.width))
        grouped = prefix_conditionals(law, k)
        assert set(grouped) == set(window_marginal(law, k).mass)
        for prefix, conditional in grouped.items():
            assert conditional == conditional_given_prefix(law, prefix, k)


class TestProcessSequenceSpec:
    def test_needs_a_member(self, binary_space):
        q = MassFunction.uniform(binary_space)
        with pytest.raises(ValueError, match="^a sequence needs at least one member$"):
            ProcessSequenceSpec((), q)

    def test_members_must_share_the_limit_space(self, binary_space, pair_space):
        q = MassFunction.uniform(binary_space)
        other = MassFunction.uniform(pair_space)
        with pytest.raises(SpaceMismatchError, match="^law 0 lives on a different space$"):
            ProcessSequenceSpec((other, q), q)
        seq = ProcessSequenceSpec((q, q), q)
        assert seq.space is binary_space
        assert seq.horizon == 2

    def test_members_must_be_probability(self, binary_space):
        q = MassFunction.uniform(binary_space)
        sub = MassFunction.from_masses(binary_space, {(0,): F(1, 3)})
        with pytest.raises(ValueError, match="total mass"):
            ProcessSequenceSpec((sub,), q)

    def test_member_lookup_past_tail(self, two_member_sequence):
        assert two_member_sequence.member(7) == two_member_sequence.limit
        with pytest.raises(ValueError):
            two_member_sequence.member(0)
