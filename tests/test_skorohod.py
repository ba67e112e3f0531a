import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windowcoupling import (
    Cell,
    LawSequence,
    MassFunction,
    MetricModelError,
    MetricSpaceModel,
    ProcessSequenceSpec,
    SeparabilityError,
    SkorohodSample,
    WindowSchedule,
    audit_skorohod,
    build_partition_tree,
    build_skorohod_coupling,
    continuity_radius,
    digitize,
    distance_violations,
    exact_joint_law,
    mc_agreement,
    sample_coupled_points,
    tree_exact_checks,
    window_marginal,
)
from windowcoupling.skorohod import _max_metric_rows
from windowcoupling.verify import random_law_sequence, random_metric_model
from conftest import tuple_mass


class TestMetricSpaceModel:
    def test_from_coords_max_metric(self):
        m = MetricSpaceModel.from_coords(
            ("p0", "p1"), ((F(0), F(0)), (F(1, 2), F(1, 4)))
        )
        assert m.distance(0, 1) == F(1, 2)
        assert m.distance(1, 0) == F(1, 2)
        assert m.distance(0, 0) == 0

    def test_rejects_asymmetric_table(self):
        with pytest.raises(MetricModelError, match="asymmetric"):
            MetricSpaceModel.from_table(
                ("a", "b"), ((F(0), F(1)), (F(2), F(0)))
            )

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(MetricModelError, match="self-distance"):
            MetricSpaceModel.from_table(("a",), ((F(1),),))

    def test_rejects_triangle_violation(self):
        with pytest.raises(MetricModelError, match="triangle"):
            MetricSpaceModel.from_table(
                ("a", "b", "c"),
                (
                    (F(0), F(1), F(5)),
                    (F(1), F(0), F(1)),
                    (F(5), F(1), F(0)),
                ),
            )

    def test_rejects_coincident_points(self):
        with pytest.raises(MetricModelError, match="non-positive"):
            MetricSpaceModel.from_coords(("a", "b"), ((F(0),), (F(0),)))

    def test_rejects_comma_label(self):
        with pytest.raises(MetricModelError, match="label"):
            MetricSpaceModel.from_table(("a,b",), ((F(0),),))


def reference_metric_error(labels, dist):
    """The metric checks run directly on the entries, as Fraction loops.

    The reference for the integer validation in MetricSpaceModel: same
    loop order, so the same first failure and message, or None.
    """
    n = len(labels)
    for i in range(n):
        if dist[i][i] != 0:
            return f"nonzero self-distance at {labels[i]}"
        for j in range(n):
            if dist[i][j] != dist[j][i]:
                return f"asymmetric distance {labels[i]}..{labels[j]}"
            if i != j and dist[i][j] <= 0:
                return f"non-positive distance {labels[i]}..{labels[j]}"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    return f"triangle inequality fails at ({labels[i]},{labels[j]},{labels[k]})"
    return None


rationals = st.builds(F, st.integers(-4, 30), st.sampled_from((1, 2, 3, 4, 6, 7, 10)))


@st.composite
def distance_tables(draw):
    """Max-metric tables of random rational points, some entries perturbed.

    Denominators are mixed, integral entries are sometimes plain ints,
    and each perturbation can break the diagonal, symmetry, positivity
    or the triangle inequality (coincident points break positivity too).
    """
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 2))
    coordinate = st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3, 5)))
    points = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), min_size=n, max_size=n))
    dist = [[max(abs(a - b) for a, b in zip(p, q)) for q in points] for p in points]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("diagonal", "asymmetric", "non-positive", "triangle", "pair")))
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        value = draw(rationals)
        if kind == "diagonal":
            dist[i][i] = value
        elif kind == "asymmetric":
            dist[i][j] = value
        elif kind == "non-positive":
            dist[i][j] = dist[j][i] = -abs(value)
        elif kind == "triangle":
            dist[i][k] = dist[k][i] = dist[i][j] + dist[j][k] + abs(value)
        else:
            dist[i][j] = dist[j][i] = value
    as_int = draw(st.booleans())
    return tuple(
        tuple(int(d) if as_int and d.denominator == 1 else d for d in row) for row in dist
    )


class TestMetricValidation:
    @settings(max_examples=400, deadline=None)
    @given(distance_tables())
    def test_integer_checks_match_the_fraction_reference(self, dist):
        labels = tuple(f"p{i}" for i in range(len(dist)))
        expected = reference_metric_error(labels, dist)
        try:
            model = MetricSpaceModel.from_table(labels, dist)
        except MetricModelError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert model.dist == dist

    def test_first_triangle_failure_is_reported(self):
        dist = (
            (0, F(1, 2), F(7, 3), 1),
            (F(1, 2), 0, 1, F(5, 6)),
            (F(7, 3), 1, 0, F(3, 2)),
            (1, F(5, 6), F(3, 2), 0),
        )
        labels = ("a", "b", "c", "d")
        with pytest.raises(MetricModelError) as info:
            MetricSpaceModel.from_table(labels, dist)
        assert str(info.value) == "triangle inequality fails at (a,b,c)"
        assert str(info.value) == reference_metric_error(labels, dist)

    @pytest.mark.parametrize(
        "build",
        [
            # the model of the points, and the integer max-metric table it is
            # built on, which must refuse before zip cuts the rows to one length
            pytest.param(MetricSpaceModel.from_coords, id="linf"),
            pytest.param(_max_metric_rows, id="table"),
        ],
    )
    def test_from_coords_refuses_ragged_points(self, build):
        with pytest.raises(MetricModelError, match="^point b has 1 coordinates, not 2$"):
            build(("a", "b", "c"), ((0, 0), (1,), (2, 1)))

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_support_flags_must_be_booleans(self, flag):
        with pytest.raises(MetricModelError, match="of b is not a boolean$"):
            MetricSpaceModel.from_table(("a", "b"), ((0, 1), (1, 0)), (True, flag))

    def test_from_coords_table_is_the_fraction_max_metric(self):
        rng = random.Random(3)
        points = [
            [F(rng.randint(-20, 20), rng.choice((1, 3, 8, 9))) for _ in range(3)]
            for _ in range(12)
        ]
        labels = tuple(f"p{i}" for i in range(12))
        model = MetricSpaceModel.from_coords(labels, points)
        assert model.dist == tuple(
            tuple(max(abs(a - b) for a, b in zip(p, q)) for q in points) for p in points
        )


def reference_continuity_radius(model, center, proposed, law):
    """continuity_radius on the Fraction table: realized distances as a set of Fractions."""
    realized = {model.dist[center][j] for j in law.weights}
    if proposed not in realized:
        return proposed
    below = [d for d in realized if d < proposed]
    lower = max(below) if below else F(0)
    return (lower + proposed) / 2


def reference_partition_tree(model, law, depth):
    """build_partition_tree's levels and paths, every distance read as a Fraction."""
    dist = model.dist

    def diameter(members):
        return max((dist[a][b] for a in members for b in members), default=F(0))

    levels = []
    parents = [Cell((), tuple(range(model.size)), diameter(range(model.size)), ())]
    for k in range(1, depth + 1):
        cells = []
        for parent in parents:
            targets = sorted(
                (i for i in parent.members if model.separable_support[i]),
                key=lambda i: model.labels[i],
            )
            assigned, spheres, child = set(), [], 2
            for center in targets:
                if center in assigned:
                    continue
                radius = reference_continuity_radius(model, center, F(1, 2 * k), law)
                spheres.append((center, radius))
                members = tuple(
                    j for j in parent.members if j not in assigned and dist[center][j] < radius
                )
                assigned.update(members)
                cells.append(
                    Cell(
                        parent.path + (child,),
                        members,
                        diameter(members),
                        parent.certificate + tuple(spheres),
                    )
                )
                child += 1
            residual = tuple(j for j in parent.members if j not in assigned)
            cells.append(
                Cell(
                    parent.path + (1,),
                    residual,
                    diameter(residual),
                    parent.certificate + tuple(spheres),
                )
            )
        cells.sort(key=lambda c: c.path)
        levels.append(tuple(cells))
        parents = cells
    paths = tuple(
        next(cell.path for cell in levels[-1] if i in cell.members) for i in range(model.size)
    )
    return tuple(levels), paths


@st.composite
def coordinate_points(draw):
    """Random rational points in 1-3 dimensions, some of them repeated."""
    n = draw(st.integers(1, 7))
    dim = draw(st.integers(1, 3))
    coordinate = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))
    points = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        points[j] = points[i]
    return points


class TestTrustedCoordinateModel:
    @settings(max_examples=300, deadline=None)
    @given(coordinate_points(), st.data())
    def test_equals_the_scanned_table_model(self, points, data):
        labels = tuple(f"p{i}" for i in range(len(points)))
        n = len(points)
        support = tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        dist = tuple(tuple(max(abs(a - b) for a, b in zip(p, q)) for q in points) for p in points)
        expected = reference_metric_error(labels, dist)
        if expected is not None:
            # only coincident points can fail, with the full scan's message
            assert expected.startswith("non-positive distance")
            with pytest.raises(MetricModelError) as info:
                MetricSpaceModel.from_table(labels, dist, support)
            assert str(info.value) == expected
            with pytest.raises(MetricModelError) as info:
                MetricSpaceModel.from_coords(labels, points, support)
            assert str(info.value) == expected
            return
        model = MetricSpaceModel.from_coords(labels, points, support)
        scanned = MetricSpaceModel.from_table(labels, model.dist, support)
        assert model.dist == scanned.dist == dist
        for i in range(n):
            for j in range(n):
                assert model.distance(i, j) == scanned.distance(i, j) == dist[i][j]
        assert (model.rows, model.scale) == (scanned.rows, scanned.scale)
        assert model != scanned  # the coordinate model keeps its coordinates
        assert MetricSpaceModel.from_coords(labels, points, support) == model
        assert MetricSpaceModel.from_table(labels, dist, support) == scanned
        assert hash(MetricSpaceModel.from_table(labels, dist, support)) == hash(scanned)

    @settings(max_examples=200, deadline=None)
    @given(coordinate_points(), st.integers(1, 3), st.data())
    def test_radius_and_tree_equal_the_fraction_reference(self, points, depth, data):
        points = list(dict.fromkeys(points))  # distinct, in first-seen order
        n = len(points)
        labels = tuple(f"p{i}" for i in range(n))
        support = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        support[data.draw(st.integers(0, n - 1))] = True
        model = MetricSpaceModel.from_coords(labels, points, support)
        weights = [data.draw(st.integers(0, 5)) if flag else 0 for flag in support]
        if not any(weights):
            weights[support.index(True)] = 1
        law = MassFunction.from_masses(
            model.space, {(i,): F(w, sum(weights)) for i, w in enumerate(weights) if w}
        )
        for center in range(n):
            proposals = {F(1, 2 * k) for k in range(1, depth + 1)}
            proposals |= {d for d in model.dist[center] if d > 0}
            for proposed in proposals:
                assert continuity_radius(model, center, proposed, law) == (
                    reference_continuity_radius(model, center, proposed, law)
                )
        tree = build_partition_tree(model, law, depth)
        assert (tree.levels, tree.paths) == reference_partition_tree(model, law, depth)
        assert all(c.passed for c in tree_exact_checks(tree))


def max_metric_table(points):
    """The max-metric distance table of rational points, as Fractions."""
    return tuple(tuple(max(abs(a - b) for a, b in zip(p, q)) for q in points) for p in points)


class TestNoFractionTableOnTheSkorohodPath:
    @staticmethod
    def assert_never_built(as_table: bool):
        rng = random.Random(5)
        for _ in range(5):
            model = random_metric_model(rng, max_points=8)
            laws = random_law_sequence(rng, model)
            if as_table:
                model = MetricSpaceModel.from_table(
                    model.labels, max_metric_table(model.coords), model.separable_support
                )
                laws = LawSequence(model, laws.sequence)
            coupling = build_skorohod_coupling(model, laws, 3)
            audit = audit_skorohod(coupling)
            guard = mc_agreement(coupling, 50, 1)
            assert audit.all_passed and guard.all_passed
            assert len(coupling.spec_sha256) == 64
            assert "dist" not in vars(model)
            # the table is built on first read, where the check would see it
            assert model.dist[0][0] == 0 and "dist" in vars(model)

    def test_coupling_audit_and_mc_never_build_the_table(self):
        self.assert_never_built(as_table=False)

    def test_a_table_model_never_builds_its_fraction_table_either(self):
        self.assert_never_built(as_table=True)


class TestDistanceGuard:
    def test_crafted_samples_at_and_around_each_bound(self):
        # point q0 at 0 and, for each k, points at 1/k - 1/60, 1/k and 1/k + 1/60
        offsets = (F(-1, 60), F(0), F(1, 60))
        coords = [(F(0),)] + [(F(1, k) + e,) for k in (1, 2, 3, 4) for e in offsets]
        model = MetricSpaceModel.from_coords([f"q{i}" for i in range(len(coords))], coords)
        uniform = MassFunction.from_masses(
            model.space, {(i,): F(1, model.size) for i in range(model.size)}
        )
        coupling = build_skorohod_coupling(
            model, LawSequence(model, ProcessSequenceSpec((uniform,) * 4, uniform)), 3
        )
        # the guard reads only the windows: give the five components the
        # bounds none, 1, 1/2, 1/3 and 1/4
        plan = dataclasses.replace(coupling.plan, schedule=WindowSchedule((0, 1, 2, 3, 4)))
        coupling = dataclasses.replace(coupling, plan=plan)
        count = plan.count
        for k in (1, 2, 3, 4):
            assert {F(1, k) + e for e in offsets} <= {model.distance(0, q) for q in range(model.size)}
        flagged = 0
        for n in range(1, count + 1):
            bound = coupling.distance_bound(n)
            for q in range(model.size):
                d = model.distance(0, q)
                for index in range(1, count + 1):
                    expected = [n] if index <= n and bound is not None and d >= bound else []
                    flagged += len(expected)
                    # only component n is away from the limit point, in either direction
                    for point, other in ((0, q), (q, 0)):
                        members = tuple(other if m == n else point for m in range(1, count + 1))
                        got = distance_violations(coupling, SkorohodSample(index, point, members))
                        assert got == expected, (n, q, index, point)
        assert flagged > 0


class TestContinuityRadius:
    def test_unrealized_radius_returned_unchanged(self, line_model):
        law = MassFunction.from_masses(line_model.space, {(0,): F(1)})
        assert continuity_radius(line_model, 0, F(1), law) == F(1)

    def test_midpoint_of_gap(self, line_model, line_laws):
        # distances from x0 realized on the support: {0, 1/2, 1}
        got = continuity_radius(line_model, 0, F(1, 2), line_laws.sequence.limit)
        assert got == F(1, 4)

    def test_unrealized_proposal_kept(self, line_model, line_laws):
        assert continuity_radius(line_model, 0, F(2, 5), line_laws.sequence.limit) == F(2, 5)

    def test_positive_radius_required(self, line_model, line_laws):
        with pytest.raises(ValueError):
            continuity_radius(line_model, 0, F(0), line_laws.sequence.limit)

    def test_result_never_realized(self, line_model, line_laws):
        for proposed in (F(1, 2), F(1), F(1, 3), F(1, 4)):
            r = continuity_radius(line_model, 0, proposed, line_laws.sequence.limit)
            assert 0 < r <= proposed
            realized = {
                line_model.distance(0, j) for j in line_laws.sequence.limit.weights
            }
            assert r not in realized


class TestPartitionTree:
    def test_single_point_space(self):
        m = MetricSpaceModel.from_coords(("only",), ((F(0),),))
        law = MassFunction.from_masses(m.space, {(0,): F(1)})
        tree = build_partition_tree(m, law, 3)
        for level in tree.levels:
            covering = [c for c in level if c.is_covering]
            assert len(covering) == 1 and covering[0].members == (0,)
            residuals = [c for c in level if not c.is_covering]
            assert all(c.members == () for c in residuals)
        assert all(c.passed for c in tree_exact_checks(tree))

    def test_three_point_line_at_depth_two(self, line_model, line_laws):
        tree = build_partition_tree(line_model, line_laws.sequence.limit, 2)
        # radii dodge the realized distances {1/2, 1}, so every ball is a
        # singleton and each point gets its own index path
        level1 = {c.path: c.members for c in tree.levels[0]}
        assert level1 == {(1,): (), (2,): (0,), (3,): (1,), (4,): (2,)}
        assert tree.paths == ((2, 2), (3, 2), (4, 2))
        assert all(c.passed for c in tree_exact_checks(tree))

    def test_close_points_separate_once_radius_cap_shrinks(self):
        m = MetricSpaceModel.from_coords(
            ("a", "b", "c"), ((F(0),), (F(1, 8),), (F(1),))
        )
        law = MassFunction.from_masses(m.space, {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)})
        tree = build_partition_tree(m, law, 4)
        # points 1/8 apart share a cell while the radius cap 1/(2k) exceeds
        # their distance; at level 4 the cap 1/8 is a realized distance, the
        # dodge rule shrinks the radius to 1/16 and the points separate
        for k in (1, 2, 3):
            cells = [set(c.members) for c in tree.levels[k - 1]]
            assert {0, 1} in cells
        level4 = [set(c.members) for c in tree.levels[3] if c.members]
        assert {0} in level4 and {1} in level4
        assert all(c.passed for c in tree_exact_checks(tree))

    def test_separability_violation(self, line_model):
        law = MassFunction.from_masses(line_model.space, {(0,): F(1)})
        flagged = MetricSpaceModel.from_coords(
            line_model.labels,
            ((F(0),), (F(1, 2),), (F(1),)),
            support=(False, True, True),
        )
        with pytest.raises(SeparabilityError):
            build_partition_tree(flagged, law, 2)

    @pytest.mark.parametrize(
        "members, diameter, witness",
        [
            ((0, 1), F(1, 2), "cell (2, 2): diameter 1/2 >= 1/2"),
            ((0,), F(1, 3), "cell (2, 2): recorded diameter is wrong"),
        ],
        ids=["diameter-at-the-bound", "wrong-recorded-diameter"],
    )
    def test_covering_diameter_check(self, line_model, line_laws, members, diameter, witness):
        tree = build_partition_tree(line_model, line_laws.sequence.limit, 2)
        level2 = tuple(
            dataclasses.replace(cell, members=members, diameter=diameter)
            if cell.path == (2, 2)
            else cell
            for cell in tree.levels[1]
        )
        bad = dataclasses.replace(tree, levels=(tree.levels[0], level2))
        check = {c.name: c for c in tree_exact_checks(bad)}["covering-cells-diameter"]
        assert not check.passed
        assert check.witness == witness

    # the depth-2 line tree: level 1 is (1,): (), (2,): (0,), (3,): (1,),
    # (4,): (2,), and each level-1 cell (c,) has the children (c, 1), the
    # residual, and (c, 2), which keeps its members
    @pytest.mark.parametrize(
        "changes, name, witness",
        [
            ({(3, 2): (0, 1)}, "partition-disjoint-cover", "level 2: point 0 in two cells"),
            ({(4, 2): ()}, "partition-disjoint-cover", "level 2: cells miss point 2"),
            ({(2,): (0, 7)}, "partition-disjoint-cover", "level 1: point 7 outside the model"),
            (
                {(3, 2): (2,), (4, 2): (1,)},
                "partition-nested",
                "level 1 cell (3,): children do not rebuild it",
            ),
            (
                {(4, 1): (2,), (4, 2): ()},
                "covering-cells-cover-support",
                "level 2: support point 2 uncovered",
            ),
            (
                {(4, 1): (2,), (4, 2): ()},
                "residual-cells-mass-zero",
                "residual cell (4, 1) has positive limit mass",
            ),
            ({(3,): ()}, "point-paths-consistent", "point x1: recorded path misses level 1"),
        ],
        ids=[
            "point-in-two-cells",
            "point-in-no-cell",
            "point-outside-the-model",
            "children-swap-points",
            "support-point-in-a-residual",
            "residual-with-mass",
            "path-through-a-cell-without-the-point",
        ],
    )
    def test_corrupted_tree_witness(self, line_model, line_laws, changes, name, witness):
        tree = build_partition_tree(line_model, line_laws.sequence.limit, 2)
        levels = tuple(
            tuple(
                dataclasses.replace(cell, members=changes[cell.path])
                if cell.path in changes
                else cell
                for cell in level
            )
            for level in tree.levels
        )
        bad = dataclasses.replace(tree, levels=levels)
        check = {c.name: c for c in tree_exact_checks(bad)}[name]
        assert not check.passed
        assert check.witness == witness

    def test_a_check_that_raises_fails_alone(self, line_model, line_laws):
        tree = build_partition_tree(line_model, line_laws.sequence.limit, 2)
        # a sphere around a point the model does not have, at a radius that
        # is a whole number of the model's distance units, so the check
        # reads the center's row
        level1 = tuple(
            dataclasses.replace(cell, certificate=((7, F(1, 2)),)) if cell.path == (2,) else cell
            for cell in tree.levels[0]
        )
        bad = dataclasses.replace(tree, levels=(level1, tree.levels[1]))
        failed = [(c.name, c.witness) for c in tree_exact_checks(bad) if not c.passed]
        assert failed == [
            ("certificate-spheres-mass-zero", "check raised IndexError: tuple index out of range")
        ]

    def test_random_trees_pass_all_checks(self):
        rng = random.Random(7)
        for trial in range(20):
            model = random_metric_model(rng, partial_support=trial % 2 == 0)
            laws = random_law_sequence(rng, model)
            tree = build_partition_tree(model, laws.sequence.limit, rng.choice((2, 3)))
            bad = [c for c in tree_exact_checks(tree) if not c.passed]
            assert not bad, (trial, bad)


def reference_sphere_witness(tree):
    """The certificate check visiting every (cell, sphere) pair in order."""
    model, law = tree.model, tree.law
    for level in tree.levels:
        for cell in level:
            for center, radius in cell.certificate:
                sphere = [j for j in law.weights if model.distance(center, j) == radius]
                if sum(law[(j,)] for j in sphere) != 0:
                    return (
                        f"cell {cell.path}: sphere around {model.labels[center]}"
                        f" radius {radius} has positive mass"
                    )
    return None


def with_sphere_radius(tree, old, new):
    """The tree with sphere ``old`` replaced by ``new`` in every certificate."""
    levels = tuple(
        tuple(
            dataclasses.replace(
                cell, certificate=tuple(new if s == old else s for s in cell.certificate)
            )
            for cell in level
        )
        for level in tree.levels
    )
    return dataclasses.replace(tree, levels=levels)


class TestCertificateSpheres:
    def test_positive_mass_sphere_witness_matches_reference(self):
        rng = random.Random(13)
        seen = 0
        for trial in range(30):
            model = random_metric_model(rng)
            laws = random_law_sequence(rng, model)
            tree = build_partition_tree(model, laws.sequence.limit, 3)
            level = rng.randrange(tree.depth)
            spheres = sorted({s for c in tree.levels[level] for s in c.certificate[-2:]})
            if not spheres:
                continue
            center, radius = rng.choice(spheres)
            hit = rng.choice(sorted(laws.sequence.limit.weights))
            bad = with_sphere_radius(tree, (center, radius), (center, model.distance(center, hit)))
            check = {c.name: c for c in tree_exact_checks(bad)}["certificate-spheres-mass-zero"]
            assert not check.passed, trial
            assert check.witness == reference_sphere_witness(bad), trial
            seen += 1
        assert seen >= 20


class TestDigitize:
    def test_three_point_line_digit_masses(self, line_model, line_laws):
        tree = build_partition_tree(line_model, line_laws.sequence.limit, 2)
        seq = digitize(line_laws, tree)
        # uniform limit: 1/3 on each point's digit path
        expected = {
            (1, 1, 0): F(1, 3),
            (2, 1, 1): F(1, 3),
            (3, 1, 2): F(1, 3),
        }
        assert tuple_mass(seq.limit) == expected
        assert tuple_mass(seq.member(1)) == {(1, 1, 0): F(1)}

    def test_window_marginals_match_cell_masses(self, line_model, line_laws):
        tree = build_partition_tree(line_model, line_laws.sequence.limit, 2)
        seq = digitize(line_laws, tree)
        for k in (1, 2):
            marginal = window_marginal(seq.limit, k)
            for cell in tree.levels[k - 1]:
                digit_point = tuple(d - 1 for d in cell.path)
                assert marginal[digit_point] == sum(
                    line_laws.sequence.limit[(i,)] for i in cell.members
                )


class TestSkorohodCoupling:
    def test_stores_the_laws_tree_and_plan_only(self, line_model, line_laws):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        assert [f.name for f in dataclasses.fields(coupling)] == ["laws", "tree", "plan"]
        assert coupling.model is line_laws.model
        assert coupling.digit_sequence is coupling.plan.sequence
        assert coupling.digit_sequence == digitize(line_laws, coupling.tree)

    def test_constant_laws_couple_exactly(self, line_model):
        space = line_model.space
        uniform = MassFunction.from_masses(space, {(0,): F(1, 3), (1,): F(1, 3), (2,): F(1, 3)})
        seq = LawSequence(line_model, ProcessSequenceSpec((uniform,), uniform))
        coupling = build_skorohod_coupling(line_model, seq, 2)
        rng = random.Random(0)
        for _ in range(200):
            draw = sample_coupled_points(coupling, rng)
            assert draw.index == 1
            assert all(p == draw.point for p in draw.member_points)

    def test_distance_guarantee_on_every_draw(self, line_model, line_laws):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        rng = random.Random(11)
        for _ in range(3000):
            draw = sample_coupled_points(coupling, rng)
            assert distance_violations(coupling, draw) == []

    def test_distance_bound_values(self, line_model, line_laws):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        windows = coupling.plan.schedule.windows
        for n in range(1, coupling.plan.count + 1):
            bound = coupling.distance_bound(n)
            if windows[n - 1] == 0:
                assert bound is None
            else:
                assert bound == F(1, windows[n - 1])

    def test_decoded_marginals_exact_by_enumeration(self, line_model, line_laws):
        coupling = build_skorohod_coupling(line_model, line_laws, 2)
        joint = exact_joint_law(coupling.plan)
        for n in range(1, coupling.plan.count + 1):
            assert joint.marginal_member(n) == coupling.digit_sequence.member(n)
        assert joint.marginal_limit() == coupling.digit_sequence.limit

    def test_member_mass_off_the_support_is_coupled(self):
        # members may charge points outside the separable support
        model = MetricSpaceModel.from_coords(
            ("in0", "in1", "out"),
            ((F(0),), (F(1, 4),), (F(3),)),
            support=(True, True, False),
        )
        space = model.space
        member = MassFunction.from_masses(space, {(2,): F(1, 2), (0,): F(1, 2)})
        limit = MassFunction.from_masses(space, {(0,): F(1, 2), (1,): F(1, 2)})
        seq = LawSequence(model, ProcessSequenceSpec((member,), limit))
        coupling = build_skorohod_coupling(model, seq, 2)
        joint = exact_joint_law(coupling.plan)
        assert joint.marginal_member(1) == coupling.digit_sequence.member(1)
        rng = random.Random(5)
        for _ in range(500):
            assert distance_violations(coupling, sample_coupled_points(coupling, rng)) == []

    def test_random_couplings_hold_guarantees(self):
        rng = random.Random(31)
        for trial in range(10):
            model = random_metric_model(rng)
            laws = random_law_sequence(rng, model)
            coupling = build_skorohod_coupling(model, laws, 2)
            for i in range(300):
                draw = sample_coupled_points(coupling, rng)
                assert not distance_violations(coupling, draw), (trial, i)
