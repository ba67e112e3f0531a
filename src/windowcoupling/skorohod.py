"""Almost-surely convergent couplings on finite metric spaces.

A law on a finite metric model is a ``MassFunction`` on the model's
point space, the one-coordinate space whose symbols are the point
labels, so point i is the point with code ``i``; a ``LawSequence`` binds a
``ProcessSequenceSpec`` on that space to its model.

Pipeline: certify a nested family of continuity partitions with cell
diameters shrinking like 1/k, digitize each law into the process of its
partition-cell indices (terminal coordinate carrying the point itself),
hand the digit process sequence to the coupling engine, and decode the
coupled trajectories back to metric points.  Window agreement of the
digit processes then forces the decoded points into a shared
small-diameter cell, which yields the distance guarantee
``d(X_n, X) < 1/k_n`` from the agreement index on.

One metric model, given either by an explicit rational distance table
(``from_table``) or by rational coordinates under the max-metric
(``from_coords``), holds its distances once, as integer rows over one
scale; radii, diameters, ball membership and the distance guard all
compare those integers.  Either way the
partition is built from the distances alone: ball radii dodge the
finitely many realized distances, so every sphere has limit mass zero
and the certificates hold in any ambient topology.  The tree's
invariants are witness functions that ``tree_exact_checks`` hands to
the engine's one check runner, ``run_checks``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import sub
from random import Random
from typing import Iterable

from .engine import (
    CouplingPlan,
    CouplingSample,
    ExactCheck,
    build_plan,
    run_checks,
    sample as sample_plan,
)
from .measures import (
    Alphabet,
    MassFunction,
    Point,
    ProcessSequenceSpec,
    ProductSpace,
    SpaceMismatchError,
)

class MetricModelError(ValueError):
    """The distance table is not an exact metric on the labeled points."""


class SeparabilityError(ValueError):
    """The limit law puts mass outside the designated separable support."""


@dataclass(frozen=True)
class MetricSpaceModel:
    """Finite labeled metric space with exact rational distances.

    ``separable_support`` flags, with booleans, the points forming the
    set the limit law must live on.  The metric is given in one of two
    forms: a distance table, or rational ``coords`` under the
    max-metric, which keeps every realized distance rational; ``coords``
    is None exactly for a table.  Distances are held once, as integers:
    ``rows`` is the distance table scaled by ``scale``, the least common
    denominator of the distances, so d(i, j) = rows[i][j] / scale.
    ``from_table`` and ``from_coords`` compute the rows and are the ways
    to build a model.

    A distance table is outside input: every metric check
    (self-distance, symmetry, positivity, the triangle inequality) runs
    on its integer rows.  Coordinates are trusted: the max-metric of
    rational points is zero on the diagonal, symmetric and satisfies
    the triangle inequality by construction, so only distinctness of the
    points is checked.  Either way the fraction table ``dist`` is built
    from the rows on first read.
    """

    labels: tuple[str, ...]
    separable_support: tuple[bool, ...]
    coords: tuple[tuple[Fraction, ...], ...] | None
    rows: tuple[tuple[int, ...], ...] = field(repr=False)
    scale: int

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise MetricModelError("model must have at least one point")
        self.space  # builds the point space, which validates the labels
        if len(self.rows) != n or any(len(row) != n for row in self.rows):
            raise MetricModelError("distance table shape mismatch")
        if len(self.separable_support) != n:
            raise MetricModelError("support flags shape mismatch")
        for label, flag in zip(self.labels, self.separable_support):
            if type(flag) is not bool:
                raise MetricModelError(f"support flag {flag!r} of {label} is not a boolean")
        if self.coords is None:
            self._check_metric()
        else:
            self._check_distinct()

    def _check_metric(self) -> None:
        """Every metric check on the rows of a table, in the order of a full scan."""
        rows = self.rows
        n = len(rows)
        for i in range(n):
            if rows[i][i] != 0:
                raise MetricModelError(f"nonzero self-distance at {self.labels[i]}")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise MetricModelError(
                        f"asymmetric distance {self.labels[i]}..{self.labels[j]}"
                    )
                if i != j and rows[i][j] <= 0:
                    raise MetricModelError(
                        f"non-positive distance {self.labels[i]}..{self.labels[j]}"
                    )
        for i, row_i in enumerate(rows):
            for j, row_j in enumerate(rows):
                # d(i,k) > d(i,j) + d(j,k) for some k iff max_k d(i,k) - d(j,k) > d(i,j)
                d_ij = row_i[j]
                if max(map(sub, row_i, row_j)) > d_ij:
                    k = next(k for k in range(n) if row_i[k] - row_j[k] > d_ij)
                    raise MetricModelError(
                        "triangle inequality fails at "
                        f"({self.labels[i]},{self.labels[j]},{self.labels[k]})"
                    )

    def _check_distinct(self) -> None:
        """The only check a max-metric needs: no two points coincide.

        A zero off the diagonal is a coincident pair; the first row that
        has one names the pair the full scan would meet first.
        """
        for i, row in enumerate(self.rows):
            if row.count(0) > 1:
                j = next(j for j, d in enumerate(row) if d == 0 and j != i)
                raise MetricModelError(
                    f"non-positive distance {self.labels[i]}..{self.labels[j]}"
                )

    @cached_property
    def space(self) -> ProductSpace:
        """The point space: one coordinate whose alphabet is the labels.

        Point i is the point with code ``i`` of every law on the model.
        """
        try:
            return ProductSpace((Alphabet(tuple(self.labels)),))
        except ValueError as exc:
            raise MetricModelError(f"bad point label: {exc}") from None

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance table as fractions, built from ``rows`` on first read."""
        scale = self.scale
        return tuple(tuple(Fraction(d, scale) for d in row) for row in self.rows)

    @property
    def size(self) -> int:
        return len(self.labels)

    def distance(self, i: int, j: int) -> Fraction:
        return Fraction(self.rows[i][j], self.scale)

    def support_indices(self) -> list[int]:
        return [i for i, flag in enumerate(self.separable_support) if flag]

    @classmethod
    def from_table(
        cls,
        labels: Iterable[str],
        dist: Iterable[Iterable[Fraction | int]],
        support: Iterable[bool] | None = None,
    ) -> "MetricSpaceModel":
        """The model of a distance table, scaled by the lcm of its denominators."""
        labels = tuple(labels)
        rows, scale = _integer_rows(dist)
        flags = tuple(support) if support is not None else (True,) * len(labels)
        return cls(labels, flags, None, rows, scale)

    @classmethod
    def from_coords(
        cls,
        labels: Iterable[str],
        coords: Iterable[Iterable[Fraction | int]],
        support: Iterable[bool] | None = None,
    ) -> "MetricSpaceModel":
        """The exact max-metric model of rational points.

        The distances are computed on integers and trusted: only
        distinctness is checked.
        """
        labels = tuple(labels)
        pts = tuple(tuple(Fraction(c) for c in row) for row in coords)
        rows, scale = _max_metric_rows(labels, pts)
        flags = tuple(support) if support is not None else (True,) * len(labels)
        return cls(labels, flags, pts, rows, scale)


def _max_metric_rows(
    labels: tuple[str, ...], pts: tuple[tuple[Fraction, ...], ...]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The max-metric table of ``pts`` as integer rows over the least common scale.

    Points with different numbers of coordinates are refused first.
    """
    for label, row in zip(labels, pts):
        if len(row) != len(pts[0]):
            raise MetricModelError(
                f"point {label} has {len(row)} coordinates, not {len(pts[0])}"
            )
    scaled, scale = _integer_rows(pts)
    columns = tuple(zip(*scaled))
    zeros = (0,) * len(scaled)  # the distance when there are no coordinates
    table = []
    for p in scaled:
        gaps = (map(abs, map(x.__sub__, column)) for x, column in zip(p, columns))
        table.append(tuple(map(max, zip(zeros, *gaps))))
    rows = tuple(table)
    # the coordinates' lcm can exceed the distances' own: reduce to it,
    # so that equal tables have equal rows and scale
    common = gcd(scale, *chain.from_iterable(rows))
    if common > 1:
        rows = tuple(tuple(d // common for d in row) for row in rows)
        scale //= common
    return rows, scale


def _integer_rows(
    table: Iterable[Iterable[Fraction | int]],
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The table scaled by the lcm of its denominators, and that lcm.

    Scaling by one positive integer keeps every equality, sign and sum
    comparison, so exact checks and max-metric distances can run on
    integers.
    """
    rows = [[Fraction(v) for v in row] for row in table]
    scale = lcm(*{v.denominator for row in rows for v in row})
    return tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows), scale


@dataclass(frozen=True)
class LawSequence:
    """A process sequence on a model's point space, bound to that model."""

    model: MetricSpaceModel
    sequence: ProcessSequenceSpec

    def __post_init__(self) -> None:
        if self.sequence.space != self.model.space:
            raise SpaceMismatchError("law sequence does not live on the model's point space")


def weight_of(law: MassFunction, indices: Iterable[int]) -> int:
    """The summed integer weight of model points ``indices`` under ``law``.

    The mass of the set is this weight over ``law.denominator``.
    """
    return sum(law.weights.get(i, 0) for i in indices)


def continuity_radius(
    model: MetricSpaceModel, center: int, proposed: Fraction, law: MassFunction
) -> Fraction:
    """A radius at most ``proposed`` whose sphere around ``center`` has law-mass 0.

    Only finitely many distances from the center are realized on the
    law's support, so if the proposed radius is realized we return the
    midpoint of the gap between it and the next realized distance below,
    which no support point can hit.  The distances are compared as the
    model's integer rows.
    """
    if proposed <= 0:
        raise ValueError("proposed radius must be positive")
    row = model.rows[center]
    realized = {row[j] for j in law.weights}
    # a scaled distance d is the proposed radius p/q iff d * q == p * scale
    scaled, rest = divmod(proposed.numerator * model.scale, proposed.denominator)
    if rest or scaled not in realized:
        return proposed
    lower = max((d for d in realized if d < scaled), default=0)
    return Fraction(lower + scaled, 2 * model.scale)


@dataclass(frozen=True)
class Cell:
    """One partition cell: child-index path, members, and continuity data.

    A child index of 1 marks a residual cell (left over after covering
    the separable support); any path containing 1 therefore carries zero
    limit-law mass.  The certificate lists (center, radius) spheres that
    jointly contain the cell boundary in the linf ambient topology.
    """

    path: tuple[int, ...]
    members: tuple[int, ...]
    diameter: Fraction
    certificate: tuple[tuple[int, Fraction], ...]

    @property
    def is_covering(self) -> bool:
        return 1 not in self.path


@dataclass(frozen=True)
class PartitionTree:
    """Nested continuity partitions, one level per resolution 1/k."""

    model: MetricSpaceModel
    law: MassFunction
    depth: int
    levels: tuple[tuple[Cell, ...], ...]
    paths: tuple[tuple[int, ...], ...]  # per point, child indices to depth

    def level_width(self, k: int) -> int:
        """Number of child indices used at level k (1..depth)."""
        return max(cell.path[k - 1] for cell in self.levels[k - 1])

    def cell_at(self, path: tuple[int, ...]) -> Cell:
        try:
            return self._cells[path]
        except KeyError:
            raise KeyError(f"no cell with path {path!r}") from None

    @cached_property
    def _cells(self) -> dict[tuple[int, ...], Cell]:
        """Every cell by its path, the first one where two share a path."""
        cells: dict[tuple[int, ...], Cell] = {}
        for level in self.levels:
            for cell in level:
                cells.setdefault(cell.path, cell)
        return cells


def _diameter(model: MetricSpaceModel, members: tuple[int, ...]) -> int:
    """The largest distance between two of ``members``, scaled as ``model.rows``."""
    rows = model.rows
    return max((max(map(rows[a].__getitem__, members)) for a in members), default=0)


def build_partition_tree(
    model: MetricSpaceModel, law: MassFunction, depth: int
) -> PartitionTree:
    """Greedy nested covering of the separable support by continuity balls.

    Level k covers each parent cell's support points, in label order,
    with open balls of radius at most 1/(2k) adjusted to dodge realized
    distances; earlier cells are subtracted so cells stay disjoint, and
    whatever remains of the parent becomes its residual child (index 1).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not law.is_probability:
        raise ValueError("partition tree needs a probability limit law")
    if weight_of(law, model.support_indices()) != law.denominator:
        raise SeparabilityError(
            "limit law mass on the separable support is not 1"
        )
    rows, scale = model.rows, model.scale
    everything = tuple(range(model.size))
    root = Cell((), everything, Fraction(_diameter(model, everything), scale), ())
    levels: list[tuple[Cell, ...]] = []
    parents = [root]
    for k in range(1, depth + 1):
        cells: list[Cell] = []
        for parent in parents:
            targets = sorted(
                (i for i in parent.members if model.separable_support[i]),
                key=lambda i: model.labels[i],
            )
            assigned: set[int] = set()
            spheres: list[tuple[int, Fraction]] = []
            child = 2
            for center in targets:
                if center in assigned:
                    continue
                radius = continuity_radius(model, center, Fraction(1, 2 * k), law)
                spheres.append((center, radius))
                # d / scale < p / q iff d * q < p * scale
                row, q, bound = rows[center], radius.denominator, radius.numerator * scale
                members = tuple(
                    j for j in parent.members if j not in assigned and row[j] * q < bound
                )
                assigned.update(members)
                cells.append(
                    Cell(
                        parent.path + (child,),
                        members,
                        Fraction(_diameter(model, members), scale),
                        parent.certificate + tuple(spheres),
                    )
                )
                child += 1
            residual = tuple(j for j in parent.members if j not in assigned)
            cells.append(
                Cell(
                    parent.path + (1,),
                    residual,
                    Fraction(_diameter(model, residual), scale),
                    parent.certificate + tuple(spheres),
                )
            )
        cells.sort(key=lambda c: c.path)
        levels.append(tuple(cells))
        parents = list(cells)
    # the last level partitions the points, so each point has one path
    paths: list[tuple[int, ...]] = [()] * model.size
    for cell in levels[-1]:
        for i in cell.members:
            paths[i] = cell.path
    return PartitionTree(model, law, depth, tuple(levels), tuple(paths))


def tree_exact_checks(tree: PartitionTree) -> list[ExactCheck]:
    """All partition invariants as exact pass/fail results, run by ``run_checks``."""
    model = tree.model
    law = tree.law
    scale = model.scale

    def disjoint_cover() -> str | None:
        everything = set(range(model.size))
        for k, level in enumerate(tree.levels, start=1):
            seen: set[int] = set()
            for cell in level:
                overlap = seen & set(cell.members)
                if overlap:
                    return f"level {k}: point {min(overlap)} in two cells"
                seen.update(cell.members)
            if seen - everything:
                return f"level {k}: point {min(seen - everything)} outside the model"
            if seen != everything:
                return f"level {k}: cells miss point {min(everything - seen)}"
        return None

    def nested() -> str | None:
        for k in range(1, tree.depth):
            children: dict[tuple[int, ...], set[int]] = {}
            for cell in tree.levels[k]:
                children.setdefault(cell.path[:-1], set()).update(cell.members)
            for cell in tree.levels[k - 1]:
                if children.get(cell.path, set()) != set(cell.members):
                    return f"level {k} cell {cell.path}: children do not rebuild it"
        return None

    def covering_diameter() -> str | None:
        for k, level in enumerate(tree.levels, start=1):
            for cell in level:
                if not cell.is_covering:
                    continue
                actual = _diameter(model, cell.members)
                recorded = cell.diameter
                if actual * recorded.denominator != recorded.numerator * scale:
                    return f"cell {cell.path}: recorded diameter is wrong"
                if actual * k >= scale:  # actual / scale >= 1 / k
                    return (
                        f"cell {cell.path}: diameter {Fraction(actual, scale)} >= {Fraction(1, k)}"
                    )
        return None

    def covering_support() -> str | None:
        support = set(model.support_indices())
        for k, level in enumerate(tree.levels, start=1):
            covered: set[int] = set()
            for cell in level:
                if cell.is_covering:
                    covered.update(cell.members)
            if not support <= covered:
                return f"level {k}: support point {min(support - covered)} uncovered"
        return None

    def residual_mass_zero() -> str | None:
        for level in tree.levels:
            for cell in level:
                if not cell.is_covering and weight_of(law, cell.members) != 0:
                    return f"residual cell {cell.path} has positive limit mass"
        return None

    def spheres_mass_zero() -> str | None:
        # every cell repeats its ancestors' spheres: check each distinct one at
        # its first occurrence, which is where a failing sphere is reported
        checked: set[tuple[int, int, int]] = set()
        for level in tree.levels:
            for cell in level:
                for center, radius in cell.certificate:
                    key = (center, radius.numerator, radius.denominator)
                    if key in checked:
                        continue
                    checked.add(key)
                    # the sphere holds the points at scaled distance p * scale / q;
                    # every support point has positive weight
                    scaled, rest = divmod(radius.numerator * scale, radius.denominator)
                    row = model.rows[center]
                    if not rest and any(row[j] == scaled for j in law.weights):
                        return (
                            f"cell {cell.path}: sphere around {model.labels[center]}"
                            f" radius {radius} has positive mass"
                        )
        return None

    def paths_consistent() -> str | None:
        for i, path in enumerate(tree.paths):
            for k in range(1, tree.depth + 1):
                if i not in tree.cell_at(path[:k]).members:
                    return f"point {model.labels[i]}: recorded path misses level {k}"
        return None

    return run_checks(
        ("partition-disjoint-cover", disjoint_cover),
        ("partition-nested", nested),
        ("covering-cells-diameter", covering_diameter),
        ("covering-cells-cover-support", covering_support),
        ("residual-cells-mass-zero", residual_mass_zero),
        ("certificate-spheres-mass-zero", spheres_mass_zero),
        ("point-paths-consistent", paths_consistent),
    )


def digitize(seq: LawSequence, tree: PartitionTree) -> ProcessSequenceSpec:
    """Push the laws forward to their partition-index digit processes.

    Coordinate k carries the level-k child index (nesting makes the
    digits well defined); the terminal coordinate carries the point
    itself, so decoding is a projection: the last digit of the code.
    The pushforward is a relabelling: each law keeps its denominator and
    point i's weight moves to the digit point of i.
    """
    model = seq.model
    coordinates = [
        Alphabet(tuple(str(j) for j in range(1, tree.level_width(k) + 1)))
        for k in range(1, tree.depth + 1)
    ]
    coordinates.append(Alphabet(model.labels))
    space = ProductSpace(tuple(coordinates))

    digits = [space.encode((*(d - 1 for d in path), i)) for i, path in enumerate(tree.paths)]

    def push(law: MassFunction) -> MassFunction:
        weights = {digits[i]: w for i, w in law.weights.items()}
        return MassFunction(space, law.denominator, weights)

    laws = seq.sequence
    return ProcessSequenceSpec(tuple(push(m) for m in laws.members), push(laws.limit))


@dataclass(frozen=True)
class SkorohodCoupling:
    """Coupling of metric-space laws via the plan of their digit processes."""

    laws: LawSequence
    tree: PartitionTree
    plan: CouplingPlan

    @property
    def model(self) -> MetricSpaceModel:
        return self.laws.model

    @property
    def digit_sequence(self) -> ProcessSequenceSpec:
        return self.plan.sequence

    @cached_property
    def spec_sha256(self) -> str:
        """SHA-256 of the law sequence's canonical document, computed once per coupling."""
        from . import jsonio  # jsonio imports this module

        return jsonio.document_sha256(jsonio.law_sequence_to_doc(self.laws))

    def decode(self, z: Point) -> int:
        """Model point index carried by a digit-space point: its terminal coordinate."""
        return z % len(self.model.labels)

    def distance_bound(self, n: int) -> Fraction | None:
        """Guaranteed bound on d(X_n, X) once N <= n; None when unconstrained."""
        k = self.plan.schedule.window(n)
        return None if k == 0 else Fraction(1, k)


@dataclass(frozen=True)
class SkorohodSample:
    """The coupled points of one digit-space sample, decoded to model points."""

    index: int
    point: int
    member_points: tuple[int, ...]


def build_skorohod_coupling(
    model: MetricSpaceModel, seq: LawSequence, depth: int
) -> SkorohodCoupling:
    if seq.model is not model and seq.model != model:
        raise ValueError("law sequence is bound to a different model")
    tree = build_partition_tree(model, seq.sequence.limit, depth)
    return SkorohodCoupling(seq, tree, build_plan(digitize(seq, tree)))


def decode_sample(coupling: SkorohodCoupling, base: CouplingSample) -> SkorohodSample:
    """Project a digit-space sample to its metric points."""
    return SkorohodSample(
        index=base.index,
        point=coupling.decode(base.limit_point),
        member_points=tuple(coupling.decode(z) for z in base.member_points),
    )


def sample_coupled_points(coupling: SkorohodCoupling, rng: Random) -> SkorohodSample:
    return decode_sample(coupling, sample_plan(coupling.plan, rng))


def distance_violations(
    coupling: SkorohodCoupling, realization: SkorohodSample
) -> list[int]:
    """Component indices n >= N whose decoded point breaks the 1/k_n bound.

    The test d(X_n, X) >= 1/k_n runs on integers: with d = rows / scale
    it reads rows * k_n >= scale.  Window 0 bounds nothing, and there
    the product is 0, below every scale.
    """
    scale = coupling.model.scale
    row = coupling.model.rows[realization.point]
    windows = coupling.plan.schedule.windows
    members = realization.member_points
    return [
        n
        for n in range(realization.index, coupling.plan.count + 1)
        if row[members[n - 1]] * windows[n - 1] >= scale
    ]
