"""Almost-surely convergent couplings on finite metric spaces.

A law on a finite metric model is a ``MassFunction`` on the model's
point space, the one-coordinate space whose symbols are the point
labels, so point i is the point ``(i,)``; a ``LawSequence`` binds a
``ProcessSequenceSpec`` on that space to its model.

Pipeline: certify a nested family of continuity partitions with cell
diameters shrinking like 1/k, digitize each law into the process of its
partition-cell indices (terminal coordinate carrying the point itself),
hand the digit process sequence to the coupling engine, and decode the
coupled trajectories back to metric points.  Window agreement of the
digit processes then forces the decoded points into a shared
small-diameter cell, which yields the distance guarantee
``d(X_n, X) < 1/k_n`` from the agreement index on.

Two backends: an explicit rational distance table (finite ambient
topology, boundaries empty, continuity certificates vacuous) and
rational coordinates under the max-metric (ambient Euclidean-space
topology, where ball radii must dodge the finitely many realized
distances to keep sphere masses at zero).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm
from operator import sub
from random import Random
from typing import Iterable

from .engine import (
    CouplingPlan,
    CouplingSample,
    ExactCheck,
    build_plan,
    sample as sample_plan,
)
from .measures import (
    ZERO,
    Alphabet,
    MassFunction,
    Point,
    ProcessSequenceSpec,
    ProductSpace,
    SpaceMismatchError,
)

TABLE_BACKEND = "table"
LINF_BACKEND = "linf"


class MetricModelError(ValueError):
    """The distance table is not an exact metric on the labeled points."""


class SeparabilityError(ValueError):
    """The limit law puts mass outside the designated separable support."""


@dataclass(frozen=True)
class MetricSpaceModel:
    """Finite labeled metric space with exact rational distances.

    ``separable_support`` flags, with booleans, the points forming the
    set the limit law must live on.  The ``linf`` backend additionally carries rational
    coordinates; its distance table is the max-metric, which keeps every
    realized distance rational.  Construction checks that the table is a
    metric, exactly: the checks run on the table scaled to integers by
    the lcm of its denominators.  ``space`` is the point space, built
    once: one coordinate whose alphabet is the labels, which validates
    them, so point i is the point ``(i,)`` of every law on the model.
    """

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    separable_support: tuple[bool, ...]
    backend: str
    coords: tuple[tuple[Fraction, ...], ...] | None = None
    space: ProductSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise MetricModelError("model must have at least one point")
        try:
            space = ProductSpace((Alphabet(tuple(self.labels)),))
        except ValueError as exc:
            raise MetricModelError(f"bad point label: {exc}") from None
        object.__setattr__(self, "space", space)
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise MetricModelError("distance table shape mismatch")
        if len(self.separable_support) != n:
            raise MetricModelError("support flags shape mismatch")
        for label, flag in zip(self.labels, self.separable_support):
            if type(flag) is not bool:
                raise MetricModelError(f"support flag {flag!r} of {label} is not a boolean")
        rows, _ = _integer_rows(self.dist)
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
        if self.backend not in (TABLE_BACKEND, LINF_BACKEND):
            raise MetricModelError(f"unknown backend {self.backend!r}")
        if self.backend == LINF_BACKEND and self.coords is None:
            raise MetricModelError("linf backend requires coordinates")

    @property
    def size(self) -> int:
        return len(self.labels)

    def distance(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def support_indices(self) -> list[int]:
        return [i for i, flag in enumerate(self.separable_support) if flag]

    @classmethod
    def from_table(
        cls,
        labels: Iterable[str],
        dist: Iterable[Iterable[Fraction | int]],
        support: Iterable[bool] | None = None,
    ) -> "MetricSpaceModel":
        labels = tuple(labels)
        table = tuple(tuple(Fraction(d) for d in row) for row in dist)
        flags = tuple(support) if support is not None else (True,) * len(labels)
        return cls(labels, table, flags, TABLE_BACKEND)

    @classmethod
    def from_coords(
        cls,
        labels: Iterable[str],
        coords: Iterable[Iterable[Fraction | int]],
        support: Iterable[bool] | None = None,
        backend: str = LINF_BACKEND,
    ) -> "MetricSpaceModel":
        """The exact max-metric model of rational points; the table backend keeps no coordinates."""
        labels = tuple(labels)
        pts = tuple(tuple(Fraction(c) for c in row) for row in coords)
        for label, row in zip(labels, pts):
            if len(row) != len(pts[0]):
                raise MetricModelError(
                    f"point {label} has {len(row)} coordinates, not {len(pts[0])}"
                )
        scaled, scale = _integer_rows(pts)
        table = tuple(
            tuple(Fraction(max(map(abs, map(sub, p, q)), default=0), scale) for q in scaled)
            for p in scaled
        )
        flags = tuple(support) if support is not None else (True,) * len(labels)
        return cls(labels, table, flags, backend, pts if backend == LINF_BACKEND else None)


def _integer_rows(
    table: Iterable[Iterable[Fraction | int]],
) -> tuple[list[list[int]], int]:
    """The table scaled by the lcm of its denominators, and that lcm.

    Scaling by one positive integer keeps every equality, sign and sum
    comparison, so exact checks and max-metric distances can run on
    integers.
    """
    rows = [[Fraction(v) for v in row] for row in table]
    scale = lcm(*{v.denominator for row in rows for v in row})
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


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
    return sum(law.weights.get((i,), 0) for i in indices)


def continuity_radius(
    model: MetricSpaceModel, center: int, proposed: Fraction, law: MassFunction
) -> Fraction:
    """A radius at most ``proposed`` whose sphere around ``center`` has law-mass 0.

    Only finitely many distances from the center are realized on the
    law's support, so if the proposed radius is realized we return the
    midpoint of the gap between it and the next realized distance below,
    which no support point can hit.
    """
    if proposed <= 0:
        raise ValueError("proposed radius must be positive")
    realized = {model.distance(center, j) for (j,) in law.weights}
    if proposed not in realized:
        return proposed
    below = [d for d in realized if d < proposed]
    lower = max(below) if below else ZERO
    return (lower + proposed) / 2


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
    def level(self) -> int:
        return len(self.path)

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
        for cell in self.levels[len(path) - 1]:
            if cell.path == path:
                return cell
        raise KeyError(f"no cell with path {path!r}")


def _diameter(model: MetricSpaceModel, members: tuple[int, ...]) -> Fraction:
    best = ZERO
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            d = model.distance(members[a], members[b])
            if d > best:
                best = d
    return best


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
    root = Cell((), tuple(range(model.size)), _diameter(model, tuple(range(model.size))), ())
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
                members = tuple(
                    j
                    for j in parent.members
                    if j not in assigned and model.distance(center, j) < radius
                )
                assigned.update(members)
                cells.append(
                    Cell(
                        parent.path + (child,),
                        members,
                        _diameter(model, members),
                        parent.certificate + tuple(spheres),
                    )
                )
                child += 1
            residual = tuple(j for j in parent.members if j not in assigned)
            cells.append(
                Cell(
                    parent.path + (1,),
                    residual,
                    _diameter(model, residual),
                    parent.certificate + tuple(spheres),
                )
            )
        cells.sort(key=lambda c: c.path)
        levels.append(tuple(cells))
        parents = list(cells)
    paths: list[tuple[int, ...]] = []
    for i in range(model.size):
        for cell in levels[-1]:
            if i in cell.members:
                paths.append(cell.path)
                break
    return PartitionTree(model, law, depth, tuple(levels), tuple(paths))


def tree_exact_checks(tree: PartitionTree) -> list[ExactCheck]:
    """All partition invariants as exact pass/fail results."""
    model = tree.model
    law = tree.law
    checks: list[ExactCheck] = []

    def add(name: str, witness: str | None) -> None:
        checks.append(ExactCheck(name, witness is None, witness))

    witness = None
    everything = set(range(model.size))
    for k, level in enumerate(tree.levels, start=1):
        seen: set[int] = set()
        for cell in level:
            overlap = seen & set(cell.members)
            if overlap:
                witness = f"level {k}: point {min(overlap)} in two cells"
                break
            seen.update(cell.members)
        if witness:
            break
        if seen != everything:
            witness = f"level {k}: cells miss point {min(everything - seen)}"
            break
    add("partition-disjoint-cover", witness)

    witness = None
    for k in range(1, tree.depth):
        children: dict[tuple[int, ...], set[int]] = {}
        for cell in tree.levels[k]:
            children.setdefault(cell.path[:-1], set()).update(cell.members)
        for cell in tree.levels[k - 1]:
            if children.get(cell.path, set()) != set(cell.members):
                witness = f"level {k} cell {cell.path}: children do not rebuild it"
                break
        if witness:
            break
    add("partition-nested", witness)

    witness = None
    for k, level in enumerate(tree.levels, start=1):
        bound = Fraction(1, k)
        for cell in level:
            if cell.is_covering:
                actual = _diameter(model, cell.members)
                if actual != cell.diameter:
                    witness = f"cell {cell.path}: recorded diameter is wrong"
                    break
                if actual >= bound:
                    witness = f"cell {cell.path}: diameter {actual} >= {bound}"
                    break
        if witness:
            break
    add("covering-cells-diameter", witness)

    witness = None
    support = set(model.support_indices())
    for k, level in enumerate(tree.levels, start=1):
        covered: set[int] = set()
        for cell in level:
            if cell.is_covering:
                covered.update(cell.members)
        if not support <= covered:
            witness = f"level {k}: support point {min(support - covered)} uncovered"
            break
    add("covering-cells-cover-support", witness)

    witness = None
    for level in tree.levels:
        for cell in level:
            if not cell.is_covering and weight_of(law, cell.members) != 0:
                witness = f"residual cell {cell.path} has positive limit mass"
                break
        if witness:
            break
    add("residual-cells-mass-zero", witness)

    # every cell repeats its ancestors' spheres: check each distinct one at
    # its first occurrence, which is where a failing sphere is reported
    witness = None
    checked: set[tuple[int, Fraction]] = set()
    for level in tree.levels:
        for cell in level:
            for center, radius in cell.certificate:
                if (center, radius) in checked:
                    continue
                checked.add((center, radius))
                # every support point has positive weight
                if any(model.distance(center, j) == radius for (j,) in law.weights):
                    witness = (
                        f"cell {cell.path}: sphere around {model.labels[center]}"
                        f" radius {radius} has positive mass"
                    )
                    break
            if witness:
                break
        if witness:
            break
    add("certificate-spheres-mass-zero", witness)

    witness = None
    for i, path in enumerate(tree.paths):
        for k in range(1, tree.depth + 1):
            cell = tree.cell_at(path[:k])
            if i not in cell.members:
                witness = f"point {model.labels[i]}: recorded path misses level {k}"
                break
        if witness:
            break
    add("point-paths-consistent", witness)

    return checks


def digitize(seq: LawSequence, tree: PartitionTree) -> ProcessSequenceSpec:
    """Push the laws forward to their partition-index digit processes.

    Coordinate k carries the level-k child index (nesting makes the
    digits well defined); the terminal coordinate carries the point
    itself, so decoding is a projection.  The pushforward is a
    relabelling: each law keeps its denominator and point i's weight
    moves to the digit point of i.
    """
    model = seq.model
    coordinates = [
        Alphabet(tuple(str(j) for j in range(1, tree.level_width(k) + 1)))
        for k in range(1, tree.depth + 1)
    ]
    coordinates.append(Alphabet(model.labels))
    space = ProductSpace(tuple(coordinates))

    def encode(i: int) -> Point:
        return tuple(d - 1 for d in tree.paths[i]) + (i,)

    def push(law: MassFunction) -> MassFunction:
        weights = {encode(i): w for (i,), w in law.weights.items()}
        return MassFunction(space, law.denominator, weights)

    laws = seq.sequence
    return ProcessSequenceSpec(
        space=space,
        members=tuple(push(m) for m in laws.members),
        limit=push(laws.limit),
        tail=laws.tail,
    )


@dataclass(frozen=True)
class SkorohodCoupling:
    """Coupling of metric-space laws via their digit processes."""

    model: MetricSpaceModel
    laws: LawSequence
    tree: PartitionTree
    digit_sequence: ProcessSequenceSpec
    plan: CouplingPlan

    @cached_property
    def spec_sha256(self) -> str:
        """SHA-256 of the law sequence's canonical document, computed once per coupling."""
        from . import jsonio  # jsonio imports this module

        return jsonio.document_sha256(jsonio.law_sequence_to_doc(self.laws))

    def decode(self, z: Point) -> int:
        """Model point index carried by a digit-space point."""
        return z[-1]

    def distance_bound(self, n: int) -> Fraction | None:
        """Guaranteed bound on d(X_n, X) once N <= n; None when unconstrained."""
        k = self.plan.schedule.window(n)
        return None if k == 0 else Fraction(1, k)


@dataclass(frozen=True)
class SkorohodSample:
    """Decoded coupled points plus the underlying digit-space sample."""

    index: int
    point: int
    member_points: tuple[int, ...]
    base: CouplingSample


def build_skorohod_coupling(
    model: MetricSpaceModel, seq: LawSequence, depth: int
) -> SkorohodCoupling:
    if seq.model is not model and seq.model != model:
        raise ValueError("law sequence is bound to a different model")
    tree = build_partition_tree(model, seq.sequence.limit, depth)
    digit_sequence = digitize(seq, tree)
    plan = build_plan(digit_sequence)
    return SkorohodCoupling(model, seq, tree, digit_sequence, plan)


def decode_sample(coupling: SkorohodCoupling, base: CouplingSample) -> SkorohodSample:
    """Project a digit-space sample to its metric points."""
    return SkorohodSample(
        index=base.index,
        point=coupling.decode(base.limit_point),
        member_points=tuple(coupling.decode(z) for z in base.member_points),
        base=base,
    )


def sample_coupled_points(coupling: SkorohodCoupling, rng: Random) -> SkorohodSample:
    return decode_sample(coupling, sample_plan(coupling.plan, rng))


def distance_violations(
    coupling: SkorohodCoupling, realization: SkorohodSample
) -> list[int]:
    """Component indices n >= N whose decoded point breaks the 1/k_n bound."""
    bad: list[int] = []
    for n in range(realization.index, coupling.plan.count + 1):
        bound = coupling.distance_bound(n)
        if bound is None:
            continue
        d = coupling.model.distance(realization.point, realization.member_points[n - 1])
        if d >= bound:
            bad.append(n)
    return bad
