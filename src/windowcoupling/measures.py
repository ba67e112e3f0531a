"""Exact rational mass functions on finite product spaces.

Every law in this package is an exact sub-probability mass function
relative to counting measure, with `fractions.Fraction` masses.  All
identities downstream (deficit certificates, envelopes below their
floors, mixture reconstructions) are therefore exact equalities and
inequalities, never floating-point approximations.

A point of a product space is a tuple of per-coordinate symbol indices;
a time window of length ``k`` is the prefix of the first ``k``
coordinates.  The last coordinate of a full space is the terminal one
(it carries the metric-space point in the Skorohod pipeline), but the
calculus here treats all coordinates uniformly and windows may extend
over the whole space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from typing import Iterable, Iterator, Mapping, NamedTuple

Point = tuple[int, ...]

# the only coordinate type whose points ``ProductSpace.format_point`` serves
# from its label map; a point equal to a stored key but holding floats or
# bools is validated afresh
_PLAIN_INT = frozenset((int,))

ZERO = Fraction(0)
ONE = Fraction(1)


class WindowRangeError(ValueError):
    """Requested window length lies outside 0..width of the space."""


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum of rationals, as ``sum(values, ZERO)`` gives it.

    The numerators are summed over the lcm of the denominators and
    normalized once, instead of one reduced addition per term.
    """
    terms = values if isinstance(values, (list, tuple)) else list(values)
    common = math.lcm(*(v.denominator for v in terms))
    return Fraction(sum(v.numerator * (common // v.denominator) for v in terms), common)


class SpaceMismatchError(ValueError):
    """Operands live on different product spaces."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct symbols for one coordinate."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        seen: dict[str, int] = {}
        for i, sym in enumerate(self.symbols):
            if not isinstance(sym, str) or not sym:
                raise ValueError(f"alphabet symbol {sym!r} must be a non-empty string")
            if "," in sym:
                # points serialize as comma-joined symbols
                raise ValueError(f"alphabet symbol {sym!r} may not contain a comma")
            if sym in seen:
                raise ValueError(f"duplicate alphabet symbol {sym!r}")
            seen[sym] = i
        object.__setattr__(self, "_index", seen)

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]  # type: ignore[attr-defined]
        except (KeyError, TypeError):
            raise KeyError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None


@dataclass(frozen=True)
class ProductSpace:
    """Finite ordered product of coordinate alphabets.

    The empty product (width 0) is the unit space whose only point is
    the empty tuple; it is the codomain of length-0 window marginals.
    ``format_point`` keeps the label of each distinct point it has
    formatted, so a point is validated and joined once per space.
    """

    coordinates: tuple[Alphabet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_sizes", tuple(len(a) for a in self.coordinates))
        object.__setattr__(self, "_labels", {})

    @property
    def width(self) -> int:
        return len(self.coordinates)

    def size(self) -> int:
        n = 1
        for alphabet in self.coordinates:
            n *= len(alphabet)
        return n

    def check_window(self, k: int) -> None:
        if not 0 <= k <= self.width:
            raise WindowRangeError(
                f"window length {k} out of range 0..{self.width}"
            )

    def window(self, k: int) -> "ProductSpace":
        self.check_window(k)
        return ProductSpace(self.coordinates[:k])

    def points(self) -> Iterator[Point]:
        return _cartesian(*(range(len(a)) for a in self.coordinates))

    def __contains__(self, point: object) -> bool:
        sizes = self._sizes  # type: ignore[attr-defined]
        if not isinstance(point, tuple) or len(point) != len(sizes):
            return False
        for i, size in zip(point, sizes):
            if not (isinstance(i, int) and 0 <= i < size):
                return False
        return True

    def format_point(self, point: Point) -> str:
        if type(point) is tuple and _PLAIN_INT.issuperset(map(type, point)):
            labels = self._labels  # type: ignore[attr-defined]
            label = labels.get(point)
            if label is None:
                label = labels[point] = self._join(point)
            return label
        return self._join(point)

    def _join(self, point: Point) -> str:
        if point not in self:
            raise ValueError(f"point {point!r} outside the space")
        return ",".join([a.symbols[i] for i, a in zip(point, self.coordinates)])

    def parse_point(self, text: str) -> Point:
        if text == "":
            labels: list[str] = []
        else:
            labels = text.split(",")
        if len(labels) != self.width:
            raise ValueError(
                f"point {text!r} has {len(labels)} coordinates, expected {self.width}"
            )
        return tuple([a.index(s) for s, a in zip(labels, self.coordinates)])


@dataclass(frozen=True)
class MassFunction:
    """Exact non-negative mass function with total mass at most one.

    Every construction validates in one pass: each point must lie in the
    space and each mass, converted to a ``Fraction``, must be
    non-negative; the total, summed over the lcm of the denominators by
    ``exact_sum``, must not exceed one.  Keys that are already tuples and
    masses that are already fractions are kept as they are.  Zero
    entries are dropped on construction, so two mass functions are
    equal exactly when they have the same space and the same support
    with the same masses.
    """

    space: ProductSpace
    mass: Mapping[Point, Fraction]

    def __post_init__(self) -> None:
        space = self.space
        clean: dict[Point, Fraction] = {}
        positive: list[Fraction] = []
        for point, value in self.mass.items():
            pt = point if type(point) is tuple else tuple(point)
            if pt not in space:
                raise ValueError(f"point {pt!r} outside the space")
            val = value if type(value) is Fraction else Fraction(value)
            sign = val.numerator
            if sign < 0:
                raise ValueError(f"negative mass {val} at {pt!r}")
            if sign:
                clean[pt] = val
                positive.append(val)
        total = exact_sum(positive)
        if total > 1:
            raise ValueError(f"total mass {total} exceeds 1")
        object.__setattr__(self, "mass", clean)
        object.__setattr__(self, "_total", total)

    @property
    def total_mass(self) -> Fraction:
        return self._total  # type: ignore[attr-defined]

    @property
    def is_probability(self) -> bool:
        return self.total_mass == ONE

    def __getitem__(self, point: Point) -> Fraction:
        return self.mass.get(point if type(point) is tuple else tuple(point), ZERO)

    def support(self) -> list[Point]:
        return sorted(self.mass)

    def scaled(self, factor: Fraction) -> "MassFunction":
        f = Fraction(factor)
        return MassFunction(self.space, {z: v * f for z, v in self.mass.items()})

    @classmethod
    def point_mass(cls, space: ProductSpace, point: Point) -> "MassFunction":
        return cls(space, {tuple(point): ONE})

    @classmethod
    def uniform(cls, space: ProductSpace) -> "MassFunction":
        weight = Fraction(1, space.size())
        return cls(space, {z: weight for z in space.points()})


@dataclass(frozen=True)
class TailRule:
    """Declares that members with index above ``eventually_equal`` are the limit law.

    This makes infima over infinite index tails finitely computable:
    the tail contributes exactly the limit law to every infimum.
    """

    eventually_equal: int

    def __post_init__(self) -> None:
        if self.eventually_equal < 1:
            raise ValueError("tail index must be at least 1")


@dataclass(frozen=True)
class ProcessSequenceSpec:
    """A sequence of process laws P_1..P_M with limit P and a tail rule."""

    space: ProductSpace
    members: tuple[MassFunction, ...]
    limit: MassFunction
    tail: TailRule

    def __post_init__(self) -> None:
        if len(self.members) != self.tail.eventually_equal:
            raise ValueError(
                f"{len(self.members)} members but tail index {self.tail.eventually_equal}"
            )
        for i, law in enumerate((*self.members, self.limit)):
            if law.space != self.space:
                raise SpaceMismatchError(f"law {i} lives on a different space")
            if not law.is_probability:
                raise ValueError(f"law {i} has total mass {law.total_mass}, not 1")

    @property
    def horizon(self) -> int:
        return self.tail.eventually_equal

    def member(self, n: int) -> MassFunction:
        """The n-th law of the sequence; indices past the tail give the limit."""
        if n < 1:
            raise ValueError(f"member index {n} must be at least 1")
        return self.members[n - 1] if n <= self.horizon else self.limit


class DensityConvergence(NamedTuple):
    converges: bool
    witness: int | None


def window_marginal(law: MassFunction, k: int) -> MassFunction:
    """Exact pushforward of a law onto its first ``k`` coordinates.

    Total mass is preserved; ``k = 0`` gives the whole mass on the
    empty tuple.
    """
    law.space.check_window(k)
    groups: dict[Point, list[Fraction]] = {}
    for point, value in law.mass.items():
        groups.setdefault(point[:k], []).append(value)
    return MassFunction(
        law.space.window(k), {key: exact_sum(values) for key, values in groups.items()}
    )


def window_infimum(seq: ProcessSequenceSpec, start: int, k: int) -> MassFunction:
    """Pointwise infimum of the k-window marginals over indices >= start.

    The infimum runs over the members with index in start..horizon plus
    the limit law, which by the tail rule equals the infimum over the
    whole infinite tail.  The result is a sub-probability mass function,
    pointwise non-decreasing in ``start``.
    """
    if start < 1:
        raise ValueError(f"start index {start} must be at least 1")
    laws = [window_marginal(seq.member(n), k) for n in range(start, seq.horizon + 1)]
    laws.append(window_marginal(seq.limit, k))
    first, *rest = laws
    out: dict[Point, Fraction] = {}
    for point, value in first.mass.items():
        m = value
        for law in rest:
            other = law.mass.get(point, ZERO)
            if other < m:
                m = other
                if m == 0:
                    break
        if m > 0:
            out[point] = m
    return MassFunction(seq.space.window(k), out)


class WindowTable:
    """Every window marginal and window infimum of one sequence, each computed once.

    Index n = 1..M names the members and n = M + 1 the limit law; by the
    tail rule every later index is the limit too.  Each law's k-window
    marginal is its (k+1)-window marginal truncated by one coordinate.
    The infima of window k come from one backward sweep: the infimum
    from M + 1 is the limit marginal, and the infimum from n is the
    pointwise minimum of P_n|k and the infimum from n + 1, taken over
    the support of the latter.  ``marginal`` and ``infimum`` return what
    ``window_marginal`` and ``window_infimum`` would, at the cost of a
    lookup.
    """

    def __init__(self, seq: ProcessSequenceSpec) -> None:
        self.sequence = seq
        width = seq.space.width
        self._marginals: list[list[MassFunction]] = []
        for law in (*seq.members, seq.limit):
            levels = [law]
            for k in range(width - 1, -1, -1):
                levels.append(window_marginal(levels[-1], k))
            levels.reverse()
            self._marginals.append(levels)
        self._infima = [[law] for law in self._marginals[-1]]
        for k, column in enumerate(self._infima):
            for levels in reversed(self._marginals[:-1]):
                later = column[-1]
                member = levels[k].mass
                out: dict[Point, Fraction] = {}
                for point, value in later.mass.items():
                    m = min(member.get(point, ZERO), value)
                    if m > 0:
                        out[point] = m
                column.append(MassFunction(later.space, out))
            column.reverse()

    def _locate(self, n: int, k: int) -> int:
        if n < 1:
            raise ValueError(f"start index {n} must be at least 1")
        self.sequence.space.check_window(k)
        return min(n, self.sequence.horizon + 1) - 1

    def marginal(self, n: int, k: int) -> MassFunction:
        """The k-window marginal of the n-th law of the sequence."""
        return self._marginals[self._locate(n, k)][k]

    def infimum(self, n: int, k: int) -> MassFunction:
        """The k-window infimum over indices >= n."""
        row = self._locate(n, k)
        return self._infima[k][row]

    def deficit(self, n: int, k: int) -> Fraction:
        """Mass missing from the k-window infimum starting at index n."""
        return ONE - self.infimum(n, k).total_mass


def density_convergence(seq: ProcessSequenceSpec, k: int) -> DensityConvergence:
    """Decide whether the k-window infima reach the limit marginal exactly.

    Under an eventually-equal tail the infimum is monotone in the start
    index and equals the limit marginal from the tail index on, so this
    scan always succeeds; the witness is the first index where equality
    holds.  Plan construction relies on this and runs no such scan.
    """
    target = window_marginal(seq.limit, k)
    for n in range(1, seq.horizon + 2):
        if window_infimum(seq, n, k) == target:
            return DensityConvergence(True, n)
    return DensityConvergence(False, None)


def total_variation(p: MassFunction, q: MassFunction) -> Fraction:
    """Half the L1 distance between two probability laws on one space."""
    if p.space != q.space:
        raise SpaceMismatchError("total variation requires a common space")
    if not (p.is_probability and q.is_probability):
        raise ValueError("total variation is defined for probability laws")
    points = set(p.mass) | set(q.mass)
    return sum((abs(p[z] - q[z]) for z in points), ZERO) / 2


def conditional_given_prefix(law: MassFunction, prefix: Point) -> MassFunction:
    """The conditional of ``law`` on the cylinder fixing a window prefix."""
    k = len(prefix)
    law.space.check_window(k)
    denom = exact_sum([v for z, v in law.mass.items() if z[:k] == prefix])
    if denom == 0:
        raise ValueError(f"conditioning on zero-mass prefix {prefix!r}")
    return MassFunction(
        law.space,
        {z: v / denom for z, v in law.mass.items() if z[:k] == prefix},
    )


def prefix_conditionals(law: MassFunction, k: int) -> dict[Point, MassFunction]:
    """``conditional_given_prefix`` for every k-prefix of positive mass.

    One pass groups the law's mass by prefix, instead of one scan of the
    whole support per prefix.
    """
    law.space.check_window(k)
    groups: dict[Point, dict[Point, Fraction]] = {}
    for z, v in law.mass.items():
        groups.setdefault(z[:k], {})[z] = v
    out: dict[Point, MassFunction] = {}
    for prefix, group in groups.items():
        denom = exact_sum(group.values())
        out[prefix] = MassFunction(law.space, {z: v / denom for z, v in group.items()})
    return out

