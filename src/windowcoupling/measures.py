"""Exact rational mass functions on finite product spaces.

Every law in this package is an exact sub-probability mass function
relative to counting measure.  A law is stored as one positive integer
``denominator`` and a positive integer weight per support point, the
mass at ``z`` being ``weights[z] / denominator``, in canonical form: the
denominator is the lcm of the reduced denominators of the masses, which
is the same as ``gcd(denominator, *weights) == 1``.  Three operations,
with the engine's extension step, build every derived law:
``window_marginal``, ``pointwise_minimum`` and ``weighted_sum``.
Marginals, infima, conditionals and weighted sums are integer sums over
one common denominator, and comparisons between laws are
cross-multiplications, so every identity downstream (deficit
certificates, envelopes below their floors, mixture reconstructions) is
an exact equality or inequality that pays no gcd per operation and
never a floating-point approximation.  ``MassFunction.mass`` and
``law[z]`` give the masses as ``fractions.Fraction`` values, built on
each access.

A point of a product space is one ``int``, the mixed-radix code of its
tuple of per-coordinate symbol indices (``ProductSpace``); a time
window of length ``k`` is the prefix of the first ``k`` coordinates,
and a point's k-prefix is its code floor-divided by the space's stride
at ``k``, which is the prefix's own code in the window space.  Integer
order is the tuples' lexicographic order.  Tuples enter only at the
checking constructor, ``from_masses`` and ``law[z]``, where they are
encoded once, and labels only at ``format_point`` and ``parse_point``.
The last coordinate of a full space is the terminal one
(it carries the metric-space point in the Skorohod pipeline), but the
calculus here treats all coordinates uniformly and windows may extend
over the whole space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

# a point of a product space: its code, see ``ProductSpace``
Point = int

ZERO = Fraction(0)
ONE = Fraction(1)


class WindowRangeError(ValueError):
    """Requested window length lies outside 0..width of the space."""


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
            raise ValueError(
                f"symbol {symbol!r} not in alphabet of {len(self.symbols)} symbols"
            ) from None


@dataclass(frozen=True)
class ProductSpace:
    """Finite ordered product of coordinate alphabets, its points coded as ints.

    A point is its mixed-radix index: the tuple ``(i_0, ..., i_{w-1})``
    of per-coordinate symbol indices has the code
    ``sum_j i_j * stride(j + 1)``, where ``stride(k)`` is the number of
    points of the coordinates from ``k`` on, so coordinate 0 is the most
    significant digit.  The codes are ``range(size())`` and their order
    is the tuples' lexicographic order.  The k-prefix of a point is
    ``z // stride(k)``, which is the prefix's own code in the window-k
    space.  ``encode`` and ``decode`` convert between codes and tuples.

    The empty product (width 0) is the unit space whose only point is
    the empty tuple, code 0; it is the codomain of length-0 window
    marginals.  ``window(k)`` builds each window space once.
    ``format_point`` keeps the label of each code it has formatted and
    ``parse_point`` the code of each label it has parsed (and the label of
    that code), so a label is joined or split and checked once per space.
    """

    coordinates: tuple[Alphabet, ...]

    def __post_init__(self) -> None:
        sizes = tuple(len(a) for a in self.coordinates)
        strides = [1]
        for size in reversed(sizes):
            strides.append(strides[-1] * size)
        strides.reverse()
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_windows", {})
        object.__setattr__(self, "_labels", {})
        object.__setattr__(self, "_points", {})

    @property
    def width(self) -> int:
        return len(self.coordinates)

    def size(self) -> int:
        return self._strides[0]  # type: ignore[attr-defined]

    def check_window(self, k: int) -> None:
        if not 0 <= k <= len(self.coordinates):
            raise WindowRangeError(
                f"window length {k} out of range 0..{self.width}"
            )

    def window(self, k: int) -> "ProductSpace":
        windows = self._windows  # type: ignore[attr-defined]
        space = windows.get(k)
        if space is None:
            self.check_window(k)
            space = windows[k] = (
                self if k == self.width else ProductSpace(self.coordinates[:k])
            )
        return space

    def stride(self, k: int) -> int:
        """The number of points sharing one k-prefix: the divisor of ``prefix``."""
        self.check_window(k)
        return self._strides[k]  # type: ignore[attr-defined]

    def prefix(self, point: Point, k: int) -> Point:
        """The k-prefix of a point, as a point of the window-k space."""
        return point // self.stride(k)

    def points(self) -> range:
        return range(self.size())

    def __contains__(self, point: object) -> bool:
        return type(point) is int and 0 <= point < self.size()

    def encode(self, point: object) -> Point:
        """The code of a tuple (or other sequence) of symbol indices.

        Each index must be an ``int`` (a bool counts as one) within its
        alphabet, and there must be one per coordinate; otherwise
        ``ValueError`` names the point as a tuple.
        """
        pt = point if type(point) is tuple else tuple(point)  # type: ignore[arg-type]
        sizes = self._sizes  # type: ignore[attr-defined]
        if len(pt) != len(sizes):
            raise ValueError(f"point {pt!r} outside the space")
        code = 0
        for i, size in zip(pt, sizes):
            if not (isinstance(i, int) and 0 <= i < size):
                raise ValueError(f"point {pt!r} outside the space")
            code = code * size + i
        return code

    def decode(self, point: Point) -> tuple[int, ...]:
        """The tuple of symbol indices of a code."""
        if point not in self:
            raise ValueError(f"point {point!r} outside the space")
        digits = []
        for size in reversed(self._sizes):  # type: ignore[attr-defined]
            point, i = divmod(point, size)
            digits.append(i)
        return tuple(reversed(digits))

    def format_point(self, point: Point) -> str:
        labels = self._labels  # type: ignore[attr-defined]
        label = labels.get(point) if type(point) is int else None
        if label is None:
            indices = self.decode(point)
            label = labels[point] = ",".join(
                [a.symbols[i] for i, a in zip(indices, self.coordinates)]
            )
        return label

    def parse_point(self, text: str) -> Point:
        points = self._points  # type: ignore[attr-defined]
        point = points.get(text)
        if point is None:
            point = points[text] = self._split(text)
            # a label that parses is its point's label, symbol for symbol
            self._labels[point] = text  # type: ignore[attr-defined]
        return point

    def _split(self, text: str) -> Point:
        if text == "":
            labels: list[str] = []
        else:
            labels = text.split(",")
        if len(labels) != self.width:
            raise ValueError(
                f"point {text!r} has {len(labels)} coordinates, expected {self.width}"
            )
        code = 0
        for s, a, size in zip(labels, self.coordinates, self._sizes):  # type: ignore[attr-defined]
            code = code * size + a.index(s)
        return code


@dataclass(frozen=True)
class MassFunction:
    """Exact non-negative mass function with total mass at most one.

    The mass at ``z`` is ``weights[z] / denominator``: one positive
    integer denominator per law and a positive integer weight per
    support point, keyed by the point's code in ``space``.  The
    constructor is the checking constructor, for every law that comes
    from outside input (a document, a caller): each key must be a code
    of the space, or a tuple (or other sequence) of symbol indices,
    which is encoded once; each weight must be a non-negative ``int``
    and the weights must sum to at most the denominator; zero weights
    are dropped and then the denominator and weights are divided by
    their gcd.  The stored form is therefore canonical (the denominator
    is the lcm of the reduced denominators of the masses), so two mass
    functions are equal exactly when they have the same space and the
    same support with the same masses.  ``_derived`` builds the same
    canonical form for a law whose points come from a law on the space,
    or are k-prefixes of such points, without the per-point checks; so
    does ``jsonio`` for a document law whose keys parsed to codes and
    whose masses are all positive, where only the total is left to check.
    ``as_read`` is not part of the law: where ``jsonio`` read every mass
    in lowest terms as ``num/den``, in the form ``jsonio.law_to_doc``
    writes, it holds a copy of the law's document object as read, which
    is then the document written, and ``law_to_doc`` copies it instead
    of formatting the masses again.  Every other law, derived, made by
    the constructor or by ``dataclasses.replace``, has None.
    ``from_masses`` builds a law from rational masses.  ``mass`` and
    ``law[z]`` are read-only ``Fraction`` views, built on each access;
    ``law[z]`` takes a code or a tuple.  Error messages name points as
    tuples.
    """

    space: ProductSpace
    denominator: int
    weights: Mapping[Point, int]
    as_read: dict[str, str] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        space = self.space
        denominator = self.denominator
        if type(denominator) is not int or denominator < 1:
            raise ValueError(f"denominator {denominator!r} must be a positive integer")
        given = self.weights
        size = space.size()
        clean: dict[Point, int] = {}
        total = 0
        for point, weight in given.items():
            if type(point) is int and 0 <= point < size:
                pt = point
            elif type(point) is int:
                raise ValueError(f"point {point!r} outside the space")
            else:
                pt = space.encode(point)
                if pt in given:
                    raise ValueError(f"point {space.decode(pt)!r} given twice")
            if type(weight) is not int:
                raise TypeError(f"weight {weight!r} at {_shown(space, point)!r} is not an int")
            if weight < 0:
                raise ValueError(
                    f"negative mass {Fraction(weight, denominator)} at {_shown(space, point)!r}"
                )
            if weight:
                clean[pt] = weight
                total += weight
        if total > denominator:
            raise ValueError(f"total mass {Fraction(total, denominator)} exceeds 1")
        self._settle(denominator, clean)

    def _settle(self, denominator: int, clean: dict[Point, int]) -> None:
        """Store positive weights over ``denominator`` divided by their gcd."""
        common = math.gcd(denominator, *clean.values())
        if common > 1:
            denominator //= common
            clean = {z: w // common for z, w in clean.items()}
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "weights", clean)

    @classmethod
    def _derived(
        cls, space: ProductSpace, denominator: int, weights: Mapping[Point, int]
    ) -> "MassFunction":
        """The law ``weights / denominator`` whose points are known to lie in ``space``.

        For laws derived from laws already on ``space``: each key is a
        point of such a law, or a k-prefix of one on the k-window space,
        or a code that ``parse_point`` returned, and each weight an
        ``int``.  Zero weights are dropped and the
        form is reduced as by the constructor; a non-positive
        denominator, a negative weight or a total above one is handed
        to the checking constructor, which raises its own error.
        """
        clean = {z: w for z, w in weights.items() if w}
        values = clean.values()
        if denominator < 1 or min(values, default=0) < 0 or sum(values) > denominator:
            return cls(space, denominator, weights)
        law = object.__new__(cls)
        object.__setattr__(law, "space", space)
        law._settle(denominator, clean)
        return law

    @classmethod
    def from_masses(cls, space: ProductSpace, masses: Mapping[object, object]) -> "MassFunction":
        """The law with the given masses: Fractions, ints or strings that ``Fraction`` reads.

        Keys are codes or tuples of symbol indices, as for the
        constructor.  Entries are read through ``masses.items()``, and
        two keys that convert to equal tuples are rejected before any
        point is checked.  The masses are scaled to integer weights over
        the lcm of their denominators and validated by the constructor.
        """
        points: dict[object, object] = {}
        for point, value in masses.items():
            pt = point if type(point) in (int, tuple) else tuple(point)  # type: ignore[arg-type]
            if pt in points:
                raise ValueError(f"point {pt!r} given twice")
            points[pt] = value
        values = [v if type(v) is Fraction else Fraction(v) for v in points.values()]
        common = math.lcm(*(v.denominator for v in values))
        return cls(
            space,
            common,
            {z: v.numerator * (common // v.denominator) for z, v in zip(points, values)},
        )

    @property
    def mass(self) -> Mapping[Point, Fraction]:
        """Each support point's mass as a ``Fraction``, in a read-only map built on access."""
        denominator = self.denominator
        return MappingProxyType({z: Fraction(w, denominator) for z, w in self.weights.items()})

    @property
    def total_mass(self) -> Fraction:
        return Fraction(sum(self.weights.values()), self.denominator)

    @property
    def is_probability(self) -> bool:
        return sum(self.weights.values()) == self.denominator

    def __getitem__(self, point: object) -> Fraction:
        key = point if type(point) is int else self.space.encode(point)
        return Fraction(self.weights.get(key, 0), self.denominator)

    @classmethod
    def point_mass(cls, space: ProductSpace, point: object) -> "MassFunction":
        return cls(space, 1, {point if type(point) is int else space.encode(point): 1})

    @classmethod
    def uniform(cls, space: ProductSpace) -> "MassFunction":
        return cls(space, space.size(), dict.fromkeys(space.points(), 1))


def _shown(space: ProductSpace, point: object) -> tuple:
    """A constructor key as error messages name it: the tuple given, or the code decoded."""
    return space.decode(point) if type(point) is int else tuple(point)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ProcessSequenceSpec:
    """A sequence of process laws P_1..P_M, every later member being its limit P.

    The members after P_M all equal the limit, so infima over infinite
    index tails are finitely computable: the tail contributes exactly
    the limit law to every infimum.  The horizon M is the number of
    members and the space is the limit's; every member must live on it.
    """

    members: tuple[MassFunction, ...]
    limit: MassFunction

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a sequence needs at least one member")
        space = self.space
        for i, law in enumerate((*self.members, self.limit)):
            if law.space != space:
                raise SpaceMismatchError(f"law {i} lives on a different space")
            if not law.is_probability:
                raise ValueError(f"law {i} has total mass {law.total_mass}, not 1")

    @property
    def space(self) -> ProductSpace:
        return self.limit.space

    @property
    def horizon(self) -> int:
        return len(self.members)

    def member(self, n: int) -> MassFunction:
        """The n-th law of the sequence; indices past the horizon give the limit."""
        if n < 1:
            raise ValueError(f"member index {n} must be at least 1")
        return self.members[n - 1] if n <= self.horizon else self.limit

    @cached_property
    def window_table(self) -> "WindowTable":
        """The sequence's one ``WindowTable``, kept with it once read."""
        return WindowTable(self)


class DensityConvergence(NamedTuple):
    converges: bool
    witness: int | None


def window_marginal(law: MassFunction, k: int) -> MassFunction:
    """Exact pushforward of a law onto its first ``k`` coordinates.

    Total mass is preserved; ``k = 0`` gives the whole mass on the
    unit space's one point, and the full width gives the law itself.
    """
    if k == law.space.width:
        return law
    stride = law.space.stride(k)
    sums: dict[Point, int] = {}
    for point, weight in law.weights.items():
        key = point // stride
        sums[key] = sums.get(key, 0) + weight
    return MassFunction._derived(law.space.window(k), law.denominator, sums)


def pointwise_minimum(first: MassFunction, second: MassFunction) -> MassFunction:
    """min(first, second) at each point of first's support, as one law.

    Both laws' weights are scaled to the lcm of the two denominators, so
    the minimum compares integers; the result is reduced by ``_derived``.
    Where second lies nowhere below first, the result is first itself.
    """
    common = math.lcm(first.denominator, second.denominator)
    first_scale = common // first.denominator
    second_scale = common // second.denominator
    weights = second.weights
    out: dict[Point, int] = {}
    lowered = False
    for point, weight in first.weights.items():
        mine, other = weight * first_scale, weights.get(point, 0) * second_scale
        if other < mine:
            lowered = True
            mine = other
        if mine:
            out[point] = mine
    return MassFunction._derived(first.space, common, out) if lowered else first


def weighted_sum(
    space: ProductSpace, terms: Iterable[tuple[int | Fraction, MassFunction]]
) -> MassFunction:
    """Sum of c * law over the ``(c, law)`` terms, as one law on ``space``.

    Each coefficient is an ``int`` or a ``Fraction``, possibly zero or
    negative.  Term c * law has the denominator c.denominator *
    law.denominator; every term is scaled to the lcm of these, the
    weights are summed as integers and the result is reduced by
    ``_derived``.  A sum that is negative at some point is no law: the
    checking constructor raises ``ValueError`` naming the mass and the
    first such point, points being ordered by the first term that charges
    them.  A law on another space raises ``SpaceMismatchError``.
    """
    terms = tuple(terms)
    common = math.lcm(*(c.denominator * law.denominator for c, law in terms))
    out: dict[Point, int] = {}
    for c, law in terms:
        if law.space != space:
            raise SpaceMismatchError("weighted sum of laws on different spaces")
        factor = c.numerator * (common // (c.denominator * law.denominator))
        for point, weight in law.weights.items():
            out[point] = out.get(point, 0) + factor * weight
    return MassFunction._derived(space, common, out)


def window_infimum(seq: ProcessSequenceSpec, start: int, k: int) -> MassFunction:
    """Pointwise infimum of the k-window marginals over indices >= start.

    The infimum runs over the members with index in start..horizon plus
    the limit law, which equals the infimum over the whole infinite
    tail, every member past the horizon being the limit.  The result is
    a sub-probability mass function, pointwise non-decreasing in
    ``start``.  It compares the masses one ``Fraction`` at a time and is
    the reference ``WindowTable`` is tested against.
    """
    if start < 1:
        raise ValueError(f"start index {start} must be at least 1")
    laws = [window_marginal(seq.member(n), k) for n in range(start, seq.horizon + 1)]
    laws.append(window_marginal(seq.limit, k))
    first, *rest = (law.mass for law in laws)
    out: dict[Point, Fraction] = {}
    for point, value in first.items():
        m = value
        for mass in rest:
            other = mass.get(point, ZERO)
            if other < m:
                m = other
                if m == 0:
                    break
        if m > 0:
            out[point] = m
    return MassFunction.from_masses(seq.space.window(k), out)


class WindowTable:
    """The window marginals and window infima of one sequence that are read.

    Index n = 1..M names the members and n = M + 1 the limit law; every
    later index is the limit too.  Each sequence has one table,
    ``ProcessSequenceSpec.window_table``, which the schedule, the
    envelopes, the floors, the exact marginals and the audit all read.
    Nothing is computed at construction.  A law's k-window marginal is
    computed on its first read, from the narrowest of its wider marginals
    computed so far (the law itself at the full width); every law of a
    sequence is a probability law, so its window-0 marginal is the unit
    mass and costs nothing.  The infima of window k come from a backward
    sweep, filled on demand: the infimum from M + 1 is the limit
    marginal, and the infimum from n is the ``pointwise_minimum`` of the
    infimum from n + 1 and P_n|k, taken over the support of the former.
    ``engine.build_ladder`` sweeps the envelopes with the same step.
    A read of the infimum from n at window k extends that window's sweep
    down to n, if it has not reached n yet, so each marginal and infimum
    is computed at most once and only the windows and indices read are
    computed at all; the results do not depend on the order of the reads.
    ``marginal`` and ``infimum`` return what ``window_marginal`` and
    ``window_infimum`` would.
    """

    def __init__(self, seq: ProcessSequenceSpec) -> None:
        # the space and the horizon, not the sequence, which keeps the table
        space = self._space = seq.space
        self._horizon = seq.horizon
        unit = MassFunction(space.window(0), 1, {0: 1})
        # per law, its window marginals computed so far, keyed by window
        self._marginals = [{0: unit, space.width: law} for law in (*seq.members, seq.limit)]
        # per window k read, the infima from M + 1, M, ... down to the lowest index read
        self._sweeps: dict[int, list[MassFunction]] = {}

    def _locate(self, n: int, k: int) -> int:
        if n < 1:
            raise ValueError(f"start index {n} must be at least 1")
        self._space.check_window(k)
        return min(n, self._horizon + 1) - 1

    def _marginal(self, row: int, k: int) -> MassFunction:
        levels = self._marginals[row]
        law = levels.get(k)
        if law is None:
            law = levels[k] = window_marginal(levels[min(j for j in levels if j > k)], k)
        return law

    def marginal(self, n: int, k: int) -> MassFunction:
        """The k-window marginal of the n-th law of the sequence."""
        return self._marginal(self._locate(n, k), k)

    def infimum(self, n: int, k: int) -> MassFunction:
        """The k-window infimum over indices >= n."""
        row = self._locate(n, k)
        last = self._horizon
        sweep = self._sweeps.get(k)
        if sweep is None:
            sweep = self._sweeps[k] = [self._marginal(last, k)]
        while len(sweep) <= last - row:
            sweep.append(pointwise_minimum(sweep[-1], self._marginal(last - len(sweep), k)))
        return sweep[last - row]

    def deficit(self, n: int, k: int) -> Fraction:
        """Mass missing from the k-window infimum starting at index n."""
        return ONE - self.infimum(n, k).total_mass


def density_convergence(seq: ProcessSequenceSpec, k: int) -> DensityConvergence:
    """Decide whether the k-window infima reach the limit marginal exactly.

    Every member past the horizon M is the limit, so the infimum is
    monotone in the start index and equals the limit marginal from
    index M + 1 on: this scan always succeeds, and the witness is the
    first index where equality holds.  Plan construction relies on this
    and runs no such scan.
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
    pw, qw = p.weights, q.weights
    pd, qd = p.denominator, q.denominator
    gap = sum(abs(pw.get(z, 0) * qd - qw.get(z, 0) * pd) for z in set(pw) | set(qw))
    return Fraction(gap, 2 * pd * qd)


def conditional_given_prefix(law: MassFunction, prefix: Point, k: int) -> MassFunction:
    """The conditional of ``law`` on the cylinder of the k-prefix ``prefix``."""
    stride = law.space.stride(k)
    group = {z: w for z, w in law.weights.items() if z // stride == prefix}
    if not group:
        raise ValueError(
            f"conditioning on zero-mass prefix {law.space.window(k).decode(prefix)!r}"
        )
    return MassFunction._derived(law.space, sum(group.values()), group)


def prefix_conditionals(law: MassFunction, k: int) -> dict[Point, MassFunction]:
    """``conditional_given_prefix`` for every k-prefix of positive mass.

    One pass groups the law's weights by prefix, instead of one scan of
    the whole support per prefix; each group's weights over their sum
    are its conditional.
    """
    stride = law.space.stride(k)
    groups: dict[Point, dict[Point, int]] = {}
    for z, w in law.weights.items():
        groups.setdefault(z // stride, {})[z] = w
    return {
        prefix: MassFunction._derived(law.space, sum(group.values()), group)
        for prefix, group in groups.items()
    }
