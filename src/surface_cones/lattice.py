"""Numerical models of a surface Y and its blow-up X at r general points.

The blow-up lattice is the orthogonal sum of the user-supplied lattice of Y
and r exceptional directions of square -1.  Generality of the blown-up
points is modeled purely numerically: exceptional classes are pairwise
orthogonal, orthogonal to pullbacks, and any further negative curves are
declared by the caller, never inferred.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    AdjunctionParityError,
    MalformedValueError,
    ModelMismatchError,
    ModelValidationError,
    PreconditionError,
)
from .scalar import Exact, ExactLike, _coerce, _field_key, _is_prefix, as_fraction, is_rational


class SurfaceKind(Enum):
    P2 = "P2"
    K3 = "K3"
    ABELIAN = "Abelian"
    ENRIQUES = "Enriques"
    BIELLIPTIC = "Bielliptic"
    GENERAL_TYPE = "GeneralType"
    OTHER = "Other"


def parse_rational(value, field: str) -> Fraction:
    """The one reader of input rationals: a Fraction, an int or a ``"p/q"`` string.

    Anything else, a bool included, raises :class:`MalformedValueError`
    naming ``field``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise MalformedValueError(f"expected a rational number, got {value!r}", field)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise MalformedValueError(f"not a rational number: {value!r}", field)


def parse_int(value, field: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """An integer that is not a bool, within ``minimum`` and ``maximum`` when they are given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedValueError(f"must be an integer, got {value!r}", field)
    if minimum is not None and value < minimum:
        raise ModelValidationError(f"must be at least {minimum}, got {value}", field)
    if maximum is not None and value > maximum:
        raise ModelValidationError(f"must be at most {maximum}, got {value}", field)
    return value


@dataclass(frozen=True)
class SurfaceModel:
    """Numerical data of the base surface Y.

    ``gram_Y`` is the intersection matrix on a chosen basis of the lattice of
    Y; it must be symmetric with signature (1, rank-1).  ``k_Y`` and ``a_Y``
    are the coordinates of the canonical class and of a fixed ample class.
    """

    chi: Fraction
    kY_sq: Fraction
    gram_Y: tuple[tuple[Fraction, ...], ...]
    k_Y: tuple[Fraction, ...]
    a_Y: tuple[Fraction, ...]
    kind: SurfaceKind = SurfaceKind.OTHER
    pg: Fraction | None = None
    irregularity: Fraction | None = None

    def __post_init__(self):
        coerce = object.__setattr__
        coerce(self, "chi", parse_rational(self.chi, "chi"))
        coerce(self, "kY_sq", parse_rational(self.kY_sq, "kY_sq"))
        gram = tuple(
            tuple(parse_rational(v, f"gram_Y[{i}][{j}]") for j, v in enumerate(row))
            for i, row in enumerate(self.gram_Y)
        )
        coerce(self, "gram_Y", gram)
        coerce(self, "k_Y", tuple(parse_rational(v, f"k_Y[{i}]") for i, v in enumerate(self.k_Y)))
        coerce(self, "a_Y", tuple(parse_rational(v, f"a_Y[{i}]") for i, v in enumerate(self.a_Y)))
        if not isinstance(self.kind, SurfaceKind):
            try:
                coerce(self, "kind", SurfaceKind(self.kind))
            except ValueError:
                raise ModelValidationError(f"unknown surface class {self.kind!r}", "class")
        if self.pg is not None:
            coerce(self, "pg", parse_rational(self.pg, "pg"))
        if self.irregularity is not None:
            coerce(self, "irregularity", parse_rational(self.irregularity, "q"))
        self._validate()

    def _validate(self):
        m = len(self.gram_Y)
        if m == 0:
            raise ModelValidationError("lattice rank must be positive", "gram_Y")
        for i, row in enumerate(self.gram_Y):
            if len(row) != m:
                raise ModelValidationError(f"row has length {len(row)}, expected {m}", f"gram_Y[{i}]")
        for i in range(m):
            for j in range(i + 1, m):
                if self.gram_Y[i][j] != self.gram_Y[j][i]:
                    raise ModelValidationError(
                        f"not symmetric with gram_Y[{j}][{i}]", f"gram_Y[{i}][{j}]"
                    )
        if len(self.k_Y) != m:
            raise ModelValidationError(f"length {len(self.k_Y)}, expected {m}", "k_Y")
        if len(self.a_Y) != m:
            raise ModelValidationError(f"length {len(self.a_Y)}, expected {m}", "a_Y")
        sig = linalg.signature([list(row) for row in self.gram_Y])
        if sig != (1, m - 1, 0):
            raise ModelValidationError(
                f"signature is {sig}, expected (1, {m - 1}, 0)", "gram_Y"
            )
        a_sq = self._pair_y(self.a_Y, self.a_Y)
        if a_sq <= 0:
            raise ModelValidationError(f"ample class has square {a_sq} <= 0", "a_Y")
        k_sq = self._pair_y(self.k_Y, self.k_Y)
        if k_sq != self.kY_sq:
            raise ModelValidationError(
                f"k_Y has square {k_sq}, expected kY_sq = {self.kY_sq}", "kY_sq"
            )
        if self.kind in (SurfaceKind.K3, SurfaceKind.ABELIAN):
            if any(v != 0 for v in self.k_Y) or self.kY_sq != 0:
                raise ModelValidationError(
                    "canonical class must vanish numerically", "k_Y"
                )
        if self.pg is not None and self.irregularity is not None:
            if self.chi != 1 - self.irregularity + self.pg:
                raise ModelValidationError(
                    f"chi = {self.chi} but 1 - q + pg = {1 - self.irregularity + self.pg}",
                    "chi",
                )
        if all(v.denominator == 1 for row in self.gram_Y for v in row) and all(
            v.denominator == 1 for v in self.k_Y
        ):
            # e_i^2 + e_i.K_Y is even for each basis class e_i, with e_i.K_Y = (gram_Y k_Y)_i
            for i, row in enumerate(self.gram_Y):
                value = row[i] + sum(g * k for g, k in zip(row, self.k_Y))
                if value % 2 != 0:
                    raise ModelValidationError(
                        f"adjunction parity fails: e_{i}^2 + e_{i}.K_Y = {value} is odd", "k_Y"
                    )

    def _pair_y(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return sum(
            u[i] * self.gram_Y[i][j] * v[j]
            for i in range(len(u))
            for j in range(len(v))
        )

    @property
    def rank(self) -> int:
        return len(self.gram_Y)

    @property
    def a_sq(self) -> Fraction:
        return self._pair_y(self.a_Y, self.a_Y)

    @property
    def a_dot_k(self) -> Fraction:
        return self._pair_y(self.a_Y, self.k_Y)


@dataclass(frozen=True)
class BlowupModel:
    """X = Y blown up at r general points; lattice of rank rank(Y) + r."""

    base: SurfaceModel
    r: int

    def __post_init__(self):
        if parse_int(self.r, "r") < 0:
            raise ModelValidationError("number of blown-up points must be a nonnegative integer", "r")

    @property
    def rank(self) -> int:
        return self.base.rank + self.r

    def gram_matrix(self) -> list[list[Fraction]]:
        m, rho = self.base.rank, self.rank
        gram = [[Fraction(0)] * rho for _ in range(rho)]
        for i in range(m):
            for j in range(m):
                gram[i][j] = self.base.gram_Y[i][j]
        for k in range(m, rho):
            gram[k][k] = Fraction(-1)
        return gram

    def divisor(self, coords: Iterable[ExactLike]) -> "DivisorClass":
        return DivisorClass(self, tuple(_coerce(c) for c in coords))

    def zero(self) -> "DivisorClass":
        return self.divisor([Fraction(0)] * self.rank)

    def pullback(self, y_coords: Sequence[ExactLike]) -> "DivisorClass":
        if len(y_coords) != self.base.rank:
            raise PreconditionError(
                f"pullback expects {self.base.rank} coordinates, got {len(y_coords)}"
            )
        return self.divisor(list(y_coords) + [Fraction(0)] * self.r)

    def exceptional(self, i: int) -> "DivisorClass":
        if not 1 <= i <= self.r:
            raise PreconditionError(f"exceptional index {i} out of range 1..{self.r}")
        coords = [Fraction(0)] * self.rank
        coords[self.base.rank + i - 1] = Fraction(1)
        return self.divisor(coords)

    def canonical(self) -> "DivisorClass":
        return self._canonical

    @cached_property
    def _canonical(self) -> "DivisorClass":
        """K = K_Y + E_1 + ... + E_r, built once per model."""
        return self.divisor(list(self.base.k_Y) + [Fraction(1)] * self.r)

    def line(self) -> "DivisorClass":
        """Pullback of the chosen ample class of Y; nef with positive square."""
        return self.pullback(self.base.a_Y)

    def ample_h(self, delta: ExactLike) -> "DivisorClass":
        """L - delta * (E_1 + ... + E_r) with a uniform delta > 0."""
        delta = as_fraction(_coerce(delta))
        if delta <= 0:
            raise PreconditionError(f"delta must be positive, got {delta}")
        return self.divisor(list(self.base.a_Y) + [-delta] * self.r)


@dataclass(frozen=True)
class DivisorClass:
    """Coordinate vector in the blow-up basis, tagged with its model."""

    model: BlowupModel
    coords: tuple[Exact, ...]

    def __post_init__(self):
        if len(self.coords) != self.model.rank:
            raise ModelValidationError(
                f"expected {self.model.rank} coordinates, got {len(self.coords)}"
            )
        if all(isinstance(c, Fraction) for c in self.coords):
            return
        longest: tuple = ()
        for c in self.coords:
            k = _field_key(c)
            if len(k) > len(longest):
                longest = k
        for c in self.coords:
            if not _is_prefix(_field_key(c), longest):
                from .errors import MixedRadicandError

                raise MixedRadicandError(
                    "divisor coordinates must lie in a single radical tower"
                )

    @property
    def is_rational(self) -> bool:
        return all(is_rational(c) for c in self.coords)

    def is_zero(self) -> bool:
        return all(isinstance(c, Fraction) and c == 0 for c in self.coords)

    def _check_model(self, other: "DivisorClass"):
        if self.model is not other.model and self.model != other.model:
            raise ModelMismatchError("divisor classes belong to different models")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._check_model(other)
        pairs = zip(self.coords, other.coords)
        return DivisorClass(self.model, tuple(a + b if a and b else a or b for a, b in pairs))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._check_model(other)
        pairs = zip(self.coords, other.coords)
        return DivisorClass(self.model, tuple(a - b if b else a for a, b in pairs))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.model, tuple(-c for c in self.coords))

    def __mul__(self, scale) -> "DivisorClass":
        try:
            scale = _coerce(scale)
        except TypeError:
            return NotImplemented
        return DivisorClass(self.model, tuple(scale * c if c else c for c in self.coords))

    __rmul__ = __mul__

    def __repr__(self):
        return f"DivisorClass({', '.join(str(c) for c in self.coords)})"


def intersect(x: DivisorClass, y: DivisorClass) -> Exact:
    """Intersection pairing on the blow-up: x.y = sum_j x_j (G*y)_j over y's ``_gram_row``."""
    x._check_model(y)
    return _pair_row(x.coords, _gram_row(y.model, y.coords))


def _gram_row(model: BlowupModel, coords: Sequence) -> list[tuple[int, Exact]]:
    """The nonzero entries ``(j, (G*v)_j)`` of G times v = ``coords``, ints where integral.

    The one statement of the blow-up pairing: gram_Y times v's Y-block, then
    (G*v)_i = -v_i on the E-block, since the E_i are orthogonal to Y and to
    each other with E_i^2 = -1.  Zero coordinates and Gram entries are skipped.
    The coordinates may be exact values or, for an integral class, plain ints.
    """
    m = model.base.rank
    y_block = [(i, _integral(c)) for i, c in enumerate(coords[:m]) if c]
    row = []
    for j, gram in enumerate(model.base.gram_Y):
        value = sum(_integral(gram[i]) * c for i, c in y_block if gram[i])
        if value:
            row.append((j, _integral(value)))
    row += [(i, -_integral(c)) for i, c in enumerate(coords[m:], m) if c]
    return row


def _integral(value):
    """An integral Fraction as an int, so that integer arithmetic stays in ints."""
    return value.numerator if type(value) is Fraction and value.denominator == 1 else value


def _pair_row(xs, row) -> Exact:
    """sum_j xs[j] * w over the ``(j, w)`` entries, with rational terms summed in integers."""
    num, den = 0, 1
    exact = None
    for j, w in row:
        v = xs[j]
        if not v:
            continue
        if type(v) is Fraction and type(w) is int:
            d = v.denominator
            if d == den:
                num += v.numerator * w
            else:
                num, den = num * d + v.numerator * w * den, den * d
        else:
            exact = v * w if exact is None else exact + v * w
    rational = Fraction(num, den)
    return rational if exact is None else exact + rational


def arithmetic_genus(c: DivisorClass) -> Fraction:
    """Genus by adjunction: 1 + (C^2 + C.K)/2, for integral rational classes."""
    value = intersect(c, c) + intersect(c, c.model.canonical())
    if not is_rational(value):
        raise AdjunctionParityError("non-integral class for adjunction")
    return _adjunction_genus(as_fraction(value))


def _adjunction_genus(value: Fraction) -> Fraction:
    """1 + value/2 for value = C^2 + C.K, which adjunction requires to be an even integer."""
    if value.denominator != 1 or value.numerator % 2 != 0:
        raise AdjunctionParityError(f"non-integral class for adjunction: C^2 + C.K = {value}")
    return Fraction(1 + value.numerator // 2)
