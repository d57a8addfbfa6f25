"""Exact arithmetic in iterated real quadratic extensions of the rationals.

An exact value is either a ``fractions.Fraction`` or a :class:`Scalar`.
A ``Scalar`` stores ``a + b*sqrt(d)`` where ``a``, ``b`` and the radicand
``d`` live in a common base field -- the rationals, or a smaller extension
built the same way.  The representation is kept canonical:

* ``b`` is never zero (such values collapse to the base field),
* ``d`` is positive and is not a square in its own field,
* rational radicands carry a squarefree integer core.

Canonical form makes equality structural and gives every value a decidable
exact sign, so every strict inequality downstream is settled without
floating point.  Square roots of nonnegative values stay inside the
representation, extending the tower by one level when the argument is not
a perfect square in its field.

Operating on values from unrelated extensions (say ``1+sqrt(2)`` and
``1+sqrt(3)``) raises :class:`MixedRadicandError` instead of approximating;
:func:`compare` is the one deliberate exception, deciding order across two
single-level extensions exactly by repeated squaring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import MixedRadicandError, NonRealScalarError

Exact = Union[Fraction, "Scalar"]
ExactLike = Union[int, Fraction, "Scalar"]

_TRIAL_LIMIT = 10_000


def _coerce(value: ExactLike) -> Exact:
    if isinstance(value, (Scalar, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact value: {value!r}")


def _squarefree_split(n: int) -> tuple[int, int]:
    """Write n > 0 as c^2 * d with d squarefree; returns (c, d).

    Trial division up to a fixed bound, then one perfect-square check on the
    remainder.  A square of a prime beyond the bound would stay unextracted;
    the value is still correct, only the radicand normal form is coarser.
    """
    c, d = 1, 1
    m = n
    p = 2
    while p * p <= m and p <= _TRIAL_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            c *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if m > 1:
        root = math.isqrt(m)
        if root * root == m:
            c *= root
        else:
            d *= m
    return c, d


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class Scalar:
    """Canonical element a + b*sqrt(d) of a real quadratic tower over Q."""

    __slots__ = ("_a", "_b", "_d", "_key")

    def __init__(self, a: Exact, b: Exact, d: Exact):
        self._a = a
        self._b = b
        self._d = d
        self._key: tuple | None = None

    @property
    def rational_part(self) -> Exact:
        return self._a

    @property
    def radical_part(self) -> Exact:
        return self._b

    @property
    def radicand(self) -> Exact:
        return self._d

    def field_key(self) -> tuple:
        """Chain of radicands identifying the extension this value lives in."""
        if self._key is None:
            base = _field_key(self._a)
            for part in (self._b, self._d):
                k = _field_key(part)
                if len(k) > len(base):
                    base = k
            self._key = base + (self._d,)
        return self._key

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        try:
            return _add(self, _coerce(other))
        except TypeError:
            return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        try:
            return _add(self, _neg(_coerce(other)))
        except TypeError:
            return NotImplemented

    def __rsub__(self, other):
        try:
            return _add(_coerce(other), _neg(self))
        except TypeError:
            return NotImplemented

    def __mul__(self, other):
        try:
            return _mul(self, _coerce(other))
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            return _mul(self, _inv(_coerce(other)))
        except TypeError:
            return NotImplemented

    def __rtruediv__(self, other):
        try:
            return _mul(_coerce(other), _inv(self))
        except TypeError:
            return NotImplemented

    def __neg__(self):
        return Scalar(_neg(self._a), _neg(self._b), self._d)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return False  # canonical Scalars are irrational
        if isinstance(other, Scalar):
            return (
                self._d == other._d
                and self._a == other._a
                and self._b == other._b
            )
        return NotImplemented

    def __hash__(self):
        return hash(("surface_cones.Scalar", self._a, self._b, self._d))

    def _compare(self, other, predicate):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return predicate(compare(self, other))

    def __lt__(self, other):
        return self._compare(other, lambda c: c < 0)

    def __le__(self, other):
        return self._compare(other, lambda c: c <= 0)

    def __gt__(self, other):
        return self._compare(other, lambda c: c > 0)

    def __ge__(self, other):
        return self._compare(other, lambda c: c >= 0)

    def __bool__(self):
        return True  # never the zero value in canonical form

    def __float__(self):
        return to_float(self)

    def __repr__(self):
        return f"Scalar({self._a!r}, {self._b!r}, {self._d!r})"

    def __str__(self):
        d = f"sqrt({self._d})"
        if self._b == 1:
            rad = d
        elif self._b == -1:
            rad = f"-{d}"
        else:
            rad = f"{self._b}*{d}"
        if isinstance(self._a, Fraction) and self._a == 0:
            return rad
        joiner = "" if rad.startswith("-") else "+"
        return f"{self._a}{joiner}{rad}"


def _field_key(x: Exact) -> tuple:
    if isinstance(x, Scalar):
        return x.field_key()
    return ()


def _is_prefix(shorter: tuple, longer: tuple) -> bool:
    return len(shorter) <= len(longer) and longer[: len(shorter)] == shorter


def _make(a: Exact, b: Exact, d: Exact) -> Exact:
    if isinstance(b, Fraction) and b == 0:
        return a
    return Scalar(a, b, d)


def _add(x: Exact, y: Exact) -> Exact:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y
    kx, ky = _field_key(x), _field_key(y)
    if kx == ky:
        return _make(_add(x._a, y._a), _add(x._b, y._b), x._d)
    if _is_prefix(ky, kx):
        return _make(_add(x._a, y), x._b, x._d)
    if _is_prefix(kx, ky):
        return _make(_add(y._a, x), y._b, y._d)
    aligned = _align(x, y)
    if aligned is not None:
        return _add(*aligned)
    raise MixedRadicandError(f"mixed radicands: cannot combine {x} and {y}")


def _neg(x: Exact) -> Exact:
    return -x if isinstance(x, Fraction) else Scalar(_neg(x._a), _neg(x._b), x._d)


def _mul(x: Exact, y: Exact) -> Exact:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x * y
    kx, ky = _field_key(x), _field_key(y)
    if kx == ky:
        a = _add(_mul(x._a, y._a), _mul(_mul(x._b, y._b), x._d))
        b = _add(_mul(x._a, y._b), _mul(x._b, y._a))
        return _make(a, b, x._d)
    if _is_prefix(ky, kx):
        return _make(_mul(x._a, y), _mul(x._b, y), x._d)
    if _is_prefix(kx, ky):
        return _make(_mul(y._a, x), _mul(y._b, x), y._d)
    aligned = _align(x, y)
    if aligned is not None:
        return _mul(*aligned)
    raise MixedRadicandError(f"mixed radicands: cannot combine {x} and {y}")


def _align(x: Exact, y: Exact) -> tuple[Exact, Exact] | None:
    """x and y over one first radicand when theirs differ by a square factor, else None.

    Radicands above ``_TRIAL_LIMIT`` can keep a square factor (sqrt(p^2*q)
    next to p*sqrt(q)).  When d1*d2 = k^2, sqrt(d2) = (k/d1)*sqrt(d1), so the
    value over the larger radicand is rewritten over the smaller one.  Only
    reached where the operation would otherwise raise.
    """
    kx, ky = _field_key(x), _field_key(y)
    if not kx or not ky or kx[0] == ky[0]:
        return None
    d1, d2 = kx[0], ky[0]
    k = _fraction_sqrt(d1 * d2)
    if k is None:
        return None
    if d1 < d2:
        return x, _rebase(y, d2, d1, k / d1)
    return _rebase(x, d1, d2, k / d2), y


def _rebase(x: Exact, d_from: Fraction, d_to: Fraction, scale: Fraction) -> Exact:
    """x with sqrt(d_from) replaced by scale*sqrt(d_to) at the first level of its tower."""
    if isinstance(x, Fraction):
        return x
    if x._d == d_from:
        return Scalar(x._a, x._b * scale, d_to)
    return Scalar(
        _rebase(x._a, d_from, d_to, scale),
        _rebase(x._b, d_from, d_to, scale),
        _rebase(x._d, d_from, d_to, scale),
    )


def _inv(x: Exact) -> Exact:
    if isinstance(x, Fraction):
        return 1 / x  # ZeroDivisionError for the zero value
    norm = _add(_mul(x._a, x._a), _neg(_mul(_mul(x._b, x._b), x._d)))
    return _make(_div(x._a, norm), _neg(_div(x._b, norm)), x._d)


def _div(x: Exact, y: Exact) -> Exact:
    return _mul(x, _inv(y))


def sign(x: ExactLike) -> int:
    """Exact sign in {-1, 0, +1}.

    Decided recursively: equal-signed parts are immediate, opposite-signed
    parts reduce to comparing a^2 against b^2*d one level down.
    """
    x = _coerce(x)
    if isinstance(x, Fraction):
        return (x > 0) - (x < 0)
    sa = sign(x._a)
    sb = sign(x._b)
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    squared_gap = _add(_mul(x._a, x._a), _neg(_mul(_mul(x._b, x._b), x._d)))
    s2 = sign(squared_gap)
    if s2 == 0:  # would mean d is a square in its field
        raise AssertionError(f"non-canonical scalar encountered: {x!r}")
    return sa if s2 > 0 else sb


def is_zero(x: ExactLike) -> bool:
    x = _coerce(x)
    return isinstance(x, Fraction) and x == 0


def is_rational(x: ExactLike) -> bool:
    return isinstance(_coerce(x), Fraction)


def as_fraction(x: ExactLike) -> Fraction:
    x = _coerce(x)
    if not isinstance(x, Fraction):
        raise ValueError(f"not a rational value: {x}")
    return x


def exact_sqrt(x: ExactLike) -> Exact | None:
    """Square root of ``x`` inside its own field, or None if no such root."""
    x = _coerce(x)
    if isinstance(x, Fraction):
        return _fraction_sqrt(x)
    if sign(x) < 0:
        return None
    p, q, d = x._a, x._b, x._d
    gap = _add(_mul(p, p), _neg(_mul(_mul(q, q), d)))
    if sign(gap) < 0:
        return None
    root_gap = exact_sqrt(gap)
    if root_gap is None:
        return None
    for n0 in (root_gap, _neg(root_gap)):
        w = _div(_add(p, n0), _mul(Fraction(2), d))
        if sign(w) <= 0:
            continue
        v = exact_sqrt(w)
        if v is None or is_zero(v):
            continue
        u = _div(q, _mul(Fraction(2), v))
        candidate = _make(u, v, d)
        if _mul(candidate, candidate) == x:
            return candidate if sign(candidate) >= 0 else _neg(candidate)
    return None


def sqrt_scalar(x: ExactLike) -> Exact:
    """Exact nonnegative square root; extends the tower when x is not a square.

    Raises :class:`NonRealScalarError` for negative input.
    """
    x = _coerce(x)
    if isinstance(x, Fraction):
        if x < 0:
            raise NonRealScalarError(f"non-real scalar: sqrt({x})")
        if x == 0:
            return Fraction(0)
        root = _fraction_sqrt(x)
        if root is not None:
            return root
        c, core = _squarefree_split(x.numerator * x.denominator)
        return Scalar(Fraction(0), Fraction(c, x.denominator), Fraction(core))
    if sign(x) < 0:
        raise NonRealScalarError(f"non-real scalar: sqrt({x})")
    root = exact_sqrt(x)
    if root is not None:
        return root
    return Scalar(Fraction(0), Fraction(1), x)


def make_scalar(a: ExactLike, b: ExactLike, d: ExactLike) -> Exact:
    """Build a + b*sqrt(d) for d >= 0; perfect-square d collapses to rational."""
    a, b, d = _coerce(a), _coerce(b), _coerce(d)
    if sign(d) < 0:
        raise NonRealScalarError(f"non-real scalar: radicand {d} < 0")
    return _add(a, _mul(b, sqrt_scalar(d)))


def compare(x: ExactLike, y: ExactLike) -> int:
    """Exact sign of x - y, also across two unrelated single-level extensions.

    Order across distinct radicands is decided by squaring: first the two
    radical terms are compared through b^2*d vs c^2*e, then the rational
    offset through one more squaring, which lands in the single extension
    by sqrt(d*e).
    """
    x, y = _coerce(x), _coerce(y)
    try:
        return sign(_add(x, _neg(y)))
    except MixedRadicandError:
        pass
    if len(_field_key(x)) > 1 or len(_field_key(y)) > 1:
        raise MixedRadicandError(
            f"cannot compare values from unrelated radical towers: {x}, {y}"
        )
    a, b, d = (x._a, x._b, x._d) if isinstance(x, Scalar) else (x, Fraction(0), Fraction(1))
    a2, c, e = (y._a, y._b, y._d) if isinstance(y, Scalar) else (y, Fraction(0), Fraction(1))
    offset = as_fraction(a) - as_fraction(a2)
    b = as_fraction(b)
    c = -as_fraction(c)
    d = as_fraction(d)
    e = as_fraction(e)
    # decide sign of offset + b*sqrt(d) + c*sqrt(e)
    sb, sc = sign(b), sign(c)
    if sb == sc or sc == 0:
        radical_sign = sb
    elif sb == 0:
        radical_sign = sc
    else:
        radical_sign = sb if sign(b * b * d - c * c * e) > 0 else sc
    if offset == 0:
        return radical_sign
    s_offset = sign(offset)
    if s_offset == radical_sign or radical_sign == 0:
        return s_offset
    rational_gap = offset * offset - b * b * d - c * c * e
    cross = make_scalar(rational_gap, -2 * b * c, d * e)
    s2 = sign(cross)
    if s2 == 0:
        return 0
    return s_offset if s2 > 0 else radical_sign


def to_float(x: ExactLike) -> float:
    """Floating approximation; for display and figure export only."""
    x = _coerce(x)
    if isinstance(x, Fraction):
        return float(x)
    return to_float(x._a) + to_float(x._b) * math.sqrt(to_float(x._d))


# -- JSON interchange ---------------------------------------------------
#
# Rationals serialize to "p/q" strings; an extension element serializes to
# {"a": ..., "b": ..., "d": ...} with the three parts serialized the same
# way (nested objects appear only for tower values).


def scalar_to_json(x: ExactLike):
    x = _coerce(x)
    if isinstance(x, Fraction):
        return str(x)
    return {
        "a": scalar_to_json(x._a),
        "b": scalar_to_json(x._b),
        "d": scalar_to_json(x._d),
    }


def scalar_from_json(doc) -> Exact:
    """Inverse of ``scalar_to_json``; a bool or any other JSON value raises ValueError."""
    if isinstance(doc, str):
        try:
            return Fraction(doc)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {doc!r}")
    if isinstance(doc, int) and not isinstance(doc, bool):
        return Fraction(doc)
    if isinstance(doc, dict):
        a = scalar_from_json(doc["a"])
        b = scalar_from_json(doc["b"])
        d = scalar_from_json(doc["d"])
        return make_scalar(a, b, d)
    raise ValueError(f"not a serialized scalar: {doc!r}")
