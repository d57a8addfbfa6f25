"""Exact scalar arithmetic: field laws, sign decisions, towers, serialization."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from surface_cones.errors import MixedRadicandError, NonRealScalarError
from surface_cones.scalar import (
    _TRIAL_LIMIT,
    Scalar,
    compare,
    exact_sqrt,
    make_scalar,
    scalar_from_json,
    scalar_to_json,
    sign,
    sqrt_scalar,
    to_float,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
radicands = st.sampled_from([Fraction(2), Fraction(3), Fraction(5), Fraction(10), Fraction(33, 2)])


def test_perfect_square_collapses():
    assert make_scalar(0, 1, 4) == Fraction(2)
    assert make_scalar(0, 1, Fraction(9, 4)) == Fraction(3, 2)
    assert make_scalar(-3, 1, 9) == Fraction(0)


def test_zero_radical_part_is_rational():
    assert make_scalar(1, 0, 7) == Fraction(1)


def test_constructor_keeps_irrational_radicand():
    s = make_scalar(-3, 1, 10)
    assert isinstance(s, Scalar)
    assert s.rational_part == Fraction(-3)
    assert s.radicand == Fraction(10)


def test_negative_radicand_rejected():
    with pytest.raises(NonRealScalarError):
        make_scalar(0, 1, -1)
    with pytest.raises(NonRealScalarError):
        sqrt_scalar(Fraction(-4))


def test_radicand_normalized_to_squarefree_core():
    assert make_scalar(0, 1, 99) == make_scalar(0, 3, 11)
    assert sqrt_scalar(Fraction(1, 10)) * 10 == sqrt_scalar(10)


def test_addition_collapse():
    s = make_scalar(-3, 1, 10)
    assert s + 3 == make_scalar(0, 1, 10)
    assert s - s == Fraction(0)


def test_conjugate_product():
    s = make_scalar(-3, 1, 10)
    assert s * make_scalar(-3, -1, 10) == Fraction(-1)


def test_mixed_radicands_error():
    a = 1 + sqrt_scalar(2)
    b = 1 + sqrt_scalar(3)
    with pytest.raises(MixedRadicandError):
        a * b
    with pytest.raises(MixedRadicandError):
        a + b


# primes just above the trial-division bound, whose squares _squarefree_split cannot extract
LARGE_PRIMES = [
    p for p in range(_TRIAL_LIMIT + 1, _TRIAL_LIMIT + 300)
    if all(p % f for f in range(2, math.isqrt(p) + 1))
]


def test_square_factor_beyond_trial_limit():
    wide = sqrt_scalar(10007**2 * 10009)
    narrow = 10007 * sqrt_scalar(10009)
    assert wide.radicand == 10007**2 * 10009  # the square factor stays unextracted
    assert wide - narrow == Fraction(0)
    assert wide * narrow == Fraction(10007**2 * 10009)
    assert compare(wide, narrow) == 0


def test_square_factor_beyond_trial_limit_in_a_tower():
    wide = sqrt_scalar(1 + sqrt_scalar(10007**2 * 10009))
    narrow = sqrt_scalar(1 + 10007 * sqrt_scalar(10009))
    assert wide - narrow == Fraction(0)
    assert sign(wide * narrow - narrow * narrow) == 0


def test_unrelated_large_radicands_still_mixed():
    with pytest.raises(MixedRadicandError):
        sqrt_scalar(10007**2 * 10009) + sqrt_scalar(10039)


@given(
    p=st.sampled_from(LARGE_PRIMES), q=st.sampled_from(LARGE_PRIMES), a=rationals, b=rationals
)
@example(p=10007, q=10009, a=Fraction(0), b=Fraction(0))
def test_radicands_differing_by_a_large_square(p, q, a, b):
    wide = a + sqrt_scalar(p * p * q)
    narrow = b + p * sqrt_scalar(q)
    assert wide - narrow == a - b
    assert narrow - wide == b - a
    assert wide * narrow == make_scalar(a * b + p * p * q, (a + b) * p, q)
    assert compare(wide, narrow) == sign(a - b)


def test_division():
    s = make_scalar(-3, 1, 10)
    assert 3 / s == make_scalar(9, 3, 10)
    assert (s / s) == Fraction(1)
    with pytest.raises(ZeroDivisionError):
        s / 0


def test_sign_spec_values():
    assert sign(make_scalar(-3, 1, 10)) == 1
    assert sign(make_scalar(-3, 1, 9)) == 0
    assert sign(make_scalar(3, -1, 10)) == -1


def test_sign_of_square_nonnegative():
    for a, b, d in [(-3, 1, 10), (2, -5, 3), (0, 1, 7), (-1, -1, 2)]:
        x = make_scalar(a, b, d)
        assert sign(x * x) >= 0
        assert sign(x) == 0 or sign(x * x) > 0


def test_tower_sqrt_and_sign():
    s11 = sqrt_scalar(11)
    u = 2 - s11
    radicand = u * u - 1  # 14 - 4*sqrt(11), not a square in Q(sqrt(11))
    w = sqrt_scalar(radicand)
    assert w * w == radicand
    assert sign(w) == 1
    t0 = -u + w
    assert sign(t0 - 1) == 1
    assert sign(t0 - 3) == -1


def test_tower_perfect_square_detected():
    s11 = sqrt_scalar(11)
    assert sqrt_scalar(15 - 4 * s11) == s11 - 2
    assert exact_sqrt(14 - 4 * s11) is None


def test_compare_across_radicands():
    # 1 < -3 + sqrt(33/2), decided by squaring
    assert compare(Fraction(1), make_scalar(-3, 1, Fraction(33, 2))) < 0
    assert compare(make_scalar(0, 1, 2), make_scalar(0, 1, 3)) < 0
    assert compare(make_scalar(0, 2, 2), make_scalar(0, 1, 8)) == 0
    assert compare(make_scalar(1, 1, 2), make_scalar(1, 1, 3)) < 0
    assert compare(make_scalar(5, -1, 2), make_scalar(5, -1, 3)) > 0


def test_comparison_operators():
    s = make_scalar(-3, 1, 10)
    assert s > 0
    assert s < 1
    assert Fraction(0) < s


@given(rationals, rationals, rationals, rationals, radicands)
def test_field_laws_in_one_extension(a1, b1, a2, b2, d):
    x = make_scalar(a1, b1, d)
    y = make_scalar(a2, b2, d)
    z = make_scalar(1, 1, d)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if sign(y) != 0:
        assert (x / y) * y == x


@given(rationals, rationals, radicands)
def test_sign_matches_float_evaluation(a, b, d):
    x = make_scalar(a, b, d)
    approx = float(a) + float(b) * math.sqrt(float(d))
    if abs(approx) > 1e-9:
        assert sign(x) == (1 if approx > 0 else -1)


@given(rationals, rationals, radicands)
def test_json_round_trip(a, b, d):
    x = make_scalar(a, b, d)
    assert scalar_from_json(scalar_to_json(x)) == x


def test_json_tower_round_trip():
    s11 = sqrt_scalar(11)
    t0 = (s11 - 2) + sqrt_scalar(14 - 4 * s11)
    doc = scalar_to_json(t0)
    assert scalar_from_json(doc) == t0


@pytest.mark.parametrize("doc", [True, False, "1/0", 1.5, None, [1], {"a": "1", "b": "1"}])
def test_json_rejects_non_scalars(doc):
    with pytest.raises((KeyError, ValueError)):
        scalar_from_json(doc)


def test_json_level_one_schema():
    doc = scalar_to_json(make_scalar(Fraction(1, 2), Fraction(-2, 3), 10))
    assert doc == {"a": "1/2", "b": "-2/3", "d": "10"}


def test_to_float():
    assert to_float(make_scalar(-3, 1, 10)) == pytest.approx(math.sqrt(10) - 3)


def test_random_sign_float_oracle_bulk():
    # the sanity oracle from the invariants: exact sign vs floating evaluation
    import random

    rng = random.Random(7)
    for _ in range(10_000):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        d = Fraction(rng.randint(0, 40))
        x = make_scalar(a, b, d)
        approx = float(a) + float(b) * math.sqrt(float(d))
        if abs(approx) > 1e-7:
            assert sign(x) == (1 if approx > 0 else -1)
        else:
            assert sign(x) == 0 or abs(approx) <= 1e-7
