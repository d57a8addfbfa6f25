"""Zariski decomposition: worked instances, invariants, oracle agreement."""

import contextlib
import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    abelian_surface,
    brute_force_zariski,
    dense_intersect,
    enriques_surface,
    half_gram,
    k3_with_minus_two_curve,
    non_integral_gram,
    p2_blowup,
    p2_surface,
    standard_minus_one_records,
)
from surface_cones import cli, serialize, zariski
from surface_cones.cli import load_fixture
from surface_cones.errors import (
    AdjunctionParityError,
    ModelMismatchError,
    ModelValidationError,
    PreconditionError,
    SurfaceConesError,
    ZariskiError,
)
from surface_cones.lattice import BlowupModel, SurfaceModel, arithmetic_genus, intersect
from surface_cones.scalar import as_fraction, is_rational, sqrt_scalar
from surface_cones.zariski import (
    NegativeCurveRecord,
    list_decomposition_check,
    ne_decompose,
    zariski_decompose,
)


class TestRecordValidation:
    def test_from_class_fills_fields(self):
        x = p2_blowup(2)
        record = NegativeCurveRecord.from_class(x.exceptional(1))
        assert record.self_int == -1 and record.genus == 0 and record.is_exceptional

    def test_nonnegative_square_rejected(self):
        x = p2_blowup(2)
        with pytest.raises(ModelValidationError):
            NegativeCurveRecord.from_class(x.line())

    def test_declared_fields_checked(self):
        x = p2_blowup(2)
        with pytest.raises(ModelValidationError):
            NegativeCurveRecord(
                cls=x.exceptional(1), self_int=Fraction(-2), genus=Fraction(0), is_exceptional=True
            )

    def test_negative_genus_rejected(self):
        x = p2_blowup(2)
        doubled = 2 * x.exceptional(1)
        with pytest.raises(ModelValidationError):
            NegativeCurveRecord.from_class(doubled)

    def test_exceptional_flag_checked(self):
        x = p2_blowup(2)
        with pytest.raises(ModelValidationError):
            NegativeCurveRecord(
                cls=x.exceptional(1), self_int=Fraction(-1), genus=Fraction(0), is_exceptional=False
            )


def reference_record_check(cls, self_int, genus, is_exceptional) -> tuple:
    """The record validation before integer supports, on dense pairings and dense adjunction."""
    coords = cls.coords
    if not all(isinstance(c, Fraction) and c.denominator == 1 for c in coords):
        raise ModelValidationError("curve class must have integer coordinates", "curve")
    square = as_fraction(dense_intersect(cls, cls))
    if square != self_int:
        raise ModelValidationError(
            f"declared self-intersection {self_int} but class squares to {square}",
            "curve.self_int",
        )
    if self_int > -1:
        raise ModelValidationError(
            f"self-intersection must be <= -1, got {self_int}", "curve.self_int"
        )
    adjunction = reference_genus(cls)
    if adjunction != genus:
        raise ModelValidationError(
            f"declared genus {genus} but adjunction gives {adjunction}", "curve.genus"
        )
    if genus < 0:
        raise ModelValidationError(f"genus must be >= 0, got {genus}", "curve.genus")
    if is_exceptional != reference_is_exceptional(cls):
        raise ModelValidationError(
            "exceptional flag disagrees with the class coordinates", "curve.is_exceptional"
        )
    return self_int, genus, is_exceptional


def reference_is_exceptional(divisor) -> bool:
    m = divisor.model.base.rank
    if any(c != 0 for c in divisor.coords[:m]):
        return False
    ones = [c for c in divisor.coords[m:] if c != 0]
    return len(ones) == 1 and ones[0] == 1


def reference_genus(divisor) -> Fraction:
    """1 + (C^2 + C.K)/2 from dense pairings; C^2 + C.K must be an even integer."""
    value = as_fraction(
        dense_intersect(divisor, divisor) + dense_intersect(divisor, divisor.model.canonical())
    )
    if value.denominator != 1 or value.numerator % 2 != 0:
        raise AdjunctionParityError(f"non-integral class for adjunction: C^2 + C.K = {value}")
    return 1 + value / 2


def reference_from_class(divisor) -> tuple:
    return reference_record_check(
        divisor,
        as_fraction(dense_intersect(divisor, divisor)),
        reference_genus(divisor),
        reference_is_exceptional(divisor),
    )


def outcome(build):
    """The record's fields, or the exception's class, field and message."""
    try:
        result = build()
    except (ModelValidationError, AdjunctionParityError) as exc:
        return type(exc), getattr(exc, "field", None), str(exc)
    if isinstance(result, NegativeCurveRecord):
        return result.self_int, result.genus, result.is_exceptional
    return result


RECORD_MODELS = [
    BlowupModel(base(), 4)
    for base in (p2_surface, k3_with_minus_two_curve, abelian_surface, enriques_surface,
                 non_integral_gram)
]


@functools.cache
def small_records(model) -> list[NegativeCurveRecord]:
    """Every valid record whose class has coordinates in {-1, 0, 1}."""
    records = []
    for coords in itertools.product((-1, 0, 1), repeat=model.rank):
        with contextlib.suppress(ModelValidationError, AdjunctionParityError):
            records.append(NegativeCurveRecord.from_class(model.divisor(coords)))
    return records


class TestIntegerRecordDifferential:
    """Records built from integer supports against the dense reference."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_construction_matches_reference(self, data):
        model = data.draw(st.sampled_from(RECORD_MODELS))
        coordinate = st.one_of(st.just(0), st.integers(-3, 3))
        coords = data.draw(st.lists(coordinate, min_size=model.rank, max_size=model.rank))
        cls = model.divisor(coords)
        assert outcome(lambda: NegativeCurveRecord.from_class(cls)) == outcome(
            lambda: reference_from_class(cls)
        )
        square = intersect(cls, cls)
        # the true square and genus half of the time, so that both outcomes occur
        self_int = data.draw(st.one_of(st.just(square), st.integers(-2, 0).map(Fraction)))
        genus = data.draw(st.integers(-1, 2).map(Fraction))
        try:
            genus = data.draw(st.one_of(st.just(arithmetic_genus(cls)), st.just(genus)))
        except AdjunctionParityError:
            pass
        flag = data.draw(st.booleans())
        assert outcome(lambda: NegativeCurveRecord(cls, self_int, genus, flag)) == outcome(
            lambda: reference_record_check(cls, self_int, genus, flag)
        )
        with contextlib.suppress(ModelValidationError, AdjunctionParityError):
            record = NegativeCurveRecord.from_class(cls)
            assert record.support == tuple((i, c) for i, c in enumerate(coords) if c)

    @pytest.mark.parametrize(
        "model, coords, expected",
        [
            (RECORD_MODELS[0], [0, 0, 1, 0, 0], (-1, 0, True)),
            (RECORD_MODELS[0], [1, 0, 0, 0, 0], (ModelValidationError, "curve.self_int")),
            (RECORD_MODELS[0], [1, -1, -1, 0, 0], (-1, 0, False)),
            (RECORD_MODELS[1], [0, 1, 0, 0, 0, 0], (-2, 0, False)),  # not exceptional
            (RECORD_MODELS[2], [1, -1, 0, 0, 0, 1], (ModelValidationError, "curve.genus")),
            (RECORD_MODELS[4], [1, 1, 0, 0, 0, 0], (AdjunctionParityError, None)),
        ],
    )
    def test_named_classes(self, model, coords, expected):
        cls = model.divisor(coords)
        assert outcome(lambda: NegativeCurveRecord.from_class(cls))[: len(expected)] == expected
        assert outcome(lambda: reference_from_class(cls))[: len(expected)] == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_dot_matches_intersect(self, data):
        model = data.draw(st.sampled_from(RECORD_MODELS))
        record = data.draw(st.sampled_from(small_records(model)))
        depth = data.draw(st.sampled_from([0, 1, 2]))
        units = [Fraction(1), sqrt_scalar(2), sqrt_scalar(3 + sqrt_scalar(2))][: depth + 1]
        rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        coords = []
        for _ in range(model.rank):
            parts = data.draw(st.lists(rationals, min_size=len(units), max_size=len(units)))
            value = Fraction(0)
            for part, unit in zip(parts, units):
                value = value + part * unit
            coords.append(value)
        x = model.divisor(coords)
        value = record.dot(x)
        assert value == intersect(x, record.cls) == dense_intersect(x, record.cls)
        assert is_rational(value) == is_rational(dense_intersect(x, record.cls))

    def test_dot_rejects_another_model(self):
        record = NegativeCurveRecord.from_class(p2_blowup(2).exceptional(1))
        with pytest.raises(ModelMismatchError):
            record.dot(p2_blowup(3).line())


class TestSinglePassRecord:
    """``from_class`` hands the integer form it computed to the constructor."""

    def test_from_class_computes_the_integer_form_once(self, monkeypatch):
        calls = []
        original = zariski._integer_form

        def counting(divisor):
            calls.append(divisor)
            return original(divisor)

        monkeypatch.setattr(zariski, "_integer_form", counting)
        model = p2_blowup(12)
        classes = [model.exceptional(1), model.line() - model.exceptional(1) - model.exceptional(2)]
        for cls in classes:
            NegativeCurveRecord.from_class(cls)
        assert calls == classes
        # a declared record computes it itself, once
        NegativeCurveRecord(classes[0], Fraction(-1), Fraction(0), True)
        assert calls == classes + classes[:1]

    @pytest.mark.parametrize(
        "name", ["p2_r10", "p2_r12", "k3_generic", "p2_r17", "half_gram_r6"]
    )
    def test_matches_declared_records(self, name):
        if name == "half_gram_r6":
            _, records = half_gram(6)
            classes = [record.cls for record in records]
        else:
            doc = load_fixture(name)
            model = serialize.blowup_from_json(doc)
            classes = [
                serialize.divisor_from_json(model, c["coords"], "coords") for c in doc["curves"]
            ]
        for cls in classes:
            built = NegativeCurveRecord.from_class(cls)
            declared = NegativeCurveRecord(cls, built.self_int, built.genus, built.is_exceptional)
            assert built == declared
            assert (built.support, built._gram_row) == (declared.support, declared._gram_row)


class TestWorkedExamples:
    def test_h_plus_e1(self):
        x = p2_blowup(1)
        curves = [NegativeCurveRecord.from_class(x.exceptional(1))]
        divisor = x.pullback([1]) + x.exceptional(1)
        decomposition = zariski_decompose(divisor, curves)
        assert decomposition.P == x.pullback([1])
        assert decomposition.coeffs == {0: Fraction(1)}

    def test_nef_divisor_untouched(self):
        x = p2_blowup(1)
        curves = [NegativeCurveRecord.from_class(x.exceptional(1))]
        decomposition = zariski_decompose(x.line(), curves)
        assert decomposition.P == x.line() and decomposition.coeffs == {}

    def test_pure_exceptional(self):
        x = p2_blowup(1)
        curves = [NegativeCurveRecord.from_class(x.exceptional(1))]
        decomposition = zariski_decompose(x.exceptional(1), curves)
        assert decomposition.P.is_zero()
        assert decomposition.coeffs == {0: Fraction(1)}

    def test_ne_decompose_nef_example(self):
        # the class H - E_1 has square 0 on Bl_1, so the smallest model where a
        # line-type record is a genuine negative curve is Bl_2
        x = p2_blowup(2)
        curves = [
            NegativeCurveRecord.from_class(x.exceptional(1)),
            NegativeCurveRecord.from_class(
                x.pullback([1]) - x.exceptional(1) - x.exceptional(2)
            ),
        ]
        y = 2 * x.pullback([1]) - x.exceptional(1)
        decomposition = ne_decompose(y, curves)
        assert decomposition.coeffs == {}
        assert as_fraction(intersect(decomposition.P, decomposition.P)) >= 0

    def test_record_with_nonnegative_square_rejected_at_construction(self):
        x = p2_blowup(1)
        with pytest.raises(ModelValidationError):
            NegativeCurveRecord.from_class(x.pullback([1]) - x.exceptional(1))

    def test_ne_decompose_requires_l_nonnegative(self):
        x = p2_blowup(1)
        with pytest.raises(PreconditionError):
            ne_decompose(-x.line(), [NegativeCurveRecord.from_class(x.exceptional(1))])

    def test_incomplete_list_detected(self):
        # E_1 - 2E_2 decomposes against {E_1} with P = -2E_2 outside the cone
        x = p2_blowup(2)
        curves = [NegativeCurveRecord.from_class(x.exceptional(1))]
        y = x.exceptional(1) - 2 * x.exceptional(2)
        with pytest.raises(ZariskiError) as info:
            ne_decompose(y, curves)
        assert "list incomplete" in str(info.value)

    def test_support_enlargement_needed(self):
        # D = 3H - 3E_1: meets E_1 nonnegatively... use D = H - 2E_1 instead:
        # D.E_1 = 2 < 0 wait, D.E_1 = -(-2) = 2 >= 0; take D = 2H + E_1 - not it.
        # Proper chained instance: D = 4H - 3E_1 + E_2 on Bl_2.
        x = p2_blowup(2)
        h = x.pullback([1])
        e1, e2 = x.exceptional(1), x.exceptional(2)
        curves = [
            NegativeCurveRecord.from_class(e1),
            NegativeCurveRecord.from_class(e2),
            NegativeCurveRecord.from_class(h - e1 - e2),
        ]
        divisor = 4 * h - 3 * e1 + e2
        decomposition = zariski_decompose(divisor, curves)
        assert decomposition.check_invariants() is None
        assert set(decomposition.support) >= {1}

    def test_idempotence(self):
        x = p2_blowup(3)
        curves = standard_minus_one_records(x)
        divisor = 5 * x.pullback([1]) - 4 * x.exceptional(1) - x.exceptional(2)
        decomposition = zariski_decompose(divisor, curves)
        again = zariski_decompose(decomposition.P, curves)
        assert again.P == decomposition.P and again.coeffs == {}


class TestInvariants:
    def test_p_dot_n_zero_and_nonneg_coeffs(self):
        x = p2_blowup(3)
        curves = standard_minus_one_records(x)
        rng = random.Random(1)
        for _ in range(50):
            coords = [Fraction(rng.randint(0, 6))] + [
                Fraction(rng.randint(-3, 3)) for _ in range(3)
            ]
            divisor = x.divisor(coords)
            if as_fraction(intersect(divisor, x.line())) < 0:
                continue
            try:
                decomposition = zariski_decompose(divisor, curves)
            except ZariskiError:
                continue
            assert intersect(decomposition.P, decomposition.negative_part()) == 0
            assert all(a >= 0 for a in decomposition.coeffs.values())
            for record in curves:
                assert as_fraction(intersect(decomposition.P, record.cls)) >= 0

    def test_oracle_agreement_small_instances(self):
        rng = random.Random(3)
        for trial in range(60):
            r = rng.randint(1, 4)
            model = p2_blowup(r)
            pool = standard_minus_one_records(model)
            rng.shuffle(pool)
            curves = pool[: rng.randint(1, min(3, len(pool)))]
            divisor = Fraction(rng.randint(0, 3)) * model.line()
            for record in curves:
                divisor = divisor + Fraction(rng.randint(0, 4)) * record.cls
            decomposition = zariski_decompose(divisor, curves)
            oracle_p, oracle_coeffs = brute_force_zariski(divisor, curves)
            assert decomposition.P == oracle_p
            assert decomposition.coeffs == oracle_coeffs


class TestListDecompositionCheck:
    def test_standard_classes_pass(self):
        model = p2_blowup(2)
        report = list_decomposition_check(model, standard_minus_one_records(model), samples=100, seed=0)
        assert report.passed, (report.reconstruction_failures, report.extremality_failures)

    def test_empty_list_samples_stay_in_cone(self):
        model = p2_blowup(2)
        report = list_decomposition_check(model, [], samples=50, seed=1)
        assert report.passed

    def test_deterministic_given_seed(self):
        model = p2_blowup(3)
        curves = standard_minus_one_records(model)
        a = list_decomposition_check(model, curves, samples=30, seed=5)
        b = list_decomposition_check(model, curves, samples=30, seed=5)
        assert a == b

    def test_sample_outside_the_cone_names_p_in_positive_cone(self, monkeypatch):
        # L - 3E_1 meets L positively but has square -8; with no curves P is the sample
        model = p2_blowup(10)
        outside = model.line() - 3 * model.exceptional(1)
        monkeypatch.setattr(zariski, "_random_cone_element", lambda model, rng: outside)
        report = list_decomposition_check(model, [], samples=3, seed=0)
        assert not report.passed
        assert report.reconstruction_failures == tuple(
            f"sample {k}: P_in_positive_cone" for k in range(3)
        )

    def test_wrong_sum_names_decomposition_sum(self, monkeypatch):
        model = p2_blowup(10)
        original = zariski.zariski_decompose

        def shifted(divisor, curves):
            decomposition = original(divisor, curves)
            return dataclasses.replace(decomposition, P=decomposition.P + model.line())

        monkeypatch.setattr(zariski, "zariski_decompose", shifted)
        report = list_decomposition_check(model, [], samples=2, seed=0)
        assert report.reconstruction_failures == tuple(
            f"sample {k}: decomposition_sum" for k in range(2)
        )


def reference_list_check(model, curves, samples, seed):
    """``list_decomposition_check`` as it was before the Gram rows: every curve decomposed."""
    reconstruction = []
    for k in range(samples):
        rng = random.Random(seed * 1_000_003 + k)
        x = zariski._random_cone_element(model, rng)
        y = zariski._add_weighted_curves(x, curves, [rng.randint(0, 10) for _ in curves])
        try:
            decomposition = zariski_decompose(y, curves)
        except (ZariskiError, PreconditionError) as exc:
            reconstruction.append(f"sample {k}: {exc}")
            continue
        violated = decomposition.check_invariants()
        if violated is not None:
            reconstruction.append(f"sample {k}: {violated}")
    extremality = []
    for i, record in enumerate(curves):
        try:
            decomposition = zariski_decompose(record.cls, curves)
        except (ZariskiError, PreconditionError) as exc:
            extremality.append(f"curve {i}: {exc}")
            continue
        if not decomposition.P.is_zero() or decomposition.coeffs != {i: Fraction(1)}:
            extremality.append(f"curve {i}: ray decomposed nontrivially")
    return zariski.DecompositionReport(
        passed=not reconstruction and not extremality,
        samples=samples,
        seed=seed,
        reconstruction_failures=tuple(reconstruction),
        extremality_failures=tuple(extremality),
    )


def check_outcome(check, model, curves, samples, seed):
    """The report, or the class and message of what the check raised."""
    try:
        return check(model, curves, samples, seed)
    except SurfaceConesError as exc:
        return type(exc), str(exc)


def negative_pair_list():
    """On p2_r10: E_1, E_2, L - E_1 - E_2 - E_3 and L - E_1 - E_2; the last two pair to -1."""
    model = p2_blowup(10)
    e, line = model.exceptional, model.line()
    classes = [e(1), e(2), line - e(1) - e(2) - e(3), line - e(1) - e(2)]
    return model, [NegativeCurveRecord.from_class(c) for c in classes]


def duplicated_list():
    model = p2_blowup(10)
    classes = [model.exceptional(i) for i in (1, 2, 3, 2)]
    return model, [NegativeCurveRecord.from_class(c) for c in classes]


def mixed_model_list():
    """E_1 and E_2 on p2_r3, and E_3 on a plane of the same rank with a_Y = 1/2."""
    model = p2_blowup(3)
    other = BlowupModel(dataclasses.replace(p2_surface(), a_Y=(Fraction(1, 2),)), 3)
    classes = [model.exceptional(1), model.exceptional(2), other.exceptional(3)]
    return model, [NegativeCurveRecord.from_class(c) for c in classes]


def negative_l_list():
    """On P1xP1 blown up at 9 points: E_1 - E_2, and K_X, a (-1)-class with C.L = -4.

    The two pair to 0, so only the row of K_X fails, on C.L < 0.
    """
    surface = SurfaceModel(chi=1, kY_sq=8, gram_Y=((0, 1), (1, 0)), k_Y=(-2, -2), a_Y=(1, 1))
    model = BlowupModel(surface, 9)
    classes = [model.exceptional(1) - model.exceptional(2), model.canonical()]
    return model, [NegativeCurveRecord.from_class(c) for c in classes]


def fixture_list(name):
    def build():
        parsed = cli._parse(load_fixture(name), ())
        return parsed.model, parsed.curves

    return build


FIXTURES = ("abelian", "enriques", "k3_generic", "p2_r1", "p2_r9", "p2_r10", "p2_r11", "p2_r12",
            "p2_r17")

LIST_CASES = {
    **{name: fixture_list(name) for name in FIXTURES},
    "negative_pair": negative_pair_list,
    "duplicated": duplicated_list,
    "mixed_model": mixed_model_list,
    "negative_l": negative_l_list,
    "half_gram": lambda: half_gram(6),
}


class TestExtremalityFromTheGram:
    """``list_decomposition_check`` against the loop that decomposed every listed curve."""

    @pytest.mark.parametrize("case", sorted(LIST_CASES))
    def test_matches_the_decomposition_loop(self, case):
        model, curves = LIST_CASES[case]()
        rng = random.Random(case)
        for trial in range(3):
            # the whole list first, then shuffled sublists
            drawn = list(curves) if trial == 0 else rng.sample(curves, rng.randint(1, len(curves)))
            samples, seed = rng.randint(0, 2), rng.randrange(1 << 20)
            expected = check_outcome(reference_list_check, model, drawn, samples, seed)
            actual = check_outcome(list_decomposition_check, model, drawn, samples, seed)
            assert actual == expected

    @pytest.mark.parametrize(
        "case, decomposed, failures",
        [
            ("p2_r17", [], ()),
            ("half_gram", [], ()),
            # the two curves pairing to -1 fail the row test, yet each decomposes trivially:
            # only the samples see this list fail
            ("negative_pair", [2, 3], ()),
            ("duplicated", [1, 3], ("curve 1: curve list violates Hodge index",
                                    "curve 3: curve list violates Hodge index")),
            ("negative_l", [1], ("curve 1: divisor must pair nonnegatively with L",)),
            ("mixed_model", [0, 1, 2], tuple(
                f"curve {i}: curve list belongs to a different model" for i in range(3)
            )),
        ],
    )
    def test_only_failing_rows_are_decomposed(self, monkeypatch, case, decomposed, failures):
        model, curves = LIST_CASES[case]()
        calls = []
        original = zariski.zariski_decompose

        def counting(divisor, listed):
            calls.append(next(i for i, record in enumerate(curves) if record.cls is divisor))
            return original(divisor, listed)

        monkeypatch.setattr(zariski, "zariski_decompose", counting)
        report = list_decomposition_check(model, curves, samples=0, seed=0)
        assert calls == decomposed
        assert report.extremality_failures == failures

    @pytest.mark.parametrize("samples", [0, 3])
    def test_mixed_model_list_is_reported(self, samples):
        # every decomposition over a list of two models fails its precondition; neither
        # half of the check raises, so the list fails the same way with or without samples
        model, curves = mixed_model_list()
        report = list_decomposition_check(model, curves, samples=samples, seed=0)
        text = "curve list belongs to a different model"
        assert not report.passed
        assert report.reconstruction_failures == tuple(
            f"sample {k}: {text}" for k in range(samples)
        )
        assert report.extremality_failures == tuple(f"curve {i}: {text}" for i in range(3))
