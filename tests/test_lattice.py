"""Surface and blow-up models: validation, pairing, adjunction, Riemann-Roch."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import (
    abelian_surface,
    dense_intersect,
    enriques_surface,
    k3_surface,
    k3_with_minus_two_curve,
    non_integral_gram,
    p2_blowup,
    p2_surface,
)
from surface_cones.errors import (
    AdjunctionParityError,
    MixedRadicandError,
    ModelMismatchError,
    ModelValidationError,
    PreconditionError,
)
from surface_cones.lattice import (
    BlowupModel,
    SurfaceModel,
    arithmetic_genus,
    intersect,
)
from surface_cones.scalar import make_scalar, sqrt_scalar
from surface_cones.serialize import blowup_from_json, blowup_to_json

small_ints = st.integers(min_value=-4, max_value=4)

SQRT2 = sqrt_scalar(2)
TOWER_TOP = sqrt_scalar(3 + SQRT2)  # depth 2, over Q(sqrt 2)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
tower_coords = st.one_of(
    st.just(Fraction(0)),
    small_fractions,
    st.builds(lambda a, b: a + b * SQRT2, small_fractions, small_fractions),
    st.builds(
        lambda a, b, c: a + b * SQRT2 + c * TOWER_TOP,
        small_fractions, small_fractions, small_fractions,
    ),
)
pairing_models = st.one_of(
    st.builds(p2_blowup, st.integers(min_value=0, max_value=6)),
    st.builds(BlowupModel, st.just(abelian_surface()), st.integers(min_value=0, max_value=3)),
    st.builds(BlowupModel, st.just(enriques_surface()), st.integers(min_value=0, max_value=3)),
    st.builds(
        BlowupModel, st.just(k3_with_minus_two_curve()), st.integers(min_value=0, max_value=3)
    ),
    st.builds(BlowupModel, st.just(non_integral_gram()), st.integers(min_value=0, max_value=3)),
)


@st.composite
def divisor_pairs(draw):
    model = draw(pairing_models)
    coords = st.lists(tower_coords, min_size=model.rank, max_size=model.rank)
    return model.divisor(draw(coords)), model.divisor(draw(coords))


class TestModelValidation:
    def test_non_symmetric_gram_rejected(self):
        with pytest.raises(ModelValidationError) as info:
            SurfaceModel(chi=1, kY_sq=0, gram_Y=((1, 2), (0, -1)), k_Y=(0, 0), a_Y=(1, 0))
        assert "gram_Y[0][1]" in str(info.value)

    def test_wrong_signature_rejected(self):
        with pytest.raises(ModelValidationError):
            SurfaceModel(chi=1, kY_sq=0, gram_Y=((1, 0), (0, 1)), k_Y=(0, 0), a_Y=(1, 0))

    def test_degenerate_gram_rejected(self):
        with pytest.raises(ModelValidationError):
            SurfaceModel(chi=1, kY_sq=0, gram_Y=((0, 0), (0, 0)), k_Y=(0, 0), a_Y=(1, 0))

    def test_k_square_consistency(self):
        with pytest.raises(ModelValidationError):
            SurfaceModel(chi=1, kY_sq=8, gram_Y=((1,),), k_Y=(-3,), a_Y=(1,))

    def test_ample_square_positive(self):
        with pytest.raises(ModelValidationError):
            SurfaceModel(chi=1, kY_sq=0, gram_Y=((0, 1), (1, 0)), k_Y=(0, 0), a_Y=(1, -1))

    def test_k3_requires_trivial_canonical(self):
        with pytest.raises(ModelValidationError):
            SurfaceModel(chi=2, kY_sq=1, gram_Y=((1,),), k_Y=(1,), a_Y=(1,), kind="K3")

    def test_chi_consistency(self):
        with pytest.raises(ModelValidationError):
            SurfaceModel(
                chi=2, kY_sq=9, gram_Y=((1,),), k_Y=(-3,), a_Y=(1,), pg=0, irregularity=0
            )

    def test_parity_violation_rejected(self):
        with pytest.raises(ModelValidationError) as info:
            SurfaceModel(chi=1, kY_sq=4, gram_Y=((1,),), k_Y=(2,), a_Y=(1,))
        assert "parity" in str(info.value)

    def test_parity_pairs_with_gram_times_k(self):
        # e_0.K_Y is (gram_Y k_Y)_0 = 2, not k_Y[0] = 1, so e_0^2 + e_0.K_Y = 3 is odd
        with pytest.raises(ModelValidationError) as info:
            SurfaceModel(chi=1, kY_sq=2, gram_Y=((1, 1), (1, -1)), k_Y=(1, 1), a_Y=(1, 0))
        assert info.value.field == "k_Y"
        assert "e_0^2 + e_0.K_Y = 3" in str(info.value)

    def test_bool_entry_rejected(self):
        with pytest.raises(ModelValidationError) as info:
            SurfaceModel(chi=1, kY_sq=9, gram_Y=((True,),), k_Y=(-3,), a_Y=(1,))
        assert "gram_Y[0][0]" in str(info.value)

    def test_negative_r_rejected(self):
        with pytest.raises(ModelValidationError):
            BlowupModel(p2_surface(), -1)

    def test_all_fixture_surfaces_construct(self):
        for surface in (p2_surface(), k3_surface(), abelian_surface(), enriques_surface()):
            assert surface.rank >= 1


class TestIntersection:
    def test_canonical_square_drops_with_r(self):
        assert intersect(p2_blowup(10).canonical(), p2_blowup(10).canonical()) == Fraction(-1)
        assert intersect(p2_blowup(0).canonical(), p2_blowup(0).canonical()) == Fraction(9)

    def test_exceptional_block_orthogonal(self):
        x = p2_blowup(3)
        assert intersect(x.exceptional(1), x.exceptional(2)) == 0
        assert intersect(x.exceptional(1), x.exceptional(1)) == -1
        assert intersect(x.line(), x.exceptional(2)) == 0

    def test_pullback_preserves_base_numbers(self):
        for model in (p2_blowup(5), BlowupModel(abelian_surface(), 3)):
            line = model.line()
            k = model.canonical()
            assert intersect(line, line) == model.base.a_sq
            assert intersect(line, k) == model.base.a_dot_k
            assert intersect(k, k) == model.base.kY_sq - model.r

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatchError):
            intersect(p2_blowup(1).line(), p2_blowup(2).line())

    @given(divisor_pairs())
    def test_sparse_kernel_matches_dense_reference(self, pair):
        x, y = pair
        assert intersect(x, y) == dense_intersect(x, y)
        assert intersect(x, x) == dense_intersect(x, x)

    @given(divisor_pairs(), small_fractions)
    def test_vector_ops_match_coordinatewise(self, pair, a):
        x, y = pair
        assert (x + y).coords == tuple(u + v for u, v in zip(x.coords, y.coords))
        assert (x - y).coords == tuple(u - v for u, v in zip(x.coords, y.coords))
        assert (a * x).coords == tuple(a * u for u in x.coords)
        assert ((1 + SQRT2) * x).coords == tuple((1 + SQRT2) * u for u in x.coords)

    def test_equal_models_parsed_separately_pair(self):
        doc = blowup_to_json(BlowupModel(enriques_surface(), 2))
        first, second = blowup_from_json(doc), blowup_from_json(doc)
        assert first is not second and first == second
        assert intersect(first.line(), second.line()) == 2
        assert (first.line() - second.exceptional(1)).model == first

    def test_unequal_models_with_same_rank_mismatch(self):
        with pytest.raises(ModelMismatchError):
            intersect(BlowupModel(abelian_surface(), 1).line(),
                      BlowupModel(enriques_surface(), 1).line())

    def test_mixed_towers_rejected(self):
        with pytest.raises(MixedRadicandError):
            p2_blowup(1).divisor([make_scalar(1, 1, 2), make_scalar(1, 1, 3)])

    @given(st.lists(small_ints, min_size=4, max_size=4),
           st.lists(small_ints, min_size=4, max_size=4),
           st.lists(small_ints, min_size=4, max_size=4),
           small_ints, small_ints)
    def test_bilinear_symmetric(self, xs, ys, zs, a, b):
        model = p2_blowup(3)
        x, y, z = model.divisor(xs), model.divisor(ys), model.divisor(zs)
        assert intersect(x, y) == intersect(y, x)
        assert intersect(a * x + b * y, z) == a * intersect(x, z) + b * intersect(y, z)


class TestAdjunctionAndRiemannRoch:
    def test_exceptional_genus_zero(self):
        assert arithmetic_genus(p2_blowup(4).exceptional(2)) == 0

    def test_line_through_two_points(self):
        x = p2_blowup(2)
        c = x.pullback([1]) - x.exceptional(1) - x.exceptional(2)
        assert arithmetic_genus(c) == 0

    def test_strict_transform_of_elliptic_curve_on_abelian(self):
        x = BlowupModel(abelian_surface(), 1)
        # fibre class (1, 0) has square 0 and pairs to 0 with K_Y = 0
        c = x.pullback([1, 0]) - x.exceptional(1)
        assert intersect(c, c) == -1
        assert arithmetic_genus(c) == 1

    def test_parity_error(self):
        x = p2_blowup(1)
        with pytest.raises(AdjunctionParityError):
            arithmetic_genus(x.divisor([Fraction(1, 2), 0]))

    def test_enriques_elliptic_strict_transform(self):
        x = BlowupModel(enriques_surface(), 1)
        c = x.pullback([1, 0]) - x.exceptional(1)
        assert intersect(c, c) == -1
        assert intersect(c, x.canonical()) == 1

    @given(st.lists(small_ints, min_size=5, max_size=5))
    def test_adjunction_parity_for_integer_classes(self, coords):
        model = p2_blowup(4)
        c = model.divisor(coords)
        value = intersect(c, c) + intersect(c, model.canonical())
        assert value.denominator == 1 and value.numerator % 2 == 0


class TestBuilders:
    def test_canonical_coordinates(self):
        assert p2_blowup(2).canonical().coords == (Fraction(-3), Fraction(1), Fraction(1))

    def test_ample_h_uniform_delta(self):
        x = p2_blowup(1)
        assert x.ample_h(Fraction(1, 4)).coords == (Fraction(1), Fraction(-1, 4))
        with pytest.raises(PreconditionError):
            x.ample_h(0)

    def test_pullback_orthogonal_to_delta_part(self):
        x = p2_blowup(6)
        assert intersect(x.line(), x.ample_h(Fraction(1, 100))) == x.base.a_sq

    def test_exceptional_bounds(self):
        with pytest.raises(PreconditionError):
            p2_blowup(2).exceptional(3)
        with pytest.raises(PreconditionError):
            p2_blowup(2).exceptional(0)
