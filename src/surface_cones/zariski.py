"""Zariski decomposition against a declared list of negative curves.

A curve list stands in for the (generally unknowable) set of integral
curves of negative square on the blow-up: each record carries an integral
class, its self-intersection and genus.  Decomposition follows the support
enlargement scheme: start from the curves the divisor meets negatively,
solve the orthogonality system on that support, and add every listed curve
the candidate nef part still meets negatively until the support stabilizes.
All curves with negative pairing are added per round, which makes the
output independent of list order.

Each record keeps its class's integer support and the nonzero entries of
G*C; every pairing with a listed curve, here and in the ray builder, is
``NegativeCurveRecord.dot`` over them.  A record is validated when it is
built, except a later member of an S_r-orbit that ``serialize`` read: the
image of its ``representative`` under a permutation of the E_i, it keeps
that record's checked fields and builds its class, support and G*C in one
step, at the first read of any of them (``NegativeCurveRecord._member``).
Work done once per orbit is done once per ``representative``.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .cones import ConePosition, in_positive_cone
from .errors import ModelValidationError, PreconditionError, ZariskiError
from .lattice import BlowupModel, DivisorClass, arithmetic_genus, intersect
from .lattice import _adjunction_genus, _gram_row, _pair_row
from .scalar import Exact, as_fraction


@dataclass(frozen=True)
class NegativeCurveRecord:
    """A declared integral curve class with negative self-intersection.

    ``support`` holds the ``(index, int)`` pairs of the nonzero coordinates
    of ``cls``.  The constructor computes it together with the nonzero
    entries of G*C, the Gram matrix times C, and reads C^2, C.K and the
    exceptional test from them.  :meth:`dot` pairs any class with C over them.

    A deferred member (:meth:`_member`) is the image of a validated record,
    its ``representative``, under a permutation of the E_i.  It holds its
    coordinate row and builds ``cls``, ``support`` and G*C together when any
    of them is first read; until then it equals, hashes, prints, copies and
    ``dataclasses.replace``s like the record built in full.
    """

    cls: DivisorClass
    self_int: Fraction
    genus: Fraction
    is_exceptional: bool
    support: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _gram_row: tuple[tuple[int, int | Fraction], ...] = field(
        init=False, repr=False, compare=False
    )
    # the ``_integer_form`` of ``cls`` when the caller has already computed it
    _form: InitVar[tuple | None] = None

    def __post_init__(self, _form):
        form = _integer_form(self.cls) if _form is None else _form
        if form is None:
            raise ModelValidationError("curve class must have integer coordinates", "curve")
        support, gram_row, square, c_dot_k = form
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_gram_row", gram_row)
        if square != self.self_int:
            raise ModelValidationError(
                f"declared self-intersection {self.self_int} but class squares to {square}",
                "curve.self_int",
            )
        if self.self_int > -1:
            raise ModelValidationError(
                f"self-intersection must be <= -1, got {self.self_int}", "curve.self_int"
            )
        genus = _adjunction_genus(square + c_dot_k)
        if genus != self.genus:
            raise ModelValidationError(
                f"declared genus {self.genus} but adjunction gives {genus}", "curve.genus"
            )
        if self.genus < 0:
            raise ModelValidationError(f"genus must be >= 0, got {self.genus}", "curve.genus")
        if self.is_exceptional != _is_exceptional(self.cls.model, support):
            raise ModelValidationError(
                "exceptional flag disagrees with the class coordinates", "curve.is_exceptional"
            )

    @classmethod
    def from_class(cls, divisor: DivisorClass) -> "NegativeCurveRecord":
        form = _integer_form(divisor)
        if form is None:
            if divisor.is_rational:
                # a rational class that is not integral meets the adjunction check first
                arithmetic_genus(divisor)
            raise ModelValidationError("curve class must have integer coordinates", "curve")
        support, _, square, c_dot_k = form
        return cls(
            cls=divisor,
            self_int=square,
            genus=_adjunction_genus(square + c_dot_k),
            is_exceptional=_is_exceptional(divisor.model, support),
            _form=form,
        )

    def _member(self, coords: tuple) -> "NegativeCurveRecord":
        """The deferred record of ``coords``, the image of ``cls`` under a permutation of the E_i.

        The permutation fixes K and preserves the pairing, so C^2, C.K and the
        one-1-in-the-E-block pattern, hence ``self_int``, ``genus`` and
        ``is_exceptional``, carry over unchecked.  ``coords`` are integral
        Fractions like ``cls``'s, kept as ``_coords``, which
        ``serialize._ray_certificates_to_json`` writes; the class, its support
        and G*C are built from them together, when any of them is first read.
        """
        member = object.__new__(NegativeCurveRecord)
        member.__dict__.update(
            self_int=self.self_int,
            genus=self.genus,
            is_exceptional=self.is_exceptional,
            _rep=self.representative,
            _coords=coords,
        )
        return member

    @property
    def representative(self) -> "NegativeCurveRecord":
        """The validated record a deferred member was moved from; any other record itself."""
        return self.__dict__.get("_rep", self)

    def __getattr__(self, name: str):
        """A deferred member's ``cls``, ``support`` or G*C: the first read builds all three."""
        state = self.__dict__
        if name not in ("cls", "support", "_gram_row") or "_coords" not in state:
            raise AttributeError(name)
        model, coords = state["_rep"].cls.model, state["_coords"]
        support, gram_row = _support_and_row(model, [c.numerator for c in coords])
        state.update(cls=DivisorClass(model, coords), support=support, _gram_row=gram_row)
        return state[name]

    def dot(self, x: DivisorClass) -> Exact:
        """x.C = sum_j x_j (G*C)_j; equal to ``intersect(x, self.cls)``.

        Rational coordinates of x meeting integer entries of G*C are summed
        as one integer numerator over a common denominator; any other term,
        such as a ``Scalar`` coordinate, is added in exact arithmetic.
        """
        self.cls._check_model(x)
        return _pair_row(x.coords, self._gram_row)


def _integer_form(divisor: DivisorClass) -> tuple | None:
    """(support, G*C, C^2, C.K) of an integral class; None unless every coordinate is an integer.

    Each coordinate is read once, into an int; G*C is the lattice's
    ``_gram_row`` of those ints, C^2 their sum against it and C.K the model's
    canonical class paired with it.
    """
    ints = []
    for c in divisor.coords:
        if type(c) is not Fraction:
            return None
        numerator, denominator = c.as_integer_ratio()
        if denominator != 1:
            return None
        ints.append(numerator)
    support, gram_row = _support_and_row(divisor.model, ints)
    square = Fraction(sum(ints[j] * w for j, w in gram_row))
    c_dot_k = _pair_row(divisor.model.canonical().coords, gram_row)
    return support, gram_row, square, c_dot_k


def _support_and_row(model: BlowupModel, ints: list[int]) -> tuple:
    """The nonzero ``(index, int)`` coordinates of an integral class and its ``_gram_row``."""
    return tuple((i, c) for i, c in enumerate(ints) if c), tuple(_gram_row(model, ints))


def _is_exceptional(model: BlowupModel, support) -> bool:
    """Whether the class is some E_i: a single coordinate 1, in the E-block."""
    return len(support) == 1 and support[0][0] >= model.base.rank and support[0][1] == 1


def _add_weighted_curves(
    x: DivisorClass, curves: Sequence[NegativeCurveRecord], weights: Sequence[int]
) -> DivisorClass:
    """x + sum w_i C_i, with the weighted sum accumulated in ints over the curves' supports.

    ``list_decomposition_check`` builds its samples with it.
    """
    total = [0] * len(x.coords)
    for weight, record in zip(weights, curves):
        if weight:
            for i, c in record.support:
                total[i] += weight * c
    return DivisorClass(x.model, tuple(a + t if t else a for a, t in zip(x.coords, total)))


@dataclass(frozen=True)
class ZariskiDecomposition:
    """D = P + sum a_i C_i with P orthogonal to the support and nef against the list."""

    divisor: DivisorClass
    P: DivisorClass
    coeffs: dict[int, Fraction]
    curves: tuple[NegativeCurveRecord, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def negative_part(self) -> DivisorClass:
        n = self.divisor.model.zero()
        for i, a in self.coeffs.items():
            n = n + a * self.curves[i].cls
        return n

    def check_invariants(self) -> str | None:
        """Name of the first violated invariant, or None when all hold; ``verify`` runs it too."""
        if self.P + self.negative_part() != self.divisor:
            return "decomposition_sum"
        if any(a < 0 for a in self.coeffs.values()):
            return "coefficients_nonnegative"
        pairings = [record.dot(self.P) for record in self.curves]
        if any(pairings[i] != 0 for i in self.coeffs):
            return "P_orthogonal_to_support"
        if any(as_fraction(v) < 0 for v in pairings):
            return "P_nef_against_list"
        support = self.support
        gram = [[self.curves[i].dot(self.curves[j].cls) for j in support] for i in support]
        if not linalg.is_negative_definite(gram):
            return "support_negative_definite"
        if not self.P_in_positive_cone:
            return "P_in_positive_cone"
        return None

    @property
    def P_in_positive_cone(self) -> bool:
        """The last entry of ``check_invariants``; ``ne_decompose`` raises on it alone."""
        return in_positive_cone(self.P) is not ConePosition.OUTSIDE


def zariski_decompose(
    divisor: DivisorClass, curves: Sequence[NegativeCurveRecord]
) -> ZariskiDecomposition:
    """Decompose a rational class meeting L nonnegatively against the list."""
    if not divisor.is_rational:
        raise PreconditionError("Zariski decomposition expects rational coordinates")
    if as_fraction(intersect(divisor, divisor.model.line())) < 0:
        raise PreconditionError("divisor must pair nonnegatively with L")
    for record in curves:
        if record.cls.model != divisor.model:
            raise PreconditionError("curve list belongs to a different model")

    pairings = [record.dot(divisor) for record in curves]
    support = sorted(i for i, v in enumerate(pairings) if v < 0)
    coeffs: dict[int, Fraction] = {}
    candidate = divisor
    while True:
        if support:
            gram = [[curves[i].dot(curves[j].cls) for j in support] for i in support]
            if not linalg.is_negative_definite(gram):
                raise ZariskiError("curve list violates Hodge index")
            # a negative definite Gram matrix is invertible, so this always solves
            solution = linalg.solve_linear(gram, [pairings[i] for i in support])
            coeffs = dict(zip(support, solution))
            candidate = divisor
            for i in support:
                candidate = candidate - coeffs[i] * curves[i].cls
        newly_negative = sorted(
            i
            for i in range(len(curves))
            if i not in support and curves[i].dot(candidate) < 0
        )
        if not newly_negative:
            break
        support = sorted(support + newly_negative)
    if any(a < 0 for a in coeffs.values()):
        raise ZariskiError("curve list violates Hodge index")
    coeffs = {i: a for i, a in coeffs.items() if a != 0}
    return ZariskiDecomposition(
        divisor=divisor, P=candidate, coeffs=coeffs, curves=tuple(curves)
    )


def ne_decompose(
    y: DivisorClass, curves: Sequence[NegativeCurveRecord]
) -> ZariskiDecomposition:
    """Split y into a positive-cone part plus rays of listed curves.

    Fails with a typed error when the nef part escapes the positive cone,
    which signals that the declared list cannot certify pseudoeffectivity
    of y.
    """
    decomposition = zariski_decompose(y, curves)
    if not decomposition.P_in_positive_cone:
        raise ZariskiError("list incomplete: P not in positive cone")
    return decomposition


@dataclass(frozen=True)
class DecompositionReport:
    passed: bool
    samples: int
    seed: int
    reconstruction_failures: tuple[str, ...]
    extremality_failures: tuple[str, ...]


def list_decomposition_check(
    model: BlowupModel,
    curves: Sequence[NegativeCurveRecord],
    samples: int = 100,
    seed: int = 0,
) -> DecompositionReport:
    """Sample the cone generated by the list and confirm both decomposition directions.

    Forward: random nonnegative combinations of list curves and positive-cone
    classes decompose, and each decomposition passes ``check_invariants``
    (reconstruction and P in the positive cone included).  Reverse: each
    listed curve is extremal, i.e. its own decomposition is the trivial one.

    The reverse direction is decided from the list's Gram matrix wherever it
    can be: when all records share one model, C_i.L >= 0, C_i^2 < 0 and
    C_i.C_j >= 0 for every j != i, ``zariski_decompose(C_i, curves)`` meets
    exactly C_i negatively, so its support is {i}, its coefficient
    C_i^2/C_i^2 = 1 and P = C_i - C_i = 0, which meets no curve negatively:
    the decomposition is trivial and nothing is reported.  Every other curve
    is decomposed in full, so each failure keeps its text.  In both halves a
    decomposition that raises :class:`ZariskiError` or
    :class:`PreconditionError` (a list over two models) is reported, not
    raised.
    """
    reconstruction: list[str] = []
    for k in range(samples):
        rng = random.Random(seed * 1_000_003 + k)
        x = _random_cone_element(model, rng)
        y = _add_weighted_curves(x, curves, [rng.randint(0, 10) for _ in curves])
        try:
            decomposition = zariski_decompose(y, curves)
        except (ZariskiError, PreconditionError) as exc:
            reconstruction.append(f"sample {k}: {exc}")
            continue
        violated = decomposition.check_invariants()
        if violated is not None:
            reconstruction.append(f"sample {k}: {violated}")
    trivial = _trivially_extremal(curves)
    extremality: list[str] = []
    for i, record in enumerate(curves):
        if trivial[i]:
            continue
        try:
            decomposition = zariski_decompose(record.cls, curves)
        except (ZariskiError, PreconditionError) as exc:
            extremality.append(f"curve {i}: {exc}")
            continue
        if not decomposition.P.is_zero() or decomposition.coeffs != {i: Fraction(1)}:
            extremality.append(f"curve {i}: ray decomposed nontrivially")
    return DecompositionReport(
        passed=not reconstruction and not extremality,
        samples=samples,
        seed=seed,
        reconstruction_failures=tuple(reconstruction),
        extremality_failures=tuple(extremality),
    )


def _trivially_extremal(curves: Sequence[NegativeCurveRecord]) -> list[bool]:
    """For each curve, whether its row of the Gram matrix proves its decomposition trivial.

    Row i is C_i.C_j = sum over C_i's support of c_k (G*C_j)_k, one integer
    (or, on a base with a rational ``gram_Y``, Fraction) combination of the
    columns of the records' G*C; it qualifies when its only negative entry
    is the diagonal and C_i.L >= 0 (see ``list_decomposition_check``).  A
    list whose records do not share one model gets no Gram matrix.
    """
    if not curves:
        return []
    model = curves[0].cls.model
    if any(record.cls.model != model for record in curves):
        return [False] * len(curves)
    columns = [[0] * len(curves) for _ in range(model.rank)]
    for j, record in enumerate(curves):
        for k, w in record._gram_row:
            columns[k][j] = w
    line = model.line()
    trivial = []
    for i, record in enumerate(curves):
        (k, c), *rest = record.support
        row = [c * w for w in columns[k]]
        for k, c in rest:
            row = [v + c * w for v, w in zip(row, columns[k])]
        negative = [j for j, v in enumerate(row) if v < 0]
        trivial.append(negative == [i] and record.dot(line) >= 0)
    return trivial


def _random_cone_element(model: BlowupModel, rng: random.Random) -> DivisorClass:
    """A rational class in the positive cone: random vector pushed along L."""
    line = model.line()
    coords = [Fraction(rng.randint(-2, 2)) for _ in range(model.rank)]
    x = model.divisor(coords)
    for _ in range(64):
        if in_positive_cone(x) is not ConePosition.OUTSIDE:
            return x
        x = x + line
    return line
