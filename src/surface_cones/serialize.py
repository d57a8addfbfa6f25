"""JSON interchange for models, decompositions and certificates, plus the verifier.

Every certificate document embeds the surface data it was computed on, so
re-checking needs no context beyond the file: the verifier rebuilds the
model, re-derives each stored invariant from the serialized fields alone
and names the first violation.  Documents carry a ``kind`` tag used for
dispatch.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .errors import CertificateError, ModelValidationError
from .lattice import BlowupModel, DivisorClass, SurfaceModel
from .scalar import compare, scalar_from_json, scalar_to_json
from .strict_inclusion import (
    StrictInclusionWitness,
    WitnessConstruction,
    alpha_checks,
    gamma_checks,
)
from .thresholds import RayContainmentCert, first_failing, ray_checks
from .zariski import NegativeCurveRecord, ZariskiDecomposition

RAY_KIND = "ray_containment"
ZARISKI_KIND = "zariski_decomposition"
STRICT_KIND = "strict_inclusion"


def _number_to_json(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


def _number_from_json(doc, field: str) -> Fraction:
    if isinstance(doc, bool) or not isinstance(doc, (int, str)):
        raise ModelValidationError(f"expected a rational number, got {doc!r}", field)
    try:
        return Fraction(doc)
    except (ValueError, ZeroDivisionError):
        raise ModelValidationError(f"not a rational number: {doc!r}", field)


def _int_from_json(doc, field: str, minimum: int | None = None) -> int:
    """A JSON integer that is not a bool, at least ``minimum`` when one is given."""
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise ModelValidationError(f"must be an integer, got {doc!r}", field)
    if minimum is not None and doc < minimum:
        raise ModelValidationError(f"must be at least {minimum}, got {doc}", field)
    return doc


def surface_to_json(surface: SurfaceModel) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "chi": _number_to_json(surface.chi),
        "kY_sq": _number_to_json(surface.kY_sq),
        "gram_Y": [[_number_to_json(v) for v in row] for row in surface.gram_Y],
        "k_Y": [_number_to_json(v) for v in surface.k_Y],
        "a_Y": [_number_to_json(v) for v in surface.a_Y],
        "class": surface.kind.value,
    }
    if surface.pg is not None:
        doc["pg"] = _number_to_json(surface.pg)
    if surface.irregularity is not None:
        doc["q"] = _number_to_json(surface.irregularity)
    return doc


def surface_from_json(doc) -> SurfaceModel:
    if not isinstance(doc, dict):
        raise ModelValidationError("surface description must be an object", "surface")
    for key in ("chi", "kY_sq", "gram_Y", "k_Y", "a_Y"):
        if key not in doc:
            raise ModelValidationError("missing required field", key)
    gram = doc["gram_Y"]
    if not isinstance(gram, list) or not all(isinstance(row, list) for row in gram):
        raise ModelValidationError("must be a matrix (list of rows)", "gram_Y")
    return SurfaceModel(
        chi=_number_from_json(doc["chi"], "chi"),
        kY_sq=_number_from_json(doc["kY_sq"], "kY_sq"),
        gram_Y=tuple(
            tuple(_number_from_json(v, f"gram_Y[{i}][{j}]") for j, v in enumerate(row))
            for i, row in enumerate(gram)
        ),
        k_Y=tuple(_number_from_json(v, f"k_Y[{i}]") for i, v in enumerate(doc["k_Y"])),
        a_Y=tuple(_number_from_json(v, f"a_Y[{i}]") for i, v in enumerate(doc["a_Y"])),
        kind=doc.get("class", "Other"),
        pg=_number_from_json(doc["pg"], "pg") if "pg" in doc else None,
        irregularity=_number_from_json(doc["q"], "q") if "q" in doc else None,
    )


def blowup_from_json(doc) -> BlowupModel:
    if not isinstance(doc, dict):
        raise ModelValidationError("blow-up description must be an object", "input")
    if "r" not in doc:
        raise ModelValidationError("missing required field", "r")
    surface_doc = doc.get("surface", doc)
    return BlowupModel(base=surface_from_json(surface_doc), r=_int_from_json(doc["r"], "r"))


def blowup_to_json(model: BlowupModel) -> dict[str, Any]:
    return {"surface": surface_to_json(model.base), "r": model.r}


def divisor_to_json(divisor: DivisorClass) -> list:
    return [scalar_to_json(c) for c in divisor.coords]


def divisor_from_json(model: BlowupModel, doc, field: str) -> DivisorClass:
    if not isinstance(doc, list):
        raise ModelValidationError("divisor must be a coordinate list", field)
    return model.divisor([scalar_from_json(c) for c in doc])


def curve_to_json(record: NegativeCurveRecord) -> dict[str, Any]:
    return {
        "coords": divisor_to_json(record.cls),
        "self_int": _number_to_json(record.self_int),
        "genus": _number_to_json(record.genus),
        "is_exceptional": record.is_exceptional,
    }


def curve_from_json(model: BlowupModel, doc, field: str = "curve") -> NegativeCurveRecord:
    if not isinstance(doc, dict) or "coords" not in doc:
        raise ModelValidationError("curve record needs a coords list", field)
    cls = divisor_from_json(model, doc["coords"], f"{field}.coords")
    if "self_int" in doc:
        return NegativeCurveRecord(
            cls=cls,
            self_int=_number_from_json(doc["self_int"], f"{field}.self_int"),
            genus=_number_from_json(doc["genus"], f"{field}.genus"),
            is_exceptional=bool(doc["is_exceptional"]),
        )
    return NegativeCurveRecord.from_class(cls)


def ray_certificate_to_json(model: BlowupModel, cert: RayContainmentCert) -> dict[str, Any]:
    return {
        "kind": RAY_KIND,
        **blowup_to_json(model),
        "curve": curve_to_json(cert.curve),
        "n": cert.n,
        "p": cert.p,
        "level": cert.level,
        "s": scalar_to_json(cert.s),
        "t0": None if cert.t0 is None else scalar_to_json(cert.t0),
        "alpha": None if cert.alpha is None else divisor_to_json(cert.alpha),
        "delta": None if cert.delta is None else str(cert.delta),
        "checks": dict(cert.checks),
        "valid": cert.valid,
        "failing": cert.failing,
    }


def zariski_to_json(decomposition: ZariskiDecomposition) -> dict[str, Any]:
    model = decomposition.divisor.model
    return {
        "kind": ZARISKI_KIND,
        **blowup_to_json(model),
        "divisor": divisor_to_json(decomposition.divisor),
        "curves": [curve_to_json(c) for c in decomposition.curves],
        "P": divisor_to_json(decomposition.P),
        "coeffs": {str(i): str(a) for i, a in sorted(decomposition.coeffs.items())},
    }


def witness_to_json(witness: StrictInclusionWitness) -> dict[str, Any]:
    model = witness.alpha.model
    return {
        "kind": STRICT_KIND,
        **blowup_to_json(model),
        "construction": witness.construction.value,
        "curve_index": witness.curve_index,
        "alpha": divisor_to_json(witness.alpha),
        "delta": None if witness.delta is None else str(witness.delta),
        "s": None if witness.s is None else scalar_to_json(witness.s),
        "t": None if witness.t is None else scalar_to_json(witness.t),
        "lambda": None if witness.lambda_ is None else scalar_to_json(witness.lambda_),
        "gamma": None if witness.gamma is None else divisor_to_json(witness.gamma),
        "checks": dict(witness.checks),
        "valid": witness.valid,
        "failing": witness.failing,
    }


# -- verification ----------------------------------------------------------


class VerifyResult:
    def __init__(self, kind: str, failing: str | None):
        self.kind = kind
        self.failing = failing
        self.ok = failing is None

    def __repr__(self):
        state = "ok" if self.ok else f"failing={self.failing}"
        return f"VerifyResult({self.kind}, {state})"


def verify_certificate(doc) -> VerifyResult:
    """Re-check a serialized certificate from its own data; names the first violation.

    Raises :class:`CertificateError` for documents that are malformed or of
    unknown kind, as opposed to well-formed certificates that fail a check.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CertificateError("document has no certificate kind")
    kind = doc["kind"]
    try:
        if kind == RAY_KIND:
            return VerifyResult(kind, _verify_ray(doc))
        if kind == ZARISKI_KIND:
            return VerifyResult(kind, _verify_zariski(doc))
        if kind == STRICT_KIND:
            return VerifyResult(kind, _verify_strict(doc))
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc
    raise CertificateError(f"unknown certificate kind: {kind!r}")


def _verify_ray(doc) -> str | None:
    model = blowup_from_json(doc)
    try:
        curve = curve_from_json(model, doc["curve"])
    except ModelValidationError as exc:
        return f"curve_record_consistent violated ({exc})"
    if not doc.get("valid", False):
        return "certificate marked invalid"
    checks = ray_checks(
        model,
        curve,
        n=_int_from_json(doc["n"], "n", 1),
        p=_int_from_json(doc["p"], "p", 0),
        level=_int_from_json(doc["level"], "level", 1),
        s=scalar_from_json(doc["s"]),
        t0=scalar_from_json(doc["t0"]),
        alpha=divisor_from_json(model, doc["alpha"], "alpha"),
        delta=_number_from_json(doc["delta"], "delta"),
    )
    failing = first_failing(checks)
    return f"{failing} violated" if failing else None


def _verify_zariski(doc) -> str | None:
    model = blowup_from_json(doc)
    try:
        curves = tuple(
            curve_from_json(model, c, f"curves[{i}]") for i, c in enumerate(doc["curves"])
        )
        decomposition = ZariskiDecomposition(
            divisor=divisor_from_json(model, doc["divisor"], "divisor"),
            P=divisor_from_json(model, doc["P"], "P"),
            coeffs={int(i): Fraction(a) for i, a in doc["coeffs"].items()},
            curves=curves,
        )
    except ModelValidationError as exc:
        return f"curve_record_consistent violated ({exc})"
    violated = decomposition.check_invariants()
    return f"{violated} violated" if violated else None


def _verify_strict(doc) -> str | None:
    """The builders' alpha and gamma checks, plus the identities they hold by construction."""
    model = blowup_from_json(doc)
    if not doc.get("valid", False):
        return "certificate marked invalid"
    curve = model.exceptional(int(doc["curve_index"]))
    alpha = divisor_from_json(model, doc["alpha"], "alpha")
    delta = None if doc.get("delta") is None else _number_from_json(doc["delta"], "delta")
    checks = alpha_checks(alpha, curve, delta)
    if doc["construction"] == WitnessConstruction.FROM_S.value:
        s = scalar_from_json(doc["s"])
        t = scalar_from_json(doc["t"])
        checks["alpha_identity"] = t * curve - (model.canonical() - s * model.line()) == alpha
        checks["t_lower_bound"] = compare(t, 1) >= 0
    if doc.get("gamma") is not None:
        lam = scalar_from_json(doc["lambda"])
        gamma = divisor_from_json(model, doc["gamma"], "gamma")
        checks["gamma_identity"] = curve + lam * alpha == gamma
        checks.update(gamma_checks(gamma))
    failing = first_failing(checks)
    return f"{failing} violated" if failing else None
