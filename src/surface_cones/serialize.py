"""JSON interchange for models, decompositions and certificates, plus the verifier.

Every certificate document embeds the surface data it was computed on, so
re-checking needs no context beyond the file: the verifier rebuilds the
model, re-derives each stored invariant from the serialized fields alone
and names the first violation.  Documents carry a ``kind`` tag used for
dispatch.

It is the one module that recognizes S_r-orbits, on JSON by ``_curve_key``:
it reads a curve list, and writes and verifies a certificate list, once per
orbit, and a later member's record links to its orbit's first as its
``representative``.  It is also the one module that turns a
representative's ray certificate into a member's: the writer and the
verifier share the member-alpha rule ``_orbit_alpha``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Sequence

from .errors import (
    CertificateError,
    MalformedValueError,
    MixedRadicandError,
    ModelValidationError,
    NonRealScalarError,
)
from .lattice import BlowupModel, DivisorClass, SurfaceModel, parse_int, parse_rational
from .scalar import scalar_from_json, scalar_to_json
from .strict_inclusion import (
    RECORDED_WITNESS_CHECKS,
    StrictInclusionWitness,
    alpha_checks,
    gamma_checks,
)
from .thresholds import (
    RECORDED_RAY_CHECKS,
    RayContainmentCert,
    certify_list,
    first_failing,
    ray_checks,
)
from .zariski import NegativeCurveRecord, ZariskiDecomposition

RAY_KIND = "ray_containment"
ZARISKI_KIND = "zariski_decomposition"
STRICT_KIND = "strict_inclusion"


# json.dumps(value, sort_keys=True) from one reused encoder; type-strict, so that
# 1, 1.0, true and "1" all differ
_canonical = json.JSONEncoder(sort_keys=True).encode


def _number_to_json(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


def _scalar_from_json(doc, field: str):
    """``scalar_from_json`` naming ``field`` when ``doc`` is not a serialized real scalar.

    A negative radicand and parts from unrelated radical towers keep their
    scalar-layer text.
    """
    try:
        return scalar_from_json(doc)
    except (KeyError, ValueError):
        raise MalformedValueError(f"not a serialized scalar: {doc!r}", field)
    except (NonRealScalarError, MixedRadicandError) as exc:
        raise MalformedValueError(str(exc), field)


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
    """The surface of ``doc``; this checks the document's shape, ``SurfaceModel`` its values."""
    if not isinstance(doc, dict):
        raise ModelValidationError("surface description must be an object", "surface")
    for key in ("chi", "kY_sq", "gram_Y", "k_Y", "a_Y"):
        if key not in doc:
            raise ModelValidationError("missing required field", key)
    gram = doc["gram_Y"]
    if not isinstance(gram, list) or not all(isinstance(row, list) for row in gram):
        raise ModelValidationError("must be a matrix (list of rows)", "gram_Y")
    for key in ("k_Y", "a_Y"):
        if not isinstance(doc[key], list):
            raise MalformedValueError(f"must be a list, got {doc[key]!r}", key)
    for key in ("pg", "q"):
        if key in doc and doc[key] is None:
            raise MalformedValueError("expected a rational number, got None", key)
    return SurfaceModel(
        chi=doc["chi"],
        kY_sq=doc["kY_sq"],
        gram_Y=gram,
        k_Y=doc["k_Y"],
        a_Y=doc["a_Y"],
        kind=doc.get("class", "Other"),
        pg=doc.get("pg"),
        irregularity=doc.get("q"),
    )


def blowup_from_json(doc) -> BlowupModel:
    if not isinstance(doc, dict):
        raise ModelValidationError("blow-up description must be an object", "input")
    if "r" not in doc:
        raise ModelValidationError("missing required field", "r")
    return BlowupModel(base=surface_from_json(doc.get("surface", doc)), r=doc["r"])


def blowup_to_json(model: BlowupModel) -> dict[str, Any]:
    return {"surface": surface_to_json(model.base), "r": model.r}


def divisor_to_json(divisor: DivisorClass) -> list:
    return [scalar_to_json(c) for c in divisor.coords]


def divisor_from_json(model: BlowupModel, doc, field: str) -> DivisorClass:
    """The class with coordinate list ``doc``; errors name ``field`` or its malformed coordinate.

    When the entries are all JSON ints or all strings, each distinct value is
    parsed once.  Coordinates from unrelated radical towers name ``field``.
    """
    if not isinstance(doc, list):
        raise ModelValidationError("divisor must be a coordinate list", field)
    try:
        kinds = set(map(type, doc))
        if len(kinds) == 1 and kinds <= {int, str}:
            values = {c: scalar_from_json(c) for c in set(doc)}
            coords = tuple(values[c] for c in doc)
        else:
            coords = tuple(scalar_from_json(c) for c in doc)
    except (KeyError, ValueError, NonRealScalarError, MixedRadicandError):
        for i, c in enumerate(doc):  # raises at the first malformed coordinate
            _scalar_from_json(c, f"{field}[{i}]")
        raise
    if len(coords) != model.rank:
        raise ModelValidationError(f"expected {model.rank} coordinates, got {len(coords)}", field)
    try:
        return DivisorClass(model, coords)
    except MixedRadicandError as exc:
        raise MalformedValueError(str(exc), field)


def curve_to_json(record: NegativeCurveRecord) -> dict[str, Any]:
    return {
        "coords": divisor_to_json(record.cls),
        "self_int": _number_to_json(record.self_int),
        "genus": _number_to_json(record.genus),
        "is_exceptional": record.is_exceptional,
    }


def curve_from_json(model: BlowupModel, doc, field: str = "curve") -> NegativeCurveRecord:
    """A curve record; the record's own errors, named ``curve*``, are renamed ``<field>*``."""
    if not isinstance(doc, dict) or "coords" not in doc:
        raise ModelValidationError("curve record needs a coords list", field)
    cls = divisor_from_json(model, doc["coords"], f"{field}.coords")
    declared = "self_int" in doc
    if declared:
        self_int = parse_rational(doc["self_int"], f"{field}.self_int")
        for key in ("genus", "is_exceptional"):
            if key not in doc:
                raise MalformedValueError("missing required field", f"{field}.{key}")
        genus = parse_rational(doc["genus"], f"{field}.genus")
        flag = doc["is_exceptional"]
        if not isinstance(flag, bool):
            raise MalformedValueError(
                f"must be true or false, got {flag!r}", f"{field}.is_exceptional"
            )
    try:
        if declared:
            return NegativeCurveRecord(cls, self_int, genus, flag)
        return NegativeCurveRecord.from_class(cls)
    except ModelValidationError as exc:
        raise ModelValidationError(exc.message, field + exc.field[len("curve"):]) from None


def _curves_from_json(model: BlowupModel, doc) -> list[NegativeCurveRecord]:
    """The ``curves`` list of a document: records named ``curves[i]``, one parse per S_r-orbit.

    Equals ``curve_from_json`` on each entry, errors included.  The first
    entry of each ``_curve_key`` is parsed by ``curve_from_json`` and is the
    ``representative`` of the key's later entries, which is all that later
    steps working once per orbit read.  A later entry is a permutation of
    the E_i applied to that entry, which preserves every check of the
    record, so it cannot fail: its coordinates are read through one memo of
    raw JSON values into a deferred member of the representative
    (``NegativeCurveRecord._member``), which builds its class only when a
    caller reads it.  An entry without a key (not an object, coordinates not
    all ints or all strings, fields that are not JSON) is parsed in full.
    """
    if not isinstance(doc, list):
        raise MalformedValueError(f"must be a list of curve records, got {doc!r}", "curves")
    m = model.base.rank
    first: dict[tuple, NegativeCurveRecord] = {}
    values: dict = {}  # raw JSON coordinate -> its parsed value
    records = []
    for i, entry in enumerate(doc):
        key = _curve_key(entry, m)
        record = first.get(key)
        if record is None:
            record = curve_from_json(model, entry, f"curves[{i}]")
            if key is not None:
                first[key] = record
                values.update(zip(entry["coords"], record.cls.coords))
        else:
            record = record._member(tuple(map(values.__getitem__, entry["coords"])))
        records.append(record)
    return records


def _document_curves(model: BlowupModel, doc: dict) -> list[NegativeCurveRecord]:
    """The records of ``doc["curves"]``; without that key E_1..E_r, read as one orbit."""
    if "curves" in doc:
        return _curves_from_json(model, doc["curves"])
    m, r = model.base.rank, model.r
    rows = [[0] * (m + i) + [1] + [0] * (r - 1 - i) for i in range(r)]
    return _curves_from_json(model, [{"coords": row} for row in rows])


def _orbit_key(coords: list, m: int) -> tuple | None:
    """The S_r-orbit key of a coordinate list: its base block and its sorted E-block.

    Two lists share a key exactly when a permutation of the E_i maps one to
    the other.  ``m`` is the rank of the base.  The coordinates must be all
    ``int`` or all ``str`` (a document's serialized rationals), so that equal
    keys mean equal values of one type; anything else, bools included, gives
    None and never raises.
    """
    kinds = {type(c) for c in coords}
    if len(kinds) != 1 or not kinds <= {int, str}:
        return None
    return tuple(coords[:m]), tuple(sorted(coords[m:]))


def _curve_key(entry, m: int) -> tuple | None:
    """(orbit key of the coordinates, canonical JSON of the other fields), or None."""
    if not isinstance(entry, dict) or not isinstance(entry.get("coords"), list):
        return None
    orbit = _orbit_key(entry["coords"], m)
    if orbit is None:
        return None
    try:
        return orbit, _canonical({k: v for k, v in entry.items() if k != "coords"})
    except (TypeError, ValueError):
        return None


def _orbit_alpha(
    curve_coords: Sequence, alpha_coords: Sequence, m: int
) -> Callable[[Sequence], tuple] | None:
    """The map from a member sigma(C) of C's orbit to the coordinates of sigma(alpha).

    Swapping positions where C has equal values fixes C, so each E-coordinate
    of alpha must be a function of C's value there; the member's E-coordinate
    is that function at the member's value, and the base block is kept.  None
    when alpha is not such a function (compared with ``!=``).
    """
    value_at: dict = {}
    for c, a in zip(curve_coords[m:], alpha_coords[m:]):
        if value_at.setdefault(c, a) != a:
            return None
    base = tuple(alpha_coords[:m])
    return lambda member_coords: base + tuple(value_at[c] for c in member_coords[m:])


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
        "checks": dict(cert.checks),
        "valid": cert.valid,
        "failing": cert.failing,
    }


def _ray_certificates_to_json(
    model: BlowupModel, curves: list[NegativeCurveRecord]
) -> list[dict[str, Any]]:
    """``ray_certificate_to_json`` of each certificate of ``certify_list(model, curves)``.

    A member is its representative moved by a permutation of the E_i, an
    isometry fixing K and L, so n, p, C.L, s, t0, the checks, the verdict and
    every raise carry over.  So ``certify_list`` runs on the distinct
    representatives alone, in the order of first appearance, where it raises
    as on the whole list, and each of their certificates is serialized once.
    A later member's document is its representative's with ``curve.coords``
    its own deferred row, whose integral Fractions print as ``scalar_to_json``
    writes them, and ``alpha`` the ``_orbit_alpha`` of the serialized curve
    and alpha at that row, the rule ``_verify_documents`` reads back; the two
    share every other sub-object.  The row is the member's ``_coords``, as
    ``_curves_from_json`` gave it to ``NegativeCurveRecord._member``; that
    pairing is the only code outside ``zariski`` that knows a deferred
    member's layout.
    """
    heads = {id(curve.representative): curve.representative for curve in curves}
    m = model.base.rank
    written = {}  # id of a representative -> its document and the _orbit_alpha map of it
    for key, cert in zip(heads, certify_list(model, list(heads.values()))):
        doc = ray_certificate_to_json(model, cert)
        alpha = doc["alpha"]
        permute = None if alpha is None else _orbit_alpha(doc["curve"]["coords"], alpha, m)
        written[key] = doc, permute
    documents = []
    for curve in curves:
        head = curve.representative
        doc, permute = written[id(head)]
        if curve is not head:
            coords = [str(c) for c in curve._coords]
            alpha = None if doc["alpha"] is None else list(permute(coords))
            doc = {**doc, "curve": {**doc["curve"], "coords": coords}, "alpha": alpha}
        documents.append(doc)
    return documents


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
        # alpha = t*C - (K - sL), the one construction; verify rejects any other
        "construction": "from_s",
        "curve_index": witness.curve_index,
        "alpha": divisor_to_json(witness.alpha),
        "s": scalar_to_json(witness.s),
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
        key = exc.args[0] if isinstance(exc, KeyError) and exc.args else None
        if isinstance(key, str) and key not in doc:
            raise CertificateError(f"{key}: missing required field") from exc
        raise CertificateError(f"malformed certificate: {exc}") from exc
    raise CertificateError(f"unknown certificate kind: {kind!r}")


def _verify_documents(documents) -> tuple[int, str] | None:
    """Index and failure of the first entry that ``verify_certificate`` rejects, or None.

    Gives the same result, and raises the same errors, as verifying every
    entry in turn.  The first ray certificate of each key (``_orbit_entry``)
    is verified in full.  A later one whose alpha is the verified one's
    ``_orbit_alpha`` at its curve is that document moved by a permutation of
    the E_i, an isometry fixing K and L, so every invariant of ``ray_checks``
    and of the curve record holds for it too; any other is verified in full.
    """
    verified = {}  # key -> the _orbit_alpha map of its verified entry
    for i, doc in enumerate(documents):
        key, coords, alpha, m = _orbit_entry(doc) or (None,) * 4
        permute = verified.get(key)
        if permute is not None and permute(coords) == alpha:
            continue
        result = verify_certificate(doc)
        if not result.ok:
            return i, result.failing
        if key is not None and key not in verified:
            verified[key] = _orbit_alpha(coords, alpha, m)
    return None


def _orbit_entry(doc) -> tuple | None:
    """(key, curve coordinates, canonical JSON of each alpha coordinate, m), or None.

    The key is the curve's ``_curve_key`` and the canonical JSON of the other
    fields but alpha; None unless ``doc`` is a ray certificate with r.
    """
    if not isinstance(doc, dict) or doc.get("kind") != RAY_KIND:
        return None
    curve, alpha, r = doc.get("curve"), doc.get("alpha"), doc.get("r")
    if not isinstance(curve, dict) or not isinstance(alpha, list):
        return None
    coords = curve.get("coords")
    if not isinstance(coords, list) or type(r) is not int or not 0 <= r <= len(coords):
        return None
    m = len(coords) - r
    curve_key = _curve_key(curve, m)
    if curve_key is None:
        return None
    try:
        rest = _canonical({k: v for k, v in doc.items() if k not in ("curve", "alpha")})
        return (curve_key, rest), coords, tuple(map(_canonical, alpha)), m
    except (TypeError, ValueError):
        return None


def _verify_ray(doc) -> str | None:
    """The builder's ``ray_checks`` on the document's fields, then ``recorded_checks``."""
    model = blowup_from_json(doc)
    try:
        curve = curve_from_json(model, doc["curve"])
    except MalformedValueError:
        raise
    except ModelValidationError as exc:
        return f"curve_record_consistent violated ({exc})"
    if not doc.get("valid", False):
        return "certificate marked invalid"
    checks = ray_checks(
        model,
        curve,
        n=parse_int(doc["n"], "n", 1),
        p=parse_int(doc["p"], "p", 0),
        level=parse_int(doc["level"], "level", 1),
        s=_scalar_from_json(doc["s"], "s"),
        t0=_scalar_from_json(doc["t0"], "t0"),
        alpha=divisor_from_json(model, doc["alpha"], "alpha"),
    )
    checks["recorded_checks"] = _recorded_checks_hold(doc, RECORDED_RAY_CHECKS)
    failing = first_failing(checks)
    return f"{failing} violated" if failing else None


def _recorded_checks_hold(doc, names) -> bool:
    """``checks`` maps exactly ``names``, in any key order, to JSON true; ``failing`` is null."""
    checks = doc.get("checks")
    exact = checks == dict.fromkeys(names, True) and all(v is True for v in checks.values())
    return exact and "failing" in doc and doc["failing"] is None


def _verify_zariski(doc) -> str | None:
    model = blowup_from_json(doc)
    try:
        curves = tuple(_curves_from_json(model, doc["curves"]))
    except MalformedValueError:
        raise
    except ModelValidationError as exc:
        return f"curve_record_consistent violated ({exc})"
    divisor = divisor_from_json(model, doc["divisor"], "divisor")
    P = divisor_from_json(model, doc["P"], "P")
    decomposition = ZariskiDecomposition(
        divisor=divisor, P=P, coeffs=_coeffs_from_json(doc["coeffs"], len(curves)), curves=curves
    )
    violated = decomposition.check_invariants()
    return f"{violated} violated" if violated else None


def _coeffs_from_json(doc, count: int) -> dict[int, Fraction]:
    """An object from curve indices "0".."count-1" to rational coefficients."""
    if not isinstance(doc, dict):
        raise ModelValidationError(f"must be an object, got {doc!r}", "coeffs")
    index = {str(i): i for i in range(count)}
    coeffs = {}
    for key, value in doc.items():
        if key not in index:
            raise ModelValidationError(f"not an index into the {count} curves: {key!r}", "coeffs")
        coeffs[index[key]] = parse_rational(value, f"coeffs[{key}]")
    return coeffs


def _verify_strict(doc) -> str | None:
    """The builder's ``alpha_checks`` and ``gamma_checks`` on the document's fields.

    Without ``gamma`` it fails ``gamma_identity`` after the alpha list; ``recorded_checks`` is last.
    """
    model = blowup_from_json(doc)
    if not doc.get("valid", False):
        return "certificate marked invalid"
    curve = model.exceptional(parse_int(doc["curve_index"], "curve_index", 1, model.r))
    if doc["construction"] != "from_s":
        raise ModelValidationError(
            f"not a witness construction: {doc['construction']!r}", "construction"
        )
    alpha = divisor_from_json(model, doc["alpha"], "alpha")
    s = _scalar_from_json(doc["s"], "s")
    t = _scalar_from_json(doc["t"], "t")
    checks = alpha_checks(alpha, curve, s, t)
    if doc.get("gamma") is None:
        checks["gamma_identity"] = False
    else:
        lam = _scalar_from_json(doc["lambda"], "lambda")
        gamma = divisor_from_json(model, doc["gamma"], "gamma")
        checks.update(gamma_checks(gamma, curve, lam, alpha))
    checks["recorded_checks"] = _recorded_checks_hold(doc, RECORDED_WITNESS_CHECKS)
    failing = first_failing(checks)
    return f"{failing} violated" if failing else None
