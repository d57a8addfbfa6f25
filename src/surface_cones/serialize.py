"""JSON interchange for models, decompositions and certificates, plus the verifier.

Every certificate document embeds the surface data it was computed on, so
re-checking needs no context beyond the file: the verifier rebuilds the
model, re-derives each stored invariant from the serialized fields alone
and names the first violation.  Documents carry a ``kind`` tag used for
dispatch.

It is the one module that recognizes S_r-orbits on JSON: it reads a curve
list once per orbit (``_curve_key``), and a later member's record links to
its orbit's first as its ``representative``.  A permutation of the E_i is an
isometry fixing K and L, so it carries a curve's ray certificate to every
curve of its orbit: ``certify-ray`` writes one certificate per orbit, with
the later members as coordinate rows under ``members``, and the verifier
checks the certificate in full and each row by its ``_orbit_key``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

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

    Each distinct value is parsed once per call.  When the entries are all
    JSON ints or all strings they are their own keys; otherwise (tower-valued
    entries) a str is its own key and any other value is keyed by its
    canonical JSON, so that 1, 1.0, true, "1" and a dict's text stay apart,
    and a value that is not JSON is parsed on its own.  Coordinates from
    unrelated radical towers name ``field``.
    """
    if not isinstance(doc, list):
        raise ModelValidationError("divisor must be a coordinate list", field)
    try:
        kinds = set(map(type, doc))
        if len(kinds) == 1 and kinds <= {int, str}:
            values = {c: scalar_from_json(c) for c in set(doc)}
            coords = tuple(values[c] for c in doc)
        else:
            coords = _mixed_coordinates(doc)
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


def _mixed_coordinates(doc: list) -> tuple:
    """The parsed entries of a mixed-type list, each distinct one parsed once; see the caller."""
    values: dict = {}
    coords = []
    for c in doc:
        try:
            key = c if type(c) is str else (_canonical(c),)
        except (TypeError, ValueError):
            coords.append(scalar_from_json(c))
            continue
        if key not in values:
            values[key] = scalar_from_json(c)
        coords.append(values[key])
    return tuple(coords)


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
    """One ``ray_certificate_to_json`` document per S_r-orbit of ``curves``, in listed order.

    An orbit is the curves sharing a ``representative``.  A member is its
    orbit's first listed curve moved by a permutation of the E_i, an isometry
    fixing K and L, so n, p, C.L, s, t0, the checks, the verdict and every
    raise carry over: ``certify_list`` runs on the first listed curve of each
    orbit alone, where it raises as on the whole list.  When the orbit has
    later curves, its document adds ``members``: their coordinate rows in
    list order, each a deferred member's ``_coords`` (a record listed again,
    or a representative listed after its member, gives its class's), whose
    integral Fractions print as ``scalar_to_json`` writes them; that pairing
    with ``_curves_from_json`` is the only code outside ``zariski`` that
    knows a deferred member's layout.  A member needs no alpha: for any
    permutation sigma taking C to the row, sigma(alpha) = t0*sigma(C) -
    (K - sL), since the head's ``alpha_identity`` holds.
    """
    orbits: dict[int, list[NegativeCurveRecord]] = {}
    for curve in curves:
        orbits.setdefault(id(curve.representative), []).append(curve)
    heads = [orbit[0] for orbit in orbits.values()]
    documents = []
    for cert, (_, *members) in zip(certify_list(model, heads), orbits.values()):
        doc = ray_certificate_to_json(model, cert)
        if members:
            rows = (member.__dict__.get("_coords") or member.cls.coords for member in members)
            doc["members"] = [[str(c) for c in row] for row in rows]
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
    """Index and failure of the first entry that ``verify_certificate`` rejects, or None."""
    for i, doc in enumerate(documents):
        result = verify_certificate(doc)
        if not result.ok:
            return i, result.failing
    return None


def _verify_ray(doc) -> str | None:
    """``ray_checks`` on the document's fields, then ``recorded_checks`` and ``members_in_orbit``.

    Each row of ``members`` must share the curve coordinates' ``_orbit_key``,
    which must not be None: then a permutation of the E_i, an isometry fixing
    K and L, maps the checked curve to the row and carries every check over.
    """
    members = doc.get("members", [])
    if not isinstance(members, list):
        raise MalformedValueError(f"must be a list of coordinate rows, got {members!r}", "members")
    for i, row in enumerate(members):
        if not isinstance(row, list):
            raise MalformedValueError(f"must be a coordinate list, got {row!r}", f"members[{i}]")
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
    m = model.base.rank
    key = _orbit_key(doc["curve"]["coords"], m)
    in_orbit = (key is not None and _orbit_key(row, m) == key for row in members)
    checks["members_in_orbit"] = all(in_orbit)
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
