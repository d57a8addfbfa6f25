"""JSON interchange for models, decompositions and certificates, plus the verifier.

Every certificate document embeds the surface data it was computed on, so
re-checking needs no context beyond the file: the verifier rebuilds the
model, re-derives each stored invariant from the serialized fields alone
and names the first violation.  Documents carry a ``kind`` tag used for
dispatch.

It is the one module that recognizes S_r-orbits on JSON: it reads a curve
list once per orbit (``_curve_key``), and a later member's record links to
its orbit's first as its ``representative``.  It is also the one module that
turns a representative's ray certificate into a member's: the writer builds
a member's document from its head's, and the verifier accepts a later
document that equals, type-strictly, the document that rule gives from a
verified head with the same ``_orbit_key``.  Both share the member-alpha
rule ``_orbit_alpha``.
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
    entry in turn.  A ray certificate verified in full becomes a head of its
    curve coordinates' ``_orbit_key`` (``_orbit_entry``).  A later one with
    that key is accepted without re-derivation when ``_is_member`` finds it
    to be a head's document moved by a permutation of the E_i, an isometry
    fixing K and L, so that every invariant of ``ray_checks`` and of the
    curve record holds for it too; any other entry is verified in full.
    """
    heads: dict = {}  # _orbit_key -> the _orbit_head of each entry verified in full
    for i, doc in enumerate(documents):
        entry = _orbit_entry(doc)
        if entry is not None:
            key, coords, m = entry
            if any(_is_member(doc, coords, head) for head in heads.get(key, ())):
                continue
        result = verify_certificate(doc)
        if not result.ok:
            return i, result.failing
        if entry is not None:
            head = _orbit_head(doc, coords, m)
            if head is not None:
                heads.setdefault(key, []).append(head)
    return None


def _orbit_entry(doc) -> tuple | None:
    """(``_orbit_key`` of the curve coordinates, the coordinates, m), or None.

    None unless ``doc`` is a ray certificate with an int r, an alpha list and
    curve coordinates that have a key; never raises.
    """
    if not isinstance(doc, dict) or doc.get("kind") != RAY_KIND:
        return None
    curve, r = doc.get("curve"), doc.get("r")
    if not isinstance(curve, dict) or not isinstance(doc.get("alpha"), list):
        return None
    coords = curve.get("coords")
    if not isinstance(coords, list) or type(r) is not int or not 0 <= r <= len(coords):
        return None
    m = len(coords) - r
    key = _orbit_key(coords, m)
    return None if key is None else (key, coords, m)


def _orbit_head(doc: dict, coords: list, m: int) -> tuple | None:
    """(a verified entry, its ``_orbit_alpha`` map, its ``_typed_leaves`` outside
    ``alpha`` and ``curve.coords``, whether its alpha has any), or None
    when alpha is not a function of the curve.
    """
    permute = _orbit_alpha(coords, doc["alpha"], m)
    if permute is None:
        return None
    leaves = _typed_leaves({**doc, "curve": {**doc["curve"], "coords": []}, "alpha": []})
    return doc, permute, leaves, bool(_typed_leaves(doc["alpha"]))


def _is_member(doc: dict, coords: list, head: tuple) -> bool:
    """Whether ``doc`` is the head's document written for the curve ``coords``.

    That document is what ``_ray_certificates_to_json`` writes for a member:
    the head's, with ``curve.coords`` the member's and ``alpha`` the
    ``_orbit_alpha`` of the head's at them.  ``doc`` must equal it under
    ``==`` and hold its type at every int, float and bool leaf, the only JSON
    values that ``==`` confuses (1, 1.0 and true).  The shared key gives
    ``coords`` the head's types, and a verified head's alpha is read only at
    ints and strings, where ``==`` is exact, so its ``_orbit_alpha`` map,
    taken under ``==``, is that of its parsed values.
    """
    head_doc, permute, leaves, alpha_has_leaves = head
    alpha = list(permute(coords))
    written = {**head_doc, "curve": {**head_doc["curve"], "coords": coords}, "alpha": alpha}
    return (
        doc == written
        and _holds_types(doc, leaves)
        and (not alpha_has_leaves or _holds_types(doc["alpha"], _typed_leaves(alpha)))
    )


def _typed_leaves(value, path: tuple = ()) -> list[tuple[tuple, type]]:
    """(path, type) of each leaf of a JSON value but its strings and nulls, where ``==`` is exact.

    In JSON that is each int, float and bool leaf; any other Python value is
    kept with its type too.
    """
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [] if value is None or type(value) is str else [(path, type(value))]
    return [leaf for key, item in items for leaf in _typed_leaves(item, path + (key,))]


def _holds_types(value, leaves) -> bool:
    """Whether ``value`` holds each of ``leaves``' types at its path; the paths must exist."""
    for path, kind in leaves:
        leaf = value
        for key in path:
            leaf = leaf[key]
        if type(leaf) is not kind:
            return False
    return True


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
