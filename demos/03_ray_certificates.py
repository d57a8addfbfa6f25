"""Trapping certificates for every (-1)-class on the plane blown up at 12 points.

At r = 12 the threshold is s = -3 + sqrt(11), which is irrational, so the
witness scalars for the line-type classes live in a two-story tower of
quadratic extensions; their defining equation alpha^2 = 0 still checks out
exactly, and each serialized certificate re-verifies from its JSON alone.
"""

import itertools
import json

from surface_cones import (
    BlowupModel,
    NegativeCurveRecord,
    SurfaceModel,
    ThresholdContext,
    cone_equality_check,
    intersect,
    ray_certificate,
    ray_certificate_to_json,
    s_threshold,
    sign,
    verify_certificate,
)

plane = SurfaceModel(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(-3,), a_Y=(1,), kind="P2")
model = BlowupModel(plane, 12)

records = [NegativeCurveRecord.from_class(model.exceptional(i)) for i in range(1, 13)]
for i, j in itertools.combinations(range(1, 13), 2):
    records.append(
        NegativeCurveRecord.from_class(
            model.pullback([1]) - model.exceptional(i) - model.exceptional(j)
        )
    )

s = s_threshold(ThresholdContext.from_model(model), 1)
print(f"threshold s = {s}; certifying {len(records)} rays")

certs = [ray_certificate(model, record, s) for record in records]
print("all valid:", all(c.valid for c in certs))
sample = certs[20]
print(f"sample certificate (curve #{20}): t0 = {sample.t0}")
print(f"  alpha^2 = {intersect(sample.alpha, sample.alpha)} (exact zero)")
print("  alpha.L sign (alpha^2 = 0 and alpha.L > 0 put alpha in the positive cone):",
      sign(intersect(sample.alpha, model.line())))

doc = ray_certificate_to_json(model, sample)
print("re-verification from JSON:", verify_certificate(json.loads(json.dumps(doc))).ok)
doc["alpha"][0] = "1"
print("after tampering with alpha:", verify_certificate(doc).failing)

# the cone equality needs no certificate: each curve is trapped when
# C.(K - s_n L) <= -1, which is exactly when its certificate is valid, and
# trapped curves prove that no class of the generated cone pairing
# nonnegatively with K - s_nu L leaves the positive cone (see the lemma in
# cone_equality_check)
report = cone_equality_check(model, records, 1, 0)
print(f"cone equality at s = {report.s}: {sum(report.trapped)} of {len(report.trapped)}"
      f" curves trapped, passed = {report.passed}")
