"""The strict-inclusion witness at the level-1 threshold, opening at r = 11.

The witness is alpha = E_1 - (K - s_1 L) at the level-1 threshold s_1,
where t = 1 and alpha.K = s_1*sqrt(D_1/4), so it holds exactly when
s_1 > 0.  The tilt value A.K_Y + sqrt(A^2 (r-1)) is printed beside it:
it is positive only where s_1 is.  On the plane both first succeed at
r = 11, recovering the classical bound r > 10.
"""

from surface_cones import (
    BlowupModel,
    SurfaceModel,
    alpha_from_s,
    gamma_witness,
    intersect,
    sign,
    to_float,
    uniruled_value,
    witness_parameter,
)

plane = SurfaceModel(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(-3,), a_Y=(1,), kind="P2")

for r in (9, 10, 11, 12):
    model = BlowupModel(plane, r)
    s = witness_parameter(model)
    witness = alpha_from_s(model, s, 1)
    value = uniruled_value(model)
    verdict = "valid" if witness.valid else f"fails {witness.failing}"
    print(f"r = {r:>2}: s_1 = {s} ~ {to_float(s):.4f}, witness {verdict};"
          f" tilt value = {value} (positive: {sign(value) > 0})")

model = BlowupModel(plane, 11)
s = witness_parameter(model)
witness = gamma_witness(alpha_from_s(model, s, 1))
k = model.canonical()
print(f"\nwitness at s = s_1 = {s}: t = {witness.t}, lambda = {witness.lambda_}")
print(f"  alpha^2 = {intersect(witness.alpha, witness.alpha)},"
      f" alpha.K = {intersect(witness.alpha, k)}")
print(f"  gamma^2 = {intersect(witness.gamma, witness.gamma)},"
      f" gamma.K = {intersect(witness.gamma, k)}")
print("gamma is a class in the Mori cone, K-nonnegative, outside the positive cone.")
