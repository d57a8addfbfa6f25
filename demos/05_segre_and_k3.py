"""The Segre Problem's bounds: counterexample detectors, the K3 table.

The bound chain -1 >= C^2 >= p_a - chi >= -chi pins (nu, pi) = (chi, chi-1);
for chi <= 0 every negative curve must be exceptional, and a genus-g pencil
through a blown-up point refutes the Segre Problem whenever
chi != dim + g + 1.
"""

from surface_cones import (
    classify_k3_curve,
    curve_bound_check,
    nagata_checks,
    NagataVariant,
    pencil_counterexample,
    segre_bounds,
)

for chi in (1, 2, 0, -1):
    bounds = segre_bounds(chi)
    tail = " (exceptional curves only)" if bounds.exceptional_only else ""
    print(f"chi = {chi:>2}: nu = {bounds.nu}, pi = {bounds.pi}{tail}")

print()
print("Enriques elliptic pencil (chi = 1, g = 1, dim 0):",
      pencil_counterexample(1, 1, 0).verdict.value)
print("plane line pencil (chi = 1, g = 0, dim 0):",
      pencil_counterexample(1, 0, 0).verdict.value)

print()
print("negative curves on a blown-up K3 (chi = 2), classified by adjunction:")
for c2, p in ((-1, 0), (-2, 0), (-1, 1), (-2, 1)):
    ck = 2 * p - 2 - c2
    kind = classify_k3_curve(c2, p, ck)
    chain = curve_bound_check(c2, p, 2)
    print(f"  (C^2, p_a) = ({c2:>2}, {p}): C.K = {ck:>2},"
          f" kind {kind.value:>8}, bound chain {'holds' if chain else 'fails'}")

print()
print("degree-multiplicity inequalities:")
print("  deg 6 through ten double points, 1/sqrt(r) form:",
      nagata_checks(6, [2] * 10, NagataVariant.NAGATA))
print("  deg 4 through four simple points, strong form:",
      nagata_checks(4, [1, 1, 1, 1], NagataVariant.STRONG))
