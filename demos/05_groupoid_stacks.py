"""Two-way logic transport along a groupoid functor.

Collapsing two components onto one: the forward transport (image) and the
backward transport (saturated preimage) are adjoint, and the forward one
retracts the backward one exactly when the functor is surjective on
components.
"""

from sheafnet.groupoids import (
    GroupoidFunctor,
    check_adjunction_and_section,
    discrete_groupoid,
    lambda_transport,
    tau_transport,
)

src = discrete_groupoid(["x", "y", "z"])
dst = discrete_groupoid(["u", "v"])
# every vertex group is trivial, so the object map is the whole functor
f = GroupoidFunctor.of_object_map(src, dst, {"x": "u", "y": "u", "z": "v"})

cx, cy, cz = src.parts
cu, cv = dst.parts
print("lambda({x})        =", sorted(map(str, lambda_transport(f, {cx}))))
print("tau({u})           =", sorted(map(str, tau_transport(f, {cu}))))
print("lambda(tau({u,v})) =", sorted(map(str, lambda_transport(f, tau_transport(f, {cu, cv})))))

report = check_adjunction_and_section(f)
print("adjunction holds exhaustively:", report.adjunction_ok)
print("unit P' <= tau(lambda(P')):   ", report.unit_ok)
print("surjective on components:     ", report.surjective_on_components)
print("lambda o tau = identity:      ", report.section_ok)
