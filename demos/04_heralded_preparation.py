"""Turning a detector into a state-preparation device.

Send one arm of a two-mode squeezed vacuum into the detector; a click on
that arm leaves the other arm in a filtered copy of whatever the detector
retrodicts.  As the squeezing parameter grows toward 1, the prepared state
converges to the conjugate of the retrodicted state, so the measurement
literally becomes a remote preparation of "what the detector saw".

Run: python3 demos/04_heralded_preparation.py
"""

from qdetchar import (
    TmsvParams,
    fock_state,
    heralded_closed_form,
    heralded_state,
    on_off_apd,
    retrodicted_state,
    retrodictive_limit_scan,
    scaled_projector,
    tmsv,
    trace_distance,
)
from qdetchar.fock import conjugate_in_fock, number_mean

DIM = 80
element = on_off_apd(0.5, 0.0, DIM).outcome("on")

# Two independent routes to the conditional state: build the full
# two-mode ket and trace out, or use the diagonal-filter closed form.
params = TmsvParams(0.5, DIM)
via_joint = heralded_state(tmsv(params), element)
via_form = heralded_closed_form(params, element)
print(
    "route agreement (trace distance):",
    f"{trace_distance(via_joint.conditional_state, via_form.conditional_state):.3e}",
)
print(f"herald success probability at lam = 0.5: {via_form.success_probability:.4f}")

# The limit scan.  Fidelity is against the conjugated retrodicted state;
# success probability is the price paid for pushing lam upward.
scan = retrodictive_limit_scan(element, [0.3, 0.5, 0.7, 0.9])
print("\n  lam   fidelity   success")
for pt in scan.points:
    print(f"  {pt.lam:.1f}   {pt.fidelity:8.4f}   {pt.success_probability:.4f}")
print(f"monotonic: {scan.fidelity_monotonic}")

# Why convergence is slow here: the click outcome retrodicts a very broad
# state, and the lam^n filter must stop suppressing its high-photon part.
retro = retrodicted_state(element)
print(f"\nmean photon number of the retrodicted state: {number_mean(retro.state):.1f}")
target = conjugate_in_fock(retro.state)
for lam in (0.3, 0.9):
    res = heralded_closed_form(TmsvParams(lam, DIM), element)
    print(
        f"lam = {lam}: distance to conjugated retrodiction "
        f"{trace_distance(res.conditional_state, target):.4f}"
    )

# For a Fock projector the filter is irrelevant (a diagonal filter cannot
# change a number state): fidelity is exactly 1 at any lam, and squeezing
# harder only buys success probability, (1 - lam^2) lam^(2n).
proj = scaled_projector(fock_state(2, DIM), 1.0, label="2")
print("\nprojector onto the two-photon state:")
for lam in (0.3, 0.6, 0.9):
    res = heralded_closed_form(TmsvParams(lam, DIM), proj)
    exact = (1.0 - lam**2) * lam**4
    print(
        f"  lam = {lam}: success {res.success_probability:.6f} "
        f"(closed form {exact:.6f})"
    )
