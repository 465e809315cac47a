"""Every analytic gradient in the library, checked against arithmetic.

Central finite differences ((f(x+eps) - f(x-eps)) / 2eps) know nothing
about calculus, so agreement to ~1e-7 relative error is strong evidence
the backward passes are exact.  The second half zooms into the one
mathematically delicate spot: the squared hinge at a margin of exactly
1, where the loss kinks in value but not in slope.

Run: python3 demos/gradient_verification.py
"""

import numpy as np

from marginnet import gradcheck as gc
from marginnet.heads import HeadSpec, apply_head

print("=== full-suite check: every layer, every head ===")
results = gc.gradcheck_suite()
for r in results:
    print(" ", r.summary())
worst = max(r.max_rel_error for r in results)
print(f"\n{sum(r.passed for r in results)}/{len(results)} passed, "
      f"worst relative error {worst:.3e}")

print("""
=== the delicate spot: a margin of exactly 1 ===
The L2-SVM data term C*max(1-m,0)^2 is once differentiable everywhere:
at m=1 both one-sided slopes are 0.  The L1 term C*max(1-m,0) is not:
its slope jumps from -C to 0.  Finite differences see both clearly.
""")

C = 0.01
# Label 0: class 0's score is the one feature straight through, bias 0.
# Class 1's score is a bias of -5, a margin of 5 that never contributes.
w = np.array([[1.0, 0.0], [0.0, -5.0]])
labels = np.array([0])


def fd_slope(margin, kind):
    spec = HeadSpec(kind, 2, c=C)
    h = np.array([[margin]])
    return float(gc.fd_gradient(lambda: apply_head(spec, w, h, labels).loss, h)[0, 0])


at_kink_l2 = fd_slope(1.0, "l2svm")
at_kink_l1 = fd_slope(1.0, "l1svm")
print(f"numeric slope at m=1:  L2 {at_kink_l2:+.3e}   L1 {at_kink_l1:+.3e}")
print(f"(L2 analytic slope is 0; L1 straddles a kink, FD reports ~-C/2 ="
      f" {-C / 2:+.3e})")

margins = np.arange(0.9, 1.1 + 1e-9, 1e-3)
for name, kind in (("L2", "l2svm"), ("L1", "l1svm")):
    slopes = np.array([fd_slope(m, kind) for m in margins])
    jump = float(np.abs(np.diff(slopes)).max())
    print(f"{name}: largest slope step across the sweep [0.9, 1.1] "
          f"= {jump:.3e}" + ("  (smooth)" if jump < 1e-4 else "  (kink)"))

print("""
This is why the squared hinge trains gracefully with plain SGD: the
gradient fades to zero as an example reaches its margin instead of
switching off abruptly.""")
