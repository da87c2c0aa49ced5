import numpy as np
from hypothesis import HealthCheck, settings

from obscheck import LcdConfig

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
# the weekly CI job runs the derivative tests with --hypothesis-profile=weekly
settings.register_profile("weekly", parent=settings.get_profile("default"), max_examples=500)
settings.load_profile("default")


# Desk-scale placement budget: quality plateaus well before the default
# iteration cap, and the studies whiten to exact covariance regardless.
DESK_LCD = LcdConfig(max_iters=150)


def central_difference_hessian(grad, x):
    """Central differences of ``grad`` at ``x`` with per-coordinate step
    eps^(1/3) |x_j|: the oracle for exact Hessians."""
    step = float(np.finfo(float).eps) ** (1.0 / 3.0)
    columns = []
    for j in range(len(x)):
        h = step * abs(x[j])
        up, dn = list(x), list(x)
        up[j] += h
        dn[j] -= h
        columns.append([(p - q) / (2.0 * h) for p, q in zip(grad(up), grad(dn))])
    return np.array(columns).T
