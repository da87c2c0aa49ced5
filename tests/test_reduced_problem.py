"""The reduced-problem oracle: with a flat prior, -2L depends on the
parameters only through the mean m and the scale s,

    -2L = phi(m, s) = 2T log s + (Q + T (zbar - m)^2) / s^2,

whose one stationary point in (m, s) is the target (zbar, sqrt(Q/T)).
Where J = d(m, s)/d(omega) has rank 2 at a maximum omega_hat, J' grad(phi) = 0
forces grad(phi) = 0, so (m, s)(omega_hat) is the target, and the Hessian of
-2L there is 2T I1 with the Fisher information I1 = (grad m grad m' +
2 grad s grad s') / s^2: the local variances 2 diag(H^{-1}) are
diag((T I1)^{-1}).  Neither fact uses the fit's arithmetic.
"""

import numpy as np
import pytest

from obscheck import load_model
from obscheck.models import model_from_dict
from obscheck.posterior import PosteriorContext
from obscheck.samples import design_disturbance_matrix
from obscheck.study import StudyConfig, make_design_observations, run_study

from conftest import DESK_LCD

# flat-prior models whose J has rank 2 at every estimate: three bundled ones
# and two of this test's own that use ^
_A_B = [{"name": "a", "true_value": 0.6}, {"name": "b", "true_value": 0.4}]
MODELS = {
    "mean_and_variance": lambda: load_model("mean_and_variance"),
    "ratio_mean_scale_sqrt_a": lambda: load_model("ratio_mean_scale_sqrt_a"),
    "ratio_mean_scale_sqrt_ab": lambda: load_model("ratio_mean_scale_sqrt_ab"),
    "power_scale": lambda: model_from_dict(
        {"parameters": _A_B, "mean": "a / b", "scale": "a ^ 0.5"}, name="power_scale"),
    "power_mean": lambda: model_from_dict(
        {"parameters": _A_B, "mean": "(a - 1) ^ 3 + a ^ b", "scale": "b ^ 2"},
        name="power_mean"),
}
TOL = 1e-8


@pytest.mark.parametrize("name", MODELS)
def test_passing_records_solve_the_reduced_problem(name):
    model = MODELS[name]()
    report = run_study(StudyConfig(model=model, T_list=(4, 20), K=200, lcd=DESK_LCD))
    observations, records = [], []
    for part1, part2 in zip(report.part1, report.part2):
        eps = design_disturbance_matrix(part2.horizon, 200, DESK_LCD)
        observations += [part1.z_rep, *make_design_observations(model, eps)]
        records += [part1.run, *part2.records]
    ctx = PosteriorContext(model, observations)
    passing = [k for k, record in enumerate(records) if record.passed]
    assert len(passing) == len(records) == 2 * (1 + 200)

    names = model.param_names
    omega = np.array([[records[k].estimates[p] for p in names] for k in passing])
    (m, dm, *_), (s, ds, *_), (_, dprior, hprior, *_) = model.mean_scale_prior_grad(omega)
    assert not dprior.any() and not hprior.any()  # a flat prior
    horizon, zbar, css = (getattr(ctx, a)[passing] for a in ("horizon", "obs_mean", "obs_css"))
    target = np.sqrt(css / horizon)
    scale = np.maximum(np.abs(zbar), target)
    assert np.all(np.abs(m - zbar) <= TOL * scale)
    assert np.all(np.abs(s - target) <= TOL * scale)

    jacobian = np.stack([dm, ds], axis=1)  # (rows, 2, n)
    assert np.all(np.linalg.matrix_rank(jacobian) == 2)
    fisher = (dm[:, :, None] * dm[:, None, :]
              + 2.0 * ds[:, :, None] * ds[:, None, :]) / (s * s)[:, None, None]
    want = np.diagonal(np.linalg.inv(horizon[:, None, None] * fisher), axis1=1, axis2=2)
    got = np.array([[records[k].local_variances[p] for p in names] for k in passing])
    assert np.all(np.abs(got - want) <= TOL * np.abs(want))

