"""evaluate at one (MinVars, MaxVars) point, for tests written per point.

evaluate takes a stack of K flat points and the c values at the batch's
hinged ids; evaluate_at packs one point as K = 1, reads c at those ids and
unpacks the single row, so a test can state values and partials per point.
"""

from collections import namedtuple

import numpy as np

from paucopt.objectives import evaluate, hinged_ids

# c_ids are the batch ids grad_max_c belongs to, positives first
PointLossGrad = namedtuple("PointLossGrad", "value grad_min grad_max_gamma c_ids grad_max_c")


def evaluate_at(cfg, mv, xv, batch, ds) -> PointLossGrad:
    ids = hinged_ids(cfg, batch)
    lg = evaluate(cfg, mv.flat()[None], np.array([xv.gamma]), batch, ds,
                  xv.c[ids][None], dims=mv.theta.layer_dims)
    return PointLossGrad(float(lg.value[0]), lg.grad_min[0], float(lg.grad_max_gamma[0]),
                         ids, lg.grad_max_c[0])
