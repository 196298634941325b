"""
L1 kernel SVM as a linear program
==================================

The hinge-loss SVM with an L1 penalty on the dual coefficients is a
plain LP once every signed quantity is split into a positive pair.
Two Gaussian blobs give a quick train-accuracy check.
"""

import numpy as np

from physlp import SolverConfig, solve
from physlp.problems import (GaussianKernel, LinearKernel, SvmInstance,
                             build_l1svm_lp, decode_svm, two_gaussian_blobs)

rng = np.random.default_rng(0)
points, labels = two_gaussian_blobs(n_per_class=10, dim=4, sep=2.0, rng=rng)

for kernel in (LinearKernel(), GaussianKernel(sigma=1.0)):
    # c_reg = 2 makes separating strictly cheaper than paying every
    # hinge slack; at c_reg = 1 the two options tie exactly on
    # balanced data and the solver may settle on the trivial point
    inst = SvmInstance(points, labels, kernel, c_reg=2.0)
    # one LP per kernel: its size is printed, and it is what solve runs
    lp = build_l1svm_lp(inst)
    res = solve(lp, SolverConfig(max_iters=300))
    clf = decode_svm(res.x, inst)
    acc = np.mean(clf.predict(points) == labels)
    name = type(kernel).__name__
    print(f"{name:15s} LP {lp.n} vars x {lp.m} rows   "
          f"train accuracy {acc:.2f}   objective {res.objective:.3f}")

# decision values for a few points: sign is the predicted class
# (clf is the Gaussian kernel's, the last of the loop)
d = clf.decision(points[:4])
print("\ndecisions", np.round(d, 3), " labels", labels[:4])
