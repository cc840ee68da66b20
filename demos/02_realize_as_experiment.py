#!/usr/bin/env python3
"""From abstract effects back to a concrete experiment.

Every valid collection of process effects can be implemented with a pure
test state on a minimal ancilla (dimension = rank of the normalization
state) and an ordinary POVM.  The recipe: purify rho^T, then conjugate
each effect with the pseudo-inverse of the purification operator.
"""

import numpy as np

from ppovm import build_ppovm, realize, validate_ppovm
from ppovm.channels import ket, projector
from ppovm.rand import random_ppovm

np.set_printoptions(precision=4, suppress=True)

# -- the textbook two-outcome discriminator ----------------------------------
p0 = projector(ket(0, 2))
p1 = projector(ket(1, 2))
pp = validate_ppovm(
    [np.kron(p1, np.eye(2) - p0), np.kron(p1, p0)],
    2,
    labels=["identity", "contraction"],
)
real = realize(pp)
print("two-outcome discriminator:")
print("ancilla dimension:", real.anc_dim, "(normalization state is rank one)")
print("test state (probe with |1><1|):", real.state.real, sep="\n")
print("POVM elements on the output:")
for lbl, f in zip(real.povm.labels, real.povm.effects):
    print(f"  {lbl}:")
    print(f.real)

# -- a random measurement with a rank-deficient normalization state ----------
rng = np.random.default_rng(5)
pp = random_ppovm(3, rng, rho_rank=2)
real = realize(pp)
print("\nrandom qutrit measurement, rank-2 normalization state:")
print("ancilla dimension:", real.anc_dim)
print("test state:", real.state, sep="\n")
print("realized POVM completeness residual:",
      np.abs(sum(real.povm.effects) - np.eye(real.anc_dim * 3)).max())

# the realization is the one couple build_ppovm takes back to the effects
back = build_ppovm([real], 3)
print("round-trip effect residual:",
      max(np.abs(a - b).max() for a, b in zip(pp.matrices, back.matrices)))
