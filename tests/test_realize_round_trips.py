"""Round trips of ``realize``: the one couple, of weight 1 and minimal
ancilla, that ``build_ppovm`` takes back to the same effects.

The module imports ``ppovm`` from wherever it is found and needs nothing
else of the checkout: the tier-1 tests run it over ``src``, and CI's
installed-package step runs a copy of it against the installed package.
``realize`` takes one route: the Pauli-probe file is a product grid,
and the random process POVMs, which are no product, are the N x 1 grid
of their effects and [1]."""

import numpy as np

from ppovm import TestCouple, build_ppovm, effects_multiset_equal, realize, serialize, validate_ppovm
from ppovm.cli import main
from ppovm.linalg import hermiticity_residuals
from ppovm.measurement import effect_grid
from ppovm.rand import random_ppovm


def test_the_pauli_probe_file_realizes_as_one_couple(tmp_path):
    path = str(tmp_path / "p.json")
    assert main(["gen", "pauli-probe", "--out", path]) == 0
    effects, labels, d = serialize.decode_ppovm_effects(serialize.read_json(path))
    pp = validate_ppovm(effects, d, labels=labels)
    assert effect_grid(pp) is not None
    couple = realize(pp)
    assert isinstance(couple, TestCouple) and couple.weight == 1.0 and couple.anc_dim == 2, couple
    assert effects_multiset_equal(build_ppovm([couple], 2), pp, 1e-9)


def test_rank_two_norm_states_realize_with_a_smaller_ancilla():
    # realize's support check, and its first-factor products with an
    # ancilla smaller than d, at d = 3 and d = 4
    g = np.random.default_rng(0)
    pps = [random_ppovm(d, g, rho_rank=2) for d in (3, 4)]
    assert [effect_grid(pp) for pp in pps] == [None, None]
    assert [realize(pp).anc_dim for pp in pps] == [2, 2]
    assert all(effects_multiset_equal(build_ppovm([realize(pp)], pp.d), pp, 1e-9) for pp in pps)


def test_realized_effects_at_d5_are_exactly_hermitian():
    # d = 5 with a rank-3 norm state and with two weighted couples: the
    # realized POVM is built without a residual pass, and build_ppovm
    # takes it back
    g = np.random.default_rng(0)
    pps = [random_ppovm(5, g, rho_rank=3), random_ppovm(5, g, n_couples=2)]
    assert [effect_grid(pp) for pp in pps] == [None, None]
    couples = [realize(pp) for pp in pps]
    assert [c.anc_dim for c in couples] == [3, 5]
    assert all(effects_multiset_equal(build_ppovm([c], 5), pp, 1e-9) for c, pp in zip(couples, pps))
    assert all((hermiticity_residuals(c.povm.effects)[0] == 0.0).all() for c in couples)
