import numpy as np
import pytest

from ppovm.channels import ket, projector
from ppovm.linalg import kron, max_abs
from ppovm.measurement import build_ppovm, effects_multiset_equal
from ppovm.schemes import (
    BLOCH_KETS,
    identity_vs_contraction_ppovm,
    mub_bases,
    mub_probe_couple,
    pauli_probe_ppovm,
    six_state_ppovm,
)

AXES = ("+x", "-x", "+y", "-y", "+z", "-z")


def test_pauli_probe_closed_form():
    pp = pauli_probe_ppovm()
    effects = dict(zip(pp.labels, pp.matrices))
    assert len(effects) == 36
    for a in AXES:
        for b in AXES:
            expected = kron(projector(BLOCH_KETS[a]), projector(BLOCH_KETS[b])) / 18
            assert max_abs(effects[f"{a},{b}"] - expected) < 1e-15


def test_six_state_closed_form():
    pp = six_state_ppovm()
    effects = dict(zip(pp.labels, pp.matrices))
    assert len(effects) == 36
    for nu in AXES:
        for mu in AXES:
            expected = kron(projector(BLOCH_KETS[nu]).T, projector(BLOCH_KETS[mu])) / 18
            assert max_abs(effects[f"{nu},{mu}"] - expected) < 1e-15
    assert max_abs(pp.norm_state - np.eye(2) / 2) < 1e-15


def test_identity_vs_contraction_closed_form():
    pp = identity_vs_contraction_ppovm()
    p0 = projector(ket(0, 2))
    p1 = projector(ket(1, 2))
    assert pp.labels == ("identity", "contraction")
    assert max_abs(pp.matrices[0] - kron(p1, np.eye(2) - p0)) < 1e-15
    assert max_abs(pp.matrices[1] - kron(p1, p0)) < 1e-15
    assert max_abs(pp.norm_state - p1) < 1e-15
    assert max_abs(sum(pp.matrices) - kron(p1, np.eye(2))) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mub_bases_are_mutually_unbiased(d):
    bases = mub_bases(d)
    assert len(bases) == d + 1
    for x, u in enumerate(bases):
        assert max_abs(u.conj().T @ u - np.eye(d)) < 1e-12
        for v in bases[x + 1 :]:
            assert max_abs(np.abs(u.conj().T @ v) ** 2 - 1.0 / d) < 1e-12


@pytest.mark.parametrize("d", [1, 4, 6, 9])
def test_mub_bases_need_a_prime_dimension(d):
    with pytest.raises(ValueError, match=f"prime dimension, got d = {d}$"):
        mub_bases(d)
    with pytest.raises(ValueError, match=f"got d = {d}$"):
        mub_probe_couple(d)


def test_qubit_mub_scheme_is_the_pauli_probe():
    couple = mub_probe_couple(2)
    assert len(couple.povm) == 36 and couple.povm.labels[:2] == ("0.0,0.0", "0.0,0.1")
    assert effects_multiset_equal(build_ppovm([couple], 2), pauli_probe_ppovm())
