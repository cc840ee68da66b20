"""Ready-made qubit measurement schemes.

Two informationally complete schemes that turn out to define the same
process POVM, and the two-outcome scheme that tells the identity channel
from the contraction onto |0>.
"""

from __future__ import annotations

import numpy as np

from .channels import Povm, ket, max_entangled_ket, projector
from .linalg import kron
from .measurement import ProcessPovm, TestCouple, build_ppovm

_SQ = 1.0 / np.sqrt(2.0)

# eigenvectors of the three Pauli operators, by eigenvalue sign
BLOCH_KETS = {
    "+x": np.array([_SQ, _SQ], dtype=complex),
    "-x": np.array([_SQ, -_SQ], dtype=complex),
    "+y": np.array([_SQ, 1j * _SQ], dtype=complex),
    "-y": np.array([_SQ, -1j * _SQ], dtype=complex),
    "+z": np.array([1.0, 0.0], dtype=complex),
    "-z": np.array([0.0, 1.0], dtype=complex),
}

_AXES = ("+x", "-x", "+y", "-y", "+z", "-z")


def pauli_probe_couple() -> TestCouple:
    """Entangled-probe scheme: maximally entangled test state, joint Pauli
    eigenbasis measurements chosen uniformly over the 9 axis pairs."""
    state = projector(max_entangled_ket(2, normalized=True))
    bloch = np.array([projector(BLOCH_KETS[a]) for a in _AXES])
    labels = [f"{a},{b}" for a in _AXES for b in _AXES]
    return TestCouple(1.0, state, Povm(kron(bloch, bloch) / 9.0, labels), 2)


def pauli_probe_ppovm() -> ProcessPovm:
    """The 36-effect process POVM of the entangled-probe scheme."""
    return build_ppovm([pauli_probe_couple()], 2)


def six_state_couples() -> list[TestCouple]:
    """Prepare-and-measure scheme: the six Pauli eigenstates as ancilla-free
    probes (weight 1/6 each), full Pauli tomography on the output."""
    effects = tuple(projector(BLOCH_KETS[mu]) / 3.0 for mu in _AXES)
    povm = Povm(effects, _AXES)
    return [
        TestCouple(1.0 / 6.0, projector(BLOCH_KETS[nu]), povm, 1) for nu in _AXES
    ]


def six_state_ppovm() -> ProcessPovm:
    """The 36-effect process POVM of the six-state scheme.

    Equal to the entangled-probe process POVM as a multiset of matrices:
    transposition maps each Bloch projector to the one with the y-axis
    flipped.
    """
    pp = build_ppovm(six_state_couples(), 2)
    labels = [f"{nu},{mu}" for nu in _AXES for mu in _AXES]
    return ProcessPovm(2, pp.effects, pp.norm_state, labels)


def identity_vs_contraction_couple() -> TestCouple:
    """Probe with |1>; seeing anything but |0> certifies the identity."""
    p0 = projector(ket(0, 2))
    povm = Povm(
        (np.eye(2, dtype=complex) - p0, p0), ("identity", "contraction")
    )
    return TestCouple(1.0, projector(ket(1, 2)), povm, 1)


def identity_vs_contraction_ppovm() -> ProcessPovm:
    """Two-outcome process POVM discriminating the identity channel from
    the contraction onto |0> without error."""
    return build_ppovm([identity_vs_contraction_couple()], 2)
