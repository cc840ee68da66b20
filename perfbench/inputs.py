"""Seeded input generators owned by the benchmark.

The library has no qudit measurement scheme beyond d=2, so the benchmark
builds the d+1 mutually unbiased bases (MUBs) of a prime dimension itself
(Wootters-Fields), pairs them on both factors of a maximally entangled
probe, and rotates that scheme per job so no two jobs share work.  Every
call into ``ppovm`` goes through the tracer ``tr`` so input generation
shows up in the traced run.
"""

from __future__ import annotations

import numpy as np

from ppovm import channels, measurement, rand


def _is_prime(d: int) -> bool:
    return d >= 2 and all(d % p for p in range(2, int(d**0.5) + 1))


def mub_bases(d: int) -> list[np.ndarray]:
    """The d+1 mutually unbiased bases of a prime dimension, one unitary
    per basis with the basis vectors as columns.

    The computational basis comes first; basis a (0 <= a < d) has vectors
    v_b[j] = w^(a j^2 + b j) / sqrt(d) with w = exp(2 pi i / d), and at
    d=2 the quadratic phase is i^(a j^2) instead.
    """
    if not _is_prime(d):
        raise ValueError(f"MUB construction needs a prime dimension, got {d}")
    j = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)
    quad = 1j ** (j * j) if d == 2 else np.exp(2j * np.pi * j * j / d)
    return [np.eye(d, dtype=complex)] + [(quad**a)[:, None] * fourier for a in range(d)]


def mub_couple(tr, d: int) -> measurement.TestCouple:
    """Maximally entangled probe on H_d (x) H_d with product-MUB
    measurements: every pair of bases, chosen uniformly, d^2 (d+1)^2
    outcomes in all."""
    bases = mub_bases(d)
    projectors = [[np.outer(b[:, k], b[:, k].conj()) for k in range(d)] for b in bases]
    weight = 1.0 / len(bases) ** 2
    effects, labels = [], []
    for p, first in enumerate(projectors):
        for q, second in enumerate(projectors):
            for k, pk in enumerate(first):
                for m, qm in enumerate(second):
                    effects.append(np.kron(pk, qm) * weight)
                    labels.append(f"{p}.{k},{q}.{m}")
    state = tr(channels.projector, tr(channels.max_entangled_ket, d, normalized=True))
    povm = tr(channels.Povm, tuple(effects), tuple(labels))
    return tr(measurement.TestCouple, 1.0, state, povm, d)


def rotate_couple(tr, couple, rng: np.random.Generator) -> measurement.TestCouple:
    """The same experiment measured in a Haar-rotated local frame: every
    POVM effect E becomes (V (x) W) E (V (x) W)^dag."""
    d = couple.qudit_dim()
    v = tr(rand.random_unitary, couple.anc_dim, rng)
    w = tr(rand.random_unitary, d, rng)
    k = np.kron(v, w)
    stack = np.asarray(couple.povm.effects)
    rotated = k @ stack @ k.conj().T
    rotated = (rotated + rotated.conj().transpose(0, 2, 1)) / 2
    povm = tr(channels.Povm, tuple(rotated), couple.povm.labels)
    return tr(measurement.TestCouple, couple.weight, couple.state, povm, couple.anc_dim)


def _max_gap(phases: np.ndarray) -> float:
    p = np.sort(np.mod(phases, 2 * np.pi))
    return float(np.diff(p, append=p[0] + 2 * np.pi).max())


def haar_pair(tr, d: int, rng: np.random.Generator, margin: float = 0.05):
    """Two Haar unitaries whose relative eigenphases leave no gap wider
    than pi - margin, so the single-shot plan exists with room to spare.
    At d >= 16 the first draw almost always qualifies."""
    while True:
        u = tr(rand.random_unitary, d, rng)
        v = tr(rand.random_unitary, d, rng)
        if _max_gap(np.angle(np.linalg.eigvals(u.conj().T @ v))) <= np.pi - margin:
            return u, v


def narrow_arc_pair(tr, d: int, copies: int, rng: np.random.Generator):
    """Unitaries U, V whose relative eigenphases fill an arc of known
    width theta, with ceil(pi / theta) == copies and pi / theta kept at
    least 0.3 away from an integer.

    Returns (U, V, theta).  The arc's ends are eigenphases, so theta is
    exact; the other d-2 phases fall uniformly inside it.
    """
    if copies < 2 or d < 2:
        raise ValueError("need copies >= 2 and d >= 2")
    theta = np.pi / (copies - 1 + rng.uniform(0.3, 0.7))
    phases = rng.uniform(0.0, 2 * np.pi) + np.concatenate(
        [[0.0, theta], rng.uniform(0.0, theta, d - 2)]
    )
    u = tr(rand.random_unitary, d, rng)
    w = tr(rand.random_unitary, d, rng)
    v = u @ (w * np.exp(1j * phases)) @ w.conj().T
    return u, v, float(theta)
