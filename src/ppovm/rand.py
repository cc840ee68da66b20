"""Seeded random generators for states, measurements, and channels."""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, Povm, projector
from .linalg import dagger, mat_sqrt_psd, pinv
from .measurement import ProcessPovm, TestCouple, build_ppovm, purification


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = _ginibre(rng, d, 1).reshape(-1)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density operator; ``rank`` bounds the number of nonzero
    eigenvalues (full rank by default)."""
    k = d if rank is None else rank
    g = _ginibre(rng, d, k)
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_effect(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random effect: Haar basis with eigenvalues uniform in [0, 1]."""
    u = random_unitary(d, rng)
    return u @ np.diag(rng.uniform(0.0, 1.0, d)) @ dagger(u)


def random_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Random POVM: positive Ginibre dyads renormalized to sum to I."""
    parts = []
    for _ in range(n_outcomes):
        g = _ginibre(rng, d, d)
        parts.append(g @ dagger(g))
    total = sum(parts)
    root = pinv(mat_sqrt_psd(total, 1e-12), 1e-12)
    effects = [(root @ p @ root + dagger(root @ p @ root)) / 2 for p in parts]
    # absorb the rounding slack so the sum is the identity to machine precision
    slack = (np.eye(d) - sum(effects)) / n_outcomes
    effects = [e + slack for e in effects]
    return Povm(tuple(effects), tuple(str(k) for k in range(n_outcomes)))


def random_channel(d: int, rng: np.random.Generator, n_kraus: int | None = None) -> KrausChannel:
    """Random CPTP channel from a Haar-random Stinespring isometry."""
    k = d if n_kraus is None else n_kraus
    iso = random_unitary(d * k, rng)[:, :d]  # isometry H_d -> H_d (x) H_env
    # A_e = (I (x) <e|) V, whose row m is row m*k + e of V
    return KrausChannel(d, d, iso.reshape(d, k, d).swapaxes(0, 1))


def random_test_couple(
    d: int,
    anc_dim: int,
    rng: np.random.Generator,
    n_outcomes: int | None = None,
    weight: float = 1.0,
    rank: int | None = None,
) -> TestCouple:
    """Random couple: test state on H_anc (x) H_d plus a random POVM."""
    n = anc_dim * d
    state = random_density(n, rng, rank=rank)
    povm = random_povm(n, n_outcomes if n_outcomes is not None else n + 1, rng)
    return TestCouple(weight, state, povm, anc_dim)


def random_ppovm(
    d: int,
    rng: np.random.Generator,
    n_couples: int = 1,
    rho_rank: int | None = None,
) -> ProcessPovm:
    """Random valid process POVM.

    With ``rho_rank`` set (single couple only) the normalization state has
    exactly that rank: the test state is the minimal purification
    (``measurement.purification``) of a random rank-limited qudit state.
    """
    if rho_rank is not None:
        if n_couples != 1:
            raise ValueError("rank control is only supported for a single couple")
        a, _ = purification(random_density(d, rng, rank=rho_rank).T)
        r = a.shape[0]
        povm = random_povm(r * d, r * d + 1, rng)
        return build_ppovm([TestCouple(1.0, projector(a.reshape(-1)), povm, r)], d)
    weights = rng.dirichlet(np.ones(n_couples))
    couples = [
        random_test_couple(d, int(rng.integers(1, 3)), rng, weight=float(w))
        for w in weights
    ]
    return build_ppovm(couples, d)
