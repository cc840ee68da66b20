import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppovm.channels import (
    KrausChannel,
    Povm,
    apply_channel,
    apply_first,
    apply_second,
    channel_of_choi,
    check_density,
    check_process_state,
    choi_of_channel,
    contraction_channel,
    depolarizing_channel,
    dual_channel,
    effect_checks,
    identity_channel,
    ket,
    max_entangled_ket,
    projector,
    stacked_effect_checks,
    state_to_map,
    trace_preservation_checks,
    unitary_channel,
)
from ppovm.linalg import dagger, hs_distance, kron, max_abs, vec_reshape
from ppovm.rand import random_channel, random_density, random_unitary


def choi_by_definition(ch):
    """Oracle: apply the channel to each |i><j| block of the entangled pair."""
    d = ch.dim_in
    omega = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            block = np.outer(ket(i, d), ket(j, d).conj())
            omega += kron(block, apply_channel(ch, block))
    return omega


def test_apply_identity():
    rng = np.random.default_rng(0)
    rho = random_density(3, rng)
    assert np.abs(apply_channel(identity_channel(3), rho) - rho).max() < 1e-14


def test_apply_contraction_sends_one_to_zero():
    ch = contraction_channel(ket(0, 2))
    out = apply_channel(ch, projector(ket(1, 2)))
    assert np.abs(out - projector(ket(0, 2))).max() < 1e-14


def test_apply_full_depolarizing():
    rng = np.random.default_rng(1)
    rho = random_density(2, rng)
    out = apply_channel(depolarizing_channel(1.0, 2), rho)
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_channel(identity_channel(2), np.eye(3))


def test_trace_preserved_on_random_channels():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        ch = random_channel(d, rng)
        assert ch.is_trace_preserving
        rho = random_density(d, rng)
        assert abs(np.trace(apply_channel(ch, rho)).real - 1.0) < 1e-10


def test_dual_of_identity_and_unitary():
    assert np.array_equal(dual_channel(identity_channel(2)).kraus[0], np.eye(2))
    u = random_unitary(3, np.random.default_rng(3))
    assert np.abs(dual_channel(unitary_channel(u)).kraus[0] - dagger(u)).max() < 1e-14


def test_duality_trace_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        rho = random_density(6, rng)
        ch = state_to_map(rho, 3, 2)  # a generic CP map H_2 -> H_3
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(dagger(b) @ apply_channel(ch, a))
        rhs = np.trace(dagger(apply_channel(dual_channel(ch), b)) @ a)
        assert abs(lhs - rhs) < 1e-10


def test_choi_of_identity_is_max_entangled_projector():
    omega = choi_of_channel(identity_channel(2))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
    assert np.array_equal(omega, expected)


def test_choi_of_contraction():
    omega = choi_of_channel(contraction_channel(ket(0, 2)))
    assert np.abs(omega - kron(np.eye(2), projector(ket(0, 2)))).max() < 1e-14


def test_choi_of_unitary_is_rank_one():
    u = random_unitary(3, np.random.default_rng(5))
    omega = choi_of_channel(unitary_channel(u))
    vec = kron(np.eye(3), u) @ max_entangled_ket(3)
    assert np.abs(omega - np.outer(vec, vec.conj())).max() < 1e-12


def test_choi_matches_blockwise_definition():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        ch = random_channel(d, rng)
        assert np.abs(choi_of_channel(ch) - choi_by_definition(ch)).max() < 1e-12


def test_choi_rejects_rectangular():
    ch = KrausChannel(2, 3, (np.eye(3, 2),))
    with pytest.raises(ValueError):
        choi_of_channel(ch)


def test_depolarizing_choi_eigenvalues():
    # brute-force oracle: Choi from the Kraus sum definition, then eigh
    omega = choi_by_definition(depolarizing_channel(0.5, 2))
    values = np.linalg.eigvalsh(omega)
    assert np.abs(values - np.array([0.25, 0.25, 0.25, 1.25])).max() < 1e-12
    assert np.abs(choi_of_channel(depolarizing_channel(0.5, 2)) - omega).max() < 1e-12


def test_channel_of_choi_identity():
    ch = channel_of_choi(choi_of_channel(identity_channel(2)), 2)
    assert len(ch.kraus) == 1
    rho = random_density(2, np.random.default_rng(7))
    assert np.abs(apply_channel(ch, rho) - rho).max() < 1e-12


def test_channel_of_choi_contraction_round_trip():
    omega = kron(np.eye(2), projector(ket(0, 2)))
    ch = channel_of_choi(omega, 2)
    assert len(ch.kraus) == 2
    assert np.abs(choi_of_channel(ch) - omega).max() < 1e-8


def test_channel_of_choi_round_trip_random():
    rng = np.random.default_rng(8)
    for _ in range(50):
        ch = random_channel(2, rng)
        omega = choi_of_channel(ch)
        back = channel_of_choi(omega, 2)
        assert back.is_trace_preserving
        assert hs_distance(choi_of_channel(back), omega) < 1e-8


@settings(max_examples=40)
@given(d=st.integers(2, 5), n_kraus=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
def test_kraus_choi_round_trip(d, n_kraus, seed):
    ch = random_channel(d, np.random.default_rng(seed), n_kraus=min(n_kraus, d * d))
    omega = choi_of_channel(ch)
    back = channel_of_choi(omega, d)
    assert back.is_trace_preserving
    assert len(back.kraus) <= min(n_kraus, d * d)
    assert hs_distance(choi_of_channel(back), omega) < 1e-8


def test_tp_iff_unit_marginal():
    from ppovm.linalg import partial_trace

    rng = np.random.default_rng(9)
    tp = random_channel(2, rng)
    assert np.abs(partial_trace(choi_of_channel(tp), 2, 2, "second") - np.eye(2)).max() < 1e-10
    cp_only = KrausChannel(2, 2, (np.diag([1.0, 0.5]),))
    assert not cp_only.is_trace_preserving
    marg = partial_trace(choi_of_channel(cp_only), 2, 2, "second")
    assert np.abs(marg - np.eye(2)).max() > 0.1


def test_state_to_map_max_entangled_is_depolarized_identity():
    d = 2
    psi = projector(max_entangled_ket(d, normalized=True))
    ch = state_to_map(psi, d, d)
    assert len(ch.kraus) == 1
    x = np.arange(4.0).reshape(2, 2) + 1j
    assert np.abs(apply_channel(ch, x) - x / d).max() < 1e-12


def test_state_to_map_reproduces_state():
    rng = np.random.default_rng(10)
    psi_op = projector(max_entangled_ket(2))
    for anc_dim, d in ((1, 2), (2, 2), (3, 2), (2, 3)):
        rho = random_density(anc_dim * d, rng)
        ch = state_to_map(rho, anc_dim, d)
        rebuilt = apply_first(ch, projector(max_entangled_ket(d)), d)
        assert np.abs(rebuilt - rho).max() < 1e-9
    # factorized case
    xi = random_density(2, rng)
    sigma = random_density(2, rng)
    ch = state_to_map(kron(xi, sigma), 2, 2)
    assert np.abs(apply_first(ch, psi_op, 2) - kron(xi, sigma)).max() < 1e-9


def test_state_to_map_basis_product():
    rho = kron(projector(ket(0, 2)), projector(ket(1, 2)))
    ch = state_to_map(rho, 2, 2)
    assert len(ch.kraus) == 1
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.abs(np.abs(ch.kraus[0]) - expected).max() < 1e-12


def test_apply_second_factorized():
    rng = np.random.default_rng(11)
    xi = random_density(3, rng)
    rho = random_density(2, rng)
    ch = random_channel(2, rng)
    got = apply_second(ch, kron(xi, rho), 3)
    assert np.abs(got - kron(xi, apply_channel(ch, rho))).max() < 1e-12


def test_factories_validate_inputs():
    with pytest.raises(ValueError):
        unitary_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        depolarizing_channel(1.5, 2)
    with pytest.raises(ValueError):
        contraction_channel(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        contraction_channel(np.array([np.nan, 0.0]))
    assert identity_channel(3).kraus[0].shape == (3, 3)
    for d in (2, 3):
        for ch in (contraction_channel(ket(0, d)), depolarizing_channel(0.3, d)):
            assert ch.is_trace_preserving


def test_channel_of_choi_near_the_float_limit():
    # (omega + omega^dag)/2 would overflow; the Hermitian part stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ch = channel_of_choi(1.5e308 * np.eye(4), 2)
    assert ch.kraus.shape == (4, 2, 2)
    assert np.isfinite(ch.kraus).all()
    assert np.allclose(ch.kraus / np.sqrt(1.5e308), channel_of_choi(np.eye(4), 2).kraus)


def test_check_density_and_process_state():
    rng = np.random.default_rng(12)
    check_density(random_density(3, rng))
    with pytest.raises(ValueError):
        check_density(np.eye(2))  # trace 2
    check_process_state(choi_of_channel(random_channel(2, rng)), 2)
    check_process_state(np.eye(4) / 2, 2)  # Choi of full depolarizing
    with pytest.raises(ValueError):
        check_process_state(np.eye(4), 2)  # trace 4 != 2
    with pytest.raises(ValueError):
        check_process_state(np.diag([2.0, 0.0, 0.0, 0.0]), 2)  # bad marginal


def test_tol_reaches_density_and_process_state_bounds():
    rho = np.diag([0.5, 0.5 + 5e-9])
    with pytest.raises(ValueError, match="trace_deviation"):
        check_density(rho)
    check_density(rho, tol=1e-6)
    omega = choi_of_channel(identity_channel(2)) * (1 + 5e-9)
    with pytest.raises(ValueError):
        check_process_state(omega, 2)
    check_process_state(omega, 2, tol=1e-6)


def test_povm_validation():
    p0 = projector(ket(0, 2))
    Povm((p0, np.eye(2) - p0), ("0", "1"))
    with pytest.raises(ValueError):
        Povm((p0,), ("0",))  # incomplete
    with pytest.raises(ValueError):
        Povm((1.5 * p0, np.eye(2) - 1.5 * p0), ("0", "1"))  # not effects


def test_stacked_effect_checks_are_per_effect():
    # a large Hermitian effect beside a small one that is non-Hermitian by
    # 1e-8: each residual is bounded relative to its own effect's scale;
    # the third effect's top eigenvalue is 1 + 5 tol
    small = projector(ket(0, 2)).astype(complex)
    small[0, 1] += 1e-8
    stack = np.array([1e3 * np.eye(2), small, (1 + 5e-9) * projector(ket(1, 2))])
    got = stacked_effect_checks(stack, 1e-9)
    assert got == [c for k, m in enumerate(stack) for c in effect_checks(m, 1e-9, f"effect_{k}")]
    assert [name for name, _, passed in got if not passed] == [
        "effect_0_max_eigenvalue", "effect_1_hermiticity_residual", "effect_2_max_eigenvalue"
    ]


# -- reference loops: the per-operator forms that the (K, dim_out, dim_in)
# Kraus stack replaced, which the stacked forms must match bit for bit -----


def _reference_tp_residual(ch):
    return max_abs(sum(dagger(a) @ a for a in ch.kraus) - np.eye(ch.dim_in))


def _reference_apply(ch, x):
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for a in ch.kraus:
        out += a @ x @ dagger(a)
    return out


def _reference_choi(ch):
    d = ch.dim_in
    omega = np.zeros((d * d, d * d), dtype=complex)
    for a in ch.kraus:
        v = a.T.reshape(-1)
        omega += np.outer(v, v.conj())
    return omega


def _scaled_columns(m):
    """The columns sqrt(s) v that channel_of_choi and state_to_map fold."""
    values, vectors = np.linalg.eigh((m + dagger(m)) / 2)
    keep = values > 1e-12 * values[-1]
    return np.sqrt(values[keep]) * vectors[:, keep]


def _reference_random_channel(d, rng, k):
    iso = random_unitary(d * k, rng)[:, :d]
    return [iso[e::k, :] for e in range(k)]


def _same_bytes(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kraus_stack_matches_reference_loops(d):
    rng = np.random.default_rng(40 + d)
    channels = [random_channel(d, np.random.default_rng(k), n_kraus=k) for k in range(1, d * d + 1)]
    channels += [depolarizing_channel(0.3, d), contraction_channel(ket(1, d))]
    for k in range(1, d * d + 1):
        ops = _reference_random_channel(d, np.random.default_rng(k), k)
        assert _same_bytes(channels[k - 1].kraus, ops)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for ch in channels:
        assert trace_preservation_checks(ch)[0][1] == _reference_tp_residual(ch)
        assert _same_bytes(apply_channel(ch, x), _reference_apply(ch, x))
        assert _same_bytes(dual_channel(ch).kraus, [dagger(a) for a in ch.kraus])
        omega = choi_of_channel(ch)
        assert _same_bytes(omega, _reference_choi(ch))
        cols = _scaled_columns(omega)
        expected = [c.reshape(d, d).T for c in cols.T]
        assert _same_bytes(channel_of_choi(omega, d).kraus, expected)
        for anc_dim, state in ((d, omega / d), (d + 1, random_density((d + 1) * d, rng))):
            cols = _scaled_columns(state)
            expected = [vec_reshape(c, anc_dim, d) for c in cols.T]
            assert _same_bytes(state_to_map(state, anc_dim, d).kraus, expected)


def test_kraus_stack_is_read_only_and_checked():
    ops = [np.eye(2), np.diag([1.0, -1.0])]
    ch = KrausChannel(2, 2, ops)
    assert ch.kraus.shape == (2, 2, 2) and ch.kraus.dtype == complex
    assert not ch.kraus.flags.writeable
    ops[0][0, 0] = 5.0  # the channel holds its own copy
    assert ch.kraus[0, 0, 0] == 1.0
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        KrausChannel(2, 2, ())
    with pytest.raises(ValueError, match=r"Kraus operator shape \(3, 2\) != \(2, 2\)"):
        KrausChannel(2, 2, [np.eye(3, 2)])
    with pytest.raises(ValueError, match=r"Kraus operators are not all \(2, 2\)"):
        KrausChannel(2, 2, [np.eye(2), np.eye(3)])
