"""Self-test of the benchmark's input generators.

    python3 perfbench/selftest.py

Exits 0 when every check passes, 1 otherwise.  Takes a few seconds: the
d=5 completeness check alone inverts a 900-effect design.
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from inputs import haar_pair, mub_bases, mub_couple, narrow_arc_pair, rotate_couple  # noqa: E402
from ppovm import discrimination, measurement, schemes, tomography  # noqa: E402
from tracing import NullTracer  # noqa: E402


def main() -> int:
    tr = NullTracer()
    rng = np.random.default_rng(7)
    checks = []

    for d in (2, 3, 5):
        bases = mub_bases(d)
        unitary = all(np.allclose(b.conj().T @ b, np.eye(d)) for b in bases)
        unbiased = all(
            np.allclose(np.abs(a.conj().T @ b) ** 2, 1.0 / d)
            for i, a in enumerate(bases) for b in bases[i + 1:]
        )
        checks.append((f"d={d}: {d + 1} orthonormal, mutually unbiased bases", unitary and unbiased))

    pp2 = measurement.build_ppovm([mub_couple(tr, 2)], 2)
    checks.append((
        "d=2: product-MUB scheme equals pauli_probe_ppovm as a multiset",
        measurement.effects_multiset_equal(pp2, schemes.pauli_probe_ppovm()),
    ))
    for d in (3, 5):
        couple = mub_couple(tr, d)
        pp = measurement.build_ppovm([couple], d)
        checks.append((
            f"d={d}: {len(pp)} effects, informationally complete with deficiency 0",
            len(pp) == d**2 * (d + 1) ** 2 and tomography.ic_check(pp) == (True, 0),
        ))
    rotated = measurement.build_ppovm([rotate_couple(tr, mub_couple(tr, 3), rng)], 3)
    checks.append(("d=3: a rotated scheme stays complete", tomography.ic_check(rotated) == (True, 0)))

    try:
        mub_bases(4)
        checks.append(("d=4 is refused", False))
    except ValueError:
        checks.append(("d=4 is refused", True))

    for d in (16, 32):
        u, v = haar_pair(tr, d, rng)
        phases, _ = discrimination.unitary_eig(u.conj().T @ v)
        checks.append((f"d={d}: Haar pair has zero in the hull", discrimination.zero_in_hull(phases)))
    for d, copies in ((4, 3), (6, 5), (10, 10)):
        u, v, theta = narrow_arc_pair(tr, d, copies, rng)
        phases, _ = discrimination.unitary_eig(u.conj().T @ v)
        gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
        arc = 2 * np.pi - gaps.max()
        checks.append((
            f"d={d}: narrow arc of width theta needs ceil(pi/theta) = {copies} copies",
            math.ceil(math.pi / theta) == copies
            and abs(arc - theta) < 1e-9
            and discrimination.min_copies(u, v, copies + 2) == copies,
        ))

    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
