"""The pure-state limit, where every definition agrees.

For rank-1 states the total geometric phase, the interferometric phase,
and the direct pure-state reference (total phase minus dynamical phase)
are one and the same number. This script samples random pure qubits and
qutrits with random Hamiltonians and tabulates the three values and
their spread.
"""

import numpy as np

import mixedphase as mp


def main():
    rng = np.random.default_rng(4)
    t = 1.1
    print(f"random pure states, evolution time t = {t}\n")
    print(f"{'dim':>3} {'total':>9} {'interfer':>9} {'reference':>9} {'spread':>9}")
    worst = 0.0
    for i in range(12):
        n = 2 if i % 2 == 0 else 3
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        problem = mp.Problem(mp.validate_density(np.outer(psi, psi.conj())), h)
        prep = mp.prepare_problem(problem)
        u = mp.evolution_operator(prep, t)
        gamma = mp.total_geometric_phase(prep, t, u)
        sjo = mp.sjoqvist_phase(prep, t, u)
        ref = mp.pancharatnam_phase(psi, h, t)
        spread = max(mp.circular_distance(gamma, sjo),
                     mp.circular_distance(gamma, ref),
                     mp.circular_distance(sjo, ref))
        worst = max(worst, spread)
        print(f"{n:>3} {gamma:9.5f} {sjo:9.5f} {ref:9.5f} {spread:9.2e}")
    print(f"\nlargest spread: {worst:.2e} rad")

    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    print("\ntextbook check: |+> precessing one full turn about z encloses the")
    print("equatorial great circle, so the phase is minus half its solid angle:")
    print(f"  reference value  {mp.pancharatnam_phase(plus, 0.5 * sz, 2 * np.pi):+.6f}")
    print(f"  expected         {np.pi:+.6f}  (pi, i.e. -2*pi/2 up to branch)")


if __name__ == "__main__":
    main()
