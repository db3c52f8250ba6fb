"""A guided tour of the parallel-transport construction.

Starting from a random mixed qutrit and Hamiltonian, this walks through
every stage the phase engine uses: the eigenbasis rotation, the
closed-form ancilla Hamiltonian, its diagonalizing frame, the invariant
component weights, the vanishing transport residuals (with a negative
control), and the reassembly of the evolved state from its components.
"""

from dataclasses import replace

import numpy as np

import mixedphase as mp
from mixedphase.literal import component_state, parallel_residual, \
    total_geometric_phase, uhlmann_trace_phase
from mixedphase.phases import evolution_operator
from mixedphase.transport import ancilla_equation_residual, diagonalizing_frame


def main():
    problem = mp.random_instance(3, 3, 2024)
    prep = mp.prepare_problem(problem)
    amps = prep.problem.rho0.amps

    print("1. spectral decomposition")
    print(f"   eigenvalues of the state: {np.round(prep.problem.rho0.lambdas, 6)}")
    print(f"   amplitudes sqrt(lambda):  {np.round(amps, 6)}\n")

    print("2. ancilla Hamiltonian from the closed form")
    resid = ancilla_equation_residual(amps, prep.h_prime, prep.frame.k)
    print(f"   defining-equation residual: {resid:.2e}")
    print(f"   eigenvalues kappa: {np.round(prep.frame.kappas, 6)}\n")

    print("3. invariant component weights")
    print(f"   q = {np.round(prep.weights, 6)}   (sum = {prep.weights.sum():.12f})")
    for t in (0.0, 0.9, 2.7):
        u = evolution_operator(prep, t)
        norms = [np.vdot(chi, chi).real for chi in
                 (component_state(j, u, amps, prep.frame.z) for j in range(3))]
        print(f"   |component|^2 at t={t}: {np.round(norms, 6)}")
    print()

    print("4. parallel transport holds component by component")
    for j in range(3):
        r = parallel_residual(prep, j, 0.9, 1e-6)
        print(f"   component {j}: residual {r:.2e}")
    wrong = replace(prep, frame=diagonalizing_frame(np.zeros((3, 3), dtype=complex)))
    control = max(parallel_residual(wrong, j, 0.9, 1e-6) for j in range(3))
    print(f"   negative control (ancilla Hamiltonian zeroed): {control:.2e}\n")

    print("5. components reassemble the evolved state")
    t = 1.8
    u = evolution_operator(prep, t)
    total = sum(np.outer(chi, chi.conj()) for chi in
                (component_state(j, u, amps, prep.frame.z) for j in range(3)))
    rho_t = u @ np.diag(prep.problem.rho0.lambdas) @ u.conj().T
    print(f"   rebuild residual at t={t}: "
          f"{np.linalg.norm(total - rho_t, 'fro'):.2e}\n")

    print("6. the two phase routes agree")
    gamma = total_geometric_phase(prep, t, u)
    trace_phase = uhlmann_trace_phase(prep, t, u)
    print(f"   component sum:  {gamma:+.12f}")
    print(f"   trace formula:  {trace_phase:+.12f}")
    print(f"   difference:     {mp.circular_distance(gamma, trace_phase):.2e}")


if __name__ == "__main__":
    main()
