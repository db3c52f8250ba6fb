"""A guided tour of the parallel-transport construction.

Starting from a random mixed qutrit and Hamiltonian, this walks through
every stage the phase engine uses: the eigenbasis rotation, the
closed-form ancilla Hamiltonian, its diagonalizing frame, the invariant
component weights, the parallel-transport condition (with a negative
control), the reassembly of the evolved state from its components, and
the phase routes that agree on the result.
"""

import numpy as np

import mixedphase as mp
from mixedphase.linalg import unitary_from_eig
from mixedphase.transport import ancilla_equation_residual, diagonalizing_frame, \
    transport_residual


def evolved_components(problem, frame, t):
    """U(t) and the unnormalized components U(t) C z^T |e_j>, one per column."""
    u = unitary_from_eig(problem.h_eigvals, problem.h_eigvecs, t)
    return u, u @ (frame.z * problem.amps).T


def main():
    problem = mp.random_instance(3, 3, 2024)
    frame = mp.prepare_problem(problem)
    amps, h_prime = problem.amps, problem.h_prime

    print("1. spectral decomposition")
    print(f"   eigenvalues of the state: {np.round(problem.rho0.lambdas, 6)}")
    print(f"   amplitudes sqrt(lambda):  {np.round(amps, 6)}")
    print(f"   eigenspace bounds: {problem.blocks}\n")

    print("2. ancilla Hamiltonian from the closed form")
    resid = ancilla_equation_residual(amps, h_prime, frame.k)
    print(f"   defining-equation residual: {resid:.2e}")
    print(f"   eigenvalues kappa: {np.round(frame.kappas, 6)}")
    print(f"   eigenspace bounds: {frame.blocks}\n")

    print("3. invariant component weights, carried by the frame")
    q = frame.q
    print(f"   q = {np.round(q, 6)}   (sum = {q.sum():.12f})")
    for t in (0.0, 0.9, 2.7):
        norms = (np.abs(evolved_components(problem, frame, t)[1]) ** 2).sum(axis=0)
        print(f"   |component|^2 at t={t}: {np.round(norms, 6)}")
    print()

    print("4. parallel transport holds component by component: energy -kappa_j q_j")
    chis = evolved_components(problem, frame, 0.9)[1]
    energies = ((chis.conj().T @ h_prime) * chis.T).sum(axis=1).real
    for j in range(3):
        print(f"   component {j}: <chi_j|h'|chi_j> = {energies[j]:+.9f}, "
              f"-kappa_j q_j = {-frame.kappas[j] * q[j]:+.9f}")
    print(f"   largest violation: {transport_residual(amps, h_prime, frame):.2e}")
    wrong = diagonalizing_frame(np.zeros((3, 3), dtype=complex), amps)
    control = transport_residual(amps, h_prime, wrong)
    print(f"   negative control (ancilla Hamiltonian zeroed): {control:.2e}\n")

    print("5. components reassemble the evolved state")
    t = 1.8
    u, chis = evolved_components(problem, frame, t)
    rho_t = u @ np.diag(problem.rho0.lambdas) @ u.conj().T
    print(f"   rebuild residual at t={t}: "
          f"{np.linalg.norm(chis @ chis.conj().T - rho_t, 'fro'):.2e}\n")

    print("6. the phase routes agree")
    batch = mp.evaluate(problem, t)
    gamma, trace_phase = float(batch.gamma_total[0]), float(batch.uhlmann[0])
    holonomy = mp.discrete_uhlmann_holonomy(problem, t, 2**16)
    print(f"   component sum:          {gamma:+.12f}")
    print(f"   trace formula:          {trace_phase:+.12f}")
    worst = max(mp.circular_distance(gamma, trace_phase),
                mp.circular_distance(gamma, holonomy))
    print(f"   holonomy, 2^16 steps:   {holonomy:+.12f}")
    print(f"   largest difference:     {worst:.2e}")


if __name__ == "__main__":
    main()
