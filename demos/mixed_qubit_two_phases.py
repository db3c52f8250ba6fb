"""One mixed qubit, two geometric phases.

A qubit with Bloch vector r = 0.6 along x precesses about z, so its
state traces the same great circle a pure |+> state would. Sweeping one
full period shows the two standard mixed-state definitions disagreeing:
the holonomy-based total geometric phase returns 0 at the cyclic point,
while the interferometric (eigenbasis) phase returns pi. The brute-force
discretized holonomy confirms the first.
"""

import numpy as np

import mixedphase as mp

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def main():
    r, omega = 0.6, 1.0
    rho = (np.eye(2) + r * SX) / 2
    problem = mp.Problem(mp.validate_density(rho), 0.5 * omega * SZ)

    period = 2 * np.pi / omega
    b = mp.evaluate(problem, np.linspace(0.0, period, 9))
    print(f"Bloch vector r = {r} along x, precessing about z, period {period:.4f}")
    print(f"state eigenvalues: {problem.rho0.lambdas}")
    print(f"component weights: {b.q}  (equal, and time-invariant)\n")

    print(f"{'t':>7} {'total':>9} {'trace':>9} {'interfer':>9} "
          f"{'|overlap|':>9} {'nu_0':>7} {'nu_1':>7}")
    for i, t in enumerate(b.t):
        print(f"{t:7.3f} {b.gamma_total[i]:9.4f} {b.uhlmann[i]:9.4f} "
              f"{b.sjoqvist[i]:9.4f} {b.overlap_magnitude[i]:9.4f} "
              f"{b.visibility[i, 0]:7.4f} {b.visibility[i, 1]:7.4f}")

    cyclic = mp.evaluate(problem, period)
    gamma, trace, sjo = cyclic.gamma_total[0], cyclic.uhlmann[0], cyclic.sjoqvist[0]
    hol = mp.discrete_uhlmann_holonomy(problem, period, 4096)
    print(f"\nat the cyclic point t = {period:.4f}:")
    print(f"  total geometric phase   {gamma:+.6f}"
          f"   (closed form: arg(-cos(pi sqrt(1-r^2))) = "
          f"{np.angle(-np.cos(np.pi * np.sqrt(1 - r**2))):+.6f})")
    print(f"  trace-formula phase     {trace:+.6f}   (the total phase, "
          f"contracted in the other order)")
    print(f"  interferometric phase   {sjo:+.6f}")
    print(f"  discretized holonomy    {hol:+.6f}   (4096 steps)")
    print(f"\nthe definitions split by "
          f"{mp.circular_distance(gamma, sjo):.6f} rad here; "
          f"for a pure state (r = 1) they would coincide.")


if __name__ == "__main__":
    main()
