"""Convergence of the brute-force holonomy oracle.

The discretized parallel amplitude chain knows nothing about the ancilla
construction: it only sees the density-matrix path and enforces pairwise
parallelity link by link. As the grid refines, its phase converges to
the engine's total geometric phase, which is what makes it a trustworthy
independent check.

The error falls fourfold per step doubling (second order) until it
meets the roundoff floor, which grows like steps times machine epsilon;
the closed form costs O(log steps), so the whole ladder runs at once.
"""

import mixedphase as mp


def main():
    t_end = 1.7
    for dim, seed in ((2, 123), (3, 456)):
        problem = mp.random_instance(dim, dim, seed)
        gamma = float(mp.evaluate(problem, t_end).gamma_total[0])
        print(f"random dim-{dim} instance (seed {seed}), t_end = {t_end}")
        print(f"engine total geometric phase: {gamma:+.10f}\n")
        print(f"{'steps':>10} {'holonomy':>14} {'error':>10}")
        for steps in (64, 256, 1024, 4096, 2**14, 2**16, 2**20, 2**24, 2**28):
            hol = mp.discrete_uhlmann_holonomy(problem, t_end, steps)
            print(f"{steps:>10} {hol:+14.10f} "
                  f"{mp.circular_distance(hol, gamma):10.2e}")
        print()


if __name__ == "__main__":
    main()
