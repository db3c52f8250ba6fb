"""The engine's headline phases against the 40-digit reference in
tests/exact.py: an accuracy bound set by the engine's own resolution,
not by a double-precision oracle."""

import numpy as np
import pytest

from mixedphase import circular_distance, evaluate, random_instance

import exact

EPS = float(np.finfo(float).eps)
TIMES = (0.3, 1.7, 25.0)


@pytest.mark.parametrize("dim, rank", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 1), (4, 4),
                                       (5, 2), (6, 3)])
def test_headline_phases_within_the_resolution_bound_of_the_truth(dim, rank):
    # a phase read off a sum of modulus |m| carries an error of about
    # (1 + |t| E) eps / |m|, E the batch's energy; the largest factor in
    # front of that was 4.1 over 240 cases (dim <= 4, every rank, six
    # seeds, |t| up to 100), so 64 leaves room without hiding a lost digit.
    # The deficient ranks past n = 4 hold the kernel's removal to it too
    problem = random_instance(dim, rank, 10 * dim + rank)
    batch = evaluate(problem, TIMES)
    for i, t in enumerate(TIMES):
        bound = 64.0 * (1.0 + abs(t) * batch.energy) * EPS
        truth_total, truth_sjoqvist = exact.headline_phases(problem, t)
        err = circular_distance(batch.gamma_total[i], truth_total)
        assert err * batch.overlap_magnitude[i] <= bound, ("gamma_total", t, err)
        err = circular_distance(batch.sjoqvist[i], truth_sjoqvist)
        assert err * batch.sjoqvist_magnitude[i] <= bound, ("sjoqvist", t, err)
