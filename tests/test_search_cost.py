"""Search-cost guards: each bracketed search that takes Newton steps keeps its saving.

The threshold root and Chernoff information each give ``divergence._search``
a slope, and the Bayes crossing takes joint Newton steps on its mixture and
its multiplier together.  A later edit that drops one of these still passes
every accuracy test, so these tests count the work, with spies on the test
side or from the crossing's certificate, and hold it below what the
searches took before (the counts stated in each test).
"""

import numpy as np

from seqstat import chernoff, divergence, gutman_bayes_exponent, solve_fixed_point
from seqstat.exponents import _PairProgram, _bayes_crossing

from conftest import random_interior_pair
from test_exponents import crossing_family


def interior_family():
    """600 interior pairs on 2 to 6 symbols."""
    rng = np.random.default_rng(20191203)
    return [random_interior_pair(rng, int(rng.integers(2, 7))) for _ in range(600)]


def test_threshold_root_evaluations():
    # without the slope D(q || m) / theta^2: median 12, mean 12.9, max 18
    evaluations = [
        solve_fixed_point(p, q, share * chernoff(p, q)).iterations
        for p, q in interior_family()
        for share in (0.1, 0.5, 0.9, 1.0)
    ]
    assert np.median(evaluations) <= 10
    assert max(evaluations) <= 18


def test_chernoff_evaluations(monkeypatch):
    # every evaluation of the exponent builds one end; 5,247 without psi''
    built = []
    end = divergence._End

    def counting(*args):
        built.append(1)
        return end(*args)

    monkeypatch.setattr(divergence, "_End", counting)
    for p, q in interior_family():
        chernoff(p, q)
    assert len(built) < 5247


def test_crossing_sweeps(monkeypatch):
    # 972 sweeps without the tangent start, with the slopes of curvature
    sweeps = []
    sweep = _PairProgram.sweep

    def counting(self, *args):
        sweeps.append(1)
        return sweep(self, *args)

    monkeypatch.setattr(_PairProgram, "sweep", counting)
    for alpha, p1, p2 in crossing_family(12, 50):
        gutman_bayes_exponent(alpha, p1, p2)
    assert len(sweeps) < 972


def test_crossing_kkt_solves():
    # the nested search, with the slopes and tangent starts of curvature,
    # took a median of 14 KKT solves per crossing here (and 15 on the
    # exponent table at seed 7): a full relaxation at every multiplier it
    # tried, plus one solve for each slope
    solves = [_bayes_crossing(alpha, p1, p2).solves for alpha, p1, p2 in crossing_family(12, 50)]
    assert np.median(solves) <= 10
