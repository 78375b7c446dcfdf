"""Search-cost guards: each bracketed search that takes Newton steps keeps its saving.

Chernoff information gives ``divergence._search`` a slope, the threshold
root takes Halley steps in ``1 / theta`` from ``D(q || p) / gamma``,
the Bayes crossing takes joint Newton steps on its mixture and its
multiplier together, and the reports' rate gate runs the Chernoff search
only where the Bhattacharyya bound leaves the rate undecided and takes each
exponent from its root's solve.  A later edit that drops one of these still passes
every accuracy test, so these tests count the work, with spies on the test
side or from the crossing's certificate, and hold it below what the
searches took before (the counts stated in each test).
"""

import numpy as np

from seqstat import (
    chernoff,
    divergence,
    exponent_report,
    fixedpoint,
    gjs,
    gutman_bayes_exponent,
    solve_fixed_point,
)
from seqstat.errors import GammaOutOfRange
from seqstat.exponents import _PairProgram, _bayes_crossing

from conftest import random_interior_pair
from test_exponents import crossing_family


def interior_family():
    """600 interior pairs on 2 to 6 symbols."""
    rng = np.random.default_rng(20191203)
    return [random_interior_pair(rng, int(rng.integers(2, 7))) for _ in range(600)]


def test_threshold_root_evaluations():
    # the doubling from theta = 1 and the Illinois search took a median of
    # 12, mean 12.9 and max 18 without the slope D(q || m) / theta^2, and 9
    # and 14 with it (tests/oracle.py::search_fixed_point); Newton steps in
    # 1 / theta from D(q || p) / gamma, with one probe, took a median of 6,
    # mean 5.77 and max 7 (tests/oracle.py::newton_fixed_point); Halley
    # steps with the curvature chi2(q || m) / (1 + u) take 4, 4.355 and 5
    evaluations = [
        solve_fixed_point(p, q, share * chernoff(p, q)).iterations
        for p, q in interior_family()
        for share in (0.1, 0.5, 0.9, 1.0)
    ]
    assert np.median(evaluations) <= 4
    assert np.mean(evaluations) <= 4.5
    assert max(evaluations) <= 5


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
    # 972 sweeps for the nested search on relaxed ends, Newton steps from
    # each end's slope (one more KKT solve per end) and no warm start
    # along the relaxed path's tangent
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
    # the nested search on relaxed ends, with a slope and a tangent start
    # from one more KKT solve at each end, took a median of 14 KKT solves
    # per crossing here (and 15 on the exponent table at seed 7): a full
    # relaxation at every multiplier it tried, plus one solve for each slope
    solves = [_bayes_crossing(alpha, p1, p2).solves for alpha, p1, p2 in crossing_family(12, 50)]
    assert np.median(solves) <= 10


def test_refused_joint_steps_cost_no_nested_search():
    # On these 400 pairs, joint Newton steps that handed a refused step over
    # to the nested search on relaxed ends took 3,139 sweeps, 1,443 of them
    # on the 48 crossings with a refused step.  A refused step now relaxes
    # at a safeguard point and the joint steps go on from there: 3,015 and
    # 1,319.  Until its first refused step a crossing takes the same steps,
    # so the crossings that relax at all are those 48
    certs = [_bayes_crossing(alpha, p1, p2) for alpha, p1, p2 in crossing_family(20191203, 400)]
    assert sum(cert.sweeps for cert in certs) < 3139
    assert sum(cert.sweeps for cert in certs if cert.relaxations) < 1443


def test_rate_gate_counts(monkeypatch):
    # exponent_report at shares 0.1 to 1.0 of each pair's cap.  The exact
    # gate maximised the Chernoff exponent on every call (500 here) and read
    # each ordered pair's D(p || q) twice, through kl and again in the
    # root's solve, and the report evaluated gjs again at both roots.  Now
    # the Bhattacharyya bound decides the rate unless it lies within
    # NEAR_CAP_WIDTH of it: the 50 rates at the cap and 31 below it, on
    # pairs whose optimum sits far from eta = 1/2 (most with a zero weight);
    # the gate's evaluator serves the root, and the exponents come from it
    cases = [(p1, p2, chernoff(p1, p2)) for _, p1, p2 in crossing_family(12, 50)]
    share = None
    exact_caps, divergences_at_zero, gjs_calls = [], [], []
    build = divergence._mixture_divergences

    def counting_chernoff(*args):
        exact_caps.append(share)
        return chernoff(*args)

    def counting_evaluator(*args):
        evaluate = build(*args)

        def counted(alpha):
            if alpha == 0.0:
                divergences_at_zero.append(1)
            return evaluate(alpha)

        return counted

    def counting_gjs(*args):
        gjs_calls.append(1)
        return gjs(*args)

    monkeypatch.setattr(fixedpoint, "chernoff", counting_chernoff)
    monkeypatch.setattr(fixedpoint, "_mixture_divergences", counting_evaluator)
    monkeypatch.setattr(divergence, "_mixture_divergences", counting_evaluator)
    monkeypatch.setattr(fixedpoint, "gjs", counting_gjs)
    calls = 0
    for p1, p2, cap in cases:
        for share in np.linspace(0.1, 1.0, 10):
            calls += 1
            try:
                exponent_report(p1, p2, float(share * cap))
            except GammaOutOfRange:
                pass  # on |X| = 2 a zero weight makes C = D(p || q), no root
    assert calls == 500
    assert exact_caps.count(1.0) == len(cases)
    assert len(exact_caps) <= 81
    assert len(divergences_at_zero) <= 2 * calls
    assert gjs_calls == []


def test_reports_evaluate_each_root_once_more(monkeypatch):
    # a report reads each exponent from its root's solve, which evaluates
    # the gate's evaluator at the root for its residual: every evaluator
    # serves one root and is evaluated at alpha > 0 once per iteration of
    # that solve plus once at the root (evaluating gjs there again for the
    # exponent took one more)
    cases = [(p1, p2, chernoff(p1, p2)) for _, p1, p2 in crossing_family(12, 20)]
    build = fixedpoint._mixture_divergences
    solve = fixedpoint.solve_fixed_point
    evaluations, results = {}, []

    def counting_evaluator(*args):
        evaluate = build(*args)

        def counted(alpha):
            if alpha > 0.0:
                evaluations[counted] += 1
            return evaluate(alpha)

        evaluations[counted] = 0
        return counted

    def recording(*args):
        result = solve(*args)
        results.append((args[3][0], result))
        return result

    monkeypatch.setattr(fixedpoint, "_mixture_divergences", counting_evaluator)
    monkeypatch.setattr(fixedpoint, "solve_fixed_point", recording)
    for p1, p2, cap in cases:
        for share in (0.1, 0.5, 0.9):
            exponent_report(p1, p2, float(share * cap))
            fixedpoint.multiclass_thetas([p1, p2], float(share * cap))
    assert len(results) == 4 * 3 * len(cases) == len(evaluations)
    assert [evaluations[pair] - result.iterations for pair, result in results] == len(results) * [1]
