"""Tests of the adaptive exploration driver.

Most tests drive the explorer with a synthetic ``evaluator`` over a
real (but cheap to *build*) FIR factory: designs are constructed for
fingerprinting, while the flow evaluation is replaced by a controlled area
curve.  The end-to-end engine path is exercised once on a small real sweep.
"""

import random

import pytest

from repro.explore.adaptive import (
    DESCENT_FRACTION,
    AdaptiveExplorer,
    RefinementPolicy,
)
from repro.explore.pareto import coverage
from repro.explore.store import ResultStore
from repro.workloads import KernelPointFactory, ResizerPointFactory

FIR = KernelPointFactory("fir", params=(("taps", 4),))


def synthetic_evaluator(area_of, calls=None):
    """A per-point ``evaluator`` producing DSEEntry-shaped metrics from a
    latency -> area function (other metrics derived deterministically);
    ``calls`` logs the evaluated latencies in order."""

    def evaluate(factory, library, p, margin_fraction, scheduling):
        if calls is not None:
            calls.append(p.latency)
        area = float(area_of(p.latency))
        flow = {
            "area": area,
            "power": area / 1000.0,
            "throughput": 1.0 / p.latency,
            "latency_steps": p.latency,
            "meets_timing": True,
            "fu_instances": 2,
            "registers": 3,
        }
        return {
            "point": {"name": p.name, "latency": p.latency,
                      "pipeline_ii": p.pipeline_ii,
                      "clock_period": p.clock_period},
            "conventional": dict(flow, area=area * 1.2),
            "slack_based": flow,
            "saving_percent": 100.0 * (1 - 1 / 1.2),
        }

    return evaluate


def explorer(area_of, latencies=range(4, 29), policy=None, calls=None,
             **kwargs):
    return AdaptiveExplorer(
        FIR, library=None, latencies=latencies,
        policy=policy or RefinementPolicy(),
        evaluator=synthetic_evaluator(area_of, calls),
        workload="fir_synth", **kwargs)


class TestAdaptiveOnSyntheticCurves:
    def test_flat_curve_stops_at_the_coarse_grid(self):
        result = explorer(lambda lat: 100.0).explore()
        assert result.engine_evaluations == 5
        assert result.waves == 0
        # Only the lowest latency is non-dominated on a flat curve.
        assert [p.raw_value("latency_steps") for p in result.front] == [4.0]

    def test_descent_triggers_bisection(self):
        result = explorer(lambda lat: 1000.0 / lat).explore()
        assert result.engine_evaluations > 5  # refined beyond the grid
        dense = explorer(lambda lat: 1000.0 / lat).explore_dense()
        assert result.engine_evaluations < dense.engine_evaluations

    def test_non_convex_spike_is_probed_exactly_once(self):
        # Flat except a spike on a coarse-grid member: only the convexity
        # witness can fire, it refines both neighbour intervals, and it
        # must not keep drilling around the spike forever.  The spike sits
        # 15 above the chord (more than CONVEXITY_FRACTION x 100), and its
        # drop of 15 stays under DESCENT_FRACTION x 115, so the descent
        # rule flags nothing.
        calls = []
        spike = {16: 115.0}
        result = explorer(lambda lat: spike.get(lat, 100.0),
                          latencies=range(4, 29), calls=calls).explore()
        # Coarse grid {4, 10, 16, 22, 28}; the spike at 16 flags (10, 16)
        # and (16, 22) whose midpoints are evaluated in one extra wave.
        assert calls[:5] == [4, 10, 16, 22, 28]
        assert calls[5:] == [13, 19]
        assert result.engine_evaluations == 7
        assert result.waves == 1

    def test_dense_mode_evaluates_every_candidate(self):
        latencies = range(4, 15)
        result = explorer(lambda lat: 1000.0 / lat,
                          latencies=latencies).explore_dense()
        assert result.engine_evaluations == len(list(latencies))
        assert result.evaluated_latencies == list(latencies)


@pytest.mark.parametrize("seed", range(10))
def test_adaptive_never_loses_a_dense_frontier_point_beyond_epsilon(seed):
    """The recovery property on random monotone step curves.

    For monotone non-increasing curves the refinement policy gives a
    provable bound: every dense-grid frontier point is epsilon-dominated
    by an adaptive point with epsilon = (width_stop - 1) latency states
    additively and DESCENT_FRACTION/(1 - DESCENT_FRACTION) relatively on
    the area.
    """
    rng = random.Random(seed)
    latencies = list(range(4, 4 + rng.randint(10, 30)))
    # A random non-increasing step curve with plateaus.
    area, curve = rng.uniform(500.0, 2000.0), {}
    for latency in latencies:
        curve[latency] = area
        if rng.random() < 0.4:
            area *= rng.uniform(0.55, 1.0)
    policy = RefinementPolicy(width_stop=3)
    adaptive = explorer(curve.__getitem__, latencies=latencies,
                        policy=policy).explore()
    dense = explorer(curve.__getitem__, latencies=latencies,
                     policy=policy).explore_dense()

    epsilon = (float(policy.width_stop - 1),
               ("rel", DESCENT_FRACTION / (1 - DESCENT_FRACTION)))
    assert coverage(adaptive.front, dense.front, epsilon) == 1.0
    assert adaptive.engine_evaluations <= dense.engine_evaluations


class TestConstructionValidation:
    def test_unknown_objective_fails_before_any_evaluation(self):
        calls = []
        with pytest.raises(Exception, match="unknown objective"):
            explorer(lambda lat: 100.0, calls=calls,
                     objectives=("latency_steps", "aera"))
        assert calls == []  # no sweep cost was paid

    def test_live_only_objective_is_rejected_with_guidance(self):
        with pytest.raises(Exception, match="runtime_s"):
            explorer(lambda lat: 100.0, objectives=("area", "runtime_s"))


class TestReuse:
    def test_store_resume_across_sessions(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        first = explorer(lambda lat: 1000.0 / lat,
                         store=ResultStore(path)).explore()
        assert first.engine_evaluations > 0
        again = explorer(lambda lat: 1000.0 / lat,
                         store=ResultStore(path)).explore()
        assert again.engine_evaluations == 0
        assert again.restored == len(first.evaluated_latencies)
        assert again.evaluated_latencies == first.evaluated_latencies

    def test_dense_after_adaptive_only_pays_the_difference(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        latencies = range(4, 21)
        adaptive = explorer(lambda lat: 1000.0 / lat, latencies=latencies,
                            store=ResultStore(path)).explore()
        dense = explorer(lambda lat: 1000.0 / lat, latencies=latencies,
                         store=ResultStore(path)).explore_dense()
        assert dense.restored == len(adaptive.evaluated_latencies)
        assert dense.engine_evaluations == \
            len(list(latencies)) - len(adaptive.evaluated_latencies)

    def test_margin_change_invalidates_the_store_key(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        explorer(lambda lat: 100.0, store=ResultStore(path),
                 margin_fraction=0.05).explore()
        other = explorer(lambda lat: 100.0, store=ResultStore(path),
                         margin_fraction=0.10).explore()
        assert other.restored == 0
        assert other.engine_evaluations == 5

    def test_structurally_identical_points_collapse_to_one_evaluation(self):
        """The resizer's structure ignores the latency knob, so a dense
        latency sweep needs exactly one flow evaluation."""
        calls = []
        result = AdaptiveExplorer(
            ResizerPointFactory(), library=None, latencies=range(4, 10),
            evaluator=synthetic_evaluator(lambda lat: 123.0, calls),
            workload="resizer").explore_dense()
        assert result.engine_evaluations == 1
        assert result.deduplicated == 5
        assert calls == [4]


class TestFailures:
    def test_a_failing_wave_keeps_its_good_points(self, library, tmp_path,
                                                  monkeypatch):
        """The wave's good points are stored before the failure raises,
        so a rerun evaluates only the point that failed."""
        from repro.errors import ReproError
        from repro.flows.sweep import SweepSession

        evaluate = SweepSession.evaluate
        evaluated, failing = [], {5}

        def flaky(self, point):
            evaluated.append(point.latency)
            if point.latency in failing:
                raise ReproError("injected flow failure")
            return evaluate(self, point)

        monkeypatch.setattr(SweepSession, "evaluate", flaky)
        path = str(tmp_path / "store.jsonl")

        def explore():
            return AdaptiveExplorer(FIR, library, latencies=[4, 5, 6],
                                    store=ResultStore(path), workload="fir",
                                    workers=1).explore_dense()

        with pytest.raises(ReproError, match="injected flow failure"):
            explore()
        assert sorted(evaluated) == [4, 5, 6]
        assert sorted(record["point"]["latency"]
                      for record in ResultStore(path).records()) == [4, 6]

        failing.clear()
        evaluated.clear()
        result = explore()
        assert evaluated == [5]
        assert (result.engine_evaluations, result.restored) == (1, 2)


class TestEngineIntegration:
    def test_real_engine_small_sweep_with_store(self, library, tmp_path):
        """End to end through the real flows on a small FIR sweep."""
        path = str(tmp_path / "fir.jsonl")
        result = AdaptiveExplorer(
            FIR, library, latencies=range(4, 9),
            policy=RefinementPolicy(coarse_points=3, width_stop=2),
            store=ResultStore(path), workload="fir",
            workers=1,
        ).explore()
        assert result.engine_evaluations >= 3
        assert result.front  # a real frontier came out
        for point in result.front:
            assert point.raw_value("area") > 0
        # Every evaluation was persisted and resumes for free.
        rerun = AdaptiveExplorer(
            FIR, library, latencies=range(4, 9),
            policy=RefinementPolicy(coarse_points=3, width_stop=2),
            store=ResultStore(path), workload="fir",
            workers=1,
        ).explore()
        assert rerun.engine_evaluations == 0
        assert rerun.evaluated_latencies == result.evaluated_latencies
