"""Differential oracles: every registered oracle agrees on seeded scenarios,
and the registry/failure-arbitration plumbing behaves."""

import pytest

from repro.errors import ReproError
from repro.verify.oracles import (
    ORACLES,
    _compare_failures,
    default_library,
    oracle,
    select_oracles,
)
from repro.verify.scenarios import generate_pipelined_scenario, generate_scenario

EXPECTED_ORACLES = ("area-recovery", "sequential-slack",
                    "pipeline-cache", "sweep-session", "graphkit-kernels",
                    "graphkit-state-timing", "pipelined-vs-unrolled",
                    "pareto-front")


def test_registry_contains_the_documented_oracles_in_order():
    assert tuple(ORACLES) == EXPECTED_ORACLES
    for entry in ORACLES.values():
        assert entry.description


def test_select_oracles_resolves_names_and_rejects_unknown():
    assert [o.name for o in select_oracles(None)] == list(EXPECTED_ORACLES)
    assert [o.name for o in select_oracles(["pipeline-cache"])] \
        == ["pipeline-cache"]
    with pytest.raises(ReproError):
        select_oracles(["no-such-oracle"])


def test_duplicate_oracle_registration_is_rejected():
    with pytest.raises(ReproError):
        oracle("area-recovery", "duplicate")(lambda spec, library: "")


@pytest.mark.parametrize("name", EXPECTED_ORACLES)
@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_oracles_agree_on_generated_scenarios(name, seed):
    """The standing claim of the verification layer: on any generated
    scenario every pair of engines agrees.  A failure here is a real bug in
    one of the paired implementations (replay it via the printed seed)."""
    spec = generate_scenario(seed)
    outcome = ORACLES[name].run(spec, default_library())
    assert outcome.ok, (
        f"oracle {name} found a violation on seed {seed}: {outcome.details}")


def test_oracles_agree_on_a_branchy_and_a_pipelined_scenario():
    branchy = next(spec for spec in (generate_scenario(s) for s in range(50))
                   if any(seg[0] == "diamond" for seg in spec.segments))
    pipelined = next(spec for spec in (generate_scenario(s) for s in range(300))
                     if spec.pipeline_ii is not None)
    for spec in (branchy, pipelined):
        for entry in ORACLES.values():
            outcome = entry.run(spec)
            assert outcome.ok, (
                f"{entry.name} on seed {spec.seed}: {outcome.details}")


class TestPipelinedVsUnrolled:
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_on_the_pipelined_family(self, seed):
        spec = generate_pipelined_scenario(seed)
        assert spec.pipeline_ii is not None and spec.carried
        outcome = ORACLES["pipelined-vs-unrolled"].run(spec, default_library())
        assert outcome.ok, (
            f"seed {spec.seed}: {outcome.details}")

    def test_skips_unpipelined_scenarios(self):
        spec = next(s for s in (generate_scenario(seed) for seed in range(50))
                    if s.pipeline_ii is None)
        outcome = ORACLES["pipelined-vs-unrolled"].run(spec, default_library())
        assert outcome.ok and outcome.details == ""

    def test_catches_a_broken_modulo_schedule(self, monkeypatch):
        """Force the achieved II below what the recurrences allow: the
        expanded dependence check must flag the overlap."""
        import repro.verify.oracles as oracles_mod

        real_flow = oracles_mod.conventional_flow

        def lying_flow(design, library, **kwargs):
            flow = real_flow(design, library, **kwargs)
            if "initiation_interval" in flow.details:
                flow.details["initiation_interval"] = 1
                # Claim every schedule step collapses onto step 0 — a
                # maximally-overlapped (and wrong) pipelining claim.
                for item in flow.schedule.items:
                    object.__setattr__(item, "step", 0)
            return flow

        monkeypatch.setattr(oracles_mod, "conventional_flow", lying_flow)
        caught = False
        for seed in range(10):
            spec = generate_pipelined_scenario(seed)
            outcome = ORACLES["pipelined-vs-unrolled"].run(
                spec, default_library())
            if not outcome.ok:
                caught = True
                assert "violated" in outcome.details \
                    or "collide" in outcome.details
                break
        assert caught, "no pipelined scenario tripped the broken schedule"


def test_compare_failures_arbitration():
    # Both sides succeed: proceed to value comparison.
    assert _compare_failures("a", None, "b", None) is None
    # Both sides fail identically: agreement (empty violation).
    assert _compare_failures("a", "ReproError: x", "b", "ReproError: x") == ""
    # Asymmetric failures are violations.
    assert "disagree" in _compare_failures("a", "ReproError: x", "b", None)
    assert "disagree" in _compare_failures("a", None, "b", "ReproError: x")
    assert "disagree" in _compare_failures("a", "ReproError: x",
                                           "b", "ReproError: y")


def test_outcome_details_name_the_disagreement(monkeypatch):
    """Force a real divergence and check it is caught: a patched
    recover_area that skips every downgrade must trip the area-recovery
    oracle on a scenario where recovery finds work."""
    import repro.verify.oracles as oracles_mod
    from repro.rtl.area_recovery import AreaRecoveryResult
    from repro.rtl.timing import analyze_state_timing

    def no_recovery(datapath):
        area = datapath.binding.total_fu_area()
        return AreaRecoveryResult(downgrades=0, area_before=area,
                                  area_after=area,
                                  timing=analyze_state_timing(datapath))

    monkeypatch.setattr(oracles_mod, "recover_area", no_recovery)
    caught = False
    for seed in range(20):
        outcome = ORACLES["area-recovery"].run(generate_scenario(seed))
        if not outcome.ok:
            caught = True
            assert "downgrades" in outcome.details \
                or "area_after" in outcome.details
            break
    assert caught, "no scenario in the first 20 exercised area recovery"


def _first_caught(monkeypatch, patched, seeds=range(40)):
    """Run the area-recovery oracle with ``recover_area`` patched; returns
    the first scenario's violation details, or ``None``."""
    import repro.verify.oracles as oracles_mod

    monkeypatch.setattr(oracles_mod, "recover_area", patched)
    for seed in seeds:
        outcome = ORACLES["area-recovery"].run(generate_scenario(seed))
        if not outcome.ok:
            return outcome.details
    return None


def test_area_recovery_oracle_checks_the_accept_order(monkeypatch):
    """The heap pass accepts the reference's downgrades in the reference's
    order, so a pass that reports them in another order is a violation."""
    from repro.rtl.area_recovery import recover_area

    def reversed_order(datapath):
        result = recover_area(datapath)
        result.changed_instances.reverse()
        return result

    details = _first_caught(monkeypatch, reversed_order)
    assert details is not None, "no scenario changed two instances"
    assert details.startswith("changed instances ")


def test_area_recovery_oracle_checks_the_handed_over_report(monkeypatch):
    """FlowRun.finish consumes ``AreaRecoveryResult.timing``; a pass that
    hands back its pre-recovery report describes a datapath that no longer
    exists, which the oracle must catch."""
    import dataclasses

    from repro.rtl.area_recovery import recover_area
    from repro.rtl.timing import analyze_state_timing

    def stale_report(datapath):
        before = analyze_state_timing(datapath)
        return dataclasses.replace(recover_area(datapath), timing=before)

    details = _first_caught(monkeypatch, stale_report)
    assert details is not None, "no scenario exercised area recovery"
    assert "handed-over report's op_finish != fresh analysis" in details
    assert "downgrades" not in details and "changed instances" not in details
