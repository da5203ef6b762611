"""Shrinking: delta-debugging guarantees and the injected-oracle mutation test."""

import pytest

from repro.ir.operations import OpKind
from repro.ir.validate import validate_design
from repro.verify.oracles import Oracle
from repro.verify.runner import run_fuzz
from repro.verify.scenarios import generate_scenario
from repro.verify.shrink import _candidates, shrink_spec


def _has_mul(spec):
    return any(op.kind is OpKind.MUL
               for op in spec.design().dfg.operations)


def _mul_seeds(count):
    seeds = [seed for seed in range(60) if _has_mul(generate_scenario(seed))]
    assert len(seeds) >= count
    return seeds[:count]


# -- delta-debugging guarantees ------------------------------------------------------


@pytest.mark.parametrize("seed", _mul_seeds(6))
def test_shrunk_spec_still_fails_and_is_no_larger(seed):
    """The two contractual properties of `repro verify shrink`: the output
    (a) still fails the predicate and (b) is no larger than the input."""
    spec = generate_scenario(seed)
    result = shrink_spec(spec, _has_mul, max_evaluations=500)
    assert _has_mul(result.spec)                                   # (a)
    assert result.spec.num_design_ops() <= spec.num_design_ops()   # (b)
    assert not result.exhausted_budget


def test_shrinking_is_deterministic():
    seed = _mul_seeds(1)[0]
    spec = generate_scenario(seed)
    first = shrink_spec(spec, _has_mul, max_evaluations=500)
    second = shrink_spec(spec, _has_mul, max_evaluations=500)
    assert first.spec == second.spec
    assert first.accepted_steps == second.accepted_steps
    assert first.evaluations == second.evaluations


def test_every_candidate_is_a_buildable_spec():
    """Candidates never need repair: the modulo-index encoding keeps any
    mutation valid, which is what lets the shrinker explore aggressively."""
    for seed in range(6):
        spec = generate_scenario(seed)
        for description, candidate in _candidates(spec):
            problems = [message
                        for message in validate_design(candidate.design())
                        if "dangling" not in message]
            assert problems == [], description
            assert candidate.num_design_ops() <= spec.num_design_ops()


def test_shrink_budget_is_honoured():
    spec = generate_scenario(_mul_seeds(1)[0])
    result = shrink_spec(spec, _has_mul, max_evaluations=3)
    assert result.evaluations <= 3


def test_shrink_reaches_a_minimal_mul_reproducer():
    """A mul-seeking predicate must shrink to read + mul + write."""
    spec = generate_scenario(_mul_seeds(2)[-1])
    result = shrink_spec(spec, _has_mul, max_evaluations=500)
    assert result.spec.num_design_ops() == 3
    kinds = sorted(op.kind.value
                   for op in result.spec.design().dfg.operations)
    assert kinds == ["mul", "read", "write"]


# -- the mutation test of the acceptance criteria ------------------------------------


def test_injected_oracle_violation_is_caught_and_shrunk_small():
    """End-to-end mutation test: fuzz with a deliberately-broken oracle
    (claims no design may contain a multiplier), assert the violation is
    caught by the loop and the recorded reproducer shrinks to at most 8
    operations."""

    def no_multipliers(spec, library):
        if _has_mul(spec):
            return "injected: design contains a multiplier"
        return ""

    injected = Oracle(name="injected-mul-ban",
                      description="mutation-test oracle",
                      check=no_multipliers)
    # Drive the runner directly with the injected oracle via monkey-free
    # plumbing: temporarily register it under a unique name.
    from repro.verify import oracles as oracles_mod

    oracles_mod.ORACLES[injected.name] = injected
    try:
        report = run_fuzz(seed=0, iterations=30,
                          oracle_names=[injected.name],
                          shrink=True, shrink_evaluations=500)
    finally:
        del oracles_mod.ORACLES[injected.name]

    assert report.failures, "the injected violation was never caught"
    failure = report.failures[0]
    assert failure.oracle == injected.name
    assert failure.shrunk is not None
    reproducer = failure.reproducer
    assert reproducer.num_design_ops() <= 8
    assert _has_mul(reproducer)
    # The reproducer replays from its serialised form alone.
    from repro.verify.scenarios import ScenarioSpec

    replayed = ScenarioSpec.from_dict(reproducer.to_dict())
    assert no_multipliers(replayed, None) != ""


def test_crashing_engine_is_recorded_not_fatal():
    """An exception escaping an oracle must become a recorded violation
    (with the traceback in the details), never abort the fuzz loop."""

    def crashes_on_mul(spec, library):
        if _has_mul(spec):
            raise IndexError("synthetic engine crash")
        return ""

    from repro.verify import oracles as oracles_mod

    name = "injected-crasher"
    oracles_mod.ORACLES[name] = Oracle(name=name, description="crash test",
                                       check=crashes_on_mul)
    try:
        report = run_fuzz(seed=0, iterations=10, oracle_names=[name],
                          shrink=True, shrink_evaluations=100)
    finally:
        del oracles_mod.ORACLES[name]

    assert report.iterations == 10  # the loop survived every crash
    assert report.failures
    failure = report.failures[0]
    assert "crash: IndexError" in failure.details
    assert failure.shrunk is not None
    assert failure.reproducer.num_design_ops() <= 8


def test_spec_design_memo_is_shared_but_excluded_from_pickle_and_eq():
    import pickle

    spec = generate_scenario(3)
    first = spec.design()
    assert spec.design() is first  # memoized
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec           # eq ignores the memo
    assert "_design" not in clone.__dict__  # memo not shipped
    assert clone.design() is not first
