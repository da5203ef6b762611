"""The ``repro verify`` CLI: determinism, exit codes, corpus wiring."""

import json
import re

import pytest

from repro.core.jsonl import dump_record
from repro.obs.metrics import snapshot
from repro.verify import runner as runner_mod
from repro.verify.cli import main
from repro.verify.corpus import Corpus
from repro.verify.oracles import ORACLES, Oracle
from repro.verify.runner import run_fuzz
from repro.verify.scenarios import generate_scenario


def _digest_of(output: str) -> str:
    match = re.search(r"scenario digest: ([0-9a-f]{64})", output)
    assert match, output
    return match.group(1)


def test_run_is_deterministic_same_seed_same_digest(capsys):
    assert main(["run", "--iterations", "25", "--seed", "3"]) == 0
    first = _digest_of(capsys.readouterr().out)
    assert main(["run", "--iterations", "25", "--seed", "3"]) == 0
    second = _digest_of(capsys.readouterr().out)
    assert first == second

    assert main(["run", "--iterations", "25", "--seed", "4"]) == 0
    other = _digest_of(capsys.readouterr().out)
    assert other != first


def test_acceptance_200_iterations_seed_0_is_deterministic():
    """The acceptance criterion, at the API level: 200 iterations at seed 0
    complete without violations and reproduce the same scenario
    fingerprints run over run."""
    first = run_fuzz(seed=0, iterations=200)
    second = run_fuzz(seed=0, iterations=200)
    assert first.ok and second.ok
    assert first.iterations == second.iterations == 200
    assert first.fingerprints == second.fingerprints
    assert first.scenario_digest == second.scenario_digest


def test_acceptance_pipelined_vs_unrolled_200_iterations_clean():
    """The pipelined acceptance criterion: 200 iterations of the
    loop-carried straight-line family against the pipelined-vs-unrolled
    oracle find no violation."""
    from repro.verify.scenarios import ScenarioProfile

    profile = ScenarioProfile(diamond_probability=0.0,
                              pipeline_probability=1.0)
    report = run_fuzz(seed=0, iterations=200,
                      oracle_names=["pipelined-vs-unrolled"], profile=profile)
    assert report.ok, [f.details for f in report.failures[:3]]
    assert report.checked_per_oracle == {"pipelined-vs-unrolled": 200}


def test_run_respects_oracle_subset(capsys):
    assert main(["run", "--iterations", "6", "--seed", "0",
                 "--oracles", "pareto-front"]) == 0
    out = capsys.readouterr().out
    assert "pareto-front: 6 checked" in out
    assert "sequential-slack" not in out


def test_run_budget_seconds_stops_early(capsys):
    assert main(["run", "--budget-seconds", "0", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "0 scenario check(s)" in out
    assert "budget exhausted" in out


@pytest.fixture()
def hanging_oracle():
    """A registered oracle that runs until a deadline stops it."""

    def hang(spec, library):
        import time

        from repro.core.deadline import check_deadline

        while True:
            check_deadline()
            time.sleep(0.01)

    name = "hanging-cli-oracle"
    ORACLES[name] = Oracle(name=name, description="test oracle", check=hang)
    try:
        yield name
    finally:
        del ORACLES[name]


def _timeouts_and_timings(oracle_name):
    """``oracle.timeout`` and the observation count of the oracle's
    ``oracle.<name>.seconds`` histogram."""
    metrics = snapshot()
    timings = metrics["histograms"].get(f"oracle.{oracle_name}.seconds", {})
    return (metrics["counters"].get("oracle.timeout", 0),
            timings.get("count", 0))


def test_a_check_the_budget_cuts_short_is_not_a_violation(tmp_path, capsys,
                                                          hanging_oracle):
    corpus = tmp_path / "b" / "c.jsonl"
    before = _timeouts_and_timings(hanging_oracle)
    assert main(["run", "--budget-seconds", "0.3", "--seed", "0",
                 "--oracles", hanging_oracle, "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "0 scenario check(s)" in out
    assert f"1 check cut short by the budget ({hanging_oracle})" in out
    assert "no oracle violations" in out
    assert not corpus.exists()
    # Unchecked, so neither a timeout nor a timing.
    assert _timeouts_and_timings(hanging_oracle) == before


def test_a_hang_under_the_oracle_deadline_fails_the_run(tmp_path, capsys,
                                                        hanging_oracle):
    corpus = tmp_path / "c.jsonl"
    timeouts, timings = _timeouts_and_timings(hanging_oracle)
    assert main(["run", "--budget-seconds", "5", "--iterations", "1",
                 "--oracle-deadline", "0.1", "--seed", "0",
                 "--oracles", hanging_oracle, "--corpus", str(corpus)]) == 1
    assert "1 oracle violation(s)" in capsys.readouterr().out
    assert len(Corpus(str(corpus))) == 1
    assert _timeouts_and_timings(hanging_oracle) == (timeouts + 1,
                                                     timings + 1)


def test_run_rejects_unknown_oracles(capsys):
    assert main(["run", "--iterations", "1",
                 "--oracles", "definitely-not-an-oracle"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_list_oracles(capsys):
    assert main(["run", "--list-oracles"]) == 0
    out = capsys.readouterr().out
    for name in ORACLES:
        assert name in out


@pytest.fixture()
def injected_oracle():
    """A deliberately broken oracle registered for the duration of a test."""

    def no_multipliers(spec, library):
        from repro.ir.operations import OpKind

        if any(op.kind is OpKind.MUL for op in spec.design().dfg.operations):
            return "injected: design contains a multiplier"
        return ""

    name = "injected-cli-mul-ban"
    ORACLES[name] = Oracle(name=name, description="test oracle",
                           check=no_multipliers)
    try:
        yield name
    finally:
        del ORACLES[name]


def test_run_records_failures_and_exits_nonzero(tmp_path, capsys,
                                                injected_oracle):
    corpus_path = str(tmp_path / "fuzz.jsonl")
    code = main(["run", "--iterations", "20", "--seed", "0",
                 "--oracles", injected_oracle, "--corpus", corpus_path])
    out = capsys.readouterr().out
    assert code == 1
    assert "violation" in out
    assert "reproducer:" in out

    corpus = Corpus(corpus_path)
    assert len(corpus) >= 2  # the raw failure plus its shrunk reproducer
    kinds = {record["kind"] for record in corpus.records()}
    assert kinds == {"failure", "shrunk"}
    shrunk = [record for record in corpus.records()
              if record["kind"] == "shrunk"]
    assert min(record["ops"] for record in shrunk) <= 8


def test_replay_reports_still_failing_entries(tmp_path, capsys,
                                              injected_oracle):
    corpus_path = str(tmp_path / "fuzz.jsonl")
    main(["run", "--iterations", "20", "--seed", "0",
          "--oracles", injected_oracle, "--corpus", corpus_path])
    capsys.readouterr()

    # Still failing while the injected oracle is registered.
    assert main(["replay", "--corpus", corpus_path]) == 1
    assert "still failing" in capsys.readouterr().out


def test_run_writes_oracle_timings_into_a_missing_directory(tmp_path, capsys):
    """The nightly writes its corpus and its timings into a fresh
    directory; the timings report must not need it to exist."""
    timings = tmp_path / "fuzz-out" / "oracle-timings.json"
    assert main(["run", "--iterations", "3", "--seed", "0",
                 "--oracle-timings", str(timings)]) == 0
    assert f"oracle timings: {timings}" in capsys.readouterr().out
    report = json.loads(timings.read_text(encoding="utf-8"))
    assert report["iterations"] == 3
    assert sum(oracle["checked"] for oracle in report["oracles"].values()) == 3


def test_nightly_shard_corpora_merge_and_replay(tmp_path, capsys,
                                                injected_oracle):
    """The nightly fan-in: two shards' corpora merge into one corpus whose
    every record replays, and a conflicting payload fails the merge."""
    shards = []
    for shard in range(2):
        path = str(tmp_path / f"fuzz-shard-{shard}" / "corpus.jsonl")
        assert main(["run", "--iterations", "4", "--seed", str(100 + shard),
                     "--oracles", injected_oracle, "--no-shrink",
                     "--corpus", path]) == 1
        shards.append(path)
    capsys.readouterr()
    total = sum(len(Corpus(path)) for path in shards)
    assert total >= 2

    merged = str(tmp_path / "merged" / "corpus.jsonl")
    assert main(["merge", "--out", merged] + shards) == 0
    out = capsys.readouterr().out
    assert f"merged {total} record(s) into {total} unique" in out
    assert "merge clean" in out
    assert len(Corpus(merged)) == total

    assert main(["replay", "--corpus", merged]) == 1
    assert f"replayed {total} record(s): {total} still failing" \
        in capsys.readouterr().out

    record = dict(Corpus(shards[0]).records()[0], details="another message")
    conflict = tmp_path / "conflict.jsonl"
    conflict.write_text(dump_record(record) + "\n", encoding="utf-8")
    assert main(["merge", "--out", str(tmp_path / "again.jsonl"),
                 shards[0], str(conflict)]) == 1
    assert "1 conflict(s)" in capsys.readouterr().out


def test_merge_reads_a_missing_corpus_as_empty(tmp_path, capsys):
    """A shard that found no violation writes no corpus file."""
    out = tmp_path / "merged.jsonl"
    assert main(["merge", "--out", str(out),
                 str(tmp_path / "absent.jsonl")]) == 0
    assert "merged 0 record(s) into 0 unique" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == ""


def test_merge_reports_an_unreadable_corpus(tmp_path, capsys):
    assert main(["merge", "--out", str(tmp_path / "merged.jsonl"),
                 str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err


def test_replay_unknown_oracle_reports_clear_error(tmp_path, capsys):
    """A corpus entry whose oracle has been renamed/removed must fail the
    replay with a readable 'unknown oracle' outcome — not crash, and not be
    skipped as a silent pass."""
    corpus_path = str(tmp_path / "stale.jsonl")
    corpus = Corpus(corpus_path)
    corpus.add(generate_scenario(1), "retired-oracle", "was failing once")
    corpus.add(generate_scenario(2), "pareto-front", "fine either way")

    assert main(["replay", "--corpus", corpus_path]) == 1
    out = capsys.readouterr().out
    # Both records are accounted for: the live oracle replays, the stale one
    # fails loudly with the reason and the available registry.
    assert "replayed 2 record(s)" in out
    assert "unknown oracle" in out and "retired-oracle" in out
    assert "Traceback" not in out

    # An explicit filter that excludes the stale record still works.
    assert main(["replay", "--corpus", corpus_path,
                 "--oracles", "pareto-front"]) == 0


def test_replay_treats_fixed_entries_as_success(tmp_path, capsys):
    corpus_path = str(tmp_path / "fixed.jsonl")
    corpus = Corpus(corpus_path)
    # A record for a real oracle that (correctly) passes on this scenario:
    # the regression it once caught is "fixed".
    corpus.add(generate_scenario(1), "pareto-front", "was failing once")
    assert main(["replay", "--corpus", corpus_path]) == 0
    assert "1 fixed" in capsys.readouterr().out


def test_shrink_subcommand_minimizes_a_corpus_entry(tmp_path, capsys,
                                                    injected_oracle):
    corpus_path = str(tmp_path / "fuzz.jsonl")
    # Record one unshrunk failure.
    code = main(["run", "--iterations", "20", "--seed", "0",
                 "--oracles", injected_oracle, "--corpus", corpus_path,
                 "--no-shrink"])
    assert code == 1
    capsys.readouterr()
    corpus = Corpus(corpus_path)
    fingerprint = corpus.records()[0]["fingerprint"]

    assert main(["shrink", "--corpus", corpus_path,
                 "--entry", fingerprint[:16]]) == 1
    out = capsys.readouterr().out
    assert "shrunk" in out
    spec_line = out.strip().splitlines()[-1]
    assert json.loads(spec_line)["schema"] == 1

    assert main(["shrink", "--corpus", corpus_path,
                 "--entry", "ffffffff"]) == 2
    assert "no corpus entry" in capsys.readouterr().err


def test_seed_from_date_is_the_utc_date(monkeypatch, capsys):
    calls = {}

    def fake_run_fuzz(**kwargs):
        calls.update(kwargs)
        return runner_mod.FuzzReport(seed=kwargs["seed"])

    monkeypatch.setattr("repro.verify.cli.run_fuzz", fake_run_fuzz)
    assert main(["run", "--iterations", "1", "--seed-from-date"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"seed (20\d{6}):", out)
    assert 20000101 <= calls["seed"] <= 21000101
