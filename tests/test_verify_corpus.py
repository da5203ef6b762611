"""Corpus: JSONL robustness, last-record-wins, byte-stable round trips.

The keyed-file behaviour it shares with the result store (missing files,
the directory check, tolerant loading, compaction, merging) is tested once
for both in ``test_core_keyed_store.py``.
"""

import json
import os

import pytest

from repro.core.jsonl import dump_record
from repro.verify.corpus import CORPUS_SCHEMA, Corpus
from repro.verify.scenarios import generate_scenario


@pytest.fixture()
def corpus_path(tmp_path):
    return str(tmp_path / "corpus.jsonl")


def test_add_and_reload_round_trips_the_spec(corpus_path):
    spec = generate_scenario(5)
    corpus = Corpus(corpus_path)
    record = corpus.add(spec, "pipeline-cache", "details here")
    assert record["seed"] == spec.seed
    assert record["ops"] == spec.num_design_ops()

    reloaded = Corpus(corpus_path)
    assert len(reloaded) == 1
    entry = reloaded.records()[0]
    assert reloaded.spec_of(entry) == spec
    assert entry["fingerprint"] == spec.fingerprint()


def test_last_record_wins_per_oracle_and_fingerprint(corpus_path):
    spec = generate_scenario(5)
    corpus = Corpus(corpus_path)
    corpus.add(spec, "pipeline-cache", "first")
    corpus.add(spec, "pipeline-cache", "second")
    corpus.add(spec, "sweep-session", "other oracle")

    reloaded = Corpus(corpus_path)
    assert len(reloaded) == 2  # keys: two oracles, one fingerprint
    [record] = [record for record in reloaded.records()
                if record["oracle"] == "pipeline-cache"]
    assert record["details"] == "second"
    # Three physical lines were appended.
    with open(corpus_path, "r", encoding="utf-8") as handle:
        assert len(handle.readlines()) == 3


def test_loading_tolerates_garbage_and_unknown_schemas(corpus_path):
    spec = generate_scenario(6)
    corpus = Corpus(corpus_path)
    corpus.add(spec, "pareto-front", "ok record")
    with open(corpus_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"schema": 999, "oracle": "x"}) + "\n")
        handle.write('{"schema": 1, "oracle": 7}\n')  # wrong field types
        handle.write('{"truncated-by-a-crash')

    reloaded = Corpus(corpus_path)
    assert len(reloaded) == 1
    assert reloaded.skipped_lines == 3


def test_round_trip_is_byte_stable_across_runs(tmp_path):
    """dump -> load -> compact -> load must keep every spec, and equal
    corpora must serialise to equal bytes: the corpus is the permanent
    regression memory, so its serialisation may not wobble between runs or
    processes."""
    first_path = str(tmp_path / "first.jsonl")
    second_path = str(tmp_path / "second.jsonl")

    corpus = Corpus(first_path)
    for seed in (3, 4, 9):
        corpus.add(generate_scenario(seed), "sequential-slack", f"seed {seed}")

    Corpus(first_path).compact(second_path)
    compacted = Corpus(second_path)
    assert sorted(map(dump_record, compacted.records())) \
        == sorted(map(dump_record, corpus.records()))
    for record in compacted.records():
        spec = compacted.spec_of(record)
        assert spec == generate_scenario(spec.seed)
    with open(first_path, "rb") as handle:
        first = handle.read()

    # A freshly generated equal corpus serialises to the same bytes too.
    other = Corpus(str(tmp_path / "regenerated.jsonl"))
    for seed in (3, 4, 9):
        other.add(generate_scenario(seed), "sequential-slack", f"seed {seed}")
    with open(other.path, "rb") as handle:
        assert handle.read() == first


def test_dump_record_is_canonical_json():
    spec = generate_scenario(2)
    record = Corpus(None).add(spec, "pareto-front", "x")
    line = dump_record(record)
    assert json.loads(line)["schema"] == CORPUS_SCHEMA
    assert line == json.dumps(json.loads(line), sort_keys=True)


def test_find_by_fingerprint_prefix(corpus_path):
    corpus = Corpus(corpus_path)
    spec = generate_scenario(8)
    corpus.add(spec, "pipeline-cache", "x")
    fingerprint = spec.fingerprint()
    assert corpus.find(fingerprint[:12])[0]["fingerprint"] == fingerprint
    assert corpus.find("ffffffffffff") == []


def test_rewrite_compacts_superseded_lines(corpus_path):
    spec = generate_scenario(5)
    corpus = Corpus(corpus_path)
    corpus.add(spec, "pipeline-cache", "first")
    corpus.add(spec, "pipeline-cache", "second")
    corpus.compact()
    with open(corpus_path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["details"] == "second"
    assert os.path.getsize(corpus_path) > 0


def test_failure_and_shrunk_records_never_collide(corpus_path):
    """A shrunk reproducer that shares its parent's structure (e.g. only
    the pipeline II was shrunk away) must not overwrite the raw failure —
    kind and evaluation knobs are part of the record key."""
    from dataclasses import replace

    base = generate_scenario(5)
    pipelined = replace(base, pipeline_ii=2)
    corpus = Corpus(corpus_path)
    fingerprint = base.fingerprint()  # structure ignores the II
    assert pipelined.fingerprint() == fingerprint
    corpus.add(pipelined, "pipeline-cache", "raw failure", kind="failure",
               fingerprint=fingerprint)
    corpus.add(base, "pipeline-cache", "shrunk repro", kind="shrunk",
               fingerprint=fingerprint, shrunk_from=fingerprint)

    reloaded = Corpus(corpus_path)
    assert len(reloaded) == 2
    kinds = {record["kind"] for record in reloaded.records()}
    assert kinds == {"failure", "shrunk"}
    [raw] = [record for record in reloaded.records()
             if record["kind"] == "failure"]
    assert raw["spec"]["pipeline_ii"] == 2


def test_same_structure_different_knobs_keep_separate_records(corpus_path):
    from dataclasses import replace

    spec = generate_scenario(5)
    other_margin = replace(spec, margin_fraction=spec.margin_fraction + 0.05)
    corpus = Corpus(corpus_path)
    corpus.add(spec, "pipeline-cache", "at margin A")
    corpus.add(other_margin, "pipeline-cache", "at margin B")
    assert len(Corpus(corpus_path)) == 2


def test_stale_lines_count_superseded_adds(corpus_path):
    spec = generate_scenario(5)
    corpus = Corpus(corpus_path)
    corpus.add(spec, "pipeline-cache", "first")
    assert corpus.stale_lines == 0
    corpus.add(spec, "pipeline-cache", "second")
    corpus.add(spec, "pipeline-cache", "third")
    assert len(corpus) == 1
    assert corpus.stale_lines == 2
    assert Corpus(corpus_path).stale_lines == 2
    corpus.compact()
    assert corpus.stale_lines == 0
    assert Corpus(corpus_path).stale_lines == 0
