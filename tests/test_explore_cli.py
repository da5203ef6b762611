"""Tests of the ``repro explore`` CLI."""

import json

import pytest

from repro.explore.cli import _parse_latencies, build_parser, main


class TestArgumentParsing:
    def test_latency_range_and_list(self):
        assert _parse_latencies("8:11") == [8, 9, 10, 11]
        assert _parse_latencies("8,12,16") == [8, 12, 16]

    def test_empty_range_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_latencies("12:8")

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "idct"
        assert args.flow == "slack_based"
        assert not args.dense

    @pytest.mark.parametrize("bad", ["taps", "taps=abc"])
    def test_malformed_param_is_a_clean_usage_error(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--param", bad])
        assert excinfo.value.code == 2
        assert "--param" in capsys.readouterr().err


def test_cli_end_to_end_fir(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    json_path = tmp_path / "frontier.json"
    md_path = tmp_path / "frontier.md"
    code = main([
        "--workload", "fir", "--param", "taps=4",
        "--latencies", "4:8", "--coarse", "3", "--width-stop", "2",
        "--store", str(store),
        "--json", str(json_path), "--markdown", str(md_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "frontier" in out
    assert "engine evaluations:" in out

    report = json.loads(json_path.read_text())
    assert report["workload"] == "fir"
    assert report["front"]
    assert md_path.read_text().startswith("# Frontier report")
    assert store.exists()

    # Re-running resumes from the store: zero engine evaluations.
    code = main(["--workload", "fir", "--param", "taps=4",
                 "--latencies", "4:8", "--coarse", "3", "--width-stop", "2",
                 "--store", str(store), "--dense"])
    assert code == 0
    out = capsys.readouterr().out
    assert "engine evaluations: 0" in out or "restored:" in out


def test_cli_reports_repro_errors_as_exit_code_1(tmp_path, capsys):
    # A store path pointing at a directory is a ReproError, not a traceback.
    code = main(["--workload", "fir", "--param", "taps=4",
                 "--latencies", "4:6", "--store", str(tmp_path)])
    assert code == 1
    assert "repro explore:" in capsys.readouterr().err
