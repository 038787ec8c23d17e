"""Tests for the command-line front end."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import HEARTBEAT_BEATS


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "episodic_cbr" in out
    assert "table8" in out
    assert "fig9b" in out


def test_measure_command_smoke(capsys):
    code = main([
        "measure", "episodic_cbr", "--p", "0.5", "--slots", "4000",
        "--seed", "3", "--profile", "smoke",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "loss frequency" in out
    assert "validation" in out


def test_zing_command_smoke(capsys):
    code = main([
        "zing", "episodic_cbr", "--rate", "20", "--size", "64",
        "--duration", "20", "--profile", "smoke",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "probes sent" in out
    assert "reported" in out


def test_table_command_rejects_unknown(capsys):
    assert main(["table", "9"]) == 2
    assert "unknown table" in capsys.readouterr().err


def test_figure_command_rejects_unknown(capsys):
    assert main(["figure", "99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_figure_name_normalization(capsys):
    # "5" and "fig5" both resolve.
    parser = build_parser()
    args = parser.parse_args(["figure", "5", "--profile", "smoke"])
    assert args.handler(args) == 0
    assert "fig5" in capsys.readouterr().out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_measure_improved_flag_parses():
    parser = build_parser()
    args = parser.parse_args(["measure", "harpoon_web", "--improved"])
    assert args.improved is True
    assert args.scenario == "harpoon_web"


def test_measure_save_and_analyze_round_trip(tmp_path, capsys):
    trace = tmp_path / "m.jsonl"
    code = main([
        "measure", "episodic_cbr", "--p", "0.5", "--slots", "4000",
        "--seed", "5", "--profile", "smoke", "--save", str(trace),
    ])
    assert code == 0
    assert trace.exists()
    capsys.readouterr()
    code = main(["analyze", str(trace), "--alpha", "0.1", "--tau", "0.04"])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimated loss frequency" in out
    assert "N=4000" in out
    # A NaN tau would turn the §6.1 proximity rule off; it is refused.
    assert main(["analyze", str(trace), "--tau", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_rejects_garbage(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"type": "nope"}\n')
    # Structured errors exit with a clean diagnostic, not a traceback.
    assert main(["analyze", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "badabing-trace" in err or "nope" in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--slot", "nan"],
        ["--slot", "0"],
        ["--slot", "inf", "--slots", "20"],
        ["--duration", "nan"],
    ],
    ids=["nan-slot", "zero-slot", "inf-slot", "nan-duration"],
)
def test_live_loopback_rejects_bad_slot_before_dividing(extra, capsys):
    # Each used to die with a ValueError, ZeroDivisionError or
    # OverflowError traceback before any socket was opened.
    assert main(["live", "loopback", *extra]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("content", [None, "not json {"], ids=["missing", "non-json"])
@pytest.mark.parametrize("flag", [None, "--audit", "--bench"], ids=["metrics", "audit", "bench"])
def test_obs_validate_refuses_unreadable_json_input(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    assert main(["obs", "validate", *([flag] if flag else []), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}" if content is None else f"error: {path}")


def test_zing_metrics_and_trace_pass_obs_validate(tmp_path, capsys):
    metrics, trace = tmp_path / "zing.json", tmp_path / "zing.jsonl"
    assert main([
        "zing", "episodic_cbr", "--rate", "20", "--size", "64", "--duration", "5",
        "--profile", "smoke", "--metrics-out", str(metrics), "--trace-out", str(trace),
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"metrics written to {metrics}", f"trace written to {trace}"]
    assert main(["obs", "validate", str(metrics), "--trace", str(trace)]) == 0
    beats = [line for line in trace.read_text().splitlines() if '"sim.heartbeat"' in line]
    assert len(beats) == HEARTBEAT_BEATS


def test_live_loopback_names_its_artifacts_after_the_result(tmp_path, capsys):
    metrics, trace, saved = (
        tmp_path / "live.json", tmp_path / "live-spans.jsonl", tmp_path / "probes.jsonl"
    )
    assert main([
        "live", "loopback", "--seed", "1", "--duration", "1", "--p", "0.5",
        "--size", "64", "--metrics-out", str(metrics), "--trace-out", str(trace),
        "--save", str(saved),
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        f"metrics written to {metrics}",
        f"trace written to {trace}",
        f"trace saved to {saved}",
    ]
    assert any(line.startswith("estimated loss frequency") for line in out[:-3])
    assert metrics.exists() and trace.exists() and saved.exists()
