"""Tests for the collated reproduction report."""

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.report import build_report, discover_results, write_report


@pytest.fixture
def results_dir(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "table1.fast.txt").write_text("TABLE1 CONTENT\n")
    (directory / "fig7.fast.txt").write_text("FIG7 CONTENT\n")
    (directory / "ablation_jitter.fast.txt").write_text("JITTER CONTENT\n")
    (directory / "custom_extra.fast.txt").write_text("EXTRA CONTENT\n")
    (directory / "table1.full.txt").write_text("FULL TABLE1\n")
    return directory


def test_discover_filters_by_profile(results_dir):
    fast = discover_results(results_dir, "fast")
    assert set(fast) == {"table1", "fig7", "ablation_jitter", "custom_extra"}
    full = discover_results(results_dir, "full")
    assert set(full) == {"table1"}
    assert full["table1"] == "FULL TABLE1"


def test_report_orders_sections(results_dir):
    text = build_report(results_dir, "fast")
    assert text.index("## Tables") < text.index("## Figures")
    assert text.index("## Figures") < text.index("## Ablations")
    assert text.index("## Ablations") < text.index("## Other archived results")
    assert "TABLE1 CONTENT" in text
    assert "EXTRA CONTENT" in text


def test_report_skips_empty_sections(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "fig4.fast.txt").write_text("ONLY FIGURE\n")
    text = build_report(directory, "fast")
    assert "## Figures" in text
    assert "## Tables" not in text
    assert "## Ablations" not in text


def test_write_report_default_location(results_dir):
    path = write_report(results_dir, "fast")
    assert path == results_dir / "REPORT.fast.md"
    assert "TABLE1 CONTENT" in path.read_text()


def test_write_report_custom_output(results_dir, tmp_path):
    target = tmp_path / "custom.md"
    path = write_report(results_dir, "fast", output=target)
    assert path == target
    assert target.exists()


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        build_report(tmp_path / "nope", "fast")


def test_no_results_for_profile_rejected(results_dir):
    with pytest.raises(ConfigurationError):
        build_report(results_dir, "smoke")


def test_cli_report_command(results_dir, capsys):
    code = main([
        "report", "--results-dir", str(results_dir), "--profile", "fast",
        "--out", str(results_dir / "out.md"),
    ])
    assert code == 0
    assert "report written" in capsys.readouterr().out
    assert (results_dir / "out.md").exists()


def test_archives_of_every_table_build_a_report(tmp_path):
    # The benchmark suite archives one fast-profile file per paper table;
    # the report over them must include every table.
    results = tmp_path / "results"
    results.mkdir()
    for i in range(1, 9):
        (results / f"table{i}.fast.txt").write_text(f"TABLE{i} CONTENT\n")
    text = build_report(results, "fast")
    for i in range(1, 9):
        assert f"### table{i}" in text
        assert f"TABLE{i} CONTENT" in text
