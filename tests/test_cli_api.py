"""The rebuilt telechat CLI: exit codes, --json inventories, and the
streaming campaign output."""

import json

import pytest

from repro.papertests import FIG7_SOURCE
from repro.pipeline.cli import main


@pytest.fixture
def lb_file(tmp_path):
    path = tmp_path / "lb.litmus.c"
    path.write_text(FIG7_SOURCE)
    return str(path)


class TestExitCodes:
    def test_positive_verdict_exits_nonzero(self, lb_file, capsys):
        """Shell scripts and CI gate on ``telechat test``: a found bug
        (positive difference) is exit code 1."""
        assert main(["test", lb_file, "--arch", "aarch64"]) == 1
        assert "positive" in capsys.readouterr().out

    def test_clean_verdict_exits_zero(self, lb_file):
        assert main(["test", lb_file, "--arch", "aarch64",
                     "--cmem", "rc11+lb"]) == 0

    def test_campaign_resume_without_store_is_usage_error(self, capsys):
        assert main(["campaign", "--small", "--resume"]) == 2
        assert "--resume needs --store" in capsys.readouterr().err

    def test_campaign_plan_error_is_usage_error(self, capsys):
        """A plan the engine refuses prints its message and exits 2, as
        ``farm`` does, instead of escaping as a traceback."""
        assert main(["campaign", "--small", "--differential",
                     "llvm-O1-AArch64", "gcc-O1-ARM"]) == 2
        err = capsys.readouterr().err
        assert "differential testing requires a common architecture" in err
        assert "Traceback" not in err

    def test_hunt_plan_error_is_usage_error(self, capsys):
        assert main(["hunt", "--seeds", "examples", "--operators", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown mutation operator 'nope'" in err
        assert "Traceback" not in err


class TestJsonInventories:
    def test_models_json(self, capsys):
        assert main(["models", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in entries}
        assert "x86-tso" in by_name["x86tso"]["aliases"]
        assert "c11-partialsc" in by_name["c11_partialsc"]["aliases"]
        assert by_name["rc11"]["doc"]

    def test_shapes_json(self, capsys):
        assert main(["shapes", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in entries}
        assert by_name["lb"]["display"] == "LB"
        assert by_name["iriw"]["threads"] == 4

    def test_profiles_json(self, capsys):
        assert main(["profiles", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "llvm-O3-AArch64" in payload["profiles"]
        assert any(e["name"] == "llvm-16" for e in payload["epochs"])

    def test_profiles_plain(self, capsys):
        assert main(["profiles"]) == 0
        assert "gcc-Og-ARM" in capsys.readouterr().out


class TestStreamingCampaign:
    def test_json_event_stream(self, capsys):
        assert main(["campaign", "--small", "--arch", "aarch64",
                     "--opt=-O2", "--json", "--no-progress"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        kinds = [line["event"] for line in lines]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        cells = [l for l in lines if l["event"] == "cell_finished"]
        assert len(cells) == lines[0]["cells_total"]
        assert all(c["record"]["status"] in ("ok", "timeout", "error")
                   for c in cells)
        # --json replaces the table entirely
        assert not any("Campaign under source model" in json.dumps(l)
                       for l in lines)

    def test_progress_stream_on_stderr(self, capsys):
        assert main(["campaign", "--small", "--arch", "aarch64",
                     "--opt=-O2", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "Campaign under source model" in captured.out  # table kept
        assert "[1/" in captured.err  # live per-cell progress
        assert "cells (" in captured.err

    def test_campaign_store_roundtrip_via_cli(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        assert main(["campaign", "--small", "--arch", "aarch64",
                     "--opt=-O2", "--store", store, "--no-progress"]) == 0
        first = capsys.readouterr().out
        assert "0 replayed" in first
        assert main(["campaign", "--small", "--arch", "aarch64",
                     "--opt=-O2", "--store", store, "--resume",
                     "--no-progress"]) == 0
        second = capsys.readouterr().out
        assert "0 appended" in second
