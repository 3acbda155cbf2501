"""Tests for the ``repro.cli approx`` command group."""

from __future__ import annotations

import json

from repro.cli import main


class TestApproxPlan:
    def test_ptas_plan_card(self, capsys):
        assert main(["approx", "plan", "--items", "400"]) == 0
        out = capsys.readouterr().out
        assert "planner 'ptas'" in out
        assert "a-priori bound" in out
        assert "group:" in out

    def test_meta_plan_card_names_the_decision(self, capsys):
        assert main(
            ["approx", "plan", "--items", "400", "--method", "meta"]
        ) == 0
        out = capsys.readouterr().out
        assert "meta decision:" in out

    def test_unknown_planner_fails_cleanly(self, capsys):
        assert main(
            ["approx", "plan", "--items", "20", "--method", "nope"]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestApproxFrontier:
    def test_writes_the_record(self, capsys, tmp_path):
        path = tmp_path / "BENCH_approx.json"
        assert main([
            "approx", "frontier", "--sizes", "60,150",
            "--json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "ptas" in out and "sorting" in out and "meta" in out
        record = json.loads(path.read_text())
        assert record["suite"] == "approx-frontier"
        assert all(record["aggregate"]["checks"].values())

    def test_bad_sizes_fail_cleanly(self, capsys):
        assert main(["approx", "frontier", "--sizes", "abc"]) == 1
        assert "bad --sizes" in capsys.readouterr().err


class TestApproxExplain:
    def test_prints_features_and_reason(self, capsys):
        assert main(["approx", "explain", "--items", "5000"]) == 0
        out = capsys.readouterr().out
        assert "gini=" in out
        assert "decision: 'ptas'" in out
        assert "reason:" in out

    def test_wire_safe_changes_the_decision(self, capsys):
        assert main(
            ["approx", "explain", "--items", "5000", "--wire-safe"]
        ) == 0
        out = capsys.readouterr().out
        assert "decision: 'sorting'" in out
        assert "wire-routable" in out
