"""The ``repro explain`` subcommand: per-phase decision narratives."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
QUICKSTART = str(EXAMPLES / "quickstart.loop")
CHOLESKY = str(EXAMPLES / "cholesky.loop")


class TestExplainLegality:
    def test_illegal_spec_names_dep_and_projection(self, capsys):
        rc = main(
            ["explain", QUICKSTART, "--phase", "legality",
             "--spec", "permute(I,J)"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "ILLEGAL" in out
        assert "reject" in out
        assert "Theorem 2" in out
        assert "dep=" in out and "projection=" in out

    def test_legal_spec_reports_legal(self, capsys):
        rc = main(
            ["explain", QUICKSTART, "--phase", "legality",
             "--spec", "skew(J,I,1)"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: LEGAL" in out
        assert "reject" not in out

    def test_missing_spec_is_an_error(self, capsys):
        rc = main(["explain", QUICKSTART, "--phase", "legality"])
        assert rc != 0
        assert "--spec" in capsys.readouterr().err


class TestExplainVectorize:
    def test_per_loop_verdicts(self, capsys):
        rc = main(["explain", CHOLESKY, "--phase", "vectorize"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 loop(s) vectorized" in out
        assert "loop=K" in out and "carries dependence" in out
        assert "NumPy slice assignment" in out
        assert "basis: analysis" in out and "basis=analysis" in out

    def test_spec_explains_the_generated_program_by_its_schedule(self, capsys):
        rc = main(["explain", CHOLESKY, "--phase", "vectorize", "--spec", "tile(K,4)"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "basis: schedule" in out and "basis=analysis" not in out
        assert "2 loop(s) vectorized" in out

    def test_illegal_spec_explains_the_source(self, capsys):
        # every phase runs; the vectorize section must not blame lowering
        # for the spec's illegality
        rc = main(["explain", CHOLESKY, "--spec", "reverse(K)"])
        out = capsys.readouterr().out
        assert rc == 0
        vec = out.split("--- vectorize ---")[1].split("--- tune ---")[0]
        assert "spec: reverse(K) is illegal; explaining the source" in vec
        assert "basis: analysis" in vec
        assert "2 loop(s) vectorized" in vec
        assert "cannot be lowered" not in vec


class TestExplainComplete:
    def test_completion_narrative(self, capsys):
        rc = main(["explain", QUICKSTART, "--phase", "complete", "--lead", "J"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lead: J" in out
        assert "verdict:" in out

    def test_missing_lead_is_an_error(self, capsys):
        rc = main(["explain", QUICKSTART, "--phase", "complete"])
        assert rc != 0
        assert "--lead" in capsys.readouterr().err


class TestExplainTune:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        cache = str(tmp_path_factory.mktemp("tune_cache"))
        assert main(
            ["tune", QUICKSTART, "-p", "N=16", "--beam", "2", "--depth", "1",
             "--top-k", "2", "--backend", "source", "--cache-dir", cache]
        ) == 0
        return cache

    def test_rank_table_and_tau(self, capsys, cache_dir):
        capsys.readouterr()
        rc = main(
            ["explain", QUICKSTART, "--phase", "tune", "-p", "N=16",
             "--cache-dir", cache_dir]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "winner:" in out
        assert "cost rank" in out and "measured rank" in out
        assert "Kendall tau" in out

    def test_json_payload_shape(self, capsys, cache_dir):
        capsys.readouterr()
        rc = main(
            ["explain", QUICKSTART, "--phase", "tune", "-p", "N=16",
             "--cache-dir", cache_dir, "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["phases"]["tune"]["entry"]
        assert entry["winner"]["description"]
        for cand in entry["ranking"]["candidates"]:
            assert {"cost_rank", "measured_rank", "score", "seconds"} <= set(cand)

    def test_cold_cache_is_graceful(self, capsys, tmp_path):
        rc = main(
            ["explain", QUICKSTART, "--phase", "tune", "-p", "N=16",
             "--cache-dir", str(tmp_path / "empty")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "run `repro tune` first" in out


class TestExplainDefaults:
    def test_no_phase_runs_every_runnable_phase(self, capsys):
        # without --spec/--lead only vectorize and tune can run
        rc = main(["explain", QUICKSTART])
        out = capsys.readouterr().out
        assert rc == 0
        assert "--- vectorize ---" in out
        assert "--- tune ---" in out
        assert "--- legality ---" not in out
        assert "--- complete ---" not in out

    def test_json_events_round_trip(self, capsys):
        rc = main(
            ["explain", QUICKSTART, "--phase", "legality",
             "--spec", "permute(I,J)", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        events = payload["phases"]["legality"]["events"]
        rejects = [e for e in events if e["verdict"] == "reject"]
        assert rejects
        assert all(e["type"] == "event" for e in events)
        assert all("dep" in e["attrs"] for e in rejects)
