"""Runner and CLI: bounded sessions, injection, parallel determinism,
corpus writing, counters, exit codes."""

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.cli import main
from repro.fuzz import FuzzCase, fuzz_run, known_illegal_case, run_case
from repro.fuzz.case import DIVERGENCE_VERDICTS, PASS_VERDICTS


class TestRunCase:
    def test_known_illegal_case_is_caught(self):
        result = run_case(known_illegal_case())
        assert result.verdict == "divergence-oracle"
        assert "dependence violation" in result.detail

    def test_known_illegal_case_honest_run_is_rejected(self):
        result = run_case(known_illegal_case().with_(claim_legal=False))
        assert result.verdict == "illegal-confirmed"

    def test_verdict_vocabulary_is_closed(self):
        assert not set(DIVERGENCE_VERDICTS) & set(PASS_VERDICTS)


class TestDoallOracle:
    """Reversing a loop that M·D marks DOALL must leave every value as
    it was; the oracle judges by running both programs."""

    CASE = FuzzCase(
        program_src=(
            "param N, T\nreal A(0:N+1)\n"
            "do S = 1..T\n do I = 1..N\n"
            "  S1: A(I) = (A(I-1) + A(I) + A(I+1)) / 3\n enddo\nenddo"
        ),
        spec="skew(I,S,1); permute(S,I)",
        params=(("N", 6), ("T", 4)),
    )

    def test_sound_verdict_passes(self):
        assert run_case(self.CASE).verdict == "pass-legal"

    def test_over_claimed_doall_loop_is_caught(self, monkeypatch):
        from repro.analysis import parallel

        real = parallel.parallel_loops
        monkeypatch.setattr(
            parallel, "parallel_loops",
            lambda *a: [replace(m, carried=()) for m in real(*a)],
        )
        result = run_case(self.CASE)
        assert result.verdict == "divergence-doall"
        assert result.divergent


class TestDerivationCheck:
    """Where §3 can analyse a derived program, what the pipeline derived
    for it must be no finer than the analysis."""

    CASE = FuzzCase(
        program_src=(
            "param N\nreal A(0:N)\n"
            "do I = 1..N\n  S1: A(I) = A(I-1) + f(I)\nenddo"
        ),
        spec="tile(I,2)",
        params=(("N", 6),),
    )

    def test_sound_derivations_pass(self):
        assert run_case(self.CASE).verdict == "pass-legal"

    def test_coarser_derivation_is_counted_not_judged(self):
        """lu ``tile(J,4)``: the derivation gives the tile coordinate of
        four S2→S1 vectors ``*`` where §3 gives ``[2,+inf]``."""
        from repro.ir import program_to_str
        from repro.kernels import lu

        case = FuzzCase(program_src=program_to_str(lu()), spec="tile(J,4)", params=(("N", 6),))
        with obs.session() as sess:
            assert run_case(case).verdict == "pass-legal"
        assert sess.counters["fuzz.derived_coarser"] > 0

    def test_too_fine_tile_derivation_is_caught(self, monkeypatch):
        from repro.dependence.depvector import DependenceMatrix
        from repro.instance import Layout
        from repro.transform import spec

        # a derivation that forgets every dependence
        monkeypatch.setattr(
            spec, "tiled_deps",
            lambda program, path, size, deps, tiled: DependenceMatrix(Layout(tiled)),
        )
        result = run_case(self.CASE)
        assert result.verdict == "divergence-derived"
        assert "covers" in result.detail

    def test_doall_claim_beyond_reanalysis_is_caught(self, monkeypatch):
        from repro.analysis import parallel

        real = parallel.statement_loop_carriers
        monkeypatch.setattr(
            parallel, "statement_loop_carriers",
            lambda d: {key: () for key in real(d)},
        )
        result = run_case(self.CASE.with_(spec="reverse(I); reverse(I)"))
        assert result.verdict == "divergence-derived"
        assert "re-analysis" in result.detail


class TestFuzzRun:
    def test_bounded_run_is_clean(self, tmp_path):
        session = fuzz_run(6, 0, corpus_dir=tmp_path)
        assert session.ok
        assert sum(session.verdict_counts.values()) == 6
        assert not list(tmp_path.glob("*.json"))

    def test_injected_illegal_produces_minimized_repro(self, tmp_path):
        session = fuzz_run(
            2, 0, corpus_dir=tmp_path, inject={0: known_illegal_case()}
        )
        assert not session.ok
        assert len(session.divergences) == 1
        assert session.divergences[0].verdict == "divergence-oracle"
        assert session.shrink_steps >= 1
        (path,) = session.repro_paths
        record = json.loads(path.read_text())
        assert record["expect"] == "illegal-flagged"
        assert record["params"] == {"N": 2}  # shrunk from the injected N=6

    def test_no_minimize_keeps_case_verbatim(self, tmp_path):
        session = fuzz_run(
            1, 0, corpus_dir=tmp_path, inject={0: known_illegal_case()},
            minimize=False,
        )
        record = json.loads(session.repro_paths[0].read_text())
        assert record["params"] == {"N": 6}
        assert session.shrink_steps == 0

    def test_parallel_matches_serial(self, tmp_path):
        serial = fuzz_run(8, 3, corpus_dir=None)
        parallel = fuzz_run(8, 3, corpus_dir=None, jobs=2)
        assert serial.verdict_counts == parallel.verdict_counts
        assert [r.verdict for r in serial.divergences] == [
            r.verdict for r in parallel.divergences
        ]

    def test_counters_cover_the_run(self):
        mem = obs.MemorySink()
        with obs.session(mem) as sess:
            fuzz_run(5, 0)
            counters = dict(sess.counters)
        assert counters["fuzz.runs"] == 5
        assert counters.get("fuzz.legal", 0) + counters.get(
            "fuzz.illegal", 0
        ) <= 5
        assert "fuzz.divergences" not in counters

    def test_injection_counts_divergence(self):
        mem = obs.MemorySink()
        with obs.session(mem) as sess:
            fuzz_run(1, 0, inject={0: known_illegal_case()}, minimize=False)
            counters = dict(sess.counters)
        assert counters["fuzz.divergences"] == 1


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        rc = main(
            ["fuzz", "--runs", "3", "--seed", "0", "--corpus", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 runs" in out
        assert "divergences: 0" in out

    def test_injection_exits_nonzero_with_repro(self, tmp_path, capsys):
        rc = main(
            [
                "fuzz", "--runs", "2", "--seed", "0",
                "--corpus", str(tmp_path), "--inject-illegal",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "divergence" in captured.err
        repros = list(tmp_path.glob("fuzz-*.json"))
        assert len(repros) == 1

    @pytest.mark.parametrize("flag", ["--profile"])
    def test_obs_flags_accepted(self, tmp_path, capsys, flag):
        rc = main(
            ["fuzz", "--runs", "1", "--seed", "0", "--corpus", str(tmp_path), flag]
        )
        assert rc == 0
        assert "fuzz.runs" in capsys.readouterr().err
