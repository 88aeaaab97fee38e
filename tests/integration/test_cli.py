"""CLI tests (python -m repro)."""

import pytest

from repro.cli import main, parse_spec
from repro.polyhedra import engine
from repro.util.errors import ReproError

SRC = """param N
real A(N)
do I = 1..N
  S1: A(I) = sqrt(A(I))
  do J = I+1..N
    S2: A(J) = A(J) / A(I)
  enddo
enddo
"""


@pytest.fixture()
def loopfile(tmp_path):
    f = tmp_path / "prog.loop"
    f.write_text(SRC)
    return str(f)


class TestParseSpec:
    def test_single(self, simp_chol_layout):
        t = parse_spec(simp_chol_layout, "permute(I,J)")
        assert t.matrix.is_permutation()

    def test_composition(self, simp_chol_layout):
        t = parse_spec(simp_chol_layout, "skew(I,J,-1); reverse(J)")
        assert t.matrix.is_unimodular()

    def test_alignment(self, simp_chol_layout):
        t = parse_spec(simp_chol_layout, "align(S1,I,1)")
        assert t.matrix[0, 2] == 1

    def test_scale(self, simp_chol_layout):
        t = parse_spec(simp_chol_layout, "scale(J,2)")
        assert t.matrix[3, 3] == 2

    def test_bad_spec(self, simp_chol_layout):
        with pytest.raises(ReproError):
            parse_spec(simp_chol_layout, "frobnicate(I)")
        with pytest.raises(ReproError):
            parse_spec(simp_chol_layout, "")
        with pytest.raises(ReproError):
            parse_spec(simp_chol_layout, "permute(I)")

    def test_unknown_loop_names_spec_part(self, simp_chol_layout):
        with pytest.raises(ReproError, match=r"permute\(I,Q\).*'Q'"):
            parse_spec(simp_chol_layout, "permute(I,Q)")

    def test_unknown_statement_names_spec_part(self, simp_chol_layout):
        with pytest.raises(ReproError, match=r"align\(S9,I,1\).*'S9'"):
            parse_spec(simp_chol_layout, "align(S9,I,1)")

    def test_non_integer_argument_names_spec_part(self, simp_chol_layout):
        with pytest.raises(ReproError, match=r"skew\(I,J,x\).*integer.*'x'"):
            parse_spec(simp_chol_layout, "skew(I,J,x)")

    def test_bad_part_in_composition_is_located(self, simp_chol_layout):
        with pytest.raises(ReproError, match=r"reverse\(K\)"):
            parse_spec(simp_chol_layout, "reverse(J); reverse(K)")


class TestCommands:
    def test_show(self, loopfile, capsys):
        assert main(["show", loopfile]) == 0
        out = capsys.readouterr().out
        assert "instance-vector layout" in out
        assert "S1: [I, 0, 1, I]" in out

    def test_deps(self, loopfile, capsys):
        assert main(["deps", loopfile]) == 0
        out = capsys.readouterr().out
        assert "flow S1->S2" in out

    def test_deps_refined(self, loopfile, capsys):
        assert main(["deps", loopfile, "--refine"]) == 0
        out = capsys.readouterr().out
        assert "[1, -1, 1, 0]" in out

    def test_check_legal(self, loopfile, capsys):
        assert main(["check", loopfile, "reverse(J)"]) == 0
        assert "LEGAL" in capsys.readouterr().out

    def test_check_illegal_exit_code(self, loopfile, capsys):
        assert main(["check", loopfile, "permute(I,J)"]) == 1
        assert "ILLEGAL" in capsys.readouterr().out

    def test_transform(self, loopfile, capsys):
        assert main(["transform", loopfile, "reverse(J)", "--simplify"]) == 0
        out = capsys.readouterr().out
        assert "do J = -N" in out

    def test_transform_to_file(self, loopfile, tmp_path, capsys):
        dest = str(tmp_path / "out.loop")
        assert main(["transform", loopfile, "reverse(J)", "-o", dest]) == 0
        assert "do J" in open(dest).read()

    def test_transform_illegal_errors(self, loopfile, capsys):
        # illegal-transform is the distinct exit code 3, so scripts can
        # tell "your schedule is illegal" from analysis/usage errors (2)
        rc = main(["transform", loopfile, "permute(I,J)"])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_run(self, loopfile, capsys):
        assert main(["run", loopfile, "-p", "N=4", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "A =" in out and "10 statement instances" in out

    def test_parallel(self, loopfile, capsys):
        assert main(["parallel", loopfile]) == 0
        out = capsys.readouterr().out
        assert "loop J: DOALL" in out
        assert "loop I: carries" in out

    def test_complete(self, tmp_path, capsys):
        from repro.ir import program_to_str
        from repro.kernels import cholesky

        f = tmp_path / "chol.loop"
        f.write_text(program_to_str(cholesky()))
        assert main(["complete", str(f), "--lead", "L"]) == 0
        out = capsys.readouterr().out
        assert "completed matrix" in out
        assert "S3" in out

    def test_missing_file(self, capsys):
        assert main(["show", "/nonexistent.loop"]) == 2


class TestReportCommand:
    def test_report(self, loopfile, capsys):
        # as a fresh process: an earlier test analysed the same program,
        # and a memoized analysis counts no dependence.* work
        engine.cache_clear()
        assert main(["report", loopfile, "-p", "N=12"]) == 0
        out = capsys.readouterr().out
        assert "=== dependences ===" in out
        assert "DOALL" in out
        assert "unsplittable" in out or "splittable" in out
        assert "lead=" in out
        assert "=== observability metrics ===" in out
        assert "dependence.pairs_tested" in out


class TestObservabilityFlags:
    def test_profile_prints_span_tree_to_stderr(self, loopfile, capsys):
        assert main(["report", "--profile", loopfile, "-p", "N=8"]) == 0
        err = capsys.readouterr().err
        assert "--- span tree (wall time) ---" in err
        assert "cli.report" in err
        assert "dependence.analyze" in err
        # nonzero timings: at least one duration in ms or us
        assert " ms" in err or " us" in err
        # nesting: dependence.analyze is indented under cli.report
        lines = err.splitlines()
        root = next(l for l in lines if l.startswith("cli.report"))
        child = next(l for l in lines if "dependence.analyze" in l)
        assert child.startswith("  ")
        assert not root.startswith(" ")

    def test_profile_shows_the_dependence_memo(self, loopfile, capsys):
        # report analyses the program, then the loop-order search asks again
        engine.cache_clear()
        assert main(["report", "--profile", loopfile, "-p", "N=8"]) == 0
        err = capsys.readouterr().err
        assert "memo=miss" in err and "memo=hit" in err
        assert "dependence.memo_misses" in err and "dependence.memo_hits" in err

    def test_profile_does_not_alter_stdout(self, loopfile, capsys):
        assert main(["transform", loopfile, "reverse(J)"]) == 0
        plain = capsys.readouterr()
        assert main(["transform", "--profile", loopfile, "reverse(J)"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain.out  # generated code is unchanged
        assert "--- span tree (wall time) ---" in profiled.err

    def test_trace_json_writes_valid_jsonl(self, loopfile, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["deps", loopfile, "--trace-json", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        types = {r["type"] for r in records}
        assert {"span", "counter"} <= types
        assert any(
            r["type"] == "span" and r["name"] == "dependence.analyze"
            for r in records
        )

    def test_trace_json_unwritable_path_errors(self, loopfile, tmp_path, capsys):
        bad = str(tmp_path / "no-such-dir" / "t.jsonl")
        assert main(["deps", loopfile, "--trace-json", bad]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_check_exit_codes_preserved(self, loopfile, capsys):
        assert main(["check", "--profile", loopfile, "permute(I,J)"]) == 1
        captured = capsys.readouterr()
        assert "ILLEGAL" in captured.out
        assert "legality.check" in captured.err
