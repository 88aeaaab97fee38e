"""CLI surface of the backend subsystem: ``repro bench``, ``--backend``
on run/report/fuzz, bundled-kernel name resolution, and comma-separated
parameter lists."""

import json

import pytest

from repro.cli import _load_flexible, _params, main
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


class TestLoadFlexible:
    def test_bundled_kernel_by_name(self):
        p = _load_flexible("cholesky")
        assert p.name == "cholesky"

    def test_loop_file(self, loopfile):
        assert _load_flexible(loopfile).params == ("N",)

    def test_extension_inferred(self, loopfile):
        assert _load_flexible(loopfile[: -len(".loop")]).params == ("N",)

    def test_unknown_name_errors(self):
        with pytest.raises(ReproError, match="no such file or bundled kernel"):
            _load_flexible("not_a_kernel_or_file")


class TestParamParsing:
    def test_comma_separated(self):
        assert _params(["N=8,T=3"]) == {"N": 8, "T": 3}

    def test_repeated_and_mixed(self):
        assert _params(["N=8", "T=3,M=2"]) == {"N": 8, "T": 3, "M": 2}


class TestRunBackend:
    def test_run_with_source_backend(self, loopfile, capsys):
        assert main(["run", loopfile, "-p", "N=5", "--backend", "source"]) == 0
        assert "A" in capsys.readouterr().out

    def test_trace_requires_reference(self, loopfile, capsys):
        rc = main(["run", loopfile, "-p", "N=5", "--backend", "source", "--trace"])
        assert rc != 0
        assert "requires --backend reference" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_bundled_kernel(self, capsys):
        assert main(["bench", "simplified_cholesky", "--params", "N=16",
                     "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        for b in ("reference", "source", "source-vec", "source-par"):
            assert b in out

    def test_bench_json_output(self, tmp_path, capsys):
        dest = str(tmp_path / "bench.json")
        assert main(["bench", "simplified_cholesky", "--params", "N=12",
                     "--backend", "source", "--repeat", "1", "--json", dest]) == 0
        payload = json.loads((tmp_path / "bench.json").read_text())
        rows = {r["backend"]: r for r in payload["rows"]}
        assert rows["source"]["ok"] is True
        assert rows["source"]["seconds"] > 0

    def test_bench_subset_of_backends(self, loopfile, capsys):
        assert main(["bench", loopfile, "--params", "N=10",
                     "--backend", "source", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "source" in out and "source-vec" not in out


class TestReportBackend:
    def test_report_ranks_by_measured_time(self, loopfile, capsys):
        assert main(["report", loopfile, "-p", "N=10",
                     "--backend", "source"]) == 0
        out = capsys.readouterr().out
        assert "ms" in out  # measured-seconds column present

    def test_report_metrics_include_backend_counters(self, loopfile, capsys):
        # report's observability section picks up the backend.* counters
        # emitted by the measured-time ranking
        assert main(["report", loopfile, "-p", "N=10",
                     "--backend", "source"]) == 0
        out = capsys.readouterr().out
        assert "backend.runs.source" in out
        assert "backend.lowerings" in out


class TestFuzzBackend:
    def test_fuzz_with_backend_oracle(self, tmp_path, capsys):
        assert main(["fuzz", "--runs", "4", "--seed", "7",
                     "--corpus", str(tmp_path / "corpus"),
                     "--backend", "source", "--backend", "source-vec"]) == 0
        assert "fuzz: 4 runs" in capsys.readouterr().out
