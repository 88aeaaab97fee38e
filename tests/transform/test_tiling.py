"""Strip-mining and offset fusion — exactness, legality, schedules.

The contract under test: ``strip_mine`` is an order-preserving bijection
of the iteration space (always legal, outputs bit-identical for every
tile size, dividing or not); ``fuse`` is the inverse of distribution
generalized to a constant header offset, admitted iff distributing the
fused loop back is Theorem-2 legal; and ``parse_schedule`` composes
structural prefixes with linear suffixes, exposing the instance-space
pullback the equivalence oracles need.
"""

import numpy as np
import pytest

from repro import obs
from repro.backend import BACKENDS
from repro.backend import run as backend_run
from repro.codegen import generate_code
from repro.dependence import analyze_dependences
from repro.interp import ArrayStore, check_equivalence, execute, outputs_close
from repro.ir import Loop, parse_program
from repro.kernels import cholesky
from repro.transform import (
    TILE_LADDER, fuse, fuse_legal, fuse_site_offset, parse_schedule,
    strip_mine, tiling_matrix,
)
from repro.transform.tiling import loop_path_by_var
from repro.util.errors import ReproError, TransformError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dev dependency
    HAVE_HYPOTHESIS = False


def _two_loop_program(offset: int, flip: bool = False) -> str:
    """Producer loop over I=1..N, consumer loop shifted by ``offset``.

    With ``flip`` the consumer updates the array the producer reads
    *behind* the current iteration, making the fusion illegal for
    offset != 0 cases that move the update before the use.
    """
    lo, hi = 1 + offset, f"N + {offset}" if offset >= 0 else f"N - {-offset}"
    consumer = (
        f"  S2: A(J) = (A(J) * 2.0)\n" if flip
        else f"  S2: B(J) = (A(J - {offset}) + 1.0)\n"
    )
    return (
        "param N\n"
        "real A(-8:N + 8), B(-8:N + 8)\n"
        "do I = 1, N\n"
        "  S1: A(I) = (A(I) + f(I))\n"
        "enddo\n"
        f"do J = {lo}, {hi}\n"
        + consumer
        + "enddo"
    )


class TestStripMine:
    @pytest.mark.parametrize("size", [2, 3, 4, 7, 16])
    def test_bit_exact_for_every_tile_size(self, size):
        """Dividing and non-dividing tile sizes both reproduce the
        original results exactly — the rewrite is pure bookkeeping."""
        p = cholesky()
        tiled = strip_mine(p, (0,), size)
        init = ArrayStore(p, {"N": 9}).snapshot()
        ref, _ = execute(p, {"N": 9}, arrays=init)
        got, _ = execute(tiled, {"N": 9}, arrays=init)
        assert np.array_equal(ref.arrays["A"], got.arrays["A"])

    def test_introduces_tile_loop_pair(self):
        p = cholesky()
        tiled = strip_mine(p, (0,), 4)
        outer = tiled.body[0]
        assert isinstance(outer, Loop) and outer.var == "KT"
        inner = outer.body[0]
        assert isinstance(inner, Loop) and inner.var == "K"

    def test_instance_count_preserved(self):
        p = cholesky()
        tiled = strip_mine(p, (0,), 3)
        _, t0 = execute(p, {"N": 8}, trace=True)
        _, t1 = execute(tiled, {"N": 8}, trace=True)
        assert len(t0) == len(t1)

    def test_tile_size_validation(self):
        p = cholesky()
        with pytest.raises(TransformError):
            strip_mine(p, (0,), 1)
        with pytest.raises(TransformError):
            strip_mine(p, (0,), 0)

    def test_tiling_matrix_is_nonsquare_bookkeeping(self):
        """One extra row (the tile coordinate) over the old layout, in
        the style of the §4.2 distribution matrices."""
        p = cholesky()
        m, tiled = tiling_matrix(p, (0,), 4)
        rows, cols = m.shape
        assert rows == cols + 1

    def test_tiled_dependences_stay_analyzable(self):
        """The floord/min bounds must lower to linear constraints — a
        tiled program flows through dependence analysis unchanged."""
        tiled = strip_mine(cholesky(), (0,), 4)
        deps = analyze_dependences(tiled)
        assert len(deps) > 0


class TestFuse:
    def test_exact_header_fusion_is_equivalent(self):
        src = (
            "param N\nreal A(N), B(N)\n"
            "do I = 1..N\n S1: A(I) = f(I)\nenddo\n"
            "do J = 1..N\n S2: B(J) = A(J) * 2\nenddo"
        )
        p = parse_program(src, "t")
        fused = fuse(p, (0,))
        assert fuse_site_offset(p.body[0], p.body[1]) == 0
        assert fuse_legal(p, (0,))
        init = ArrayStore(p, {"N": 8}).snapshot()
        s1, _ = execute(p, {"N": 8}, arrays=init)
        s2, _ = execute(fused, {"N": 8}, arrays=init)
        assert outputs_close(s1.snapshot(), s2.snapshot())

    def test_offset_fusion_legal_and_equivalent(self):
        """Headers shifted by a constant fuse through §4.3 alignment; a
        producer feeding the consumer at the offset stays legal."""
        p = parse_program(_two_loop_program(1), "t")
        assert fuse_site_offset(p.body[0], p.body[1]) == 1
        fused = fuse(p, (0,))
        assert fuse_legal(p, (0,))
        init = ArrayStore(p, {"N": 8}).snapshot()
        s1, _ = execute(p, {"N": 8}, arrays=init)
        s2, _ = execute(fused, {"N": 8}, arrays=init)
        assert outputs_close(s1.snapshot(), s2.snapshot())

    def test_offset_fusion_illegal_when_update_moves_early(self):
        """The canonical illegal case: the fused consumer scales A(I+1)
        before iteration I+1 increments it."""
        p = parse_program(_two_loop_program(1, flip=True), "t")
        assert fuse_site_offset(p.body[0], p.body[1]) == 1
        assert not fuse_legal(p, (0,))

    def test_illegal_fusion_emits_reject_event(self):
        p = parse_program(_two_loop_program(1, flip=True), "t")
        mem = obs.MemorySink()
        with obs.session(mem) as sess:
            assert not fuse_legal(p, (0,))
            assert sess.counters.get("legality.fusion_rejections") == 1
        assert mem.events_for("legality", "reject")

    def test_legal_fusion_emits_accept_event(self):
        p = parse_program(_two_loop_program(0), "t")
        mem = obs.MemorySink()
        with obs.session(mem):
            assert fuse_legal(p, (0,))
        assert mem.events_for("legality", "accept")

    def test_mismatched_trip_counts_not_fusable(self):
        src = (
            "param N\nreal A(N)\n"
            "do I = 1..N\n S1: A(I) = 1.0\nenddo\n"
            "do J = 1..N - 1\n S2: A(J) = 2.0\nenddo"
        )
        p = parse_program(src, "t")
        assert fuse_site_offset(p.body[0], p.body[1]) is None
        with pytest.raises(TransformError):
            fuse(p, (0,))


class TestParseSchedule:
    def test_tile_spec_round_trip(self):
        p = cholesky()
        sch = parse_schedule(p, "tile(K,4)")
        assert sch.structural == ("tile(K,4)",)
        assert sch.structural_legal
        assert sch.is_structural
        assert "KT" in [c.var for c in sch.layout.loop_coords()]

    def test_every_ladder_size_parses(self):
        for size in TILE_LADDER:
            sch = parse_schedule(cholesky(), f"tile(K,{size})")
            assert sch.structural_legal

    def test_structural_after_linear_rejected(self):
        with pytest.raises(ReproError):
            parse_schedule(cholesky(), "permute(K,I); tile(K,4)")

    def test_illegal_fuse_flagged_not_raised(self):
        """The rewrite is materialized even when illegal, so the fuzzer
        can execute it and watch the oracles flag the divergence."""
        p = parse_program(_two_loop_program(1, flip=True), "t")
        sch = parse_schedule(p, "fuse(I)")
        assert not sch.structural_legal

    def test_tile_pullback_drops_tile_coordinate(self):
        p = cholesky()
        sch = parse_schedule(p, "tile(K,4)")
        lbl = p.statements()[0].label
        vals = sch.program.loop_vars(lbl)
        assert "KT" in vals
        pulled = sch.pullback(lbl, [1, 5])  # (KT, K) -> (K,)
        assert pulled == (5,)

    def test_schedule_oracle_equivalence_tile_then_permute(self):
        """tile + interchange through codegen agrees with the source
        program under the composed pullback — the exact path run_case
        takes for structural fuzz specs."""
        p = cholesky()
        sch = parse_schedule(p, "tile(K,4)")
        g = generate_code(sch.program, sch.matrix, sch.deps)
        em = g.env_map()
        rep = check_equivalence(
            p, g.program, {"N": 7},
            env_map=lambda lbl, env: sch.pullback(lbl, em(lbl, env)),
        )
        assert rep["ok"], rep

    def test_fuse_pullback_restores_offset(self):
        p = parse_program(_two_loop_program(1), "t")
        sch = parse_schedule(p, "fuse(I)")
        assert sch.structural_legal
        # S2 at fused iteration I ran at J = I + 1 in the source
        assert sch.pullback("S2", [3]) == (4,)
        assert sch.pullback("S1", [3]) == (3,)


class TestTiledCholeskyBackends:
    def test_tiled_cholesky_bit_exact_on_every_backend(self):
        """The gate the lowering must clear: tiled bounds (floord/min)
        survive codegen and every execution backend bit-exactly."""
        p = cholesky()
        sch = parse_schedule(p, "tile(K,4)")
        g = generate_code(sch.program, sch.matrix, sch.deps)
        init = ArrayStore(p, {"N": 10}).snapshot()
        ref, _ = execute(p, {"N": 10}, arrays=init)
        for backend in BACKENDS:
            store = backend_run(g.program, {"N": 10}, arrays=init, backend=backend)
            assert np.array_equal(ref.arrays["A"], store.arrays["A"]), backend


if HAVE_HYPOTHESIS:

    @settings(max_examples=20, deadline=None)
    @given(
        offset=st.integers(min_value=-3, max_value=3),
        flip=st.booleans(),
        n=st.integers(min_value=4, max_value=8),
    )
    def test_property_fusion_verdict_matches_execution(offset, flip, n):
        """Two-sided contract over random offsets: when fuse_legal
        admits a fusion the fused program is observationally equivalent;
        when it rejects one, a legality-reject event was emitted."""
        p = parse_program(_two_loop_program(offset, flip=flip), "t")
        assert fuse_site_offset(p.body[0], p.body[1]) == offset
        fused = fuse(p, (0,))
        mem = obs.MemorySink()
        with obs.session(mem):
            legal = fuse_legal(p, (0,))
        if legal:
            init = ArrayStore(p, {"N": n}).snapshot()
            s1, _ = execute(p, {"N": n}, arrays=init)
            s2, _ = execute(fused, {"N": n}, arrays=init)
            assert outputs_close(s1.snapshot(), s2.snapshot())
        else:
            assert mem.events_for("legality", "reject")

    @settings(max_examples=15, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=9),
        n=st.integers(min_value=3, max_value=10),
    )
    def test_property_strip_mine_always_exact(size, n):
        """Strip-mining is unconditionally legal: bit-identical results
        for every (tile size, problem size) pair."""
        p = cholesky()
        tiled = strip_mine(p, loop_path_by_var(p, "K"), size)
        init = ArrayStore(p, {"N": n}).snapshot()
        ref, _ = execute(p, {"N": n}, arrays=init)
        got, _ = execute(tiled, {"N": n}, arrays=init)
        assert np.array_equal(ref.arrays["A"], got.arrays["A"])


class TestTiledDeps:
    """``tile`` derives the strip-mined program's dependence matrix from
    its parent's: point coordinates keep their entries and the tile
    coordinate gets the floor-division interval of ``Δ(i - lo)``."""

    @staticmethod
    def _entries(src: str, spec: str) -> list[tuple[str, ...]]:
        s = parse_schedule(parse_program(src), spec)
        return sorted(d.entry_strs() for d in s.deps)

    def test_floor_interval_of_a_distance(self):
        src = "param N\nreal A(0:N)\ndo I = 1, N\n  S1: A(I) = A(I - 1)\nenddo"
        # Δi = 1 -> Δ⌊(i-1)/4⌋ ∈ [⌊1/4⌋, ⌈1/4⌉] = [0, 1]
        assert self._entries(src, "tile(I,4)") == [("[0,1]", "1")]

    def test_floor_interval_of_a_direction(self):
        src = "param N\nreal A(0:N)\ndo I = 1, N\n  S1: A(1) = A(I)\nenddo"
        assert set(self._entries(src, "tile(I,3)")) <= {("0+", "+"), ("*", "*"), ("-0", "-")}

    def test_lower_bound_shift_enters_the_interval(self):
        # the inner loop starts at K + 1, so two instances one K apart
        # share no tile origin: Δ(i - lo) = Δi - Δk, not Δi
        src = (
            "param N\nreal A(N, N)\n"
            "do K = 1, N\n  do I = K + 1, N\n    S1: A(I, K) = A(I, K - 1)\n  enddo\nenddo"
        )
        (entries,) = self._entries(src, "tile(I,4)")
        assert entries == ("1", "[-1,0]", "0")

    @pytest.mark.parametrize("name, spec", [
        ("cholesky", "tile(K,4)"), ("cholesky", "tile(I,8)"), ("trmm", "tile(K,4)"),
        ("lu", "tile(J,4)"), ("syrk_like", "tile(J,8)"), ("simplified_cholesky", "tile(I,4)"),
    ])
    def test_derived_covers_the_analysis(self, name, spec):
        import repro.kernels as kernels

        s = parse_schedule(getattr(kernels, name)(), spec)
        analysed = analyze_dependences(s.program)

        for a in analysed:
            assert any(
                d.src == a.src and d.dst == a.dst
                and all(e.hull(f) == e for e, f in zip(d.entries, a.entries))
                for d in s.deps
            ), f"{a} not covered"

    def test_no_analysis_of_the_tiled_program(self):
        from repro.polyhedra import engine

        engine.cache_clear()
        program = cholesky()
        analyze_dependences(program)
        with obs.session() as sess:
            s = parse_schedule(program, "tile(K,4)")
        # one memo hit for the source, nothing else analysed
        assert sess.counters.get("dependence.memo_hits") == 1
        assert "dependence.memo_misses" not in sess.counters
        # and the derived matrix never entered the memo
        with obs.session() as sess:
            analyze_dependences(s.program)
        assert sess.counters.get("dependence.memo_misses") == 1
