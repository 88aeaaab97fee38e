"""E18 — the tiling/fusion scaling curves (docs/TILING.md): at growing N
the tuned winner must beat the *untuned default order* by a real
margin on the two kernels where loop order (and, far enough out,
blocking) decides the constant factor.

Every point measures its real-size untuned baseline, so this file runs
for minutes.  That is why its name sits outside the ``bench_*.py``
collection pattern: ``pytest benchmarks/`` skips it, CI names it::

    PYTHONPATH=src python -m pytest benchmarks/e18_scaling.py -q -s
"""

import pytest

from repro.kernels import cholesky_variant, trmm
from repro.transform.tiling import TILE_LADDER
from repro.tune import TuneStore, tune

#: The E18 floor: tuning must actually win, not tie.
SCALING_MIN_SPEEDUP = 1.2


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("factory", [lambda: cholesky_variant("jik"), trmm],
                         ids=["cholesky_jik", "trmm"])
def test_e18_tuned_beats_untuned(factory, n, tmp_path):
    program = factory()
    res = tune(
        program, {"N": n}, store=TuneStore(tmp_path), backend="source-vec",
        tile_sizes=TILE_LADDER, cross_check="model", repeat=1, use_cache=False,
    )
    tiled = res.best.candidate is not None and res.best.candidate.context.is_tiled
    print(f"\n[E18] {program.name} N={n}: untuned {res.baseline_seconds:.4f} s, "
          f"tuned {res.best.seconds:.4f} s ({res.speedup:.2f}x), "
          f"winner {res.best.description!r}{' (tiled)' if tiled else ''}")
    assert res.ok
    assert res.speedup >= SCALING_MIN_SPEEDUP
