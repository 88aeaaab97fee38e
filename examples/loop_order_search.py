"""Finding a *desirable* transformation automatically (paper §1/§7).

The framework's payoff: enumerate candidate lead loops, complete each
partial transformation to a full legal matrix, generate code, and rank
the variants with the cache model.  On Cholesky this discovers that the
left-looking variant (which the §6 completion derives) wins once the
matrix exceeds the cache.

Then the same search, generalized: `repro tune` (docs/AUTOTUNING.md)
widens the space beyond lead loops — skews, reversals, reorderings,
distribution/jamming variants, compositions — prunes illegality before
any execution, ranks with a static cost model, measures the survivors
on a compiled backend, and caches the winner for `repro run --tuned`.

Run:  python examples/loop_order_search.py [N]
"""

import sys

from repro import program_to_str
from repro.analysis import search_loop_orders
from repro.interp import CacheConfig
from repro.kernels import cholesky


def main(n: int = 44) -> None:
    cache = CacheConfig(size_bytes=4 * 1024, line_bytes=64, ways=2)
    print(f"searching loop orders of right-looking Cholesky, N={n}, "
          f"cache={cache.size_bytes}B {cache.ways}-way\n")
    results = search_loop_orders(cholesky(), {"N": n}, cache=cache, verify=False)
    for r in results:
        print(f"  {r}")
    best = results[0]
    print(f"\nwinner: lead={best.lead_var} — "
          f"{'left' if best.lead_var == 'L' else 'right'}-looking Cholesky\n")
    print(program_to_str(best.program, header=False))

    # --- the guided autotuner over the full candidate space -------------
    print("\n--- repro tune: measured search over all legal schedules ---")
    from repro.tune import TuneStore, tune

    res = tune(cholesky(), {"N": n}, store=TuneStore(".repro_tune"),
               beam_width=2, depth=1, top_k=2)
    tag = "cache HIT, search skipped" if res.from_cache else (
        f"{res.enumerated} candidates, {res.pruned} pruned illegal, "
        f"{res.scored} scored")
    print(f"({tag})")
    for row in sorted(res.rows, key=lambda r: r.seconds or float("inf")):
        mark = "*" if row is res.best else " "
        print(f"  {mark} {row.description:30s} {row.seconds * 1e3:9.3f} ms")
    print(f"winner: {res.best.description} "
          f"({res.speedup:.3f}x vs default order)")
    print("replay it with: python -m repro run examples/cholesky.loop "
          f"--tuned -p N={n}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 44)
