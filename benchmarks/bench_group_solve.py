"""Batched vs per-sketch max-entropy group solves (repro.core.batch_solver).

Measures what the batched estimation layer buys on the paper's dominant
high-cardinality cost (Figure 5 / Section 5.2): a group-by over N packed
cells answered by the service's one stacked solve for all groups,
against the per-sketch reference loop — one
``QuantileEstimator.fit(sketch, config=..., allow_backoff=True)`` and
``.quantiles(qs)`` per group.  The run also asserts the layer's
correctness contract against the per-sketch references:

* quantile estimates within 1e-6 (relative) of per-group
  ``QuantileEstimator.fit``,
* top-N rankings (n = 1 and n = 10) identical to a sort of every
  group's reference fit,
* threshold-cascade counts *and per-group deciding stages* bit-identical
  to per-cell ``ThresholdCascade.evaluate``,
* the batched solve reported once (``solve_calls == 1``), not per cell.

Each row prints both arms' seconds and milliseconds per sketch, the
speedup, and the most Newton iterations any group needed in each arm
(batched/scalar).  Beside the table it prints what one Newton problem
costs alone: microseconds per sketch of one-row ``solve`` and of
``solve_batch([basis])``, both the n = 1 case of the stacked kernel
(informational; no gate).

Usage::

    python benchmarks/bench_group_solve.py                   # gate at 1024
    python benchmarks/bench_group_solve.py --quick           # CI smoke
    python benchmarks/bench_group_solve.py --full            # adds N=4096
    python benchmarks/bench_group_solve.py --require-speedup 3

Exits non-zero when the gate size misses the required speedup or any
decision/estimate check fails.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

# Allow running as a plain script from any working directory.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import PackedStoreBackend, QueryService, QuerySpec, qkey  # noqa: E402
from repro.core.cascade import ThresholdCascade  # noqa: E402
from repro.core.batch_solver import fit_estimators, solve_batch  # noqa: E402
from repro.core.quantile import QuantileEstimator  # noqa: E402
from repro.core.solver import solve  # noqa: E402
from repro.workload import build_packed_cells  # noqa: E402

CELL_SIZE = 200
GATE_CELLS = 1024


def _service(cells, n) -> QueryService:
    keys = [(int(i),) for i in range(cells.num_cells)]
    backend = PackedStoreBackend(cells.store, keys=keys, dimensions=("cell",),
                                 config=cells.config,
                                 rows=np.arange(n))
    return QueryService(cells=backend)


def batched_timings(cells, n: int):
    """The service's group-by over ``n`` cells: one stacked solve for all
    groups; returns its :class:`~repro.api.QueryTimings`."""
    spec = QuerySpec(kind="group_by", quantiles=(0.99,),
                     group_dimension="cell")
    return _service(cells, n).execute(spec).timings


def _groups(service: QueryService) -> dict:
    """The merged per-cell summaries a group-by over ``service`` solves."""
    spec = QuerySpec(kind="group_by", group_dimension="cell")
    return service.backend("cells").group_rollup(spec).groups


def reference_quantiles(groups: dict, qs) -> dict:
    """Per-sketch reference: one scalar max-entropy fit per group."""
    return {g: QuantileEstimator.fit(summary.sketch, config=summary.config,
                                     allow_backoff=True).quantiles(qs)
            for g, summary in groups.items()}


def reference_top_n(groups: dict, q: float, n: int) -> list:
    """Per-sketch reference ranking: every group's fit scores it."""
    scores = reference_quantiles(groups, [q])
    return sorted(groups, key=lambda g: float(scores[g][0]),
                  reverse=True)[:n]


def check_decisions(cells, n: int) -> list[str]:
    """Bit-exact decisions + 1e-6 estimates against per-sketch references."""
    failures: list[str] = []
    service = _service(cells, n)
    groups = _groups(service)

    group = QuerySpec(kind="group_by", quantiles=(0.5, 0.99),
                      group_dimension="cell")
    rb = service.execute(group)
    if rb.timings.solve_route != "batched" or rb.timings.solve_calls != 1:
        failures.append(
            f"group_by must report one batched solve, got route="
            f"{rb.timings.solve_route!r} calls={rb.timings.solve_calls}")
    reference = reference_quantiles(groups, [0.5, 0.99])
    rel = max(abs(rb.groups[g][qkey(q)] - ref[i]) / max(abs(ref[i]), 1e-300)
              for g, ref in reference.items()
              for i, q in enumerate((0.5, 0.99)))
    if rel > 1e-6:
        failures.append(f"group_by estimates diverge: rel err {rel:.3g} > 1e-6")

    for top_count in (1, 10):
        top = QuerySpec(kind="top_n", quantiles=(0.99,), n=top_count,
                        group_dimension="cell")
        ranking = [value for value, _ in service.execute(top).top]
        if ranking != reference_top_n(groups, 0.99, top_count):
            failures.append(f"top_n ranking (n={top_count}) differs from "
                            f"the per-sketch reference")

    cascade = ThresholdCascade(config=service.config)
    data = cells.data[: n * CELL_SIZE]
    for t in np.quantile(data, (0.5, 0.95, 0.999)):
        spec = QuerySpec(kind="threshold_count", quantiles=(0.99,),
                         thresholds=(float(t),), group_dimension="cell")
        cb = service.execute(spec)
        outcomes = {g: cascade.evaluate(summary.sketch, float(t), 0.99)
                    for g, summary in groups.items()}
        if cb.value != sum(o.result for o in outcomes.values()):
            failures.append(f"threshold count differs at t={t:.4g}")
        stages_b = {g: o[qkey(float(t))]["stage"] for g, o in cb.groups.items()}
        stages_s = {g: o.stage for g, o in outcomes.items()}
        if stages_b != stages_s:
            failures.append(f"cascade deciding stages differ at t={t:.4g}")
    return failures


def time_reference(cells, n: int) -> float:
    """Seconds the per-sketch reference loop spends solving ``n`` groups."""
    groups = _groups(_service(cells, n))
    start = time.perf_counter()
    reference_quantiles(groups, [0.99])
    return time.perf_counter() - start


def _fitted_bases(cells, n: int) -> list:
    """The solved bases of one stacked fit of ``n`` groups."""
    groups = _groups(_service(cells, n))
    fitted, _, _ = fit_estimators([s.sketch for s in groups.values()],
                                  cells.config, allow_backoff=True)
    return [e for e in fitted if e is not None and e.result is not None]


def newton_iterations(cells, n: int) -> tuple[int, int]:
    """Most Newton iterations any of ``n`` groups needs: (batched, scalar).

    Untimed.  The batched count comes from one stacked fit of the
    groups; the scalar count re-solves each fitted basis with the
    one-row ``solve`` the reference arm runs.
    """
    solved = _fitted_bases(cells, n)
    return (max(e.result.iterations for e in solved),
            max(solve(e.basis, cells.config).iterations for e in solved))


def one_row_costs(cells, n: int, repeats: int) -> tuple[float, float]:
    """Microseconds per sketch of one-row ``solve`` and of
    ``solve_batch([basis])`` over the fitted bases of ``n`` groups, best
    of ``repeats`` passes."""
    bases = [e.basis for e in _fitted_bases(cells, n)]
    costs = []
    for run in (lambda b: solve(b, cells.config),
                lambda b: solve_batch([b], cells.config)):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for basis in bases:
                run(basis)
            best = min(best, time.perf_counter() - start)
        costs.append(1e6 * best / len(bases))
    return costs[0], costs[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: N=256 and the 1024-cell gate only")
    parser.add_argument("--full", action="store_true",
                        help="also run N=64 and N=4096")
    parser.add_argument("--require-speedup", type=float, default=3.0,
                        help="minimum batched-vs-per-sketch solve speedup at "
                             f"{GATE_CELLS} cells (default 3)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed runs per (size, path); the best run "
                             "counts, shielding the gate from transient "
                             "scheduler noise on shared CI runners")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.full:
        sizes = (64, 256, 1024, 4096)
    elif args.quick:
        sizes = (256, 1024)
    else:
        sizes = (64, 256, 1024)
    rng = np.random.default_rng(args.seed)
    data = rng.lognormal(1.0, 1.0, max(sizes) * CELL_SIZE)
    cells = build_packed_cells(data, cell_size=CELL_SIZE, k=10)
    # Warm both paths (grid/coefficient caches) before timing.
    batched_timings(cells, 64)
    time_reference(cells, 64)

    print(f"{'cells':>6} {'batched_s':>10} {'scalar_s':>10} "
          f"{'batched_ms/sk':>14} {'scalar_ms/sk':>13} {'speedup':>8} "
          f"{'max_newton_b/s':>15} {'solve_calls':>12}")
    gate_speedup = None
    repeats = max(args.repeats, 1)
    for n in sizes:
        batched = min(
            (batched_timings(cells, n) for _ in range(repeats)),
            key=lambda t: t.solve_seconds)
        scalar_seconds = min(time_reference(cells, n)
                             for _ in range(repeats))
        speedup = (scalar_seconds / batched.solve_seconds
                   if batched.solve_seconds else float("inf"))
        if n == GATE_CELLS:
            gate_speedup = speedup
        iterations = "%d/%d" % newton_iterations(cells, n)
        print(f"{n:>6} {batched.solve_seconds:>10.4f} "
              f"{scalar_seconds:>10.4f} "
              f"{1e3 * batched.solve_seconds / n:>14.3f} "
              f"{1e3 * scalar_seconds / n:>13.3f} {speedup:>7.2f}x "
              f"{iterations:>15} {batched.solve_calls:>12}")

    one_row = min(256, max(sizes))
    solve_us, batch_us = one_row_costs(cells, one_row, max(repeats, 5))
    print(f"one-row Newton over {one_row} cells: solve {solve_us:.0f} us/sketch, "
          f"solve_batch([basis]) {batch_us:.0f} us/sketch")

    failures = check_decisions(cells, min(256, max(sizes)))
    if gate_speedup is not None and gate_speedup < args.require_speedup:
        failures.append(
            f"batched group solve at {GATE_CELLS} cells is only "
            f"{gate_speedup:.2f}x the per-sketch reference loop "
            f"(required >= {args.require_speedup}x)")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"OK: >= {args.require_speedup}x at {GATE_CELLS} cells; "
          "decisions bit-identical; estimates within 1e-6")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
