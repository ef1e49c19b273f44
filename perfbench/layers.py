"""Traced pass: per-layer timings of the package's public functions.

Each stage times one public call (or one call per vertex or index, where
the stage is a query over all of them) with ``perf_counter``, in this
process.  Peak memory is taken with ``tracemalloc`` in a separate pass so
that it does not slow the timings.  The layers are the package's modules:
``cli``, ``io``, ``mset``, ``hbgraph``, ``transform``, ``tensor``,
``spectral`` and ``paths``.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import gen
import oracle
from child import Runner

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hbtensor import (  # noqa: E402
    HbGraph,
    Multiset,
    NotAHypergraph,
    connected_components,
    diameter,
    e_adjacency_tensor,
    edge_distribution,
    estimate_max_eigenvalue,
    hypergraph_tensor,
    io,
    reconstruct_edges,
    spectral_bound,
    uniformize,
)

STARTUP_REPEATS = 5
E2E_REPEATS = 3
SLOPE_SIZES = (250, 500, 1000)
SLOPE_PI_ITERATIONS = 20  # power iterations timed per size for the per-iteration slope


def peak_mib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def row_sums(t, first: int, last: int) -> list:
    return [t.row_sum(i) for i in range(first, last + 1)]


def input_size(g: gen.Graph) -> int:
    """Input size as the roadmap counts it: n + p + sum of support sizes."""
    return g.n + g.p + g.incidences


class Trace:
    """Per-layer metrics of one traced run, with its op counts."""

    def __init__(self, workload: str, work: Path, verify_seed: str):
        self.workload = workload
        self.runner = Runner(ROOT, work)
        self.work = work
        self.verify_seed = verify_seed
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def get(self, name: str) -> float:
        return self.metrics[name][0]

    def timed(self, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start

    def stage(self, name: str, fn, *args):
        result, seconds = self.timed(fn, *args)
        self.put(name, seconds, "s")
        return result

    def power_iteration(self, t, ap: str, iterations: int = 10_000):
        """(iterations run, seconds, failed) of the estimator ``verify`` runs.

        It fails on ``highmult`` layered tensors, a known defect (the CLI
        exits 4); any other failure makes the run incorrect."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = estimate_max_eigenvalue(t, iterations=iterations, seed=int(self.verify_seed))
        except Exception as exc:  # the CLI turns any error here into exit 4; count it
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.wrong += not (self.workload == "highmult" and ap == "lay"
                               and oracle.overflow_defect(4, f"internal error: {exc}"))
            return 0, time.perf_counter() - start, True
        return result.iterations, time.perf_counter() - start, False

    def check(self, reason: str | None) -> None:
        """Count an output the oracle rejects."""
        self.attempted += 1
        self.failed += reason is not None
        self.wrong += reason is not None

    def stages(self, g: gen.Graph, path: Path) -> dict[str, float]:
        """One timed call per public entry point; returns the row-sum time
        over the original vertices, per approach, which ``verify`` pays."""
        startup = [self.runner.run(["-c", "import hbtensor.cli"]).wall_s
                   for _ in range(STARTUP_REPEATS)]
        self.put("cli.startup_s", statistics.median(startup), "s")
        h = self.stage("io.load_hbgraph_s", io.load_hbgraph, path)
        vs, mults = h.vertices, [e.mult for e in h.edges]
        self.stage("mset.build_s", lambda: [Multiset(vs, m) for m in mults])
        self.stage("hbgraph.from_dicts_s", HbGraph.from_dicts, vs, mults)
        self.stage("hbgraph.order_s", h.order)
        self.stage("hbgraph.m_degree_all_s", lambda: [h.m_degree(v) for v in vs])
        self.stage("hbgraph.incidence_matrix_s", h.incidence_matrix)
        self.stage("paths.connected_components_s", connected_components, h)
        self.stage("paths.diameter_s", diameter, h)

        original_rows = {}
        for ap, full in oracle.APPROACHES.items():
            self.stage(f"transform.uniformize.{ap}_s", uniformize, h, full)
            t, trace = self.stage(f"tensor.e_adjacency.{ap}_s", e_adjacency_tensor, h, full)
            text = self.stage(f"io.tensor_to_coo.{ap}_s", io.tensor_to_coo, t)
            self.put(f"io.coo_bytes.{ap}", len(text.encode()), "B")
            self.check(oracle.check_coo(g, ap, text, io.dumps(io.trace_to_obj(trace))))
            _, original_rows[ap] = self.timed(row_sums, t, 1, h.n)
            _, null_rows = self.timed(row_sums, t, h.n + 1, t.dim)
            self.put(f"tensor.row_sums.{ap}_s", original_rows[ap] + null_rows, "s")
            self.stage(f"tensor.total_sum.{ap}_s", t.total_sum)
            self.stage(f"tensor.edge_distribution.{ap}_s", edge_distribution, t, trace, h.p)
            if ap == "sil":
                self.stage("tensor.reconstruct_edges.sil_s", reconstruct_edges, t, trace)
            self.stage(f"spectral.spectral_bound.{ap}_s", spectral_bound, t, trace)
            iters, seconds, failed = self.power_iteration(t, ap)
            self.put(f"spectral.power_iteration.{ap}_s", seconds, "s")
            self.put(f"spectral.power_iteration.{ap}_iters", iters, "count")
            self.put(f"spectral.power_iteration.{ap}_per_iter_s", seconds / max(iters, 1), "s")
            self.put(f"spectral.power_iteration.{ap}_failed", int(failed), "count")
            self.put(f"size.dim.{ap}", t.dim, "count")

        self.attempted += 1
        start = time.perf_counter()
        try:
            hypergraph_tensor(h)
        except NotAHypergraph:  # the {0,1} check rejects an hb-graph at once
            pass
        self.put("tensor.hypergraph_tensor_s", time.perf_counter() - start, "s")

        for name, value in (("n", h.n), ("p", h.p), ("r_h", g.r_h),
                            ("incidences", g.incidences), ("nnz", t.canonical_count()),
                            ("key_slots", t.canonical_count() * t.order)):
            self.put(f"size.{name}", value, "count")
        return original_rows

    def memory(self, path: Path) -> None:
        h = io.load_hbgraph(path)
        mults = [e.mult for e in h.edges]
        self.put("hbgraph.from_dicts_peak_mib",
                 peak_mib(HbGraph.from_dicts, h.vertices, mults), "MiB")
        for ap, full in oracle.APPROACHES.items():
            self.put(f"tensor.e_adjacency.{ap}_peak_mib",
                     peak_mib(e_adjacency_tensor, h, full), "MiB")

    def cli_median(self, check, *args: str) -> float:
        """Median wall time of a CLI command run ``E2E_REPEATS`` times."""
        walls = []
        for _ in range(E2E_REPEATS):
            out = self.runner.cli(*args)
            reason = check(out) if out.code == 0 else f"exit {out.code}"
            self.attempted += 1
            self.failed += reason is not None
            self.wrong += reason is not None  # neither verb fails at the seed
            walls.append(out.wall_s)
        return statistics.median(walls)

    def coverage(self, g: gen.Graph, path: Path, original_rows: dict[str, float]) -> None:
        """Share of an end-to-end median that the stages on its path explain."""
        front = self.get("cli.startup_s") + self.get("io.load_hbgraph_s")
        coo = self.work / "coverage.coo"

        def check_coo(out):
            trace = Path(f"{coo}.trace.json").read_text(encoding="utf-8")
            return oracle.check_coo(g, "lay", coo.read_text(encoding="utf-8"), trace)

        e2e = self.cli_median(check_coo, "tensor", str(path), "--approach", "lay", "--out", str(coo))
        path_s = front + self.get("tensor.e_adjacency.lay_s") + self.get("io.tensor_to_coo.lay_s")
        self.put("trace.coverage.tensor_lay", path_s / e2e, "ratio")

        e2e = self.cli_median(lambda out: oracle.check_verify(out.stdout), "verify", str(path),
                              "--approach", "sil", "--seed", self.verify_seed)
        path_s = front + self.get("hbgraph.m_degree_all_s") + original_rows["sil"] + sum(
            self.get(f"{stage}.sil_s")
            for stage in ("tensor.e_adjacency", "tensor.total_sum", "tensor.edge_distribution",
                          "tensor.reconstruct_edges", "spectral.spectral_bound",
                          "spectral.power_iteration"))
        self.put("trace.coverage.verify_sil", path_s / e2e, "ratio")

    def slopes(self, seed: int) -> None:
        """Log-log slope of stage time against input size, sparse family,
        and the stage time at the largest size."""
        xs, ys = [], {}
        for size in SLOPE_SIZES:
            s = gen.SPARSE
            family = gen.Family(size, size, s.k_max, s.m_max, s.r_h)
            g = gen.generate(family, f"slope:{seed}:{size}")
            path = self.work / f"slope{size}.json"
            g.write(path)
            xs.append(math.log(input_size(g)))
            h, seconds = self.timed(io.load_hbgraph, path)
            ys.setdefault("load", []).append(seconds)
            for ap, full in oracle.APPROACHES.items():
                _, seconds = self.timed(uniformize, h, full)
                ys.setdefault(f"uniformize.{ap}", []).append(seconds)
                (t, trace), seconds = self.timed(e_adjacency_tensor, h, full)
                ys.setdefault(f"e_adjacency.{ap}", []).append(seconds)
                _, seconds = self.timed(row_sums, t, 1, t.dim)
                ys.setdefault(f"row_sums.{ap}", []).append(seconds)
                _, seconds = self.timed(spectral_bound, t, trace)
                ys.setdefault(f"spectral_bound.{ap}", []).append(seconds)
                iters, seconds, _ = self.power_iteration(t, ap, SLOPE_PI_ITERATIONS)
                ys.setdefault(f"power_iteration_per_iter.{ap}", []).append(seconds / max(iters, 1))
        for stage, times in ys.items():
            fit = statistics.linear_regression(xs, [math.log(y) for y in times])
            self.put(f"slope.{stage}", fit.slope, "1")
            self.put(f"n{SLOPE_SIZES[-1]}.{stage}_s", times[-1], "s")


def traced(workload: str, g: gen.Graph, seed: int, work: Path, verify_seed: str) -> dict:
    """All per-layer metrics for input ``g`` and the sparse slope family."""
    path = work / "traced.json"
    g.write(path)
    trace = Trace(workload, work, verify_seed)
    original_rows = trace.stages(g, path)
    trace.memory(path)
    trace.coverage(g, path, original_rows)
    trace.slopes(seed)
    return {
        "correct": trace.wrong == 0,
        "attempted": trace.attempted,
        "failed": trace.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in trace.metrics.items()},
    }
