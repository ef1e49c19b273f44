"""Benchmark of the ``hbtensor`` command line on generated hb-graphs.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` runs the end-to-end pass: a
single client in a closed loop runs the CLI verbs as child processes, one at
a time, each started after the previous one has been reaped, and checks
every output with ``oracle``.  A round runs the op mix once on the run's
input; the run does at least ``MIN_ROUNDS`` rounds and then whole rounds
until ``--seconds`` have passed.  ``--trace 1`` runs the traced pass of
``layers`` instead, which times the package's public functions in-process.
``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` and ``failed`` count distinct
ops, one per (input, verb), however often an op was repeated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
from child import Outcome, Runner, reference_s, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (family, whether a weighted copy of the input joins the first
# round).  The weighted copy probes a known defect once per run.
WORKLOADS = {
    "sparse": (gen.SPARSE, True),
    "highmult": (gen.HIGHMULT, False),
    "hypergraph": (gen.HYPERGRAPH, False),
}
SETUP_REPEATS = 5
MIN_ROUNDS = 3
VERIFY_SEED = "7"

# Failures the seed program shows, pinned to their exact signature:
# (workload, weighted input, metric) -> test of the outcome.  Such an op
# counts as failed without making the run incorrect; any other failure
# makes it incorrect.
_WEIGHTED = lambda out: oracle.weighted_verify_defect(out.code, out.stdout)  # noqa: E731
KNOWN_DEFECTS = {
    ("sparse", True, "verify_str_s"): _WEIGHTED,
    ("sparse", True, "verify_sil_s"): _WEIGHTED,
    ("sparse", True, "verify_lay_s"): _WEIGHTED,
    ("highmult", False, "verify_lay_s"): lambda out: oracle.overflow_defect(out.code, out.stderr),
}

E2E_METRICS = {
    "setup_s": "s",
    "info_s": "s",
    "paths_s": "s",
    "tensor_str_s": "s",
    "tensor_sil_s": "s",
    "tensor_lay_s": "s",
    "verify_str_s": "s",
    "verify_sil_s": "s",
    "verify_lay_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ops_ok_frac": "ratio",
}


def make_inputs(workload: str, seed: int, work: Path) -> list[tuple[gen.Graph, Path]]:
    """The run's input, then its weighted copy if the workload has one."""
    family, weighted = WORKLOADS[workload]
    inputs = []
    for k in range(1 + weighted):
        g = gen.generate(family, f"{workload}:{seed}:{k}", weighted=k == 1)
        path = work / f"input{k}.json"
        g.write(path)
        inputs.append((g, path))
    return inputs


def op_mix(g: gen.Graph, path: Path, work: Path):
    """(metric, CLI arguments, output check) for the eight ops run on one input."""
    yield "info_s", ["info", str(path)], lambda out: oracle.check_info(g, out.stdout)
    yield "paths_s", ["paths", str(path)], lambda out: oracle.check_paths(g, out.stdout)
    for ap in oracle.APPROACHES:
        coo = work / f"tensor_{ap}.coo"

        def check(out: Outcome, ap=ap, coo=coo):
            trace = Path(f"{coo}.trace.json").read_text(encoding="utf-8")
            return oracle.check_coo(g, ap, coo.read_text(encoding="utf-8"), trace)

        yield f"tensor_{ap}_s", ["tensor", str(path), "--approach", ap, "--out", str(coo)], check
    for ap in oracle.APPROACHES:
        args = ["verify", str(path), "--approach", ap, "--seed", VERIFY_SEED]
        yield f"verify_{ap}_s", args, lambda out: oracle.check_verify(out.stdout)


@dataclass
class Tally:
    """Outcomes of the ops of one run."""

    workload: str
    # scaled times of the passed and the failed samples, per (weighted, metric)
    ok: dict[tuple[bool, str], list[float]] = field(default_factory=dict)
    bad: dict[tuple[bool, str], list[float]] = field(default_factory=dict)
    walls: dict[str, list[float]] = field(default_factory=dict)  # passed, per metric
    edges: dict[tuple[bool, str], int] = field(default_factory=dict)
    reasons: dict[str, int] = field(default_factory=dict)
    rss_kib: int = 0
    wrong: int = 0  # samples that failed other than as a known defect

    def add(self, metric: str, g: gen.Graph, out: Outcome, check) -> None:
        op = (g.weights is not None, metric)
        self.edges[op] = g.p
        self.rss_kib = max(self.rss_kib, out.rss_kib)
        known = KNOWN_DEFECTS.get((self.workload, *op))
        try:
            if out.code == 0:
                reason = check(out)
            else:
                tail = out.stderr.strip().splitlines()[-1:] or ["no message"]
                reason = f"exit {out.code}: {tail[0][:160]}"
                if known is not None and known(out):
                    reason = f"known defect, {reason}"
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"exit {out.code}, unreadable output: {exc!r}"
        if reason is None:
            self.ok.setdefault(op, []).append(scaled(out.wall_s, out.ref_s))
            self.walls.setdefault(metric, []).append(out.wall_s)
            return
        self.bad.setdefault(op, []).append(scaled(out.wall_s, out.ref_s))
        self.wrong += not reason.startswith("known defect")
        weighted = " (weighted)" if op[0] else ""
        key = f"{metric}{weighted} {reason[:200]}"
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def samples(self, metric: str) -> tuple[list[float], list[float]]:
        """Passed and failed scaled times of a verb, over the run's inputs."""
        ok = [t for (_, m), ts in self.ok.items() if m == metric for t in ts]
        bad = [t for (_, m), ts in self.bad.items() if m == metric for t in ts]
        return ok, bad

    def fixed_defects(self) -> list[str]:
        """Known defects whose op ran and never failed."""
        return [f"{metric}{' (weighted)' if weighted else ''}"
                for workload, weighted, metric in KNOWN_DEFECTS
                if workload == self.workload and (weighted, metric) in self.ok
                and (weighted, metric) not in self.bad]


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> dict:
    runner = Runner(ROOT, work)
    setup = []
    for _ in range(SETUP_REPEATS):
        ref_before = reference_s()
        start = time.perf_counter()
        inputs = make_inputs(workload, seed, work)
        runner.cli("paths", str(inputs[0][1]))  # warm-up op, not counted
        wall = time.perf_counter() - start
        setup.append(scaled(wall, (ref_before + reference_s()) / 2))

    tally = Tally(workload)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for g, path in inputs if rounds == 0 else inputs[:1]:
            for metric, args, check in op_mix(g, path, work):
                for stale in work.glob("tensor_*"):  # a check must see this op's output
                    stale.unlink()
                tally.add(metric, g, runner.cli(*args), check)
        rounds += 1

    # Every time is scaled to the nominal machine speed (see ``child``) and
    # is the median of its samples.
    values: dict[str, float] = {"setup_s": statistics.median(setup)}
    samples: dict[str, str] = {"setup_s": f"median of {SETUP_REPEATS} set-ups"}
    for metric in E2E_METRICS:
        if not metric.startswith(("info", "paths", "tensor", "verify")):
            continue
        ok, bad = tally.samples(metric)
        # A verb with no passed sample still needs a number: the median of
        # its failed samples, flagged in the sample note.
        values[metric] = statistics.median(ok or bad)
        wall = f", wall median {statistics.median(tally.walls[metric]):.4g} s" if ok else ""
        samples[metric] = f"{len(ok)} ok, {len(bad)} failed{wall}" + ("" if ok else ", FAILED OPS ONLY")
    passed = [op for op in tally.edges if op not in tally.bad]
    attempted, failed = len(tally.edges), len(tally.edges) - len(passed)
    values["edges_per_s"] = (sum(tally.edges[op] for op in passed)
                             / sum(statistics.median(tally.ok[op]) for op in passed))
    values["peak_rss_mib"] = tally.rss_kib / 1024
    values["ops_ok_frac"] = len(passed) / attempted
    samples["edges_per_s"] = f"{len(passed)} passed ops, each at its median"
    samples["ops_ok_frac"] = f"{failed} of {attempted} distinct ops failed"
    return {
        "correct": tally.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in E2E_METRICS.items()},
        "detail": {"rounds": rounds, "samples": samples, "failures": tally.reasons,
                   "fixed_defects": tally.fixed_defects()},
    }


def report(workload: str, result: dict) -> None:
    """Human-readable lines for one workload."""
    detail = result.pop("detail", {})
    print(f"== {workload}: {result['attempted']} ops, {result['failed']} failed,"
          f" correct={result['correct']}")
    for name, m in result["metrics"].items():
        note = detail.get("samples", {}).get(name, "")
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:8s} {note}")
    for reason, count in detail.get("failures", {}).items():
        print(f"  failed x{count}: {reason}")
    for op in detail.get("fixed_defects", []):
        print(f"  known defect no longer shows: {op} passed the oracle")
    print("detail " + json.dumps({"workload": workload, **detail}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hbtensor" / "cli.py").is_file():
        print(f"error: no hbtensor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    results = {}
    try:
        for workload in workloads:
            if args.trace:
                import layers

                family, _ = WORKLOADS[workload]
                g = gen.generate(family, f"{workload}:{args.seed}:0")
                result = layers.traced(workload, g, args.seed, work, VERIFY_SEED)
            else:
                result = end_to_end(workload, args.seed, args.seconds, work)
            report(workload, result)
            results[workload] = result
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
