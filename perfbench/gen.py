"""Seeded hb-graph generators for the benchmark workloads.

A family draws each hb-edge as 1..``k_max`` distinct vertices with
multiplicities in 1..``m_max``.  The list of edge m-cardinalities (the level
profile) is the ``p`` evenly spaced quantiles of that draw's m-cardinality
distribution, with the largest pinned at ``r_h``.

Each family has one base hb-graph, drawn from a seed fixed by the family's
shape.  The ``--seed`` of a run picks an isomorphic copy of it: a random
relabelling of the vertices, a random edge order and, for a weighted input,
random edge weights.  The cost of an op therefore hardly depends on the
seed (the power iteration's random start still moves its iteration count
by about 2 %).  With a structure drawn per seed, one silo power iteration
ran 981 to 3618 iterations on ``highmult`` inputs of the same shape, and
that draw would hide the program's own changes.

Each ``Graph`` also carries the facts the oracle checks the CLI's output
against.  This module does not import ``hbtensor``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Family:
    """Shape of one workload's inputs."""

    n: int
    p: int
    k_max: int  # support sizes 1..k_max
    m_max: int  # multiplicities 1..m_max
    r_h: int  # pinned m-range; no edge is larger


SPARSE = Family(n=250, p=250, k_max=4, m_max=4, r_h=16)
HIGHMULT = Family(n=40, p=40, k_max=3, m_max=120, r_h=300)
HYPERGRAPH = Family(n=500, p=500, k_max=5, m_max=1, r_h=5)


@dataclass
class Graph:
    """A generated hb-graph and the facts derived from it by hand."""

    n: int
    edges: list[dict[int, int]]  # 1-based vertex index -> multiplicity
    weights: list[int] | None

    @property
    def p(self) -> int:
        return len(self.edges)

    @cached_property
    def r_h(self) -> int:
        return max(sum(e.values()) for e in self.edges)

    @cached_property
    def incidences(self) -> int:
        return sum(len(e) for e in self.edges)

    def weight(self, k: int) -> int:
        return 1 if self.weights is None else self.weights[k]

    def to_obj(self) -> dict:
        records = []
        for k, e in enumerate(self.edges):
            record: dict = {"mult": {f"v{i}": m for i, m in e.items()}}
            if self.weights is not None:
                record["weight"] = self.weights[k]
            records.append(record)
        return {"vertices": [f"v{i}" for i in range(1, self.n + 1)], "edges": records}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_obj(), fh)

    def vertex_table(self) -> list[tuple[int, int, int]]:
        """(m-degree, degree, max multiplicity) per vertex, in vertex order."""
        m_deg = [0] * (self.n + 1)
        deg = [0] * (self.n + 1)
        top = [0] * (self.n + 1)
        for e in self.edges:
            for i, m in e.items():
                m_deg[i] += m
                deg[i] += 1
                top[i] = max(top[i], m)
        return [(m_deg[i], deg[i], top[i]) for i in range(1, self.n + 1)]

    def component_count(self) -> int:
        """Connected components of the support hypergraph (union-find)."""
        parent = list(range(self.n + 1))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in self.edges:
            first, *rest = e
            for j in rest:
                parent[find(j)] = find(first)
        return len({find(i) for i in range(1, self.n + 1)})


def level_profile(f: Family) -> list[int]:
    """Edge m-cardinalities: ``p`` quantiles of the draw, the top one at r_h."""
    one = {m: 1.0 / f.m_max for m in range(1, f.m_max + 1)}
    dist: dict[int, float] = {}
    conv = {0: 1.0}
    for _ in range(f.k_max):  # conv = distribution of a sum of k multiplicities
        nxt: dict[int, float] = {}
        for s, ps in conv.items():
            for m, pm in one.items():
                nxt[s + m] = nxt.get(s + m, 0.0) + ps * pm
        conv = nxt
        for s, ps in conv.items():
            if s <= f.r_h:
                dist[s] = dist.get(s, 0.0) + ps / f.k_max
    total = sum(dist.values())
    cards = []
    levels = iter(sorted(dist))
    c = next(levels)
    acc = dist[c] / total
    for i in range(f.p):
        q = (i + 0.5) / f.p
        while acc < q:
            c = next(levels)
            acc += dist[c] / total
        cards.append(c)
    cards[-1] = f.r_h
    return cards


def _split(rng: random.Random, c: int, f: Family) -> list[int]:
    """Random multiplicities in 1..m_max over 1..k_max vertices summing to c."""
    k = rng.choice([k for k in range(1, f.k_max + 1) if k <= c <= k * f.m_max])
    parts = [1] * k
    for _ in range(c - k):
        parts[rng.choice([j for j in range(k) if parts[j] < f.m_max])] += 1
    return parts


def base_edges(f: Family) -> list[dict[int, int]]:
    """The family's natural hb-graph, pairwise distinct edges on its profile."""
    rng = random.Random(repr(f))
    edges: list[dict[int, int]] = []
    seen: set[tuple] = set()
    for c in level_profile(f):
        while True:
            parts = _split(rng, c, f)
            e = dict(zip(rng.sample(range(1, f.n + 1), len(parts)), parts))
            key = tuple(sorted(e.items()))
            if key not in seen:
                seen.add(key)
                edges.append(e)
                break
    return edges


def generate(f: Family, seed: str, weighted: bool = False) -> Graph:
    """The copy of the family's base hb-graph that ``seed`` picks."""
    rng = random.Random(seed)
    label = dict(zip(range(1, f.n + 1), rng.sample(range(1, f.n + 1), f.n)))
    edges = [{label[i]: m for i, m in e.items()} for e in base_edges(f)]
    rng.shuffle(edges)
    weights = [rng.randint(1, 5) for _ in edges] if weighted else None
    return Graph(f.n, edges, weights)
