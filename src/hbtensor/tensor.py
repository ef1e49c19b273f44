"""Canonical sparse symmetric hypermatrices and e-adjacency tensors.

A symmetric tensor of order r and dimension d stores one canonical entry per
index multiset, as runs (first, multiplicity, count): ``count`` consecutive
indices from ``first``, each taken ``multiplicity`` times.  A key's runs
ascend and are maximal (no run continues the one before it at the same
multiplicity), so the runs are a function of the dense nondecreasing index
tuple alone.  A tensor hands out one dense view, ``canonical_items`` (and
its expansion ``full_items``), and one run view, ``polynomial``, keyed by the
runs themselves.  Being canonical is a property of each key, not an order
among entries: entries are kept in the order they come (edge order from the
constructions, record order from the COO reader), and only
``canonical_items`` sorts, by dense key.  Every permutation of an entry's
indices denotes the same logical entry.
Each entry is stored as its exact share, a * multinomial(m) / r for value a
and multiplicities m (an int when integral): multinomial(m) * m_i / r of its
permutations start with i, so it adds share * m_i to row i and r * share to
the total.  The value a is computed only where it leaves the tensor: in
``get``, ``canonical_items`` and ``full_items``.  Every exact number the
tensor returns (values, row sums, the total, the polynomial's coefficients
and values) follows ``hbgraph.as_rational``: an int when integral, a
``Fraction`` otherwise; the cached row sums are kept raw and normalised as
they are handed out.  Before a writer builds a value,
``tensorfile`` bounds its denominator's digits from log-gammas alone, by
``_log10_multinomial``.  The dense keys, the full expansion and the dense
row-sum view ``row_sums`` are refused past ``transform.MAX_INDICES`` indices
or rows, before any is built.  Row sums, levels, multinomials and
reconstruction read a run whole, so they cost O(runs) per entry, not
O(indices).

A row sum is constant between two consecutive run boundaries (the first
index of a run, and the one after its last), so each tensor keeps one piece
table, made on first use in one sweep over the sorted boundaries: the raw
row sum of each piece, 0 over a gap that no run holds, and the estimator's
twin classes with their piece map (``_pieces``).  ``row_sum`` finds its
piece by bisection, ``row_sums`` and ``verify``'s degree check expand the
pieces, and ``spectral`` reads the largest row of a range off the pieces
that meet it, and its classes off the same table, so that none of them
costs O(dim): at most 2 (runs) + 1 pieces, whatever the dimension.

The tensor's polynomial is P(x) = r * sum of share * prod x_j^{m_j}, and
``polynomial`` keys its monomials by the entries' run keys; the polynomial
type, ``HbPolynomial``, and its construction live in ``algebra``.
The contraction A x^{r-1} is (1/r) times the gradient of P, so it reads the
shares alone.  Its kernel, a trie of the entries' indices and two passes
over it, lives in ``spectral`` beside the float power iteration, its one
caller on a verb's path; ``apply`` imports it when called and runs it exactly.

The e-adjacency tensor of an hb-graph contributes one canonical entry per
hb-edge.  Its key is the key the graph stores for the edge, its column of
the incidence matrix as runs over the 1-based vertex positions, followed by
the closed-form null-vertex padding run of ``transform.padding``, whose
indices lie above every vertex: a concatenation, merged only where a run
continues the one before it, with no sort and no uniform hb-graph built.
So a key holds at most |supp e| + 1 runs under every approach; a layered
entry of level c pads with the one run (n + c, 1, r_H - c).  The entry's value is the paper's

    w * (product of the multiplicities' factorials) / (r_H - 1)!

for edge weight w (1 when unweighted), whose share is exactly w; diagonal
entries equal r_H precisely for full-multiplicity singleton edges.  Row i is
then sum_e w_e m_e(v_i) and the total r_H sum_e w_e (Cooper and Dutle's
degree normalisation for k-uniform hypergraphs), and under every approach an
entry's level, the summed multiplicity of its original-vertex indices, is its
hb-edge's m-cardinality.

This module is the verbs' core: the symmetric tensor, the e-adjacency
tensor, its levels, its reconstructed edge family, and ``_identities``,
``verify``'s exact checks of a built or a read tensor.  The paper's other
tensors (the multiset hypermatrix, the elementary, uniform and hypergraph
tensors), the hb-edge distribution and the reconstructed hb-graph are built
from the same keys in ``algebra``, which no verb imports.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, DomainError, IndexOutOfRange, TraceMismatch
from .hbgraph import HbGraph, Rational, _fraction, _ratio, as_rational
from .io import _MAX_DIGITS, format_rational
from .transform import (
    APPROACHES,
    MAX_INDICES,
    UniformisationTrace,
    _limit,
    _uniformisation_trace,
    padding,
)

# a key: canonical runs (first index, multiplicity, count) (module docstring)
Runs = tuple[tuple[int, int, int], ...]
# a dense key: the nondecreasing index tuple of an entry
Key = tuple[int, ...]

# the most records a full COO export expands to: order <= 10 fits
MAX_FULL_RECORDS = 10**7
# the log-gammas of a smaller order stay far inside the float range
_FLOAT_ORDER = 2**1000


def _multinomial(runs: Runs) -> int:
    """(m_1 + ... + m_k)! / (m_1! ... m_k!) of the multiplicities of ``runs``,
    as the product of the binomials C(m_1 + ... + m_j, m_j), whose cost follows
    the size of the result, not r!.  A run of c indices at multiplicity m
    multiplies in t! / ((t - c m)! m!^c) at once, t the multiplicities up to
    its end."""
    total, result = 0, 1
    for _, m, c in runs:
        total += c * m
        result *= (
            math.comb(total, m) if c == 1 else math.perm(total, c * m) // math.factorial(m) ** c
        )
    return result


def _log10_multinomial(runs: Runs, r: int) -> float:
    """A lower bound on log10 of the multinomial of ``runs``, whose
    multiplicities sum to r, less a margin of one digit, from log-gammas
    alone: they lose 10^-12 of lgamma(r + 1), far above their float error.
    From r = ``_FLOAT_ORDER`` on, no float bound: +inf where the
    multiplicities besides the largest sum past 14, as the multinomial is then
    at least C(r, 15) > 10^4497, and no bound (-inf) otherwise."""
    if r >= _FLOAT_ORDER:
        return math.inf if r - max(m for _, m, _ in runs) > 14 else -math.inf
    top = math.lgamma(r + 1)
    rest = math.fsum(c * math.lgamma(m + 1) for _, m, c in runs)
    return (top - rest - 1e-12 * top) / math.log(10) - 1


def _value(runs: Runs, share: Rational, r: int) -> Rational:
    """The value of an entry stored as ``share``: share * r / multinomial."""
    return _ratio(share * r, _multinomial(runs))


def _merged(runs: Iterable) -> Runs:
    """Ascending runs in canonical form: a run that continues the one before
    it at the same multiplicity joins it."""
    out = [(0, 0, 0)]  # no run continues this one: indices start at 1
    for run in runs:
        first, m, c = out[-1]
        if run[:2] == (first + c, m):
            run = first, m, c + run[2]
            out.pop()
        out.append(run)
    return tuple(out[1:])


def _runs(key: Key) -> Runs:
    """Canonical runs of a nondecreasing index tuple."""
    return _merged((i, m, 1) for i, m in Counter(key).items())


def _dense(runs: Runs) -> Key:
    """Nondecreasing index tuple of a run key."""
    return tuple(chain.from_iterable([(i,) * m for j, m, c in runs for i in range(j, j + c)]))


def _shown(runs: Runs) -> str:
    """A key for a message: each run as index^multiplicity, a run of c > 1
    indices as first^multiplicity*c, the first eight of them."""
    shown = " ".join(f"{i}^{m}" + f"*{c}" * (c > 1) for i, m, c in runs[:8])
    return shown + f" ... ({len(runs)} runs)" * (len(runs) > 8)


def _distinct_permutations(key: Key):
    """Distinct permutations of a sorted index tuple, lexicographically."""
    perm = list(key)
    while True:
        yield tuple(perm)
        k = len(perm) - 2
        while k >= 0 and perm[k] >= perm[k + 1]:
            k -= 1
        if k < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[k]:
            j -= 1
        perm[k], perm[j] = perm[j], perm[k]
        perm[k + 1 :] = reversed(perm[k + 1 :])


class SymTensor:
    """Immutable sparse symmetric hypermatrix with exact rational entries.

    Values leave it through ``get``, ``canonical_items`` and ``full_items``;
    row sums, the total, ``apply`` and ``polynomial`` read the shares."""

    __slots__ = ("_order", "_dim", "_entries", "_rows")

    def __init__(self, order: int, dim: int, entries: Mapping[Key, Rational]):
        if order < 1:
            raise DomainError("tensor order must be >= 1")
        if dim < 0:
            raise DomainError("tensor dimension must be >= 0")
        shares = []
        for key, raw in entries.items():
            key = tuple(key)
            if len(key) != order:
                raise DomainError(f"index tuple {key} has length != order {order}")
            ordered = tuple(sorted(key))
            if ordered[0] < 1 or ordered[-1] > dim:
                raise IndexOutOfRange(f"index tuple {key} outside 1..{dim}")
            if ordered != key:
                raise DomainError(f"index tuple {key} is not sorted")
            # an int or a Fraction as it is, a bool as an int, anything else made exact
            value = raw if hasattr(raw, "denominator") else _fraction(raw)
            if value != 0:
                runs = _runs(key)  # stored as its share (module docstring)
                shares.append((runs, _ratio(value * _multinomial(runs), order)))
        self._build(order, dim, shares)

    @classmethod
    def _from_shares(cls, order: int, dim: int, shares: Iterable) -> "SymTensor":
        """Tensor of the nonzero (canonical run key, share) pairs built in this module."""
        t = object.__new__(cls)
        t._build(order, dim, shares)
        return t

    def _build(self, order: int, dim: int, shares: Iterable) -> None:
        """The one builder: store the (run key, share) pairs in the order given."""
        for name, value in zip(self.__slots__, (order, dim, dict(shares), None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SymTensor is immutable")

    @property
    def order(self) -> int:
        return self._order

    @property
    def dim(self) -> int:
        return self._dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (
            self._order == other._order
            and self._dim == other._dim
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self._order, self._dim, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        return f"SymTensor(order={self._order}, dim={self._dim}, nnz={len(self._entries)})"

    def canonical_count(self) -> int:
        return len(self._entries)

    def canonical_items(self) -> list[tuple[Key, Rational]]:
        """(dense key, value) per entry, in the dense keys' order."""
        r = self._order
        _limit(len(self._entries) * r, "dense keys would hold {} indices")
        return sorted((_dense(runs), _value(runs, s, r)) for runs, s in self._entries.items())

    def get(self, idx: Sequence[int]) -> Rational:
        """Logical entry for any index permutation; zero when absent."""
        key = tuple(sorted(idx))
        if len(key) != self._order:
            raise DimensionMismatch(f"expected {self._order} indices, got {len(key)}")
        if key[0] < 1 or key[-1] > self._dim:
            raise IndexOutOfRange(f"index tuple {key} outside 1..{self._dim}")
        runs = _runs(key)
        share = self._entries.get(runs)
        return 0 if share is None else _value(runs, share, self._order)

    def logical_nonzero_count(self) -> int:
        """Number of nonzero positions in the full symmetric expansion; one the
        log-gammas show to exceed 4300 digits is refused before any multinomial
        is built."""
        r = self._order
        if any(_log10_multinomial(runs, r) > _MAX_DIGITS for runs in self._entries):
            raise DomainError(
                f"logical nonzero count at order {format_rational(r)} exceeds {_MAX_DIGITS} digits"
            )
        return sum(map(_multinomial, self._entries))

    def total_sum(self) -> Rational:
        """Sum over all logical entries: r times the summed shares."""
        return as_rational(self._order * sum(self._entries.values()))

    def row_sum(self, i: int) -> Rational:
        """Sum of all logical entries whose first index is ``i``: its piece's."""
        if not 1 <= i <= self._dim:
            raise IndexOutOfRange(f"index {i} outside 1..{self._dim}")
        points, rows = self._pieces()[:2]
        return as_rational(rows[bisect_right(points, i) - 1])

    def row_sums(self) -> list[Rational]:
        """All row sums, the one dense view of the piece table; item i-1 is
        row_sum(i)."""
        _limit(self._dim, "row sums would hold {} rows")
        return list(map(as_rational, self._rows_to(self._dim)))

    def _rows_to(self, count: int) -> list:
        """The raw rows 1..count, expanded from the piece table in one pass."""
        points, rows = self._pieces()[:2]
        out = []
        for first, stop, row in zip(points, points[1:], rows):
            if first > count:
                break
            out += [row] * (min(stop, count + 1) - first)
        return out

    def _row_max(self, lo: int, hi: int) -> Rational:
        """The largest raw row sum over rows lo..hi, the largest over the
        pieces that meet them, read by bisection; 0 over no row."""
        if lo > hi:
            return 0
        points, rows = self._pieces()[:2]
        return max(rows[bisect_right(points, lo) - 1 : bisect_right(points, hi)])

    def _pieces(self) -> tuple[list[int], list, list[int], dict]:
        """The piece table, made on first use in one sweep over the run
        boundaries: (points, rows, sizes, at).

        ``points`` are the sorted boundaries, the first index of each run,
        the one after its last, 1 and dim + 1, so that the pieces between two
        consecutive points part 1..dim; rows[k] is the raw row sum over
        [points[k], points[k + 1]), exact but an integral one possibly a
        ``Fraction`` (each reader normalises what it hands out), and 0 over a
        gap, a piece that no run holds.  A run of multiplicity m adds share *
        m to each row it holds, at its first index, and takes it away at the
        one after its last.  ``sizes`` and ``at`` are the estimator's twin
        classes and their piece map (``spectral``): the size of each class,
        in index order, and {the last index of each held piece: (its class's
        number, the piece's size)}.  Entries are maximal, so two held pieces
        that meet differ in some key; two that a gap parts are twins when the
        runs that end just before the gap are the runs that start just after
        it, the same keys at the same multiplicities.
        """
        if self._rows is None:
            # index -> the (key number, multiplicity, weight) of the runs that
            # start there, and of those that end just before it, in key order
            starts, ends = defaultdict(list), defaultdict(list)
            for k, (runs, share) in enumerate(self._entries.items()):
                for first, m, c in runs:
                    run = k, m, share * m  # one tuple for both lists halves the allocations
                    starts[first].append(run)
                    ends[first + c].append(run)
            points = sorted(starts.keys() | ends.keys() | {1, self._dim + 1})
            rows, sizes, at = [], [], {}
            row = depth = 0  # over [first, stop): the row sum and the runs
            join = False  # whether a gap joins the next held piece to the class before it
            for first, stop in zip(points, points[1:]):
                up, down = starts[first], ends[first]
                for _, _, w in up:
                    row += w
                for _, _, w in down:
                    row -= w
                rows.append(row)
                depth += len(up) - len(down)
                if not depth:
                    join = down == starts[stop]
                    continue
                if not join:
                    sizes.append(0)
                sizes[-1] += stop - first
                at[stop - 1] = len(sizes) - 1, stop - first
                join = False
            object.__setattr__(self, "_rows", (points, rows, sizes, at))
        return self._rows

    def apply(self, x: Sequence) -> list:
        """Left contraction (A x^{r-1})_i over all dimensions, by the kernel
        of ``spectral`` (module docstring)."""
        from .spectral import _contract, _trie

        if len(x) != self._dim:
            raise DimensionMismatch(f"vector length {len(x)} != dim {self._dim}")
        at = {i: (i - 1, 1) for i in range(1, self._dim + 1)}
        return _contract(*_trie(self._entries.items(), at), x, [_fraction(0)] * self._dim)

    def polynomial(self) -> "HbPolynomial":
        """Homogeneous polynomial P(z) = sum a_{i_1..i_r} z_{i_1}..z_{i_r}: one
        monomial per entry, keyed by its run key, whose multinomial(m)
        logical entries sum to r * share.  Built in ``algebra``, which no
        command-line verb loads."""
        from .algebra import _polynomial

        return _polynomial(self)

    def full_items(self) -> list[tuple[Key, Rational]]:
        """Every distinct index permutation of every entry, with its value.

        Refuses, before expanding anything, more than ``MAX_FULL_RECORDS``
        records or ``MAX_INDICES`` indices (records times the order).
        """
        r, digits = self._order, math.log10(MAX_FULL_RECORDS)
        if r > MAX_INDICES and self._entries:
            count = f"more than {MAX_INDICES} indices (limit {MAX_INDICES})"
        elif any(_log10_multinomial(runs, r) > digits for runs in self._entries):
            count = f"more than {10 * MAX_FULL_RECORDS} records (limit {MAX_FULL_RECORDS})"
        elif (total := self.logical_nonzero_count()) > MAX_FULL_RECORDS:
            count = f"{total} records (limit {MAX_FULL_RECORDS})"
        elif total * r > MAX_INDICES:
            count = f"{total * r} indices (limit {MAX_INDICES})"
        else:
            return [
                (perm, value)
                for key, value in self.canonical_items()
                for perm in _distinct_permutations(key)
            ]
        raise DomainError(f"full export would emit {count}")


# -- constructions ----------------------------------------------------------


def _edge_keys(h: HbGraph, approach: str, r_h: int) -> list[Runs]:
    """Each hb-edge's canonical e-adjacency key, in edge order: its stored
    key, runs over the 1-based vertex positions, then its padding run, merged
    where a run continues the one before it.  A multiplicity that is not an
    integer stays in the key as it is."""
    pads = (padding(approach, h.n, r_h, c) for c in h._cards)
    return [_merged(chain(key, pad)) for key, pad in zip(h._keys, pads)]


def e_adjacency_tensor(
    h: HbGraph, approach: str
) -> tuple[SymTensor, UniformisationTrace]:
    """e-adjacency tensor of a natural hb-graph, one canonical entry per edge.

    Order r_H; dimension n+1 (straightforward) or n+r_H-1 (silo, layered;
    n when r_H = 1).  Each entry's share is its hb-edge's weight, so user edge
    weights scale the entries linearly.  On an r_H-m-uniform input, such as
    the hb-graph ``uniformize`` returns, every c is r_H: the n_a null
    dimensions are kept, no entry uses them, and Delta* is 0.
    """
    trace = _uniformisation_trace(h, approach)
    shares = zip(_edge_keys(h, approach, trace.r_h), map(h.weight, range(h.p)))
    return SymTensor._from_shares(trace.r_h, h.n + trace.n_a, shares), trace


# -- information retrieval ---------------------------------------------------


def _check_trace(t: SymTensor, trace: UniformisationTrace) -> int:
    """Validate tensor/trace consistency; return the original vertex count."""
    if trace.approach not in APPROACHES:
        raise TraceMismatch(f"unknown approach {trace.approach!r}")
    if trace.r_h != t.order:
        raise TraceMismatch(f"trace r_H {trace.r_h} != tensor order {t.order}")
    n = t.dim - trace.n_a
    if n < 0:
        raise TraceMismatch("more null vertices than tensor dimensions")
    return n


def _level_weights(t: SymTensor, trace: UniformisationTrace) -> dict[int, Rational]:
    """{j: the summed shares of the entries at level j} (module docstring),
    ascending over the levels where that sum is nonzero, in O(runs): the
    summed weight W_j of the m-cardinality-j hb-edges, as ``as_rational``
    numbers.  The one level computation: ``edge_distribution`` and ``verify``
    read it."""
    n = _check_trace(t, trace)
    levels = Counter()
    for runs, share in t._entries.items():
        # a run may cross from the original vertices into the null ones
        levels[sum(m * min(c, n + 1 - i) for i, m, c in runs if i <= n)] += share
    return {j: as_rational(levels[j]) for j in sorted(levels) if levels[j]}


def _identities(h: HbGraph, t: SymTensor, trace: UniformisationTrace) -> dict[str, bool]:
    """``verify``'s four exact checks of ``t`` against ``h``, after its refusals
    (``TraceMismatch``): dimension less null vertices != n, r_H != m-range."""
    if _check_trace(t, trace) != h.n:
        raise TraceMismatch(
            f"tensor dim {t.dim} - {trace.n_a} null vertices != {h.n} graph vertices"
        )
    if trace.r_h != (r := max(h._cards, default=None)):
        # by the one printer, so an m-range too long to print exits 3
        shown = "n/a" if r is None else format_rational(r)
        raise TraceMismatch(f"trace r_H {trace.r_h} != graph m-range {shown}")
    weights = h.weights or [1] * h.p
    degrees = [sum(weights[j] * m for j, m in star) for star in h._stars]
    by_level = Counter()
    for c, w in zip(h._cards, weights):
        by_level[c] += w
    return {
        # the n original rows, expanded from the piece table
        "degree_retrieval": t._rows_to(h.n) == degrees,
        "total_sum": t.total_sum() == trace.r_h * sum(weights),
        "edge_distribution": _level_weights(t, trace) == by_level,
        # each entry's whole key, padding included, and its share, the weight; a
        # non-integer multiplicity stays in its key, which then matches no entry
        "reconstruction": Counter(t._entries.items())
        == Counter(zip(_edge_keys(h, trace.approach, trace.r_h), weights)),
    }


def reconstruct_edges(
    t: SymTensor, trace: UniformisationTrace
) -> list[dict[int, int]]:
    """Delete null-vertex indices from every canonical entry.

    Returns the recovered edge family as multiplicity mappings over the
    original vertex indices (1-based), in entry order: the input edge order
    for a tensor built from an hb-graph, the record order for one read from
    COO.
    """
    n = _check_trace(t, trace)
    family = []
    for runs in t._entries:
        # the original-vertex part of each run, which may run on past n
        edge = {i: m for first, m, c in runs for i in range(first, n + 1)[:c]}
        if not edge:
            raise TraceMismatch(f"entry {_shown(runs)} has no original-vertex index")
        family.append(edge)
    return family
