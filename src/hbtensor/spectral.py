"""Eigenvalue bound for e-adjacency tensors and an empirical estimator.

Every eigenvalue of an e-adjacency tensor satisfies

    |lambda| <= max(Delta, Delta*) + r_H

where Delta and Delta* are the maximal m-degrees over original and null
vertices (both readable off the tensor as row sums).  The power iteration
below, run over the nonzero rows only through the tensor's contraction
kernel (``tensor._contract``, O(trie nodes) per step, at most
sum |supp e| + r_H on an e-adjacency tensor), gives a lower estimate of the
largest H-eigenvalue, so the bound can be checked empirically.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import DomainError
from .tensor import SymTensor, _check_trace, _contract, _trie
from .transform import LAYERED, SILO, STRAIGHTFORWARD, UniformisationTrace

# the power iteration stops once no coordinate moves by this much in a step
_TOL = 1e-10


class PowerIterationResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


class SpectralBoundReport(NamedTuple):
    approach: str
    r_h: int
    delta: Fraction
    delta_star: Fraction
    bound: Fraction


def spectral_bound(t: SymTensor, trace: UniformisationTrace) -> SpectralBoundReport:
    """Exact bound max(Delta, Delta*) + r_H from the tensor's row sums."""
    n = _check_trace(t, trace)
    rows = t.row_sums()
    delta = max(rows[:n], default=Fraction(0))
    delta_star = max(rows[n:], default=Fraction(0))
    bound = max(delta, delta_star) + trace.r_h
    return SpectralBoundReport(trace.approach, trace.r_h, delta, delta_star, bound)


def delta_star_closed_form(
    approach: str, r_h: int, level_counts: Mapping[int, int]
) -> int:
    """Maximal null-vertex m-degree from the edge-cardinality distribution."""
    below = range(1, r_h)
    if approach == STRAIGHTFORWARD:
        return sum((r_h - j) * level_counts.get(j, 0) for j in below)
    if approach == SILO:
        return max(((r_h - j) * level_counts.get(j, 0) for j in below), default=0)
    if approach == LAYERED:
        return sum(level_counts.get(j, 0) for j in below)
    raise DomainError(f"unknown approach {approach!r}")


def estimate_max_eigenvalue(
    t: SymTensor, iterations: int = 10_000, seed: int | None = None
) -> PowerIterationResult:
    """Shifted higher-order power iteration on the positive orthant.

    Iterates x <- normalize((A x^{r-1} + x^{[r-1]})^{1/(r-1)}) from a random
    positive start and reports the Rayleigh-style quotient
    sum_i x_i (A x^{r-1})_i / sum_i x_i^r of the last iterate.  For a
    nonnegative symmetric tensor this quotient never exceeds the largest
    H-eigenvalue, so the reported value always respects the spectral bound.
    Convergence is not guaranteed; the flag reports whether the iterate
    stabilized within ``_TOL``, and is never set on a quotient of 0.0: the
    shares are positive, so is the largest H-eigenvalue, and 0.0 means every
    term of the contraction underflowed (x_i^{r-1} at large r) and the iterate
    froze.  Underflowed coordinates alone are no such sign; correct runs have them.

    The iteration runs on the support only: the indices that occur in some
    canonical entry, which (entries being nonzero and nonnegative) are
    exactly the nonzero rows, renumbered in order.  A zero row i, such as an
    isolated vertex, adds nothing to A x^{r-1} and is 0 in every eigenvector
    with lambda != 0, since lambda x_i^{r-1} = (A x^{r-1})_i = 0.  Iterated,
    it would only decay by a factor (lambda + 1)^{-1/(r-1)} per step from a
    start near 1, and hold the convergence test open for about
    23 (r - 1) / ln(lambda + 1) steps at ``_TOL`` = 1e-10.  The seeded start is
    drawn for the support coordinates alone, in index order, so on a tensor
    whose every index occurs the iteration is the full-dimension one.

    The contraction reads the float shares only, so large multiplicities
    cost no large multinomial; an entry share or a contraction that no float
    can hold raises ``DomainError``.
    """
    if t.order < 2:
        raise DomainError("power iteration needs tensor order >= 2")
    shares = t._entries  # run-length key -> share, of the sign of its value
    if any(s < 0 for s in shares.values()):
        raise DomainError("power iteration needs nonnegative entries")
    if not shares:
        return PowerIterationResult(value=0.0, converged=True, iterations=0)
    r = t.order
    # the support, renumbered in order: index i -> coordinate k
    at = {i: k for k, i in enumerate(sorted({i for runs in shares for i, _ in runs}))}
    d = len(at)
    nodes, inner, exact = _trie(shares.items(), at)
    try:
        floats = [float(s) for s in exact]
    except OverflowError:
        raise DomainError("power iteration: an entry share is too large for a float") from None

    def contract(x: list[float]) -> list[float]:
        y = _contract(nodes, inner, floats, x, [0.0] * d)
        if not math.isfinite(sum(y)):
            raise DomainError("power iteration: the contraction exceeds the float range")
        return y

    rng = random.Random(seed)
    x = [rng.uniform(0.5, 1.5) for _ in range(d)]
    top = max(x)
    x = [xi / top for xi in x]

    converged, used = False, 0
    k, root = r - 1, 1.0 / (r - 1)
    for used in range(1, iterations + 1):
        y = contract(x)
        nxt = [(yi + xi**k) ** root for xi, yi in zip(x, y)]
        # the largest coordinate of x is 1.0, so top >= 1
        top = max(nxt)
        nxt = [v / top for v in nxt]
        converged = all(abs(a - b) < _TOL for a, b in zip(nxt, x))
        x = nxt
        if converged:
            break

    y = contract(x)
    rayleigh = sum(xi * yi for xi, yi in zip(x, y)) / sum(xi**r for xi in x)
    return PowerIterationResult(rayleigh, converged and rayleigh > 0.0, used)
