"""Exact small-instance likelihoods and likelihood ratios.

Everything here enumerates: orderings of the infected set, completions
of censored vertices, the infected sets a relabeling can give. Guards
raise before any enumeration whose cost would explode; the point of this
module is exact ground truth on small instances, not scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial, fsum

from .errors import GuardExceededError
from .graphs import Graph, empty_graph
from .spreading import INFECTED, InfectionVector, _nonnegative, _set_probability, _subset_masks

__all__ = [
    "LikelihoodReport",
    "likelihood_exact",
    "likelihood_censored",
    "likelihood_ratio",
    "first_order_residual",
    "topology_sup_likelihood",
]

# the most infected vertices, censored ones included, whose k! orderings a
# likelihood sums
_K_GUARD = 8


@dataclass(frozen=True)
class LikelihoodReport:
    """An exact likelihood plus the enumeration size behind it.

    value is the snapshot probability; n_paths counts the ordered
    infection paths summed; censor_terms counts the censored-vertex
    completions folded in (0 when the snapshot has no censoring).
    """

    value: float
    n_paths: int
    eta: float
    censor_terms: int = 0


def likelihood_exact(g: Graph, eta: float, iv: InfectionVector) -> LikelihoodReport:
    """Probability of an uncensored snapshot: sum over all k! orderings.

    The empty graph collapses to the closed form 1/C(n, k) (every
    ordering is equally likely), valid at any k.
    """
    if iv.c:
        raise ValueError("snapshot must be uncensored; see likelihood_censored")
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    k = iv.k
    if k == 0:
        raise ValueError("need at least one infected vertex")
    _nonnegative("eta", eta)
    if g.num_edges == 0:
        return LikelihoodReport(
            value=1.0 / comb(g.n, k), n_paths=factorial(k), eta=eta
        )
    if k > _K_GUARD:
        raise GuardExceededError(
            f"exact likelihood sums k! = {factorial(k)} paths; guard is k <= {_K_GUARD}"
        )
    return LikelihoodReport(value=_set_probability(g, eta, iv.infected), n_paths=factorial(k), eta=eta)


def likelihood_censored(g: Graph, eta: float, iv: InfectionVector) -> LikelihoodReport:
    """Probability of a censored snapshot: the sum of likelihood_exact(I | S)
    over the 2^c subsets S of the censored vertices, divided by C(n+1, c).

    That sum over every snapshot with the same (k, c) is C(n+1, c) on any
    graph at any eta, so dividing by it normalizes: a set J of k + s
    infected vertices completes C(k+s, s) * C(n-k-s, c-s) snapshots
    (which s of J are censored, and which c - s others), the sets J of
    one size carry that spread length's law, which sums to one, and
    sum_s C(k+s, s) C(n-k-s, c-s) = C(n+1, c) (Chu-Vandermonde).
    Reduces to likelihood_exact when c = 0.
    """
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    if iv.k == 0:
        raise ValueError("need at least one infected vertex")
    if iv.c == 0:
        return likelihood_exact(g, eta, iv)
    k, c = iv.k, iv.c
    if k + c > _K_GUARD:
        raise GuardExceededError(
            f"censored likelihood needs paths of length up to {k + c}; guard is {_K_GUARD}"
        )
    censored = list(iv.censored)
    terms, n_paths = [], 0
    for bits in itertools.product((0, INFECTED), repeat=c):
        status = iv.status.copy()
        status[censored] = bits
        rep = likelihood_exact(g, eta, InfectionVector._trusted(status))
        terms.append(rep.value)
        n_paths += rep.n_paths
    return LikelihoodReport(
        value=fsum(terms) / comb(iv.n + 1, c), n_paths=n_paths, eta=eta, censor_terms=1 << c
    )


def likelihood_ratio(g0: Graph, g1: Graph, eta: float, iv: InfectionVector) -> float:
    """L(g1) / L(g0) for the same snapshot, censored or not (C(n+1, c) cancels)."""
    return likelihood_censored(g1, eta, iv).value / likelihood_censored(g0, eta, iv).value


def first_order_residual(g1: Graph, eta: float, iv: InfectionVector) -> float:
    """Gap between the exact likelihood ratio against the no-edge null
    and its leading expansion 1 + eta * edges_within.

    Vanishes as eta -> 0 at fixed (n, k); the quotient residual/eta
    stays bounded (the next expansion term carries its own eta).
    """
    from .stats import edges_within

    if iv.c:
        raise ValueError("first-order expansion is defined for uncensored snapshots")
    ratio = likelihood_ratio(empty_graph(g1.n), g1, eta, iv)
    return ratio - (1.0 + eta * edges_within(g1, iv))


def topology_sup_likelihood(g: Graph, eta: float, iv: InfectionVector) -> float:
    """max over all n! relabelings of the graph of the exact likelihood.

    A statistic of the snapshot that ignores which relabeling generated
    it; constant over snapshots with the same (k) when the graph orbit
    covers them all. Relabeling the graph by pi scores the snapshot as
    the fixed graph scores its preimage under pi, and every k-subset is
    one, so this is the max of likelihood_exact over the C(n, k) infected
    sets on g, refused past _EXACT_CAP paths (k! per set).
    """
    if iv.c:
        raise ValueError("topology sup is defined for uncensored snapshots")
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    best = 0.0
    for block in _subset_masks(g.n, iv.k, factorial(iv.k)):
        for row in block:
            infected = InfectionVector._trusted(row.view("int8"))  # True is INFECTED
            best = max(best, likelihood_exact(g, eta, infected).value)
    return best
