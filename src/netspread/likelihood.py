"""Exact small-instance likelihoods and likelihood ratios.

Everything here enumerates: orderings of the infected set, completions
of censored vertices, relabelings of the graph. Guards raise before any
enumeration whose cost would explode; the point of this module is exact
ground truth on small instances, not scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, fsum

from .errors import GuardExceededError
from .graphs import Graph, empty_graph
from .perms import Permutation, apply_to_graph
from .spreading import (
    INFECTED,
    InfectionPath,
    InfectionVector,
    infection_from_infected,
    path_probability,
)

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
# the most paths a censored normalization enumerates
_CENSORED_CAP = 10**6
# the most vertices whose n! relabelings topology_sup_likelihood tries
_SUP_N_GUARD = 6


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
    if g.num_edges == 0:
        return LikelihoodReport(
            value=1.0 / comb(g.n, k), n_paths=factorial(k), eta=eta
        )
    if k > _K_GUARD:
        raise GuardExceededError(
            f"exact likelihood sums k! = {factorial(k)} paths; guard is k <= {_K_GUARD}"
        )
    total = fsum(
        path_probability(g, eta, InfectionPath(order))
        for order in itertools.permutations(iv.infected)
    )
    return LikelihoodReport(value=total, n_paths=factorial(k), eta=eta)


def _completion_mass(g: Graph, eta: float, iv: InfectionVector) -> tuple[float, int, int]:
    """Unnormalized censored mass: mean over censored-set draws of the
    uncensored law, summed over all 2^c completions of this snapshot.

    Returns (mass, paths_summed, completions).
    """
    censored = iv.censored
    base = iv.status.copy()
    base[list(censored)] = 0
    n_paths = 0
    terms = []
    for bits in itertools.product((0, 1), repeat=len(censored)):
        status = base.copy()
        for v, bit in zip(censored, bits):
            status[v] = INFECTED if bit else 0
        completed = InfectionVector(status)
        rep = likelihood_exact(g, eta, completed)
        n_paths += rep.n_paths
        terms.append(rep.value)
    mass = fsum(terms) / comb(iv.n, len(censored))
    return mass, n_paths, 1 << len(censored)


@lru_cache(maxsize=64)
def _censored_norm(g: Graph, eta: float, k: int, c: int) -> float:
    """Normalizer over every snapshot with k infected and c censored."""
    n = g.n
    total_terms = []
    for infected in itertools.combinations(range(n), k):
        rest = [v for v in range(n) if v not in infected]
        for cens in itertools.combinations(rest, c):
            snapshot = infection_from_infected(n, infected, cens)
            mass, _, _ = _completion_mass(g, eta, snapshot)
            total_terms.append(mass)
    return fsum(total_terms)


def likelihood_censored(
    g: Graph, eta: float, iv: InfectionVector, c: int | None = None
) -> LikelihoodReport:
    """Probability of a censored snapshot.

    Averages the uncensored law over all 2^c infected/uninfected
    completions of the censored vertices (the censored set itself is
    uniform), then normalizes over every snapshot with the same (k, c).
    Reduces to likelihood_exact when c = 0.
    """
    if c is not None and c != iv.c:
        raise ValueError(f"snapshot has c={iv.c}, caller claimed {c}")
    if g.n != iv.n:
        raise ValueError("graph and snapshot sizes differ")
    if iv.k == 0:
        raise ValueError("need at least one infected vertex")
    if iv.c == 0:
        return likelihood_exact(g, eta, iv)
    k, cc, n = iv.k, iv.c, iv.n
    if k + cc > _K_GUARD:
        raise GuardExceededError(
            f"censored likelihood needs paths of length up to {k + cc}; guard is {_K_GUARD}"
        )
    # rough enumeration cost: snapshots * completions * orderings
    cost = comb(n, k) * comb(n - k, cc) * (1 << cc) * factorial(k + cc)
    if cost > _CENSORED_CAP:
        raise GuardExceededError(
            f"censored normalization enumerates ~{cost} paths, cap is {_CENSORED_CAP}"
        )
    if g.num_edges == 0:
        # uniform over snapshots: 1 / (n choose k, c, rest)
        value = 1.0 / (comb(n, k) * comb(n - k, cc))
        return LikelihoodReport(
            value=value, n_paths=factorial(k), eta=eta, censor_terms=1 << cc
        )
    mass, n_paths, completions = _completion_mass(g, eta, iv)
    norm = _censored_norm(g, eta, k, cc)
    return LikelihoodReport(
        value=mass / norm, n_paths=n_paths, eta=eta, censor_terms=completions
    )


def likelihood_ratio(g0: Graph, g1: Graph, eta: float, iv: InfectionVector) -> float:
    """L(g1) / L(g0) for the same snapshot; censoring handled on both sides."""
    if iv.c:
        num = likelihood_censored(g1, eta, iv)
        den = likelihood_censored(g0, eta, iv)
    else:
        num = likelihood_exact(g1, eta, iv)
        den = likelihood_exact(g0, eta, iv)
    return num.value / den.value


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
    covers them all. Guarded at n <= _SUP_N_GUARD (cost n! likelihood sums).
    """
    n = g.n
    if n > _SUP_N_GUARD:
        raise GuardExceededError(
            f"sup over {n}! = {factorial(n)} relabelings; guard is n <= {_SUP_N_GUARD}"
        )
    if iv.c:
        raise ValueError("topology sup is defined for uncensored snapshots")
    best = 0.0
    seen: dict[tuple[tuple[int, int], ...], float] = {}
    for image in itertools.permutations(range(n)):
        relabeled = apply_to_graph(Permutation(image), g)
        val = seen.get(relabeled.edges)
        if val is None:
            val = likelihood_exact(relabeled, eta, iv).value
            seen[relabeled.edges] = val
        best = max(best, val)
    return best
