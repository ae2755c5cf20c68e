"""Closed-form risk bounds, cascade counting, baseline thresholds, and
the Monte-Carlo risk harness.

A "risk" here is Type I + Type II error. Bound evaluators return the
printed formulas verbatim; when a formula's inner bracket goes negative
(the derivation's positivity assumption fails) they return the trivial
bound alpha + 1 flagged vacuous instead of squaring a negative number
into a fake guarantee.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from math import exp, fsum, inf, isfinite, log, sqrt
from typing import Sequence

import numpy as np

from .errors import GuardExceededError
from .graphs import Graph, empty_graph
from .permtest import TestConfig, _mc_rejects, mc_test
from .rng import substream
from .spreading import CENSORED, INFECTED, InfectionVector, SpreadParams, _check_spread, _nonnegative, _spread_paths
from .stats import StatisticSpec

__all__ = [
    "RiskInputs",
    "BoundValue",
    "MultiSpreadBounds",
    "h_eta",
    "cascade_count",
    "cascade_count_cycle",
    "min_cascade_count",
    "star_null_risk_bound",
    "center_test_risk_bounds",
    "infection_reach_probability",
    "multi_spread_bounds",
    "line_cycle_bound",
    "tb_threshold",
    "tt_threshold",
    "BaselineRule",
    "baseline_rule",
    "RiskCurve",
    "mc_risk_curve",
    "mc_risk_curves",
    "baseline_risk_curve",
]


@dataclass(frozen=True)
class RiskInputs:
    """Shared parameters of the closed-form bounds."""

    n: int
    k: int
    c: int = 0
    eta: float = 0.0
    alpha: float = 0.05
    D: int = 2
    m: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 0 <= self.c <= self.n - self.k:
            raise ValueError(f"need 0 <= c <= n-k, got c={self.c}")
        _nonnegative("eta", self.eta)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.D < 1:
            raise ValueError(f"degree must be >= 1, got {self.D}")
        if self.m < 1:
            raise ValueError(f"spread count must be >= 1, got {self.m}")


@dataclass(frozen=True)
class BoundValue:
    """A risk bound; vacuous means the formula's bracket was negative
    and the value is the trivial alpha + 1."""

    value: float
    vacuous: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class MultiSpreadBounds:
    """Bounds for the averaged statistics over m independent spreads."""

    avg_edges: BoundValue
    avg_center: BoundValue


def h_eta(n: int, k: int, eta: float, nt_min: float) -> float:
    """prod_{t=1}^{k-1} eta / (n - t + eta * nt_min); 1 when k = 1.

    nt_min lower-bounds the infected/uninfected edge boundary along the
    spread (2 on a cycle). As eta grows the product tends to
    nt_min^(-(k-1)). Needs 1 <= k <= n and finite eta, nt_min >= 0, so
    every denominator is at least 1.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    _nonnegative("eta", eta)
    _nonnegative("nt_min", nt_min)
    out = 1.0
    for t in range(1, k):
        out *= eta / (n - t + eta * nt_min)
    return out


# -- cascades ------------------------------------------------------------------

# cascade_count enumerates at most this many vertices and cascade steps
_CASCADE_N_GUARD = 10
_CASCADE_K_GUARD = 6


def cascade_count(g: Graph, k: int, u: int, v: int) -> int:
    """Number of k-step growth orderings whose vertex set contains u and v.

    An ordering qualifies when every vertex after the first is adjacent
    to some earlier one, and at least one vertex stays out (k < n).
    Guarded.
    """
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise ValueError("u, v must be distinct vertices")
    return _cascade_counts(g, k, [(u, v)])[0]


def _cascade_counts(g: Graph, k: int, pairs) -> list[int]:
    """cascade_count(g, k, u, v) of each pair, from one forward pass over
    connected vertex sets: every singleton has one ordering, each set
    passes its count to every set grown from it by one neighbour, and a
    pair sums the k-sets holding it. Guarded."""
    n = g.n
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n > _CASCADE_N_GUARD or k > _CASCADE_K_GUARD:
        raise GuardExceededError(
            f"cascade enumeration guarded at n <= {_CASCADE_N_GUARD}, k <= {_CASCADE_K_GUARD}"
        )
    if k >= n or k < 2:
        return [0] * len(pairs)
    near = [sum(1 << x for x in g.adjacency[w]) for w in range(n)]  # neighbour bit masks
    counts = {1 << w: 1 for w in range(n)}  # vertex-set bit mask -> its growth orderings
    for _ in range(k - 1):
        grown: dict[int, int] = {}
        for members, count in counts.items():
            for w, reach in enumerate(near):
                if reach & members and not members >> w & 1:
                    grown[members | 1 << w] = grown.get(members | 1 << w, 0) + count
        counts = grown
    return [sum(c for members, c in counts.items() if members >> u & members >> v & 1) for u, v in pairs]


def cascade_count_cycle(k: int) -> int:
    """Closed form on a cycle for any adjacent pair: (k-1) * 2^(k-1)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (k - 1) * (1 << (k - 1))


def min_cascade_count(g: Graph, k: int) -> int:
    """min over edges (u, v) of cascade_count(g, k, u, v), from one pass."""
    if g.num_edges == 0:
        raise ValueError("graph has no edges")
    return min(_cascade_counts(g, k, g.edges))


# -- closed-form bounds ----------------------------------------------------------


def _bound(alpha: float, bracket: float, tail: float) -> BoundValue:
    """alpha + tail, or the vacuous alpha + 1 when the formula's bracket is
    not positive (or nan)."""
    if not bracket > 0:
        return BoundValue(alpha + 1.0, vacuous=True)
    return BoundValue(alpha + tail)


def _times_h_eta(scale: float, count: float, n: int, k: int, eta: float, nt_min: float) -> float:
    """scale * count * h_eta(n, k, eta, nt_min), multiplied in that order
    while it stays finite, else in log space: an exact cascade count is
    past a float from k = 1016 on, but math.log takes it, and the product
    itself is moderate."""
    h = h_eta(n, k, eta, nt_min)
    with suppress(OverflowError):
        if isfinite(value := scale * count * h):
            return value
    terms = [eta / (n - t + eta * nt_min) for t in range(1, k)]
    if not (scale and count and all(terms)):
        return 0.0
    with suppress(OverflowError):
        return scale * exp(log(count) + fsum(map(log, terms)))
    return inf


def _edges_bound(inputs: RiskInputs, c_k: float, nt_min: float, m: int) -> BoundValue:
    """The edges-within risk bound averaged over m spreads on an alternative
    of degree inputs.D; star_null_risk_bound is its m = 1 case."""
    n, k, eta, alpha, d = inputs.n, inputs.k, inputs.eta, inputs.alpha, inputs.D
    if n < 2:
        raise ValueError("bound needs n >= 2")
    _nonnegative("c_k", c_k)
    bracket = (
        _times_h_eta(d / 2.0, c_k, n, k, eta, nt_min)
        - d * k * (k - 1) / (2.0 * (n - 1))
        - sqrt((k * d * d / (2.0 * m)) * log(1.0 / alpha))
    )
    return _bound(alpha, bracket, exp(-(2.0 * m / (k * d * d)) * bracket * bracket))


def star_null_risk_bound(inputs: RiskInputs, c_k: float, nt_min: float = 2.0) -> BoundValue:
    """Risk bound for the edges-within test against a star-free null on a
    connected vertex-transitive alternative of degree inputs.D, from one
    spread (inputs.m is not read).

    c_k is the minimum cascade count over edges; nt_min the boundary
    lower bound entering h_eta (2 for the cycle).
    """
    return _edges_bound(inputs, c_k, nt_min, 1)


def _center_miss(inputs: RiskInputs, scale: float | None = None) -> float:
    """exp(-(k + eta k (k - 1) / 2) / scale), the printed bound on the chance
    that a star's center stays uninfected. scale defaults to the printed
    branch: (n - k + 1) + (k - 1) eta when eta >= 1, else n."""
    n, k, eta = inputs.n, inputs.k, inputs.eta
    if scale is None:
        scale = (n - k + 1) + (k - 1) * eta if eta >= 1.0 else n
    return exp(-(k + eta * k * (k - 1) / 2.0) / scale)


def center_test_risk_bounds(inputs: RiskInputs) -> tuple[float, float]:
    """(lower, upper) risk of the center-indicator test against a star.

    The upper bound branches at eta >= 1 exactly as printed.
    """
    n, k = inputs.n, inputs.k
    if k >= n:
        raise ValueError("center-test bounds need k < n")
    return k / n + _center_miss(inputs, n - k), k / n + _center_miss(inputs)


def infection_reach_probability(inputs: RiskInputs) -> float:
    """Chance a star's center is infected under the alternative (lower bound)."""
    return 1.0 - _center_miss(inputs)


def multi_spread_bounds(inputs: RiskInputs, c_k: float, nt_min: float = 2.0) -> MultiSpreadBounds:
    """Risk bounds for the averaged statistics over m independent spreads.

    The averaged edges-within bound reduces exactly to
    star_null_risk_bound at m = 1; the averaged center bound uses the
    center-infection probability with the same eta branches.
    """
    k, n, alpha, m = inputs.k, inputs.n, inputs.alpha, inputs.m
    gap = infection_reach_probability(inputs) - k / n - sqrt(log(1.0 / alpha) / (2.0 * m))
    return MultiSpreadBounds(
        avg_edges=_edges_bound(inputs, c_k, nt_min, m),
        avg_center=_bound(alpha, gap, exp(-2.0 * m * gap * gap)),
    )


def line_cycle_bound(inputs: RiskInputs) -> BoundValue:
    """Risk bound separating a line alternative from a cycle null.

    Carries the censoring prefactor (n-c)(n-c-1) / (n^2 (n-1)), which
    collapses to 1/n at c = 0, and the extra (n-k+1)/n factor relative
    to the plain cycle bound. Requires k < n/2.
    """
    n, k, c, eta, alpha = inputs.n, inputs.k, inputs.c, inputs.eta, inputs.alpha
    if not k < n / 2.0:
        raise ValueError(f"bound needs k < n/2, got k={k}, n={n}")
    prefactor = (n - c) * (n - c - 1) / (n * n * (n - 1.0))
    # 2^(k-1) multiplies after (n-k+1)/n: scaling by a power of two is exact, so the order keeps the value
    lead = _times_h_eta(prefactor * (k - 1) * ((n - k + 1) / n), 1 << (k - 1), n, k, eta, 2.0)
    bracket = lead - k * (k - 1) / (n - 1.0) - sqrt(2.0 * k * log(1.0 / alpha))
    return _bound(alpha, bracket, exp(-bracket * bracket / (2.0 * k)))


# -- baseline thresholds -----------------------------------------------------------


def _loglog(n: int) -> float:
    if n < 3:
        raise ValueError(f"log(log(n)) needs n >= 3, got {n}")
    return log(log(n))


def tb_threshold(d: int, n: int, k: int, c: int) -> float:
    """Ball-radius baseline threshold: 1.1 d^2 (k n loglog(n)/(n-c))^(1/d)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 0 <= c < n:
        raise ValueError(f"need 0 <= c < n, got c={c}, n={n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 1.1 * d * d * (k * n * _loglog(n) / (n - c)) ** (1.0 / d)


def tt_threshold(n: int, k: int, c: int) -> float:
    """Tree-weight baseline threshold: k n (loglog n)^3 / (n-c)."""
    if not 0 <= c < n:
        raise ValueError(f"need 0 <= c < n, got c={c}, n={n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k * n * _loglog(n) ** 3 / (n - c)


@dataclass(frozen=True)
class BaselineRule:
    """Reject when stat <= threshold; ceiling is the top of stat's range."""

    stat: StatisticSpec
    threshold: float
    diagnosis: str
    ceiling: float


def baseline_rule(algorithm: str, g: Graph, k: int, c: int, d: int = 2) -> BaselineRule:
    """The TB (ball-radius, dimension d) or TT (tree-weight) rule on g.

    TB thresholds R in [0, R(V)], g's radius (inf when g is disconnected),
    which no infected set exceeds. TT thresholds T in [max(k - c - 1, 0),
    n - 1]: censored infected vertices leave T's terminal set. No
    snapshot has k past n, so neither rule takes it.
    """
    if k > g.n:
        raise ValueError(f"cannot infect k={k} of n={g.n} vertices")
    if algorithm == "TB":
        threshold = tb_threshold(d, g.n, k, c)
        stat = StatisticSpec.infection_radius(g)
        floor, ceiling = 0.0, stat.evaluate(InfectionVector(np.full(g.n, INFECTED)))
    elif algorithm == "TT":
        threshold = tt_threshold(g.n, k, c)
        floor, ceiling, stat = float(max(k - c - 1, 0)), g.n - 1, StatisticSpec.steiner_weight(g)
    else:
        raise ValueError(f"unknown baseline {algorithm!r}; expected TB or TT")
    if threshold >= ceiling:
        diagnosis = "always rejects"
    elif threshold < floor:
        diagnosis = "never rejects"
    else:
        diagnosis = "data-dependent"
    return BaselineRule(stat, threshold, diagnosis, ceiling)


# -- Monte-Carlo risk -----------------------------------------------------------


@dataclass(frozen=True)
class RiskCurve:
    """Type I once, Type II per eta, from shared null replicates.

    alt_values carries the raw statistic value of every alternative
    snapshot, keyed by eta (boxplot-ready data).
    """

    type_i: float
    mean_threshold: float
    type_ii: dict[float, float]
    reps: int
    alt_values: dict[float, list[float]]


def _replicates(
    g0: Graph,
    g1: Graph,
    eta0: float,
    etas: list[float],
    k: int,
    c: int,
    seed: int,
    reps: int,
) -> np.ndarray:
    """The (reps, 1 + len(etas), n) int8 statuses of simulated null and
    alternative snapshots.

    g0 and g1 must have the same n. Replicate rep spreads k infections
    on g0 at eta0 from substream (seed, 0, rep) into snapshot 0 and on
    g1 at etas[i] from (seed, 10 * (i + 1), rep) into snapshot i + 1,
    each once, through spreading._spread_paths. It censors the first c
    vertices of a permutation drawn from the substream one tag above, as
    censor_uniform does, so each snapshot reads only its own substreams.
    A run that no spread could make raises before any spread.
    """
    if g0.n != g1.n:
        raise ValueError(f"null and alternative graphs differ in size: n={g0.n} and n={g1.n}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not etas:
        raise ValueError("need at least one alternative eta")
    for i, eta in enumerate(etas):
        if eta in etas[:i]:  # it would key two Type II entries as one
            raise ValueError(f"etas[{i}]={eta} repeats an earlier eta")
        _check_spread(g1, SpreadParams(eta=eta, k=k))
    n = g1.n
    if not 0 <= c <= n:
        raise ValueError(f"c={c} out of range for n={n}")
    snapshots = [(g0, eta0, 0), *((g1, eta, 10 * (i + 1)) for i, eta in enumerate(etas))]
    jobs = ((g, eta, substream(seed, tag, rep)) for rep in range(reps) for g, eta, tag in snapshots)
    status = np.zeros((reps, len(snapshots), n), dtype=np.int8)
    for (rep, j), order in zip(np.ndindex(status.shape[:2]), _spread_paths(jobs, k)):
        status[rep, j, order] = INFECTED
        if c:
            status[rep, j, substream(seed, snapshots[j][2] + 1, rep).permutation(n)[:c]] = CENSORED
    return status


def mc_risk_curve(
    g0: Graph,
    g1: Graph,
    eta0: float,
    etas: list[float],
    k: int,
    c: int,
    cfg: TestConfig,
    reps: int,
    stat: StatisticSpec | None = None,
) -> RiskCurve:
    """Estimate Type I and a Type II curve for the configured test.

    Each replicate simulates one spread under the null graph (eta0) and
    one under the alternative per eta, censors c vertices uniformly, and
    runs the test, drawing relabelings from substream (seed, tag + 2,
    replicate); see _replicates for the other substreams. Type II is the
    miss rate under the alternative; mean_threshold averages the null
    replicates' thresholds on the raw statistic scale, and alt_values
    holds every alternative replicate's raw statistic. An alternative
    replicate needs only reject, so it stops drawing once the test can
    no longer reject, and all alternatives draw and score together, in
    passes (permtest._mc_rejects); every output is the same as with all
    B draws of one mc_test per snapshot. stat defaults to W on g1; this
    is mc_risk_curves with one statistic.
    """
    the_stat = StatisticSpec.edges_within(g1) if stat is None else stat
    [curve] = mc_risk_curves(g0, g1, eta0, etas, k, c, cfg, reps, [the_stat])
    return curve


def mc_risk_curves(
    g0: Graph,
    g1: Graph,
    eta0: float,
    etas: list[float],
    k: int,
    c: int,
    cfg: TestConfig,
    reps: int,
    stats: Sequence[StatisticSpec],
) -> list[RiskCurve]:
    """mc_risk_curve for each statistic in stats, on one set of snapshots.

    Every replicate snapshot is spread and censored once and tested with
    each statistic. A null replicate runs one mc_test per statistic,
    each from its own substream (seed, 2, replicate). An alternative
    replicate draws one stream (seed, tag + 2, replicate) for all of
    them, scores each block only with the statistics whose reject is
    not yet settled, and stops once all are; the blocks of all
    alternatives are scored together (permtest._mc_rejects). So curve i
    equals mc_risk_curve(..., stat=stats[i]) field for field, at the
    cost of one set of spreads and one alternative draw stream. g0 and
    g1 must have the same n; see _replicates for the spreads and their
    substreams.
    """
    if not stats:
        raise ValueError("need at least one statistic")
    status = _replicates(g0, g1, eta0, etas, k, c, cfg.seed, reps)
    nulls = [
        [mc_test(stat, iv, cfg, null_graph=g0, rng=substream(cfg.seed, 2, rep)) for stat in stats]
        for rep, iv in enumerate(map(InfectionVector._trusted, status[:, 0]))
    ]
    # replicate by replicate, and within one its etas in order
    rngs = [substream(cfg.seed, 10 * (i + 1) + 2, rep) for rep in range(reps) for i in range(len(etas))]
    rejects, values = _mc_rejects(stats, status[:, 1:].reshape(-1, g1.n), cfg, rngs)
    hits = rejects.reshape(len(stats), reps, -1).sum(axis=1).tolist()
    by_eta = values.reshape(len(stats), reps, -1).transpose(0, 2, 1).tolist()
    return [
        RiskCurve(
            type_i=sum(res.reject for res in null) / reps,
            mean_threshold=sum(res.raw_scale()[1] for res in null) / reps,
            type_ii={eta: (reps - r) / reps for eta, r in zip(etas, hit)},
            reps=reps,
            alt_values=dict(zip(etas, alt)),
        )
        for null, hit, alt in zip(zip(*nulls), hits, by_eta)
    ]


def baseline_risk_curve(
    rule: BaselineRule,
    etas: list[float],
    k: int,
    c: int,
    reps: int,
    seed: int = 0,
) -> RiskCurve:
    """mc_risk_curve for a baseline rule, against a uniform scatter null.

    The null snapshots spread on the empty graph at eta 0, and the
    statistic's raw values over every snapshot come from one kernel
    call; alt_values holds the alternative snapshots' values.
    """
    g = rule.stat.graph
    status = _replicates(empty_graph(g.n), g, 0.0, etas, k, c, seed, reps)
    values = rule.stat._values(status.reshape(-1, g.n)).astype(np.float64).reshape(reps, -1)
    rejects, *alt_rejects = (values <= rule.threshold).sum(axis=0).tolist()
    # the miss count over reps, the correctly rounded miss rate
    type_ii = {eta: (reps - r) / reps for eta, r in zip(etas, alt_rejects)}
    alt_values = dict(zip(etas, values[:, 1:].T.tolist()))
    return RiskCurve(rejects / reps, rule.threshold, type_ii, reps, alt_values)
