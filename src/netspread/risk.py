"""Closed-form risk bounds, cascade counting, baseline thresholds, and
the Monte-Carlo risk harness.

A "risk" here is Type I + Type II error. Bound evaluators return the
printed formulas verbatim; when a formula's inner bracket goes negative
(the derivation's positivity assumption fails) they return the trivial
bound alpha + 1 flagged vacuous instead of squaring a negative number
into a fake guarantee.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import exp, log, nan, sqrt
from typing import Callable, Sequence

from .errors import GuardExceededError
from .graphs import Graph, eccentricity, empty_graph
from .permtest import TestConfig, _mc_reject, mc_test
from .rng import substream
from .spreading import (
    InfectionVector,
    SpreadParams,
    _check_spread,
    _spread_paths,
    censor_uniform,
    infection_from_infected,
)
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
    "baseline_diagnosis",
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
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
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
    nt_min^(-(k-1)).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = 1.0
    for t in range(1, k):
        out *= eta / (n - t + eta * nt_min)
    return out


# -- cascades ------------------------------------------------------------------


def cascade_count(g: Graph, k: int, u: int, v: int, n_guard: int = 10, k_guard: int = 6) -> int:
    """Number of k-step growth orderings whose vertex set contains u and v.

    An ordering qualifies when every vertex after the first is adjacent
    to some earlier one, and at least one vertex stays out (k < n).
    Brute-force enumeration, guarded.
    """
    n = g.n
    if not (0 <= u < n and 0 <= v < n) or u == v:
        raise ValueError("u, v must be distinct vertices")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n > n_guard or k > k_guard:
        raise GuardExceededError(
            f"cascade enumeration guarded at n <= {n_guard}, k <= {k_guard}"
        )
    if k >= n or k < 2:
        return 0
    adj = g.adjacency
    total = 0
    for subset in itertools.combinations(range(n), k):
        ss = set(subset)
        if u not in ss or v not in ss:
            continue
        total += _orderings_with_growth(adj, subset)
    return total


def _orderings_with_growth(adj, subset: tuple[int, ...]) -> int:
    """Orderings of subset where each later vertex touches an earlier one."""
    members = frozenset(subset)

    @lru_cache(maxsize=None)
    def count(placed: frozenset) -> int:
        if len(placed) == len(members):
            return 1
        total = 0
        for w in members - placed:
            if not placed or any(x in adj[w] for x in placed):
                total += count(placed | {w})
        return total

    result = count(frozenset())
    count.cache_clear()
    return result


def cascade_count_cycle(k: int) -> int:
    """Closed form on a cycle for any adjacent pair: (k-1) * 2^(k-1)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (k - 1) * (1 << (k - 1))


def min_cascade_count(g: Graph, k: int) -> int:
    """min over edges (u, v) of cascade_count(g, k, u, v)."""
    if g.num_edges == 0:
        raise ValueError("graph has no edges")
    return min(cascade_count(g, k, u, v) for u, v in g.edges)


# -- closed-form bounds ----------------------------------------------------------


def star_null_risk_bound(
    inputs: RiskInputs, c_k: float, d: int | None = None, nt_min: float = 2.0
) -> BoundValue:
    """Risk bound for the edges-within test against a star-free null on a
    connected vertex-transitive degree-d alternative.

    c_k is the minimum cascade count over edges; nt_min the boundary
    lower bound entering h_eta (2 for the cycle).
    """
    n, k, eta, alpha = inputs.n, inputs.k, inputs.eta, inputs.alpha
    dd = inputs.D if d is None else d
    if n < 2:
        raise ValueError("bound needs n >= 2")
    bracket = (
        (dd / 2.0) * c_k * h_eta(n, k, eta, nt_min)
        - dd * k * (k - 1) / (2.0 * (n - 1))
        - sqrt((k * dd * dd / 2.0) * log(1.0 / alpha))
    )
    if bracket <= 0:
        return BoundValue(alpha + 1.0, vacuous=True)
    return BoundValue(alpha + exp(-(2.0 / (k * dd * dd)) * bracket * bracket))


def center_test_risk_bounds(inputs: RiskInputs) -> tuple[float, float]:
    """(lower, upper) risk of the center-indicator test against a star.

    The upper bound branches at eta >= 1 exactly as printed.
    """
    n, k, eta = inputs.n, inputs.k, inputs.eta
    if k >= n:
        raise ValueError("center-test bounds need k < n")
    strength = k + eta * k * (k - 1) / 2.0
    lower = k / n + exp(-strength / (n - k))
    if eta >= 1.0:
        upper = k / n + exp(-strength / ((n - k + 1) + (k - 1) * eta))
    else:
        upper = k / n + exp(-strength / n)
    return lower, upper


def infection_reach_probability(inputs: RiskInputs) -> float:
    """Chance a star's center is infected under the alternative (lower bound)."""
    n, k, eta = inputs.n, inputs.k, inputs.eta
    strength = k + eta * k * (k - 1) / 2.0
    if eta >= 1.0:
        return 1.0 - exp(-strength / ((n - k + 1) + (k - 1) * eta))
    return 1.0 - exp(-strength / n)


def multi_spread_bounds(
    inputs: RiskInputs, c_k: float, d: int | None = None, nt_min: float = 2.0
) -> MultiSpreadBounds:
    """Risk bounds for the averaged statistics over m independent spreads.

    The averaged edges-within bound reduces exactly to
    star_null_risk_bound at m = 1; the averaged center bound uses the
    center-infection probability with the same eta branches.
    """
    n, k, eta, alpha, m = inputs.n, inputs.k, inputs.eta, inputs.alpha, inputs.m
    dd = inputs.D if d is None else d
    bracket = (
        (dd / 2.0) * c_k * h_eta(n, k, eta, nt_min)
        - dd * k * (k - 1) / (2.0 * (n - 1))
        - sqrt((k * dd * dd / (2.0 * m)) * log(1.0 / alpha))
    )
    if bracket <= 0:
        avg_edges = BoundValue(alpha + 1.0, vacuous=True)
    else:
        avg_edges = BoundValue(
            alpha + exp(-(2.0 * m / (k * dd * dd)) * bracket * bracket)
        )
    gap = infection_reach_probability(inputs) - k / n - sqrt(log(1.0 / alpha) / (2.0 * m))
    if gap <= 0:
        avg_center = BoundValue(alpha + 1.0, vacuous=True)
    else:
        avg_center = BoundValue(alpha + exp(-2.0 * m * gap * gap))
    return MultiSpreadBounds(avg_edges=avg_edges, avg_center=avg_center)


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
    lead = prefactor * (k - 1) * (1 << (k - 1)) * ((n - k + 1) / n) * h_eta(n, k, eta, 2.0)
    bracket = lead - k * (k - 1) / (n - 1.0) - sqrt(2.0 * k * log(1.0 / alpha))
    if bracket <= 0:
        return BoundValue(alpha + 1.0, vacuous=True)
    return BoundValue(alpha + exp(-bracket * bracket / (2.0 * k)))


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


def baseline_diagnosis(threshold: float, floor: float, ceiling: float) -> str:
    """Classify a reject-if-small rule (statistic <= threshold).

    floor/ceiling bound the attainable statistic values; a threshold at
    or above the ceiling fires on every snapshot, one below the floor on
    none.
    """
    if threshold >= ceiling:
        return "always rejects"
    if threshold < floor:
        return "never rejects"
    return "data-dependent"


@dataclass(frozen=True)
class BaselineRule:
    """Reject when stat <= threshold; ceiling is the top of stat's range."""

    stat: StatisticSpec
    threshold: float
    diagnosis: str
    ceiling: float


def baseline_rule(algorithm: str, g: Graph, k: int, c: int, d: int = 2) -> BaselineRule:
    """The TB (ball-radius, dimension d) or TT (tree-weight) rule on g.

    TB thresholds R in [0, eccentricity(g, 0)], TT thresholds T in
    [k - 1, n - 1].
    """
    if algorithm == "TB":
        threshold = tb_threshold(d, g.n, k, c)
        floor, ceiling, stat = 0.0, eccentricity(g, 0), StatisticSpec.infection_radius(g)
    elif algorithm == "TT":
        threshold = tt_threshold(g.n, k, c)
        floor, ceiling, stat = float(max(k - 1, 0)), g.n - 1, StatisticSpec.steiner_weight(g)
    else:
        raise ValueError(f"unknown baseline {algorithm!r}; expected TB or TT")
    return BaselineRule(stat, threshold, baseline_diagnosis(threshold, floor, ceiling), ceiling)


# -- Monte-Carlo risk -----------------------------------------------------------


@dataclass(frozen=True)
class RiskCurve:
    """Type I once, Type II per eta, from shared null replicates.

    alt_values carries the raw statistic value of every alternative
    snapshot of mc_risk_curve, keyed by eta (boxplot-ready data);
    baseline_risk_curve leaves it None.
    """

    type_i: float
    mean_threshold: float
    type_ii: dict[float, float]
    reps: int
    alt_values: dict[float, list[float]] | None = None


def _check_run(g: Graph, etas: list[float], k: int, reps: int) -> None:
    """Raise, before anything is simulated, the ValueError that reps
    replicates of k infections spread on g at each eta would raise."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not etas:
        raise ValueError("need at least one alternative eta")
    for eta in etas:
        _check_spread(g, SpreadParams(eta=eta, k=k))


def _replicates(
    g0: Graph,
    g1: Graph,
    eta0: float,
    etas: list[float],
    k: int,
    c: int,
    seed: int,
    reps: int,
    decide: Callable[[InfectionVector, int, int], list[tuple[bool, float, float]]],
) -> list[tuple[int, float, list[int], dict[float, list[float]]]]:
    """Tally decision rules over simulated null and alternative snapshots.

    g0 and g1 must have the same n. Replicate rep spreads k infections
    on g0 at eta0 from substream (seed, 0, rep) and on g1 at etas[i]
    from (seed, 10 * (i + 1), rep), then censors c uniform vertices from
    the substream one tag above, so each snapshot depends only on its
    own substreams. Each snapshot is spread once, through
    spreading._spread_paths, and censored once. decide(iv, tag, rep)
    returns one (reject, raw threshold, raw statistic value) per rule;
    only the null replicates' (tag 0) thresholds are read. Returns per
    rule the null rejections, the sum of the null thresholds, and per
    eta the rejections and the values in replicate order.
    """
    if g0.n != g1.n:
        raise ValueError(f"null and alternative graphs differ in size: n={g0.n} and n={g1.n}")
    _check_run(g1, etas, k, reps)
    snapshots = [(g0, eta0, 0), *((g1, eta, 10 * (i + 1)) for i, eta in enumerate(etas))]
    jobs = ((g, eta, substream(seed, tag, rep)) for rep in range(reps) for g, eta, tag in snapshots)
    paths = _spread_paths(jobs, k)
    rows = []
    for rep in range(reps):
        row = []
        for (g, _, tag), order in zip(snapshots, paths):
            iv = infection_from_infected(g.n, order)
            if c:
                iv = censor_uniform(iv, c, substream(seed, tag + 1, rep))
            row.append(decide(iv, tag, rep))
        rows.append(row)
    tallies = []
    for rule in range(len(rows[0][0])):
        # rows[rep][snapshot][rule]: each snapshot's decisions in replicate order
        null, *alts = ([row[snap][rule] for row in rows] for snap in range(1 + len(etas)))
        tallies.append((
            sum(reject for reject, _, _ in null),
            sum(threshold for _, threshold, _ in null),
            [sum(reject for reject, _, _ in col) for col in alts],
            {eta: [value for _, _, value in col] for eta, col in zip(etas, alts)},
        ))
    return tallies


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
    no longer reject (permtest._mc_reject); every output is the same as
    with all B draws. stat defaults to W on g1; this is mc_risk_curves
    with one statistic.
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
    not yet settled, and stops once all are. So curve i equals
    mc_risk_curve(..., stat=stats[i]) field for field, at the cost of
    one set of spreads and one alternative draw stream. g0 and g1 must
    have the same n; see _replicates for the spreads and their
    substreams.
    """
    if not stats:
        raise ValueError("need at least one statistic")

    def decide(iv: InfectionVector, tag: int, rep: int) -> list[tuple[bool, float, float]]:
        if tag:
            rejects, values = _mc_reject(stats, iv, cfg, substream(cfg.seed, tag + 2, rep))
            return [(reject, nan, value) for reject, value in zip(rejects, values)]
        out = []
        for stat in stats:
            res = mc_test(stat, iv, cfg, null_graph=g0, rng=substream(cfg.seed, 2, rep))
            value, threshold, _ = res.raw_scale()
            out.append((res.reject, threshold, value))
        return out

    tallies = _replicates(g0, g1, eta0, etas, k, c, cfg.seed, reps, decide)
    return [
        RiskCurve(
            type_i=rejects / reps,
            mean_threshold=thresholds / reps,
            type_ii={eta: (reps - r) / reps for eta, r in zip(etas, alt_rejects)},
            reps=reps,
            alt_values=values,
        )
        for rejects, thresholds, alt_rejects, values in tallies
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

    The null snapshots spread on the empty graph at eta 0. A rule
    diagnosed as always or never rejecting simulates nothing, but
    refuses every run (reps, etas, k) that a simulation would refuse.
    """
    _check_run(rule.stat.graph, etas, k, reps)
    if rule.diagnosis != "data-dependent":
        fires = rule.diagnosis == "always rejects"
        type_ii = {eta: float(not fires) for eta in etas}
        return RiskCurve(float(fires), rule.threshold, type_ii, reps)

    def decide(iv: InfectionVector, tag: int, rep: int) -> list[tuple[bool, float, float]]:
        value = float(rule.stat.evaluate(iv))
        return [(value <= rule.threshold, rule.threshold, value)]

    g = rule.stat.graph
    [(rejects, _, alt_rejects, _)] = _replicates(
        empty_graph(g.n), g, 0.0, etas, k, c, seed, reps, decide
    )
    # the miss count over reps, the correctly rounded miss rate
    type_ii = {eta: (reps - r) / reps for eta, r in zip(etas, alt_rejects)}
    return RiskCurve(rejects / reps, rule.threshold, type_ii, reps)
