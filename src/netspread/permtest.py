"""Permutation tests over infection snapshots.

The null hypothesis is that relabeling vertices uniformly at random
leaves the snapshot law unchanged. Tests score snapshots on an oriented
evidence scale (larger = more clustered; radius and tree statistics are
negated by StatisticSpec.score), estimate the permutation law of that
score, and reject when the observed score strictly exceeds a threshold
calibrated so the mass at or above it stays within alpha.

Thresholds never randomize: when even the top value carries more than
alpha of the permutation mass, the result is flagged saturated and the
threshold sits at the maximum draw, so only an observation strictly
above every draw can still reject. Any B >= ceil(1/alpha) - 1 keeps the
level at alpha; smaller B is degenerate but defined.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, floor
from typing import Iterator, Sequence

import numpy as np

from .errors import GuardExceededError
from .graphs import Graph
from .perms import PermGroup, automorphism_group, product_group_is_full
from .rng import substream
from .spreading import CENSORED, INFECTED, UNINFECTED, InfectionVector
from .stats import StatisticSpec

__all__ = [
    "TestConfig",
    "TestResult",
    "exact_test",
    "mc_test",
    "conditional_mc_test",
    "composite_mc_test",
    "multi_spread_mc_test",
    "check_validity",
]

MODE_FULL = "full-permute"
MODE_CENSOR_FIXING = "censor-fixing"


@dataclass(frozen=True)
class TestConfig:
    """Knobs shared by the Monte-Carlo tests."""

    __test__ = False  # not a pytest collectable despite the name

    alpha: float
    B: int = 1000
    seed: int = 0
    mode: str = MODE_FULL

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.mode not in (MODE_FULL, MODE_CENSOR_FIXING):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class TestResult:
    """Outcome of one permutation test, on the oriented score scale.

    observed/threshold are scores (for lower-tail statistics the raw
    value is the negation; `tail` records which). The invariant is
    reject == observed > threshold; a saturated threshold equals the
    maximum draw, so rejection then needs a strict full exceedance.
    histogram maps score -> count over the permutation draws. p_value
    uses the add-one rule for Monte-Carlo modes and the plain
    enumeration fraction for the exact test; raw_ge_count is the
    un-adjusted tail count. For composite tests observed/threshold/
    saturated are per-stage tuples and the invariant applies stagewise.
    """

    __test__ = False  # not a pytest collectable despite the name

    observed: float | tuple[float, float]
    threshold: float | tuple[float, float]
    p_value: float
    reject: bool
    histogram: tuple[tuple[float, int], ...]
    raw_ge_count: int
    n_draws: int
    saturated: bool | tuple[bool, bool]
    statistic: str
    tail: str
    mode: str
    validity_warning: str | None = None

    def raw_scale(self) -> tuple:
        """(observed, threshold, "below" or "above") on the raw statistic scale;
        per-stage tuples for a composite test, each stage by its own tail."""
        if isinstance(self.observed, tuple):
            stages = zip(self.observed, self.threshold, self.tail.split("+"))
            return tuple(zip(*(_raw_scale(*stage) for stage in stages)))
        return _raw_scale(self.observed, self.threshold, self.tail)


def _raw_scale(observed: float, threshold: float, tail: str) -> tuple[float, float, str]:
    if tail == "lower":
        return -observed, -threshold, "below"
    return observed, threshold, "above"


@lru_cache(maxsize=256)
def _tail_budget(alpha_mass: float, total: int) -> int:
    """floor(alpha_mass * total), taken exactly from the decimal alpha_mass.

    So 0.29 * 100 allows 29 draws, not the float product's
    28.999999999999996.
    """
    return floor(Fraction(repr(float(alpha_mass))) * total)


def _threshold_rule(
    scores: np.ndarray, alpha_mass: float, total: int
) -> tuple[float, bool]:
    """Minimal distinct score v with #{scores >= v} <= _tail_budget(alpha_mass, total).

    Returns (threshold, saturated); saturated means no such v exists and
    the threshold falls back to the maximum score, rejectable only by a
    value strictly above every score.
    """
    return _threshold_of(*np.unique(scores, return_counts=True), alpha_mass, total)


def _threshold_of(
    values: np.ndarray, counts: np.ndarray, alpha_mass: float, total: int
) -> tuple[float, bool]:
    """_threshold_rule on the distinct scores and their counts, ascending."""
    budget = _tail_budget(alpha_mass, total)
    tail_counts = counts[::-1].cumsum()[::-1]
    ok = np.flatnonzero(tail_counts <= budget)
    if ok.size == 0:
        return float(values[-1]), True
    return float(values[ok[0]]), False


def _calibrate(
    observed: float,
    scores: np.ndarray,
    alpha: float,
    total: int | None = None,
    add_one: bool = True,
    **labels,
) -> TestResult:
    """Threshold, p-value and histogram of one statistic's permutation scores.

    total is the draw count the tail budget and the p-value refer to
    (default scores.size; the stage-two scores of a composite test are
    a subset of its B draws). add_one gives the Monte-Carlo p-value
    (ge + 1) / (total + 1), otherwise the exact fraction ge / total.
    labels fill statistic, tail, mode and validity_warning.
    """
    total = scores.size if total is None else total
    values, counts = np.unique(scores, return_counts=True)
    threshold, saturated = _threshold_of(values, counts, alpha, total)
    ge = int(np.count_nonzero(scores >= observed))
    extra = 1 if add_one else 0
    return TestResult(
        observed=observed,
        threshold=threshold,
        p_value=(ge + extra) / (total + extra),
        reject=observed > threshold,
        histogram=tuple(zip(values.tolist(), counts.tolist())),
        raw_ge_count=ge,
        n_draws=total,
        saturated=saturated,
        **labels,
    )


def _validity_warning(stat: StatisticSpec, null_graph: Graph | None) -> str | None:
    if null_graph is None:
        return "unverifiable: no null graph provided"
    if stat.graph is None:
        # only a null with Aut = S_n (empty or complete) validates a
        # statistic that carries no alternative graph
        if null_graph.num_edges in (0, comb(null_graph.n, 2)):
            return None
        return "unverifiable: statistic carries no alternative graph"
    verdict = _pair_verdict(null_graph, stat.graph)
    if verdict == "valid":
        return None
    if verdict == "invalid":
        return "invalid: automorphism product does not cover all relabelings"
    return "unverifiable: automorphism groups too large to verify"


def _pair_verdict(null_graph: Graph, alt: Graph) -> str:
    """check_validity(null_graph, alt), computed once per pair of graph objects.

    The verdict is kept on the null graph object, keyed by the identity
    of alt: hashing a Graph would walk its whole edge list on every
    test. The entry holds alt weakly, so it keeps no alternative alive
    and an id reused by a later graph is not mistaken for alt.
    """
    memo = null_graph.__dict__.setdefault("_validity_verdicts", {})
    hit = memo.get(id(alt))
    if hit is None or hit[0]() is not alt:
        hit = memo[id(alt)] = (weakref.ref(alt), check_validity(null_graph, alt))
    return hit[1]


def check_validity(null_graph: Graph, alt: Graph | PermGroup) -> str:
    """Exchangeability precondition: is Aut(alt) * Aut(null) all of S_n?

    Returns "valid", "invalid", or "unverifiable" (groups beyond the
    computation guard). Either group being fully symmetric settles the
    answer without computing the other, so an empty or complete null
    validates any alternative at any size.
    """
    return validity_with_guard(null_graph, alt)[0]


def validity_with_guard(
    null_graph: Graph, alt: Graph | PermGroup
) -> tuple[str, GuardExceededError | None]:
    """check_validity's verdict, with the guard error behind "unverifiable".

    The null's group is computed first and the alternative's only when
    the null's is not fully symmetric.
    """
    groups = []
    guard = None
    for g in (null_graph, alt):
        if isinstance(g, PermGroup):
            group = g
        else:
            try:
                group = automorphism_group(g)
            except GuardExceededError as exc:
                guard = guard or exc
                continue
        if group.is_full_symmetric:
            return "valid", None
        groups.append(group)
    if guard is not None:
        return "unverifiable", guard
    g0, g1 = groups
    return ("valid" if product_group_is_full(g1, g0) else "invalid"), None


# statuses per drawn block: bounds a block's keys, and the per-row
# temporaries its scoring allocates, at any B
_BLOCK_STATUSES = 1 << 18


def _smallest(keys: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Per snapshot j of (rows, m, p) keys, the mask of its keys at or below
    its ks[j]-th smallest: ks[j] keys, or more where keys tie there."""
    infected = np.zeros(keys.shape, dtype=bool)
    for j in np.flatnonzero(ks).tolist():
        k = int(ks[j])
        kth = np.partition(keys[:, j], k - 1, axis=-1)[:, k - 1 : k]
        np.less_equal(keys[:, j], kth, out=infected[:, j])
    return infected


def _draw_keys(
    rng: np.random.Generator, ks: np.ndarray, rows: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, m, p) uint32 keys and _smallest's masks, as a per-row,
    per-snapshot loop draws them: p keys for each snapshot in turn, and
    while they tie at the k-th key, p more at once.

    The uint32 stream does not depend on how it is chunked, so one call
    draws the whole block as flat p-key slots. While some snapshot ties,
    its p keys are dropped, which moves every later slot up by one, and
    p fresh keys are appended: the loop's keys, with its end state.
    """
    m = len(ks)
    flat = rng.integers(0, 1 << 32, size=rows * m * p, dtype=np.uint32)
    while True:
        keys = flat.reshape(rows, m, p)
        infected = _smallest(keys, ks)
        # a mask holds at least its k keys, so one count over the block finds a tie
        if np.count_nonzero(infected) == rows * int(ks.sum()):
            return keys, infected
        tied = int(np.flatnonzero(np.count_nonzero(infected, axis=-1) != ks)[0])
        fresh = rng.integers(0, 1 << 32, size=p, dtype=np.uint32)
        flat = np.concatenate((flat[: tied * p], flat[(tied + 1) * p :], fresh))


def _infected_blocks(
    stack: np.ndarray,
    B: int,
    rng: np.random.Generator,
    positions: np.ndarray | None = None,
    first_rows: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The infected sets of B relabelings of an (m, n) status stack, as
    ((rows, m, n) bool masks, (rows, m, p) uint32 keys) blocks.

    Every statistic reads only the relabeled infected set, and a
    uniform relabeling makes each snapshot's a uniform k-subset of the
    p = n vertices, or of the p `positions` when given. Each draw gives
    every snapshot p uniform uint32 keys, and its infected set is the k
    smallest; a tie at the k-th key happens with probability about
    p / 2^32 and is redrawn, which keeps the subset exactly uniform
    (_draw_keys). Blocks hold up to _BLOCK_STATUSES statuses; with
    first_rows the first block holds that many rows and each later one
    twice as many as the last. The draws do not depend on the block
    sizes.
    """
    m, n = stack.shape
    p = n if positions is None else positions.size
    ks = np.count_nonzero(stack == INFECTED, axis=1)
    step = max(1, _BLOCK_STATUSES // stack.size)
    rows = step if first_rows is None else min(first_rows, step)
    lo = 0
    while lo < B:
        rows = min(rows, B - lo)
        keys, infected = _draw_keys(rng, ks, rows, p)
        if positions is not None:
            scattered = np.zeros((rows, m, n), dtype=bool)
            scattered[..., positions] = infected
            infected = scattered
        yield infected, keys
        lo += rows
        rows = min(2 * rows, step)


def _statuses(
    stack: np.ndarray, positions: np.ndarray | None, infected: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """The (rows, m, n) statuses of an _infected_blocks block, for _resampled.

    In censor-fixing mode (positions given) the censored vertices keep
    their mark. In full-permute mode a snapshot with c censored vertices
    has them at its c keys next after the infected ones; a tie at that
    boundary goes to the lower vertex numbers. Only these statuses see
    that tie: no score reads the censored set.
    """
    censored = np.broadcast_to(stack == CENSORED, infected.shape)
    if positions is None:
        ks = np.count_nonzero(stack == INFECTED, axis=1)
        cs = np.count_nonzero(stack == CENSORED, axis=1)
        censored = _smallest(keys, ks + cs) & ~infected
        extra = np.count_nonzero(censored, axis=-1) - cs
        for r, j in zip(*np.nonzero(extra)):
            # the tied keys are the largest marked ones; the highest vertices lose the mark
            tied = np.flatnonzero(keys[r, j] == keys[r, j][censored[r, j]].max())
            censored[r, j, tied[tied.size - extra[r, j] :]] = False
    status = np.where(censored, CENSORED, UNINFECTED).astype(stack.dtype)
    status[infected] = INFECTED
    return status


def _enumerated_blocks(status: np.ndarray) -> Iterator[np.ndarray]:
    """All n! relabelings of a status vector, in itertools.permutations order."""
    perms = itertools.permutations(range(status.size))
    step = max(1, _BLOCK_STATUSES // status.size)
    while chunk := list(itertools.islice(perms, step)):
        targets = np.array(chunk)
        block = np.empty(targets.shape, dtype=status.dtype)
        # row i sends vertex j's status to targets[i, j]
        block[np.arange(len(chunk))[:, None], targets] = status
        yield block


# the most vertices whose n! relabelings exact_test enumerates
_EXACT_N_GUARD = 8


def exact_test(
    stat: StatisticSpec,
    iv: InfectionVector,
    alpha: float,
    null_graph: Graph | None = None,
) -> TestResult:
    """Enumerate all n! relabelings; no Monte-Carlo error.

    Guarded at n <= _EXACT_N_GUARD because the cost is n! score evaluations.
    p_value is the exact permutation fraction #{score >= observed} / n!.
    """
    TestConfig(alpha=alpha, B=1)  # checks alpha
    n = iv.n
    if n > _EXACT_N_GUARD:
        raise GuardExceededError(
            f"exact test costs {n}! = {factorial(n)} evaluations; guard is n <= {_EXACT_N_GUARD}"
        )
    scores = np.concatenate([stat.score_batch(block) for block in _enumerated_blocks(iv.status)])
    return _calibrate(
        stat.score(iv),
        scores,
        alpha,
        add_one=False,
        statistic=stat.name,
        tail=stat.tail,
        mode="exact",
        validity_warning=_validity_warning(stat, null_graph),
    )


def _shuffled(stack: np.ndarray, cfg: TestConfig) -> np.ndarray | None:
    """The positions cfg.mode shuffles in every snapshot of an (m, n) status
    stack, None for all; censor-fixing needs one censored set for all."""
    if cfg.mode != MODE_CENSOR_FIXING:
        return None
    censored = stack == CENSORED
    if len(stack) > 1 and (censored[1:] != censored[0]).any():
        raise ValueError("censor-fixing needs every snapshot to share one censored set")
    positions = np.flatnonzero(~censored[0])
    if positions.size == 0:
        raise ValueError("every vertex is censored; nothing to permute")
    return positions


def _mc_draws(
    stack: np.ndarray,
    cfg: TestConfig,
    rng: np.random.Generator | None = None,
    first_rows: int | None = None,
) -> Iterator[np.ndarray]:
    """Per block of cfg.B relabelings of an (m, n) status stack in cfg.mode
    (drawn from rng, else substream(cfg.seed)), the (rows * m, n) infected
    masks of the drawn stacks (_infected_blocks), m rows per draw. Every
    Monte-Carlo test draws here and scores the masks itself; stopping the
    iteration stops the drawing."""
    positions = _shuffled(stack, cfg)
    gen = substream(cfg.seed) if rng is None else rng
    for infected, _ in _infected_blocks(stack, cfg.B, gen, positions, first_rows):
        yield infected.reshape(-1, stack.shape[1])


def _resampled(stack: np.ndarray, cfg: TestConfig) -> Iterator[np.ndarray]:
    """The flat (m * n) statuses (_statuses) of every relabeling a
    Monte-Carlo test of an (m, n) status stack draws from substream(cfg.seed)
    in cfg.mode, in draw order: the test's draws replayed for --debug-dump."""
    positions = _shuffled(stack, cfg)
    for infected, keys in _infected_blocks(stack, cfg.B, substream(cfg.seed), positions):
        yield from _statuses(stack, positions, infected, keys).reshape(len(keys), -1)


def _mc_result(
    stat: StatisticSpec,
    ivs: Sequence[InfectionVector],
    cfg: TestConfig,
    null_graph: Graph | None,
    rng: np.random.Generator | None,
    statistic: str,
    mode: str,
) -> TestResult:
    """The Monte-Carlo test of stat's mean over the snapshots ivs, in cfg.mode;
    the body of mc_test, conditional_mc_test and multi_spread_mc_test."""
    own = [stat.score(iv) for iv in ivs]
    stack = np.array([iv.status for iv in ivs])
    scores = np.concatenate([stat.score_batch(block) for block in _mc_draws(stack, cfg, rng)])
    # scores are integers or infinite, so the sums are exact in any order
    mean = scores if len(ivs) == 1 else scores.reshape(-1, len(ivs)).sum(axis=1) / len(ivs)
    return _calibrate(
        sum(own[1:], own[0]) / len(own),  # from own[0], so one snapshot's -0.0 stays -0.0
        mean,
        cfg.alpha,
        statistic=statistic,
        tail=stat.tail,
        mode=mode,
        validity_warning=_validity_warning(stat, null_graph),
    )


def mc_test(
    stat: StatisticSpec,
    iv: InfectionVector,
    cfg: TestConfig,
    null_graph: Graph | None = None,
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Monte-Carlo permutation test with B uniform relabelings, in cfg.mode.

    The add-one p-value (#{permuted >= observed} + 1) / (B + 1) is the
    standard unbiased-level estimate; reject still goes through the
    threshold rule so level holds for every B. In censor-fixing mode it
    is conditional_mc_test.
    """
    return _mc_result(stat, [iv], cfg, null_graph, rng, stat.name, cfg.mode)


def conditional_mc_test(
    stat: StatisticSpec,
    iv: InfectionVector,
    cfg: TestConfig,
    null_graph: Graph | None = None,
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Permutation test conditioned on the censored positions, whatever cfg.mode says.

    Only uncensored statuses are shuffled; censored vertices keep their
    mark, matching a null where censoring is arbitrary but fixed.
    """
    cfg = replace(cfg, mode=MODE_CENSOR_FIXING)
    return _mc_result(stat, [iv], cfg, null_graph, rng, stat.name, cfg.mode)


# rows in the first block an early-decided test draws; later blocks double
_FIRST_ROWS = 16


def _mc_reject(
    stats: Sequence[StatisticSpec], iv: InfectionVector, cfg: TestConfig, rng: np.random.Generator
) -> tuple[list[bool], list[float]]:
    """Per statistic, the reject and the raw observed value of mc_test,
    drawing only until every reject is settled.

    The draws come from rng in growing blocks, one stream for all
    statistics. Once more than the tail budget of them score at or above
    a statistic's observed score, its test cannot reject: an observation
    above a threshold has every score at or above it above the threshold
    too, and those number at most the budget; a saturated threshold is
    the top draw. Later blocks are not scored with it, and once every
    statistic is settled the remaining rows are not drawn. A statistic
    scored on all B rows calibrates exactly as mc_test, so each result
    is the one a call with that statistic alone gives.
    """
    observed = [stat.score(iv) for stat in stats]
    budget = _tail_budget(cfg.alpha, cfg.B)
    live = list(range(len(stats)))  # the unsettled statistics
    ge = [0] * len(stats)
    parts: list[list[np.ndarray]] = [[] for _ in stats]
    for block in _mc_draws(iv.status[None], cfg, rng, _FIRST_ROWS):
        for i in live:
            scores = stats[i].score_batch(block)
            ge[i] += int(np.count_nonzero(scores >= observed[i]))
            parts[i].append(scores)
        live = [i for i in live if ge[i] <= budget]
        if not live:
            break
    reject = [False] * len(stats)
    for i in live:
        threshold, _ = _threshold_rule(np.concatenate(parts[i]), cfg.alpha, cfg.B)
        reject[i] = observed[i] > threshold
    return reject, [_raw_scale(score, score, stat.tail)[0] for stat, score in zip(stats, observed)]


def composite_mc_test(
    stat_first: StatisticSpec,
    stat_second: StatisticSpec,
    iv: InfectionVector,
    cfg: TestConfig,
    null_graph: Graph | None = None,
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Two-stage test against a composite alternative, level alpha overall.

    Stage one spends alpha/2 on the first statistic. Stage two spends
    alpha/2 on the second statistic among draws the first stage left
    alone (first score <= its threshold), so the rejection regions are
    disjoint and masses add. Rejects when either stage fires on the
    observed snapshot. p_value is the Bonferroni combination
    min(1, 2 min(p1, p2)) of the stagewise add-one p-values. Draws follow
    cfg.mode; the validity warning is the first one of the two statistics.
    """
    stats = (stat_first, stat_second)
    blocks = _mc_draws(iv.status[None], cfg, rng)
    s1, s2 = map(np.concatenate, zip(*([stat.score_batch(b) for stat in stats] for b in blocks)))
    half = cfg.alpha / 2.0
    warnings = (_validity_warning(stat, null_graph) for stat in stats)
    labels = dict(
        statistic=f"{stat_first.name}+{stat_second.name}",
        tail=f"{stat_first.tail}+{stat_second.tail}",
        mode="composite",
        validity_warning=next(filter(None, warnings), None),
    )
    first = _calibrate(stat_first.score(iv), s1, half, **labels)
    # a saturated first threshold equals max(s1), so the mask is then all-true;
    # stage two fires only where stage one did not, so reject is either stage
    second = _calibrate(
        stat_second.score(iv), s2[s1 <= first.threshold], half, total=cfg.B, **labels
    )
    return replace(
        first,
        observed=(first.observed, second.observed),
        threshold=(first.threshold, second.threshold),
        p_value=min(1.0, 2.0 * min(first.p_value, second.p_value)),
        reject=first.reject or second.reject,
        saturated=(first.saturated, second.saturated),
    )


def multi_spread_mc_test(
    stat: StatisticSpec,
    ivs: Sequence[InfectionVector],
    cfg: TestConfig,
    null_graph: Graph | None = None,
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Aggregate test over m independent snapshots of the same graph.

    The observed score is the mean of per-snapshot scores; each
    Monte-Carlo draw relabels every snapshot with its own independent
    uniform permutation, in cfg.mode: censor-fixing needs one censored
    set shared by all. With m = 1 this reduces exactly to mc_test.
    """
    if not ivs:
        raise ValueError("need at least one snapshot")
    if any(iv.n != ivs[0].n for iv in ivs):
        raise ValueError("snapshots must share one vertex set")
    return _mc_result(stat, ivs, cfg, null_graph, rng, f"avg-{stat.name}", "multi-spread")
