"""Permutation tests for infection snapshots on graphs.

Given one observed snapshot of infected / uninfected / censored
vertices, the tests here decide whether the infection spread along a
hypothesized contact graph or scattered as if no structure existed,
by comparing a clustering statistic against its law under uniform
vertex relabeling.
"""

from .errors import (
    ConfigError,
    DisconnectedTerminalsError,
    GuardExceededError,
    NetspreadError,
    ParseError,
)
from .graphs import (
    Graph,
    bfs_distances,
    build_graph,
    complete_graph,
    correlated_pair,
    cycle_graph,
    eccentricity,
    empty_graph,
    erdos_renyi,
    from_spec,
    generate,
    is_connected,
    load_edge_list,
    path_graph,
    star_graph,
    torus_grid,
    two_block,
)
from .likelihood import (
    LikelihoodReport,
    first_order_residual,
    likelihood_censored,
    likelihood_exact,
    likelihood_ratio,
    topology_sup_likelihood,
)
from .perms import (
    PermGroup,
    Permutation,
    apply_to_graph,
    apply_to_infection,
    automorphism_group,
    orbit,
    product_group_is_full,
)
from .permtest import (
    TestConfig,
    TestResult,
    check_validity,
    composite_mc_test,
    conditional_mc_test,
    exact_test,
    mc_test,
    multi_spread_mc_test,
)
from .risk import (
    BaselineRule,
    BoundValue,
    MultiSpreadBounds,
    RiskCurve,
    RiskInputs,
    baseline_risk_curve,
    baseline_rule,
    cascade_count,
    cascade_count_cycle,
    center_test_risk_bounds,
    h_eta,
    infection_reach_probability,
    line_cycle_bound,
    mc_risk_curve,
    mc_risk_curves,
    min_cascade_count,
    multi_spread_bounds,
    star_null_risk_bound,
    tb_threshold,
    tt_threshold,
)
from .rng import as_generator, substream
from .spreading import (
    CENSORED,
    INFECTED,
    UNINFECTED,
    InfectionPath,
    InfectionVector,
    SpreadParams,
    align_to_graph,
    censor_fixed,
    censor_uniform,
    infection_from_infected,
    infection_law_exact,
    ising_sample_exact,
    path_probability,
    read_status_file,
    simulate_spread,
    write_status_file,
)
from .stats import (
    StatisticSpec,
    center_indicator,
    edges_within,
    infection_radius,
    orbit_count,
    steiner_weight,
)

__version__ = "0.1.0"
