"""Dynamic posted pricing for multi-demand combinatorial markets.

Exact (rational-arithmetic) engine built around maximum-weight b-matching
duality: structured optimal coverings, adequate item orderings, per-round
price vectors, and adversarial simulation of dynamic runs.
"""

from .errors import (ContractViolationError, InternalConsistencyError, ModelError,
                     OracleCapError, UnsupportedMarketError)
from .matching import (BipartiteGraph, Covering, bfactor_exists, max_weight_bmatching,
                       max_weight_forced_edge, max_weight_reduced_capacity, optimal_covering)
from .model import (Market, OptReport, check_opt_property, market_graph, restrict_market,
                    trim_items, welfare)
from .dual import (StructuredCovering, compute_slack, is_legal_edge,
                   refine_covering, tight_subgraph)
from .sets import (feasible_bundle, legal_classes_3, maximal_dangerous_set,
                   min_surplus_set, minimal_dangerous_disjoint)
from .orderings import (adequate_bidemand, adequate_three_buyers, adequate_two_buyers,
                        combine, verify_adequate)
from .pricing import PriceVector, RoundPricing, multi_round, unit_round
from .simulation import (RunTrace, Step, Verdict, best_bundles, oracle_feasible,
                         oracle_opt, oracle_opt_value, run_exhaustive, run_once,
                         run_sampled)
from .cli import generate_instance, parse_instance, serialize_market

__all__ = [name for name in dir() if not name.startswith("_")]
