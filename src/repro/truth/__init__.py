"""Truth-discovery baselines for crowd label aggregation (Table I)."""

from repro.truth.filtering import QualityFilter, aggregate_by_filtering
from repro.truth.tdem import TruthDiscoveryEM, aggregate_by_tdem
from repro.truth.voting import aggregate_by_voting, majority_vote, vote_distribution

__all__ = [
    "QualityFilter",
    "aggregate_by_filtering",
    "TruthDiscoveryEM",
    "aggregate_by_tdem",
    "aggregate_by_voting",
    "majority_vote",
    "vote_distribution",
]
