"""Order-preserving pattern matching with up to k mismatches.

Find every window of a numeric text whose relative order (and, with
repeated values, equality pattern) matches a numeric pattern after ignoring
the elements at up to k shared positions. The fast path first rules out
window starts with exact tests on the consecutive comparisons: a pigeonhole
prefilter (one of k + 1 pattern blocks must occur whole) and a
comparison-code filter (at most 2k of the m - 1 codes may differ). Then
each chunk takes one route, as ``match_all`` states: its few remaining
windows are decided alone, its windows are decided together, or it
slides. With distinct values, one patience-sorting pass decides a window
alone: it matches iff its values, read in the pattern's value order, keep
a strictly increasing subsequence of m - k values, and the pass stops at
the (k + 1)-th value it cannot append. A chunk decided together counts the
pattern's broken order edges bit-parallel for all its windows, which
rejects or certifies most of them, and leaves the pass the rest. With
repeated values, a window decided alone is filtered out when its signature
differs from the pattern's in more than 3k places. A sliding chunk
maintains a sliding-window signature and filters its windows by the same
3k bound. The windows that a signature filter keeps are verified exactly
through heaviest-increasing-subsequence / heaviest-chain instances built
from the few mismatch positions.
"""

from .matcher import (
    MatchStats,
    PatternIndex,
    k_isomorphic_check,
    k_isomorphic_subset_oracle,
    k_isomorphic_witness,
    match_all,
    match_naive,
)
from .seqcore import DuplicateValuesError
from .signature import SlidingSignature, compute_signature, signature_hamming
from .subsequence import (
    WeightedPoint,
    WeightedSeqItem,
    heaviest_chain,
    heaviest_increasing_subsequence,
    lis_length_at_least,
)

__version__ = "0.1.0"

__all__ = [
    "DuplicateValuesError",
    "MatchStats",
    "PatternIndex",
    "SlidingSignature",
    "WeightedPoint",
    "WeightedSeqItem",
    "compute_signature",
    "heaviest_chain",
    "heaviest_increasing_subsequence",
    "k_isomorphic_check",
    "k_isomorphic_subset_oracle",
    "k_isomorphic_witness",
    "lis_length_at_least",
    "match_all",
    "match_naive",
    "signature_hamming",
    "__version__",
]
