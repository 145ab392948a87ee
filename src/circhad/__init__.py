"""Circulant Hadamard verification, 2-block analysis, and exhaustive search.

The library splits into four layers plus a command line frontend:

* seqcore: sign sequences, periodic autocorrelation, the circulant
  Hadamard predicate.
* blockform: 2-blocks, the block view of a circulant of order 4n, parity
  counting, the even-pair cancellation residual, and block-row enumeration.
* matchchase: product-negating matchings at a fixed lag, matching books,
  and the obligation chase, including a bundled instance whose chase
  cycles.
* searcher: pruned, shardable exhaustive search over sign sequences.
"""

from .seqcore import (
    PafSpectrum,
    SignSequence,
    circulant_matrix,
    circulant_row,
    is_circulant_hadamard,
    paf,
    paf_spectrum,
)
from .blockform import (
    BlockSequence,
    Parity,
    SymBlockMatrix,
    TwoBlock,
    block_decompose,
    block_product,
    cancellation_holds,
    cancellation_residual,
    even_count,
    is_symmetric_even,
    recompose,
)
from .matchchase import (
    ChaseOutcome,
    ChaseStep,
    ChaseTrace,
    Counterexample,
    IndexPair,
    LagMatching,
    MatchingBook,
    ValidationReport,
    chase,
    counterexample,
    even_pairs_at_lag,
    find_book,
    find_matching,
    parse_matching_lines,
    render_matching_lines,
    validate_matching,
)
from .searcher import (
    ALL_PRUNES,
    PRUNE_PREFIX_PAF,
    PRUNE_ROW_SUM,
    SearchConfig,
    SearchReport,
    all_block_sequences,
    enumerate_block_sequences,
    rowsum_prune_applicable,
    search,
)

__version__ = "0.1.0"
