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

Layers load on first use: ``import circhad`` loads none of them, and a
public name such as ``circhad.search`` imports its layer the first time it
is read (PEP 562).  _NAMES below is the one list of public names: each
layer's ``__all__`` is read from it.  The prune names are defined here, so
that the command line can offer them without loading the searcher.
"""

__version__ = "0.1.0"

PRUNE_ROW_SUM = "row-sum"
PRUNE_PREFIX_PAF = "prefix-paf"
ALL_PRUNES = frozenset({PRUNE_ROW_SUM, PRUNE_PREFIX_PAF})

# the public names of each layer, the only place they are listed
_NAMES = {
    "seqcore": (
        "PafSpectrum",
        "SignSequence",
        "circulant_matrix",
        "circulant_row",
        "is_circulant_hadamard",
        "paf",
        "paf_spectrum",
    ),
    "blockform": (
        "BlockSequence",
        "Parity",
        "SymBlockMatrix",
        "TwoBlock",
        "all_block_sequences",
        "block_decompose",
        "block_product",
        "cancellation_holds",
        "cancellation_residual",
        "enumerate_block_sequences",
        "even_count",
        "is_symmetric_even",
        "recompose",
    ),
    "matchchase": (
        "ChaseOutcome",
        "ChaseStep",
        "ChaseTrace",
        "Counterexample",
        "IndexPair",
        "LagMatching",
        "MatchingBook",
        "ValidationReport",
        "chase",
        "counterexample",
        "even_pairs_at_lag",
        "find_book",
        "find_matching",
        "parse_matching_lines",
        "render_matching_lines",
        "validate_matching",
    ),
    "searcher": ("SearchConfig", "SearchReport", "rowsum_prune_applicable", "search"),
}
_LAYER_OF = {name: layer for layer, names in _NAMES.items() for name in names}

__all__ = ["ALL_PRUNES", "PRUNE_PREFIX_PAF", "PRUNE_ROW_SUM", *_LAYER_OF]


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
