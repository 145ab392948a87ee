"""The contract of the public record classes: immutable, equal only to a
record of the same class with equal fields, hashed consistently with that
equality, ordered only where IndexPair is, and shown as Name(field=value).
"""

import copy
import pickle

import pytest

from circhad import (
    ChaseOutcome,
    ChaseStep,
    ChaseTrace,
    IndexPair,
    LagMatching,
    MatchingBook,
    PafSpectrum,
    SearchConfig,
    SearchReport,
    SymBlockMatrix,
    TwoBlock,
    ValidationReport,
    chase,
    counterexample,
)

P02, P24 = IndexPair(0, 2), IndexPair(2, 4)
STEP = ChaseStep(P02, P24)

# each public record class with two field sets that differ, in field order
SAMPLES = [
    (PafSpectrum, {"values": (4, 0, 0, 0)}, {"values": (4, -4, 4, -4)}),
    (TwoBlock, {"diag": 1, "offdiag": -1}, {"diag": -1, "offdiag": -1}),
    (SymBlockMatrix, {"diag": 2, "offdiag": 2}, {"diag": 2, "offdiag": 0}),
    (IndexPair, {"first": 0, "second": 2}, {"first": 2, "second": 0}),
    (LagMatching, {"lag": 2, "pairs": ((P02, P24),)}, {"lag": 2, "pairs": ()}),
    (ValidationReport, {"violations": ()}, {"violations": ("lag 6 is zero modulo 6",)}),
    (ChaseStep, {"obligation": P02, "matched": None}, {"obligation": P02, "matched": P24}),
    (
        ChaseTrace,
        {"steps": (STEP,), "outcome": ChaseOutcome.CYCLE, "repeat": P02},
        {"steps": (STEP,), "outcome": ChaseOutcome.DEGENERATE, "repeat": None},
    ),
    (
        SearchConfig,
        {
            "order": 16,
            "prunes": frozenset(),
            "workers": 1,
            "canonicalize": False,
            "budget_seconds": None,
            "ledger_path": None,
        },
        {
            "order": 16,
            "prunes": frozenset(),
            "workers": 2,
            "canonicalize": False,
            "budget_seconds": 0.5,
            "ledger_path": "shards.ledger",
        },
    ),
    (
        SearchReport,
        {
            "order": 4,
            "prunes": (),
            "canonicalize": False,
            "workers": 1,
            "sequences_examined": 8,
            "solutions": ("+---",),
            "canonical_classes": None,
            "prune_cuts": {},
            "incomplete": False,
            "elapsed_seconds": 0.25,
        },
        {
            "order": 4,
            "prunes": (),
            "canonicalize": True,
            "workers": 1,
            "sequences_examined": 8,
            "solutions": ("+---",),
            "canonical_classes": ("+---",),
            "prune_cuts": {},
            "incomplete": False,
            "elapsed_seconds": 0.25,
        },
    ),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
# SearchReport holds its prune cuts in a dict, so it has no hash
HASHABLE = [s for s in SAMPLES if s[0] is not SearchReport]


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_constructor_takes_fields_by_position_or_keyword(cls, fields, other):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    for name, value in fields.items():
        assert getattr(record, name) == value
    assert cls(**other) != record


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, other):
    record = cls(**fields)
    for name, value in other.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_new_attributes_are_refused(cls, fields, other):
    # a name that is not a field is refused the same way
    record = cls(**fields)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        del record.extra


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_equality_is_class_strict(cls, fields, other):
    record = cls(**fields)
    assert record != tuple(fields.values())
    assert tuple(fields.values()) != record
    for other_cls, other_fields, _ in SAMPLES:
        if other_cls is not cls:
            assert record != other_cls(**other_fields)


def test_same_fields_in_another_class_differ():
    assert TwoBlock(1, 1) != SymBlockMatrix(1, 1)
    assert SymBlockMatrix(1, 1) != TwoBlock(1, 1)


@pytest.mark.parametrize("cls, fields, other", HASHABLE, ids=[s[0].__name__ for s in HASHABLE])
def test_hash_agrees_with_equality(cls, fields, other):
    record, twin = cls(**fields), cls(**fields)
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert len({record, twin, cls(**other)}) == 2


def test_report_with_a_dict_field_is_unhashable():
    _, fields, _ = SAMPLES[IDS.index("SearchReport")]
    with pytest.raises(TypeError):
        hash(SearchReport(**fields))


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_repr_names_every_field(cls, fields, other):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, other", SAMPLES, ids=IDS)
def test_copy_and_pickle_keep_the_record(cls, fields, other):
    record = cls(**fields)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record


def test_index_pairs_are_ordered_as_tuples():
    pairs = [IndexPair(i, j) for i in range(3) for j in range(3) if i != j]
    for p in pairs:
        for q in pairs:
            key_p, key_q = (p.first, p.second), (q.first, q.second)
            assert (p < q, p <= q, p > q, p >= q) == (
                key_p < key_q, key_p <= key_q, key_p > key_q, key_p >= key_q
            )
    assert sorted(reversed(pairs)) == pairs
    assert min(P24, P02) is P02 and max(P02, P24) is P24
    with pytest.raises(TypeError):
        P02 < (0, 3)


@pytest.mark.parametrize("cls, fields, other", [s for s in SAMPLES if s[0] is not IndexPair],
                         ids=[i for i in IDS if i != "IndexPair"])
def test_other_records_have_no_order(cls, fields, other):
    record = cls(**fields)
    for compare in (
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b
    ):
        with pytest.raises(TypeError):
            compare(record, cls(**other))


def test_defaults():
    assert ChaseTrace((), ChaseOutcome.DEGENERATE).repeat is None
    cfg = SearchConfig(16)
    assert (cfg.prunes, cfg.workers, cfg.canonicalize, cfg.budget_seconds, cfg.ledger_path) == (
        frozenset({"row-sum", "prefix-paf"}), 1, False, None, None
    )
    # prunes are kept as a frozenset whatever iterable they come in
    assert SearchConfig(16, prunes=["row-sum"]) == SearchConfig(16, prunes=frozenset({"row-sum"}))


def test_chase_records_equal_constructed_ones():
    # chase builds its trace and steps with the constructors and reuses
    # steps from the book's table; what it returns must not be told apart
    # from what the constructors build
    blocks, cycle_book, start = counterexample()
    degenerate_book = MatchingBook([LagMatching.of(2, [(P02, IndexPair(4, 0))])])
    outcomes = set()
    for book in (cycle_book, degenerate_book, MatchingBook()):
        trace = chase(blocks, book, start)
        steps = tuple(ChaseStep(s.obligation, s.matched) for s in trace.steps)
        twin = ChaseTrace(steps, trace.outcome, trace.repeat)
        outcomes.add(trace.outcome)
        assert type(trace) is ChaseTrace
        assert trace == twin and twin == trace and hash(trace) == hash(twin)
        assert repr(trace) == repr(twin)
        assert trace != (steps, trace.outcome, trace.repeat)
        for made, built in zip(trace.steps, steps):
            assert type(made) is ChaseStep
            assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
            with pytest.raises(AttributeError):
                made.matched = None
        for name in ChaseTrace.__slots__:
            with pytest.raises(AttributeError):
                setattr(trace, name, None)
            with pytest.raises(AttributeError):
                delattr(trace, name)
        assert trace == twin
        assert pickle.loads(pickle.dumps(trace)) == twin
    assert outcomes == set(ChaseOutcome)
