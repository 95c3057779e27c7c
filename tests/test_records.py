"""Result records: named tuples, plus the immutable slotted Bipartition."""

import copy
import inspect
import pickle
import random
import typing
from fractions import Fraction

import pytest

import biclique_imbalance
from biclique_imbalance import (
    Bipartition,
    ChainComponent,
    ChainDecomposition,
    ChainSpec,
    OptimalityVerdict,
    OracleResult,
    Ordering,
    OverlapInequalityProbe,
    SpecInvalidError,
    YPositionProfile,
    construct_optimal_chained,
    decompose,
    generate_chained,
    interval_representation,
)
from conftest import FIG_SPEC, chained_example_graph, renamed

B = Bipartition({"a"}, {"b"})
B_REPR = "Bipartition(x_part=frozenset({'a'}), y_part=frozenset({'b'}))"

# (record, its fields in order, its repr)
RECORDS = [
    (
        OracleResult(4, Ordering(["a", "b"]), 2),
        ("minimum", "witness", "optima_count"),
        "OracleResult(minimum=4, witness=Ordering(a, b), optima_count=2)",
    ),
    (
        OptimalityVerdict(False, "P1", 5, 4),
        ("optimal", "failed_property", "achieved", "minimum"),
        "OptimalityVerdict(optimal=False, failed_property='P1', achieved=5, minimum=4)",
    ),
    (
        OverlapInequalityProbe(0, -4, 1, 1, 2, 0),
        (
            "lhs",
            "rhs",
            "left_in_first",
            "right_in_first",
            "left_in_second",
            "right_in_second",
        ),
        "OverlapInequalityProbe(lhs=0, rhs=-4, left_in_first=1, right_in_first=1, "
        "left_in_second=2, right_in_second=0)",
    ),
    (
        YPositionProfile((0, 2, 3), (1, 0), ("y1",)),
        ("positions", "blocks", "y_vertices"),
        "YPositionProfile(positions=(0, 2, 3), blocks=(1, 0), y_vertices=('y1',))",
    ),
    (
        ChainSpec(((2, 3),), ()),
        ("sizes", "overlap_parts"),
        "ChainSpec(sizes=((2, 3),), overlap_parts=())",
    ),
    (
        ChainDecomposition((B,), ()),
        ("components", "overlaps"),
        f"ChainDecomposition(components=({B_REPR},), overlaps=())",
    ),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
class TestNamedTupleRecords:
    def test_fields_in_order(self, record, fields, text):
        assert type(record)._fields == fields
        assert tuple(getattr(record, f) for f in fields) == tuple(record)

    def test_repr(self, record, fields, text):
        assert repr(record) == text

    def test_hash_is_the_hash_of_the_fields(self, record, fields, text):
        assert hash(record) == hash(tuple(getattr(record, f) for f in fields))

    def test_fields_cannot_be_assigned(self, record, fields, text):
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)

    def test_unpacks_indexes_and_equals_its_field_tuple(self, record, fields, text):
        *values, last = record
        assert record[-1] == last
        assert record == (*values, last)

    def test_keyword_construction_and_pickle(self, record, fields, text):
        kwargs = {f: getattr(record, f) for f in fields}
        assert type(record)(**kwargs) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_oracle_result_count_defaults_to_none():
    assert OracleResult(3, Ordering(["a"])).optima_count is None


def test_subclassed_records_keep_their_methods():
    assert YPositionProfile((0, 2, 3), (1, 0), ("y1",)).y_at(1) == "y1"
    with pytest.raises(ValueError, match="rank 2 out of range 1..1"):
        YPositionProfile((0, 2, 3), (1, 0), ("y1",)).y_at(2)
    with pytest.raises(SpecInvalidError, match="spec needs at least one component"):
        ChainSpec((), ()).validate()
    d = ChainDecomposition((B,), ())
    assert d.n == 1
    assert d.vertices == frozenset({"a", "b"})
    assert d.vertices is d.vertices


def test_decompositions_carry_no_provenance():
    # A decomposition is a plain record, whatever built it: decompose leaves
    # only the cached vertex set in its __dict__, and a copy of it, or one
    # rebuilt from its fields, gives the same construction.
    chain = renamed(*generate_chained(FIG_SPEC), random.Random(3))[0]
    for g in (chained_example_graph(), chain):
        d = decompose(g)
        o = construct_optimal_chained(d)
        assert d.vertices == g.vertices
        assert vars(d).keys() == {"vertices"}
        assert construct_optimal_chained(d._replace()) == o
        assert construct_optimal_chained(ChainDecomposition(*d)) == o


class TestBipartition:
    def test_alias(self):
        assert ChainComponent is Bipartition

    def test_repr(self):
        assert repr(B) == B_REPR

    def test_keyword_construction_freezes_the_parts(self):
        b = Bipartition(x_part=["a", "c"], y_part={"b"})
        assert b.x_part == frozenset({"a", "c"}) and type(b.x_part) is frozenset
        assert b.y_part == frozenset({"b"}) and type(b.y_part) is frozenset
        assert b.vertices == frozenset({"a", "b", "c"})
        assert (b.nx, b.ny) == (2, 1)

    def test_parts_must_be_disjoint(self):
        with pytest.raises(ValueError, match=r"^parts are not disjoint: \['a', 'c'\]$"):
            Bipartition({"a", "b", "c"}, {"c", "a"})

    def test_equality_and_hash_by_parts(self):
        assert B == Bipartition(frozenset({"a"}), frozenset({"b"}))
        assert B != Bipartition({"b"}, {"a"})
        assert B != (frozenset({"a"}), frozenset({"b"}))
        assert hash(B) == hash((frozenset({"a"}), frozenset({"b"})))

    @pytest.mark.parametrize("name", ["x_part", "y_part", "vertices", "other"])
    def test_immutable(self, name):
        with pytest.raises(AttributeError):
            setattr(B, name, frozenset())
        with pytest.raises(AttributeError):
            delattr(B, name)
        assert B.x_part == frozenset({"a"})

    def test_copies_and_pickles(self):
        for twin in (copy.copy(B), copy.deepcopy(B), pickle.loads(pickle.dumps(B))):
            assert twin == B
            assert twin.vertices == B.vertices

    def test_pattern_matching(self):
        match B:
            case Bipartition(x, y):
                assert (x, y) == (B.x_part, B.y_part)
            case _:
                pytest.fail("no match")


def test_interval_representation_is_exact():
    _, d = generate_chained(ChainSpec(((1, 1),), ()))
    assert interval_representation(d) == {
        "x1": (Fraction(33, 8), Fraction(57, 8)),
        "y1": (Fraction(17, 4), Fraction(29, 4)),
    }
    _, d = generate_chained(ChainSpec(((2, 2), (2, 2)), ("X",)))
    rep = interval_representation(d)
    assert rep["x2"] == (Fraction(7), Fraction(11))
    assert all(type(end) is Fraction for pair in rep.values() for end in pair)


def test_every_public_annotation_resolves():
    resolved = []
    for name in biclique_imbalance.__all__:
        obj = getattr(biclique_imbalance, name)
        if inspect.isfunction(obj):
            resolved.append(typing.get_type_hints(obj))
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                fn = member.fget if isinstance(member, property) else member
                fn = getattr(fn, "func", fn)  # a cached_property's function
                if inspect.isfunction(fn):
                    resolved.append(typing.get_type_hints(fn))
    assert len(resolved) > 50
    hints = typing.get_type_hints(interval_representation)
    assert hints["return"] == dict[str, tuple[Fraction, Fraction]]


# The public names, sorted. Dropping or adding one changes this list.
PUBLIC_NAMES = [
    "Bipartition",
    "ChainComponent",
    "ChainDecomposition",
    "ChainSpec",
    "ConstructionInvariantViolatedError",
    "DEFAULT_CAP",
    "Graph",
    "GraphParseError",
    "NotBipartiteError",
    "NotChainedError",
    "NotCompleteBipartiteError",
    "NotConnectedError",
    "OptimalityVerdict",
    "OracleResult",
    "Ordering",
    "OverlapInequalityProbe",
    "SizeCapExceededError",
    "SpecInvalidError",
    "YPositionProfile",
    "bipartition",
    "brute_force_min",
    "construct_optimal_chained",
    "construct_optimal_complete",
    "decompose",
    "enumerate_optima",
    "format_decomposition",
    "g_count",
    "generate_chained",
    "interval_representation",
    "is_complete_bipartite",
    "min_imbalance_chained",
    "min_imbalance_formula",
    "ordering_imbalance",
    "overlap_inequality_probe",
    "parse_chain_spec",
    "parse_edge_list",
    "parse_ordering",
    "shift_left",
    "shift_right",
    "verify_optimal_complete",
    "vertex_imbalance",
    "vertex_imbalances",
    "y_position_profile",
]


def test_public_api_is_pinned():
    assert biclique_imbalance.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(biclique_imbalance, name) is not None


MODULES = ("chained", "complete", "errors", "graph", "oracle")


def test_namespace_is_the_union_of_the_modules_all():
    owner = {}
    for mod_name in MODULES:
        module = getattr(biclique_imbalance, mod_name)
        for name in module.__all__:
            assert name not in owner, f"{name} is in {owner.get(name)} and {mod_name}"
            owner[name] = mod_name
            assert getattr(biclique_imbalance, name) is getattr(module, name)
    assert sorted(owner) == biclique_imbalance.__all__


def test_errors_all_names_every_exception_class():
    errors = biclique_imbalance.errors
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == errors.__name__
    }
    assert len(classes) == 8
    assert sorted(errors.__all__) == sorted(classes)
    # The CLI exits with each class's exit_code.
    assert {name: getattr(errors, name).exit_code for name in errors.__all__} == {
        "GraphParseError": 2,
        "NotBipartiteError": 3,
        "NotCompleteBipartiteError": 3,
        "NotConnectedError": 3,
        "NotChainedError": 3,
        "SpecInvalidError": 3,
        "SizeCapExceededError": 4,
        "ConstructionInvariantViolatedError": 5,
    }
