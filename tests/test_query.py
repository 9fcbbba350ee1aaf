"""Query AST, parser, and the static analyses (vars, adm, branch, base)."""

import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from itertools import islice

import pytest

import sparqlkb

from conftest import FIXTURES, fam, V, join_chain, load_query
from sparqlkb.errors import ParseError, QueryShapeError
from sparqlkb.harness import SizeParams, brute_force_adm, generate_instances
from sparqlkb.kb import Var, individual
from sparqlkb.query import (
    JoinQ,
    OptQ,
    Select,
    TriplePattern,
    UnionQ,
    adm,
    base,
    branch,
    is_admissible,
    is_jo,
    is_union_free,
    max_admissible_subsets,
    min_base,
    parse_query,
    query_vars,
    serialize_query,
    triple_pattern_count,
)

X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")

# A(?x) OPT (R(?x,?y) JOIN R(?y,?z)): the recurring optional-join shape.
OPT_JOIN = OptQ(
    TriplePattern("A", (X,)),
    JoinQ(TriplePattern("R", (X, Y)), TriplePattern("R", (Y, Z))),
)


class TestParsing:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.sq")))
    def test_round_trip_on_fixtures(self, name):
        q = load_query(name)
        assert parse_query(serialize_query(q)) == q

    def test_select_structure(self):
        q = parse_query("SELECT{x}( hasLicense(?x, ?y) )")
        assert q == Select(V("x"), TriplePattern("hasLicense", (X, Y)))

    def test_ground_pattern(self):
        q = parse_query("Driver(Alice)")
        assert q == TriplePattern("Driver", (individual("Alice"),))

    def test_select_of_unbound_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT{z}( Driver(?x) )")

    def test_keywords_are_not_predicates(self):
        with pytest.raises(ParseError):
            parse_query("OPT(?x)")

    def test_nesting_limit(self):
        assert triple_pattern_count(parse_query(join_chain(256))) == 257
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_query(join_chain(257, left_deep=False))
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_query("SELECT{x}(" * 257 + "A(?x)" + ")" * 257)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_query("Driver(?x) Driver(?y)")

    def test_select_constructor_checks_projection(self):
        with pytest.raises(ValueError):
            Select(V("z"), TriplePattern("A", (X,)))


class TestQueryVars:
    def test_select_projects(self):
        assert query_vars(load_query("ex1.sq")) == V("x")

    def test_opt_collects_both_sides(self):
        assert query_vars(load_query("ex2.sq")) == V("x", "y")

    def test_ground_pattern_has_no_vars(self):
        assert query_vars(parse_query("Driver(Alice)")) == frozenset()

    def test_counts_and_shape_predicates(self):
        q = load_query("ex7.sq")
        assert triple_pattern_count(q) == 3
        assert is_jo(q) and is_union_free(q)
        assert not is_jo(load_query("ex1.sq"))
        assert not is_union_free(UnionQ(OPT_JOIN, OPT_JOIN))

    def test_a_select_inside_a_join_opt_tree_is_not_jo(self):
        q = parse_query("OPT(A(?x), JOIN(r(?x,?y), SELECT{y}(s(?y,?z))))")
        assert not is_jo(q) and is_union_free(q)

    @pytest.mark.parametrize("text", [
        "OPT(A(?x), UNION(r(?x,?y), s(?x,?y)))",
        "JOIN(A(?x), SELECT{x}(UNION(A(?x), B(?x))))",
    ])
    def test_a_nested_union_is_not_union_free(self, text):
        assert not is_union_free(parse_query(text))


class TestAdm:
    def test_triple_pattern_binds_its_vars(self):
        assert adm(TriplePattern("r", (X, Y))) == fam(["x", "y"])

    def test_opt_join_shape(self):
        assert adm(OPT_JOIN) == fam(["x"], ["x", "y", "z"])

    def test_union_collects_operands(self):
        q = UnionQ(TriplePattern("A", (X,)), TriplePattern("R", (X, Y)))
        assert adm(q) == fam(["x"], ["x", "y"])

    def test_select_intersects(self):
        q = Select(V("x", "z"), OPT_JOIN)
        assert adm(q) == fam(["x"], ["x", "z"])


class TestBranch:
    def test_union_free_query_is_its_own_branch(self):
        assert branch(OPT_JOIN) == frozenset({OPT_JOIN})

    def test_a_union_free_query_is_returned_as_its_branch(self):
        """branch(q) of a UNION-free q holds q itself, not an equal copy, so
        the semantics match that branch by identity."""
        checked = 0
        for seed in (1, 7):
            for _, q in islice(generate_instances(seed, SizeParams()), 300):
                if is_union_free(q):
                    # an equal query asked earlier would be served from the cache
                    branch.cache_clear()
                    assert next(iter(branch(q))) is q, serialize_query(q)
                    checked += 1
        assert checked >= 300

    def test_opt_over_union_splits(self):
        q = OptQ(
            TriplePattern("A", (X,)),
            UnionQ(TriplePattern("R1", (X, Y)), TriplePattern("R2", (X, Z))),
        )
        assert branch(q) == frozenset(
            {
                OptQ(TriplePattern("A", (X,)), TriplePattern("R1", (X, Y))),
                OptQ(TriplePattern("A", (X,)), TriplePattern("R2", (X, Z))),
            }
        )

    def test_join_of_unions_takes_the_product(self):
        u1 = UnionQ(TriplePattern("A", (X,)), TriplePattern("B", (X,)))
        u2 = UnionQ(TriplePattern("C", (Y,)), TriplePattern("D", (Y,)))
        assert len(branch(JoinQ(u1, u2))) == 4

    def test_union_branch_count_is_additive(self):
        u1 = UnionQ(TriplePattern("A", (X,)), TriplePattern("B", (X,)))
        u2 = UnionQ(TriplePattern("C", (Y,)), TriplePattern("D", (Y,)))
        assert len(branch(UnionQ(u1, u2))) == len(branch(u1)) + len(branch(u2))

    def test_branches_are_union_free(self):
        q = Select(
            V("x", "y"),
            UnionQ(TriplePattern("A", (X,)), TriplePattern("R", (X, Y))),
        )
        for qb in branch(q):
            assert is_union_free(qb)

    def test_select_over_union_drops_absent_projected_vars(self):
        q = Select(
            V("x", "y"),
            UnionQ(TriplePattern("A", (X,)), TriplePattern("R", (X, Y))),
        )
        assert branch(q) == frozenset(
            {
                Select(V("x"), TriplePattern("A", (X,))),
                Select(V("x", "y"), TriplePattern("R", (X, Y))),
            }
        )

    def test_branch_adm_is_contained_in_query_adm(self):
        q = OptQ(
            TriplePattern("A", (X,)),
            UnionQ(TriplePattern("R1", (X, Y)), TriplePattern("R2", (X, Z))),
        )
        for qb in branch(q):
            assert adm(qb) <= adm(q)


class TestBase:
    def test_triple_pattern_base_case(self):
        assert base(TriplePattern("r", (X, Y))) == fam(["x", "y"])

    def test_opt_join_shape(self):
        assert base(OPT_JOIN) == fam(["x"], ["x", "y", "z"])

    def test_nested_opt_unions_generate_adm(self):
        q = OptQ(
            OptQ(TriplePattern("A", (X,)), TriplePattern("R", (X, Y))),
            TriplePattern("S", (X, W)),
        )
        generated = set()
        elements = sorted(base(q), key=sorted)
        for mask in range(1, 2 ** len(elements)):
            union = frozenset().union(
                *(b for i, b in enumerate(elements) if mask >> i & 1)
            )
            generated.add(union)
        assert frozenset(generated) == adm(q)

    def test_rejects_select_and_union(self):
        with pytest.raises(QueryShapeError):
            base(Select(V("x"), TriplePattern("A", (X,))))
        with pytest.raises(QueryShapeError):
            base(UnionQ(TriplePattern("A", (X,)), TriplePattern("B", (X,))))

    def test_min_base_is_the_left_anchor(self):
        assert min_base(OPT_JOIN) == V("x")

    def test_left_deep_opt_chain_is_linear(self):
        q = TriplePattern("A", (X,))
        for k in range(1, 15):
            q = OptQ(q, TriplePattern(f"p{k}", (X, Var(f"y{k}"))))
            assert len(base(q)) == k + 1

    def test_size_is_at_most_the_pattern_count(self):
        for seed in (3, 11):
            for _, q in islice(generate_instances(seed, SizeParams(), jo_only=True), 300):
                assert len(base(q)) <= triple_pattern_count(q), serialize_query(q)


class TestAdmissibility:
    def test_membership_matches_the_narrative_sets(self):
        assert is_admissible(OPT_JOIN, V("x"))
        assert is_admissible(OPT_JOIN, V("x", "y", "z"))
        assert not is_admissible(OPT_JOIN, V("x", "z"))
        assert not is_admissible(OPT_JOIN, frozenset())

    def test_max_subsets_of_partial_domain(self):
        assert max_admissible_subsets(OPT_JOIN, V("x", "z")) == fam(["x"])

    def test_max_subsets_of_full_domain_is_top(self):
        assert max_admissible_subsets(OPT_JOIN, V("x", "y", "z")) == fam(
            ["x", "y", "z"]
        )

    def test_max_subsets_of_empty_domain_is_empty(self):
        assert max_admissible_subsets(OPT_JOIN, frozenset()) == frozenset()

    def test_select_intersects_the_base(self):
        q = Select(V("x", "z"), OPT_JOIN)
        assert is_admissible(q, V("x", "z"))
        assert not is_admissible(q, V("z"))
        assert max_admissible_subsets(q, V("x", "z")) == fam(["x", "z"])
        # SELECT{y}(A(?x) OPT R(?x,?y)): the minimum is the empty set
        q = Select(V("y"), OptQ(TriplePattern("A", (X,)), TriplePattern("R", (X, Y))))
        assert max_admissible_subsets(q, frozenset()) == fam([])

    @pytest.mark.parametrize("seed", [3, 11, 17, 23, 31])
    def test_agrees_with_brute_force_on_every_branch(self, seed):
        """Every query, UNION included, and every UNION-free branch, SELECT
        included, against the power set."""
        checked = unions = 0
        for _, q in islice(generate_instances(seed, SizeParams()), 300):
            oracle = brute_force_adm(q)
            for x in _power_set(q):
                assert is_admissible(q, x) == (x in oracle), (q, x)
            unions += not is_union_free(q)
            for qb in branch(q):
                oracle = brute_force_adm(qb)
                for x in _power_set(qb):
                    assert is_admissible(qb, x) == (x in oracle), (qb, x)
                    inside = [a for a in oracle if a <= x]
                    want = frozenset(a for a in inside if not any(a < b for b in inside))
                    assert max_admissible_subsets(qb, x) == want, (qb, x)
                checked += 1
        assert checked >= 300 and unions >= 100


def _power_set(q) -> list:
    variables = sorted(query_vars(q))
    return [
        frozenset(v for i, v in enumerate(variables) if mask >> i & 1)
        for mask in range(2 ** len(variables))
    ]


def test_every_cache_is_bounded():
    caches = []
    for info in pkgutil.iter_modules(sparqlkb.__path__, "sparqlkb."):
        module = importlib.import_module(info.name)
        caches.extend(
            (info.name, name, obj.cache_parameters()["maxsize"])
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_parameters")
        )
    assert ("sparqlkb.kb", "_tbox", 8) in caches
    # both keep the ontologies that requests re-parse
    assert ("sparqlkb.chase", "saturate", 8) in caches
    assert [c for c in caches if c[2] is None] == []


def test_a_node_hashes_without_hashing_its_children(monkeypatch):
    """Every node stores its hash when it is built, so a cache keyed by a
    query hashes one node, not the tree."""
    q = parse_query(join_chain(200))
    assert hash(q) == hash((q.left, q.right))
    calls = []
    for cls in (JoinQ, TriplePattern):
        monkeypatch.setattr(cls, "__hash__", lambda node, h=cls.__hash__: calls.append(node) or h(node))
    hash(q)
    assert calls == [q]


def test_a_node_pickles_across_processes(tmp_path):
    """The stored hash is of strings, whose hashes differ between
    processes, so a node is rebuilt through its constructor when loaded."""
    text = "UNION(OPT(A(?x), r(?x,?y)), SELECT{x}(JOIN(B(?x), s(?x, c))))"
    q = parse_query(text)
    loaded = pickle.loads(pickle.dumps(q))
    assert loaded == q and hash(loaded) == hash(q)
    (tmp_path / "q.pickle").write_bytes(pickle.dumps(q))
    check = (
        "import pickle, sys\n"
        "from sparqlkb.query import parse_query\n"
        "q = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "print(q == parse_query(sys.argv[2]), q in {parse_query(sys.argv[2])})\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", check, str(tmp_path / "q.pickle"), text],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "True True\n"
