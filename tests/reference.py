"""Test-only references: the answer algebra by its definitions, on
SolutionMappings, and the evaluator and six semantics built on it, as the
engine computed them before it ran on slot rows.  Join and difference check
every pair of rows, so nothing here shares the engine's hash partition.

`materialized` is the engine's own evaluation over the materialized chase,
as it ran before it read the chase on demand.  `print_mappings` is `eval`'s
printer as it ran before it printed slot rows: over SolutionMappings, in
`sort_mappings` order.

`closure_tbox` saturates a TBox into pair closures by the naive fixpoint, and
`closure_type` reads an element's type off them, for comparison with the
engine's reachability lookups.

`token_parse_kb` is `parse_kb` as it ran before it scanned the ABox text:
every statement through `_Tokens`, with the ABox read off the token list.

`check_requirement` is the requirement check as it ran on SolutionMappings,
before it read slot rows, and `brute_force_cq_matches` enumerates a UCQ's
total matches by backtracking, independent of the compositional evaluator."""

import json
from typing import NamedTuple
from unittest import mock

import sparqlkb.semantics
from sparqlkb.chase import chase, default_bound
from sparqlkb.errors import QueryShapeError
from sparqlkb.graph import Graph, evaluate
from sparqlkb.kb import (
    _TOKEN_RE,
    BasicConcept,
    ConceptDisjointness,
    ConceptInclusion,
    KnowledgeBase,
    RoleExpr,
    RoleInclusion,
    TBoxAxiom,
    Var,
    _encoded,
    _parse_side,
    _read_fact,
    _Tokens,
    active_domain,
    exists,
)
from sparqlkb.harness import CheckReport
from sparqlkb.mappings import SolutionMapping, extends
from sparqlkb.query import (
    JoinQ,
    OptQ,
    Select,
    TriplePattern,
    UnionQ,
    branch,
    is_admissible,
    is_union_free,
    max_admissible_subsets,
    query_vars,
    union_operands,
)
from sparqlkb.semantics import is_ucq_shape


def restrict(w, xs):
    """ω|_X: the bindings of ω whose variable lies in X."""
    return SolutionMapping(tuple(p for p in w.bindings if p[0] in xs))


def restrict_range(w, bs):
    """ω‖_B: the bindings of ω whose value lies in B."""
    return SolutionMapping(tuple(p for p in w.bindings if p[1] in bs))


def merge(w1, w2):
    """ω1 ∪ ω2, for compatible ω1 and ω2."""
    return SolutionMapping.of(w1.bindings + w2.bindings)


def _with_bindings(omega):
    """Each mapping of Ω with its set of bindings and its domain, by name.
    Two mappings are compatible when the union of their bindings binds no
    variable twice, so when it has as many pairs as their domains have
    variables."""
    return [
        (w, frozenset((v.name, t.name) for v, t in w.bindings), {v.name for v, _ in w.bindings})
        for w in omega
    ]


def nested_loop_join(omega1, omega2):
    """Ω1 ⋈ Ω2 by checking every pair of rows."""
    right = _with_bindings(omega2)
    return frozenset(
        merge(w1, w2)
        for w1, p1, d1 in _with_bindings(omega1)
        for w2, p2, d2 in right
        if len(p1 | p2) == len(d1 | d2)
    )


def nested_loop_diff(omega1, omega2):
    """Ω1 ∖ Ω2 by checking every pair of rows."""
    right = _with_bindings(omega2)
    return frozenset(
        w1
        for w1, p1, d1 in _with_bindings(omega1)
        if not any(len(p1 | p2) == len(d1 | d2) for _, p2, d2 in right)
    )


def project(omega, xs):
    """π_X(Ω)."""
    return frozenset(restrict(w, xs) for w in omega)


def restrict_filter(omega, bs):
    """Ω ▷ B: the mappings whose values all lie in B."""
    return frozenset(w for w in omega if all(t in bs for _, t in w.bindings))


def restrict_project(omega, bs):
    """Ω ▶ B: each mapping restricted to its bindings with values in B."""
    return frozenset(restrict_range(w, bs) for w in omega)


def otimes(omega, family):
    """Ω ⊗ 𝒳: each ω restricted to every maximal X ∈ 𝒳 with X ⊆ dom(ω)."""
    return frozenset(
        restrict(w, x)
        for w in omega
        for x in family
        if x <= w.domain and not any(x < y <= w.domain for y in family)
    )


def _match_pattern(tp, g):
    out = set()
    for atom in (a for a in g.atoms if a.predicate == tp.predicate):
        if len(atom.args) != len(tp.args):
            continue
        bindings = {}
        ok = True
        for pat_arg, term in zip(tp.args, atom.args):
            if isinstance(pat_arg, Var):
                if bindings.setdefault(pat_arg, term) != term:
                    ok = False
                    break
            elif pat_arg != term:
                ok = False
                break
        if ok:
            out.add(SolutionMapping.of(bindings))
    return frozenset(out)


def sparql_ans(q, g):
    """Compositional answers over a plain graph, on SolutionMappings."""
    if isinstance(q, TriplePattern):
        return _match_pattern(q, g)
    if isinstance(q, UnionQ):
        return sparql_ans(q.left, g) | sparql_ans(q.right, g)
    if isinstance(q, JoinQ):
        return nested_loop_join(sparql_ans(q.left, g), sparql_ans(q.right, g))
    if isinstance(q, OptQ):
        left = sparql_ans(q.left, g)
        right = sparql_ans(q.right, g)
        return nested_loop_join(left, right) | nested_loop_diff(left, right)
    return project(sparql_ans(q.body, g), q.vars)


def _canonical(q, kb):
    return sparql_ans(q, chase(kb, default_bound(kb, q)).graph)


def plain_ans(q, kb):
    return sparql_ans(q, Graph(kb.abox))


def cert_ans_ucq(q, kb):
    if not is_ucq_shape(q):
        raise QueryShapeError("certain-answer semantics requires a UCQ-shaped query")
    return can_ans(q, kb)


def er_ans(q, kb):
    return sparql_ans(q, chase(kb, 0).graph)


def can_ans(q, kb):
    return restrict_filter(_canonical(q, kb), active_domain(kb))


def rest_can_ans(q, kb):
    return restrict_project(_canonical(q, kb), active_domain(kb))


def m_can_ans(q, kb):
    g = chase(kb, default_bound(kb, q)).graph
    adom = active_domain(kb)
    full = sparql_ans(q, g)
    out = set()
    for qb in branch(q):
        answers = full if qb == q else full & sparql_ans(qb, g)
        restricted = restrict_project(answers, adom)
        family = frozenset().union(
            *(max_admissible_subsets(qb, d) for d in {w.domain for w in restricted})
        )
        out.update(otimes(restricted, family))
    return frozenset(out)


def m_can_ans_sjo(q, kb):
    if not is_union_free(q):
        raise QueryShapeError("SJO semantics requires a UNION-free query")
    return m_can_ans(q, kb)


SEMANTICS = {
    "plain": plain_ans,
    "certain-ucq": cert_ans_ucq,
    "regime": er_ans,
    "canonical": can_ans,
    "restricted": rest_can_ans,
    "mcan": m_can_ans,
    "mcan-sjo": m_can_ans_sjo,
}


# --- requirement checks on SolutionMappings ----------------------------------


def _try_semantics(name, q, kb):
    """SEMANTICS[name](q, kb) of the engine's library functions, or None
    where it rejects q's shape; evaluated on every call."""
    try:
        return sparqlkb.semantics.SEMANTICS[name](q, kb)
    except QueryShapeError:
        return None


def check_requirement(req_id, semantics_name, q, kb, instance=""):
    """`harness.check_requirement` as it ran on SolutionMappings: every
    answer set through the library functions, and requirement 3 by a
    pairwise `extends` test of each left-operand answer against every
    answer."""
    if req_id not in range(1, 6):
        raise ValueError(f"requirement id must be in 1..5, got {req_id}")
    answers = _try_semantics(semantics_name, q, kb)
    bad = None if answers is None else _offending(req_id, semantics_name, q, kb, answers)
    if bad is None:
        return CheckReport(req_id, semantics_name, instance, "not-applicable")
    counterexamples = tuple(sorted(bad, key=lambda w: w.bindings))
    verdict = "fail" if counterexamples else "pass"
    return CheckReport(req_id, semantics_name, instance, verdict, counterexamples)


def _offending(req_id, name, q, kb, answers):
    """The answers that break requirement `req_id`, or None where it does not
    apply.  1 and 2: the symmetric difference with the certain answers (UCQs)
    or the plain answers (empty TBox).  3: the answers of an OPT's left operand
    that no answer extends.  4: the answers whose domain is not admissible.
    5: the answers of a UNION that one operand does not give and whose domain
    the other does not admit."""
    if req_id == 1:
        # certain-ucq rejects exactly the queries that are not UCQ-shaped
        certain = _try_semantics("certain-ucq", q, kb)
        return None if certain is None else answers ^ certain
    if req_id == 2:
        return None if kb.tbox else answers ^ _try_semantics("plain", q, kb)
    if req_id == 4:
        return {w for w in answers if not is_admissible(q, w.domain)}
    if req_id == 3:
        left = _try_semantics(name, q.left, kb) if isinstance(q, OptQ) else None
        return None if left is None else {
            w for w in left if not any(extends(w, w2) for w2 in answers)
        }
    if not isinstance(q, UnionQ):
        return None
    a1 = _try_semantics(name, q.left, kb)
    a2 = _try_semantics(name, q.right, kb)
    if a1 is None or a2 is None:
        return None
    return {
        w for w in answers
        if (w not in a2 and not is_admissible(q.left, w.domain))
        or (w not in a1 and not is_admissible(q.right, w.domain))
    }


def brute_force_cq_matches(cq, g):
    """Total-match enumeration for UCQ-shaped queries, by backtracking.

    Enumerates total functions from the body variables to graph terms that
    satisfy every pattern, then projects onto the distinguished variables.
    Independent of the compositional evaluator.
    """
    if not is_ucq_shape(cq):
        raise QueryShapeError("oracle requires a UCQ-shaped query")

    out = set()
    for conj in union_operands(cq):
        if isinstance(conj, Select):
            distinguished = conj.vars
            body = conj.body
        else:
            distinguished = query_vars(conj)
            body = conj
        patterns = []
        nodes = [body]
        while nodes:
            node = nodes.pop()
            if isinstance(node, TriplePattern):
                patterns.append(node)
            else:
                nodes.extend((node.left, node.right))
        patterns.sort(key=lambda p: (p.predicate, str(p.args)))

        def backtrack(idx, rho):
            if idx == len(patterns):
                out.add(SolutionMapping.of({v: rho[v] for v in distinguished}))
                return
            tp = patterns[idx]
            for atom in (a for a in g.atoms if a.predicate == tp.predicate):
                if len(atom.args) != len(tp.args):
                    continue
                extension = {}
                ok = True
                for pat_arg, term in zip(tp.args, atom.args):
                    if isinstance(pat_arg, Var):
                        bound = rho.get(pat_arg, extension.get(pat_arg))
                        if bound is None:
                            extension[pat_arg] = term
                        elif bound != term:
                            ok = False
                            break
                    elif pat_arg != term:
                        ok = False
                        break
                if ok:
                    rho.update(extension)
                    backtrack(idx + 1, rho)
                    for v in extension:
                        del rho[v]

        backtrack(0, {})
    return frozenset(out)


def materialized(fn, q, kb):
    """fn(q, kb), for one of the engine's semantics, with every chase it
    reads evaluated over its materialized index,
    `evaluate(q, chase(kb, b).graph.index)`, rather than walked on demand,
    and by `evaluate` itself: it reads no rows that the engine memoized.
    Also returns the bounds of the chases it read."""
    bounds = []

    def materialized_chase(kb, bound):
        bounds.append(bound)
        return chase(kb, bound).graph.index

    with mock.patch.object(sparqlkb.semantics, "chase", materialized_chase), \
            mock.patch.object(sparqlkb.semantics, "evaluate_once", evaluate):
        return fn(q, kb), bounds


def sort_mappings(omega):
    """Deterministic order: lexicographic over the sorted binding pairs
    (keyed on the fields that order Var and Term, which compare faster)."""
    return sorted(omega, key=lambda w: [(v.name, t.kind, t.name) for v, t in w.bindings])


def print_mappings(omega, fmt, out):
    """Ω printed as `eval` prints it, in `fmt` ("tsv" or "json")."""
    ordered = sort_mappings(omega)
    if fmt == "json":
        payload = [
            {f"?{v.name}": str(t) for v, t in w.bindings} for w in ordered
        ]
        print(json.dumps(payload, sort_keys=True), file=out)
        return
    out.write("".join(
        "\t".join(f"?{v.name}={t.name}" for v, t in w.bindings) + "\n" for w in ordered
    ))


def fixpoint_closure(pairs, domain):
    """The reflexive-transitive closure of pairs over domain by the naive
    fixpoint."""
    closure = set(pairs) | {(x, x) for x in domain}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


class ClosureTBox(NamedTuple):
    """A TBox's entailments as sets of pairs: (r, s) when r ⊑* s,
    (b, c) when b ⊑* c, and (b1, b2) when b1 and b2 are disjoint."""

    role_names: frozenset
    role_closure: frozenset
    concept_closure: frozenset
    disjointness_closure: frozenset

    def supers(self):
        """Each role -> its super-roles, in sorted order."""
        out = {}
        for r, s in sorted(self.role_closure):
            out[r] = out.get(r, ()) + (s,)
        return out

    def implied(self):
        """Each basic concept -> the concepts it implies."""
        out = {}
        for b, c in self.concept_closure:
            out.setdefault(b, set()).add(c)
        return {b: frozenset(cs) for b, cs in out.items()}


def closure_tbox(tbox):
    """The closure rules' least fixpoint over the TBox's signature: the role
    inclusions and their inverses, closed; the concept inclusions and
    ∃r ⊑ ∃s for every entailed r ⊑ s, closed; and b1, b2 disjoint when they
    imply the two sides of a declared disjointness, in either order."""
    role_names = frozenset(
        {r.name for ax in tbox if isinstance(ax, RoleInclusion) for r in (ax.lhs, ax.rhs)}
        | {
            c.name
            for ax in tbox
            if not isinstance(ax, RoleInclusion)
            for c in (ax.lhs, ax.rhs)
            if c.kind != "atomic"
        }
    )
    roles = {RoleExpr(n, inverse) for n in role_names for inverse in (False, True)}
    role_closure = fixpoint_closure(
        {
            pair
            for ax in tbox
            if isinstance(ax, RoleInclusion)
            for pair in ((ax.lhs, ax.rhs), (ax.lhs.inverted(), ax.rhs.inverted()))
        },
        roles,
    )
    concepts = {exists(r) for r in roles} | {
        c
        for ax in tbox
        if not isinstance(ax, RoleInclusion)
        for c in (ax.lhs, ax.rhs)
        if c.kind == "atomic"
    }
    concept_closure = fixpoint_closure(
        {(ax.lhs, ax.rhs) for ax in tbox if isinstance(ax, ConceptInclusion)}
        | {(exists(r), exists(s)) for r, s in role_closure},
        concepts,
    )
    declared = {
        pair
        for ax in tbox
        if isinstance(ax, ConceptDisjointness)
        for pair in ((ax.lhs, ax.rhs), (ax.rhs, ax.lhs))
    }
    disjointness_closure = {
        (b1, b2)
        for b1, d1 in concept_closure
        for b2, d2 in concept_closure
        if (d1, d2) in declared
    }
    return ClosureTBox(
        role_names,
        frozenset(role_closure),
        frozenset(concept_closure),
        frozenset(disjointness_closure),
    )


def closure_type(satisfied, ref):
    """An element's type read off the pair closures of `ref`: the names of
    its atomic concepts, the roles it fires (of its unsatisfied existentials
    the sub-role-minimal ones, and of equivalent ones the first in sorted
    order) and whether it holds a disjoint pair."""
    entailed = set(satisfied) | {c for b, c in ref.concept_closure if b in satisfied}
    unsatisfied = sorted(
        b.role for b in entailed if b.kind != "atomic" and b not in satisfied
    )
    below = ref.role_closure
    fire = tuple(
        r
        for r in unsatisfied
        if not any(
            s != r and (s, r) in below and (s < r or (r, s) not in below)
            for s in unsatisfied
        )
    )
    atomic = tuple(sorted(b.name for b in entailed if b.kind == "atomic"))
    clash = any((b1, b2) in ref.disjointness_closure for b1 in entailed for b2 in entailed)
    return atomic, fire, clash


def _parse_facts(toks: _Tokens) -> tuple[dict[str, set], dict[str, set]]:
    """The ABox statements by name: the unary and the binary facts'
    argument tuples per predicate."""
    tokens, unary, binary = toks.tokens, {}, {}
    i, n = toks.index, len(toks.tokens)
    while i < n:
        # The two shapes of a well-formed fact are read off the token list;
        # anything else goes through the checking path, which raises.  A
        # predicate is a name (a letter first), an individual a name or
        # number (a letter or digit first); neither can be reserved here,
        # since no ':' follows.
        p = tokens[i]
        if p[0].isalpha() and i + 4 < n and tokens[i + 1] == "(":
            a = tokens[i + 2]
            if a[0].isalnum():
                if tokens[i + 3] == ")" and tokens[i + 4] == ".":
                    unary.setdefault(p, set()).add((a,))
                    i += 5
                    continue
                b = tokens[i + 4]
                if (
                    tokens[i + 3] == "," and b[0].isalnum() and i + 6 < n
                    and tokens[i + 5] == ")" and tokens[i + 6] == "."
                ):
                    binary.setdefault(p, set()).add((a, b))
                    i += 7
                    continue
        toks.index = i
        name, args = _read_fact(toks)
        (unary if len(args) == 1 else binary).setdefault(name, set()).add(args)
        i = toks.index
    toks.index = i
    return unary, binary


def token_parse_kb(text: str) -> KnowledgeBase:
    """Parse the KB grammar; raises ParseError with line/column on bad input."""
    toks = _Tokens(text, _TOKEN_RE)
    toks.next("TBOX")
    toks.next(":")

    # First pass: read axioms with bare names left unresolved.
    raw_axioms: list[tuple] = []
    while not (toks.at("ABOX") or toks.peek() is None):
        lhs = _parse_side(toks)
        toks.next("[=")
        at = toks.index - 1
        negated = False
        if toks.at("not"):
            toks.next()
            negated = True
        rhs = _parse_side(toks)
        raw_axioms.append((lhs, negated, rhs, at))
        toks.next(".")
    toks.next("ABOX")
    toks.next(":")
    start = toks.index
    unary, binary = _parse_facts(toks)

    # Vocabulary inference for the ambiguous bare-name inclusions, decided
    # before any axiom is built, so that the order of the axioms does not
    # matter.  Role evidence (binary facts, names under exists/inv) spreads to
    # a fixpoint across the bare inclusions, those with no `not` and no basic
    # concept side.  A name with concept evidence takes none: the inclusion
    # that links it to a role reports the clash.
    roles: set[str] = set(binary)
    concepts: set[str] = set(unary)
    linked: dict[str, list[str]] = {}
    for lhs, negated, rhs, _ in raw_axioms:
        roles.update(s.name for s in (lhs, rhs) if not isinstance(s, str))
        if negated or isinstance(lhs, BasicConcept) or isinstance(rhs, BasicConcept):
            concepts.update(s for s in (lhs, rhs) if isinstance(s, str))
        else:
            a, b = (s if isinstance(s, str) else s.name for s in (lhs, rhs))
            linked.setdefault(a, []).append(b)
            linked.setdefault(b, []).append(a)
    stack = list(roles)
    while stack:
        for name in linked.pop(stack.pop(), ()):
            if name not in roles and name not in concepts:
                roles.add(name)
                stack.append(name)

    axioms: list[TBoxAxiom] = []
    for lhs, negated, rhs, at in raw_axioms:
        role_axiom = any(
            isinstance(s, RoleExpr) or (isinstance(s, str) and s in roles)
            for s in (lhs, rhs)
        )
        if role_axiom and not negated:
            sides = []
            for s in (lhs, rhs):
                if isinstance(s, str):
                    if s in concepts:
                        toks.fail(f"{s!r} used both as concept and role", at)
                    sides.append(RoleExpr(s))
                elif isinstance(s, RoleExpr):
                    sides.append(s)
                else:
                    toks.fail("role inclusion cannot mix concepts and roles", at)
            axioms.append(RoleInclusion(sides[0], sides[1]))
        else:
            sides = []
            for s in (lhs, rhs):
                if isinstance(s, str):
                    sides.append(BasicConcept("atomic", s))
                elif isinstance(s, BasicConcept):
                    sides.append(s)
                else:
                    toks.fail("disjointness requires basic concepts on both sides", at)
            if negated:
                if sides[0] == sides[1]:
                    toks.fail("disjointness requires distinct concepts", at)
                axioms.append(ConceptDisjointness(sides[0], sides[1]))
            else:
                axioms.append(ConceptInclusion(sides[0], sides[1]))

    # A name is used with one arity, as a role or as a concept; the first
    # fact that breaks this is reported.
    if unary.keys() & roles or binary.keys() & concepts:
        toks.index = start
        while True:
            at = toks.index
            name, args = _read_fact(toks)
            if name in roles and len(args) == 1:
                toks.fail(f"role {name!r} used with 1 argument", at)
            if name in concepts and len(args) == 2:
                toks.fail(f"concept {name!r} used with 2 arguments", at)
    return KnowledgeBase.of_encoded(frozenset(axioms), _encoded(unary | binary))
