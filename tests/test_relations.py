"""Unit and property tests for the relation algebra (repro.core.relations)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relations import Relation, RelationBuilder

pairs_strategy = st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20
)

chain_strategy = st.lists(
    st.integers(0, 15), min_size=0, max_size=8, unique=True
)


def rel(*pairs):
    return Relation(pairs)


class TestConstruction:
    def test_empty_is_falsy(self):
        assert not Relation.empty()
        assert len(Relation.empty()) == 0

    def test_empty_is_singleton(self):
        assert Relation.empty() is Relation.empty()

    def test_identity(self):
        assert Relation.identity([1, 2]).pairs == frozenset({(1, 1), (2, 2)})

    def test_cartesian(self):
        r = Relation.cartesian([1, 2], [3])
        assert r.pairs == frozenset({(1, 3), (2, 3)})

    def test_from_order_is_transitive(self):
        r = Relation.from_order([1, 2, 3])
        assert (1, 3) in r
        assert len(r) == 3

    def test_from_successive_is_adjacent_only(self):
        r = Relation.from_successive([1, 2, 3])
        assert (1, 3) not in r
        assert len(r) == 2

    def test_duplicate_pairs_collapse(self):
        assert len(Relation([(1, 2), (1, 2)])) == 1


class TestOperators:
    def test_union(self):
        assert (rel((1, 2)) | rel((2, 3))).pairs == frozenset({(1, 2), (2, 3)})

    def test_intersection(self):
        assert (rel((1, 2), (2, 3)) & rel((2, 3))).pairs == frozenset({(2, 3)})

    def test_difference(self):
        assert (rel((1, 2), (2, 3)) - rel((2, 3))).pairs == frozenset({(1, 2)})

    def test_compose(self):
        assert rel((1, 2)).compose(rel((2, 3))).pairs == frozenset({(1, 3)})

    def test_compose_no_match(self):
        assert rel((1, 2)).compose(rel((3, 4))).is_empty()

    def test_seq_chains(self):
        r = rel((1, 2)).seq(rel((2, 3)), rel((3, 4)))
        assert r.pairs == frozenset({(1, 4)})

    def test_inverse(self):
        assert rel((1, 2)).inverse().pairs == frozenset({(2, 1)})

    def test_transitive_closure(self):
        r = rel((1, 2), (2, 3)).transitive_closure()
        assert (1, 3) in r

    def test_reflexive_transitive_closure_adds_identity(self):
        r = rel((1, 2)).reflexive_transitive_closure([1, 2, 3])
        assert (3, 3) in r and (1, 2) in r and (1, 1) in r

    def test_optional(self):
        r = rel((1, 2)).optional([1, 2])
        assert (1, 1) in r and (1, 2) in r

    def test_restrict(self):
        r = rel((1, 2), (2, 3)).restrict([1, 2])
        assert r.pairs == frozenset({(1, 2)})

    def test_restrict_domain_range(self):
        r = rel((1, 2), (2, 3))
        assert r.restrict_domain([1]).pairs == frozenset({(1, 2)})
        assert r.restrict_range([3]).pairs == frozenset({(2, 3)})

    def test_domain_codomain_field(self):
        r = rel((1, 2), (2, 3))
        assert r.domain() == frozenset({1, 2})
        assert r.codomain() == frozenset({2, 3})
        assert r.field() == frozenset({1, 2, 3})

    def test_filter(self):
        r = rel((1, 2), (2, 1)).filter(lambda a, b: a < b)
        assert r.pairs == frozenset({(1, 2)})


class TestChecks:
    def test_acyclic_empty(self):
        assert Relation.empty().is_acyclic()

    def test_acyclic_chain(self):
        assert rel((1, 2), (2, 3)).is_acyclic()

    def test_cycle_detected(self):
        assert not rel((1, 2), (2, 1)).is_acyclic()

    def test_self_loop_is_cycle(self):
        assert not rel((1, 1)).is_acyclic()

    def test_irreflexive(self):
        assert rel((1, 2)).is_irreflexive()
        assert not rel((1, 1)).is_irreflexive()

    def test_is_total_over(self):
        assert rel((1, 2), (1, 3), (2, 3)).is_total_over([1, 2, 3])
        assert not rel((1, 2)).is_total_over([1, 2, 3])

    def test_topological_order(self):
        order = rel((1, 2), (2, 3)).topological_order()
        assert order.index(1) < order.index(2) < order.index(3)

    def test_topological_order_cycle_raises(self):
        with pytest.raises(ValueError):
            rel((1, 2), (2, 1)).topological_order()


class TestProperties:
    @given(pairs_strategy)
    def test_closure_is_idempotent(self, pairs):
        r = Relation(pairs).transitive_closure()
        assert r.transitive_closure() == r

    @given(pairs_strategy)
    def test_closure_contains_original(self, pairs):
        r = Relation(pairs)
        assert r.pairs <= r.transitive_closure().pairs

    @given(pairs_strategy)
    def test_closure_is_transitive(self, pairs):
        closure = Relation(pairs).transitive_closure()
        for a, b in closure:
            for c, d in closure:
                if b == c:
                    assert (a, d) in closure

    @given(pairs_strategy, pairs_strategy)
    def test_union_commutes(self, p1, p2):
        assert Relation(p1) | Relation(p2) == Relation(p2) | Relation(p1)

    @given(pairs_strategy, pairs_strategy)
    def test_intersection_subset_of_union(self, p1, p2):
        r1, r2 = Relation(p1), Relation(p2)
        assert (r1 & r2).pairs <= (r1 | r2).pairs

    @given(pairs_strategy)
    def test_double_inverse_is_identity(self, pairs):
        r = Relation(pairs)
        assert r.inverse().inverse() == r

    @given(pairs_strategy, pairs_strategy)
    def test_compose_inverse_antidistributes(self, p1, p2):
        r1, r2 = Relation(p1), Relation(p2)
        assert r1.compose(r2).inverse() == r2.inverse().compose(r1.inverse())

    @given(pairs_strategy)
    def test_acyclic_iff_topological_order_exists(self, pairs):
        r = Relation(pairs)
        if r.is_acyclic():
            order = r.topological_order()
            position = {n: i for i, n in enumerate(order)}
            assert all(position[a] < position[b] for a, b in r)
        else:
            with pytest.raises(ValueError):
                r.topological_order()

    @given(pairs_strategy)
    def test_cycle_implies_closure_reflexive_somewhere(self, pairs):
        r = Relation(pairs)
        closure = r.transitive_closure()
        assert r.is_acyclic() == closure.is_irreflexive()

    @given(pairs_strategy)
    def test_dfs_acyclicity_agrees_with_closure_based(self, pairs):
        """The DFS is_acyclic must agree with the definitional check:
        no (a, a) in the transitive closure."""
        r = Relation(pairs)
        closure_based = all(
            (a, a) not in r.transitive_closure() for a in r.field()
        )
        assert r.is_acyclic() == closure_based

    @given(pairs_strategy, pairs_strategy, pairs_strategy)
    def test_compose_is_associative(self, p1, p2, p3):
        r1, r2, r3 = Relation(p1), Relation(p2), Relation(p3)
        assert r1.compose(r2).compose(r3) == r1.compose(r2.compose(r3))

    @given(pairs_strategy)
    def test_identity_is_compose_neutral(self, pairs):
        r = Relation(pairs)
        ident = Relation.identity(range(8))
        assert r.compose(ident) == r
        assert ident.compose(r) == r

    @given(pairs_strategy, pairs_strategy)
    def test_compose_distributes_over_union(self, p1, p2):
        r1, r2 = Relation(p1), Relation(p2)
        other = Relation([(i, (i + 1) % 8) for i in range(8)])
        assert (r1 | r2).compose(other) == r1.compose(other) | r2.compose(other)

    @given(chain_strategy)
    def test_from_order_is_closure_of_from_successive(self, chain):
        assert (
            Relation.from_successive(chain).transitive_closure()
            == Relation.from_order(chain)
        )

    @given(chain_strategy)
    def test_from_successive_subset_of_from_order(self, chain):
        assert (
            Relation.from_successive(chain).pairs
            <= Relation.from_order(chain).pairs
        )

    @given(chain_strategy)
    def test_from_order_total_and_acyclic(self, chain):
        r = Relation.from_order(chain)
        assert r.is_acyclic()
        assert r.is_total_over(chain)


class TestExtend:
    def test_extend_adds_pairs(self):
        r = rel((1, 2)).extend([(2, 3)])
        assert r.pairs == frozenset({(1, 2), (2, 3)})

    def test_extend_noop_returns_self(self):
        r = rel((1, 2))
        assert r.extend([(1, 2)]) is r
        assert r.extend([]) is r

    @given(pairs_strategy, pairs_strategy)
    def test_extend_equals_union(self, p1, p2):
        assert Relation(p1).extend(p2) == Relation(p1) | Relation(p2)

    @given(pairs_strategy, pairs_strategy)
    def test_extend_reuses_index_correctly(self, p1, p2):
        """Growing via extend (with the successor index pre-warmed) must
        behave identically to a fresh relation in index-consuming ops."""
        base = Relation(p1)
        base.successors()  # warm the index so extend donates it
        grown = base.extend(p2)
        fresh = Relation(set(p1) | set(p2))
        probe = Relation([(i, (i + 3) % 8) for i in range(8)])
        assert grown.compose(probe) == fresh.compose(probe)
        assert grown.is_acyclic() == fresh.is_acyclic()

    @given(pairs_strategy)
    def test_pair_by_pair_growth(self, pairs):
        r = Relation.empty()
        for pair in pairs:
            r = r.extend([pair])
        assert r == Relation(pairs)


class TestRelationBuilder:
    def test_add_and_freeze(self):
        b = RelationBuilder()
        assert b.add(1, 2)
        assert not b.add(1, 2)  # duplicate
        assert b.add(2, 3)
        assert b.freeze() == rel((1, 2), (2, 3))

    def test_add_chain_transitive(self):
        b = RelationBuilder()
        b.add_chain([1, 2, 3])
        assert b.freeze() == Relation.from_order([1, 2, 3])

    def test_add_chain_successive(self):
        b = RelationBuilder()
        b.add_chain([1, 2, 3], transitive=False)
        assert b.freeze() == Relation.from_successive([1, 2, 3])

    def test_has_path(self):
        b = RelationBuilder([(1, 2), (2, 3)])
        assert b.has_path(1, 3)
        assert not b.has_path(3, 1)
        assert b.has_path(1, 1)  # trivially reachable

    def test_would_close_cycle(self):
        b = RelationBuilder([(1, 2), (2, 3)])
        assert b.would_close_cycle(3, 1)
        assert b.would_close_cycle(4, 4)  # self-loop
        assert not b.would_close_cycle(1, 3)

    @given(pairs_strategy)
    def test_freeze_matches_direct_construction(self, pairs):
        b = RelationBuilder(pairs)
        frozen = b.freeze()
        direct = Relation(pairs)
        assert frozen == direct
        probe = Relation([(i, (i + 1) % 8) for i in range(8)])
        assert frozen.compose(probe) == direct.compose(probe)
        assert frozen.is_acyclic() == direct.is_acyclic()


# --------------------------------------------------------------------- #
# Differential property tests: every bitmask kernel op is checked
# against an executable reference semantics over frozensets of pairs.
# Strategies deliberately include empty relations, self-loops and
# non-contiguous event ids (the bit-position-is-event-id encoding must
# not assume dense 0..n-1 universes).
# --------------------------------------------------------------------- #

# sparse ids: gaps, plus ids above one 64-bit word to cross word sizes
sparse_ids = st.sampled_from([0, 1, 2, 3, 5, 11, 40, 67])
sparse_pairs = st.frozensets(
    st.tuples(sparse_ids, sparse_ids), max_size=24
)
sparse_sets = st.frozensets(sparse_ids, max_size=8)


def ref_compose(r, s):
    return frozenset((a, d) for a, b in r for c, d in s if b == c)


def ref_closure(r):
    out = set(r)
    while True:
        new = ref_compose(out, out) | out
        if new == out:
            return frozenset(out)
        out = new


def ref_acyclic(r):
    closure = ref_closure(r)
    return not any(a == b for a, b in closure)


def as_pairs(relation):
    return frozenset(relation)


class TestDifferential:
    """Kernel ops vs. the frozenset-of-pairs reference semantics."""

    @given(sparse_pairs, sparse_pairs)
    def test_union(self, r, s):
        assert as_pairs(Relation(r) | Relation(s)) == r | s

    @given(sparse_pairs, sparse_pairs)
    def test_intersection(self, r, s):
        assert as_pairs(Relation(r) & Relation(s)) == r & s

    @given(sparse_pairs, sparse_pairs)
    def test_difference(self, r, s):
        assert as_pairs(Relation(r) - Relation(s)) == r - s

    @given(sparse_pairs)
    def test_inverse(self, r):
        assert as_pairs(Relation(r).inverse()) == frozenset(
            (b, a) for a, b in r
        )

    @given(sparse_pairs, sparse_pairs)
    def test_compose(self, r, s):
        assert as_pairs(Relation(r).compose(Relation(s))) == ref_compose(r, s)

    @given(sparse_pairs)
    @settings(max_examples=60)
    def test_transitive_closure(self, r):
        assert as_pairs(Relation(r).transitive_closure()) == ref_closure(r)

    @given(sparse_pairs)
    @settings(max_examples=60)
    def test_reflexive_transitive_closure(self, r):
        elems = frozenset(x for pair in r for x in pair)
        expected = ref_closure(r) | frozenset((x, x) for x in elems)
        assert (
            as_pairs(Relation(r).reflexive_transitive_closure(elems))
            == expected
        )

    @given(sparse_pairs)
    def test_optional(self, r):
        elems = frozenset(x for pair in r for x in pair)
        expected = r | frozenset((x, x) for x in elems)
        assert as_pairs(Relation(r).optional(elems)) == expected

    @given(sparse_pairs)
    @settings(max_examples=60)
    def test_is_acyclic(self, r):
        assert Relation(r).is_acyclic() == ref_acyclic(r)

    @given(sparse_pairs)
    def test_is_irreflexive(self, r):
        assert Relation(r).is_irreflexive() == all(a != b for a, b in r)

    @given(sparse_pairs, sparse_sets)
    def test_restrict(self, r, keep):
        expected = frozenset(
            (a, b) for a, b in r if a in keep and b in keep
        )
        assert as_pairs(Relation(r).restrict(keep)) == expected

    @given(sparse_pairs, sparse_sets)
    def test_restrict_domain(self, r, keep):
        expected = frozenset((a, b) for a, b in r if a in keep)
        assert as_pairs(Relation(r).restrict_domain(keep)) == expected

    @given(sparse_pairs, sparse_sets)
    def test_restrict_range(self, r, keep):
        expected = frozenset((a, b) for a, b in r if b in keep)
        assert as_pairs(Relation(r).restrict_range(keep)) == expected

    @given(sparse_pairs)
    def test_domain_codomain_field(self, r):
        relation = Relation(r)
        assert relation.domain() == frozenset(a for a, _ in r)
        assert relation.codomain() == frozenset(b for _, b in r)
        assert relation.field() == frozenset(x for pair in r for x in pair)

    @given(sparse_pairs)
    def test_pairs_len_bool_contains(self, r):
        relation = Relation(r)
        assert relation.pairs == r
        assert len(relation) == len(r)
        assert bool(relation) == bool(r)
        for pair in r:
            assert pair in relation
        assert (99, 98) not in relation

    @given(sparse_pairs)
    def test_successor_mask_matches_pairs(self, r):
        relation = Relation(r)
        for a in relation.domain():
            mask = relation.successor_mask(a)
            succ = frozenset(b for x, b in r if x == a)
            assert frozenset(
                i for i in range(128) if (mask >> i) & 1
            ) == succ

    @given(sparse_sets, sparse_sets)
    def test_cartesian(self, xs, ys):
        expected = frozenset((a, b) for a in xs for b in ys)
        assert as_pairs(Relation.cartesian(xs, ys)) == expected

    @given(sparse_sets)
    def test_identity(self, xs):
        assert as_pairs(Relation.identity(xs)) == frozenset(
            (x, x) for x in xs
        )

    @given(sparse_pairs, sparse_pairs)
    def test_seq_equals_compose(self, r, s):
        assert Relation(r).seq(Relation(s)) == Relation(r).compose(
            Relation(s)
        )

    @given(sparse_pairs)
    def test_equality_and_hash_are_extensional(self, r):
        a = Relation(r)
        b = Relation(sorted(r))  # different construction order
        assert a == b
        assert hash(a) == hash(b)

    def test_negative_event_id_rejected(self):
        with pytest.raises(ValueError):
            Relation([(-1, 0)])


class TestEventUniverse:
    def test_dense_and_sparse(self):
        from repro.core.relations import EventUniverse

        dense = EventUniverse([0, 1, 2])
        assert dense.is_dense()
        sparse = EventUniverse([0, 2, 5])
        assert not sparse.is_dense()
        assert sparse.eids == (0, 2, 5)
        assert sparse.mask == 0b100101

    def test_identity_and_full(self):
        from repro.core.relations import EventUniverse

        uni = EventUniverse([1, 3])
        assert as_pairs(uni.identity()) == frozenset([(1, 1), (3, 3)])
        assert as_pairs(uni.full()) == frozenset(
            (a, b) for a in (1, 3) for b in (1, 3)
        )

    def test_identity_cached_across_instances(self):
        from repro.core.relations import EventUniverse

        a = EventUniverse([0, 1, 4])
        b = EventUniverse([4, 1, 0])
        assert a.identity() is b.identity()
        assert a.full() is b.full()

    def test_mask_roundtrip(self):
        from repro.core.relations import EventUniverse

        uni = EventUniverse([0, 2, 7])
        mask = uni.mask_of([2, 7])
        assert uni.events_of(mask) == frozenset([2, 7])


# --------------------------------------------------------------------- #
# The closure and bracket kernels the cat suffix leans on
# --------------------------------------------------------------------- #
def naive_fixpoint(pairs):
    """``r^+`` one pair at a time: add ``(a, c)`` for every ``(a, b)``,
    ``(b, c)`` until nothing changes."""
    out = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(out):
            for c, d in list(out):
                if b == c and (a, d) not in out:
                    out.add((a, d))
                    changed = True
    return frozenset(out)


def cycle_pairs(ids):
    """Edges of the cycle through ``ids`` (one id: a self-loop)."""
    return frozenset(zip(ids, ids[1:] + ids[:1]))


cycles_strategy = st.lists(
    st.lists(sparse_ids, min_size=1, max_size=5, unique=True), max_size=3
)


class TestWarshallClosure:
    """``transitive_closure`` is a bitset-Warshall pass over the row keys."""

    @given(cycles_strategy, sparse_pairs)
    @settings(max_examples=80)
    def test_matches_naive_fixpoint(self, cycles, extra):
        pairs = frozenset(extra).union(*(cycle_pairs(c) for c in cycles))
        assert as_pairs(Relation(pairs).transitive_closure()) == naive_fixpoint(pairs)

    @pytest.mark.parametrize(
        "pairs",
        [
            {(5, 5)},  # a lone self-loop
            {(67, 3), (3, 40), (40, 67)},  # a cycle over sparse ids
            {(0, 11), (11, 67), (67, 2)},  # a chain across a word boundary
            {(1, 1), (1, 2), (2, 3), (3, 2)},  # self-loop feeding a cycle
        ],
    )
    def test_examples(self, pairs):
        closure = Relation(pairs).transitive_closure()
        assert as_pairs(closure) == naive_fixpoint(pairs)
        assert closure.transitive_closure() == closure

    @given(sparse_pairs)
    def test_does_not_mutate_input(self, pairs):
        relation = Relation(pairs)
        relation.transitive_closure()
        assert as_pairs(relation) == pairs


class TestBracketMasking:
    """``[S] ; r`` and ``r ; [S]`` as row masks equal the compositions
    with ``Relation.identity`` they replace."""

    @given(sparse_pairs, sparse_sets)
    def test_mask_domain_is_identity_compose(self, r, keep):
        relation = Relation(r)
        mask = sum(1 << e for e in keep)
        assert relation.mask_domain(mask) == Relation.identity(keep).compose(relation)

    @given(sparse_pairs, sparse_sets)
    def test_mask_range_is_compose_identity(self, r, keep):
        relation = Relation(r)
        mask = sum(1 << e for e in keep)
        assert relation.mask_range(mask) == relation.compose(Relation.identity(keep))

    @given(sparse_pairs, sparse_pairs, sparse_sets, sparse_sets, sparse_sets)
    @settings(max_examples=60)
    def test_compiled_chain_matches_binary_composition(self, r, s, a, b, c):
        """The cat compiler's ``;``-chain kernel (leading, inner and
        trailing brackets) against the plain binary composition."""
        from repro.cat.interp import Binary, Bracket, CatEnv, Chain, Name, _compile_expr

        env = CatEnv(
            bindings={"r": Relation(r), "s": Relation(s), "A": a, "B": b, "C": c},
            universe=frozenset(range(68)),
            po=Relation.empty(),
        )
        operands = (
            Bracket(Name("A")), Bracket(Name("B")), Name("r"),
            Bracket(Name("C")), Name("s"), Bracket(Name("A")),
        )
        nested = operands[0]
        for operand in operands[1:]:
            nested = Binary(";", nested, operand)
        chain = _compile_expr(Chain(";", operands))(env)
        assert chain == _compile_expr(nested)(env)
        brackets = Chain(";", (Bracket(Name("A")), Bracket(Name("B"))))
        assert _compile_expr(brackets)(env) == Relation.identity(a & b)
