"""Tests for constraint sets, the constraint map and the relational solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import (ComparisonOp, Constraint, ConstraintMap, ConstraintSet,
                               Location, RelationalConstraint, from_constraints,
                               relational_conflict)
from strategies import _LOCATIONS, _constraint_map


# --------------------------------------------------------------------- Location

class TestLocation:
    def test_equality_and_hash(self):
        assert Location.register(3) == Location.register(3)
        assert Location.register(3) != Location.register(4)
        assert Location.register(3) != Location.memory(3)
        assert len({Location.register(3), Location.register(3)}) == 1

    def test_repr(self):
        assert repr(Location.register(5)) == "$(5)"
        assert repr(Location.memory(1000)) == "*(1000)"
        assert repr(Location.pc()) == "PC"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Location("weird", 0)


# ----------------------------------------------------------------- ComparisonOp

class TestComparisonOp:
    def test_negations_are_involutions(self):
        for op in ComparisonOp:
            assert op.negate().negate() is op

    def test_flip_swaps_operands(self):
        for op in ComparisonOp:
            for left, right in [(1, 2), (2, 1), (3, 3)]:
                assert op.evaluate(left, right) == op.flip().evaluate(right, left)

    def test_evaluate(self):
        assert ComparisonOp.GT.evaluate(3, 2)
        assert not ComparisonOp.GT.evaluate(2, 3)
        assert ComparisonOp.LE.evaluate(2, 2)
        assert ComparisonOp.NE.evaluate(1, 2)

    def test_from_symbol(self):
        assert ComparisonOp.from_symbol("==") is ComparisonOp.EQ
        assert ComparisonOp.from_symbol("=/=") is ComparisonOp.NE
        assert ComparisonOp.from_symbol("!=") is ComparisonOp.NE
        with pytest.raises(ValueError):
            ComparisonOp.from_symbol("~")


# ---------------------------------------------------------------- ConstraintSet

class TestConstraintSet:
    def test_paper_example(self):
        # notGreaterThan(5) notEqualTo(2) greaterThan(0):
        # any integer in (0, 5] except 2.
        cset = from_constraints([
            Constraint(ComparisonOp.LE, 5),
            Constraint(ComparisonOp.NE, 2),
            Constraint(ComparisonOp.GT, 0),
        ])
        assert cset.satisfiable()
        assert cset.admits(1)
        assert cset.admits(5)
        assert not cset.admits(0)
        assert not cset.admits(2)
        assert not cset.admits(6)

    def test_contradictory_bounds_unsatisfiable(self):
        cset = from_constraints([Constraint(ComparisonOp.GT, 10),
                                 Constraint(ComparisonOp.LT, 5)])
        assert not cset.satisfiable()
        assert cset.witness() is None

    def test_equality_folds(self):
        cset = from_constraints([Constraint(ComparisonOp.GE, 3),
                                 Constraint(ComparisonOp.LE, 3)])
        assert cset.satisfiable()
        assert cset.witness() == 3
        assert cset.admits(3)
        assert not cset.admits(4)

    def test_exclusions_can_exhaust_range(self):
        cset = from_constraints([Constraint(ComparisonOp.GE, 1),
                                 Constraint(ComparisonOp.LE, 2),
                                 Constraint(ComparisonOp.NE, 1),
                                 Constraint(ComparisonOp.NE, 2)])
        assert not cset.satisfiable()

    def test_conflicting_equalities(self):
        cset = from_constraints([Constraint(ComparisonOp.EQ, 3),
                                 Constraint(ComparisonOp.EQ, 4)])
        assert not cset.satisfiable()

    def test_equality_vs_exclusion(self):
        cset = from_constraints([Constraint(ComparisonOp.EQ, 3),
                                 Constraint(ComparisonOp.NE, 3)])
        assert not cset.satisfiable()

    def test_entails(self):
        cset = from_constraints([Constraint(ComparisonOp.GT, 4)])
        assert cset.entails(Constraint(ComparisonOp.GT, 3))
        assert cset.entails(Constraint(ComparisonOp.GE, 5))
        assert cset.entails(Constraint(ComparisonOp.NE, 0))
        assert not cset.entails(Constraint(ComparisonOp.GT, 10))
        assert not cset.entails(Constraint(ComparisonOp.LT, 10))

    def test_refutes(self):
        cset = from_constraints([Constraint(ComparisonOp.GT, 4)])
        assert cset.refutes(Constraint(ComparisonOp.LT, 0))
        assert not cset.refutes(Constraint(ComparisonOp.LT, 100))

    def test_unconstrained_set(self):
        cset = ConstraintSet()
        assert cset.is_unconstrained()
        assert cset.satisfiable()
        assert cset.admits(-(10**9))
        assert cset.witness() is not None

    def test_add_is_persistent(self):
        base = ConstraintSet()
        extended = base.add(Constraint(ComparisonOp.GT, 0))
        assert base.is_unconstrained()
        assert not extended.is_unconstrained()

    def test_to_constraints_round_trip(self):
        original = from_constraints([Constraint(ComparisonOp.GT, 0),
                                     Constraint(ComparisonOp.LE, 9),
                                     Constraint(ComparisonOp.NE, 4)])
        rebuilt = from_constraints(original.to_constraints())
        for value in range(-2, 12):
            assert original.admits(value) == rebuilt.admits(value)


@st.composite
def constraint_lists(draw):
    ops = st.sampled_from(list(ComparisonOp))
    constants = st.integers(min_value=-20, max_value=20)
    size = draw(st.integers(min_value=0, max_value=6))
    return [Constraint(draw(ops), draw(constants)) for _ in range(size)]


class TestConstraintSetProperties:
    @given(constraint_lists())
    @settings(max_examples=200, deadline=None)
    def test_witness_satisfies_all_constraints(self, constraints):
        cset = from_constraints(constraints)
        witness = cset.witness()
        if cset.satisfiable():
            assert witness is not None
            assert all(c.holds_for(witness) for c in constraints)
        else:
            assert witness is None

    @given(constraint_lists(), st.integers(min_value=-25, max_value=25))
    @settings(max_examples=200, deadline=None)
    def test_admits_agrees_with_direct_evaluation(self, constraints, value):
        cset = from_constraints(constraints)
        direct = all(c.holds_for(value) for c in constraints)
        assert cset.admits(value) == direct

    @given(constraint_lists(), st.integers(min_value=-20, max_value=20),
           st.sampled_from(list(ComparisonOp)))
    @settings(max_examples=200, deadline=None)
    def test_entails_is_sound(self, constraints, constant, op):
        cset = from_constraints(constraints)
        fact = Constraint(op, constant)
        if cset.entails(fact):
            # every admitted value must satisfy the entailed fact
            for value in range(-25, 26):
                if cset.admits(value):
                    assert fact.holds_for(value)

    @given(constraint_lists())
    @settings(max_examples=100, deadline=None)
    def test_exact_satisfiability_on_bounded_domain(self, constraints):
        """On a bounded domain the solver must agree with brute force when it
        declares unsatisfiability (soundness of pruning)."""
        cset = from_constraints(constraints)
        brute_force = any(all(c.holds_for(v) for c in constraints)
                          for v in range(-40, 41))
        if brute_force:
            assert cset.satisfiable()


# ---------------------------------------------------------------- ConstraintMap

class TestConstraintMap:
    def test_with_constraint_is_persistent(self):
        base = ConstraintMap()
        loc = Location.register(3)
        extended = base.with_constraint(loc, Constraint(ComparisonOp.GT, 1))
        assert loc not in base
        assert loc in extended
        assert extended.constraints_for(loc).admits(2)

    def test_without_clears_location_and_relations(self):
        loc_a, loc_b = Location.register(1), Location.register(2)
        cmap = (ConstraintMap()
                .with_constraint(loc_a, Constraint(ComparisonOp.GT, 0))
                .with_relational(RelationalConstraint(loc_a, ComparisonOp.LT, loc_b)))
        cleared = cmap.without(loc_a)
        assert loc_a not in cleared
        assert not cleared.relational()
        # untouched map keeps its facts
        assert loc_a in cmap

    @settings(max_examples=500, deadline=None)
    @given(cmap=_constraint_map(), data=st.data())
    def test_without_keeps_a_satisfiable_map_satisfiable(self, cmap, data):
        """A concrete write only drops facts, so it cannot make a feasible
        path infeasible: the search's chains skip the per-instruction
        satisfiability check inside a superblock on this ground."""
        if not cmap.satisfiable():
            return
        named = sorted(set(cmap._sets)
                       | {end for rel in cmap.relational()
                          for end in (rel.left, rel.right)},
                       key=lambda location: (location.kind, location.index))
        choices = [_LOCATIONS] + ([st.sampled_from(named)] if named else [])
        location = data.draw(st.one_of(*choices))
        assert cmap.without(location).satisfiable()

    def test_transfer_copies_constraints(self):
        src, dst = Location.register(1), Location.register(2)
        cmap = ConstraintMap().with_constraint(src, Constraint(ComparisonOp.EQ, 7))
        moved = cmap.transfer(src, dst)
        assert moved.constraints_for(dst).admits(7)
        assert not moved.constraints_for(dst).admits(8)

    def test_satisfiable_detects_per_location_conflict(self):
        loc = Location.register(3)
        cmap = (ConstraintMap()
                .with_constraint(loc, Constraint(ComparisonOp.GT, 5))
                .with_constraint(loc, Constraint(ComparisonOp.LT, 3)))
        assert not cmap.satisfiable()

    def test_satisfiable_detects_relational_conflict(self):
        a, b = Location.register(1), Location.register(2)
        cmap = (ConstraintMap()
                .with_relational(RelationalConstraint(a, ComparisonOp.GT, b))
                .with_relational(RelationalConstraint(a, ComparisonOp.LT, b)))
        assert not cmap.satisfiable()

    def test_equality_and_hash(self):
        loc = Location.register(3)
        a = ConstraintMap().with_constraint(loc, Constraint(ComparisonOp.GT, 1))
        b = ConstraintMap().with_constraint(loc, Constraint(ComparisonOp.GT, 1))
        assert a == b
        assert hash(a) == hash(b)

    def test_describe_mentions_constraints(self):
        loc = Location.register(3)
        cmap = ConstraintMap().with_constraint(loc, Constraint(ComparisonOp.GT, 1))
        assert "$(3)" in cmap.describe()
        assert ConstraintMap().describe() == "  (no constraints)"


# --------------------------------------------------------------------- solver

class TestRelationalSolver:
    def test_cycle_with_strict_edge_detected(self):
        a, b, c = (Location.register(i) for i in (1, 2, 3))
        constraints = frozenset({
            RelationalConstraint(a, ComparisonOp.LT, b),
            RelationalConstraint(b, ComparisonOp.LE, c),
            RelationalConstraint(c, ComparisonOp.LE, a),
        })
        assert relational_conflict(constraints, {})

    def test_non_strict_cycle_is_fine(self):
        a, b = Location.register(1), Location.register(2)
        constraints = frozenset({
            RelationalConstraint(a, ComparisonOp.LE, b),
            RelationalConstraint(b, ComparisonOp.LE, a),
        })
        assert not relational_conflict(constraints, {})

    def test_bound_conflict(self):
        a, b = Location.register(1), Location.register(2)
        sets = {
            a: from_constraints([Constraint(ComparisonOp.LE, 3)]),
            b: from_constraints([Constraint(ComparisonOp.GE, 10)]),
        }
        constraints = frozenset({RelationalConstraint(a, ComparisonOp.GT, b)})
        assert relational_conflict(constraints, sets)

    def test_consistent_relations_pass(self):
        a, b = Location.register(1), Location.register(2)
        constraints = frozenset({RelationalConstraint(a, ComparisonOp.LT, b)})
        assert not relational_conflict(constraints, {})

    def test_eq_and_ne_conflict(self):
        a, b = Location.register(1), Location.register(2)
        constraints = frozenset({
            RelationalConstraint(a, ComparisonOp.EQ, b),
            RelationalConstraint(a, ComparisonOp.NE, b),
        })
        assert relational_conflict(constraints, {})
