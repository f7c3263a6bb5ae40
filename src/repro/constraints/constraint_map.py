"""The ConstraintMap structure attached to every symbolic machine state.

Section 5.2 of the paper: *"A new structure called the ConstraintMap is added
to the machine state.  The ConstraintMap structure maps each register or
memory location containing err to a set of constraints that are satisfied by
the value in the location."*

The map also records relational constraints between two symbolic locations
(produced when both operands of a comparison hold ``err``) and exposes the
satisfiability query used by the model checker to prune infeasible branches.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from .constraint import Constraint, Location, RelationalConstraint
from .constraint_set import ConstraintSet
from .solver import relational_conflict


class ConstraintMap:
    """Per-state mapping from symbolic locations to their constraint sets.

    Instances are treated as immutable: mutating operations return a new map
    sharing unmodified entries with the original, which keeps forking cheap.
    """

    __slots__ = ("_sets", "_relational", "_hash", "_sat", "empty")

    def __init__(self,
                 sets: Optional[Dict[Location, ConstraintSet]] = None,
                 relational: FrozenSet[RelationalConstraint] = frozenset()) -> None:
        self._sets: Dict[Location, ConstraintSet] = dict(sets or {})
        self._relational: FrozenSet[RelationalConstraint] = relational
        self._hash: Optional[int] = None
        self._sat: Optional[bool] = None
        #: True when the map records nothing at all — the hot-path writes in
        #: the machine state skip constraint bookkeeping entirely then.
        self.empty: bool = not self._sets and not self._relational

    # ------------------------------------------------------------------ access

    def constraints_for(self, location: Location) -> ConstraintSet:
        """The constraint set currently known for *location* (may be empty)."""
        return self._sets.get(location, ConstraintSet())

    def relational(self) -> FrozenSet[RelationalConstraint]:
        return self._relational

    def __contains__(self, location: Location) -> bool:
        return location in self._sets

    def __len__(self) -> int:
        return len(self._sets)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ConstraintMap)
                and self._sets == other._sets
                and self._relational == other._relational)

    def __hash__(self) -> int:
        # Maps are immutable-by-convention, so the hash is computed once;
        # every machine-state fingerprint includes it.
        value = self._hash
        if value is None:
            value = hash((frozenset(self._sets.items()), self._relational))
            self._hash = value
        return value

    def __reduce__(self):
        # Rebuild through __init__ on unpickling: the cached hash is salted
        # per process (string hashing) and must not travel between workers;
        # the satisfiability memo is rebuilt with it.
        return (ConstraintMap, (self._sets, self._relational))

    def __repr__(self) -> str:
        parts = [f"{loc!r}: {cset!r}" for loc, cset in sorted(
            self._sets.items(), key=lambda item: (item[0].kind, item[0].index))]
        if self._relational:
            parts.append("relational: " + ", ".join(
                repr(c) for c in sorted(self._relational, key=repr)))
        return "ConstraintMap(" + "; ".join(parts) + ")"

    # --------------------------------------------------------------- mutation

    def copy(self) -> "ConstraintMap":
        return ConstraintMap(self._sets, self._relational)

    def with_constraint(self, location: Location,
                        constraint: Constraint) -> "ConstraintMap":
        """Return a new map with *constraint* added for *location*."""
        new_sets = dict(self._sets)
        new_sets[location] = self.constraints_for(location).add(constraint)
        return ConstraintMap(new_sets, self._relational)

    def with_constraints(self, location: Location,
                         constraints: Iterable[Constraint]) -> "ConstraintMap":
        new_sets = dict(self._sets)
        new_sets[location] = self.constraints_for(location).add_all(constraints)
        return ConstraintMap(new_sets, self._relational)

    def with_relational(self,
                        constraint: RelationalConstraint) -> "ConstraintMap":
        """Return a new map recording a location-vs-location fact."""
        return ConstraintMap(self._sets,
                             self._relational | {constraint.normalized()})

    def without(self, location: Location) -> "ConstraintMap":
        """Drop every fact about *location* (it was overwritten by a concrete value)."""
        relational = self._relational
        if location not in self._sets and (not relational or not any(
                rel.left == location or rel.right == location
                for rel in relational)):
            return self
        new_sets = {loc: cset for loc, cset in self._sets.items() if loc != location}
        new_relational = frozenset(
            rel for rel in self._relational
            if rel.left != location and rel.right != location)
        return ConstraintMap(new_sets, new_relational)

    def transfer(self, source: Location, destination: Location) -> "ConstraintMap":
        """Copy the constraints of *source* onto *destination* (``mov`` of err).

        The paper's abstraction would leave the destination unconstrained;
        transferring constraints for a plain copy is sound (a copy preserves
        the value exactly) and reduces false positives without affecting
        soundness, so we do it for register-to-register moves.
        """
        new_sets = dict(self._sets)
        new_sets[destination] = self.constraints_for(source)
        return ConstraintMap(new_sets, self._relational)

    # --------------------------------------------------------------- reasoning

    def satisfiable(self) -> bool:
        """Is the conjunction of every recorded constraint satisfiable?

        Per-location sets are checked exactly; relational constraints are
        checked by the light-weight conflict detector in
        :mod:`repro.constraints.solver`.  The map is immutable, so the
        answer is computed once and memoised: successors that share their
        parent's map do not walk it again.
        """
        sat = self._sat
        if sat is None:
            sat = True
            for cset in self._sets.values():
                if not cset.satisfiable():
                    sat = False
                    break
            else:
                if self._relational:
                    sat = not relational_conflict(self._relational,
                                                  self._sets)
            self._sat = sat
        return sat

    def entails(self, location: Location, constraint: Constraint) -> bool:
        return self.constraints_for(location).entails(constraint)

    def refutes(self, location: Location, constraint: Constraint) -> bool:
        return self.constraints_for(location).refutes(constraint)

    def witness(self, location: Location) -> Optional[int]:
        """A concrete value consistent with everything known about *location*."""
        return self.constraints_for(location).witness()

    def describe(self) -> str:
        """Readable multi-line description used in reports and traces."""
        lines = []
        for location, cset in sorted(self._sets.items(),
                                     key=lambda item: (item[0].kind, item[0].index)):
            if not cset.is_unconstrained():
                lines.append(f"  {location!r} in {cset!r}")
        for rel in sorted(self._relational, key=repr):
            lines.append(f"  {rel!r}")
        return "\n".join(lines) if lines else "  (no constraints)"
