from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import naive_checker
from pigeonproof import CnfFormula
from pigeonproof.propagation import ClauseDatabase, propagate
from pigeonproof.checker import new_database


def db_from(clauses):
    db = ClauseDatabase()
    for clause in clauses:
        db.add_clause(clause)
    return db


def test_unit_conflict_from_empty_assignment():
    # (not-x or y), (not-y), (x): the units erase the first clause entirely.
    db = db_from([(-1, 2), (-2,), (1,)])
    result = propagate(db)
    assert result.is_conflict


def test_no_units_is_a_fixpoint_without_assignments():
    db = db_from([(1, 2), (-1, -2)])
    result = propagate(db)
    assert not result.is_conflict
    assert result.assigned == 0


def test_assumption_drives_conflict():
    # (a or not-b), (not-a or b), (b or not-c), (c); assuming not-b conflicts.
    db = db_from([(1, -2), (-1, 2), (2, -3), (3,)])
    assert db.assume(-2)
    result = propagate(db)
    assert result.is_conflict
    # the reported clause really is falsified under the current assignment
    assert all(db.assignment.value(lit) < 0 for lit in result.conflict)


def test_same_formula_without_assumption_is_satisfiable_fixpoint():
    db = db_from([(1, -2), (-1, 2), (2, -3), (3,)])
    result = propagate(db)
    assert not result.is_conflict
    assert db.assignment.value(3) > 0


def test_assume_already_false_literal_reports_failure():
    db = db_from([(1,)])
    propagate(db)
    assert not db.assume(-1)


def test_trail_restore_is_exact(backend):
    db = new_database(CnfFormula(3, ((1, 2), (-1, 2), (2, -3))), backend=backend)
    before = db.snapshot()
    assert db.rup((2,))
    assert db.snapshot() == before
    assert not db.rup((3,))
    assert db.snapshot() == before
    assert db.rat((-3, 1))
    assert db.snapshot() == before


_clauses = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=4,
        unique_by=abs,
    ).map(tuple),
    max_size=10,
)
_assumptions = st.lists(
    st.integers(min_value=1, max_value=6).flatmap(lambda v: st.sampled_from([v, -v])),
    max_size=3,
    unique_by=abs,
)


@settings(max_examples=120, deadline=None)
@given(_clauses, _assumptions)
def test_fixpoint_matches_rescan_reference(clauses, assumptions):
    db = db_from(clauses)
    rejected = False
    for lit in assumptions:
        if not db.assume(lit):
            rejected = True
    result = propagate(db)
    naive_conflict, naive_values = naive_checker.propagate(
        list(clauses) + [(lit,) for lit in assumptions]
    )
    if rejected:
        # contradictory assumption set; the reference sees the same conflict
        assert naive_conflict
        return
    assert result.is_conflict == naive_conflict
    if not naive_conflict:
        ours = {
            var * value
            for var, value in db.assignment.snapshot()
        }
        theirs = {var * value for var, value in naive_values.items()}
        assert ours == theirs


@settings(max_examples=60, deadline=None)
@given(_clauses)
def test_propagation_is_deterministic(clauses):
    first = db_from(clauses)
    second = db_from(clauses)
    r1, r2 = propagate(first), propagate(second)
    assert r1 == r2
    assert first.snapshot() == second.snapshot()


#: RAT cases around the blocked-clause screen: (clauses, ids of deleted
#: clauses, checked clause with pivot first, expected ``rat``).
RAT_SCREEN_CASES = {
    "no clause holds the pivot's complement": ([(1, 2), (2, 3)], [], (4, 1), True),
    "every resolvent is a tautology": (
        [(1, 2), (-4, -1), (-4, 5, -5), (-4, -3, 2)],
        [],
        (4, 1, 3),
        True,
    ),
    "the only non-tautological occurrence was deleted": (
        [(1, 2), (-4, -1), (-4, 3), (-4, 5, -5)],
        [2],
        (4, 1),
        True,
    ),
    "one non-tautological resolvent is not RUP": (
        [(1, 2), (-4, -1), (-4, 5, -5), (-4, 3), (-4, -1, 6)],
        [],
        (4, 1),
        False,
    ),
    "every non-tautological resolvent is RUP": (
        [(1, 3), (-4, -1), (-4, 3), (-4, 5, -5), (-4, 1, 3)],
        [],
        (4, 1),
        True,
    ),
    "the shared assumptions conflict": ([(1,), (-4, 3)], [], (4, 1), True),
    # (3 1) resolves (4 3) with (-4 1); under its complement the partner
    # (-4 1) implies -4, and only with -4 does (4 1 3) conflict.
    "a resolvent needs the pivot's complement from its partner": (
        [(-4, 1), (4, 1, 3)],
        [],
        (4, 3),
        True,
    ),
    "the pivot's complement from the partner is not enough": (
        [(-4, 1), (4, 2, 3)],
        [],
        (4, 3),
        False,
    ),
}


def rat_screen_case(make_db, clauses, deleted, lits):
    """``rat`` on a fresh database, the oracle's answer, and whether the
    assignment came back unchanged."""
    db = make_db()
    for clause in clauses:
        db.add_clause(clause)
    for cid in deleted:
        db.delete_clause(cid)
    working = [c for cid, c in enumerate(clauses) if cid not in deleted]
    before = db.snapshot()
    result = db.rat(list(lits))
    return result, naive_checker.rat(working, lits), db.snapshot() == before


@pytest.mark.parametrize("case", sorted(RAT_SCREEN_CASES))
def test_rat_screen_agrees_with_rescan_reference(case, backend):
    clauses, deleted, lits, expected = RAT_SCREEN_CASES[case]
    result, naive, restored = rat_screen_case(
        lambda: new_database(backend=backend), clauses, deleted, lits
    )
    assert result == naive == expected
    assert restored
