from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import naive_checker
from pigeonproof import CnfFormula
from pigeonproof.propagation import ClauseDatabase
from pigeonproof.checker import new_database

#: Every literal over the variables the generated formulas use.
LITERALS = [sign * var for var in range(1, 7) for sign in (1, -1)]


def db_from(clauses):
    db = ClauseDatabase()
    for clause in clauses:
        db.add_clause(clause)
    return db


def test_unit_conflict_from_empty_assignment():
    # (not-x or y), (not-y), (x): the units erase the first clause entirely.
    db = db_from([(-1, 2), (-2,), (1,)])
    assert db.rup(())
    assert db.snapshot() == ()


def test_no_units_is_a_fixpoint_without_assignments():
    db = db_from([(1, 2), (-1, -2)])
    assert not db.rup(())
    assert not db.rup((1,))
    assert db.snapshot() == ()


def test_assumption_drives_conflict():
    # (a or not-b), (not-a or b), (b or not-c), (c); assuming not-b conflicts.
    db = db_from([(1, -2), (-1, 2), (2, -3), (3,)])
    assert db.rup((2,))
    assert db.snapshot() == ()


def test_same_formula_without_assumption_is_satisfiable_fixpoint():
    # The unit c propagates b and then a, with no conflict.
    db = db_from([(1, -2), (-1, 2), (2, -3), (3,)])
    assert not db.rup(())
    assert [db.rup((lit,)) for lit in (1, 2, 3, -1, -2, -3)] == [True] * 3 + [False] * 3


def test_assume_already_false_literal_reports_failure():
    db = db_from([(1,)])
    assert db.rup((1,))  # its complement contradicts the unit
    assert not db.rup((-1,))


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


def _fixpoint(db, assumptions):
    """Whether assuming ``assumptions`` conflicts, and then for every literal
    whether the fixpoint under them and its complement conflicts: the
    literals the fixpoint sets, seen through ``rup``."""
    negated = tuple(-lit for lit in assumptions)
    return db.rup(negated), [db.rup(negated + (lit,)) for lit in LITERALS]


@settings(max_examples=120, deadline=None)
@given(_clauses, _assumptions)
def test_fixpoint_matches_rescan_reference(clauses, assumptions):
    db = db_from(clauses)
    negated = tuple(-lit for lit in assumptions)
    expected = (
        naive_checker.rup(clauses, negated),
        [naive_checker.rup(clauses, negated + (lit,)) for lit in LITERALS],
    )
    assert _fixpoint(db, assumptions) == expected
    assert db.snapshot() == ()


@settings(max_examples=60, deadline=None)
@given(_clauses, _assumptions)
def test_propagation_is_deterministic(clauses, assumptions):
    first = db_from(clauses)
    second = db_from(clauses)
    assert _fixpoint(first, assumptions) == _fixpoint(second, assumptions)
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
