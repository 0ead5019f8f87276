"""The compiled checking core, built from source and held to the Python engine.

The core is compiled once per session by the ``fastcheck`` fixture in
``conftest.py``; these tests are skipped when no C compiler is found.
"""

import enum
import hashlib
import importlib
import io
import itertools
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import naive_checker
from conftest import package_with_core
from pigeonproof import (
    CnfFormula,
    ProofLine,
    checker,
    count_cook,
    count_ours,
    emit_dimacs,
    emit_drat,
    encodings,
    formats,
    php_amo,
    php_standard,
    proof_cook,
    proof_ours,
    verify,
)
from pigeonproof.cli import main
from pigeonproof.model import DELETE, HoleRows
from pigeonproof.propagation import ClauseDatabase
from test_formats import BUILDER_DIGESTS, DIMACS_DIGESTS, DRAT_DIGESTS, sha256, written_both_ways
from test_package import (
    GEN_NEVER_LOADS,
    NATIVE_CHECK_NEVER_LOADS,
    NATIVE_GEN_LOADS,
    SRC,
    loaded_by,
    loaded_by_check,
)
from test_propagation import RAT_SCREEN_CASES, rat_screen_case

EMPTY = ProofLine(False, ())
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(params=["python", "native"])
def engine(request):
    """The database class of either backend."""
    if request.param == "native":
        return request.getfixturevalue("fastcheck").FastDatabase
    return ClauseDatabase


def test_api_boundary_is_the_same_on_both_engines(engine):
    db = engine()
    assert db.add_clause([1, 2]) == 0
    assert db.add_clause([-1]) == 1
    for cid in (2, 10**9, -1, -(10**9), 10**30):
        with pytest.raises(IndexError):
            db.delete_clause(cid)
        with pytest.raises(IndexError):
            db.clause(cid)
    for lits in ([2**40], [1, -(2**31)], [2**31], [0], [3, 0], [2**100]):
        for method in (db.add_clause, db.rup, db.rat):
            with pytest.raises(ValueError):
                method(lits)
    with pytest.raises(TypeError):
        db.rup(["1"])
    with pytest.raises(IndexError):
        db.rat([])
    # Rejected calls change nothing.
    assert len(db) == 2
    assert db.clause(0) == (1, 2)
    assert db.snapshot() == ()
    assert db.rup([2]) and not db.rup([3])
    db.delete_clause(1)
    db.delete_clause(1)
    assert len(db) == 1
    assert not db.rup([2])
    assert db.snapshot() == ()


@pytest.mark.parametrize("case", sorted(RAT_SCREEN_CASES))
def test_rat_screen_agrees_with_rescan_reference(case, engine):
    clauses, deleted, lits, expected = RAT_SCREEN_CASES[case]
    result, naive, restored = rat_screen_case(engine, clauses, deleted, lits)
    assert result == naive == expected
    assert restored


_LITERAL = st.integers(1, 5).flatmap(lambda var: st.sampled_from([var, -var]))
_ANY_CLAUSE = st.lists(_LITERAL, max_size=4, unique=True)  # the empty one too


@st.composite
def _tautology(draw):
    """A clause that holds some x and -x, pivot or not, and up to two more
    literals: where a screen that keeps one sign by variable goes wrong."""
    var = draw(st.integers(1, 5))
    others = _LITERAL.filter(lambda lit: abs(lit) != var)
    return draw(st.permutations([var, -var, *draw(st.lists(others, max_size=2, unique=True))]))


_CLAUSE = st.one_of(st.lists(_LITERAL, min_size=1, max_size=4, unique=True), _tautology())
# Unit clauses, added and deleted, change which units seed each check.
_STEP = st.one_of(
    st.tuples(st.just("add"), _ANY_CLAUSE),
    st.tuples(st.just("add"), st.lists(_LITERAL, min_size=1, max_size=1)),
    st.tuples(st.just("delete"), st.integers(0, 20)),
    st.tuples(st.just("rup"), _ANY_CLAUSE),
    st.tuples(st.just("rat"), _CLAUSE),
    st.tuples(st.just("rat"), _tautology()),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CLAUSE, max_size=10), st.lists(_STEP, max_size=12))
# rat((-1, 2, -2)) is blocked: its one resolvent, with (1, -2), holds 2 and
# -2.  An engine that missed that would prune the deleted unit (-1) from its
# units list, seed the next rat from a list in another order, and store
# clause 0 with its literals in another order.  Random draws almost never
# reach this, since the missed screen changes no verdict, only when deleted
# units are pruned; so both orders of 2 and -2 are pinned: a screen that
# keeps the last sign of a variable fails the first example, one that keeps
# the first sign the second.
@example(
    [],
    [("add", [1, -2]), ("add", [-1]), ("delete", 1), ("add", [2, -3]),
     ("rat", [-1, 2, -2]), ("add", [-1]), ("add", [3]), ("rat", [2])],
)
@example(
    [],
    [("add", [1, -2]), ("add", [-1]), ("delete", 1), ("add", [2, -3]),
     ("rat", [-1, -2, 2]), ("add", [-1]), ("add", [3]), ("rat", [2])],
)
def test_rat_is_rup_or_rat_of_the_reference(fastcheck, formula, steps):
    """rup and rat on both engines, with additions (the empty clause
    included) and deletions interleaved, answer what the rescan oracle
    answers, count the active clauses, leave no assignment behind, and
    leave every clause with its literals in the same order."""
    dbs = (fastcheck.FastDatabase(), ClauseDatabase())
    active = {}
    added = 0
    for step in [("add", clause) for clause in formula] + steps:
        if step[0] == "add":
            (cid,) = {db.add_clause(step[1]) for db in dbs}
            active[cid] = step[1]
            added = cid + 1
        elif step[0] == "delete" and active:
            cid = sorted(active)[step[1] % len(active)]
            for db in dbs:
                db.delete_clause(cid)
            del active[cid]
        elif step[0] != "delete":
            working = list(active.values())
            lits = step[1]
            expected = naive_checker.rup(working, lits)
            if step[0] == "rat":
                expected = expected or naive_checker.rat(working, lits)
            for db in dbs:
                assert getattr(db, step[0])(lits) == expected
                assert db.snapshot() == ()
        assert [len(db) for db in dbs] == [len(active)] * 2
        native, python = ([db.clause(cid) for cid in range(added)] for db in dbs)
        assert native == python


def test_native_check_loads_no_python_engine(fastcheck, tmp_path):
    have_native, modules = loaded_by_check(tmp_path, package_with_core(fastcheck, tmp_path))
    assert have_native
    assert "pigeonproof._fastcheck" in modules
    assert modules & NATIVE_CHECK_NEVER_LOADS == set()


#: Run in a child: wrap the core writer ``writer`` to keep the sinks it is
#: given and the counts it returns, run the CLI, and print the writer's
#: module, whether its one call got a file descriptor, and whether the count
#: it returned is the size of the output file.
_WRITER_IN_THE_CORE = """\
import os
from pigeonproof import _fastcheck, cli
core, sinks, written = getattr(_fastcheck, {writer!r}), [], []
def write(*args):
    sinks.append("fd" if type(args[-1]) is int else "write")
    written.append(core(*args))
    return written[-1]
setattr(_fastcheck, {writer!r}, write)
assert cli.main({argv!r}) == 0
print(core.__module__, sinks == ["fd"], written == [os.path.getsize({out!r})])
"""


def test_native_gen_proof_formats_in_the_core(fastcheck, tmp_path):
    """Every line ``gen-proof`` and ``gen-cnf`` write, at-least-one clauses,
    empty clause and deletions included, is written by the core, straight
    to the descriptor of the file that ``--out`` opens.  Each is one call of
    the core, which builds the rows too, so no module that could write a
    line in Python (the formats, the builders, the encodings) is even
    loaded."""
    src = package_with_core(fastcheck, tmp_path)
    for argv, golden in (
        (["gen-proof", "4"], "proof-ours-4.drat"),
        (["gen-proof", "5", "--deletions"], None),
        (["gen-proof", "4", "--style", "cook"], "proof-cook-4.drat"),
        (["gen-proof", "3", "--style", "cook", "--deletions"], "proof-cook-3-deletions.drat"),
        (["gen-cnf", "5"], None),
        (["gen-cnf", "4", "--encoding", "amo"], "php-amo-4.cnf"),
    ):
        out = tmp_path / "out.txt"
        writer = "write_proof" if argv[0] == "gen-proof" else "write_cnf"
        argv += ["--out", str(out)]
        code = _WRITER_IN_THE_CORE.format(writer=writer, argv=argv, out=str(out))
        hooks, modules = loaded_by(code, src)
        assert hooks == "pigeonproof._fastcheck True True", argv
        assert modules & GEN_NEVER_LOADS == set()
        assert {m for m in modules if m.startswith("pigeonproof")} == NATIVE_GEN_LOADS, argv
        if golden:
            assert out.read_bytes() == (GOLDEN / golden).read_bytes()


class _Digest:
    """An output that keeps the SHA-256 and the length of the text written
    to it."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.size = 0

    def write(self, text):
        self.hash.update(text.encode())
        self.size += len(text)


@pytest.mark.parametrize("deletions", [False, True])
@pytest.mark.parametrize("family", [proof_ours.OURS, proof_cook.COOK], ids=["ours", "cook"])
def test_core_proof_is_the_python_builders_proof(fastcheck, family, deletions):
    """The core's own builders write, byte for byte, what the Python builders
    yield: ``write_drat_blocks(iter_blocks(...))``, the reference."""
    for n in range(2, 41):
        reference, core = _Digest(), _Digest()
        formats.write_drat_blocks(reference, proof_ours.iter_blocks(n, family, deletions))
        written = fastcheck.write_proof(n, family[0], deletions, core.write)
        assert core.hash.hexdigest() == reference.hash.hexdigest(), n
        assert written > 0


def test_core_proof_writes_to_a_descriptor_and_rejects_bad_arguments(fastcheck, tmp_path):
    path = tmp_path / "proof.drat"
    with open(path, "wb", buffering=0) as handle:
        written = fastcheck.write_proof(4, True, False, handle.fileno())
    assert path.read_bytes() == (GOLDEN / "proof-ours-4.drat").read_bytes()
    assert written == path.stat().st_size
    for n in (1, 0, -5, 2**20 + 1):
        with pytest.raises(ValueError, match=f"n must be from 2 to 1048576, got {n}"):
            fastcheck.write_proof(n, True, False, [].append)
    with pytest.raises(ValueError, match="bad file descriptor"):
        fastcheck.write_proof(3, False, True, -1)
    with pytest.raises(TypeError):
        fastcheck.write_proof("4", True, False, [].append)

    def fail(text):
        raise RuntimeError("sink full")

    with pytest.raises(RuntimeError, match="sink full"):
        fastcheck.write_proof(40, True, False, fail)


@pytest.mark.parametrize("encode", [php_standard, php_amo], ids=["standard", "amo"])
def test_core_cnf_is_the_python_encodings_cnf(fastcheck, encode):
    """The core's own builders write, byte for byte, what ``write_dimacs``
    writes for the rows of the Python encodings, the reference."""
    amo = encode is php_amo
    for n in range(1, 41):
        reference, core = _Digest(), _Digest()
        formula = encode(n)
        rows = (encodings.iter_php_amo_clauses if amo else encodings.iter_php_standard_clauses)(n)
        formats.write_dimacs(reference, formula.num_vars, rows, len(formula.clauses))
        written = fastcheck.write_cnf(n, amo, core.write)
        assert core.hash.hexdigest() == reference.hash.hexdigest(), n
        assert written == core.size


def test_core_cnf_writes_to_a_descriptor_and_rejects_bad_arguments(fastcheck, tmp_path):
    path = tmp_path / "php.cnf"
    with open(path, "wb", buffering=0) as handle:
        written = fastcheck.write_cnf(4, True, handle.fileno())
    assert path.read_bytes() == (GOLDEN / "php-amo-4.cnf").read_bytes()
    assert written == path.stat().st_size
    for n in (0, -5, 2**20 + 1):
        with pytest.raises(ValueError, match=f"n must be from 1 to 1048576, got {n}"):
            fastcheck.write_cnf(n, False, [].append)
    for fd in (-1, -(2**40)):
        with pytest.raises(ValueError, match="bad file descriptor"):
            fastcheck.write_cnf(3, False, fd)
    with pytest.raises(TypeError):
        fastcheck.write_cnf("4", True, [].append)
    # Text is written as it is formatted: a sink that fails stops the writer
    # at its first chunk, the 64 KiB staged.
    texts = []

    def fail(text):
        texts.append(text)
        raise RuntimeError("sink full")

    with pytest.raises(RuntimeError, match="sink full"):
        fastcheck.write_cnf(40, False, fail)
    assert [len(text) for text in texts] == [STAGED]
    assert texts[0].startswith("p cnf 1640 32841\n1 2 3 ")


def test_library_writes_interleave_with_other_text(tmp_path):
    """The library writers pass each chunk's text to ``write`` as they
    format it, in order with any other text: a comment, the DIMACS header,
    plain clauses, clauses holding a literal the templates take as an int
    (a subclass of int; a bool raises, see FALLBACK_CHUNKS), hole-row blocks
    and deletions."""
    clauses = [(1, 2), (-3,), (_Int(1), 4), (5,), (6, -7), (8,), (-9,)]
    blocks = [
        ("a", 1, HoleRows([(3, (((1, 1), -9),))])),
        ("b", 1, HoleRows([(2, (((True, 1),),))])),
        (DELETE, 1, HoleRows([(2, ((4, (7, -1)),))])),
    ]

    def write(out):
        out.write("c first\n")
        formats.write_dimacs(out, 9, clauses, len(clauses))
        formats.write_drat_blocks(out, blocks)
        out.write("c last\n")

    expected = (
        "c first\np cnf 9 7\n1 2 0\n-3 0\n1 4 0\n5 0\n6 -7 0\n8 0\n-9 0\n"
        "1 -9 0\n2 -9 0\n3 -9 0\n1 0\n2 0\nd 4 7 0\nd 4 6 0\nc last\n"
    )
    assert written_both_ways(write) == expected


@pytest.mark.parametrize("opener", ["gzip", "bz2", "lzma", "crlf", "utf-16"])
def test_writers_leave_other_handles_to_their_write(tmp_path, opener):
    """The library writers give a handle all its text through its ``write``,
    even where it has a file descriptor: a compressed file holds a stream
    that decompresses to the text, and a handle that translates newlines,
    or encodes ASCII as other bytes, does so on every line."""
    blocks = list(proof_ours.iter_blocks(7, proof_ours.OURS, True))
    formula = php_standard(7)
    path = tmp_path / "out"

    def write(out):
        formats.write_dimacs(out, formula.num_vars, formula.clauses, len(formula.clauses))
        formats.write_drat_blocks(out, blocks)

    expected = written_both_ways(write)
    if opener == "crlf":
        with open(path, "w", encoding="utf-8", newline="\r\n") as handle:
            write(handle)
        assert path.read_bytes() == expected.replace("\n", "\r\n").encode()
    elif opener == "utf-16":
        with open(path, "w", encoding="utf-16", newline="") as handle:
            write(handle)
        assert path.read_text(encoding="utf-16") == expected
    else:
        module = importlib.import_module(opener)
        with module.open(path, "wt", encoding="utf-8", newline="") as handle:
            assert handle.fileno() >= 0  # the descriptor of the compressed file
            write(handle)
        assert module.decompress(path.read_bytes()) == expected.encode()


#: Run in a child with the core's path: print to stdout, which is a pipe and
#: so block-buffered, then write a formula and a proof there with the core,
#: which passes its text to stdout's write, printing between and after.
_AFTER_PRINT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("_fastcheck", sys.argv[1])
core = importlib.util.module_from_spec(spec)
spec.loader.exec_module(core)
print("c first")
core.write_cnf(4, True, sys.stdout.write)
print("c middle")
core.write_proof(4, True, False, sys.stdout.write)
print("c last")
"""


def test_block_writes_to_stdout_follow_earlier_prints(fastcheck):
    result = subprocess.run(
        [sys.executable, "-c", _AFTER_PRINT, fastcheck.__file__],
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    cnf, proof = ((GOLDEN / name).read_bytes() for name in ("php-amo-4.cnf", "proof-ours-4.drat"))
    assert result.stdout == b"c first\n" + cnf + b"c middle\n" + proof + b"c last\n"


# Writes a proof to a FIFO that a thread of the same process reads; the core
# must let that thread run while it waits in write().  A timer interrupts the
# writes, which the core resumes after running the handler.
_FIFO_WRITE = """
import hashlib, importlib.util, signal, sys, threading, time
spec = importlib.util.spec_from_file_location("_fastcheck", sys.argv[1])
core = importlib.util.module_from_spec(spec)
spec.loader.exec_module(core)
fifo = sys.argv[2]
pieces, ticks = [], []

def read():  # a piece at a time, taking the GIL between pieces
    with open(fifo, "rb", buffering=0) as source:
        while piece := source.read(4096):
            pieces.append(piece)
            time.sleep(0.0002)

reader = threading.Thread(target=read)
reader.start()
signal.signal(signal.SIGALRM, lambda *args: ticks.append(1))
signal.setitimer(signal.ITIMER_REAL, 0.002, 0.002)
with open(fifo, "wb", buffering=0) as out:
    core.write_proof(40, True, False, out.fileno())
signal.setitimer(signal.ITIMER_REAL, 0)
reader.join()
data = b"".join(pieces)
assert len(data) > 1 << 21  # more than a pipe holds, even one grown to its cap
print(hashlib.sha256(data).hexdigest(), len(ticks) > 0)
"""


def test_block_writer_fills_a_fifo_that_a_thread_reads(fastcheck, tmp_path):
    fifo = tmp_path / "proof.fifo"
    os.mkfifo(fifo)
    result = subprocess.run(
        [sys.executable, "-c", _FIFO_WRITE, fastcheck.__file__, str(fifo)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    out = io.StringIO()
    formats.write_drat_blocks(out, proof_ours.iter_blocks(40, proof_ours.OURS))
    assert result.stdout.split() == [sha256(out.getvalue()), "True"]


@pytest.mark.parametrize("out", [[], ["--out", "/dev/stdout"]], ids=["stdout", "out"])
@pytest.mark.parametrize("core", [False, True], ids=["python", "native"])
def test_gen_proof_into_a_closed_pipe_exits_2_quietly(compiled, tmp_path, core, out):
    """A reader that closes the pipe after one byte ends ``gen-proof`` with
    exit code 2, on a copy of the package with the core or without it: on
    stdout, where the core passes the text to its write, with nothing on
    stderr; and given
    ``--out``, where the core writes to the pipe's descriptor, with the one
    line of an output file that cannot be written."""
    if core and compiled is None:
        pytest.skip("no C compiler found")
    src = package_with_core(compiled if core else None, tmp_path)
    child = subprocess.Popen(
        [sys.executable, "-m", "pigeonproof.cli", "gen-proof", "60", *out],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert child.stdout.read(1) == b"-"  # of the first definition clause
        child.stdout.close()
        assert child.wait(timeout=60) == 2
        assert child.stderr.read() == (
            b"error: cannot write /dev/stdout: [Errno 32] Broken pipe\n" if out else b""
        )
    finally:
        child.kill()
        child.wait()
        child.stderr.close()


@pytest.mark.parametrize("n", range(2, 9))
def test_verify_agrees_with_python_engine(n, native):
    formula = php_standard(n)
    for module in (proof_ours, proof_cook):
        for deletions in (False, True):
            lines = list(module.iter_proof_lines(n, emit_deletions=deletions))
            got = verify(formula, lines, strict_deletions=True, backend="native")
            want = verify(formula, lines, strict_deletions=True, backend="python")
            assert got.accepted
            assert (got.status, got.line) == (want.status, want.line)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_sign_flip_mutations_agree_with_python_engine(n, native):
    # Single-literal sign flips on derived clauses, as in acceptance criterion 6.
    formula = php_standard(n)
    base = list(proof_ours.iter_proof_lines(n))
    derived = [
        index
        for index, (tag, _, _) in enumerate(proof_ours.iter_tagged_lines(n))
        if tag == "derived"
    ]
    rng = random.Random(60_000 + n)
    for _ in range(20):
        index = rng.choice(derived)
        lits = list(base[index].lits)
        position = rng.randrange(len(lits))
        lits[position] = -lits[position]
        mutated = base[:index] + [ProofLine(False, tuple(lits))] + base[index + 1 :]
        got = verify(formula, mutated, backend="native")
        want = verify(formula, mutated, backend="python")
        assert (got.status, got.line) == (want.status, want.line)


def _same(dbs, method, lits) -> bool:
    (result,) = {getattr(db, method)(lits) for db in dbs}
    assert [db.snapshot() for db in dbs] == [(), ()]
    return result


@pytest.mark.parametrize("module", (proof_ours, proof_cook), ids=("ours", "cook"))
def test_lockstep_replay_matches_python_engine(module, fastcheck):
    """Both engines take every call of a check with deletions side by side.

    RAT is also tried on every addition with its literals reversed, which
    often fails, so failing checks are compared too; the assignment must be
    clean after each call.
    """
    python, native = dbs = (ClauseDatabase(), fastcheck.FastDatabase())
    by_key: dict[tuple[int, ...], list[int]] = {}
    ids = []

    def add(lits):
        (cid,) = {db.add_clause(lits) for db in dbs}
        ids.append(cid)
        by_key.setdefault(tuple(sorted(lits)), []).append(cid)

    for clause in php_standard(4).clauses:
        add(clause)
    for line in module.iter_proof_lines(4, emit_deletions=True):
        lits = list(line.lits)
        if line.delete:
            cid = by_key[tuple(sorted(lits))].pop()
            for db in dbs:
                db.delete_clause(cid)
        elif not lits:
            assert _same(dbs, "rup", lits)
            break
        else:
            _same(dbs, "rat", lits[::-1])
            assert _same(dbs, "rup", lits) or _same(dbs, "rat", lits)
            add(lits)
        assert len(python) == len(native)
    # Watches move literals in place; both engines must move them alike.
    assert [python.clause(cid) for cid in ids] == [native.clause(cid) for cid in ids]


# -- checking a DRAT file: the native file call against the Python backend --


def _outcome(formula, path, backend, strict_deletions):
    """verify() of a file as comparable data: the verdict or the exception,
    and the texts of the warnings in the order they were issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            verdict = verify(formula, path, strict_deletions, backend)
            result = (verdict.status, verdict.line, verdict.reason)
        except (ValueError, OSError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def _same_on_both(formula, path, strict_deletions=False):
    native = _outcome(formula, path, "native", strict_deletions)
    assert native == _outcome(formula, path, "python", strict_deletions)
    return native


def _proof_file(directory, lines, name="proof.drat"):
    path = Path(directory) / name
    path.write_text(emit_drat(lines), newline="")
    return path


@pytest.mark.parametrize("n", range(2, 9))
def test_file_check_agrees_with_python_backend(n, native, tmp_path):
    formula = php_standard(n)
    for module in (proof_ours, proof_cook):
        for deletions in (False, True):
            path = _proof_file(tmp_path, module.iter_proof_lines(n, deletions))
            for strict in (False, True):
                result, warned = _same_on_both(formula, path, strict)
                assert result == ("ACCEPTED", None, None) and warned == []


@pytest.mark.parametrize("n", (3, 4, 5))
def test_file_check_of_sign_flips_agrees_with_python_backend(n, native, tmp_path):
    formula = php_standard(n)
    base = list(proof_ours.iter_proof_lines(n, emit_deletions=True))
    additions = [index for index, line in enumerate(base) if not line.delete]
    rng = random.Random(60_000 + n)
    statuses = set()
    for _ in range(20):
        index = rng.choice(additions[:-1])
        lits = list(base[index].lits)
        position = rng.randrange(len(lits))
        lits[position] = -lits[position]
        mutated = base[:index] + [ProofLine(False, tuple(lits))] + base[index + 1 :]
        (result, _) = _same_on_both(formula, _proof_file(tmp_path, mutated))
        statuses.add(result[0])
    assert "REJECTED" in statuses


def test_file_check_of_truncated_proofs_agrees_with_python_backend(native, tmp_path):
    formula = php_standard(4)
    text = emit_drat(proof_cook.iter_proof_lines(4, emit_deletions=True))
    path = tmp_path / "cut.drat"
    results = set()
    for cut in sorted({*range(0, len(text), 97), len(text) - 1, len(text) - 2, len(text)}):
        path.write_text(text[:cut], newline="")
        (result, _) = _same_on_both(formula, path, strict_deletions=True)
        results.add(result[0])
    assert results == {"ACCEPTED", "INCOMPLETE", ValueError}


def test_file_check_of_absent_deletions_agrees_with_python_backend(native, tmp_path):
    formula = php_standard(3)
    lines = list(proof_ours.iter_proof_lines(3, emit_deletions=True))
    absent = [(1, 2, 3, 4, 5), (2147483647, -1), (-12,)]
    for position in (0, 5, len(lines) - 1):
        proof = lines[:position] + [ProofLine(True, lits) for lits in absent]
        proof += lines[position:]
        path = _proof_file(tmp_path, proof)
        result, warned = _same_on_both(formula, path)
        assert result == ("ACCEPTED", None, None)
        assert warned == [
            f"proof line {position + i}: deleted clause not in the formula"
            for i in (1, 2, 3)
        ]
        result, warned = _same_on_both(formula, path, strict_deletions=True)
        assert result == ("REJECTED", position + 1, "deletion of a clause not in the formula")
        assert warned == []
    # Two copies of (1 2): the third deletion of it finds none.
    formula = CnfFormula(2, ((1, 2), (-1,), (2, 1)))
    proof = [ProofLine(True, (2, 1)), ProofLine(True, (1, 2)), ProofLine(True, (1, 2))]
    result, warned = _same_on_both(formula, _proof_file(tmp_path, proof + [EMPTY]))
    assert result == ("REJECTED", 4, "empty clause is not RUP (and has no pivot for RAT)")
    assert warned == ["proof line 3: deleted clause not in the formula"]
    # Two copies of (1 2) again, deleted after the blocked-clause screen of
    # (-1 -2 -4) has swap-removed the deleted (1 3) from the occurrences of 1,
    # the shortest list of (1 2), and so left that list out of id order.
    formula = CnfFormula(4, ((1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (2, -3)))
    proof = [ProofLine(True, (1, 3)), ProofLine(False, (-1, -2, -4))]
    proof += [ProofLine(True, (2, 1)), ProofLine(True, (1, 2)), ProofLine(True, (1, 2)), EMPTY]
    path = _proof_file(tmp_path, proof)
    result, warned = _same_on_both(formula, path)
    assert result == ("REJECTED", 6, "empty clause is not RUP (and has no pivot for RAT)")
    assert warned == ["proof line 5: deleted clause not in the formula"]
    assert _same_on_both(formula, path, strict_deletions=True) == (
        ("REJECTED", 5, "deletion of a clause not in the formula"),
        [],
    )
    # One RUP call, on the empty clause, and one RAT call, on (-1 -2 -4).
    assert _counters(formula, proof, path) == ((1, 0, 1, 1, 1, 3),) * 3


def test_file_check_finds_tautological_deletions_as_the_python_backend(native, tmp_path):
    # A tautological clause holds both signs of one variable; deleting it
    # (in any literal order) must match it exactly, and leave no trace on
    # the deletions and checks that follow.
    # A key of 17 literals or more is sorted by qsort, a shorter one in place.
    wide = (*range(3, 18), -1, 1)
    formula = CnfFormula(17, ((1, -1, 2), (2, -2, 1), (1, 2), (-1,), (-2,), wide))
    deleted = [(2, 1, -1), (-2, 1, 2), (1, -1, 2), (1, -1), wide[::-1]]
    proof = [ProofLine(True, lits) for lits in deleted] + [EMPTY]
    warned_lines = ["proof line 3: deleted clause not in the formula",
                    "proof line 4: deleted clause not in the formula"]
    path = _proof_file(tmp_path, proof)
    assert _same_on_both(formula, path) == (("ACCEPTED", None, None), warned_lines)
    proof.insert(4, ProofLine(True, (2, 1)))
    path = _proof_file(tmp_path, proof)
    assert _same_on_both(formula, path) == (
        ("REJECTED", 7, "empty clause is not RUP (and has no pivot for RAT)"),
        warned_lines,
    )
    assert _counters(formula, proof, path) == ((1, 0, 0, 0, 0, 4),) * 3


def test_file_check_counts_lines_as_the_python_backend(native, tmp_path):
    # File lines and proof lines differ: comments, blank lines, all three
    # line breaks, and a malformed line after the accepted empty clause,
    # which is never parsed.
    formula = php_standard(2)
    physical = ["c a comment", "", "   \t"]
    for i, line in enumerate(emit_drat(proof_ours.iter_proof_lines(2)).splitlines()[:-1]):
        physical.append(line)
        if i % 4 == 0:
            physical += ["c more", "\x0c"]
    breaks = itertools.cycle(["\n", "\r\n", "\r"])
    head = "".join(line + next(breaks) for line in physical).encode()
    path = tmp_path / "p.drat"
    path.write_bytes(head + b"0\nnot a line 1 x\n")
    assert _same_on_both(formula, path) == (("ACCEPTED", None, None), [])
    path.write_bytes(head + b"bad line\r\n0\n")
    assert _same_on_both(formula, path) == (
        (ValueError, f"line {len(physical) + 1}: bad token in 'bad line\\n'"),
        [],
    )


def _through_pipe(formula, data, backend):
    """_outcome() of ``data`` read from a pipe, which cannot seek."""
    read_end, write_end = os.pipe()
    try:
        with open(write_end, "wb") as handle:  # data fits in the pipe's buffer
            handle.write(data)
        return _outcome(formula, f"/dev/fd/{read_end}", backend, False)
    finally:
        os.close(read_end)


def test_file_check_beyond_ascii_agrees_with_python_backend(native, tmp_path):
    # A comment may hold any bytes, even after the empty clause; any other
    # byte beyond ASCII is a bad token, decided in the one native pass, so a
    # pipe is checked as a file is.
    formula = php_standard(2)
    proof = emit_drat(proof_ours.iter_proof_lines(2)).encode()
    path = tmp_path / "p.drat"
    accepted = ("ACCEPTED", None, None)
    expected = {
        b"c caf\xc3\xa9\n" + proof: accepted,
        b"c \xff\n" + proof: accepted,
        proof + b"c \xff\n": accepted,
        proof + b"1 \xff 0\n": accepted,
        b"\xc2\xa01 0\n" + proof: (ValueError, "line 1: bad token in '\\xa01 0\\n'"),
        b"1 \xd9\xa3 0\n" + proof: (ValueError, "line 1: bad token in '1 ٣ 0\\n'"),
        b"1 \xff 0\n" + proof: (ValueError, "line 1: bad token in '1 \\udcff 0\\n'"),
        b"\xe3\x80\x80c x\n" + proof: (ValueError, "line 1: bad token in '\\u3000c x\\n'"),
    }
    for data, outcome in expected.items():
        path.write_bytes(data)
        assert _same_on_both(formula, path) == (outcome, [])
        for backend in ("native", "python"):
            assert _through_pipe(formula, data, backend) == (outcome, [])


# Checks a proof from a FIFO that a thread of the same process writes; the
# core must let that thread run while it waits in read().
_FIFO_CHECK = """
import importlib.util, sys, threading
from pigeonproof import checker, emit_drat, php_standard, proof_ours, verify
spec = importlib.util.spec_from_file_location("_fastcheck", sys.argv[1])
checker._fastcheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checker._fastcheck)
checker.HAVE_NATIVE = True
fifo = sys.argv[2]
data = b"c padding\\n" * 300_000 + emit_drat(proof_ours.iter_proof_lines(5)).encode()
assert len(data) > 1 << 21  # more than a pipe holds, even one grown to its cap

def write():  # a piece at a time, taking the GIL between pieces
    with open(fifo, "wb", buffering=0) as out:
        for start in range(0, len(data), 4096):
            out.write(data[start : start + 4096])

writer = threading.Thread(target=write)
writer.start()
print(verify(php_standard(5), fifo, backend="native").status)
writer.join()
"""


def test_file_check_reads_a_fifo_that_a_thread_writes(fastcheck, tmp_path):
    fifo = tmp_path / "proof.fifo"
    os.mkfifo(fifo)
    result = subprocess.run(
        [sys.executable, "-c", _FIFO_CHECK, fastcheck.__file__, str(fifo)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["ACCEPTED"]


def test_file_check_finds_repeated_literals_at_the_cap_without_growth(native, tmp_path):
    # parse_line finds a repeated literal in a sorted copy before cover(), so
    # no engine sizes its per-variable arrays for 2**31 variables to raise it.
    formula = php_standard(2)
    proof = emit_drat(proof_ours.iter_proof_lines(2)).encode()
    path = tmp_path / "p.drat"
    wide = (*range(1, 17), 2147483647)  # 17 literals or more are sorted by qsort
    text = " ".join(map(str, wide))
    lines = {
        b"d 2147483647 2147483647 0": "2147483647 in clause (2147483647, 2147483647)",
        b"2147483647 2147483647 0": "2147483647 in clause (2147483647, 2147483647)",
        b"d 5 -2147483647 5 0": "5 in clause (5, -2147483647, 5)",
        f"d {text} 2147483647 0".encode(): f"2147483647 in clause {(*wide, 2147483647)}",
        f"{text} 9 0".encode(): f"9 in clause {(*wide, 9)}",
    }
    for line, message in lines.items():
        path.write_bytes(line + b"\n" + proof)
        tracemalloc.start()
        try:
            result = _same_on_both(formula, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == ((ValueError, f"line 1: duplicate literal {message}"), [])
        assert peak < 1 << 20


_PROOF_2 = emit_drat(proof_ours.iter_proof_lines(2, emit_deletions=True)).splitlines()
_TOKENS = st.one_of(
    st.integers(-8, 8).map(str),
    st.sampled_from(
        ["-0", "007", "+5", "1_0", "٣", "--1", "x", "-", "5-", "0x1",
         "2147483648", "-2147483648", str(10**20)]
    ),
)
# A literal at the cap is valid, but checking an addition with it would
# size per-variable arrays for 2**31 variables, so it only appears where
# no engine grows: in deletions, comments and malformed lines.
_AT_CAP = st.sampled_from(["2147483647", "-2147483647"])
_NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf4\x90\x80\x80"])


@st.composite
def _drat_line(draw) -> bytes:
    kind = draw(st.sampled_from(["add", "add", "delete", "delete", "comment", "blank", "bytes"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t\x0b\x0c", "\x1c\x1d\x1e\x1f "])).encode()
    if kind == "comment":
        text = draw(st.text(alphabet=" \t0123456789-cdx", max_size=10))
        return (draw(st.sampled_from(["c", " c", "\tc"])) + text + draw(_AT_CAP)).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=4)) + draw(_NOT_UTF8) + draw(st.binary(max_size=4))
    if kind == "delete":  # well-formed after a deletion prefix, or not quite one
        prefix = draw(st.sampled_from(["d ", "d  ", " d ", "d\t", "d", "d\x0c", "dd "]))
        body = draw(st.sampled_from(_PROOF_2)).removeprefix("d ")
        if draw(st.booleans()):
            body = draw(_AT_CAP) + " " + body
        return (prefix + body).encode()
    if draw(st.booleans()):  # a proof line, maybe with tokens after its 0
        tokens = draw(st.sampled_from(_PROOF_2)).split() + draw(st.lists(_TOKENS, max_size=2))
    else:
        tokens = draw(st.lists(_TOKENS, max_size=4))
    if draw(st.integers(0, 3)) and tokens[-1:] != ["0"]:
        tokens.append("0")
    separator = draw(st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", " \x1f "]))
    return (separator.join(tokens) + draw(st.sampled_from(["", " ", "\t"]))).encode()


_BREAKS = (b"\n", b"\r\n", b"\r")


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.lists(st.tuples(st.integers(0, len(_PROOF_2)), _drat_line()), max_size=6),
    st.lists(st.sampled_from(_BREAKS), min_size=len(_PROOF_2) + 6, max_size=len(_PROOF_2) + 6),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_file_check_fuzz_agrees_with_python_backend(
    native, tmp_path, inserts, breaks, complete, last_break, strict
):
    """Random lines inserted into a proof of PHP(2), complete or without its
    empty clause: accepted, rejected, incomplete or raising alike."""
    lines = [line.encode() for line in _PROOF_2[: None if complete else -1]]
    for position, line in inserts:
        lines.insert(position, line)
    data = b"".join(map(bytes.__add__, lines, breaks))
    if not last_break:
        data = data[: -len(breaks[len(lines) - 1])]
    path = tmp_path / "fuzz.drat"
    path.write_bytes(data)
    _same_on_both(php_standard(2), path, strict)


_ENGINES = ("native", "python")


def _file_counters(formula, path):
    """The counters of the native file call: RUP calls and passes, RAT calls
    and passes, additions and deletions applied."""
    db = checker.new_database(formula, "native")
    with open(path, "rb") as handle:
        return db.check_drat(handle.fileno(), False)[-1]


def _replayed_counters(formula, lines, backend):
    """The same counters from replaying ``lines`` on one engine as the file
    call checks them, ``db.rat(lits) if lits else db.rup(lits)``, up to the
    first check that fails or the empty clause."""
    counts = dict.fromkeys(("rup", "rup_pass", "rat", "rat_pass", "adds", "deletes"), 0)
    db = checker.new_database(formula, backend)
    by_key = {}
    for cid, clause in enumerate(formula.clauses):
        by_key.setdefault(tuple(sorted(clause)), []).append(cid)
    for delete, lits in lines:
        key = tuple(sorted(lits))
        if delete:
            if by_key.get(key):
                db.delete_clause(by_key[key].pop())
                counts["deletes"] += 1
            continue
        kind = "rat" if lits else "rup"
        ok = getattr(db, kind)(list(lits))
        counts[kind] += 1
        counts[kind + "_pass"] += ok
        if not ok or not lits:
            break
        by_key.setdefault(key, []).append(db.add_clause(lits))
        counts["adds"] += 1
    return tuple(counts.values())


def _counters(formula, lines, path):
    """The counters of the file call, then those of the replay of the same
    lines on each engine."""
    replayed = [_replayed_counters(formula, lines, engine) for engine in _ENGINES]
    return (_file_counters(formula, path), *replayed)


@pytest.mark.parametrize("n", range(2, 8))
def test_file_check_counters_equal_per_line_counts(n, native, tmp_path):
    formula = php_standard(n)
    path = tmp_path / "proof.drat"
    for module, count in ((proof_ours, count_ours), (proof_cook, count_cook)):
        for deletions in (False, True):
            lines = list(module.iter_proof_lines(n, deletions))
            native_counts, python_counts = (
                _replayed_counters(formula, lines, engine) for engine in _ENGINES
            )
            assert native_counts == python_counts
            # One RUP call, on the empty clause; one RAT call per other addition.
            assert native_counts[:4] == (1, 1, count(n) - 1, count(n) - 1)
            assert native_counts[4] == count(n) - 1  # the empty clause is not stored
            text = emit_drat(lines).encode()
            # A comment beyond ASCII, UTF-8 or not, leaves the file one pass.
            for head in (b"", b"c caf\xc3\xa9\n", b"c \xff\n"):
                path.write_bytes(head + text)
                assert _file_counters(formula, path) == native_counts
    # Rejected proofs stop the file call and both replays at the same check.
    base = list(proof_ours.iter_proof_lines(n))
    rng = random.Random(n)
    for _ in range(5):
        index = rng.randrange(len(base) - 1)
        lits = tuple(-lit for lit in base[index].lits)
        mutated = base[:index] + [ProofLine(False, lits)] + base[index + 1 :]
        file_counts, native_counts, python_counts = _counters(
            formula, mutated, _proof_file(tmp_path, mutated)
        )
        assert file_counts == native_counts == python_counts


# -- reading a DIMACS CNF: the native reader against parse_dimacs --------------


def _cnf_outcome(cnf, proof, backend):
    """_outcome() of verify(cnf, proof) with the CNF as a path, and the
    number of clauses new_database(cnf) holds, or None if it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            size = len(checker.new_database(cnf, backend))
        except (ValueError, OSError):
            size = None
    return _outcome(cnf, proof, backend, False), size


def _same_cnf_on_both(cnf, proof):
    native = _cnf_outcome(cnf, proof, "native")
    assert native == _cnf_outcome(cnf, proof, "python")
    return native


def _empty_clause_proof(directory):
    path = Path(directory) / "empty.drat"
    path.write_bytes(b"0\n")
    return path


_BIG = "2147483648"  # beyond MAX_LITERAL
#: CNF texts and what both backends make of them against the proof "0":
#: the verdict, or parse_dimacs's ValueError, and the warnings.
_CNF_CASES = {
    "p cnf 2 3\n1 2 0 -1 0\n-2\n0\n": (("ACCEPTED", None, None), []),
    "c x\r\np cnf 2 2\r1 0\r\n-1 0": (("ACCEPTED", None, None), []),
    "p cnf 3 3\n1 2 0\n": (
        ("REJECTED", 1, "empty clause is not RUP (and has no pivot for RAT)"),
        ["header declares 3 clauses but file contains 1"],
    ),
    "p cnf 3 007\n-0\n": (
        ("ACCEPTED", None, None),
        ["header declares 7 clauses but file contains 1"],
    ),
    "p cnf 2 1\n1\n-2\n1 0\n": ((ValueError, "duplicate literal 1 in clause (1, -2, 1)"), []),
    f"p cnf 20 1\n{' '.join(map(str, range(1, 18)))}\n-20 5 0\n": (
        (ValueError, f"duplicate literal 5 in clause {(*range(1, 18), -20, 5)}"),
        [],
    ),
    "p cnf 2 1\n1 2\n": ((ValueError, "last clause is missing its terminating 0"), []),
    "c only\n\n": ((ValueError, "missing DIMACS header"), []),
    "1 0\np cnf 1 1\n": ((ValueError, "line 1: clause data before header"), []),
    "p cnf 1 1\np cnf 1 1\n": ((ValueError, "line 2: duplicate header"), []),
    "p cnf 1 -1\n": ((ValueError, "line 1: malformed header 'p cnf 1 -1'"), []),
    "p cnf 1 +1\n": ((ValueError, "line 1: malformed header 'p cnf 1 +1'"), []),
    "p cnf 2 1\n1 -3 0\n": ((ValueError, "line 2: literal -3 out of range 1..2"), []),
    "p cnf 2 1\n\n1 2 0 x\n": ((ValueError, "line 3: bad token 'x'"), []),
    "p cnf 2 1\n1 1 0 x\n": ((ValueError, "duplicate literal 1 in clause (1, 1)"), []),
    "p cnf 2 1\n1 1 0 +x\n": ((ValueError, "line 2: bad token '+x'"), []),
    "p cnf 12 1\n1 1_0 0\n": ((ValueError, "line 2: bad token '1_0'"), []),
    "p cnf 12 1\n1 ٣ 0\n": ((ValueError, "line 2: bad token '٣'"), []),
    # A literal beyond MAX_LITERAL but within num_vars: parse_dimacs raises
    # where its clause ends, or at the end of the file.
    f"p cnf 99999999999 1\n{_BIG}\n\n0\n": (
        (ValueError, f"literal {_BIG} out of range: |literal| > 2147483647"),
        [],
    ),
    f"p cnf 99999999999 1\n5 5\n{_BIG} 0\n": (
        (ValueError, f"duplicate literal 5 in clause (5, 5, {_BIG})"),
        [],
    ),
    f"p cnf 99999999999 1\n-{_BIG}\r\nc\r\n1 x\n": ((ValueError, "line 4: bad token 'x'"), []),
    f"p cnf 99999999999 1\n{_BIG}": (
        (ValueError, "last clause is missing its terminating 0"),
        [],
    ),
    f"p cnf 2147483647 1\n1 {_BIG} 0\n": (
        (ValueError, f"line 2: literal {_BIG} out of range 1..2147483647"),
        [],
    ),
}


@pytest.mark.parametrize("text", sorted(_CNF_CASES))
def test_cnf_reader_agrees_with_parse_dimacs(native, tmp_path, text):
    cnf = tmp_path / "case.cnf"
    cnf.write_bytes(text.encode())
    outcome, size = _same_cnf_on_both(cnf, _empty_clause_proof(tmp_path))
    assert outcome == _CNF_CASES[text]
    assert (size is None) == (outcome[0][0] is ValueError)


_CNF_LITERALS = st.integers(1, 4).flatmap(lambda var: st.sampled_from([var, -var])).map(str)
_CNF_TOKENS = st.one_of(
    _CNF_LITERALS,
    _CNF_LITERALS,
    st.just("0"),
    st.sampled_from(
        ["-0", "007", "-03", "+5", "1_0", "٣", "x", "-", "5-", _BIG, "-" + _BIG, str(10**20)]
    ),
)
_COUNTS = st.sampled_from(
    ["0", "1", "2", "3", "4", "5", "-0", "007", "2147483647", _BIG, str(10**20),
     "-1", "+3", "1_0", "٣", "x"]
)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", " \x1f ", "\xa0"])


@st.composite
def _cnf_line(draw) -> bytes:
    kind = draw(st.sampled_from(["clause"] * 5 + ["header", "comment", "blank", "bytes"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t\x0b\x0c", "\x1c\x1d\x1e\x1f "])).encode()
    if kind == "comment":
        text = draw(st.text(alphabet=" \t0123456789-cpx", max_size=8))
        return (draw(st.sampled_from(["c", " c", "\tc"])) + text).encode() + draw(_NOT_UTF8)
    if kind == "bytes":
        return draw(st.binary(max_size=3)) + draw(_NOT_UTF8) + draw(st.binary(max_size=3))
    if kind == "header":
        fields = draw(
            st.sampled_from([["p", "cnf"], ["p", "cnf"], ["p", "dnf"], ["pcnf"], ["p"]])
        ) + draw(st.lists(_COUNTS, min_size=1, max_size=3))
    else:
        fields = draw(st.lists(_CNF_TOKENS, max_size=4))
        if draw(st.booleans()):
            fields.append("0")
    return (draw(_SEPARATORS).join(fields) + draw(st.sampled_from(["", " ", "\t"]))).encode()


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["2", "3", "4"]), st.sampled_from(["0", "1", "2", "3"])),
        st.tuples(st.sampled_from(["0", "2147483647", _BIG, str(10**11)]), st.just("2")),
    ),
    st.lists(_cnf_line(), max_size=8),
    st.lists(st.sampled_from(_BREAKS), min_size=9, max_size=9),
    st.booleans(),
)
def test_cnf_reader_fuzz_agrees_with_parse_dimacs(
    native, tmp_path, header, lines, breaks, last_break
):
    """DIMACS-like bytes, read by verify(cnf_path, proof) on both backends:
    the same verdict and clause count, or the same ValueError, and the same
    warnings."""
    if header is not None:
        lines = ["p cnf {} {}".format(*header).encode()] + lines
    data = b"".join(map(bytes.__add__, lines, breaks))
    if lines and not last_break:
        data = data[: -len(breaks[len(lines) - 1])]
    cnf = tmp_path / "fuzz.cnf"
    cnf.write_bytes(data)
    _same_cnf_on_both(cnf, _empty_clause_proof(tmp_path))


def test_cnf_reader_reads_a_fifo_that_a_thread_writes(native, tmp_path):
    # The CNF may be a pipe: the error is raised from what was read, and the
    # file is never opened again.
    assert main(["gen-cnf", "3", "--out", str(tmp_path / "php3.cnf")]) == 0
    good = (tmp_path / "php3.cnf").read_bytes()
    bad = good.replace(b"-1 -4 0", b"-1\xc2\xa0-4 0")
    proof = _proof_file(tmp_path, proof_ours.iter_proof_lines(3))
    regular, fifo = tmp_path / "regular.cnf", tmp_path / "cnf.fifo"
    os.mkfifo(fifo)

    def write(data):
        try:
            with open(fifo, "wb") as out:
                out.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    for data in (good, bad):
        regular.write_bytes(data)
        for backend in ("native", "python"):
            writer = threading.Thread(target=write, args=(data,))
            writer.start()
            try:
                piped = _outcome(fifo, proof, backend, False)
            finally:
                writer.join()
            assert piped == _outcome(regular, proof, backend, False)
        expected = ("ACCEPTED", None, None) if data == good else (
            ValueError, "line 6: bad token '-1\\xa0-4'")
        assert piped == (expected, [])


def test_native_cli_reports_cnf_errors_as_the_python_backend(
    fastcheck, tmp_path, capsys, monkeypatch
):
    # A child on the compiled core against the CLI in this process on the
    # Python engine: the same exit code, output and error, byte for byte.
    src = package_with_core(fastcheck, tmp_path)
    cnf, proof = tmp_path / "php3.cnf", tmp_path / "php3.drat"
    assert main(["gen-cnf", "3", "--out", str(cnf)]) == 0
    assert main(["gen-proof", "3", "--out", str(proof)]) == 0
    good = cnf.read_bytes()
    monkeypatch.setattr(checker, "DEFAULT_BACKEND", "python")
    for data in (
        good.replace(b"-1 -4 0", b"-1\xc2\xa0-4 0"),
        b"c no header\n",
        b"p cnf 2 1\n1 2\n",
        good.replace(b"p cnf 12 22", b"p cnf 12 22\np cnf 12 22"),
        None,  # no such file
    ):
        if data is None:
            cnf.unlink()
        else:
            cnf.write_bytes(data)
        child = subprocess.run(
            [sys.executable, "-m", "pigeonproof.cli", "check", str(cnf), str(proof)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        code = main(["check", str(cnf), str(proof)])
        assert (child.returncode, child.stdout, child.stderr) == (code, *capsys.readouterr())
        assert code == 2 and child.stderr.startswith(f"error: cannot read CNF {cnf}: ")


# Checks a CNF whose header declares 2**31 - 1 variables in a child whose
# address space is capped at 1 GiB: arrays sized by the header would need
# about 100 GiB.
_CAPPED_CHECK = """
import importlib.util, resource, sys
from pigeonproof import checker, verify
spec = importlib.util.spec_from_file_location("_fastcheck", sys.argv[1])
checker._fastcheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checker._fastcheck)
checker.HAVE_NATIVE = True
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    bytearray(1 << 31)
except MemoryError:
    print("capped")
print(verify(sys.argv[2], sys.argv[3], backend="native").status)
"""


def test_cnf_header_never_sizes_arrays(fastcheck, tmp_path):
    cnf = tmp_path / "wide.cnf"
    cnf.write_bytes(b"p cnf 2147483647 2\n1 0\n-1 0\n")
    proof = _empty_clause_proof(tmp_path)
    result = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHECK, fastcheck.__file__, str(cnf), str(proof)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["capped", "ACCEPTED"]


# -- formatting clause chunks: the template join against a reference --

#: Characters the core stages before each write.
STAGED = 1 << 16


def _written(clauses, delete):
    """The text ``formats._write_clauses`` writes for ``clauses``."""
    out = io.StringIO()
    formats._write_clauses(out, delete, clauses)
    return out.getvalue()


def _reference_text(clauses, delete):
    """The text lines of ``clauses`` of ints, built without the templates."""
    prefix = "d " if delete else ""
    return "".join(prefix + "".join(f"{lit} " for lit in clause) + "0\n" for clause in clauses)


def _check_written(clauses, delete, expected):
    """``clauses`` are written as the lines of ``expected``, as deletions if
    ``delete``, or raise it if it is an exception type."""
    if isinstance(expected, str):
        prefix = "d " if delete else ""
        lines = expected.splitlines(keepends=True)
        assert _written(clauses, delete) == "".join(prefix + line for line in lines)
    else:
        with pytest.raises(expected):
            _written(clauses, delete)


_LITERALS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.sampled_from(
        [1, -1, 2**31 - 1, -(2**31 - 1), 2**63 - 1, -(2**63 - 1), -(2**63),
         2**63, -(2**63) - 1, 10**30, -(10**30), 0]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_LITERALS, max_size=6).map(tuple), max_size=20), st.booleans())
def test_format_fuzz_agrees_with_template_join(chunk, delete):
    # The template join writes every int as its decimal text, beyond int64 too.
    assert _written(chunk, delete) == _reference_text(chunk, delete)


class _Lit(enum.IntEnum):
    ONE = 1


class _Int(int):
    pass


class _Clause(tuple):
    pass


#: Chunks of clauses that are not plain int tuples, and the text the
#: template join writes for them, or the error it raises.  A literal that is
#: not an int (a float, a bool) raises rather than be written as an int.
FALLBACK_CHUNKS = {
    "bool": ([(1, 2), (True, -3)], TypeError),
    "int-enum": ([(_Lit.ONE, 2)], "1 2 0\n"),
    "int-subclass": ([(_Int(7),)], "7 0\n"),
    "tuple-subclass": ([(1,), _Clause((2, 3))], "1 0\n2 3 0\n"),
    "list-clause": ([(1,), [2, 3]], TypeError),
    "list-unit": ([[4]], TypeError),
    "str": ([(1, "2")], TypeError),
    "float": ([(1.5, 2)], TypeError),
    "none": ([(None,)], TypeError),
    "beyond-int64": ([(1,), (2**64,)], "1 0\n18446744073709551616 0\n"),
    # A row literal (first, step) exists only in a HoleRows part.
    "pair-step-0": ([(1,), (3, (7, 0))], TypeError),
    "pair-step-1": ([(5, (2, -1))], TypeError),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CHUNKS))
@pytest.mark.parametrize("delete", [False, True])
def test_format_fallback_chunks_match_template_join(case, delete):
    chunk, expected = FALLBACK_CHUNKS[case]
    _check_written(chunk, delete, expected)


def test_format_spans_several_chunks():
    rng = random.Random(7)
    clauses = [
        tuple(rng.choice((-1, 1)) * rng.randrange(1, 10**rng.randrange(1, 19))
              for _ in range(rng.randrange(5)))
        for _ in range(3 * formats._CHUNK + 5)
    ]
    for delete in (False, True):
        text = _written(clauses, delete)
        assert text == _reference_text(clauses, delete)
        assert text.count("\n") == len(clauses)


# -- formatting rows over holes: the template join against the expansion --

#: Values a row literal reaches: decade boundaries (each digit wraps, and the
#: width changes), zero, and the ends of int64 and beyond.
_MILESTONES = sorted(
    {sign * (10**k + d) for k in range(19) for d in (-1, 0, 1) for sign in (1, -1)}
    | {2**31 - 1, -(2**31 - 1), 2**63 - 1, -(2**63 - 1), -(2**63), 2**63, -(2**63) - 1, 10**30}
)


@st.composite
def _hole_rows(draw):
    """A part ``(holes, rows)``: constants, and pairs that reach a milestone
    or a random value at the first, the middle or the last hole, so that runs
    cross decades and zero and end at the ends of int64."""
    holes = draw(st.integers(0, 150))
    values = st.one_of(st.integers(-(10**6), 10**6), st.sampled_from(_MILESTONES))
    at = (0, holes // 2, max(holes - 1, 0))

    def literal():
        value = draw(values)
        step = draw(st.sampled_from([0, -1, 1]))
        return value if step == 0 else (value - step * draw(st.sampled_from(at)), step)

    nrows = draw(st.integers(0, 5))
    return holes, tuple(tuple(literal() for _ in range(draw(st.integers(0, 4)))) for _ in range(nrows))


def _expanded(holes, rows):
    """The clauses of the part ``(holes, rows)``, hole by hole."""
    return [
        tuple(lit[0] + lit[1] * h if type(lit) is tuple else lit for lit in row)
        for h in range(holes)
        for row in rows
    ]


@settings(max_examples=300, deadline=None)
@given(_hole_rows(), st.booleans())
@example((150, (((9 - 149, 1), (-10, -1), (2**63 - 150, 1), (-(2**63) + 150, -1)),)), False)
@example((21, (((-10, 1), (10, -1), (99, 1), (-99, -1), (100, -1)),)), True)
def test_format_rows_fuzz_agrees_with_expansion(part, delete):
    assert _written(HoleRows([part]), delete) == _reference_text(_expanded(*part), delete)


#: Rows over four holes that are not tuples of ints and (first, ±1) pairs,
#: and the text the template join writes for their clauses, or the error.
FALLBACK_ROWS = {
    "bool-first": ((((True, 1), 2),), "1 2 0\n2 2 0\n3 2 0\n4 2 0\n"),
    "bool-step": ((((1, True),),), "1 0\n2 0\n3 0\n4 0\n"),
    "int-enum": ((((_Lit.ONE, 1),),), "1 0\n2 0\n3 0\n4 0\n"),
    "int-subclass": (((_Int(7),),), "7 0\n" * 4),
    "tuple-subclass-row": ((_Clause(((1, 1),)),), "1 0\n2 0\n3 0\n4 0\n"),
    "list-row": (([(1, 1), (2, -1)],), "1 2 0\n2 1 0\n3 0 0\n4 -1 0\n"),
    "list-literal": ((([1, 1],),), TypeError),
    "list-of-rows": ([((1, 1),)], "1 0\n2 0\n3 0\n4 0\n"),
    "step-0": ((((7, 0), (1, 1)),), ValueError),
    "step-2": ((((1, 2),),), "1 0\n3 0\n5 0\n7 0\n"),
    "short-literal": ((((1,),),), ValueError),
    "str": ((("2",),), TypeError),
    "float": (((1.5,),), TypeError),
    "beyond-int64": (((2**63,),), f"{2**63} 0\n" * 4),
    # The first three holes fit in int64; the fourth leaves it.
    "last-hole-above-int64": (
        (((2**63 - 3, 1),),), "".join(f"{2**63 - 3 + h} 0\n" for h in range(4))
    ),
    "last-hole-below-int64": (
        (((-(2**63) + 2, -1),),), "".join(f"{-(2**63) + 2 - h} 0\n" for h in range(4))
    ),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_ROWS))
@pytest.mark.parametrize("delete", [False, True])
def test_format_fallback_rows_match_expansion(case, delete):
    rows, expected = FALLBACK_ROWS[case]
    _check_written(HoleRows([(4, rows)]), delete, expected)


def test_format_rows_rejects_bad_hole_ranges():
    rows = (((1, 1),),)
    for holes in (-1, -(2**62)):
        with pytest.raises(ValueError, match="negative hole count"):
            HoleRows([(2, rows), (holes, rows)])
    assert _written(HoleRows([(2**62, ())]), False) == ""
    assert _written(HoleRows([(0, rows)]), True) == ""
    assert _written(HoleRows([(3, rows)]), True) == "d 1 0\nd 2 0\nd 3 0\n"


@pytest.mark.parametrize("n", [37, 12000])
def test_row_block_is_written_a_hole_range_at_a_time(fastcheck, n, tmp_path):
    """The core hands its text to a callable in chunks of the staged 64 KiB,
    and writes the same bytes to a file through its descriptor.  A row
    longer than that (an at-least-one clause of PHP(12000)) is handed over
    whole, in one chunk of its own."""
    if n == 12000:
        chunks = []

        def sink(text):
            chunks.append(text)
            if len(text) > STAGED:
                raise RuntimeError("long row")

        with pytest.raises(RuntimeError, match="long row"):
            fastcheck.write_cnf(n, False, sink)
        rows = (" ".join(str(p * n + h) for h in range(1, n + 1)) + " 0\n" for p in range(n + 1))
        long_row = next(row for row in rows if len(row) > STAGED)
        assert chunks[-1] == long_row
        assert all(len(chunk) <= STAGED for chunk in chunks[:-1])
        return
    chunks = []
    written = fastcheck.write_cnf(n, False, chunks.append)
    expected = emit_dimacs(php_standard(n))
    assert "".join(chunks) == expected and written == len(expected) > 4 * STAGED
    assert [len(chunk) for chunk in chunks[:-1]] == [STAGED] * (len(chunks) - 1)
    path = tmp_path / "php.cnf"
    with open(path, "wb", buffering=0) as handle:
        fastcheck.write_cnf(n, False, handle.fileno())
    assert path.read_text() == expected


@pytest.mark.parametrize("deletions", [False, True])
@pytest.mark.parametrize("style", ["ours", "cook"])
def test_native_block_emission_matches_digests_and_golden_files(fastcheck, style, deletions):
    texts = []
    for n in range(2, 9):
        parts = []
        fastcheck.write_proof(n, style == "ours", deletions, parts.append)
        texts.append("".join(parts))
        golden = GOLDEN / f"proof-{style}-{n}{'-deletions' if deletions else ''}.drat"
        if golden.exists():
            assert golden.read_bytes() == texts[-1].encode(), golden.name
    assert sha256("".join(texts)) == DRAT_DIGESTS[style, deletions]


@pytest.mark.parametrize("style, n, deletions", sorted(BUILDER_DIGESTS))
def test_native_block_emission_beyond_golden_sizes_is_unchanged(fastcheck, style, n, deletions):
    core = _Digest()
    fastcheck.write_proof(n, style == "ours", deletions, core.write)
    assert core.hash.hexdigest() == BUILDER_DIGESTS[style, n, deletions]


@pytest.mark.parametrize("encode", [php_standard, php_amo], ids=["standard", "amo"])
def test_native_dimacs_emission_matches_digests_and_golden_files(fastcheck, encode):
    texts = []
    for n in range(1, 7):
        parts = []
        fastcheck.write_cnf(n, encode is php_amo, parts.append)
        texts.append("".join(parts))
        golden = GOLDEN / f"php-{encode.__name__[4:]}-{n}.cnf"
        if golden.exists():
            assert golden.read_bytes() == texts[-1].encode(), golden.name
    assert sha256("".join(texts)) == DIMACS_DIGESTS[encode]
