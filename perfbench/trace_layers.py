"""Traced per-layer profile of one pigeonproof workload, timed from outside each layer.

Layers and the public functions timed at their boundary:

* generate: ``proof_ours.iter_proof_lines`` / ``proof_cook.iter_proof_lines``
  for the workload's proof (the ours-gen output, or a check workload's input
  as its set-up writes it);
* emit: ``formats.write_drat`` on the same lines, chunk by chunk;
* parse: ``formats.parse_dimacs`` and ``formats.iter_drat_lines`` on a check
  workload's files;
* checker: ``checker.verify``, once untimed inside and once with its clause
  database wrapped so that every engine call is timed (its self time is the
  rest);
* propagation: the engine calls ``add_clause``, ``rup``, ``rat`` and
  ``delete_clause``, replayed through ``checker.new_database()`` with every
  line tagged by ``iter_tagged_lines`` so time splits by clause family and by
  iteration k.

Only the named workload is profiled.  Every per-layer metric is reported; a
layer that does no work in that workload (the checker in ours-gen, deletion
in ours-check) reports 0, and so does every rate and share over it.  Spans
stay in memory and are returned to the caller, which writes them out when
the run ends.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import time
from pathlib import Path

from pigeonproof import checker, formats, proof_cook, proof_ours

GENERATORS = {"ours": proof_ours, "cook": proof_cook}
FAMILIES = ("definition", "y-definition", "derived", "alo", "pair")
CHUNK_LINES = 4096


class Spans:
    """Spans kept in memory: name, start, end and the id of the parent span."""

    def __init__(self) -> None:
        self.rows: list[dict[str, object]] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        self.rows.append({"id": len(self.rows), "name": name, "parent": parent,
                          "start": start, "end": end})
        return len(self.rows) - 1

    def open(self, name: str, parent: int | None = None) -> int:
        return self.add(name, time.perf_counter(), 0.0, parent)

    def close(self, span: int) -> float:
        row = self.rows[span]
        row["end"] = time.perf_counter()
        return row["end"] - row["start"]


@dataclasses.dataclass
class EngineStats:
    """Counts and busy time of the clause-database calls."""

    add_calls: int = 0
    add_s: float = 0.0
    delete_calls: int = 0
    delete_s: float = 0.0
    rup_calls: int = 0
    rup_pass: int = 0
    rup_s: float = 0.0
    rat_calls: int = 0
    rat_pass: int = 0
    rat_s: float = 0.0
    active: int = 0
    peak_active: int = 0

    def counters(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.type == "int" and f.name != "active"}

    @property
    def engine_s(self) -> float:
        return self.add_s + self.delete_s + self.rup_s + self.rat_s


class TimedDatabase:
    """A clause database whose every call is timed and counted."""

    def __init__(self, db, stats: EngineStats) -> None:
        self._db = db
        self._stats = stats

    def add_clause(self, lits):
        start = time.perf_counter()
        cid = self._db.add_clause(lits)
        stats = self._stats
        stats.add_s += time.perf_counter() - start
        stats.add_calls += 1
        stats.active += 1
        stats.peak_active = max(stats.peak_active, stats.active)
        return cid

    def delete_clause(self, cid):
        start = time.perf_counter()
        self._db.delete_clause(cid)
        stats = self._stats
        stats.delete_s += time.perf_counter() - start
        stats.delete_calls += 1
        stats.active -= 1

    def rup(self, lits):
        start = time.perf_counter()
        ok = self._db.rup(lits)
        stats = self._stats
        stats.rup_s += time.perf_counter() - start
        stats.rup_calls += 1
        stats.rup_pass += ok
        return ok

    def rat(self, lits):
        start = time.perf_counter()
        ok = self._db.rat(lits)
        stats = self._stats
        stats.rat_s += time.perf_counter() - start
        stats.rat_calls += 1
        stats.rat_pass += ok
        return ok


def generate_and_emit(wl, out_path: Path, spans: Spans, parent: int):
    """Generate the workload's proof and write it as DRAT, timing the two layers apart.

    Returns (generate seconds, emit seconds, lines, bytes); the file stays in
    ``out_path`` for the caller to check.
    """
    lines = GENERATORS[wl.style].iter_proof_lines(wl.n, emit_deletions=wl.deletions)
    gen_s = emit_s = 0.0
    total = 0
    with open(out_path, "w", encoding="utf-8", newline="") as out:
        while True:
            start = time.perf_counter()
            chunk = list(itertools.islice(lines, CHUNK_LINES))
            mid = time.perf_counter()
            if not chunk:
                break
            formats.write_drat(out, chunk)
            end = time.perf_counter()
            spans.add("generate", start, mid, parent)
            spans.add("emit", mid, end, parent)
            gen_s += mid - start
            emit_s += end - mid
            total += len(chunk)
    return gen_s, emit_s, total, out_path.stat().st_size


def plain_generate_and_emit(wl, out_path: Path) -> float:
    """Seconds to generate and write the proof as the CLI does, without spans."""
    start = time.perf_counter()
    with open(out_path, "w", encoding="utf-8", newline="") as out:
        formats.write_drat(out, GENERATORS[wl.style].iter_proof_lines(
            wl.n, emit_deletions=wl.deletions))
    return time.perf_counter() - start


def traced_verify(formula, lines, stats: EngineStats) -> tuple[checker.Verdict, float]:
    """``checker.verify`` with its database wrapped in a :class:`TimedDatabase`."""
    real = checker.new_database

    def timed_database(formula=None, backend=None):
        return TimedDatabase(real(formula, backend), stats)

    checker.new_database = timed_database
    try:
        start = time.perf_counter()
        verdict = checker.verify(formula, lines)
        wall = time.perf_counter() - start
    finally:
        checker.new_database = real
    return verdict, wall


def replay(formula, tagged, stats: EngineStats, spans: Spans, parent: int):
    """Replay tagged proof lines through the database API, as ``verify`` does.

    Returns the verdict as (status, line) and per-(tag, k) [lines, seconds].
    """
    db = TimedDatabase(checker.new_database(), stats)
    by_key: dict[tuple[int, ...], list[int]] = {}
    for clause in formula.clauses:
        by_key.setdefault(tuple(sorted(clause)), []).append(db.add_clause(clause))
    cost: dict[tuple[str, int], list] = {}
    verdict = (checker.INCOMPLETE, None)
    block, block_start = None, time.perf_counter()
    for lineno, (tag, k, line) in enumerate(tagged, start=1):
        if (tag, k) != block:
            now = time.perf_counter()
            if block is not None:
                spans.add(f"{block[0]}.k{block[1]}", block_start, now, parent)
            block, block_start = (tag, k), now
        start = time.perf_counter()
        lits = line.lits
        ok = True
        if line.delete:
            stack = by_key.get(tuple(sorted(lits)))
            if stack:
                db.delete_clause(stack.pop())
        else:
            ok = db.rup(list(lits)) or (bool(lits) and db.rat(list(lits)))
            if ok and lits:
                by_key.setdefault(tuple(sorted(lits)), []).append(db.add_clause(lits))
        entry = cost.setdefault((tag, k), [0, 0.0])
        entry[0] += 1
        entry[1] += time.perf_counter() - start
        if not ok:
            verdict = (checker.REJECTED, lineno)
            break
        if not line.delete and not lits:
            verdict = (checker.ACCEPTED, None)
            break
    if block is not None:
        spans.add(f"{block[0]}.k{block[1]}", block_start, time.perf_counter(), parent)
    return verdict, cost


@dataclasses.dataclass
class CheckProfile:
    """Layer figures of a check workload; all 0 for a workload that checks nothing."""

    parse_s: float = 0.0
    parse_lines: int = 0
    verify_s: float = 0.0
    traced_verify_s: float = 0.0
    verify_engine_s: float = 0.0
    replay: EngineStats = dataclasses.field(default_factory=EngineStats)
    cost: dict = dataclasses.field(default_factory=dict)
    checks: dict[str, bool] = dataclasses.field(default_factory=dict)


def profile_check(wl, cnf: Path, proof: Path, spans: Spans, parent: int) -> CheckProfile:
    span = spans.open("parse", parent)
    formula = formats.parse_dimacs(cnf.read_text(encoding="utf-8"))
    with open(proof, encoding="utf-8") as handle:
        parsed = list(formats.iter_drat_lines(handle))
    parse_s = spans.close(span)
    parse_lines = cnf.read_bytes().count(b"\n") + proof.read_bytes().count(b"\n")

    # Untraced runs on both sides of the traced one, so that the tracing
    # overhead is not confounded with a drift of the machine's speed.
    span = spans.open("verify", parent)
    verdict = checker.verify(formula, parsed)
    verify_s = spans.close(span)

    span = spans.open("verify.traced", parent)
    verify_stats = EngineStats()
    traced, traced_s = traced_verify(formula, parsed, verify_stats)
    spans.close(span)

    span = spans.open("verify", parent)
    again = checker.verify(formula, parsed)
    verify_s = (verify_s + spans.close(span)) / 2

    tagged = list(GENERATORS[wl.style].iter_tagged_lines(wl.n, emit_deletions=wl.deletions))
    span = spans.open("replay", parent)
    stats = EngineStats()
    replayed, cost = replay(formula, tagged, stats, spans, span)
    spans.close(span)

    checks = {
        "verify accepts": verdict.accepted,
        "verify repeats its verdict": (again.status, again.line) == (verdict.status, verdict.line),
        "traced verify agrees": (traced.status, traced.line) == (verdict.status, verdict.line),
        "tagged lines equal parsed lines": [line for _, _, line in tagged] == parsed,
        "replay agrees with verify": replayed == (verdict.status, verdict.line),
        "replay counters equal traced verify counters": stats.counters() == verify_stats.counters(),
    }
    return CheckProfile(parse_s, parse_lines, verify_s, traced_s, verify_stats.engine_s,
                        stats, cost, checks)


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 when the layer did no work in this workload."""
    return part / whole if whole else 0.0


def profile(wl, cnf: Path | None, proof: Path | None, judge, iterations: int, work: Path):
    """Profile workload ``wl``; returns (metrics, checks, spans, facts).

    The proof is generated and written in this process, and ``judge`` must
    accept the file.  A check workload (``cnf`` and ``proof`` given) is then
    parsed, verified and replayed; a generate workload is also written
    without spans before and after, to measure the tracing overhead.  ``iter.k<k>`` metrics
    are reported for k = 1 .. ``iterations``.
    """
    spans = Spans()
    top = spans.open(wl.name)
    out = work / "trace-proof.drat"
    checks = {}
    plain_s = []
    if cnf is None:
        span = spans.open("generate+emit.plain", top)
        plain_s.append(plain_generate_and_emit(wl, out))
        spans.close(span)
        checks["the proof written without spans is the expected one"] = judge(out)
    span = spans.open("generate+emit", top)
    gen_s, emit_s, gen_lines, gen_bytes = generate_and_emit(wl, out, spans, span)
    spans.close(span)
    checks["the proof written in this process is the expected one"] = judge(out)
    if cnf is None:
        span = spans.open("generate+emit.plain", top)
        plain_s.append(plain_generate_and_emit(wl, out))
        spans.close(span)
        checks["the proof written without spans again is the expected one"] = judge(out)
        prof = CheckProfile()
        overhead_s = gen_s + emit_s - statistics.mean(plain_s)
    else:
        prof = profile_check(wl, cnf, proof, spans, top)
        checks.update(prof.checks)
        overhead_s = prof.traced_verify_s - prof.verify_s
    out.unlink()
    spans.close(top)

    stats = prof.replay
    metrics = {
        "generate.s": (gen_s, "s"),
        "generate.lines_per_s": (gen_lines / gen_s, "lines/s"),
        "emit.s": (emit_s, "s"),
        "emit.mb_per_s": (gen_bytes / 1e6 / emit_s, "MB/s"),
        "parse.s": (prof.parse_s, "s"),
        "parse.lines_per_s": (share(prof.parse_lines, prof.parse_s), "lines/s"),
        "verify.s": (prof.verify_s, "s"),
        "verify.self_s": (prof.traced_verify_s - prof.verify_engine_s, "s"),
        "rup.calls": (stats.rup_calls, "count"),
        "rup.pass": (stats.rup_pass, "count"),
        "rup.s": (stats.rup_s, "s"),
        "rup.wasted_share": (share(stats.rup_calls - stats.rup_pass, stats.rup_calls), "share"),
        "rat.calls": (stats.rat_calls, "count"),
        "rat.pass": (stats.rat_pass, "count"),
        "rat.s": (stats.rat_s, "s"),
        "add.calls": (stats.add_calls, "count"),
        "add.s": (stats.add_s, "s"),
        "delete.calls": (stats.delete_calls, "count"),
        "delete.s": (stats.delete_s, "s"),
        "db.peak_active": (stats.peak_active, "count"),
    }
    for family in FAMILIES:
        entries = [v for (tag, _), v in prof.cost.items() if tag == family]
        metrics[f"family.{family}.lines"] = (sum(e[0] for e in entries), "count")
        metrics[f"family.{family}.s"] = (sum(e[1] for e in entries), "s")
    for k in range(1, iterations + 1):
        entries = [v for (tag, kk), v in prof.cost.items()
                   if kk == k and tag not in ("delete", "empty")]
        adds = sum(e[0] for e in entries)
        metrics[f"iter.k{k}.us_per_add"] = (share(sum(e[1] for e in entries) * 1e6, adds), "us")
    metrics["trace.overhead_s"] = (overhead_s, "s")

    facts = {
        "gen_lines": gen_lines,
        "gen_bytes": gen_bytes,
        "check_lines": sum(v[0] for v in prof.cost.values()),
    }
    return metrics, checks, spans.rows, facts
