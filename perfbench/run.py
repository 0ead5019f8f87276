#!/usr/bin/env python3
"""pigeonproof benchmark: three CLI workloads and a traced per-layer profile.

Run from the repository root:

    python3 perfbench/run.py --workload ours-check --seed 1 --seconds 40 --trace 0

Workloads (each timed as fresh ``python -m pigeonproof.cli`` children):

* ``ours-check``: ``check`` of php_standard(14) against the ``ours`` proof
  without deletions (6,043 lines).  Nearly every addition fails RUP and is
  accepted by RAT, so this stresses the RAT path and layer growth.
* ``cook-check-del``: ``check`` of php_standard(14) against the ``cook`` proof
  with deletions (27,162 lines).  Mostly RUP that passes, plus the deletion
  path and the most parse time per checker second.
* ``ours-gen``: ``gen-proof 60 --style ours`` to a file (524,417 lines).
  Generation and emission only; a checker change should not move it.  The
  file must match the pinned size and SHA-256 of that proof byte for byte.

Each child takes one to two seconds on the pure-Python engine, so a run
holds a dozen or more repetitions and their median is steady on a shared
machine.

With ``--trace 0`` every workload sets up, then repeats its CLI child until
``--seconds`` have passed since the run began (at least three times).  A fixed reference program runs as a child
before the first repetition and after each one, and a repetition's time is
its wall time over the mean of the two reference runs around it.  The run
reports the median of those ratios (``run_ref``), the peak RSS of the
children (from ``os.wait4``) and the median set-up time (``setup_s``, also
over reference runs on each side: seconds on a machine where the reference
program takes one second); the context line adds the median wall seconds.
Every child's output is checked, and each check workload also runs a
soundness gate: the seed drops one clause from the formula, which leaves it
satisfiable, so ``check`` must not accept.

With ``--trace 1`` the run profiles the named workload layer by layer in this
process instead (see ``trace_layers.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means a result was
printed; 2 means the benchmark could not run (for example, no sources).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MIN_REPS = 3
SETUP_REPS = 7
# A child that runs longer than this is killed and counted as failed, so a
# hung program still ends the run within three minutes.
CHILD_TIMEOUT_S = 120.0
# The paper's count of additions in the ``ours`` refutation at n=100; an
# anchor for the closed-form count that does not come from this code.
PAPER_OURS_ADDITIONS = (100, 2_456_527)
# A fixed program timed before the first repetition and after each one; a
# repetition's time is reported over it (see reference.py for why).
REFERENCE = [sys.executable, str(Path(__file__).resolve().parent / "reference.py")]
# ``gen-proof 60 --style ours``: its size and SHA-256, pinned when the
# benchmark was written (the n=4 proof it yields is the golden file
# tests/golden/proof-ours-4.drat, byte for byte).
OURS_60 = (10_114_414, "f9253b6a17b21bbee40bcd04bbb912e46a03aaad04f69c48a74ab1cba5df33d7")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "check" or "gen"
    style: str
    n: int
    deletions: bool
    # The (bytes, SHA-256) of the proof a generate workload must write.
    output: tuple[int, str] | None = None

    @property
    def stem(self) -> str:
        return f"{self.style}-{self.n}{'-del' if self.deletions else ''}"


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("ours-check", "check", "ours", 14, False),
        Workload("cook-check-del", "check", "cook", 14, True),
        Workload("ours-gen", "gen", "ours", 60, False, OURS_60),
    )
}


class BenchError(Exception):
    """The benchmark cannot run at all; no result is printed."""


# -- build ----------------------------------------------------------------


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    files = sorted(
        p
        for p in (root / "src").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts and ".egg-info" not in str(p)
        and p.suffix != ".so"
    )
    for path in files + [root / "setup.py", root / "pyproject.toml"]:
        if path.exists():
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def build(root: Path, work: Path) -> Path:
    """Copy the package into ``work`` and build its extensions there.

    Returns the directory to put on PYTHONPATH.  The copy is rebuilt only
    when the sources change.  A failed or absent native build leaves the
    pure-Python engine active; the backend is recorded with every result.
    """
    if not (root / "src" / "pigeonproof" / "cli.py").is_file():
        raise BenchError(f"no pigeonproof sources under {root / 'src'}")
    pkg = work / "pkg"
    stamp = pkg / "BUILT"
    digest = _source_digest(root)
    if stamp.is_file() and stamp.read_text() == digest:
        return pkg / "src"
    shutil.rmtree(pkg, ignore_errors=True)
    shutil.copytree(
        root / "src",
        pkg / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "*.so"),
    )
    for name in ("setup.py", "pyproject.toml"):
        if (root / name).is_file():
            shutil.copy2(root / name, pkg / name)
    if (pkg / "setup.py").is_file():
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
            cwd=pkg,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=800,
        )
        if proc.returncode != 0:
            print(f"warning: native build failed:\n{proc.stdout[-2000:]}", file=sys.stderr)
    stamp.write_text(digest)
    return pkg / "src"


# -- children -------------------------------------------------------------


# Starts one child and reports its exit code, wall seconds and ``wait4``
# peak RSS (KiB) to the file named first.  Linux carries a process's RSS into
# a forked child across ``exec`` (and its peak RSS into a vforked one, which
# is how ``subprocess`` starts children), so a child's peak RSS is never
# below its parent's.  This small process forks every timed child, which
# keeps that floor near 10 MiB, below any child that imports pigeonproof,
# whatever the size of the harness.
SPAWNER = """
import os, sys, time
result, *argv = sys.argv[1:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execvp(argv[0], argv)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(result, "w") as out:
    out.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}")
"""


@dataclasses.dataclass
class Child:
    returncode: int
    wall_s: float
    rss_mib: float
    stdout: str


class ChildTimeout(Exception):
    """A child ran longer than ``CHILD_TIMEOUT_S``."""


def _child_timed_out(signum, frame):
    raise ChildTimeout


def run_child(argv: list[str], env: dict[str, str], work: Path) -> Child:
    """Run one child to completion; wall time and peak RSS from ``wait4``.

    A child still running after ``CHILD_TIMEOUT_S`` is killed with its
    spawner; it, or a spawner that failed, is reported with return code -9.
    The wait blocks and a timer signal ends it: ``Popen.wait(timeout=...)``
    polls with sleeps of up to 50 ms, which would add up to 50 ms to every
    set-up step timed around this call.
    """
    out_path = work / "child.out"
    result_path = work / "child.result"
    result_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(work / "child.err", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-c", SPAWNER, str(result_path), *argv],
                                stdout=out, stderr=err, env=env, cwd=work,
                                start_new_session=True)
        previous = signal.signal(signal.SIGALRM, _child_timed_out)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            proc.wait()
        except ChildTimeout:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0 or not result_path.is_file():
        return Child(-9, CHILD_TIMEOUT_S, 0.0, stdout)
    code, wall, rss_kib = result_path.read_text().split()
    return Child(int(code), float(wall), int(rss_kib) / 1024.0, stdout)


def child_env(pythonpath: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pythonpath)
    return env


def cli(*args: object) -> list[str]:
    return [sys.executable, "-m", "pigeonproof.cli", *map(str, args)]


def reference_s(env: dict[str, str], work: Path) -> float:
    """Wall seconds of one run of the reference program."""
    child = run_child(REFERENCE, env, work)
    if child.returncode != 0:
        raise BenchError(f"the reference program exited with {child.returncode}")
    return child.wall_s


def checked(child: Child, what: str) -> str:
    if child.returncode != 0:
        raise BenchError(f"{what} exited with {child.returncode}")
    return child.stdout


# -- set-up ----------------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    backend: str
    cnf: Path | None = None
    proof: Path | None = None
    reduced_cnf: Path | None = None
    dropped_clause: int | None = None
    expected_additions: int | None = None


def drop_clause(cnf_text: str, seed: int) -> tuple[str, int]:
    """Remove the seed's choice of clause from canonical DIMACS text.

    The pigeonhole formula is minimally unsatisfiable, so the result is
    satisfiable and no sound checker may accept a refutation of it.
    """
    header, *clauses = cnf_text.splitlines()
    fields = header.split()
    if fields[:2] != ["p", "cnf"] or int(fields[3]) != len(clauses):
        raise BenchError("generated CNF is not one clause per line")
    index = random.Random(seed).randrange(len(clauses))
    del clauses[index]
    lines = [f"p cnf {fields[2]} {len(clauses)}", *clauses]
    return "\n".join(lines) + "\n", index


def set_up(wl: Workload, seed: int, env: dict[str, str], work: Path) -> Inputs:
    """Prepare a workload's inputs with CLI children (timed as ``setup_s``)."""
    probe = [sys.executable, "-c", "import pigeonproof; print(pigeonproof.DEFAULT_BACKEND)"]
    inputs = Inputs(backend=checked(run_child(probe, env, work), "backend probe").strip())
    if wl.kind == "gen":
        text = checked(run_child(cli("count", wl.n, "--style", wl.style), env, work), "count")
        inputs.expected_additions = int(text.strip())
        return inputs
    inputs.cnf = work / f"php-{wl.n}.cnf"
    inputs.proof = work / f"{wl.stem}.drat"
    inputs.reduced_cnf = work / f"php-{wl.n}-drop.cnf"
    checked(run_child(cli("gen-cnf", wl.n, "--out", inputs.cnf), env, work), "gen-cnf")
    extra = ["--deletions"] if wl.deletions else []
    gen = cli("gen-proof", wl.n, "--style", wl.style, *extra, "--out", inputs.proof)
    checked(run_child(gen, env, work), "gen-proof")
    reduced, inputs.dropped_clause = drop_clause(inputs.cnf.read_text(), seed)
    inputs.reduced_cnf.write_text(reduced)
    return inputs


def timed_set_up(wl: Workload, seed: int, env: dict[str, str],
                 work: Path) -> tuple[Inputs, float, float]:
    """Set up ``SETUP_REPS`` times, the reference program running before and after each.

    Returns the inputs, the median of each set-up's wall time over the mean
    of the reference runs around it, and the last reference time.
    """
    refs = [reference_s(env, work)]
    ratios = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = set_up(wl, seed, env, work)
        wall = time.perf_counter() - start
        refs.append(reference_s(env, work))
        ratios.append(wall * 2 / (refs[-2] + refs[-1]))
    return inputs, statistics.median(ratios), refs[-1]


# -- output checks ---------------------------------------------------------


def gen_output_ok(path: Path, expected: tuple[int, str], expected_additions: int) -> bool:
    """The file has the pinned (bytes, SHA-256) and ``expected_additions`` lines.

    Hashed in chunks as it is read, so the check holds at any proof size.
    """
    digest = hashlib.sha256()
    size = lines = 0
    try:
        with open(path, "rb") as handle:
            while chunk := handle.read(1 << 20):
                digest.update(chunk)
                size += len(chunk)
                lines += chunk.count(b"\n")
    except OSError:
        return False
    return (size, digest.hexdigest()) == expected and lines == expected_additions


def soundness_gate(inputs: Inputs, env: dict[str, str], work: Path) -> bool:
    """``check`` must reject the proof against the satisfiable reduced formula."""
    child = run_child(cli("check", inputs.reduced_cnf, inputs.proof), env, work)
    verdict = child.stdout.split()[:1]
    return child.returncode == 1 and verdict in (["REJECTED"], ["INCOMPLETE"])


# -- context and output ----------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context(wl: Workload, seed: int, backend: str, **extra: object) -> dict[str, object]:
    return {
        "workload": wl.name,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "n": wl.n,
        "style": wl.style,
        "deletions": wl.deletions,
        "seed": seed,
        **extra,
    }


def report(ctx: dict[str, object], metrics: dict[str, tuple[float, str]],
         attempted: int, failed: int) -> dict[str, object]:
    """Print the context, one line per metric and the final JSON result."""
    print("context " + json.dumps(ctx, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed}/{attempted} = {failed / attempted:.3f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


# -- untraced workload run -------------------------------------------------


def measure(wl: Workload, seed: int, seconds: float, root: Path, work: Path) -> dict[str, object]:
    """Time the workload's CLI child end to end and check every output."""
    env = child_env(build(root, work))
    # The run's ``seconds`` include the set-ups, so a slow machine does not
    # make a run longer than that plus one repetition.
    start = time.perf_counter()
    inputs, setup_s, ref = timed_set_up(wl, seed, env, work)
    if wl.kind == "check":
        argv = cli("check", inputs.cnf, inputs.proof)
        lines = inputs.proof.read_bytes().count(b"\n")
        size = inputs.proof.stat().st_size
    else:
        out = work / f"{wl.stem}.drat"
        argv = cli("gen-proof", wl.n, "--style", wl.style, "--out", out)
        lines = inputs.expected_additions

    walls, refs, ratios, rss = [], [], [], []
    attempted = failed = 0
    if wl.kind == "gen":
        # The count the ours-gen output is checked against must itself agree
        # with the paper's headline count.
        n, additions = PAPER_OURS_ADDITIONS
        count = run_child(cli("count", n, "--style", "ours"), env, work)
        attempted += 1
        failed += count.returncode != 0 or count.stdout.strip() != str(additions)
    refs.append(ref)
    pair_s = 0.0
    # Start another repetition only if it should end within ``seconds``.
    while len(walls) < MIN_REPS or time.perf_counter() - start + pair_s < seconds:
        pair_start = time.perf_counter()
        child = run_child(argv, env, work)
        refs.append(reference_s(env, work))
        pair_s = time.perf_counter() - pair_start
        if wl.kind == "check":
            ok = child.returncode == 0 and child.stdout.strip() == "ACCEPTED"
        else:
            ok = child.returncode == 0 and gen_output_ok(out, wl.output,
                                                         inputs.expected_additions)
            size = out.stat().st_size if out.exists() else 0
        walls.append(child.wall_s)
        ratios.append(child.wall_s * 2 / (refs[-2] + refs[-1]))
        rss.append(child.rss_mib)
        attempted += 1
        failed += not ok
        print(f"rep {len(walls)}: {child.wall_s:.3f} s, {ratios[-1]:.3f} ref, "
              f"{child.rss_mib:.1f} MiB, {'ok' if ok else 'FAILED'}", file=sys.stderr)
    if wl.kind == "check":
        attempted += 1
        if not soundness_gate(inputs, env, work):
            failed += 1
            print("soundness gate FAILED: check accepted a satisfiable formula", file=sys.stderr)

    run_ref = statistics.median(ratios)
    metrics = {
        "run_ref": (run_ref, "ref"),
        "lines_per_ref": (lines / run_ref, "lines/ref"),
        "peak_rss_mb": (max(rss), "MiB"),
        "setup_s": (setup_s, "s"),
    }
    ctx = context(
        wl, seed, inputs.backend, lines=lines, bytes=size, reps=len(walls),
        wall_s_median=statistics.median(walls), reference_s_median=statistics.median(refs),
        dropped_clause=inputs.dropped_clause,
    )
    return report(ctx, metrics, attempted, failed)


# -- traced run -------------------------------------------------------------


def trace(wl: Workload, seed: int, root: Path, work: Path,
          workloads: dict[str, Workload] = WORKLOADS) -> dict[str, object]:
    """Profile the workload layer by layer in this process; write the spans to ``work``.

    ``iter.k<k>`` metrics cover the iterations of the largest check workload
    in ``workloads``, so every traced run reports the same metrics.
    """
    pythonpath = build(root, work)
    env = child_env(pythonpath)
    inputs = set_up(wl, seed, env, work)
    if wl.kind == "check":
        proof_bytes = inputs.proof.read_bytes()

        def judge(path: Path) -> bool:
            return path.read_bytes() == proof_bytes
    else:
        def judge(path: Path) -> bool:
            return gen_output_ok(path, wl.output, inputs.expected_additions)
    iterations = max(other.n for other in workloads.values() if other.kind == "check") - 1
    sys.path.insert(0, str(pythonpath))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import trace_layers

    before = reference_s(env, work)
    metrics, outcome, spans, facts = trace_layers.profile(
        wl, inputs.cnf, inputs.proof, judge, iterations, work)
    # The machine's speed during the profile, to compare layer times across runs.
    metrics["reference.s"] = ((before + reference_s(env, work)) / 2, "s")
    for name, ok in outcome.items():
        if not ok:
            print(f"self-check FAILED: {name}", file=sys.stderr)
    ctx = context(wl, seed, inputs.backend, traced=True, **facts)
    result = report(ctx, metrics, len(outcome), sum(not ok for ok in outcome.values()))
    trace_file = work / f"trace-{wl.name}-seed{seed}.json"
    trace_file.write_text(json.dumps(
        {"context": ctx, "checks": outcome, "result": result, "spans": spans}))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    try:
        if args.trace:
            trace(WORKLOADS[args.workload], args.seed, ROOT, work)
        else:
            measure(WORKLOADS[args.workload], args.seed, args.seconds, ROOT, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
