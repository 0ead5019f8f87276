"""A fixed yardstick program, timed next to every workload repetition.

The speed of a shared machine drifts by tens of percent within seconds and
over minutes, and different programs drift by different amounts.  ``run.py``
therefore reports each repetition's wall time over the wall time of this
program, run just before and just after it.  It does in small what the
workloads do: watched-literal unit propagation over a random 3-CNF through
method calls, lists and dicts, and DIMACS-style lines formatted and written
to a file in the working directory.  It uses only the standard library and
shares no code with pigeonproof, so a change to the package moves only the
numerator of the ratio.  Its inputs are fixed, so its work never changes.

    python3 perfbench/reference.py     # about 0.8 s on CPython 3.11, Xeon
"""

import random


class Database:
    def __init__(self, nvars):
        self.clauses = []
        self.watch = {}
        self.values = [0] * (nvars + 1)
        self.trail = []

    def value(self, lit):
        v = self.values[lit if lit > 0 else -lit]
        return v if lit > 0 else -v

    def add(self, lits):
        cid = len(self.clauses)
        self.clauses.append(list(lits))
        self.watch.setdefault(lits[0], []).append(cid)
        self.watch.setdefault(lits[1], []).append(cid)

    def propagate(self, assumptions):
        """Number of literals set by propagating the assumptions; undone after."""
        trail = self.trail
        for lit in assumptions:
            if self.value(lit) == 0:
                self.values[abs(lit)] = 1 if lit > 0 else -1
                trail.append(lit)
        head = 0
        while head < len(trail):
            flit = -trail[head]
            head += 1
            for cid in self.watch.get(flit, ()):
                unset = [lit for lit in self.clauses[cid] if self.value(lit) >= 0]
                if len(unset) == 1 and self.value(unset[0]) == 0:
                    self.values[abs(unset[0])] = 1 if unset[0] > 0 else -1
                    trail.append(unset[0])
        count = len(trail)
        for lit in trail:
            self.values[abs(lit)] = 0
        trail.clear()
        return count


def main():
    rng = random.Random(1)
    nvars = 2000
    db = Database(nvars)
    for _ in range(7000):
        db.add([rng.choice((-1, 1)) * rng.randrange(1, nvars + 1) for _ in range(3)])
    with open("reference.out", "w", encoding="utf-8") as out:
        for _ in range(600):
            db.propagate([rng.choice((-1, 1)) * rng.randrange(1, nvars + 1) for _ in range(40)])
            out.write("".join(" ".join(map(str, cl)) + " 0\n" for cl in db.clauses[:400]))


if __name__ == "__main__":
    main()
