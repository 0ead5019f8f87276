/* Compiled clause database with watched-literal propagation and RUP/RAT.

   A drop-in replacement for ``propagation.ClauseDatabase``: the same methods
   (add_clause, delete_clause, clause, __len__, rup, rat, snapshot), the same
   verdicts and the same exceptions.  rat is the one check of a non-empty
   addition: a screen for a blocked clause, then RUP on the whole clause,
   then the resolvents on that same trail (see rat_check).  check_drat also
   checks a whole text DRAT file in one call: it reads and parses the file,
   runs rat on every non-empty addition and rup on the empty clause, and
   finds each deleted clause through the occurrence lists, deciding every
   byte with the grammar of formats.parse_drat_line.  FastDatabase(fd) reads
   a DIMACS CNF with the same chunked reader and token rules and the grammar
   of formats.parse_dimacs, and stores each clause as soon as its 0 is read,
   so checker.verify builds no clause tuple for a CNF file.  Both readers
   report alike: each gives its warnings from C as it reaches them, and at
   the first line the Python parser rejects it stops with a ValueError that
   holds what checker needs to raise that parser's error (see db_check_drat
   and read_dimacs).  Literals are int32 in one flat buffer; watch and
   occurrence lists are growable vectors of clause ids indexed by literal
   code (v -> 2v, -v -> 2v+1).  The assignment, the trail and the scratch
   marks (a bit per sign, see sign_bit) are indexed by variable and grow
   with the largest variable seen, so the trail has room for every variable
   and never grows during a check.

   Arguments are validated and every array is grown before any state changes;
   a growth that fails leaves the object as it was and raises MemoryError.

   All emitted text, DIMACS or DRAT lines, is written by one formatter,
   write_part, from the rows of a part: its row literals, back to back, and
   the length of each row, so no clause tuple is ever built.  A plain clause
   is a row of constants, written as a part of one hole.  Every part is
   formatted once, at its first hole, into a stage, and each literal of
   step -1 or 1 is then stepped in place from hole to hole; the stage is
   copied out at each hole.  The text goes through one 64 KiB buffer,
   reused for the whole call, to a file descriptor with write(2) without
   the GIL, or as str chunks to a callable, every chunk but the last of
   exactly 64 KiB.  Two module functions feed it, each building its rows a
   part at a time with C twins of the Python builders, which read line for
   line alike: write_cnf the clauses of the DIMACS encodings of encodings,
   for gen-cnf, and write_proof a whole gen-proof refutation of proof_ours
   and proof_cook.  Both sides make a group member as a row literal bound to
   its layer (group_members, as encodings.group_members).  Tests hold their
   bytes to the Python builders, the reference. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <errno.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

/* Largest |literal|, so that a literal and its complement fit in int32.
   model.MAX_LITERAL is the same cap. */
#define MAX_LITERAL 2147483647LL

typedef int32_t lit_t;

typedef struct {
    int32_t *data; /* clause ids */
    Py_ssize_t size, cap;
} Vec;

typedef struct {
    Py_ssize_t start; /* offset into lits */
    int32_t size;
    char active;
} Clause;

typedef struct {
    PyObject_HEAD
    lit_t *lits; /* every clause's literals, back to back */
    Py_ssize_t nlits, cap_lits;
    Clause *cls;
    Py_ssize_t ncl, cap_cl;
    Py_ssize_t nactive, nempty; /* active clauses, active empty clauses */
    Vec *watch, *occ;           /* by literal code: 2 * max_var + 2 each */
    Vec units;                  /* ids of unit clauses, pruned lazily */
    Py_ssize_t max_var;
    signed char *val;           /* by variable: +1 true, -1 false, 0 unset */
    unsigned char *mark;        /* by variable: scratch sign bits */
    lit_t *trail;               /* max_var + 1 entries */
    Py_ssize_t ntrail, head;
    lit_t *buf; /* literals of the current call's argument */
    Py_ssize_t cap_buf;
    lit_t *key; /* the sorted copy of a parsed clause (has_duplicate) */
    Py_ssize_t cap_key;
} FastDatabase;

/* Resized copy of p, or NULL with MemoryError set; p stays valid on failure. */
static void *resized(void *p, Py_ssize_t count, size_t size)
{
    void *q = NULL;
    if (count >= 0 && (size_t)count <= (size_t)PY_SSIZE_T_MAX / size)
        q = PyMem_Realloc(p, (size_t)count * size);
    if (q == NULL)
        PyErr_NoMemory();
    return q;
}

static int vec_push(Vec *v, int32_t x)
{
    if (v->size == v->cap) {
        Py_ssize_t cap = v->cap ? 2 * v->cap : 4;
        int32_t *data = resized(v->data, cap, sizeof *data);
        if (data == NULL)
            return -1;
        v->data = data;
        v->cap = cap;
    }
    v->data[v->size++] = x;
    return 0;
}

static inline void vec_swap_remove(Vec *v, Py_ssize_t i)
{
    v->data[i] = v->data[--v->size];
}

static inline Py_ssize_t var_of(lit_t lit)
{
    return lit > 0 ? (Py_ssize_t)lit : -(Py_ssize_t)lit;
}

static inline Py_ssize_t code_of(lit_t lit)
{
    return lit > 0 ? var_of(lit) << 1 : (var_of(lit) << 1) | 1;
}

static inline signed char sign_of(lit_t lit)
{
    return lit > 0 ? 1 : -1;
}

/* The bit of lit in self->mark, 1 if positive and 2 if negative: the checked
   clause and a deletion key set bits 0-1, and a RAT partner sets them shifted
   up by PARTNER, to bits 2-3, so x and -x in one clause mark both signs. */
#define PARTNER 2
static inline unsigned char sign_bit(lit_t lit)
{
    return lit > 0 ? 1 : 2;
}

static inline int value(const FastDatabase *self, lit_t lit)
{
    return lit > 0 ? self->val[lit] : -self->val[var_of(lit)];
}

static inline void assign(FastDatabase *self, lit_t lit)
{
    self->val[var_of(lit)] = sign_of(lit);
    self->trail[self->ntrail++] = lit;
}

static void undo_to(FastDatabase *self, Py_ssize_t mark)
{
    while (self->ntrail > mark)
        self->val[var_of(self->trail[--self->ntrail])] = 0;
    if (self->head > mark)
        self->head = mark;
}

/* Grow every per-variable and per-literal array to cover variable ``var``.
   Each array is replaced as soon as its own growth succeeds; max_var moves
   only when all have, and the next attempt clears from the old max_var. */
static int grow_vars(FastDatabase *self, Py_ssize_t var)
{
    Py_ssize_t old = self->max_var, nv = old > 32 ? old : 32;
    Py_ssize_t old_codes = 2 * old + 2, codes;
    Vec *watch, *occ;
    signed char *val;
    unsigned char *mark;
    lit_t *trail;
    while (nv < var)
        nv *= 2;
    if (nv > MAX_LITERAL)
        nv = MAX_LITERAL;
    codes = 2 * nv + 2;
    if ((watch = resized(self->watch, codes, sizeof *watch)) == NULL)
        return -1;
    self->watch = watch;
    if ((occ = resized(self->occ, codes, sizeof *occ)) == NULL)
        return -1;
    self->occ = occ;
    if ((val = resized(self->val, nv + 1, 1)) == NULL)
        return -1;
    self->val = val;
    if ((mark = resized(self->mark, nv + 1, 1)) == NULL)
        return -1;
    self->mark = mark;
    if ((trail = resized(self->trail, nv + 1, sizeof *trail)) == NULL)
        return -1;
    self->trail = trail;
    memset(watch + old_codes, 0, (size_t)(codes - old_codes) * sizeof *watch);
    memset(occ + old_codes, 0, (size_t)(codes - old_codes) * sizeof *occ);
    memset(val + old + 1, 0, (size_t)(nv - old));
    memset(mark + old + 1, 0, (size_t)(nv - old));
    self->max_var = nv;
    return 0;
}

/* Make room for n literals in *buf, whose capacity *cap at least doubles. */
static int reserve(lit_t **buf, Py_ssize_t *cap, Py_ssize_t n)
{
    Py_ssize_t want = n > 2 * *cap ? n : 2 * *cap;
    lit_t *grown;
    if (n <= *cap)
        return 0;
    if ((grown = resized(*buf, want, sizeof *grown)) == NULL)
        return -1;
    *buf = grown;
    *cap = want;
    return 0;
}

/* Grow the per-variable arrays to cover every literal of l. */
static int cover(FastDatabase *self, const lit_t *l, Py_ssize_t n)
{
    Py_ssize_t i, biggest = 0;
    for (i = 0; i < n; i++)
        if (var_of(l[i]) > biggest)
            biggest = var_of(l[i]);
    return biggest > self->max_var ? grow_vars(self, biggest) : 0;
}

/* Copy a sequence of literals into self->buf, rejecting 0 and any literal
   beyond MAX_LITERAL, and grow the arrays to cover them.  Returns the
   number of literals, or -1 with an exception set. */
static Py_ssize_t load_lits(FastDatabase *self, PyObject *arg)
{
    PyObject *fast = PySequence_Fast(arg, "literals must be a sequence of ints");
    Py_ssize_t n, i;
    if (fast == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(fast);
    if (reserve(&self->buf, &self->cap_buf, n) < 0)
        goto fail;
    for (i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, i);
        int overflow;
        long long lit = PyLong_AsLongLongAndOverflow(item, &overflow);
        if (lit == -1 && PyErr_Occurred())
            goto fail;
        if (overflow || lit == 0 || lit > MAX_LITERAL || lit < -MAX_LITERAL) {
            PyErr_Format(PyExc_ValueError,
                         "literal %R out of range: need 0 < |literal| <= %lld",
                         item, MAX_LITERAL);
            goto fail;
        }
        self->buf[i] = (lit_t)lit;
    }
    Py_DECREF(fast);
    return cover(self, self->buf, n) < 0 ? -1 : n;
fail:
    Py_DECREF(fast);
    return -1;
}

static Py_ssize_t clause_id(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t cid = PyNumber_AsSsize_t(arg, NULL); /* clamps huge ints */
    if (cid == -1 && PyErr_Occurred())
        return -1;
    if (cid < 0 || cid >= self->ncl) {
        PyErr_SetString(PyExc_IndexError, "clause id out of range");
        return -1;
    }
    return cid;
}

/* -- clause store -------------------------------------------------------- */

/* Store the clause l (which must not point into self->lits) and return its
   id, or -1 with MemoryError set and nothing changed.  The caller has
   covered its variables. */
static Py_ssize_t store(FastDatabase *self, const lit_t *l, Py_ssize_t n)
{
    Py_ssize_t cid = self->ncl, i;
    if (cid >= INT32_MAX || n > INT32_MAX) {
        PyErr_NoMemory();
        return -1;
    }
    if (cid == self->cap_cl) {
        Py_ssize_t cap = self->cap_cl ? 2 * self->cap_cl : 64;
        Clause *cls = resized(self->cls, cap, sizeof *cls);
        if (cls == NULL)
            return -1;
        self->cls = cls;
        self->cap_cl = cap;
    }
    if (reserve(&self->lits, &self->cap_lits, self->nlits + n) < 0)
        return -1;
    /* Index the clause; on failure pop what was pushed, newest first. */
    for (i = 0; i < n; i++)
        if (vec_push(&self->occ[code_of(l[i])], (int32_t)cid) < 0)
            goto undo_occ;
    if (n == 1) {
        if (vec_push(&self->units, (int32_t)cid) < 0)
            goto undo_occ;
    } else if (n >= 2) {
        if (vec_push(&self->watch[code_of(l[0])], (int32_t)cid) < 0)
            goto undo_occ;
        if (vec_push(&self->watch[code_of(l[1])], (int32_t)cid) < 0) {
            self->watch[code_of(l[0])].size--;
            goto undo_occ;
        }
    }
    if (n > 0)
        memcpy(self->lits + self->nlits, l, (size_t)n * sizeof *l);
    self->cls[cid].start = self->nlits;
    self->cls[cid].size = (int32_t)n;
    self->cls[cid].active = 1;
    self->nlits += n;
    self->ncl++;
    self->nactive++;
    if (n == 0)
        self->nempty++;
    return cid;
undo_occ:
    while (i-- > 0)
        self->occ[code_of(l[i])].size--;
    return -1;
}

static void deactivate(FastDatabase *self, Py_ssize_t cid)
{
    Clause *c = &self->cls[cid];
    if (c->active) { /* watch and occurrence entries are dropped lazily */
        c->active = 0;
        self->nactive--;
        if (c->size == 0)
            self->nempty--;
    }
}

static PyObject *db_add_clause(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t n = load_lits(self, arg);
    PyObject *result;
    if (n < 0 || (result = PyLong_FromSsize_t(self->ncl)) == NULL)
        return NULL;
    if (store(self, self->buf, n) < 0) {
        Py_DECREF(result);
        return NULL;
    }
    return result;
}

static PyObject *db_delete_clause(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t cid = clause_id(self, arg);
    if (cid < 0)
        return NULL;
    deactivate(self, cid);
    Py_RETURN_NONE;
}

static PyObject *db_clause(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t cid = clause_id(self, arg), i;
    const Clause *c;
    PyObject *out;
    if (cid < 0)
        return NULL;
    c = &self->cls[cid];
    if ((out = PyTuple_New(c->size)) == NULL)
        return NULL;
    for (i = 0; i < c->size; i++) {
        PyObject *lit = PyLong_FromLong(self->lits[c->start + i]);
        if (lit == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, lit);
    }
    return out;
}

static Py_ssize_t db_len(FastDatabase *self)
{
    return self->nactive;
}

/* -- propagation --------------------------------------------------------- */

/* Unit propagation to fixpoint: 1 on conflict, 0 at fixpoint, -1 with
   MemoryError set (the watches stay consistent; the caller undoes). */
static int propagate(FastDatabase *self)
{
    if (self->nempty)
        return 1;
    while (self->head < self->ntrail) {
        lit_t flit = -self->trail[self->head++];
        Vec *wl = &self->watch[code_of(flit)];
        Py_ssize_t i = 0;
        while (i < wl->size) {
            int32_t cid = wl->data[i];
            const Clause *c = &self->cls[cid];
            lit_t *l, first;
            Py_ssize_t j;
            int fv;
            if (!c->active) {
                vec_swap_remove(wl, i);
                continue;
            }
            l = self->lits + c->start;
            if (l[0] == flit) {
                l[0] = l[1];
                l[1] = flit;
            }
            first = l[0];
            fv = value(self, first);
            if (fv > 0) {
                i++;
                continue;
            }
            for (j = 2; j < c->size; j++)
                if (value(self, l[j]) >= 0)
                    break;
            if (j < c->size) { /* move the watch from flit to l[j] */
                if (vec_push(&self->watch[code_of(l[j])], cid) < 0)
                    return -1;
                l[1] = l[j];
                l[j] = flit;
                vec_swap_remove(wl, i);
                continue;
            }
            if (fv < 0)
                return 1;
            assign(self, first);
            i++;
        }
    }
    return 0;
}

static int seed_units(FastDatabase *self)
{
    Vec *units = &self->units;
    Py_ssize_t i = 0;
    while (i < units->size) {
        const Clause *c = &self->cls[units->data[i]];
        lit_t lit;
        int v;
        if (!c->active) {
            vec_swap_remove(units, i);
            continue;
        }
        lit = self->lits[c->start];
        v = value(self, lit);
        if (v < 0)
            return 1;
        if (v == 0)
            assign(self, lit);
        i++;
    }
    return 0;
}

/* Assume the complement of every literal except ``skip``; 1 if one of them
   is already false (a conflict). */
static int assume_complements(FastDatabase *self, const lit_t *l,
                              Py_ssize_t n, lit_t skip)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        int v;
        if (l[i] == skip)
            continue;
        v = value(self, -l[i]);
        if (v < 0)
            return 1;
        if (v == 0)
            assign(self, -l[i]);
    }
    return 0;
}

/* Is the resolvent on the pivot of the checked clause (its other literals
   marked) and the clause ``l`` a tautology? */
static int tautology(FastDatabase *self, const lit_t *l, Py_ssize_t n,
                     lit_t neg_pivot)
{
    Py_ssize_t i;
    int taut = 0;
    for (i = 0; i < n && !taut; i++) {
        unsigned char *mark = &self->mark[var_of(l[i])], neg = sign_bit(-l[i]);
        if (l[i] == neg_pivot)
            continue;
        if (*mark & (neg | neg << PARTNER))
            taut = 1;
        else
            *mark |= (unsigned char)(sign_bit(l[i]) << PARTNER);
    }
    while (i-- > 0) /* the literals visited, the only ones marked */
        self->mark[var_of(l[i])] &= (1 << PARTNER) - 1;
    return taut;
}

/* -- redundancy checks --------------------------------------------------- */

/* Never a literal: |INT32_MIN| exceeds MAX_LITERAL. */
#define NO_SKIP INT32_MIN

/* Do the unit clauses and the complement of every literal of l propagate to
   a conflict?  1 or 0, or -1 with MemoryError set; the caller undoes. */
static inline int refutes(FastDatabase *self, const lit_t *l, Py_ssize_t n)
{
    int conflict = seed_units(self) || assume_complements(self, l, n, NO_SKIP);
    return conflict ? 1 : propagate(self);
}

/* Is the clause l RUP?  1 or 0, or -1 with MemoryError set. */
static int rup_check(FastDatabase *self, const lit_t *l, Py_ssize_t n)
{
    int result = refutes(self, l, n);
    undo_to(self, 0);
    return result;
}

/* Index in ov, from i on, of the next active clause whose resolvent with
   the checked clause is not a tautology, or ov->size if none is left.
   Inactive entries met on the way are dropped. */
static Py_ssize_t next_resolvent(FastDatabase *self, Vec *ov, Py_ssize_t i,
                                 lit_t neg_pivot)
{
    while (i < ov->size) {
        const Clause *c = &self->cls[ov->data[i]];
        if (!c->active)
            vec_swap_remove(ov, i);
        else if (tautology(self, self->lits + c->start, c->size, neg_pivot))
            i++;
        else
            break;
    }
    return i;
}

/* Is every resolvent from ov[i] on a tautology or RUP, with the complement
   of the checked clause propagated?  1 or 0, or -1 with MemoryError
   set. */
static int resolvents_rup(FastDatabase *self, Vec *ov, Py_ssize_t i,
                          lit_t neg_pivot)
{
    Py_ssize_t mark = self->ntrail;
    for (; i < ov->size; i = next_resolvent(self, ov, i + 1, neg_pivot)) {
        const Clause *c = &self->cls[ov->data[i]];
        int conflict = assume_complements(self, self->lits + c->start, c->size,
                                          neg_pivot);
        if (!conflict)
            conflict = propagate(self);
        undo_to(self, mark);
        if (conflict <= 0) /* not RUP (0), or MemoryError (-1) */
            return conflict;
    }
    return 1;
}

/* The check of a non-empty addition l: RAT on its first literal, with RUP
   folded in, on one trail.  First the screen: if every resolvent with a
   clause containing the pivot's complement is a tautology, l is blocked and
   passes without propagating.  Otherwise the complement of every literal of
   l, the pivot's included, is propagated once; a conflict means l is RUP,
   which implies RAT.  Otherwise the resolvents left are checked on top of
   that trail.  Keeping the pivot's complement assumed there changes no
   verdict: each partner contains it, and under the complement of the
   resolvent its other literals are false, so it propagates the pivot's
   complement anyway.
   1 or 0, or -1 with MemoryError set. */
static int rat_check(FastDatabase *self, const lit_t *l, Py_ssize_t n)
{
    lit_t neg_pivot = -l[0];
    Vec *ov = &self->occ[code_of(neg_pivot)];
    Py_ssize_t i;
    int result = 1;
    for (i = 1; i < n; i++)
        self->mark[var_of(l[i])] |= sign_bit(l[i]);
    i = next_resolvent(self, ov, 0, neg_pivot);
    if (i < ov->size) { /* not blocked */
        result = refutes(self, l, n);
        if (!result) /* not RUP */
            result = resolvents_rup(self, ov, i, neg_pivot);
    }
    for (i = 1; i < n; i++)
        self->mark[var_of(l[i])] = 0;
    undo_to(self, 0);
    return result;
}

static PyObject *db_rup(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t n = load_lits(self, arg);
    int result;
    if (n < 0 || (result = rup_check(self, self->buf, n)) < 0)
        return NULL;
    return PyBool_FromLong(result);
}

static PyObject *db_rat(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t n = load_lits(self, arg);
    int result;
    if (n < 0)
        return NULL;
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "the empty clause has no pivot");
        return NULL;
    }
    if ((result = rat_check(self, self->buf, n)) < 0)
        return NULL;
    return PyBool_FromLong(result);
}

static PyObject *db_snapshot(FastDatabase *self, PyObject *unused)
{
    PyObject *out = PyList_New(0), *result;
    Py_ssize_t var;
    if (out == NULL)
        return NULL;
    for (var = 1; var <= self->max_var; var++) {
        PyObject *pair;
        int failed;
        if (self->val[var] == 0)
            continue;
        if ((pair = Py_BuildValue("(ni)", var, (int)self->val[var])) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        failed = PyList_Append(out, pair);
        Py_DECREF(pair);
        if (failed) {
            Py_DECREF(out);
            return NULL;
        }
    }
    result = PyList_AsTuple(out);
    Py_DECREF(out);
    return result;
}

/* -- checking a DRAT file ------------------------------------------------ */

/* Bytes per read, and of text staged per write. */
#define CHUNK 65536

/* Outcomes of check_drat, in the order checker.py maps them to verdicts. */
enum { INCOMPLETE, ACCEPTED, EMPTY_NOT_RUP, NOT_RUP_OR_RAT, NOT_PRESENT };

static int cmp_lits(const void *a, const void *b)
{
    lit_t x = *(const lit_t *)a, y = *(const lit_t *)b;
    return (x > y) - (x < y);
}

static void sort_lits(lit_t *l, Py_ssize_t n)
{
    Py_ssize_t i, j;
    if (n > 16) {
        qsort(l, (size_t)n, sizeof *l, cmp_lits);
        return;
    }
    for (i = 1; i < n; i++) {
        lit_t x = l[i];
        for (j = i; j > 0 && l[j - 1] > x; j--)
            l[j] = l[j - 1];
        l[j] = x;
    }
}

/* The id of the newest active clause with exactly the literals key[0..n)
   (n >= 1, no literal repeated); -1 if there is none.  It walks the shortest
   occurrence list of the key's literals and drops inactive entries as
   next_resolvent does.  Swap-removal leaves a list out of id order, so every
   entry of size n is compared: the key is marked, and a candidate matches
   when each of its literals takes its sign's mark (a repeated literal finds
   its mark taken).  Taken marks go back after each candidate, and the marks
   are clear again on return.  A deletion thus costs the length of that list,
   where a hash index would cost O(1) expected time; that is the price of
   keeping no second index of every clause. */
static Py_ssize_t find_clause(FastDatabase *self, const lit_t *key,
                              Py_ssize_t n)
{
    unsigned char *mark = self->mark;
    Vec *ov = NULL;
    Py_ssize_t i, j, found = -1;
    for (i = 0; i < n; i++) {
        Vec *o;
        if (var_of(key[i]) > self->max_var)
            return -1; /* no stored clause has this variable */
        o = &self->occ[code_of(key[i])];
        if (ov == NULL || o->size < ov->size)
            ov = o;
    }
    for (i = 0; i < n; i++)
        mark[var_of(key[i])] |= sign_bit(key[i]);
    i = 0;
    while (i < ov->size) {
        int32_t cid = ov->data[i];
        const Clause *c = &self->cls[cid];
        const lit_t *l = self->lits + c->start;
        if (!c->active) {
            vec_swap_remove(ov, i);
            continue;
        }
        i++;
        if (c->size != n || cid <= found)
            continue;
        for (j = 0; j < n && (mark[var_of(l[j])] & sign_bit(l[j])); j++)
            mark[var_of(l[j])] &= (unsigned char)~sign_bit(l[j]);
        if (j == n)
            found = cid;
        while (j-- > 0)
            mark[var_of(l[j])] |= sign_bit(l[j]);
    }
    for (i = 0; i < n; i++)
        mark[var_of(key[i])] = 0;
    return found;
}

typedef struct {
    int fd;
    char *buf;
    Py_ssize_t lo, hi, cap; /* unconsumed bytes are buf[lo..hi) */
    int eof, skip_lf;
} Reader;

/* Append the next chunk of the file to the unconsumed bytes. */
static int fill(Reader *r)
{
    Py_ssize_t got;
    int err;
    if (r->lo > 0) {
        memmove(r->buf, r->buf + r->lo, (size_t)(r->hi - r->lo));
        r->hi -= r->lo;
        r->lo = 0;
    }
    if (r->cap - r->hi < CHUNK) {
        char *buf = resized(r->buf, r->hi + CHUNK, 1);
        if (buf == NULL)
            return -1;
        r->buf = buf;
        r->cap = r->hi + CHUNK;
    }
    do {
        if (PyErr_CheckSignals() < 0)
            return -1;
        /* Another thread may be the one that writes a pipe being read. */
        Py_BEGIN_ALLOW_THREADS
        got = read(r->fd, r->buf + r->hi, CHUNK);
        err = errno;
        Py_END_ALLOW_THREADS
    } while (got < 0 && err == EINTR);
    if (got < 0) {
        errno = err;
        PyErr_SetFromErrno(PyExc_OSError);
        return -1;
    }
    r->hi += got;
    r->eof = got == 0;
    return 0;
}

/* Find the next line, as text mode splits lines (at "\n", "\r\n" or "\r"),
   in buf[*start..*end); *ended tells whether a line break followed it.
   1 for a line, 0 at the end of the file, -1 with an exception set. */
static int next_line(Reader *r, Py_ssize_t *start, Py_ssize_t *end, int *ended)
{
    Py_ssize_t seen = 0, i; /* bytes of the line already scanned */
    for (;;) {
        if (r->skip_lf && r->lo < r->hi) {
            r->skip_lf = 0;
            r->lo += r->buf[r->lo] == '\n';
        }
        for (i = r->lo + seen; i < r->hi; i++)
            if (r->buf[i] == '\n' || r->buf[i] == '\r')
                break;
        if (i < r->hi || (r->eof && r->lo < r->hi)) {
            *start = r->lo;
            *end = i;
            *ended = i < r->hi;
            if (*ended)
                r->skip_lf = r->buf[i++] == '\r';
            r->lo = i;
            return 1;
        }
        if (r->eof)
            return 0;
        seen = i - r->lo;
        if (fill(r) < 0)
            return -1;
    }
}

/* ASCII whitespace, where str.split() splits ASCII text.  No byte beyond
   ASCII is whitespace. */
static inline int is_space(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r') || (c >= '\x1c' && c <= '\x1f');
}

static inline int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* Tokens are runs of bytes other than ASCII whitespace. */
enum { LINE_END, NUMBER, NOT_NUMBER };

/* Read the next token of [*s, end): NUMBER if it is -?[0-9]+ (as
   formats._is_token), with its value in *value, a magnitude beyond
   MAX_LITERAL kept only as beyond it; NOT_NUMBER if it is not; LINE_END if
   no token is left. */
static inline int next_number(const char **s, const char *end, long long *value)
{
    const char *p = *s;
    long long v = 0;
    int negative;
    while (p < end && is_space(*p))
        p++;
    if (p == end)
        return LINE_END;
    negative = *p == '-';
    p += negative;
    if (p == end || !is_digit(*p))
        return NOT_NUMBER;
    for (; p < end && is_digit(*p); p++)
        if (v <= MAX_LITERAL)
            v = 10 * v + (*p - '0');
    if (p < end && !is_space(*p))
        return NOT_NUMBER;
    *s = p;
    *value = negative ? -v : v;
    return NUMBER;
}

/* Does l[0..n) repeat a literal?  Seen on a sorted copy, left in
   self->key: 1 or 0, or -1 with MemoryError set.  The copy is sorted, not
   marked in self->mark, as this runs before cover() grows the per-variable
   arrays, which a malformed line or a deletion matching no clause must not
   do. */
static int has_duplicate(FastDatabase *self, const lit_t *l, Py_ssize_t n)
{
    Py_ssize_t i;
    if (reserve(&self->key, &self->cap_key, n) < 0)
        return -1;
    if (n > 0)
        memcpy(self->key, l, (size_t)n * sizeof *self->key);
    sort_lits(self->key, n);
    for (i = 1; i < n; i++)
        if (self->key[i] == self->key[i - 1])
            return 1;
    return 0;
}

/* Strip ASCII whitespace from both ends of [*s, *end). */
static inline void strip(const char **s, const char **end)
{
    while (*s < *end && is_space(**s))
        (*s)++;
    while (*end > *s && is_space((*end)[-1]))
        (*end)--;
}

enum { BLANK, ADD, DELETE, BAD };

/* Parse one DRAT line with formats.parse_drat_line's grammar: BLANK for a
   blank or comment line, ADD or DELETE with the literals in self->buf and
   their sorted copy in self->key, or BAD if parse_drat_line would raise.  -1
   with MemoryError set. */
static int parse_line(FastDatabase *self, const char *s, const char *end,
                      Py_ssize_t *count)
{
    Py_ssize_t n = 0;
    int kind = ADD, terminated = 0, token, dup;
    long long value;
    strip(&s, &end);
    if (s == end || *s == 'c')
        return BLANK;
    if (*s == 'd' && (s + 1 == end || s[1] == ' ')) {
        kind = DELETE;
        s++;
    }
    while ((token = next_number(&s, end, &value)) == NUMBER) {
        if (terminated) /* a token after the 0 */
            return BAD;
        if (value == 0) {
            terminated = 1;
            continue;
        }
        if (value > MAX_LITERAL || value < -MAX_LITERAL)
            return BAD;
        if (reserve(&self->buf, &self->cap_buf, n + 1) < 0)
            return -1;
        self->buf[n++] = (lit_t)value;
    }
    if (token == NOT_NUMBER || !terminated || (kind == DELETE && n == 0))
        return BAD;
    if ((dup = has_duplicate(self, self->buf, n)) != 0)
        return dup < 0 ? -1 : BAD;
    *count = n;
    return kind;
}

/* check_drat(fd, strict_deletions): the forward check of the text DRAT file
   open as fd against the active clauses, as checker.verify does it; a
   deletion removes the clause find_clause names.  A deletion that matches
   no clause is a UserWarning as it is reached, naming the caller of
   checker.verify, as checker._warn_not_present gives it.  At a line
   formats.parse_drat_line rejects, the check stops with
   ValueError(line, raw): the file line and its bytes, its break as text
   mode gives it. */
static PyObject *db_check_drat(FastDatabase *self, PyObject *args)
{
    Reader r = {0};
    Py_ssize_t fileline = 0, line = 0;
    Py_ssize_t rup_calls = 0, rup_pass = 0, rat_calls = 0, rat_pass = 0;
    Py_ssize_t adds = 0, deletes = 0, cid;
    PyObject *raw, *stop, *result = NULL;
    int strict, outcome = INCOMPLETE;
    if (!PyArg_ParseTuple(args, "ip:check_drat", &r.fd, &strict))
        return NULL;
    for (;;) {
        Py_ssize_t start, end, n;
        int ended, got = next_line(&r, &start, &end, &ended), kind, ok;
        if (got < 0)
            goto done;
        if (got == 0)
            break;
        fileline++;
        kind = parse_line(self, r.buf + start, r.buf + end, &n);
        if (kind < 0)
            goto done;
        if (kind == BLANK)
            continue;
        if (kind == BAD) {
            if ((raw = PyBytes_FromStringAndSize(NULL, end - start + ended)) == NULL)
                goto done;
            memcpy(PyBytes_AS_STRING(raw), r.buf + start, (size_t)(end - start));
            if (ended)
                PyBytes_AS_STRING(raw)[end - start] = '\n';
            if ((stop = Py_BuildValue("(nN)", fileline, raw)) != NULL) {
                PyErr_SetObject(PyExc_ValueError, stop);
                Py_DECREF(stop);
            }
            goto done;
        }
        line++;
        if (kind == DELETE) {
            if ((cid = find_clause(self, self->key, n)) >= 0) {
                deactivate(self, cid);
                deletes++;
                continue;
            }
            if (strict) {
                outcome = NOT_PRESENT;
                break;
            }
            /* Level 1 is checker._check_file, 2 checker.verify. */
            if (PyErr_WarnFormat(PyExc_UserWarning, 3,
                                 "proof line %zd: deleted clause not in the formula",
                                 line) < 0)
                goto done;
            continue;
        }
        if (cover(self, self->buf, n) < 0)
            goto done;
        if (n == 0) {
            rup_calls++;
            if ((ok = rup_check(self, self->buf, n)) < 0)
                goto done;
            rup_pass += ok;
            outcome = ok ? ACCEPTED : EMPTY_NOT_RUP;
            break;
        }
        rat_calls++;
        if ((ok = rat_check(self, self->buf, n)) < 0)
            goto done;
        rat_pass += ok;
        if (!ok) {
            outcome = NOT_RUP_OR_RAT;
            break;
        }
        if (store(self, self->buf, n) < 0)
            goto done;
        adds++;
    }
    result = Py_BuildValue("(in(nnnnnn))", outcome, line, rup_calls, rup_pass,
                           rat_calls, rat_pass, adds, deletes);
done:
    PyMem_Free(r.buf);
    return result;
}

/* -- reading a DIMACS CNF ------------------------------------------------ */

/* Is [s, end), stripped and starting with 'p', a header parse_dimacs takes:
   "p cnf <variables> <clauses>", neither count negative?  The counts go to
   *num_vars and *declared, kept as next_number keeps them. */
static int parse_header(const char *s, const char *end, long long *num_vars,
                        long long *declared)
{
    long long extra;
    if (++s < end && !is_space(*s)) /* the first token is "p" */
        return 0;
    while (s < end && is_space(*s))
        s++;
    if (end - s < 3 || memcmp(s, "cnf", 3) != 0 || (end - s > 3 && !is_space(s[3])))
        return 0;
    s += 3;
    return next_number(&s, end, num_vars) == NUMBER && *num_vars >= 0 &&
           next_number(&s, end, declared) == NUMBER && *declared >= 0 &&
           next_number(&s, end, &extra) == LINE_END;
}

/* Read the DIMACS CNF open as fd into the empty database self, in chunks,
   with the grammar of formats.parse_dimacs, and store each clause as soon as
   its 0 is read.  A clause may span lines, and a line may hold several.  The
   per-variable arrays grow with the literals stored, never with the
   header's variable count.  0, or -1 with an exception set.
   At the first line parse_dimacs would raise on, the read stops with
   ValueError(line, raw, header, clause): the file line, the bytes read from
   its start on, the stripped header line before it (or None), and the
   literals of the clause in progress at its start.  A literal beyond
   MAX_LITERAL also stops it: parse_dimacs raises on that line or a later
   one, as such a clause cannot be stored.  At the end of the file, a
   missing header or 0 stops it with the next line number and no bytes.
   A clause count other than the header's is a UserWarning, as in
   parse_dimacs. */
static int read_dimacs(FastDatabase *self, int fd)
{
    Reader r = {0};
    Py_ssize_t fileline = 0, start = 0, end, carried = 0, n, first, i;
    long long limit = 0, declared = 0, value;
    PyObject *header = NULL, *clause = NULL, *raw, *stop;
    int ended, got, token, dup, result = -1;
    r.fd = fd;
    while ((got = next_line(&r, &start, &end, &ended)) > 0) {
        const char *s = r.buf + start, *e = r.buf + end;
        fileline++;
        strip(&s, &e);
        if (s == e || *s == 'c')
            continue;
        if (*s == 'p') {
            if (header != NULL || !parse_header(s, e, &limit, &declared))
                goto reject;
            if ((header = PyBytes_FromStringAndSize(s, e - s)) == NULL)
                goto done;
            if (limit > MAX_LITERAL)
                limit = MAX_LITERAL;
            continue;
        }
        if (header == NULL)
            goto reject;
        /* The clause in progress is buf[first..n).  The literals carried
           into this line stay in buf[0..carried) until it has been read. */
        first = 0;
        n = carried;
        while ((token = next_number(&s, e, &value)) == NUMBER) {
            if (value == 0) {
                lit_t *l = self->buf + first;
                if ((dup = has_duplicate(self, l, n - first)) != 0) {
                    if (dup < 0)
                        goto done;
                    goto reject;
                }
                if (cover(self, l, n - first) < 0 || store(self, l, n - first) < 0)
                    goto done;
                first = n;
            } else if (value > limit || value < -limit) {
                goto reject;
            } else {
                if (reserve(&self->buf, &self->cap_buf, n + 1) < 0)
                    goto done;
                self->buf[n++] = (lit_t)value;
            }
        }
        if (token == NOT_NUMBER)
            goto reject;
        carried = n - first;
        if (first > 0) /* buf is NULL until a literal is stored */
            memmove(self->buf, self->buf + first, (size_t)carried * sizeof *self->buf);
    }
    if (got < 0)
        goto done;
    if (header == NULL || carried > 0) {
        fileline++;
        start = r.hi;
        goto reject;
    }
    if (declared != self->ncl) { /* the header's count, as int() prints it */
        const char *digits = PyBytes_AS_STRING(header) + PyBytes_GET_SIZE(header);
        while (is_digit(digits[-1]))
            digits--;
        while (digits[0] == '0' && digits[1] != '\0')
            digits++;
        if (PyErr_WarnFormat(PyExc_UserWarning, 1,
                             "header declares %s clauses but file contains %zd",
                             digits, self->ncl) < 0)
            goto done;
    }
    result = 0;
    goto done;
reject:
    if ((clause = PyTuple_New(carried)) == NULL)
        goto done;
    for (i = 0; i < carried; i++) {
        PyObject *lit = PyLong_FromLong(self->buf[i]);
        if (lit == NULL)
            goto done;
        PyTuple_SET_ITEM(clause, i, lit);
    }
    if ((raw = PyBytes_FromStringAndSize(r.buf + start, r.hi - start)) == NULL)
        goto done;
    stop = Py_BuildValue("(nOOO)", fileline, raw, header ? header : Py_None, clause);
    Py_DECREF(raw);
    if (stop != NULL) {
        PyErr_SetObject(PyExc_ValueError, stop);
        Py_DECREF(stop);
    }
done:
    Py_XDECREF(header);
    Py_XDECREF(clause);
    PyMem_Free(r.buf);
    return result;
}

/* -- type and module ----------------------------------------------------- */

static void db_dealloc(FastDatabase *self)
{
    Py_ssize_t i;
    for (i = 0; i < 2 * self->max_var + 2; i++) {
        PyMem_Free(self->watch[i].data);
        PyMem_Free(self->occ[i].data);
    }
    PyMem_Free(self->watch);
    PyMem_Free(self->occ);
    PyMem_Free(self->units.data);
    PyMem_Free(self->lits);
    PyMem_Free(self->cls);
    PyMem_Free(self->val);
    PyMem_Free(self->mark);
    PyMem_Free(self->trail);
    PyMem_Free(self->buf);
    PyMem_Free(self->key);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *db_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    FastDatabase *self;
    int fd;
    if (kwds != NULL && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "FastDatabase() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "|i:FastDatabase", &fd))
        return NULL;
    if ((self = (FastDatabase *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    self->max_var = -1; /* no arrays yet; grow_vars clears from max_var + 1 */
    if (grow_vars(self, 64) < 0 ||
        (PyTuple_GET_SIZE(args) && read_dimacs(self, fd) < 0)) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

/* -- text emission ------------------------------------------------------ */

/* Decimal digits of u. */
static inline int digit_count(uint64_t u)
{
    int d = 1;
    while (u >= 10) {
        u /= 10;
        d++;
    }
    return d;
}

/* Write the decimal digits of u so that they end just before end, two at a
   time. */
static inline void write_digits(char *end, uint64_t u)
{
    static const char pairs[] =
        "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
        "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
        "8081828384858687888990919293949596979899";
    while (u >= 100) {
        const char *p = pairs + 2 * (u % 100);
        u /= 100;
        *--end = p[1];
        *--end = p[0];
    }
    if (u >= 10) {
        *--end = pairs[2 * u + 1];
        *--end = pairs[2 * u];
    } else {
        *--end = (char)('0' + u);
    }
}

/* Magnitude of v as unsigned, exact for INT64_MIN too. */
static inline uint64_t magnitude(int64_t v)
{
    return v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
}

/* Most characters of a literal's text: a sign, 19 digits and a space. */
#define LIT_WIDTH 21

/* Write v and a space at out; return the end of what was written. */
static inline char *write_literal(char *out, int64_t v)
{
    uint64_t u = magnitude(v);
    if (v < 0)
        *out++ = '-';
    out += digit_count(u);
    write_digits(out, u);
    *out++ = ' ';
    return out;
}

/* A row literal: its value at the hole being formatted, and its step. */
typedef struct {
    int64_t value, step;
} RowLit;

/* Where write_cnf and write_proof write text: the file descriptor fd or,
   when fd is -1, the callable write, with a str.  The text is staged in
   buf, len of its CHUNK bytes in use, and written out whenever it is full,
   so every write but the last is of exactly CHUNK bytes. */
typedef struct {
    int fd;
    PyObject *write;
    char *buf;
    Py_ssize_t len, total; /* total: bytes written out so far */
} Sink;

/* Write out the staged text: with write(2), all of it, resuming after a
   partial write or a signal whose handler raised nothing, or as one str
   passed to the write callable.  0, or -1 with an exception set. */
static int sink_flush(Sink *s)
{
    Py_ssize_t done = 0;
    if (s->fd < 0 && s->len > 0) {
        PyObject *text = PyUnicode_New(s->len, 127), *res;
        if (text == NULL)
            return -1;
        memcpy(PyUnicode_1BYTE_DATA(text), s->buf, (size_t)s->len);
        res = PyObject_CallOneArg(s->write, text);
        Py_DECREF(text);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        done = s->len;
    }
    while (done < s->len) {
        Py_ssize_t got;
        int err;
        if (PyErr_CheckSignals() < 0)
            return -1;
        /* Another thread may be the one that reads a pipe being written. */
        Py_BEGIN_ALLOW_THREADS
        got = write(s->fd, s->buf + done, (size_t)(s->len - done));
        err = errno;
        Py_END_ALLOW_THREADS
        if (got < 0 && err != EINTR) {
            errno = err;
            PyErr_SetFromErrno(PyExc_OSError); /* BrokenPipeError for EPIPE */
            return -1;
        }
        if (got > 0)
            done += got;
    }
    s->total += s->len;
    s->len = 0;
    return 0;
}

/* Stage the n bytes at data, writing out each buffer it fills.  0, or -1
   with an exception set. */
static int sink_put(Sink *s, const char *data, Py_ssize_t n)
{
    Py_ssize_t part;
    while (n > (part = CHUNK - s->len)) {
        memcpy(s->buf + s->len, data, (size_t)part);
        s->len = CHUNK;
        if (sink_flush(s) < 0)
            return -1;
        data += part;
        n -= part;
    }
    memcpy(s->buf + s->len, data, (size_t)n);
    s->len += n;
    return 0;
}

/* Scratch of write_part, grown to its largest part: text holds the text of
   one hole, after a byte that is no digit, at room + 1; last[k] is the
   offset in text of the last digit of literal k; steppers lists the
   literals of step -1 or 1. */
typedef struct {
    char *room, *text;
    Py_ssize_t *last, *steppers;
    Py_ssize_t cap_text, cap_lits;
} Stage;

/* Grow st for a hole of nrows rows of nlits literals.  0, or -1 with
   MemoryError set. */
static int stage_fit(Stage *st, Py_ssize_t nrows, Py_ssize_t nlits)
{
    Py_ssize_t need = 4 * nrows + LIT_WIDTH * nlits;
    void *q;
    if (need > st->cap_text) {
        if ((q = resized(st->room, need + 1, 1)) == NULL)
            return -1;
        st->room = q;
        *st->room = '\n'; /* stops a carry before the first literal */
        st->text = st->room + 1;
        st->cap_text = need;
    }
    if (nlits > st->cap_lits) {
        if ((q = resized(st->last, nlits, sizeof *st->last)) == NULL)
            return -1;
        st->last = q;
        if ((q = resized(st->steppers, nlits, sizeof *st->steppers)) == NULL)
            return -1;
        st->steppers = q;
        st->cap_lits = nlits;
    }
    return 0;
}

static void stage_free(Stage *st)
{
    PyMem_Free(st->room);
    PyMem_Free(st->last);
    PyMem_Free(st->steppers);
}

/* Format the nrows rows of a part, of lens[r] literals each, at the current
   values of lits into st->text, and return its length.  A row's text is
   "d " if delete, each literal's value and a space, and "0\n". */
static Py_ssize_t format_hole(Stage *st, const Py_ssize_t *lens, Py_ssize_t nrows,
                              const RowLit *lits, int delete)
{
    Py_ssize_t r, j, k = 0;
    char *out = st->text;
    for (r = 0; r < nrows; r++) {
        if (delete) {
            *out++ = 'd';
            *out++ = ' ';
        }
        for (j = 0; j < lens[r]; j++, k++) {
            out = write_literal(out, lits[k].value);
            st->last[k] = out - 2 - st->text;
        }
        *out++ = '0';
        *out++ = '\n';
    }
    return out - st->text;
}

/* Write the text of a part, its nrows rows at holes 1 to holes, hole by
   hole, with lens[r] the length of row r and lits the literals, row by
   row.  The text of the first hole is formatted once in st and copied out
   at each hole.  Every literal has step 0 or a step with the sign of its
   value, as the builders make them, so a literal's magnitude only grows
   from hole to hole.  Between holes each literal of step -1 or 1 is
   stepped in place: its last digit moves up by one, carrying into the
   digits before it, and the hole is formatted again only when a carry
   widens a literal.  lits ends at the values of the last hole; no value is
   stepped past it.  0, or -1 with an exception set. */
static int write_part(Sink *s, const Py_ssize_t *lens, Py_ssize_t nrows, Py_ssize_t holes,
                      RowLit *lits, int delete, Stage *st)
{
    Py_ssize_t nstep = 0, nlits = 0, length, h, r, i, k;
    char *digit;
    int again;
    if (holes == 0 || nrows == 0)
        return 0;
    for (r = 0; r < nrows; r++)
        nlits += lens[r];
    if (stage_fit(st, nrows, nlits) < 0)
        return -1;
    for (k = 0; k < nlits; k++)
        if (lits[k].step != 0)
            st->steppers[nstep++] = k;
    length = format_hole(st, lens, nrows, lits, delete);
    for (h = 1;; h++) {
        if (sink_put(s, st->text, length) < 0)
            return -1;
        if (h == holes)
            return 0;
        again = 0;
        for (i = 0; i < nstep; i++) {
            k = st->steppers[i];
            lits[k].value += lits[k].step;
            digit = st->text + st->last[k];
            while (*digit == '9')
                *digit-- = '0';
            if (is_digit(*digit))
                ++*digit;
            else
                again = 1; /* 9...9 became 10...0 */
        }
        if (again)
            length = format_hole(st, lens, nrows, lits, delete);
    }
}

/* Point s at target: a file descriptor, an exact int, or else a callable.
   0, or -1 with ValueError set for a negative descriptor. */
static int sink_target(Sink *s, PyObject *target)
{
    if (PyLong_CheckExact(target)) {
        long fd = PyLong_AsLong(target);
        if (fd == -1 && PyErr_Occurred())
            return -1;
        if (fd < 0 || fd > INT_MAX) {
            PyErr_SetString(PyExc_ValueError, "bad file descriptor");
            return -1;
        }
        s->fd = (int)fd;
    } else {
        s->write = target;
    }
    return 0;
}

/* -- proof generation ---------------------------------------------------- */

/* The rows of the part being built, as write_part takes them: the literals
   of every row, back to back, and the length of each row. */
typedef struct {
    RowLit *lits;
    Py_ssize_t *lens;
    Py_ssize_t nlits, nrows, cap_lits, cap_rows;
} Rows;

/* What write_proof writes with: the sink, the scratch of write_part, the
   rows of the part being built, and whether they are deletions. */
typedef struct {
    Sink sink;
    Stage st;
    Rows rows;
    int delete;
} Gen;

/* Numbering of a layer, as encodings.LayerLayout: x_var(p, h) is
   x_base + p * layer + h and y_var(g, h) is y_base + g * layer + h. */
typedef struct {
    int64_t layer, x_base, y_base;
} Layout;

/* Largest n of write_cnf and write_proof: every variable id and clause
   count, below n^3, then fits in int64 with room to spare.  cli keeps n
   within pigeonproof.MAX_N. */
#define PROOF_MAX_N (1 << 20)

/* The complement of the row literal l at every hole (encodings.negated). */
static inline RowLit negated(RowLit l)
{
    return (RowLit){-l.value, -l.step};
}

/* Room for one more row of n literals in the part being built: its first
   literal, or NULL with MemoryError set. */
static RowLit *new_row(Rows *r, Py_ssize_t n)
{
    void *q;
    if (r->nlits + n > r->cap_lits) {
        Py_ssize_t cap = 2 * r->cap_lits > r->nlits + n ? 2 * r->cap_lits : r->nlits + n;
        if ((q = resized(r->lits, cap, sizeof *r->lits)) == NULL)
            return NULL;
        r->lits = q;
        r->cap_lits = cap;
    }
    if (r->nrows == r->cap_rows) {
        Py_ssize_t cap = r->cap_rows ? 2 * r->cap_rows : 64;
        if ((q = resized(r->lens, cap, sizeof *r->lens)) == NULL)
            return NULL;
        r->lens = q;
        r->cap_rows = cap;
    }
    r->lens[r->nrows++] = n;
    r->nlits += n;
    return r->lits + r->nlits - n;
}

/* Add the row of the n literals at l to the part being built.  0, or -1
   with MemoryError set. */
static int add_row(Gen *g, Py_ssize_t n, const RowLit *l)
{
    RowLit *row = new_row(&g->rows, n);
    if (row == NULL)
        return -1;
    memcpy(row, l, (size_t)n * sizeof *l);
    return 0;
}

/* Write the part built, its rows over holes holes, and start the next. */
static int put_part(Gen *g, Py_ssize_t holes)
{
    Rows *r = &g->rows;
    int ok = write_part(&g->sink, r->lens, r->nrows, holes, r->lits, g->delete, &g->st);
    r->nlits = r->nrows = 0;
    return ok;
}

/* The at-least-one clause of every pigeon of layer L, a row of constants
   each, written a row at a time (proof_ours.alo_clauses). */
static int put_alo(Gen *g, const Layout *L)
{
    int64_t p, h;
    RowLit *row;
    for (p = 0; p <= L->layer; p++) {
        if ((row = new_row(&g->rows, (Py_ssize_t)L->layer)) == NULL)
            return -1;
        for (h = 1; h <= L->layer; h++)
            row[h - 1] = (RowLit){L->x_base + p * L->layer + h, 0};
        if (put_part(g, 1) < 0)
            return -1;
    }
    return 0;
}

/* The members of group gi of the at-most-one chain over the layer + 1
   pigeons of layer L, in count groups, as row literals over the holes into
   m (at most 4); return how many (encodings.group_members).  Group 0 takes
   pigeons 0..2, or all of up to four; each later group the previous
   group's auxiliary, negated, and the next two pigeons; the final group
   the two or three that remain. */
static int group_members(const Layout *L, int64_t gi, int64_t count, RowLit *m)
{
    int64_t p, first = gi ? 2 * gi + 1 : 0;
    int64_t stop = gi == count - 1 ? L->layer + 1 : 2 * gi + 3;
    int n = 0;
    if (gi)
        m[n++] = (RowLit){-(L->y_base + (gi - 1) * L->layer + 1), -1};
    for (p = first; p < stop; p++)
        m[n++] = (RowLit){L->x_base + p * L->layer + 1, 1};
    return n;
}

static inline int64_t group_count(int64_t pigeons)
{
    return pigeons < 5 ? 1 : (pigeons - 1) / 2;
}

/* Iteration k's definitions of the fresh x' of layer nxt over layer prev,
   a part of four rows over the k holes per pigeon, the top pigeon's two
   with a negated pivot dropped unless keep_top
   (proof_ours.definition_clauses). */
static int put_definitions(Gen *g, int64_t k, const Layout *prev, const Layout *nxt,
                           int keep_top)
{
    int64_t p, top = prev->x_base + (k + 1) * (k + 1) + 1;
    for (p = 0; p <= k; p++) {
        int64_t xk = nxt->x_base + p * k + 1, xp = prev->x_base + p * (k + 1) + 1;
        int64_t moved = xp + k; /* prev x_var(p, k + 1), the same in every hole */
        if ((p < k || keep_top) &&
            (add_row(g, 3, (RowLit[]){{-xk, -1}, {xp, 1}, {moved, 0}}) < 0 ||
             add_row(g, 3, (RowLit[]){{-xk, -1}, {xp, 1}, {top, 1}}) < 0))
            return -1;
        if (add_row(g, 2, (RowLit[]){{xk, 1}, {-xp, -1}}) < 0 ||
            add_row(g, 3, (RowLit[]){{xk, 1}, {-moved, 0}, {-top, -1}}) < 0 ||
            put_part(g, (Py_ssize_t)k) < 0)
            return -1;
    }
    return 0;
}

/* Add the rows defining the fresh auxiliary y of the non-final group gi of
   layer L, whose n members are m: (y, members...), then (-y, -member) for
   each member (encodings.aux_definition_rows).  0, or -1 with MemoryError
   set. */
static int add_y_definition(Gen *g, const Layout *L, int64_t gi, const RowLit *m, int n)
{
    RowLit y = {L->y_base + gi * L->layer + 1, 1};
    RowLit *row = new_row(&g->rows, n + 1);
    int i;
    if (row == NULL)
        return -1;
    row[0] = y;
    memcpy(row + 1, m, (size_t)n * sizeof *m);
    for (i = 0; i < n; i++)
        if (add_row(g, 2, (RowLit[]){negated(y), negated(m[i])}) < 0)
            return -1;
    return 0;
}

/* Iteration k's definitions of the fresh group auxiliaries of layer L, four
   rows per non-final group (proof_ours.y_definition_clauses). */
static int put_y_definitions(Gen *g, const Layout *L)
{
    int64_t gi, count = group_count(L->layer + 1);
    RowLit m[4];
    for (gi = 0; gi < count - 1; gi++)
        if (add_y_definition(g, L, gi, m, group_members(L, gi, count, m)) < 0)
            return -1;
    return put_part(g, (Py_ssize_t)L->layer);
}

/* Iteration k's pairwise constraints inside every group of layer L, the
   member of larger index first (proof_ours.derived_group_clauses). */
static int put_derived(Gen *g, const Layout *L)
{
    int64_t gi, count = group_count(L->layer + 1);
    RowLit m[4];
    int i, j, n;
    for (gi = 0; gi < count; gi++) {
        n = group_members(L, gi, count, m);
        for (i = 0; i < n; i++)
            for (j = i + 1; j < n; j++)
                if (add_row(g, 2, (RowLit[]){negated(m[j]), negated(m[i])}) < 0)
                    return -1;
    }
    return put_part(g, (Py_ssize_t)L->layer);
}

/* Iteration k's pairs of fresh variables sharing a hole, a helper and the
   target each (proof_cook.cook_pair_clauses). */
static int put_pairs(Gen *g, int64_t k, const Layout *prev, const Layout *nxt)
{
    int64_t p, q;
    for (p = 0; p <= k; p++) {
        RowLit neg_p = {-(nxt->x_base + p * k + 1), -1};
        int64_t moved = prev->x_base + p * (k + 1) + k + 1;
        for (q = p + 1; q <= k; q++) {
            RowLit neg_q = {-(nxt->x_base + q * k + 1), -1};
            if (add_row(g, 3, (RowLit[]){neg_p, neg_q, {-moved, 0}}) < 0 ||
                add_row(g, 2, (RowLit[]){neg_p, neg_q}) < 0)
                return -1;
        }
    }
    return put_part(g, (Py_ssize_t)k);
}

/* The clauses of php_standard on layer L: the at-least-one clauses, then
   every pair of pigeons over the holes
   (encodings.iter_php_standard_clauses). */
static int put_php_standard(Gen *g, const Layout *L)
{
    int64_t p, q, n = L->layer;
    if (put_alo(g, L) < 0)
        return -1;
    for (p = 0; p <= n; p++)
        for (q = p + 1; q <= n; q++)
            if (add_row(g, 2, (RowLit[]){{-(p * n + 1), -1}, {-(q * n + 1), -1}}) < 0)
                return -1;
    return put_part(g, (Py_ssize_t)n);
}

/* The clauses of php_amo on layer L: the at-least-one clauses, then group
   by group over the holes, a non-final group's auxiliary definition and
   then every pair of its members, the member of smaller index first
   (encodings.iter_php_amo_clauses). */
static int put_php_amo(Gen *g, const Layout *L)
{
    int64_t gi, count = group_count(L->layer + 1);
    RowLit m[4];
    int i, j, n;
    if (put_alo(g, L) < 0)
        return -1;
    for (gi = 0; gi < count; gi++) {
        n = group_members(L, gi, count, m);
        if (gi < count - 1 && add_y_definition(g, L, gi, m, n) < 0)
            return -1;
        for (i = 0; i < n; i++)
            for (j = i + 1; j < n; j++)
                if (add_row(g, 2, (RowLit[]){negated(m[i]), negated(m[j])}) < 0)
                    return -1;
    }
    return put_part(g, (Py_ssize_t)L->layer);
}

/* The additions of iteration k, the builders of the family in table order
   (proof_ours.OURS, proof_cook.COOK), on layouts by layer. */
static int put_iteration(Gen *g, int64_t k, const Layout *layouts, int chained)
{
    const Layout *prev = &layouts[k + 1], *nxt = &layouts[k];
    if (put_definitions(g, k, prev, nxt, !chained) < 0)
        return -1;
    if (chained ? put_y_definitions(g, nxt) < 0 || put_derived(g, nxt) < 0
                : put_pairs(g, k, prev, nxt) < 0)
        return -1;
    return put_alo(g, nxt);
}

/* Check n against least and PROOF_MAX_N and point g at target with its
   buffer.  0, or -1 with an exception set. */
static int gen_start(Gen *g, Py_ssize_t n, Py_ssize_t least, PyObject *target)
{
    if (sink_target(&g->sink, target) < 0)
        return -1;
    if (n < least || n > PROOF_MAX_N) {
        PyErr_Format(PyExc_ValueError, "n must be from %zd to %d, got %zd", least,
                     PROOF_MAX_N, n);
        return -1;
    }
    g->sink.buf = resized(NULL, CHUNK, 1);
    return g->sink.buf == NULL ? -1 : 0;
}

/* Write out what g has staged and free it: the number of characters
   written, or NULL with an exception set if ok is not 0 or the write fails. */
static PyObject *gen_finish(Gen *g, int ok)
{
    PyObject *result = NULL;
    if (ok == 0 && sink_flush(&g->sink) == 0)
        result = PyLong_FromSsize_t(g->sink.total);
    PyMem_Free(g->sink.buf);
    PyMem_Free(g->rows.lits);
    PyMem_Free(g->rows.lens);
    stage_free(&g->st);
    return result;
}

static PyObject *write_cnf(PyObject *module, PyObject *args)
{
    Py_ssize_t n;
    int amo, ok;
    PyObject *target;
    Gen g = {{-1, NULL, NULL, 0, 0}, {0}, {0}, 0};
    Layout L;
    int64_t vars, clauses;
    char header[64];
    if (!PyArg_ParseTuple(args, "npO:write_cnf", &n, &amo, &target))
        return NULL;
    if (gen_start(&g, n, 1, target) < 0)
        return gen_finish(&g, -1);
    /* encodings.php_amo_num_vars and php_amo_clause_count, whose per-hole
       counts.f_group(n) is 7n/2 - 4 for n >= 2; php_standard has n + 1
       at-least-one clauses and n(n + 1)/2 pairs in each of its n holes. */
    L = (Layout){n, 0, (int64_t)n * (n + 1)};
    vars = L.y_base + (amo ? n * (group_count(n + 1) - 1) : 0);
    clauses = n + 1 + (amo ? n * (n == 1 ? 1 : 7 * (int64_t)n / 2 - 4) : L.y_base * n / 2);
    ok = sink_put(&g.sink, header,
                  PyOS_snprintf(header, sizeof header, "p cnf %lld %lld\n", (long long)vars,
                                (long long)clauses));
    if (ok == 0)
        ok = amo ? put_php_amo(&g, &L) : put_php_standard(&g, &L);
    return gen_finish(&g, ok);
}

static PyObject *write_proof(PyObject *module, PyObject *args)
{
    Py_ssize_t n;
    int chained, deletions, ok = -1;
    PyObject *target;
    Gen g = {{-1, NULL, NULL, 0, 0}, {0}, {0}, 0};
    Layout *layouts = NULL;
    int64_t k, base;
    if (!PyArg_ParseTuple(args, "nppO:write_proof", &n, &chained, &deletions, &target))
        return NULL;
    /* Layer n is the input formula; each layer below takes the next ids
       (encodings._layouts_down_to). */
    if (gen_start(&g, n, 2, target) < 0 ||
        (layouts = resized(NULL, n + 1, sizeof *layouts)) == NULL)
        goto done;
    base = (int64_t)n * (n + 1);
    layouts[n] = (Layout){n, 0, base};
    for (k = n - 1; k >= 1; k--) {
        int64_t y_rows = chained ? group_count(k + 1) - 1 : 0;
        layouts[k] = (Layout){k, base, base + (k + 1) * k};
        base = layouts[k].y_base + y_rows * k;
    }
    /* proof_ours.iter_blocks: each iteration's additions, then with
       deletions layer k + 1's, and the empty clause. */
    for (k = n - 1; k >= 1; k--) {
        g.delete = 0;
        if (put_iteration(&g, k, layouts, chained) < 0)
            goto done;
        g.delete = deletions;
        if (deletions && (k == n - 1 ? put_php_standard(&g, &layouts[n])
                                     : put_iteration(&g, k + 1, layouts, chained)) < 0)
            goto done;
    }
    g.delete = 0;
    if (new_row(&g.rows, 0) != NULL)
        ok = put_part(&g, 1);
done:
    PyMem_Free(layouts);
    return gen_finish(&g, ok);
}

static PyMethodDef module_methods[] = {
    {"write_cnf", write_cnf, METH_VARARGS,
     "write_cnf(n, amo, sink) -> int\n\n"
     "Write the DIMACS CNF of php_amo(n) if amo, else of php_standard(n), as\n"
     "formats.write_dimacs writes encodings.iter_php_amo_clauses or\n"
     "iter_php_standard_clauses under their header, to the sink as\n"
     "write_proof writes.  Returns the number of characters written.\n"
     "ValueError unless n is from 1 to 2**20."},
    {"write_proof", write_proof, METH_VARARGS,
     "write_proof(n, chained, deletions, sink) -> int\n\n"
     "Write the DRAT refutation of php_standard(n) that proof_ours.iter_blocks\n"
     "yields for proof_ours.OURS if chained, else for proof_cook.COOK, with\n"
     "deletions if deletions, as formats.write_drat_blocks writes it.  Every\n"
     "builder runs here.  sink is a file descriptor, written with write(2)\n"
     "without the GIL, or a callable, passed the text as str chunks of\n"
     "64 KiB each but the last.  Returns the number of characters written.\n"
     "ValueError unless n is from 2 to 2**20, or for a negative descriptor."},
    {NULL, NULL, 0, NULL},
};

static PyMethodDef db_methods[] = {
    {"add_clause", (PyCFunction)db_add_clause, METH_O,
     "add_clause(lits) -> int\n\nStore a clause and return its id."},
    {"delete_clause", (PyCFunction)db_delete_clause, METH_O,
     "delete_clause(cid)\n\nDeactivate a clause; IndexError for an unknown id."},
    {"clause", (PyCFunction)db_clause, METH_O,
     "clause(cid) -> tuple\n\nThe literals of a clause, in their stored order."},
    {"rup", (PyCFunction)db_rup, METH_O,
     "rup(lits) -> bool\n\nConflict after assuming the complement of every literal?"},
    {"rat", (PyCFunction)db_rat, METH_O,
     "rat(lits) -> bool\n\nRAT on the first literal: every resolvent tautological or RUP.\n"
     "The check of a non-empty addition: a blocked clause passes without\n"
     "propagating; otherwise the complement of every literal, the pivot's\n"
     "included, is propagated, and then each resolvent on that trail.  RUP\n"
     "implies RAT, so the clause passes on a conflict of the first step."},
    {"check_drat", (PyCFunction)db_check_drat, METH_VARARGS,
     "check_drat(fd, strict_deletions) -> (outcome, line, counters)\n\n"
     "Check the text DRAT file open as fd against the active clauses, line by\n"
     "line as checker.verify does, reading it in chunks.  outcome: 0 incomplete,\n"
     "1 accepted, 2 empty clause not RUP, 3 neither RUP nor RAT, 4 deleted\n"
     "clause not present (strict), with line the proof line it stopped at.\n"
     "A deletion that matches no clause is otherwise a UserWarning, given as\n"
     "it is reached.  At a line formats.parse_drat_line rejects it raises\n"
     "ValueError(line, raw): the file line and its bytes.\n"
     "counters are RUP calls, RUP passes, RAT calls, RAT passes, additions and\n"
     "deletions.  Only the empty clause gets rup, and every other addition\n"
     "gets rat alone, which holds RUP: the counters are those of\n"
     "db.rat(lits) if lits else db.rup(lits) on each addition."},
    {"snapshot", (PyCFunction)db_snapshot, METH_NOARGS,
     "snapshot() -> tuple\n\nAssigned (variable, value) pairs; for state-restoration checks."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods db_as_sequence = {
    .sq_length = (lenfunc)db_len,
};

static PyTypeObject FastDatabaseType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "pigeonproof._fastcheck.FastDatabase",
    .tp_basicsize = sizeof(FastDatabase),
    .tp_dealloc = (destructor)db_dealloc,
    .tp_as_sequence = &db_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "FastDatabase([cnf_fd])\n\n"
              "Clause database with watched-literal propagation and RUP/RAT checks.\n\n"
              "Given cnf_fd, it holds the clauses of the DIMACS CNF file open as\n"
              "that fd, read in chunks with the grammar of formats.parse_dimacs; a\n"
              "clause count other than the header's is a UserWarning, as there.  At\n"
              "the first line parse_dimacs would raise on it raises\n"
              "ValueError(line, raw, header, clause): the file line, the bytes read\n"
              "from its start on, the header line before it (or None) and the\n"
              "literals of the clause in progress at its start, from which\n"
              "checker raises the error of parse_dimacs.",
    .tp_methods = db_methods,
    .tp_new = db_new,
};

static struct PyModuleDef fastcheck_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fastcheck",
    .m_doc = "Compiled RUP/RAT checking core (see FastDatabase) and text emission.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC PyInit__fastcheck(void)
{
    PyObject *module;
    if (PyType_Ready(&FastDatabaseType) < 0)
        return NULL;
    if ((module = PyModule_Create(&fastcheck_module)) == NULL)
        return NULL;
    Py_INCREF(&FastDatabaseType);
    if (PyModule_AddObject(module, "FastDatabase", (PyObject *)&FastDatabaseType) < 0) {
        Py_DECREF(&FastDatabaseType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
