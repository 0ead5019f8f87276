/* Compiled clause database with watched-literal propagation and RUP/RAT.

   A drop-in replacement for ``propagation.ClauseDatabase``: the same methods
   (add_clause, delete_clause, clause, __len__, rup, rat, snapshot), the same
   verdicts and the same exceptions.  Literals are int32 in one flat buffer;
   watch and occurrence lists are growable vectors of clause ids indexed by
   literal code (v -> 2v, -v -> 2v+1).  The assignment, the trail and the RAT
   scratch marks are indexed by variable and grow with the largest variable
   seen, so the trail has room for every variable and never grows during a
   check.

   Arguments are validated and every array is grown before any state changes;
   a growth that fails leaves the object as it was and raises MemoryError. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

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
    signed char *cmark, *dmark; /* RAT tautology scratch, by variable */
    lit_t *trail;               /* max_var + 1 entries */
    Py_ssize_t ntrail, head;
    lit_t *buf; /* literals of the current call's argument */
    Py_ssize_t cap_buf;
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
    signed char *val, *cmark, *dmark;
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
    if ((cmark = resized(self->cmark, nv + 1, 1)) == NULL)
        return -1;
    self->cmark = cmark;
    if ((dmark = resized(self->dmark, nv + 1, 1)) == NULL)
        return -1;
    self->dmark = dmark;
    if ((trail = resized(self->trail, nv + 1, sizeof *trail)) == NULL)
        return -1;
    self->trail = trail;
    memset(watch + old_codes, 0, (size_t)(codes - old_codes) * sizeof *watch);
    memset(occ + old_codes, 0, (size_t)(codes - old_codes) * sizeof *occ);
    memset(val + old + 1, 0, (size_t)(nv - old));
    memset(cmark + old + 1, 0, (size_t)(nv - old));
    memset(dmark + old + 1, 0, (size_t)(nv - old));
    self->max_var = nv;
    return 0;
}

/* Copy a sequence of literals into self->buf, rejecting 0 and any literal
   beyond MAX_LITERAL, and grow the arrays to cover them.  Returns the
   number of literals, or -1 with an exception set. */
static Py_ssize_t load_lits(FastDatabase *self, PyObject *arg)
{
    PyObject *fast = PySequence_Fast(arg, "literals must be a sequence of ints");
    Py_ssize_t n, i, biggest = 0;
    if (fast == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(fast);
    if (n > self->cap_buf) {
        lit_t *buf = resized(self->buf, n, sizeof *buf);
        if (buf == NULL)
            goto fail;
        self->buf = buf;
        self->cap_buf = n;
    }
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
        if (var_of((lit_t)lit) > biggest)
            biggest = var_of((lit_t)lit);
    }
    Py_DECREF(fast);
    if (biggest > self->max_var && grow_vars(self, biggest) < 0)
        return -1;
    return n;
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

static PyObject *db_add_clause(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t n = load_lits(self, arg), cid = self->ncl, i;
    const lit_t *l;
    PyObject *result;
    if (n < 0)
        return NULL;
    l = self->buf;
    if (cid >= INT32_MAX || n > INT32_MAX)
        return PyErr_NoMemory();
    if (cid == self->cap_cl) {
        Py_ssize_t cap = self->cap_cl ? 2 * self->cap_cl : 64;
        Clause *cls = resized(self->cls, cap, sizeof *cls);
        if (cls == NULL)
            return NULL;
        self->cls = cls;
        self->cap_cl = cap;
    }
    if (self->nlits + n > self->cap_lits) {
        Py_ssize_t cap = self->cap_lits ? 2 * self->cap_lits : 256;
        lit_t *lits;
        while (cap < self->nlits + n)
            cap *= 2;
        if ((lits = resized(self->lits, cap, sizeof *lits)) == NULL)
            return NULL;
        self->lits = lits;
        self->cap_lits = cap;
    }
    if ((result = PyLong_FromSsize_t(cid)) == NULL)
        return NULL;
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
    return result;
undo_occ:
    while (i-- > 0)
        self->occ[code_of(l[i])].size--;
    Py_DECREF(result);
    return NULL;
}

static PyObject *db_delete_clause(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t cid = clause_id(self, arg);
    Clause *c;
    if (cid < 0)
        return NULL;
    c = &self->cls[cid];
    if (c->active) { /* watch and occurrence entries are dropped lazily */
        c->active = 0;
        self->nactive--;
        if (c->size == 0)
            self->nempty--;
    }
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
   marked in cmark) and the clause ``l`` a tautology? */
static int tautology(FastDatabase *self, const lit_t *l, Py_ssize_t n,
                     lit_t neg_pivot)
{
    Py_ssize_t i;
    int taut = 0;
    for (i = 0; i < n && !taut; i++) {
        Py_ssize_t var = var_of(l[i]);
        signed char s = sign_of(l[i]);
        if (l[i] == neg_pivot)
            continue;
        if (self->cmark[var] == -s || self->dmark[var] == -s)
            taut = 1;
        else
            self->dmark[var] = s;
    }
    for (i = 0; i < n; i++)
        self->dmark[var_of(l[i])] = 0;
    return taut;
}

/* -- redundancy checks --------------------------------------------------- */

/* Never a literal: |INT32_MIN| exceeds MAX_LITERAL. */
#define NO_SKIP INT32_MIN

static PyObject *db_rup(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t n = load_lits(self, arg);
    int conflict;
    if (n < 0)
        return NULL;
    conflict = seed_units(self) || assume_complements(self, self->buf, n, NO_SKIP);
    if (!conflict)
        conflict = propagate(self);
    undo_to(self, 0);
    if (conflict < 0)
        return NULL;
    return PyBool_FromLong(conflict);
}

/* RAT on the first literal: every resolvent with a clause containing the
   pivot's complement is a tautology or RUP.  The complements of the other
   literals are propagated once and shared by all resolvents. */
static PyObject *db_rat(FastDatabase *self, PyObject *arg)
{
    Py_ssize_t n = load_lits(self, arg), i, mark;
    const lit_t *rest;
    lit_t neg_pivot;
    Vec *ov;
    int result = 1, conflict;
    if (n < 0)
        return NULL;
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "the empty clause has no pivot");
        return NULL;
    }
    neg_pivot = -self->buf[0];
    rest = self->buf + 1;
    conflict = seed_units(self) || assume_complements(self, rest, n - 1, NO_SKIP);
    if (!conflict)
        conflict = propagate(self);
    if (conflict) {
        undo_to(self, 0);
        return conflict < 0 ? NULL : PyBool_FromLong(1);
    }
    mark = self->ntrail;
    for (i = 0; i < n - 1; i++)
        self->cmark[var_of(rest[i])] = sign_of(rest[i]);
    ov = &self->occ[code_of(neg_pivot)];
    for (i = 0; i < ov->size;) {
        const Clause *c = &self->cls[ov->data[i]];
        const lit_t *l = self->lits + c->start;
        if (!c->active) {
            vec_swap_remove(ov, i);
            continue;
        }
        i++;
        if (tautology(self, l, c->size, neg_pivot))
            continue;
        conflict = assume_complements(self, l, c->size, neg_pivot);
        if (!conflict)
            conflict = propagate(self);
        undo_to(self, mark);
        if (conflict <= 0) { /* not RUP (0), or MemoryError (-1) */
            result = conflict;
            break;
        }
    }
    for (i = 0; i < n - 1; i++)
        self->cmark[var_of(rest[i])] = 0;
    undo_to(self, 0);
    if (result < 0)
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
    PyMem_Free(self->cmark);
    PyMem_Free(self->dmark);
    PyMem_Free(self->trail);
    PyMem_Free(self->buf);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *db_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    FastDatabase *self;
    if (PyTuple_GET_SIZE(args) || (kwds != NULL && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "FastDatabase() takes no arguments");
        return NULL;
    }
    if ((self = (FastDatabase *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    self->max_var = -1; /* no arrays yet; grow_vars clears from max_var + 1 */
    if (grow_vars(self, 64) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

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
     "rat(lits) -> bool\n\nRAT on the first literal: every resolvent tautological or RUP."},
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
    .tp_doc = "Clause database with watched-literal propagation and RUP/RAT checks.",
    .tp_methods = db_methods,
    .tp_new = db_new,
};

static struct PyModuleDef fastcheck_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fastcheck",
    .m_doc = "Compiled RUP/RAT checking core; see FastDatabase.",
    .m_size = -1,
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
