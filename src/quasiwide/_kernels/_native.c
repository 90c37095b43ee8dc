/* Compiled type-tree round: the twin of quasiwide._kernels.pure.tree_round
 * for phi and psi rounds with three or more free slots (t >= 2).
 *
 * Adjacency arrives as bytes holding one row of little-endian 64-bit words
 * per vertex: bit v of row u is set when u and v are adjacent. The tree
 * grows node by node as in pure's _Descent. Each candidate z descends from
 * the root; below depth t a node has one child, and at a node of depth
 * d >= t the child is picked by a signature with one bit per increasing
 * (t-1)-tuple of the first d-1 labels on the path, each bit one formula
 * evaluation on (tuple, node label, z, tail). The tail, z and the node
 * label are folded into a mask before the tuples are enumerated.
 *
 * Children live in one dict keyed by the parent's index followed by the
 * signature words, trailing zero words cut: at a given node every
 * signature has the same number of bits, so equal keys mean equal
 * evaluations, which is all the tree structure depends on.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAX_ARITY 8

typedef uint64_t u64;

typedef struct {
    const unsigned char *rows;
    Py_ssize_t words;
} Rows;

/* Word w of row u, complemented for a negative literal. */
static inline u64 row_word(const Rows *m, Py_ssize_t u, Py_ssize_t w, int positive)
{
    u64 x;
    memcpy(&x, m->rows + 8 * (u * m->words + w), 8);
#if PY_BIG_ENDIAN
    x = __builtin_bswap64(x);
#endif
    return positive ? x : ~x;
}

/* Does some vertex of mask satisfy the literals on the tuple's labels? */
static int has_witness(const Rows *m, const u64 *mask, const Py_ssize_t *path,
                       const int *combo, int s, const int *positive)
{
    for (Py_ssize_t w = 0; w < m->words; w++) {
        u64 acc = mask[w];
        for (int j = 0; j < s && acc; j++)
            acc &= row_word(m, path[combo[j]], w, positive[j]);
        if (acc)
            return 1;
    }
    return 0;
}

/* Copy a sequence of vertex ids into out[], checking each is below n. */
static int read_vertices(PyObject *fast, Py_ssize_t n, Py_ssize_t *out)
{
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        Py_ssize_t v = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(fast, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < 0 || v >= n) {
            PyErr_Format(PyExc_ValueError, "vertex %zd is not in the graph", v);
            return -1;
        }
        out[i] = v;
    }
    return 0;
}

static PyObject *tree_round(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rows, *seq_obj, *tail_obj;
    Py_ssize_t n;
    int kind, i_split, arity;
    if (!PyArg_ParseTuple(args, "SnOiiiO:tree_round", &rows, &n, &seq_obj, &kind,
                          &i_split, &arity, &tail_obj))
        return NULL;
    PyObject *seq = PySequence_Fast(seq_obj, "seq must be a sequence");
    PyObject *tail = seq ? PySequence_Fast(tail_obj, "tail must be a sequence") : NULL;
    PyObject *children = PyDict_New(), *key = NULL, *result = NULL;
    Py_ssize_t *ints = NULL;
    u64 *masks = NULL, *sig = NULL;
    unsigned char *seen = NULL;
    if (tail == NULL || children == NULL)
        goto done;

    Py_ssize_t L = PySequence_Fast_GET_SIZE(seq);
    int m = (int)PySequence_Fast_GET_SIZE(tail);
    int t = arity - m - 1, s = t - 1;
    Rows mat = {(const unsigned char *)PyBytes_AS_STRING(rows), n > 0 ? (n + 63) / 64 : 1};
    if (arity > MAX_ARITY || (kind != 1 && kind != 2) || t < 2) {
        PyErr_SetString(PyExc_ValueError,
                        "the compiled round takes phi or psi with 3 to 8 free slots");
        goto done;
    }
    if (n < 0 || PyBytes_GET_SIZE(rows) != 8 * n * mat.words) {
        PyErr_SetString(PyExc_ValueError, "rows must hold n rows of ceil(n/64) words");
        goto done;
    }
    /* ints: candidates, tail, then per node its label, parent and depth,
     * then the labels on the current path */
    ints = PyMem_Malloc((L + m + 4 * (L + 1)) * sizeof(Py_ssize_t));
    /* masks: base (tail folded in), zm (z too), nm (the node label too) */
    masks = PyMem_Malloc(3 * mat.words * sizeof(u64));
    seen = PyMem_Calloc(n > 0 ? n : 1, 1);
    Py_ssize_t sig_cap = 2;
    sig = PyMem_Malloc(sig_cap * sizeof(u64));
    if (!ints || !masks || !seen || !sig) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t *zs = ints, *tl = zs + L, *label = tl + m, *parent = label + L + 1,
               *depth = parent + L + 1, *path = depth + L + 1;
    u64 *base = masks, *zm = base + mat.words, *nm = zm + mat.words;
    if (read_vertices(seq, n, zs) < 0 || read_vertices(tail, n, tl) < 0)
        goto done;

    int positive[MAX_ARITY];
    for (int p = 0; p < arity; p++)
        positive[p] = (kind == 1) == (p < i_split);
    for (Py_ssize_t w = 0; w < mat.words; w++) {
        int rest = (int)(n & 63);
        base[w] = (w == mat.words - 1 && rest) ? ((u64)1 << rest) - 1 : ~(u64)0;
        for (int j = 0; j < m; j++)
            base[w] &= row_word(&mat, tl[j], w, positive[t + 1 + j]);
    }
    Py_ssize_t nodes = 1, best = 0;
    label[0] = parent[0] = -1;
    depth[0] = 0;
    for (Py_ssize_t i = 0; i < L; i++) {
        Py_ssize_t z = zs[i], node = 0;
        if (seen[z]) {
            PyErr_Format(PyExc_ValueError, "vertex %zd repeats in the sequence", z);
            goto done;
        }
        seen[z] = 1;
        for (Py_ssize_t w = 0; w < mat.words; w++)
            zm[w] = base[w] & row_word(&mat, z, w, positive[t]);
        for (;;) {
            Py_ssize_t d = depth[node], used = 0; /* signature words after the prefix */
            sig[0] = (u64)node;
            u64 any = 0;
            if (d >= t) {
                for (Py_ssize_t w = 0; w < mat.words; w++) {
                    nm[w] = zm[w] & row_word(&mat, path[d - 1], w, positive[s]);
                    any |= nm[w];
                }
            }
            if (any) {
                int combo[MAX_ARITY];
                Py_ssize_t u_pool = d - 1, bit = 0;
                for (int j = 0; j < s; j++)
                    combo[j] = j;
                for (;;) {
                    if (has_witness(&mat, nm, path, combo, s, positive)) {
                        Py_ssize_t wi = 1 + (bit >> 6);
                        if (wi >= sig_cap) {
                            sig_cap = 2 * wi;
                            u64 *grown = PyMem_Realloc(sig, sig_cap * sizeof(u64));
                            if (!grown) {
                                PyErr_NoMemory();
                                goto done;
                            }
                            sig = grown;
                        }
                        for (; used < wi; used++)
                            sig[used + 1] = 0;
                        sig[wi] |= (u64)1 << (bit & 63);
                    }
                    bit++;
                    int j = s - 1;
                    while (j >= 0 && combo[j] == u_pool - s + j)
                        j--;
                    if (j < 0)
                        break;
                    combo[j]++;
                    for (int jj = j + 1; jj < s; jj++)
                        combo[jj] = combo[jj - 1] + 1;
                }
            }
            key = PyBytes_FromStringAndSize((const char *)sig, 8 * (1 + used));
            if (key == NULL)
                goto done;
            PyObject *child = PyDict_GetItemWithError(children, key);
            if (child == NULL) {
                PyObject *idx = PyErr_Occurred() ? NULL : PyLong_FromSsize_t(nodes);
                int rc = idx ? PyDict_SetItem(children, key, idx) : -1;
                Py_XDECREF(idx);
                if (rc < 0)
                    goto done;
                label[nodes] = z;
                parent[nodes] = node;
                depth[nodes] = d + 1;
                if (d + 1 > depth[best])
                    best = nodes;
                nodes++;
                Py_CLEAR(key);
                break;
            }
            Py_CLEAR(key);
            node = PyLong_AsSsize_t(child);
            path[depth[node] - 1] = label[node];
        }
    }
    result = PyList_New(depth[best]);
    for (Py_ssize_t node = best; result && node != 0; node = parent[node]) {
        PyObject *v = PyLong_FromSsize_t(label[node]);
        if (v == NULL)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, depth[node] - 1, v);
    }

done:
    Py_XDECREF(key);
    Py_XDECREF(children);
    Py_XDECREF(seq);
    Py_XDECREF(tail);
    PyMem_Free(ints);
    PyMem_Free(masks);
    PyMem_Free(seen);
    PyMem_Free(sig);
    return result;
}

static PyMethodDef methods[] = {
    {"tree_round", tree_round, METH_VARARGS,
     "tree_round(rows, n, seq, kind, i_split, arity, tail) -> list\n\n"
     "One type-tree insertion round with three or more free slots; returns\n"
     "the longest branch, the earliest deepest leaf winning ties."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_native", "Compiled type-tree round.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__native(void)
{
    return PyModule_Create(&module);
}
