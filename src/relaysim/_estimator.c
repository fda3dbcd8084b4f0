/* Windowed jitter/transit estimators and the playout buffer's core,
compiled against the CPython API.

``TransitEstimator`` keeps the windowed transit histogram and its quantile;
``JitterEstimator`` extends it with everything the reordering lag needs.
``relaysim.estimator`` re-exports both, and ``tests/estimator_reference.py``
is their oracle, an independent model that recomputes every quantile from a
cumulative sum per query where these keep incremental pointers. They must
return identical float64 outputs (every lag, transit target and window
count).

State per stream, over a sliding window of recent arrivals:

* a histogram of inter-arrival jitter samples |d(arrival) - d(ts)| between
  consecutive in-order arrivals (each packet newer than every one before
  it), bin width ``bin_ms``;
* a histogram of one-way transits (arrival - ts);
* the reorder depth: the deepest transit among the arrivals of the last
  ``DISORDER_GUARD_MS``, minus this arrival's transit, at its lower bin
  edge (float noise in a flat transit stays at zero);
* the current reordering lag, the larger of a jitter lag and the reorder
  depth. The jitter lag comes from a two-state machine. While the stream is
  orderly it tracks the jitter quantile at ``percentile``. A single
  out-of-order arrival opens a reordering episode: for its whole duration
  the jitter lag only ratchets upward, to the minimizer of
  cost(i) = max(0, i - lag) + loss_cost * (1 - F(i)) where F is the jitter
  CDF, scanned in bin steps up to the window's max jitter. The episode
  closes once in-order arrivals have continued for ``DISORDER_GUARD_MS``
  with no further reordering; only then does the jitter lag return to
  quantile tracking.

The reorder depth is what keeps a latency drop from costing the packets
still in flight on the slow side of it. When the transit falls by D, the
first fast packet lands while the last D ms of slow packets are still on
their way, and every one of them will surface D ms behind the newest
timestamp. The deep transits of the slow packets that already arrived are
the evidence: holding the lag at the depth for the guard time lets the
watermark wait for the rest. A packet never has to be seen out of order
first, so the lag is in place before the first straggler arrives.

Jitter is sampled between in-order arrivals only. An out-of-order arrival's
spacing against its fresh neighbours measures reorder depth, which the depth
term already covers; counted as jitter, one latency drop would fill the
window with depth-sized samples and hold the quantile there for a whole
window after the stragglers are gone.

The episode state matters because a reorder run caused by one latency step
arrives interleaved with fresh packets. Treating each interleaved fresh
packet as "back in order" would re-arm the quantile mid-run and walk the
watermark straight over the run's remaining stragglers.

The transit quantile (upper bin edge) backs the playout buffer's target
delay; the lag backs the watermark reorderer. The buffer reads nothing else,
so it runs on a ``TransitEstimator``, which skips the jitter histogram, the
depth hold and the ratchet's scan on every arrival. Both types share one
object layout and one ``update``: a ``JitterEstimator`` runs the transit
step and then the jitter step. The jitter samples keep a window of their
own, of in-order arrivals only, evicted at the same cutoff as the transit
window.

No query sums a whole histogram. Each quantile keeps a pointer ``(q, cum)``
with ``cum`` the count in bins ``0..q``; a count change at a bin ``<= q``
bumps ``cum``, and a query walks the pointer from where the last one left it
to the first bin whose cumulative count reaches ``percentile * total``. The
cost argmin starts from the bin of the current lag, since no bin at or under
the lag can beat the ``max(lag, .)`` ratchet, and scans upward only while
the distance past the lag is below the best cost so far: at most
``loss_cost_ms / bin_ms`` bins.

A stream known up front goes through one whole-stream pass instead of an
``update`` per arrival: ``JitterEstimator.lags(ts, ta)`` returns the lag
column and ``targets(ts, ta)`` the transit target after each arrival (a
``JitterEstimator``'s ``targets`` advances its jitter state too). A pass
reads its two float64 columns through the buffer protocol, checks the whole
stream first and raises what ``update`` would raise at the first bad
arrival, before any state changes; then it runs the same step as ``update``
per arrival, so it ends in the state those calls would leave.

The playout buffer's state and rule live here too, as ``PlayoutCore``,
the base type of ``PlayoutBuffer`` (``relaysim.jitter`` states the rule).
Its struct holds the buffer's scalars and its held packets, an open
addressing table keyed by seq that lives as long as the buffer, so the
buffer's state is in one place and a call runs on it in place. ``_play``
runs the rule over a whole schedule and ``_arrive`` over one arrival. Its
oracle is ``tests/buffer_reference.py``, the rule written per arrival in
Python; every fate, output time and state must equal it. The rule takes
the target column, or the bound ``targets`` that gives it, never the
estimator. ``_play`` checks every column (dtype, length, contiguity), and
that every seq and every held seq lies inside the output columns, before
it calls ``targets`` or writes anything.

The routed session loop is here as well, as ``route``, which
``relaysim.engine`` runs for every session with a router; the engine's
docstring states its rules. It runs one event queue: arrivals, feedback
and control messages are C structs in a binary heap that pops them as
``heapq`` pops the tuples (time, kind, push order). Each packet's arrival
joins it as the packet is generated, at its tick, with its ta read from a
lookup window that the engine's block function fills. Every layer is
reached through its Python entry point: the manager's ``on_arrival``, the
router's ``observe``, ``follows_plan``, ``select`` and ``path_for``, the
forward trace's ``sample`` and the engine's block function. An exception
from any of them leaves ``route`` at once, with what it allocated freed.
``Arrival`` is the compiled ``(seq, ts)`` it hands to ``on_arrival``.

Python's arithmetic, reproduced exactly (the build passes
``-ffp-contract=off``, so no multiply-add is fused):

* ``int(x / bin_ms)`` of a nonnegative value, with everything past the last
  bin in it: the quotient is clamped to ``nbins - 1`` before the C cast
  truncates it, as ``int()`` does;
* an int times a float (``q * bin_ms``): the int converted to double, exact
  below 2**53;
* int/int true division (``count / total``): both converted to double and
  divided once, correctly rounded as Python's is, exact below 2**53;
* an int count against a float need (``cum >= need``): the count converted
  to double, an exact comparison below 2**53.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>

/* reordering-episode guard: the episode ends after this much orderly time,
   and a transit is held as reorder-depth evidence for this long.
   Deliberately a constant: tying it to the current lag would let a
   ratcheted lag hold the episode open, which holds the lag up, which locks
   the episode. */
#define DISORDER_GUARD_MS 100.0

static const char BEFORE_TS[] = "arrival precedes generation timestamp";
static const char BACKWARDS[] = "arrivals must be fed in nondecreasing arrival order";
static const char NOT_FINITE[] = "ts and arrival must be finite";

static PyObject *ValidationError;
static PyObject *np_asarray, *np_empty, *np_float64;

/* ------------------------------------------------------------ ring buffer */

/* (arrival, bin) in a histogram's window, (arrival, transit) in the depth
   hold */
typedef struct {
    double t;
    union {
        Py_ssize_t bin;
        double transit;
    };
} Entry;

/* a growable ring: ``cap`` is 0 or a power of two */
typedef struct {
    Entry *buf;
    Py_ssize_t head, len, cap;
} Ring;

static inline Entry *
ring_at(const Ring *r, Py_ssize_t i)
{
    return &r->buf[(r->head + i) & (r->cap - 1)];
}

static inline void
ring_pop_front(Ring *r)
{
    r->head = (r->head + 1) & (r->cap - 1);
    r->len--;
}

/* room for one more entry; the ring's contents do not change */
static int
ring_reserve(Ring *r)
{
    if (r->len < r->cap)
        return 0;
    Py_ssize_t cap = r->cap ? 2 * r->cap : 64;
    Entry *buf = PyMem_New(Entry, cap);
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < r->len; i++)
        buf[i] = *ring_at(r, i);
    PyMem_Free(r->buf);
    r->buf = buf;
    r->head = 0;
    r->cap = cap;
    return 0;
}

/* the slot past the last entry, which becomes the last (after a reserve) */
static inline Entry *
ring_push(Ring *r)
{
    return ring_at(r, r->len++);
}

/* -------------------------------------------------------------- histogram */

typedef struct {
    Py_ssize_t *bins;
    Py_ssize_t q, cum;  /* quantile pointer: the count in bins 0..q (q = -1: no bin yet) */
    Ring window;        /* (arrival, bin) of every sample counted */
} Hist;

static int
hist_init(Hist *h, Py_ssize_t nbins)
{
    h->bins = PyMem_Calloc(nbins, sizeof(Py_ssize_t));
    if (h->bins == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    h->q = -1;
    return 0;
}

static void
hist_free(Hist *h)
{
    PyMem_Free(h->bins);
    PyMem_Free(h->window.buf);
    memset(h, 0, sizeof(*h));
}

static inline void
hist_evict(Hist *h, double cutoff)
{
    Ring *w = &h->window;
    while (w->len && w->buf[w->head].t < cutoff) {
        Py_ssize_t k = w->buf[w->head].bin;
        ring_pop_front(w);
        h->bins[k]--;
        if (k <= h->q)
            h->cum--;
    }
}

static inline void
hist_add(Hist *h, double arrival, Py_ssize_t k)
{
    h->bins[k]++;
    if (k <= h->q)
        h->cum++;
    Entry *e = ring_push(&h->window);
    e->t = arrival;
    e->bin = k;
}

/* Move the quantile pointer to the first bin whose cumulative count reaches
   ``need``, the bin ``searchsorted(cumsum(bins), need, "left")`` finds.
   ``need`` is positive and at most the total count. */
static inline Py_ssize_t
hist_walk(Hist *h, double need)
{
    const Py_ssize_t *bins = h->bins;
    Py_ssize_t q = h->q, cum = h->cum;
    if ((double)cum >= need) {
        while ((double)(cum - bins[q]) >= need) {
            cum -= bins[q];
            q--;
        }
    }
    else {
        while ((double)cum < need) {
            q++;
            cum += bins[q];
        }
    }
    h->q = q;
    h->cum = cum;
    return q;
}

/* The ratchet: max(lag, first minimizer of the cost over the bins).

   cost(i) = max(0, i*bin - lag) + loss_cost * (1 - F(i)). Up to the last
   bin k with k*bin <= lag the cost is nonincreasing, so that prefix's
   minimum is cost(k) and any minimizer there leaves the lag as it is. Past
   k, only a nonempty bin can lower the cost, and once i*bin - lag alone
   reaches the best cost no later bin can beat it. */
static double
cost_argmin(const Hist *h, Py_ssize_t nbins, double lag, double b, double loss_cost_ms)
{
    const Py_ssize_t *bins = h->bins;
    Py_ssize_t total = h->window.len;
    Py_ssize_t k = (Py_ssize_t)(lag / b);
    while ((double)(k + 1) * b <= lag)
        k++;
    while ((double)k * b > lag)
        k--;
    Py_ssize_t count = h->cum;
    if (k > h->q) {
        for (Py_ssize_t i = h->q + 1; i <= k && i < nbins; i++)
            count += bins[i];
    }
    else {
        for (Py_ssize_t i = k + 1; i <= h->q; i++)
            count -= bins[i];
    }
    double best = loss_cost_ms * (1.0 - (double)count / (double)total);
    Py_ssize_t argmin = -1, i = k;
    while (count < total) {
        i++;
        double over = (double)i * b - lag;
        if (over >= best)
            break;
        Py_ssize_t n = bins[i];
        if (n) {
            count += n;
            double cost = over + loss_cost_ms * (1.0 - (double)count / (double)total);
            if (cost < best) {
                best = cost;
                argmin = i;
            }
        }
    }
    return argmin < 0 ? lag : (double)argmin * b;
}

/* -------------------------------------------------------------- estimator */

/* One layout for both types; ``jitter`` is set for a JitterEstimator, whose
   jitter fields a TransitEstimator leaves unused. */
typedef struct {
    PyObject_HEAD
    double window_ms, bin_ms, percentile, loss_cost_ms, initial_lag_ms, max_lag_ms;
    Py_ssize_t nbins;
    int jitter;
    Hist transit;
    Hist jit;
    /* (arrival, transit) of recent arrivals, transits strictly decreasing
       from the head: the head is the deepest transit still held */
    Ring deep;
    /* the newest ts so far and its arrival: the last in-order arrival */
    double latest_ts, prev_arrival;
    double jitter_lag, depth, last_ooo_arrival;
    char last_in_order, disorder;
} Estimator;

static PyTypeObject TransitType;
static PyTypeObject JitterType;

/* ``int(value / bin_ms)`` with everything past the last bin in it: the
   quotient is clamped to the last bin before it is truncated, so no index
   overflows (a NaN quotient lands in the last bin too). */
static inline Py_ssize_t
bin_of(const Estimator *e, double value)
{
    double x = value / e->bin_ms;
    if (!(x < (double)(e->nbins - 1)))
        return e->nbins - 1;
    return (Py_ssize_t)x;
}

static inline double
newest_arrival(const Estimator *e)
{
    const Ring *w = &e->transit.window;
    return w->len ? ring_at(w, w->len - 1)->t : -INFINITY;
}

/* update's checks on one arrival, against the newest arrival before it */
static int
check_arrival(double ts, double arrival, double newest)
{
    if (!isfinite(ts) || !isfinite(arrival)) {
        PyErr_SetString(PyExc_ValueError, NOT_FINITE);
        return -1;
    }
    if (arrival < ts) {
        PyErr_SetString(PyExc_ValueError, BEFORE_TS);
        return -1;
    }
    /* the newest arrival stays in the window until the next update */
    if (arrival < newest) {
        PyErr_SetString(PyExc_RuntimeError, BACKWARDS);
        return -1;
    }
    return 0;
}

/* room for one more arrival in every ring a step pushes to */
static inline int
reserve(Estimator *e)
{
    if (ring_reserve(&e->transit.window) < 0)
        return -1;
    if (e->jitter && (ring_reserve(&e->jit.window) < 0 || ring_reserve(&e->deep) < 0))
        return -1;
    return 0;
}

/* One checked arrival, after ``reserve``: evict what left the windows and
   count it. Returns the transit, or for a JitterEstimator the lag. */
static double
step(Estimator *e, double ts, double arrival)
{
    double cutoff = arrival - e->window_ms;
    hist_evict(&e->transit, cutoff);
    double transit = arrival - ts;
    hist_add(&e->transit, arrival, bin_of(e, transit));
    if (!e->jitter)
        return transit;

    Hist *h = &e->jit;
    hist_evict(h, cutoff);
    if (ts > e->latest_ts) {
        if (e->latest_ts != -INFINITY) {
            double jitter = fabs((arrival - e->prev_arrival) - (ts - e->latest_ts));
            hist_add(h, arrival, bin_of(e, jitter));
        }
        e->prev_arrival = arrival;
        e->latest_ts = ts;
        if (e->disorder && arrival - e->last_ooo_arrival > DISORDER_GUARD_MS)
            e->disorder = 0;
        e->last_in_order = 1;
    }
    else {
        e->disorder = 1;
        e->last_ooo_arrival = arrival;
        e->last_in_order = 0;
    }

    Ring *deep = &e->deep;
    double hold = arrival - DISORDER_GUARD_MS;
    while (deep->len && deep->buf[deep->head].t < hold)
        ring_pop_front(deep);
    while (deep->len && ring_at(deep, deep->len - 1)->transit <= transit)
        deep->len--;
    Entry *held = ring_push(deep);
    held->t = arrival;
    held->transit = transit;
    double depth = (double)bin_of(e, deep->buf[deep->head].transit - transit) * e->bin_ms;

    double lag;
    if (!h->window.len)
        lag = e->initial_lag_ms;
    else if (!e->disorder)
        lag = (double)hist_walk(h, e->percentile * (double)h->window.len) * e->bin_ms;
    else
        lag = cost_argmin(h, e->nbins, e->jitter_lag, e->bin_ms, e->loss_cost_ms);
    if (lag > e->max_lag_ms)
        lag = e->max_lag_ms;
    e->jitter_lag = lag;
    e->depth = depth;
    return lag >= depth ? lag : depth;
}

/* Upper bin edge of the windowed transit quantile at ``percentile``. */
static inline double
transit_target(Estimator *e)
{
    Py_ssize_t total = e->transit.window.len;
    if (!total)
        return e->initial_lag_ms;
    return (double)(hist_walk(&e->transit, e->percentile * (double)total) + 1) * e->bin_ms;
}

static int
ready(const Estimator *e)
{
    if (e->transit.bins == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "estimator is not initialized");
        return -1;
    }
    return 0;
}

/* --------------------------------------------------------- Python methods */

static void
estimator_free(Estimator *e)
{
    hist_free(&e->transit);
    hist_free(&e->jit);
    PyMem_Free(e->deep.buf);
    memset(&e->deep, 0, sizeof(e->deep));
}

static void
Estimator_dealloc(Estimator *self)
{
    estimator_free(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Estimator_init(Estimator *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"window_ms", "bin_ms", "percentile", "loss_cost_ms",
                             "initial_lag_ms", "max_lag_ms", NULL};
    double window_ms = 2000.0, bin_ms = 1.0, percentile = 0.95, loss_cost_ms = 100.0,
           initial_lag_ms = 0.0, max_lag_ms = 10000.0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|dddddd", kwlist, &window_ms, &bin_ms,
                                     &percentile, &loss_cost_ms, &initial_lag_ms, &max_lag_ms))
        return -1;
    if (!(isfinite(window_ms) && isfinite(bin_ms) && isfinite(percentile)
          && isfinite(loss_cost_ms) && isfinite(initial_lag_ms) && isfinite(max_lag_ms))) {
        PyErr_SetString(ValidationError, "estimator parameters must be finite");
        return -1;
    }
    if (window_ms <= 0 || bin_ms <= 0 || max_lag_ms <= 0) {
        PyErr_SetString(ValidationError, "window_ms, bin_ms, max_lag_ms must be positive");
        return -1;
    }
    if (!(0 < percentile && percentile <= 1)) {
        PyErr_SetString(ValidationError, "percentile must be in (0, 1]");
        return -1;
    }
    if (loss_cost_ms < 0 || initial_lag_ms < 0) {
        PyErr_SetString(ValidationError,
                        "loss_cost_ms and initial_lag_ms must be nonnegative");
        return -1;
    }
    double last = max_lag_ms / bin_ms;  /* int(max_lag_ms / bin_ms) + 1 bins */
    if (!(last < (double)(PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(Py_ssize_t)) - 1)) {
        PyErr_SetString(PyExc_MemoryError, "max_lag_ms / bin_ms bins do not fit in memory");
        return -1;
    }
    estimator_free(self);
    self->window_ms = window_ms;
    self->bin_ms = bin_ms;
    self->percentile = percentile;
    self->loss_cost_ms = loss_cost_ms;
    self->initial_lag_ms = initial_lag_ms;
    self->max_lag_ms = max_lag_ms;
    self->nbins = (Py_ssize_t)last + 1;
    self->jitter = PyObject_TypeCheck((PyObject *)self, &JitterType);
    self->latest_ts = -INFINITY;
    self->prev_arrival = 0.0;
    self->jitter_lag = initial_lag_ms < max_lag_ms ? initial_lag_ms : max_lag_ms;
    self->depth = 0.0;
    self->last_ooo_arrival = -INFINITY;
    self->last_in_order = 1;
    self->disorder = 0;
    if (hist_init(&self->transit, self->nbins) < 0
        || (self->jitter && hist_init(&self->jit, self->nbins) < 0)) {
        estimator_free(self);
        return -1;
    }
    return 0;
}

static PyObject *
Estimator_update(Estimator *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "update() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    double ts = PyFloat_AsDouble(args[0]);
    if (ts == -1.0 && PyErr_Occurred())
        return NULL;
    double arrival = PyFloat_AsDouble(args[1]);
    if (arrival == -1.0 && PyErr_Occurred())
        return NULL;
    if (ready(self) < 0 || check_arrival(ts, arrival, newest_arrival(self)) < 0
        || reserve(self) < 0)
        return NULL;
    return PyFloat_FromDouble(step(self, ts, arrival));
}

static PyObject *
Estimator_transit_target(Estimator *self, PyObject *Py_UNUSED(ignored))
{
    if (ready(self) < 0)
        return NULL;
    return PyFloat_FromDouble(transit_target(self));
}

/* ``obj`` as a C-contiguous float64 buffer: its own when it exports one,
   else that of ``numpy.asarray(obj, float64, order="C")``. */
static int
get_column(PyObject *obj, Py_buffer *view)
{
    if (PyObject_CheckBuffer(obj)
        && PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) == 0) {
        if (view->itemsize == 8 && view->format != NULL && strcmp(view->format, "d") == 0)
            return 0;
        PyBuffer_Release(view);
    }
    PyErr_Clear();
    PyObject *kw = Py_BuildValue("{s:O,s:s}", "dtype", np_float64, "order", "C");
    if (kw == NULL)
        return -1;
    PyObject *arr = PyObject_VectorcallDict(np_asarray, &obj, 1, kw);
    Py_DECREF(kw);
    if (arr == NULL)
        return -1;
    int rc = PyObject_GetBuffer(arr, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT);
    Py_DECREF(arr);
    return rc;
}

/* ``update`` (and with ``targets``, ``transit_target``) for each arrival of
   a stream in arrival order: the column of their outputs. */
static PyObject *
run_pass(Estimator *self, PyObject *const *args, Py_ssize_t nargs, int targets)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes 2 arguments (%zd given)",
                     targets ? "targets" : "lags", nargs);
        return NULL;
    }
    if (ready(self) < 0)
        return NULL;
    Py_buffer ts, ta, out;
    PyObject *column = NULL;
    if (get_column(args[0], &ts) < 0)
        return NULL;
    if (get_column(args[1], &ta) < 0) {
        PyBuffer_Release(&ts);
        return NULL;
    }
    if (ts.ndim != 1 || ta.ndim != 1 || ts.shape[0] != ta.shape[0]) {
        PyErr_SetString(PyExc_ValueError, "ts and ta must be 1-d columns of one length");
        goto done;
    }
    Py_ssize_t n = ts.shape[0];
    const double *t = ts.buf, *a = ta.buf;
    double newest = newest_arrival(self);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (check_arrival(t[i], a[i], newest) < 0)
            goto done;
        newest = a[i];
    }
    column = PyObject_CallFunction(np_empty, "n", n);
    if (column == NULL)
        goto done;
    if (PyObject_GetBuffer(column, &out, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0) {
        Py_CLEAR(column);
        goto done;
    }
    double *o = out.buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (reserve(self) < 0) {
            Py_CLEAR(column);
            break;
        }
        double value = step(self, t[i], a[i]);
        o[i] = targets ? transit_target(self) : value;
    }
    PyBuffer_Release(&out);
done:
    PyBuffer_Release(&ts);
    PyBuffer_Release(&ta);
    return column;
}

static PyObject *
Estimator_targets(Estimator *self, PyObject *const *args, Py_ssize_t nargs)
{
    return run_pass(self, args, nargs, 1);
}

static PyObject *
Estimator_lags(Estimator *self, PyObject *const *args, Py_ssize_t nargs)
{
    return run_pass(self, args, nargs, 0);
}

/* --------------------------------------------------------- playout buffer */

/* the codes of ``jitter.FATES`` that the step writes */
#define FATE_DROPPED_LATE 1
#define FATE_DELIVERED 2

/* A held packet: an open addressing table with linear probing, a seq's home
   slot its low bits, so the run of seqs a buffer holds lands in consecutive
   slots. */
typedef struct {
    Py_ssize_t seq;  /* -1: empty */
    double ts, arrival;
} Slot;

/* The buffer's held packets, for as long as the buffer lives. ``slots`` is
   NULL until the first packet and after a flush. */
typedef struct {
    Slot *slots;
    Py_ssize_t mask, count;
} Held;

/* the slot that holds ``seq``, else the empty one where it would go */
static inline Slot *
held_slot(const Held *h, Py_ssize_t seq)
{
    Py_ssize_t i = seq & h->mask;
    while (h->slots[i].seq >= 0 && h->slots[i].seq != seq)
        i = (i + 1) & h->mask;
    return &h->slots[i];
}

/* room for ``count`` packets at most half full, the table's contents kept */
static int
held_reserve(Held *h, Py_ssize_t count)
{
    if (h->slots != NULL && 2 * count <= h->mask + 1)
        return 0;
    Py_ssize_t cap = 16;
    while (cap < 2 * count) {
        if (cap > PY_SSIZE_T_MAX / (Py_ssize_t)(4 * sizeof(Slot))) {
            PyErr_NoMemory();
            return -1;
        }
        cap *= 2;
    }
    Slot *slots = PyMem_New(Slot, cap), *old = h->slots;
    if (slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < cap; i++)
        slots[i].seq = -1;
    Py_ssize_t old_mask = h->mask;
    h->slots = slots;
    h->mask = cap - 1;
    if (old != NULL) {
        for (Py_ssize_t i = 0; i <= old_mask; i++)
            if (old[i].seq >= 0)
                *held_slot(h, old[i].seq) = old[i];
        PyMem_Free(old);
    }
    return 0;
}

static void
held_clear(Held *h)
{
    PyMem_Free(h->slots);
    h->slots = NULL;
    h->mask = h->count = 0;
}

/* hold a packet whose seq is not held yet */
static int
held_add(Held *h, Py_ssize_t seq, double ts, double arrival)
{
    if (held_reserve(h, h->count + 1) < 0)
        return -1;
    Slot *s = held_slot(h, seq);
    s->seq = seq;
    s->ts = ts;
    s->arrival = arrival;
    h->count++;
    return 0;
}

/* empty a held slot; the rest of its cluster, which may have probed past
   it, goes back in */
static void
held_remove(Held *h, Slot *s)
{
    Py_ssize_t i = s - h->slots;
    h->slots[i].seq = -1;
    h->count--;
    for (i = (i + 1) & h->mask; h->slots[i].seq >= 0; i = (i + 1) & h->mask) {
        Slot moved = h->slots[i];
        h->slots[i].seq = -1;
        *held_slot(h, moved.seq) = moved;
    }
}

/* All of a playout buffer's state: what ``PlayoutBuffer`` builds on. */
typedef struct {
    PyObject_HEAD
    double interval, target, ts_base, last_out;
    int has_base;  /* ts_base is unset until the first arrival */
    Py_ssize_t next_seq, max_seen, dropped_count;
    Held held;
} PlayoutCore;

/* ``seq`` as an index into columns of length ``limit`` */
static int
check_seq(Py_ssize_t seq, Py_ssize_t limit, const char *what)
{
    if (seq < 0 || seq >= limit) {
        PyErr_Format(PyExc_IndexError, "%s %zd is out of range for columns of length %zd",
                     what, seq, limit);
        return -1;
    }
    return 0;
}

/* every seq of a schedule, and every seq held from before it, inside
   columns of length ``limit``; an empty schedule releases nothing, so what
   is held is checked only for a schedule with arrivals in it */
static int
check_seqs(const PlayoutCore *b, const Py_ssize_t *seqs, Py_ssize_t n, Py_ssize_t limit)
{
    for (Py_ssize_t i = 0; i < n; i++)
        if (check_seq(seqs[i], limit, "seq") < 0)
            return -1;
    const Held *h = &b->held;
    for (Py_ssize_t i = 0; n && h->count && i <= h->mask; i++)
        if (h->slots[i].seq >= 0 && check_seq(h->slots[i].seq, limit, "held seq") < 0)
            return -1;
    return 0;
}

/* The buffer's rule over ``n`` arrivals: ``seqs``, ``ts``, ``ta`` and
   ``after`` in arrival order, ``after`` the estimator's target after each
   arrival.

   An arrival is dropped if its slot has passed, or if it comes after its
   deadline, ts plus the target before it (the first arrival is never
   late). Otherwise it is held, and slots are then released in seq order
   while their deadlines are behind the arrival time: a held packet plays
   at the latest of its deadline, its arrival and the last output time; a
   missing slot, its ts inferred from the cadence, blocks its successors
   until its own deadline strictly passes.

   A released seq's output time goes into ``to`` and its fate into
   ``fate``, a dropped one's fate too; without columns, the (seq, out) of
   each release go into ``released``. A duplicate seq raises, and the
   buffer stays as the arrivals before it left it, the target after the
   duplicate included. */
static int
run_buffer(PlayoutCore *b, Py_ssize_t n, const Py_ssize_t *seqs, const double *ts,
           const double *ta, const double *after, double *to, signed char *fate,
           PyObject *released)
{
    Held *held = &b->held;
    if (held_reserve(held, 0) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t seq = seqs[i];
        double t = ts[i], now = ta[i];
        int cold = !b->has_base;
        if (cold) {
            b->ts_base = t - (double)seq * b->interval;
            b->has_base = 1;
        }
        if (seq > b->max_seen)
            b->max_seen = seq;
        int late = !cold && now > t + b->target;  /* the pre-arrival target */
        b->target = after[i];
        if (seq < b->next_seq || late) {
            b->dropped_count++;
            if (fate != NULL)
                fate[seq] = FATE_DROPPED_LATE;
            continue;
        }
        if (held_slot(held, seq)->seq >= 0) {
            PyErr_Format(PyExc_ValueError, "duplicate seq %zd", seq);
            return -1;
        }
        if (held_add(held, seq, t, now) < 0)
            return -1;
        for (;;) {
            Slot *s = held_slot(held, b->next_seq);
            if (s->seq >= 0) {
                double t_out = s->ts + b->target;
                if (t_out > now)
                    break;
                if (s->arrival > t_out)
                    t_out = s->arrival;
                if (b->last_out > t_out)
                    t_out = b->last_out;
                if (to != NULL) {
                    to[b->next_seq] = t_out;
                    fate[b->next_seq] = FATE_DELIVERED;
                }
                else {
                    PyObject *pair = Py_BuildValue("(nd)", b->next_seq, t_out);
                    int bad = pair == NULL || PyList_Append(released, pair) < 0;
                    Py_XDECREF(pair);
                    if (bad)
                        return -1;
                }
                b->last_out = t_out;
                held_remove(held, s);
                b->next_seq++;
            }
            else if (b->next_seq <= b->max_seen
                     && now > b->ts_base + (double)b->next_seq * b->interval + b->target)
                b->next_seq++;  /* a missing slot whose deadline has passed */
            else
                break;
        }
    }
    return 0;
}

static void
PlayoutCore_dealloc(PlayoutCore *self)
{
    held_clear(&self->held);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
PlayoutCore_init(PlayoutCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"interval_ms", "target", NULL};
    double interval, target;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "dd", kwlist, &interval, &target))
        return -1;
    if (interval <= 0) {
        PyErr_SetString(PyExc_ValueError, "interval_ms must be positive");
        return -1;
    }
    held_clear(&self->held);
    self->interval = interval;
    self->target = target;
    self->ts_base = 0.0;
    self->has_base = 0;
    self->last_out = -INFINITY;
    self->next_seq = 0;
    self->max_seen = -1;
    self->dropped_count = 0;
    return 0;
}

/* ``obj`` as a writable C-contiguous 1-d buffer of ``format`` */
static int
get_output(PyObject *obj, Py_buffer *view, const char *name, const char *format,
           Py_ssize_t itemsize, const char *dtype)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != itemsize || view->format == NULL
        || strcmp(view->format, format) != 0) {
        PyErr_Format(PyExc_TypeError, "%s must be a 1-d %s column", name, dtype);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static const char SCHEDULE_LENGTHS[] = "ts, ta and after must be 1-d columns of order's length";

static PyObject *
PlayoutCore_play(PlayoutCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "_play() takes 6 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *after_obj = NULL, *result = NULL;
    Py_buffer order, ts, ta, after, to, fate;
    order.obj = ts.obj = ta.obj = after.obj = to.obj = fate.obj = NULL;
    if (PyObject_GetBuffer(args[0], &order, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return NULL;
    if (order.ndim != 1 || order.itemsize != 8 || order.format == NULL
        || (strcmp(order.format, "l") != 0 && strcmp(order.format, "q") != 0)) {
        PyErr_SetString(PyExc_TypeError, "order must be a 1-d int64 column");
        goto done;
    }
    Py_ssize_t n = order.shape[0];
    const Py_ssize_t *seqs = order.buf;
    if (get_column(args[1], &ts) < 0 || get_column(args[2], &ta) < 0)
        goto done;
    if (ts.ndim != 1 || ta.ndim != 1 || ts.shape[0] != n || ta.shape[0] != n) {
        PyErr_SetString(PyExc_ValueError, SCHEDULE_LENGTHS);
        goto done;
    }
    if (get_output(args[4], &to, "to", "d", 8, "float64") < 0
        || get_output(args[5], &fate, "fate", "b", 1, "int8") < 0)
        goto done;
    if (to.shape[0] != fate.shape[0]) {
        PyErr_SetString(PyExc_ValueError, "to and fate must be columns of one length");
        goto done;
    }
    if (check_seqs(self, seqs, n, to.shape[0]) < 0)
        goto done;
    /* the estimator sees the schedule only once it is known good; ``targets``
       runs Python code, so the seqs are checked again after it */
    after_obj = PyObject_Vectorcall(args[3], args + 1, 2, NULL);
    if (after_obj == NULL || get_column(after_obj, &after) < 0)
        goto done;
    if (after.ndim != 1 || after.shape[0] != n) {
        PyErr_SetString(PyExc_ValueError, SCHEDULE_LENGTHS);
        goto done;
    }
    if (check_seqs(self, seqs, n, to.shape[0]) == 0
        && run_buffer(self, n, seqs, ts.buf, ta.buf, after.buf, to.buf, fate.buf, NULL) == 0)
        result = Py_NewRef(Py_None);
done:
    Py_XDECREF(after_obj);
    PyBuffer_Release(&order);
    PyBuffer_Release(&ts);
    PyBuffer_Release(&ta);
    PyBuffer_Release(&after);
    PyBuffer_Release(&to);
    PyBuffer_Release(&fate);
    return result;
}

static PyObject *
PlayoutCore_arrive(PlayoutCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "_arrive() takes 4 arguments (%zd given)", nargs);
        return NULL;
    }
    Py_ssize_t seq = PyNumber_AsSsize_t(args[0], PyExc_OverflowError);
    if (seq == -1 && PyErr_Occurred())
        return NULL;
    double one[3];  /* ts, arrival, and the target after it */
    for (int k = 0; k < 3; k++) {
        one[k] = PyFloat_AsDouble(args[1 + k]);
        if (one[k] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (check_seq(seq, PY_SSIZE_T_MAX, "seq") < 0)
        return NULL;
    PyObject *released = PyList_New(0);
    if (released == NULL)
        return NULL;
    Py_ssize_t dropped = self->dropped_count;
    if (run_buffer(self, 1, &seq, &one[0], &one[1], &one[2], NULL, NULL, released) < 0) {
        Py_DECREF(released);
        return NULL;
    }
    return Py_BuildValue("(NO)", released, self->dropped_count > dropped ? Py_True : Py_False);
}

static PyObject *
PlayoutCore_flush(PlayoutCore *self, PyObject *end_time)
{
    Held *h = &self->held;
    PyObject *out = PyList_New(0);
    if (out == NULL || h->count == 0)
        return out;
    double t_out = PyFloat_AsDouble(end_time);
    if (t_out == -1.0 && PyErr_Occurred())
        goto fail;
    if (!(t_out > self->last_out))
        t_out = self->last_out;
    for (Py_ssize_t i = 0; i <= h->mask; i++) {
        if (h->slots[i].seq < 0)
            continue;
        PyObject *pair = Py_BuildValue("(nd)", h->slots[i].seq, t_out);
        int bad = pair == NULL || PyList_Append(out, pair) < 0;
        Py_XDECREF(pair);
        if (bad)
            goto fail;
    }
    if (PyList_Sort(out) < 0)  /* by seq: no two are equal */
        goto fail;
    self->last_out = t_out;
    held_clear(h);
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

static PyObject *
get_ts_base(PlayoutCore *self, void *closure)
{
    return self->has_base ? PyFloat_FromDouble(self->ts_base) : Py_NewRef(Py_None);
}

static PyObject *
get_pending_count(PlayoutCore *self, void *closure)
{
    return PyLong_FromSsize_t(self->held.count);
}

static PyObject *
get_held(PlayoutCore *self, void *closure)
{
    const Held *h = &self->held;
    PyObject *dict = PyDict_New();
    for (Py_ssize_t i = 0; dict != NULL && h->count && i <= h->mask; i++) {
        const Slot *s = &h->slots[i];
        if (s->seq < 0)
            continue;
        PyObject *key = PyLong_FromSsize_t(s->seq);
        PyObject *pair = Py_BuildValue("(dd)", s->ts, s->arrival);
        if (key == NULL || pair == NULL || PyDict_SetItem(dict, key, pair) < 0)
            Py_CLEAR(dict);
        Py_XDECREF(key);
        Py_XDECREF(pair);
    }
    return dict;
}

static PyMemberDef PlayoutCore_members[] = {
    {"target_delay_ms", T_DOUBLE, offsetof(PlayoutCore, target), READONLY,
     "The estimator's transit target as of the last arrival."},
    {"_target", T_DOUBLE, offsetof(PlayoutCore, target), READONLY, NULL},
    {"_next_seq", T_PYSSIZET, offsetof(PlayoutCore, next_seq), READONLY,
     "The next slot to play out."},
    {"_max_seen", T_PYSSIZET, offsetof(PlayoutCore, max_seen), READONLY,
     "The highest seq that has arrived, -1 before the first."},
    {"_last_out", T_DOUBLE, offsetof(PlayoutCore, last_out), READONLY,
     "The last output time."},
    {"dropped_count", T_PYSSIZET, offsetof(PlayoutCore, dropped_count), READONLY,
     "Arrivals dropped as late, or for a slot already passed."},
    {NULL},
};

static PyGetSetDef PlayoutCore_getset[] = {
    {"_ts_base", (getter)get_ts_base, NULL,
     "The ts of seq 0, inferred from the first arrival; None before it.", NULL},
    {"_buffer", (getter)get_held, NULL,
     "The held packets, as a new dict of seq -> (ts, arrival).", NULL},
    {"pending_count", (getter)get_pending_count, NULL, "Packets held.", NULL},
    {NULL},
};

static PyMethodDef PlayoutCore_methods[] = {
    {"_play", (PyCFunction)(void (*)(void))PlayoutCore_play, METH_FASTCALL,
     "_play(order, ts, ta, targets, to, fate)\n--\n\n"
     "The rule over a schedule. ``order`` is a C-contiguous int64 column of\n"
     "seqs in arrival order, ``ts`` and ``ta`` float64 columns in that order.\n"
     "Checks every column, and that every seq and every held seq lies inside\n"
     "``to`` and ``fate``, then calls ``targets(ts, ta)`` once for the target\n"
     "after each arrival. Writes each release's output time into ``to``\n"
     "(float64) and the fates into ``fate`` (int8), both seq-indexed."},
    {"_arrive", (PyCFunction)(void (*)(void))PlayoutCore_arrive, METH_FASTCALL,
     "_arrive(seq, ts, arrival, target)\n--\n\n"
     "The rule over one arrival, ``target`` the estimator's after it:\n"
     "(the list of (seq, out) released, whether the arrival was dropped)."},
    {"_flush", (PyCFunction)PlayoutCore_flush, METH_O,
     "_flush(end_time)\n--\n\n"
     "Every held packet's (seq, out), in seq order, at ``end_time`` or the\n"
     "last output time, whichever is later; the buffer is left empty."},
    {NULL},
};

static PyTypeObject PlayoutCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "relaysim._estimator.PlayoutCore",
    .tp_doc = PyDoc_STR(
        "PlayoutCore(interval_ms, target)\n--\n\n"
        "The adaptive playout buffer's state and rule: ``interval_ms`` the\n"
        "sender cadence, ``target`` the estimator's transit target to start\n"
        "from. ``relaysim.PlayoutBuffer`` extends it with its estimator."),
    .tp_basicsize = sizeof(PlayoutCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)PlayoutCore_init,
    .tp_dealloc = (destructor)PlayoutCore_dealloc,
    .tp_methods = PlayoutCore_methods,
    .tp_members = PlayoutCore_members,
    .tp_getset = PlayoutCore_getset,
};

/* ------------------------------------------------------------- arrival */

/* The ``(seq, ts)`` that the routed loop hands to a manager's
   ``on_arrival``; it holds no object, so the collector never tracks it. */
typedef struct {
    PyObject_HEAD
    Py_ssize_t seq;
    double ts;
} Arrival;

static PyTypeObject ArrivalType;

static PyObject *
Arrival_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"seq", "ts", NULL};
    Py_ssize_t seq;
    double ts;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "nd", kwlist, &seq, &ts))
        return NULL;
    Arrival *a = PyObject_New(Arrival, type);
    if (a != NULL) {
        a->seq = seq;
        a->ts = ts;
    }
    return (PyObject *)a;
}

static PyMemberDef Arrival_members[] = {
    {"seq", T_PYSSIZET, offsetof(Arrival, seq), READONLY, NULL},
    {"ts", T_DOUBLE, offsetof(Arrival, ts), READONLY, NULL},
    {NULL},
};

static PyTypeObject ArrivalType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "relaysim._estimator.Arrival",
    .tp_doc = PyDoc_STR(
        "Arrival(seq, ts)\n--\n\n"
        "A packet's seq and generation time, all a jitter manager reads off\n"
        "an arrival."),
    .tp_basicsize = sizeof(Arrival),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Arrival_new,
    .tp_members = Arrival_members,
};

/* ------------------------------------------------- the routed session loop */

/* event kinds, in the order they pop at one time */
#define EV_ARRIVAL 0
#define EV_FEEDBACK 1
#define EV_CONTROL 2

static PyObject *str_observe, *str_select, *str_path_for, *str_follows_plan;

/* An arrival, feedback or control message, ordered by (t, kind, order) as
   the tuple ``(t, kind, order, a, b)`` would be. */
typedef struct {
    double t;
    int kind;
    Py_ssize_t order;  /* push order */
    Py_ssize_t a;      /* arrival: the seq; feedback: the path rewarded;
                          control: the plan's number */
    union {
        double fb;        /* arrival: when its feedback would reach the sender
                             if sent on arrival */
        double reward;    /* feedback */
        Py_ssize_t path;  /* control: the plan's path */
    };
} Event;

typedef struct {
    Event *heap;
    Py_ssize_t len, cap, pushed;
} Events;

/* tuple order: the first field that differs decides, by ``<`` */
static inline int
event_less(const Event *x, const Event *y)
{
    if (x->t != y->t)
        return x->t < y->t;
    if (x->kind != y->kind)
        return x->kind < y->kind;
    return x->order < y->order;
}

/* heapq._siftdown: the item at ``pos`` moves up while it is less than its
   parent */
static void
sift_down(Event *heap, Py_ssize_t start, Py_ssize_t pos)
{
    Event item = heap[pos];
    while (pos > start) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!event_less(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* heapq.heappush, the event numbered in push order */
static int
events_push(Events *q, Event ev)
{
    if (q->len == q->cap) {
        Py_ssize_t cap = q->cap ? 2 * q->cap : 64;
        Event *heap = PyMem_Realloc(q->heap, cap * sizeof(Event));
        if (heap == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        q->heap = heap;
        q->cap = cap;
    }
    ev.order = q->pushed++;
    q->heap[q->len] = ev;
    sift_down(q->heap, 0, q->len++);
    return 0;
}

/* heapq.heappop: the last event fills the root's hole after the hole has
   walked down the smaller children to a leaf */
static Event
events_pop(Events *q)
{
    Event *heap = q->heap, last = heap[--q->len];
    if (!q->len)
        return last;
    Event top = heap[0];
    Py_ssize_t end = q->len, pos = 0, child = 1;
    while (child < end) {
        if (child + 1 < end && !event_less(&heap[child], &heap[child + 1]))
            child++;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = last;
    sift_down(heap, 0, pos);
    return top;
}

static inline int
push_feedback(Events *q, double t, Py_ssize_t pid, double reward)
{
    Event ev = {.t = t, .kind = EV_FEEDBACK, .a = pid, .reward = reward};
    return events_push(q, ev);
}

/* ``a, b = obj``, as new references */
static int
unpack2(PyObject *obj, PyObject **a, PyObject **b)
{
    PyObject *items = PySequence_Fast(obj, "cannot unpack a non-iterable object");
    if (items == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(items);
    if (n == 2) {
        *a = Py_NewRef(PySequence_Fast_GET_ITEM(items, 0));
        *b = Py_NewRef(PySequence_Fast_GET_ITEM(items, 1));
    }
    else if (n < 2)
        PyErr_Format(PyExc_ValueError, "not enough values to unpack (expected 2, got %zd)", n);
    else
        PyErr_SetString(PyExc_ValueError, "too many values to unpack (expected 2)");
    Py_DECREF(items);
    return n == 2 ? 0 : -1;
}

/* a path id out of what a router returned, which it steals */
static int
take_path(PyObject *obj, Py_ssize_t *pid)
{
    if (obj == NULL)
        return -1;
    *pid = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    Py_DECREF(obj);
    return *pid == -1 && PyErr_Occurred() ? -1 : 0;
}

static int
follows_plan(PyObject *router)
{
    PyObject *value = PyObject_GetAttr(router, str_follows_plan);
    if (value == NULL)
        return -1;
    int r = PyObject_IsTrue(value);
    Py_DECREF(value);
    return r;
}

/* The state of one routed session's loop; the columns are seq-indexed. */
typedef struct {
    PyObject *router, *on_arrival, *block, *sample, *changes;
    Py_ssize_t n, block_size;
    const double *ticks;
    double *ta, *to;
    signed char *fate;
    int *path;
    int follows;  /* ``follows_plan``, read at the start and after each observe */
    Events q;
    /* the lookup window: the arrival and feedback times of packets ``lo``
       to ``hi`` on path ``pid``, as ``block`` gave them */
    double *win_ta, *win_fb;
    Py_ssize_t lo, hi, pid;
} Loop;

/* ``router.observe(pid, reward)``, then ``follows_plan``, then ``select()``
   while it holds; a new pick is a plan, sent to the sender over the forward
   direct link. */
static int
feedback(Loop *s, const Event *ev, Py_ssize_t *plan_path, double *overhead)
{
    PyObject *pid = PyLong_FromSsize_t(ev->a);
    PyObject *reward = pid == NULL ? NULL : PyFloat_FromDouble(ev->reward);
    if (reward == NULL) {
        Py_XDECREF(pid);
        return -1;
    }
    PyObject *args[3] = {s->router, pid, reward};
    PyObject *r = PyObject_VectorcallMethod(str_observe, args,
                                            3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    Py_DECREF(pid);
    Py_DECREF(reward);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    if ((s->follows = follows_plan(s->router)) <= 0)
        return s->follows;
    Py_ssize_t selected;
    if (take_path(PyObject_VectorcallMethod(str_select, &s->router,
                                            1 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL),
                  &selected) < 0)
        return -1;
    if (selected == *plan_path)
        return 0;
    PyObject *t = PyFloat_FromDouble(ev->t);
    if (t == NULL)
        return -1;
    PyObject *sampled = PyObject_CallOneArg(s->sample, t);
    Py_DECREF(t);
    if (sampled == NULL)
        return -1;
    double delay = PyFloat_AsDouble(sampled);
    Py_DECREF(sampled);
    if (delay == -1.0 && PyErr_Occurred())
        return -1;
    *overhead += delay;
    PyObject *change = Py_BuildValue("(dnn)", ev->t, *plan_path, selected);
    if (change == NULL || PyList_Append(s->changes, change) < 0) {
        Py_XDECREF(change);
        return -1;
    }
    Py_DECREF(change);
    *plan_path = selected;
    Event control = {.t = ev->t + delay, .kind = EV_CONTROL,
                     .a = PyList_GET_SIZE(s->changes), .path = selected};
    return events_push(&s->q, control);
}

/* An arrival handed to ``on_arrival(Arrival(seq, ts), ta)``. A dropped
   packet never plays out, so it is rewarded with its lateness at arrival:
   that is what lets the router learn that a probed path is slow (every
   probe of a bad path is dropped, so without it the path's posterior never
   moves and exploration never stops). Each packet played out is rewarded
   with its output time. Both are sent at max(out, ta), which is ta, as no
   manager emits later. */
static int
hand_over(Loop *s, const Event *ev)
{
    Arrival *arrival = PyObject_New(Arrival, &ArrivalType);
    if (arrival == NULL)
        return -1;
    arrival->seq = ev->a;
    arrival->ts = s->ticks[ev->a];
    PyObject *now = PyFloat_FromDouble(ev->t);
    if (now == NULL) {
        Py_DECREF(arrival);
        return -1;
    }
    PyObject *args[2] = {(PyObject *)arrival, now};
    PyObject *result = PyObject_Vectorcall(s->on_arrival, args, 2, NULL);
    Py_DECREF(arrival);
    Py_DECREF(now);
    if (result == NULL)
        return -1;
    PyObject *emissions, *dropped, *it = NULL, *em = NULL, *seq_obj = NULL, *out_obj = NULL;
    int rc = unpack2(result, &emissions, &dropped);
    Py_DECREF(result);
    if (rc < 0)
        return -1;
    rc = -1;
    int was_dropped = PyObject_IsTrue(dropped);
    if (was_dropped < 0)
        goto done;
    if (was_dropped) {
        s->fate[ev->a] = FATE_DROPPED_LATE;
        if (push_feedback(&s->q, ev->fb, s->path[ev->a], ev->t - s->ticks[ev->a]) < 0)
            goto done;
    }
    if ((it = PyObject_GetIter(emissions)) == NULL)
        goto done;
    while ((em = PyIter_Next(it)) != NULL) {
        if (unpack2(em, &seq_obj, &out_obj) < 0)
            goto done;
        Py_ssize_t seq = PyNumber_AsSsize_t(seq_obj, PyExc_IndexError);
        if (seq == -1 && PyErr_Occurred())
            goto done;
        double out = PyFloat_AsDouble(out_obj);
        if (out == -1.0 && PyErr_Occurred())
            goto done;
        if (check_seq(seq, s->n, "emitted seq") < 0)
            goto done;
        s->to[seq] = out;
        s->fate[seq] = FATE_DELIVERED;
        if (push_feedback(&s->q, ev->fb, s->path[seq], out - s->ticks[seq]) < 0)
            goto done;
        Py_CLEAR(em);
        Py_CLEAR(seq_obj);
        Py_CLEAR(out_obj);
    }
    if (!PyErr_Occurred())
        rc = 0;
done:
    Py_XDECREF(em);
    Py_XDECREF(seq_obj);
    Py_XDECREF(out_obj);
    Py_XDECREF(it);
    Py_DECREF(emissions);
    Py_DECREF(dropped);
    return rc;
}

/* The lookup window from packet ``gen`` on path ``pid``: ``block(lo, hi,
   pid)`` gives the arrival times of packets lo to hi and when each one's
   feedback would reach the sender if sent on arrival. It spans
   ``block_size`` packets on the adopted path, one while the router picks
   paths of its own. */
static int
fill_window(Loop *s, Py_ssize_t gen, Py_ssize_t pid)
{
    if (pid < INT_MIN || pid > INT_MAX) {
        PyErr_Format(PyExc_OverflowError, "path id %zd does not fit the int32 path column", pid);
        return -1;
    }
    Py_ssize_t hi = gen + 1;
    if (s->follows)
        hi = s->n - gen < s->block_size ? s->n : gen + s->block_size;
    PyObject *r = PyObject_CallFunction(s->block, "nnn", gen, hi, pid);
    if (r == NULL)
        return -1;
    PyObject *arrive_obj, *fb_obj;
    int rc = unpack2(r, &arrive_obj, &fb_obj);
    Py_DECREF(r);
    if (rc < 0)
        return -1;
    Py_buffer arrive, fb;
    arrive.obj = fb.obj = NULL;
    Py_ssize_t k = hi - gen;
    rc = -1;
    if (get_column(arrive_obj, &arrive) < 0 || get_column(fb_obj, &fb) < 0)
        goto done;
    if (arrive.ndim != 1 || fb.ndim != 1 || arrive.shape[0] != k || fb.shape[0] != k) {
        PyErr_SetString(PyExc_ValueError, "block must give two 1-d columns of the block's length");
        goto done;
    }
    memcpy(s->win_ta, arrive.buf, k * sizeof(double));
    memcpy(s->win_fb, fb.buf, k * sizeof(double));
    s->lo = gen;
    s->hi = hi;
    s->pid = pid;
    rc = 0;
done:
    PyBuffer_Release(&arrive);
    PyBuffer_Release(&fb);
    Py_DECREF(arrive_obj);
    Py_DECREF(fb_obj);
    return rc;
}

/* Packet ``gen``, on the adopted path ``pid`` or, while the router picks
   paths of its own, on ``path_for(gen)``: its Ta and path go into the
   columns, and its arrival joins the queue. */
static int
generate(Loop *s, Py_ssize_t gen, Py_ssize_t pid)
{
    if (!s->follows) {
        PyObject *seq = PyLong_FromSsize_t(gen);
        if (seq == NULL)
            return -1;
        PyObject *args[2] = {s->router, seq};
        PyObject *r = PyObject_VectorcallMethod(str_path_for, args,
                                                2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
        Py_DECREF(seq);
        if (take_path(r, &pid) < 0)
            return -1;
    }
    if ((pid != s->pid || gen >= s->hi) && fill_window(s, gen, pid) < 0)
        return -1;
    Event arrival = {.t = s->win_ta[gen - s->lo], .kind = EV_ARRIVAL, .a = gen,
                     .fb = s->win_fb[gen - s->lo]};
    s->ta[gen] = arrival.t;
    s->path[gen] = (int)pid;
    return events_push(&s->q, arrival);
}

/* The loop itself, on columns already checked: packet ``gen`` is generated
   while its tick is earlier than every queued event, and otherwise the
   first event pops. */
static int
run_loop(Loop *s, Py_ssize_t initial_path, double *overhead)
{
    const double *ticks = s->ticks;
    Py_ssize_t n = s->n, gen = 0, plan_path = initial_path, active_path = initial_path;
    Py_ssize_t adopted = 0;
    if ((s->follows = follows_plan(s->router)) < 0)
        return -1;
    while (gen < n || s->q.len) {
        if (gen < n && (!s->q.len || ticks[gen] < s->q.heap[0].t)) {
            if (generate(s, gen++, active_path) < 0)
                return -1;
            continue;
        }
        Event ev = events_pop(&s->q);
        if (ev.kind == EV_ARRIVAL) {
            if (s->on_arrival == Py_None) {  /* the transmit reward; play runs after */
                if (push_feedback(&s->q, ev.fb, s->path[ev.a], ev.t - ticks[ev.a]) < 0)
                    return -1;
            }
            else if (hand_over(s, &ev) < 0)
                return -1;
        }
        else if (ev.kind == EV_FEEDBACK) {
            if (feedback(s, &ev, &plan_path, overhead) < 0)
                return -1;
        }
        else if (ev.a > adopted) {  /* a control message not overtaken */
            adopted = ev.a;
            active_path = ev.path;  /* for the packets not yet generated */
        }
    }
    return 0;
}

static PyObject *
route(PyObject *module, PyObject *args)
{
    Loop s;
    memset(&s, 0, sizeof(s));
    PyObject *cols[5];
    Py_ssize_t initial_path;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOnn:route", &s.router, &s.on_arrival, &s.block,
                          &s.sample, &cols[0], &cols[1], &cols[2], &cols[3], &cols[4],
                          &initial_path, &s.block_size))
        return NULL;
    if (s.block_size < 1) {
        PyErr_SetString(PyExc_ValueError, "block_size must be positive");
        return NULL;
    }
    Py_buffer ticks, ta, to, fate, path;
    ticks.obj = ta.obj = to.obj = fate.obj = path.obj = NULL;
    PyObject *result = NULL;
    double overhead = 0.0;
    if (get_column(cols[0], &ticks) < 0)
        goto done;
    if (get_output(cols[1], &ta, "ta", "d", 8, "float64") < 0
        || get_output(cols[2], &to, "to", "d", 8, "float64") < 0
        || get_output(cols[3], &fate, "fate", "b", 1, "int8") < 0
        || get_output(cols[4], &path, "path", "i", 4, "int32") < 0)
        goto done;
    s.n = ticks.ndim == 1 ? ticks.shape[0] : -1;
    if (s.n < 0 || ta.shape[0] != s.n || to.shape[0] != s.n || fate.shape[0] != s.n
        || path.shape[0] != s.n) {
        PyErr_SetString(PyExc_ValueError, "ticks, ta, to, fate and path must be 1-d columns "
                                          "of one length");
        goto done;
    }
    s.ticks = ticks.buf;
    s.ta = ta.buf;
    s.to = to.buf;
    s.fate = fate.buf;
    s.path = path.buf;
    Py_ssize_t window = s.n < s.block_size ? s.n : s.block_size;
    if ((s.win_ta = PyMem_New(double, 2 * window)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s.win_fb = s.win_ta + window;
    if ((s.changes = PyList_New(0)) == NULL)
        goto done;
    if (run_loop(&s, initial_path, &overhead) == 0)
        result = Py_BuildValue("(Od)", s.changes, overhead);
done:
    Py_XDECREF(s.changes);
    PyMem_Free(s.q.heap);
    PyMem_Free(s.win_ta);
    PyBuffer_Release(&ticks);
    PyBuffer_Release(&ta);
    PyBuffer_Release(&to);
    PyBuffer_Release(&fate);
    PyBuffer_Release(&path);
    return result;
}

static PyMethodDef module_methods[] = {
    {"route", (PyCFunction)route, METH_VARARGS,
     "route(router, on_arrival, block, sample, ticks, ta, to, fate, path, initial_path,\n"
     "      block_size)\n--\n\n"
     "Run a routed session as one event queue of arrivals, feedback and\n"
     "control messages: ``relaysim.engine`` states its rules.\n"
     "``on_arrival`` is the manager's, or None for a session rewarded at\n"
     "transmit; ``block(lo, hi, pid)`` gives the arrival and feedback times of\n"
     "packets lo to hi on path pid, a lookup window of at most ``block_size``\n"
     "packets; ``sample(t)`` is the forward direct delay\n"
     "of a plan sent at t. Writes ``ta``, ``path`` (int32), ``to`` and\n"
     "``fate`` (int8), seq-indexed, and returns ``(path_changes, overhead)``."},
    {NULL},
};

static PyObject *
get_n_window(Estimator *self, void *closure)
{
    return PyLong_FromSsize_t(self->transit.window.len);
}

static PyObject *
get_lag_ms(Estimator *self, void *closure)
{
    return PyFloat_FromDouble(self->jitter_lag >= self->depth ? self->jitter_lag : self->depth);
}

static PyObject *
get_n_jitter_samples(Estimator *self, void *closure)
{
    return PyLong_FromSsize_t(self->jit.window.len);
}

static PyMemberDef Transit_members[] = {
    {"window_ms", T_DOUBLE, offsetof(Estimator, window_ms), READONLY, NULL},
    {"bin_ms", T_DOUBLE, offsetof(Estimator, bin_ms), READONLY, NULL},
    {"percentile", T_DOUBLE, offsetof(Estimator, percentile), READONLY, NULL},
    {"loss_cost_ms", T_DOUBLE, offsetof(Estimator, loss_cost_ms), READONLY,
     "Validated and kept for a shared configuration; only the ratchet reads it."},
    {"initial_lag_ms", T_DOUBLE, offsetof(Estimator, initial_lag_ms), READONLY, NULL},
    {"max_lag_ms", T_DOUBLE, offsetof(Estimator, max_lag_ms), READONLY, NULL},
    {NULL},
};

static PyGetSetDef Transit_getset[] = {
    {"n_window", (getter)get_n_window, NULL, "Arrivals in the transit window.", NULL},
    {NULL},
};

static PyMemberDef Jitter_members[] = {
    {"last_in_order", T_BOOL, offsetof(Estimator, last_in_order), READONLY,
     "True when the last arrival was newer than every one before it."},
    {"disorder", T_BOOL, offsetof(Estimator, disorder), READONLY,
     "True while a reordering episode is open."},
    {"jitter_lag_ms", T_DOUBLE, offsetof(Estimator, jitter_lag), READONLY,
     "The jitter part of the lag: quantile, or the episode's ratchet."},
    {"reorder_depth_ms", T_DOUBLE, offsetof(Estimator, depth), READONLY,
     "The reorder-depth part of the lag at the last update."},
    {NULL},
};

static PyGetSetDef Jitter_getset[] = {
    {"lag_ms", (getter)get_lag_ms, NULL,
     "The lag at the last update: the larger of the jitter lag and the reorder depth.", NULL},
    {"n_jitter_samples", (getter)get_n_jitter_samples, NULL,
     "Jitter samples in the window.", NULL},
    {NULL},
};

static PyMethodDef Transit_methods[] = {
    {"update", (PyCFunction)(void (*)(void))Estimator_update, METH_FASTCALL,
     "update(ts, arrival)\n--\n\n"
     "Observe one arrival: evict the samples that left the window and count it.\n"
     "Returns the transit, ``arrival - ts`` (a JitterEstimator returns its lag)."},
    {"transit_target", (PyCFunction)Estimator_transit_target, METH_NOARGS,
     "transit_target()\n--\n\n"
     "Upper bin edge of the windowed transit quantile at ``percentile``.\n\n"
     "This is the playout buffer's generation-to-playout delay budget; the\n"
     "upper edge guarantees the budget covers the quantile sample itself."},
    {"targets", (PyCFunction)(void (*)(void))Estimator_targets, METH_FASTCALL,
     "targets(ts, ta)\n--\n\n"
     "``update`` then ``transit_target`` for each arrival of a stream in\n"
     "arrival order: the column of targets, and the state those calls would\n"
     "leave."},
    {NULL},
};

static PyMethodDef Jitter_methods[] = {
    {"lags", (PyCFunction)(void (*)(void))Estimator_lags, METH_FASTCALL,
     "lags(ts, ta)\n--\n\n"
     "``update`` for each arrival of a stream in arrival order: the column of\n"
     "lags it would return, and the state it would leave."},
    {NULL},
};

static PyTypeObject TransitType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "relaysim._estimator.TransitEstimator",
    .tp_doc = PyDoc_STR(
        "TransitEstimator(window_ms=2000.0, bin_ms=1.0, percentile=0.95, "
        "loss_cost_ms=100.0, initial_lag_ms=0.0, max_lag_ms=10000.0)\n--\n\n"
        "The windowed transit quantile alone: all an adaptive playout buffer\n"
        "reads. JitterEstimator extends it with the jitter histogram, the\n"
        "reorder depth and the episode ratchet that the watermark's lag needs."),
    .tp_basicsize = sizeof(Estimator),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Estimator_init,
    .tp_dealloc = (destructor)Estimator_dealloc,
    .tp_methods = Transit_methods,
    .tp_members = Transit_members,
    .tp_getset = Transit_getset,
};

static PyTypeObject JitterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "relaysim._estimator.JitterEstimator",
    .tp_doc = PyDoc_STR(
        "JitterEstimator(window_ms=2000.0, bin_ms=1.0, percentile=0.95, "
        "loss_cost_ms=100.0, initial_lag_ms=0.0, max_lag_ms=10000.0)\n--\n\n"
        "The watermark's lag estimator: the transit window plus the jitter\n"
        "histogram, the reorder depth and the episode ratchet. ``update``\n"
        "returns the refreshed lag; ``targets`` advances the jitter state too."),
    .tp_basicsize = sizeof(Estimator),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_methods = Jitter_methods,
    .tp_members = Jitter_members,
    .tp_getset = Jitter_getset,
};

static struct PyModuleDef estimator_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "relaysim._estimator",
    .m_doc = "Windowed jitter/transit estimators, the playout buffer's core and the routed "
             "session loop.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__estimator(void)
{
    PyObject *errors = PyImport_ImportModule("relaysim.errors");
    PyObject *numpy = PyImport_ImportModule("numpy");
    if (errors != NULL && numpy != NULL) {
        ValidationError = PyObject_GetAttrString(errors, "ValidationError");
        np_asarray = PyObject_GetAttrString(numpy, "asarray");
        np_empty = PyObject_GetAttrString(numpy, "empty");
        np_float64 = PyObject_GetAttrString(numpy, "float64");
    }
    Py_XDECREF(errors);
    Py_XDECREF(numpy);
    if (ValidationError == NULL || np_asarray == NULL || np_empty == NULL || np_float64 == NULL)
        return NULL;
    str_observe = PyUnicode_InternFromString("observe");
    str_select = PyUnicode_InternFromString("select");
    str_path_for = PyUnicode_InternFromString("path_for");
    str_follows_plan = PyUnicode_InternFromString("follows_plan");
    if (str_observe == NULL || str_select == NULL || str_path_for == NULL
        || str_follows_plan == NULL)
        return NULL;

    JitterType.tp_base = &TransitType;
    if (PyType_Ready(&TransitType) < 0 || PyType_Ready(&JitterType) < 0
        || PyType_Ready(&PlayoutCoreType) < 0 || PyType_Ready(&ArrivalType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&estimator_module);
    if (m == NULL)
        return NULL;
    PyObject *guard = PyFloat_FromDouble(DISORDER_GUARD_MS);
    if (guard == NULL
        || PyModule_AddObjectRef(m, "TransitEstimator", (PyObject *)&TransitType) < 0
        || PyModule_AddObjectRef(m, "JitterEstimator", (PyObject *)&JitterType) < 0
        || PyModule_AddObjectRef(m, "PlayoutCore", (PyObject *)&PlayoutCoreType) < 0
        || PyModule_AddObjectRef(m, "Arrival", (PyObject *)&ArrivalType) < 0
        || PyModule_AddObjectRef(m, "DISORDER_GUARD_MS", guard) < 0) {
        Py_XDECREF(guard);
        Py_DECREF(m);
        return NULL;
    }
    Py_DECREF(guard);
    return m;
}
