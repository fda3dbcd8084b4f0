# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of ``_estimator_py.JitterEstimator``.

Both implementations must return identical float64 outputs (every lag,
transit target and window count). They need not take the same steps: this
kernel recomputes a cumulative sum per quantile query and a full cost array
for the argmin, while the pure twin keeps incremental quantile pointers. A
change to the estimator's rules goes into both. This kernel has not been
compiled or checked against the pure twin since the reorder-depth change.
"""

from libc.stdlib cimport free, malloc, realloc
from libc.math cimport INFINITY, fabs

# reordering-episode guard: the episode ends after this much orderly time,
# and a transit is held as reorder-depth evidence for this long.
# Deliberately a constant: tying it to the current lag would let a ratcheted
# lag hold the episode open, which holds the lag up, which locks the episode.
DISORDER_GUARD_MS = 100.0

cdef double _GUARD_MS = 100.0


cdef class JitterEstimator:
    cdef public double window_ms, bin_ms, percentile, loss_cost_ms, initial_lag_ms, max_lag_ms
    cdef Py_ssize_t _nbins
    cdef long long* _jitter_bins
    cdef long long* _transit_bins
    cdef long long _jitter_total, _transit_total
    cdef Py_ssize_t _jitter_max, _transit_max
    cdef double* _w_arrival
    cdef Py_ssize_t* _w_jbin
    cdef Py_ssize_t* _w_tbin
    cdef Py_ssize_t _w_cap, _w_head, _w_count
    # (arrival, transit) of recent arrivals, transits strictly decreasing from
    # the head: the head is the deepest transit still held
    cdef double* _d_arrival
    cdef double* _d_transit
    cdef Py_ssize_t _d_cap, _d_head, _d_count
    cdef bint _has_prev, _last_in_order_flag, _disorder_flag
    cdef double _prev_ts, _prev_arrival, _last_arrival, _latest_ts, _lag, _last_ooo_arrival
    cdef double _jitter_lag, _depth

    def __cinit__(
        self,
        double window_ms=2000.0,
        double bin_ms=1.0,
        double percentile=0.95,
        double loss_cost_ms=100.0,
        double initial_lag_ms=0.0,
        double max_lag_ms=10000.0,
    ):
        if window_ms <= 0 or bin_ms <= 0 or max_lag_ms <= 0:
            raise ValueError("window_ms, bin_ms, max_lag_ms must be positive")
        if not (0 < percentile <= 1):
            raise ValueError("percentile must be in (0, 1]")
        if loss_cost_ms < 0 or initial_lag_ms < 0:
            raise ValueError("loss_cost_ms and initial_lag_ms must be nonnegative")
        self.window_ms = window_ms
        self.bin_ms = bin_ms
        self.percentile = percentile
        self.loss_cost_ms = loss_cost_ms
        self.initial_lag_ms = initial_lag_ms
        self.max_lag_ms = max_lag_ms
        self._nbins = <Py_ssize_t>(max_lag_ms / bin_ms) + 1
        self._jitter_bins = <long long*>malloc(self._nbins * sizeof(long long))
        self._transit_bins = <long long*>malloc(self._nbins * sizeof(long long))
        if self._jitter_bins == NULL or self._transit_bins == NULL:
            raise MemoryError()
        cdef Py_ssize_t i
        for i in range(self._nbins):
            self._jitter_bins[i] = 0
            self._transit_bins[i] = 0
        self._jitter_total = 0
        self._transit_total = 0
        self._jitter_max = -1
        self._transit_max = -1
        self._w_cap = 256
        self._w_arrival = <double*>malloc(self._w_cap * sizeof(double))
        self._w_jbin = <Py_ssize_t*>malloc(self._w_cap * sizeof(Py_ssize_t))
        self._w_tbin = <Py_ssize_t*>malloc(self._w_cap * sizeof(Py_ssize_t))
        if self._w_arrival == NULL or self._w_jbin == NULL or self._w_tbin == NULL:
            raise MemoryError()
        self._w_head = 0
        self._w_count = 0
        self._d_cap = 256
        self._d_arrival = <double*>malloc(self._d_cap * sizeof(double))
        self._d_transit = <double*>malloc(self._d_cap * sizeof(double))
        if self._d_arrival == NULL or self._d_transit == NULL:
            raise MemoryError()
        self._d_head = 0
        self._d_count = 0
        self._has_prev = False
        self._prev_ts = 0.0
        self._prev_arrival = 0.0
        self._last_arrival = -INFINITY
        self._latest_ts = -INFINITY
        self._lag = initial_lag_ms if initial_lag_ms < max_lag_ms else max_lag_ms
        self._jitter_lag = self._lag
        self._depth = 0.0
        self._last_in_order_flag = True
        self._disorder_flag = False
        self._last_ooo_arrival = -INFINITY

    def __dealloc__(self):
        free(self._jitter_bins)
        free(self._transit_bins)
        free(self._w_arrival)
        free(self._w_jbin)
        free(self._w_tbin)
        free(self._d_arrival)
        free(self._d_transit)

    @property
    def lag_ms(self):
        return self._lag

    @property
    def last_in_order(self):
        return self._last_in_order_flag

    @property
    def disorder(self):
        """True while a reordering episode is open."""
        return self._disorder_flag

    @property
    def jitter_lag_ms(self):
        """The jitter part of the lag: quantile, or the episode's ratchet."""
        return self._jitter_lag

    @property
    def reorder_depth_ms(self):
        """The reorder-depth part of the lag at the last update."""
        return self._depth

    @property
    def n_window(self):
        return self._w_count

    @property
    def n_jitter_samples(self):
        return self._jitter_total

    cdef Py_ssize_t _bin_of(self, double value):
        cdef Py_ssize_t b = <Py_ssize_t>(value / self.bin_ms)
        return b if b < self._nbins else self._nbins - 1

    cdef void _grow(self):
        cdef Py_ssize_t new_cap = self._w_cap * 2
        cdef double* na = <double*>malloc(new_cap * sizeof(double))
        cdef Py_ssize_t* nj = <Py_ssize_t*>malloc(new_cap * sizeof(Py_ssize_t))
        cdef Py_ssize_t* nt = <Py_ssize_t*>malloc(new_cap * sizeof(Py_ssize_t))
        if na == NULL or nj == NULL or nt == NULL:
            free(na)
            free(nj)
            free(nt)
            raise MemoryError()
        cdef Py_ssize_t k, src
        for k in range(self._w_count):
            src = (self._w_head + k) % self._w_cap
            na[k] = self._w_arrival[src]
            nj[k] = self._w_jbin[src]
            nt[k] = self._w_tbin[src]
        free(self._w_arrival)
        free(self._w_jbin)
        free(self._w_tbin)
        self._w_arrival = na
        self._w_jbin = nj
        self._w_tbin = nt
        self._w_cap = new_cap
        self._w_head = 0

    cdef void _grow_deep(self):
        cdef Py_ssize_t new_cap = self._d_cap * 2
        cdef double* na = <double*>malloc(new_cap * sizeof(double))
        cdef double* nt = <double*>malloc(new_cap * sizeof(double))
        if na == NULL or nt == NULL:
            free(na)
            free(nt)
            raise MemoryError()
        cdef Py_ssize_t k, src
        for k in range(self._d_count):
            src = (self._d_head + k) % self._d_cap
            na[k] = self._d_arrival[src]
            nt[k] = self._d_transit[src]
        free(self._d_arrival)
        free(self._d_transit)
        self._d_arrival = na
        self._d_transit = nt
        self._d_cap = new_cap
        self._d_head = 0

    cdef void _evict(self, double now):
        cdef double cutoff = now - self.window_ms
        cdef Py_ssize_t jbin, tbin, m
        while self._w_count > 0 and self._w_arrival[self._w_head] < cutoff:
            jbin = self._w_jbin[self._w_head]
            tbin = self._w_tbin[self._w_head]
            self._w_head = (self._w_head + 1) % self._w_cap
            self._w_count -= 1
            if jbin >= 0:
                self._jitter_bins[jbin] -= 1
                self._jitter_total -= 1
                if jbin == self._jitter_max and self._jitter_bins[jbin] == 0:
                    m = self._jitter_max
                    while m >= 0 and self._jitter_bins[m] == 0:
                        m -= 1
                    self._jitter_max = m
            self._transit_bins[tbin] -= 1
            self._transit_total -= 1
            if tbin == self._transit_max and self._transit_bins[tbin] == 0:
                m = self._transit_max
                while m >= 0 and self._transit_bins[m] == 0:
                    m -= 1
                self._transit_max = m

    def update(self, double ts, double arrival):
        """Observe one arrival; returns the refreshed lag estimate."""
        cdef double jitter, transit, cutoff, depth, jitter_lag, lag
        cdef Py_ssize_t jbin, tbin, tail
        cdef bint in_order
        if arrival < ts:
            raise ValueError("arrival precedes generation timestamp")
        if arrival < self._last_arrival:
            raise RuntimeError("arrivals must be fed in nondecreasing arrival order")
        self._last_arrival = arrival
        self._evict(arrival)

        in_order = ts > self._latest_ts
        if in_order and self._has_prev:
            jitter = fabs((arrival - self._prev_arrival) - (ts - self._prev_ts))
            jbin = self._bin_of(jitter)
            self._jitter_bins[jbin] += 1
            self._jitter_total += 1
            if jbin > self._jitter_max:
                self._jitter_max = jbin
        else:
            jbin = -1
        transit = arrival - ts
        tbin = self._bin_of(transit)
        self._transit_bins[tbin] += 1
        self._transit_total += 1
        if tbin > self._transit_max:
            self._transit_max = tbin
        if self._w_count == self._w_cap:
            self._grow()
        tail = (self._w_head + self._w_count) % self._w_cap
        self._w_arrival[tail] = arrival
        self._w_jbin[tail] = jbin
        self._w_tbin[tail] = tbin
        self._w_count += 1

        if in_order:
            self._prev_ts = ts
            self._prev_arrival = arrival
            self._has_prev = True
            self._latest_ts = ts
            if self._disorder_flag and arrival - self._last_ooo_arrival > _GUARD_MS:
                self._disorder_flag = False
        else:
            self._disorder_flag = True
            self._last_ooo_arrival = arrival
        self._last_in_order_flag = in_order

        cutoff = arrival - _GUARD_MS
        while self._d_count > 0 and self._d_arrival[self._d_head] < cutoff:
            self._d_head = (self._d_head + 1) % self._d_cap
            self._d_count -= 1
        while self._d_count > 0:
            tail = (self._d_head + self._d_count - 1) % self._d_cap
            if self._d_transit[tail] > transit:
                break
            self._d_count -= 1
        if self._d_count == self._d_cap:
            self._grow_deep()
        tail = (self._d_head + self._d_count) % self._d_cap
        self._d_arrival[tail] = arrival
        self._d_transit[tail] = transit
        self._d_count += 1
        depth = self._bin_of(self._d_transit[self._d_head] - transit) * self.bin_ms

        if self._jitter_total == 0:
            jitter_lag = self.initial_lag_ms
        elif not self._disorder_flag:
            jitter_lag = self._jitter_quantile()
        else:
            jitter_lag = self._cost_argmin(self._jitter_lag)
            if self._jitter_lag > jitter_lag:
                jitter_lag = self._jitter_lag
        if jitter_lag > self.max_lag_ms:
            jitter_lag = self.max_lag_ms
        self._jitter_lag = jitter_lag
        self._depth = depth
        lag = jitter_lag if jitter_lag >= depth else depth
        self._lag = lag
        return lag

    cdef double _jitter_quantile(self):
        cdef double need = self.percentile * self._jitter_total
        cdef long long acc = 0
        cdef Py_ssize_t i
        for i in range(self._jitter_max + 1):
            acc += self._jitter_bins[i]
            if acc >= need:
                return i * self.bin_ms
        return self._jitter_max * self.bin_ms

    cdef double _cost_argmin(self, double lag):
        cdef long long acc = 0
        cdef double total = <double>self._jitter_total
        cdef double best = INFINITY
        cdef Py_ssize_t best_i = 0
        cdef Py_ssize_t i
        cdef double i_ms, part, cost
        for i in range(self._jitter_max + 1):
            acc += self._jitter_bins[i]
            i_ms = i * self.bin_ms
            part = i_ms - lag
            if part < 0.0:
                part = 0.0
            cost = part + self.loss_cost_ms * (1.0 - (<double>acc) / total)
            if cost < best:
                best = cost
                best_i = i
        return best_i * self.bin_ms

    def transit_target(self):
        """Upper bin edge of the windowed transit quantile at ``percentile``."""
        cdef double need
        cdef long long acc = 0
        cdef Py_ssize_t i
        if self._transit_total == 0:
            return self.initial_lag_ms
        need = self.percentile * self._transit_total
        for i in range(self._transit_max + 1):
            acc += self._transit_bins[i]
            if acc >= need:
                return (i + 1) * self.bin_ms
        return (self._transit_max + 1) * self.bin_ms
