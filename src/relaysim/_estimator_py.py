"""Windowed jitter/transit estimators, pure Python.

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
so it runs on a ``TransitEstimator``: the transit window, its eviction and
its quantile pointer are written once, in the base class, and the buffer
skips the jitter histogram, the depth hold and the ratchet's scan on every
arrival. The jitter samples keep a deque of their own, of in-order arrivals
only, evicted at the same cutoff as the transit window.

No query sums a whole histogram. Both histograms are int lists, and each
quantile keeps a pointer ``(q, cum)`` with ``cum`` the count in bins
``0..q``; a count change at a bin ``<= q`` bumps ``cum``, and a query walks
the pointer from where the last one left it to the first bin whose
cumulative count reaches ``percentile * total``. The cost argmin starts from
the bin of the current lag, since no bin at or under the lag can beat the
``max(lag, .)`` ratchet, and scans upward only while the distance past the
lag is below the best cost so far: at most ``loss_cost_ms / bin_ms`` bins.

A stream known up front goes through one whole-stream pass instead of an
``update`` per arrival: ``JitterEstimator.lags(ts, ta)`` returns the lag
column and ``targets(ts, ta)`` the transit target after each arrival (a
``JitterEstimator``'s ``targets`` advances its jitter state too). A pass
checks the whole stream first and raises what ``update`` would raise at the
first bad arrival, before any state changes; then it walks the stream in
blocks of ``PASS_BLOCK`` arrivals, each block starting from the state the
last one left, and ends in the state the same ``update`` calls (and
``transit_target`` reads, for ``targets``) would leave. Within a block,
numpy computes everything that does not depend on a running quantile:

* transits, jitter samples and their bins; the in-order flags (each ts
  against the running maximum before it);
* where each arrival's transit and jitter windows start, by
  ``searchsorted`` on ``arrival - window_ms`` over the carried window and
  the block;
* the episode flag: open at an out-of-order arrival, and at an in-order
  one while the last out-of-order arrival is at most ``DISORDER_GUARD_MS``
  back;
* the reorder depth: the largest transit of the guard window, a range
  maximum over a sparse table.

The Python loop keeps only the histogram adds and evictions and the
pointer moves, and takes each lag or target from ``_walk`` or
``_cost_argmin``, so the quantile and ratchet rules are written once, for
``update`` and the pass alike. ``lags`` walks no transit pointer, so its
transit counts go in and out of the histogram in one step per block. Many
arrivals leave the jitter histogram as it was: they add no sample and evict
none, or evict one from the bin they add to. When such an arrival falls in
an episode right after a ratchet call that kept its lag, the pass keeps
that lag without the call, which would get the same inputs.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import ValidationError

# reordering-episode guard: the episode ends after this much orderly time,
# and a transit is held as reorder-depth evidence for this long.
# Deliberately a constant: tying it to the current lag would let a ratcheted
# lag hold the episode open, which holds the lag up, which locks the episode.
DISORDER_GUARD_MS = 100.0

# arrivals per block of a whole-stream pass (``lags``, ``targets``): bounds
# the pass's temporaries, whatever the stream's length
PASS_BLOCK = 4096

_BEFORE_TS = "arrival precedes generation timestamp"
_BACKWARDS = "arrivals must be fed in nondecreasing arrival order"


def _walk(bins: list[int], q: int, cum: int, need: float) -> tuple[int, int]:
    """Move a quantile pointer to the first bin whose cumulative count reaches
    ``need``, the bin ``searchsorted(cumsum(bins), need, "left")`` finds.

    ``cum`` is the count in bins ``0..q``; ``need`` is positive and at most
    the total count. Python compares int and float exactly.
    """
    if cum >= need:
        while cum - bins[q] >= need:
            cum -= bins[q]
            q -= 1
    else:
        while cum < need:
            q += 1
            cum += bins[q]
    return q, cum


def _cost_argmin(bins: list[int], q: int, cum: int, total: int, lag: float,
                 bin_ms: float, loss_cost_ms: float) -> float:
    """The ratchet: max(lag, first minimizer of the cost over the bins).

    ``bins`` holds ``total`` jitter samples and ``(q, cum)`` is their
    quantile pointer. cost(i) = max(0, i*bin - lag) + loss_cost * (1 - F(i)).
    Up to the last bin k with k*bin <= lag the cost is nonincreasing, so that
    prefix's minimum is cost(k) and any minimizer there leaves the lag as it
    is. Past k, only a nonempty bin can lower the cost, and once
    i*bin - lag alone reaches the best cost no later bin can beat it.
    """
    b = bin_ms
    k = int(lag / b)
    while (k + 1) * b <= lag:
        k += 1
    while k * b > lag:
        k -= 1
    if k > q:
        count = cum + sum(bins[q + 1:k + 1])
    else:
        count = cum - sum(bins[k + 1:q + 1])
    best = loss_cost_ms * (1.0 - count / total)
    argmin = -1
    i = k
    while count < total:
        i += 1
        over = i * b - lag
        if over >= best:
            break
        n = bins[i]
        if n:
            count += n
            cost = over + loss_cost_ms * (1.0 - count / total)
            if cost < best:
                best = cost
                argmin = i
    return lag if argmin < 0 else argmin * b


def _bins(values: np.ndarray, bin_ms: float, nbins: int) -> np.ndarray:
    """``update``'s bin index of each value, ``int(value / bin_ms)`` with
    everything past the last bin in it: the quotient is clamped before it
    is truncated, so no index overflows."""
    return np.minimum(values / bin_ms, nbins - 1).astype(np.intp)


def _window_arrays(window: deque) -> tuple[np.ndarray, np.ndarray]:
    """A window deque of (arrival, value) pairs as two columns."""
    pairs = np.array(window, dtype=np.float64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _range_max(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``max(x[lo[i]:hi[i] + 1])`` for every i, from a sparse table: row j
    holds the maxima over spans of 2**j, and each range is covered by two
    spans of the largest power of two that fits in it."""
    size = hi - lo + 1
    rows = [x]
    while 2 ** len(rows) <= size.max():
        half = 2 ** (len(rows) - 1)
        rows.append(np.maximum(rows[-1][:-half], rows[-1][half:]))
    table = np.full((len(rows), x.size), -math.inf)
    for j, row in enumerate(rows):
        table[j, :row.size] = row
    j = np.frexp(size)[1] - 1  # floor(log2(size))
    return np.maximum(table[j, lo], table[j, hi + 1 - (1 << j)])


class TransitEstimator:
    """The windowed transit quantile alone: all an adaptive playout buffer
    reads. ``JitterEstimator`` extends it with the jitter histogram, the
    reorder depth and the episode ratchet that the watermark's lag needs.

    ``loss_cost_ms`` is validated and kept for a shared configuration but
    not used here.
    """

    __slots__ = (
        "window_ms", "bin_ms", "percentile", "loss_cost_ms", "initial_lag_ms",
        "max_lag_ms", "_nbins", "_transit_bins", "_transit_q", "_transit_cum", "_window",
    )

    def __init__(
        self,
        window_ms: float = 2000.0,
        bin_ms: float = 1.0,
        percentile: float = 0.95,
        loss_cost_ms: float = 100.0,
        initial_lag_ms: float = 0.0,
        max_lag_ms: float = 10000.0,
    ) -> None:
        params = (window_ms, bin_ms, percentile, loss_cost_ms, initial_lag_ms, max_lag_ms)
        if not all(map(math.isfinite, params)):
            raise ValidationError("estimator parameters must be finite")
        if window_ms <= 0 or bin_ms <= 0 or max_lag_ms <= 0:
            raise ValidationError("window_ms, bin_ms, max_lag_ms must be positive")
        if not (0 < percentile <= 1):
            raise ValidationError("percentile must be in (0, 1]")
        if loss_cost_ms < 0 or initial_lag_ms < 0:
            raise ValidationError("loss_cost_ms and initial_lag_ms must be nonnegative")
        self.window_ms = float(window_ms)
        self.bin_ms = float(bin_ms)
        self.percentile = float(percentile)
        self.loss_cost_ms = float(loss_cost_ms)
        self.initial_lag_ms = float(initial_lag_ms)
        self.max_lag_ms = float(max_lag_ms)
        self._nbins = int(max_lag_ms / bin_ms) + 1
        self._transit_bins = [0] * self._nbins
        # quantile pointer: the count in bins 0..q (q = -1: no bin yet)
        self._transit_q = -1
        self._transit_cum = 0
        self._window: deque[tuple[float, int]] = deque()  # (arrival, transit bin)

    @property
    def n_window(self) -> int:
        return len(self._window)

    def update(self, ts: float, arrival: float) -> float:
        """Observe one arrival: evict the samples that left the window and
        count its transit. Returns the transit, ``arrival - ts``."""
        if arrival < ts:
            raise ValueError(_BEFORE_TS)
        window = self._window
        # the newest arrival stays in the window until the next update
        if window and arrival < window[-1][0]:
            raise RuntimeError(_BACKWARDS)
        bins = self._transit_bins
        cutoff = arrival - self.window_ms
        while window and window[0][0] < cutoff:
            tbin = window.popleft()[1]
            bins[tbin] -= 1
            if tbin <= self._transit_q:
                self._transit_cum -= 1
        transit = arrival - ts
        # every bin index is computed inline like this one, the last bin
        # holding everything past max_lag_ms: a method call per bin is a
        # measurable share of an update
        tbin = int(transit / self.bin_ms)
        if tbin >= self._nbins:
            tbin = self._nbins - 1
        bins[tbin] += 1
        if tbin <= self._transit_q:
            self._transit_cum += 1
        window.append((arrival, tbin))
        return transit

    def transit_target(self) -> float:
        """Upper bin edge of the windowed transit quantile at ``percentile``.

        This is the playout buffer's generation-to-playout delay budget; the
        upper edge guarantees the budget covers the quantile sample itself.
        """
        total = len(self._window)
        if total == 0:
            return self.initial_lag_ms
        q, cum = _walk(self._transit_bins, self._transit_q, self._transit_cum,
                       self.percentile * total)
        self._transit_q, self._transit_cum = q, cum
        return (q + 1) * self.bin_ms

    def targets(self, ts, ta) -> np.ndarray:
        """``update`` then ``transit_target`` for each arrival of a stream
        in arrival order: the column of targets, and the state those calls
        would leave."""
        ts, ta = self._checked(ts, ta)
        out = np.empty(ts.size)
        for lo in range(0, ts.size, PASS_BLOCK):
            out[lo:lo + PASS_BLOCK] = self._transit_pass(ts[lo:lo + PASS_BLOCK],
                                                         ta[lo:lo + PASS_BLOCK], True)
        return out

    def _checked(self, ts, ta) -> tuple[np.ndarray, np.ndarray]:
        """The stream as float64 columns, after ``update``'s checks on every
        arrival: the first arrival that fails raises what ``update`` would,
        before any state changes."""
        ts = np.asarray(ts, dtype=np.float64)
        ta = np.asarray(ta, dtype=np.float64)
        if ts.ndim != 1 or ts.shape != ta.shape:
            raise ValueError("ts and ta must be 1-d columns of one length")
        newest = self._window[-1][0] if self._window else -math.inf
        bad = (ta < ts) | (ta < np.concatenate(([newest], ta[:-1])))
        if bad.any():
            i = int(bad.argmax())
            if ta[i] < ts[i]:
                raise ValueError(_BEFORE_TS)
            raise RuntimeError(_BACKWARDS)
        return ts, ta

    def _transit_pass(self, ts: np.ndarray, ta: np.ndarray, walk: bool):
        """One block through the transit window. Each arrival's bin and the
        window start it evicts up to are arrays; with ``walk`` the loop
        walks the quantile pointer after each arrival and the target column
        is returned. Without it the pointer stays put, so the block's counts
        go in and out of the histogram in one step."""
        w_ta, w_bin = _window_arrays(self._window)
        arr = np.concatenate((w_ta, ta))
        tbin = _bins(ta - ts, self.bin_ms, self._nbins)
        held = np.concatenate((w_bin.astype(np.intp), tbin))
        start = np.searchsorted(arr, ta - self.window_ms, "left")
        bins, q, cum = self._transit_bins, self._transit_q, self._transit_cum
        out = None
        if walk:
            need = self.percentile * (np.arange(w_ta.size + 1, arr.size + 1) - start)
            evicted = held.tolist()
            qs = []
            i = 0
            for s, k, need_k in zip(start.tolist(), tbin.tolist(), need.tolist()):
                while i < s:
                    j = evicted[i]
                    bins[j] -= 1
                    if j <= q:
                        cum -= 1
                    i += 1
                bins[k] += 1
                if k <= q:
                    cum += 1
                q, cum = _walk(bins, q, cum, need_k)
                qs.append(q)
            out = (np.array(qs) + 1) * self.bin_ms
        else:
            gone = held[:start[-1]]
            for values, sign in ((tbin, 1), (gone, -1)):
                for k, n in zip(*(c.tolist() for c in np.unique(values, return_counts=True))):
                    bins[k] += sign * n
            cum += int(np.count_nonzero(tbin <= q)) - int(np.count_nonzero(gone <= q))
        self._transit_q, self._transit_cum = q, cum
        s = int(start[-1])
        self._window = deque(zip(arr[s:].tolist(), held[s:].tolist()))
        return out


class JitterEstimator(TransitEstimator):
    __slots__ = (
        "_jitter_bins", "_jitter_q", "_jitter_cum", "_jitter_window", "_prev_arrival",
        "_latest_ts", "_jitter_lag", "_depth", "_deep", "_last_in_order", "_disorder",
        "_last_ooo_arrival",
    )

    def __init__(
        self,
        window_ms: float = 2000.0,
        bin_ms: float = 1.0,
        percentile: float = 0.95,
        loss_cost_ms: float = 100.0,
        initial_lag_ms: float = 0.0,
        max_lag_ms: float = 10000.0,
    ) -> None:
        super().__init__(window_ms, bin_ms, percentile, loss_cost_ms,
                         initial_lag_ms, max_lag_ms)
        self._jitter_bins = [0] * self._nbins
        self._jitter_q = -1
        self._jitter_cum = 0
        # (arrival, jitter bin) of the in-order arrivals still in the window
        self._jitter_window: deque[tuple[float, int]] = deque()
        # the newest ts so far and its arrival: the last in-order arrival
        self._latest_ts = -math.inf
        self._prev_arrival = 0.0
        self._jitter_lag = min(self.initial_lag_ms, self.max_lag_ms)
        self._depth = 0.0
        # (arrival, transit) of recent arrivals, transits strictly decreasing
        # from the head: the head is the deepest transit still held
        self._deep: deque[tuple[float, float]] = deque()
        self._last_in_order = True
        self._disorder = False
        self._last_ooo_arrival = float("-inf")

    @property
    def lag_ms(self) -> float:
        jitter_lag, depth = self._jitter_lag, self._depth
        return jitter_lag if jitter_lag >= depth else depth

    @property
    def last_in_order(self) -> bool:
        return self._last_in_order

    @property
    def disorder(self) -> bool:
        """True while a reordering episode is open."""
        return self._disorder

    @property
    def jitter_lag_ms(self) -> float:
        """The jitter part of the lag: quantile, or the episode's ratchet."""
        return self._jitter_lag

    @property
    def reorder_depth_ms(self) -> float:
        """The reorder-depth part of the lag at the last update."""
        return self._depth

    @property
    def n_jitter_samples(self) -> int:
        return len(self._jitter_window)

    def update(self, ts: float, arrival: float) -> float:
        """Observe one arrival; returns the refreshed lag estimate."""
        transit = TransitEstimator.update(self, ts, arrival)
        bins = self._jitter_bins
        cutoff = arrival - self.window_ms
        window = self._jitter_window
        while window and window[0][0] < cutoff:
            jbin = window.popleft()[1]
            bins[jbin] -= 1
            if jbin <= self._jitter_q:
                self._jitter_cum -= 1

        latest = self._latest_ts
        if ts > latest:
            if latest != -math.inf:
                jitter = abs((arrival - self._prev_arrival) - (ts - latest))
                jbin = int(jitter / self.bin_ms)
                if jbin >= self._nbins:
                    jbin = self._nbins - 1
                bins[jbin] += 1
                if jbin <= self._jitter_q:
                    self._jitter_cum += 1
                window.append((arrival, jbin))
            self._prev_arrival = arrival
            self._latest_ts = ts
            if self._disorder and arrival - self._last_ooo_arrival > DISORDER_GUARD_MS:
                self._disorder = False
            self._last_in_order = True
        else:
            self._disorder = True
            self._last_ooo_arrival = arrival
            self._last_in_order = False

        deep = self._deep
        cutoff = arrival - DISORDER_GUARD_MS
        while deep and deep[0][0] < cutoff:
            deep.popleft()
        while deep and deep[-1][1] <= transit:
            deep.pop()
        deep.append((arrival, transit))
        dbin = int((deep[0][1] - transit) / self.bin_ms)
        if dbin >= self._nbins:
            dbin = self._nbins - 1
        depth = dbin * self.bin_ms

        if not window:
            jitter_lag = self.initial_lag_ms
        elif not self._disorder:
            jitter_lag = self._jitter_quantile() * self.bin_ms
        else:
            jitter_lag = _cost_argmin(bins, self._jitter_q, self._jitter_cum, len(window),
                                      self._jitter_lag, self.bin_ms, self.loss_cost_ms)
        if jitter_lag > self.max_lag_ms:
            jitter_lag = self.max_lag_ms
        self._jitter_lag = jitter_lag
        self._depth = depth
        return jitter_lag if jitter_lag >= depth else depth

    def _jitter_quantile(self) -> int:
        """Smallest bin whose cumulative jitter count covers percentile * total."""
        q, cum = _walk(self._jitter_bins, self._jitter_q, self._jitter_cum,
                       self.percentile * len(self._jitter_window))
        self._jitter_q, self._jitter_cum = q, cum
        return q

    def lags(self, ts, ta) -> np.ndarray:
        """``update`` for each arrival of a stream in arrival order: the
        column of lags it would return, and the state it would leave."""
        jitter_lag, depth = self._lag_columns(ts, ta)
        np.copyto(depth, jitter_lag, where=jitter_lag >= depth)
        return depth

    def targets(self, ts, ta) -> np.ndarray:
        """``TransitEstimator.targets``, advancing the jitter state as the
        same ``update`` calls would."""
        ts, ta = self._checked(ts, ta)
        out = np.empty(ts.size)
        for lo in range(0, ts.size, PASS_BLOCK):
            block = ts[lo:lo + PASS_BLOCK], ta[lo:lo + PASS_BLOCK]
            out[lo:lo + PASS_BLOCK] = self._transit_pass(*block, True)
            self._jitter_pass(*block)
        return out

    def _lag_columns(self, ts, ta) -> tuple[np.ndarray, np.ndarray]:
        """The jitter lag and reorder depth columns of ``lags``."""
        ts, ta = self._checked(ts, ta)
        jitter_lag, depth = np.empty(ts.size), np.empty(ts.size)
        for lo in range(0, ts.size, PASS_BLOCK):
            block = ts[lo:lo + PASS_BLOCK], ta[lo:lo + PASS_BLOCK]
            self._transit_pass(*block, False)
            jitter_lag[lo:lo + PASS_BLOCK], depth[lo:lo + PASS_BLOCK] = self._jitter_pass(*block)
        return jitter_lag, depth

    def _jitter_pass(self, ts: np.ndarray, ta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One block of ``update``'s jitter part: (jitter lag, depth) columns.

        Arrays: the in-order flags (ts above the running maximum), each
        in-order arrival's jitter sample and bin, where each arrival's
        jitter window starts, the episode flag (the last out-of-order
        arrival at most ``DISORDER_GUARD_MS`` back) and the reorder depth
        (the largest transit of the guard window, by ``_range_max``). The
        loop only moves the histogram and its pointer, and takes each lag
        from ``_walk`` or ``_cost_argmin``, or from the arrival before when
        that call would repeat one that kept its lag.
        """
        n = ts.size
        b, nbins = self.bin_ms, self._nbins
        run = np.maximum.accumulate(np.concatenate(([self._latest_ts], ts)))
        in_order = ts > run[:-1]
        io = np.flatnonzero(in_order)
        # each in-order arrival's sample against the in-order one before it,
        # the newest ts before it; the first arrival ever has none
        prev_ta = np.concatenate(([self._prev_arrival], ta[io[:-1]]))
        first = 1 if self._latest_ts == -math.inf else 0
        sampled = io[first:]
        jitter = np.abs((ta[sampled] - prev_ta[first:]) - (ts[sampled] - run[sampled]))
        jbin = _bins(jitter, b, nbins)
        w_ta, w_bin = _window_arrays(self._jitter_window)
        arr = np.concatenate((w_ta, ta[sampled]))
        held = np.concatenate((w_bin.astype(np.intp), jbin))
        start = np.searchsorted(arr, ta - self.window_ms, "left")
        has = np.zeros(n, bool)
        has[sampled] = True
        count = w_ta.size + np.cumsum(has) - start
        added = np.full(n, -1, np.intp)
        added[sampled] = jbin

        # the episode: open at an out-of-order arrival, and at an in-order
        # one until it lands more than the guard after the last of those
        ooo_at = np.where(in_order, -1, np.arange(n))  # the last one so far
        np.maximum.accumulate(ooo_at, out=ooo_at)
        seen = ooo_at >= 0
        last_ooo = np.where(seen, ta[ooo_at], self._last_ooo_arrival)
        disorder = ~in_order | ((ta - last_ooo <= DISORDER_GUARD_MS)
                                & (seen | self._disorder))

        d_ta, d_tr = _window_arrays(self._deep)
        deep_ta = np.concatenate((d_ta, ta))
        deep_tr = np.concatenate((d_tr, ta - ts))
        d_start = np.searchsorted(deep_ta, ta - DISORDER_GUARD_MS, "left")
        stop = np.arange(d_ta.size, deep_ta.size)
        depth = _bins(_range_max(deep_tr, d_start, stop) - deep_tr[d_ta.size:], b, nbins) * b

        bins, q, cum = self._jitter_bins, self._jitter_q, self._jitter_cum
        pct, loss, cap = self.percentile, self.loss_cost_ms, self.max_lag_ms
        initial = self.initial_lag_ms
        lag = self._jitter_lag
        evicted = held.tolist()
        lags = []
        i = 0
        kept = False  # the arrival before ran the ratchet, which kept the lag
        for s, k, total, dis in zip(start.tolist(), added.tolist(), count.tolist(),
                                    disorder.tolist()):
            # the histogram changes: not (nothing added or evicted, or one
            # sample evicted from the bin this arrival adds to)
            fresh = not (s == i and k < 0 or s == i + 1 and evicted[i] == k)
            while i < s:
                j = evicted[i]
                bins[j] -= 1
                if j <= q:
                    cum -= 1
                i += 1
            if k >= 0:
                bins[k] += 1
                if k <= q:
                    cum += 1
            was = lag
            if not total:
                lag = initial
            elif not dis:
                q, cum = _walk(bins, q, cum, pct * total)
                lag = q * b
            elif fresh or not kept:
                lag = _cost_argmin(bins, q, cum, total, lag, b, loss)
            if lag > cap:
                lag = cap
            kept = dis and lag == was
            lags.append(lag)

        self._jitter_q, self._jitter_cum, self._jitter_lag = q, cum, lag
        s = int(start[-1])
        self._jitter_window = deque(zip(arr[s:].tolist(), held[s:].tolist()))
        if io.size:
            self._latest_ts = float(ts[io[-1]])
            self._prev_arrival = float(ta[io[-1]])
        if seen[-1]:
            self._last_ooo_arrival = float(ta[ooo_at[-1]])
        self._last_in_order = bool(in_order[-1])
        self._disorder = bool(disorder[-1])
        self._depth = float(depth[-1])
        # the depth hold: the guard window's transits above every later one
        s = int(d_start[-1])
        tail = deep_tr[s:]
        later = np.concatenate((np.maximum.accumulate(tail[::-1])[::-1][1:], [-math.inf]))
        keep = tail > later
        self._deep = deque(zip(deep_ta[s:][keep].tolist(), tail[keep].tolist()))
        return np.array(lags), depth
