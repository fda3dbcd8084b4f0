"""Independent reference model of the windowed jitter estimator.

The estimator as it was written before its quantiles became incremental:
numpy histograms, an ``np.cumsum`` per query, ``searchsorted`` for the
quantiles and a full cost array with ``argmin`` for the episode ratchet. The
equivalence tests feed it and the compiled ``relaysim.JitterEstimator`` the
same arrival streams and require every output to be equal, bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from relaysim._estimator import DISORDER_GUARD_MS


class ReferenceEstimator:
    __slots__ = (
        "window_ms", "bin_ms", "percentile", "loss_cost_ms", "initial_lag_ms",
        "max_lag_ms", "_nbins", "_jitter_bins", "_transit_bins",
        "_jitter_total", "_transit_total", "_jitter_max", "_transit_max",
        "_window", "_has_prev", "_prev_ts", "_prev_arrival", "_last_arrival",
        "_latest_ts", "_lag", "_jitter_lag", "_depth", "_deep",
        "_last_in_order", "_disorder", "_last_ooo_arrival",
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
        if window_ms <= 0 or bin_ms <= 0 or max_lag_ms <= 0:
            raise ValueError("window_ms, bin_ms, max_lag_ms must be positive")
        if not (0 < percentile <= 1):
            raise ValueError("percentile must be in (0, 1]")
        if loss_cost_ms < 0 or initial_lag_ms < 0:
            raise ValueError("loss_cost_ms and initial_lag_ms must be nonnegative")
        self.window_ms = float(window_ms)
        self.bin_ms = float(bin_ms)
        self.percentile = float(percentile)
        self.loss_cost_ms = float(loss_cost_ms)
        self.initial_lag_ms = float(initial_lag_ms)
        self.max_lag_ms = float(max_lag_ms)
        self._nbins = int(max_lag_ms / bin_ms) + 1
        self._jitter_bins = np.zeros(self._nbins, dtype=np.int64)
        self._transit_bins = np.zeros(self._nbins, dtype=np.int64)
        self._jitter_total = 0
        self._transit_total = 0
        self._jitter_max = -1
        self._transit_max = -1
        self._window: deque[tuple[float, int, int]] = deque()
        self._has_prev = False
        self._prev_ts = 0.0
        self._prev_arrival = 0.0
        self._last_arrival = -np.inf
        self._latest_ts = -np.inf
        self._lag = min(float(initial_lag_ms), float(max_lag_ms))
        self._jitter_lag = self._lag
        self._depth = 0.0
        # (arrival, transit) of recent arrivals, transits strictly decreasing
        # from the head: the head is the deepest transit still held
        self._deep: deque[tuple[float, float]] = deque()
        self._last_in_order = True
        self._disorder = False
        self._last_ooo_arrival = -np.inf

    @property
    def lag_ms(self) -> float:
        return self._lag

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
    def n_window(self) -> int:
        return len(self._window)

    @property
    def n_jitter_samples(self) -> int:
        return self._jitter_total

    def _bin_of(self, value: float) -> int:
        b = int(value / self.bin_ms)
        return b if b < self._nbins else self._nbins - 1

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_ms
        while self._window and self._window[0][0] < cutoff:
            _, jbin, tbin = self._window.popleft()
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

    def update(self, ts: float, arrival: float) -> float:
        """Observe one arrival; returns the refreshed lag estimate."""
        if arrival < ts:
            raise ValueError("arrival precedes generation timestamp")
        if arrival < self._last_arrival:
            raise RuntimeError("arrivals must be fed in nondecreasing arrival order")
        self._last_arrival = arrival
        self._evict(arrival)

        in_order = ts > self._latest_ts
        if in_order and self._has_prev:
            jitter = abs((arrival - self._prev_arrival) - (ts - self._prev_ts))
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
        self._window.append((arrival, jbin, tbin))

        if in_order:
            self._prev_ts = ts
            self._prev_arrival = arrival
            self._has_prev = True
            self._latest_ts = ts
            if self._disorder and arrival - self._last_ooo_arrival > DISORDER_GUARD_MS:
                self._disorder = False
        else:
            self._disorder = True
            self._last_ooo_arrival = arrival
        self._last_in_order = in_order

        deep = self._deep
        cutoff = arrival - DISORDER_GUARD_MS
        while deep and deep[0][0] < cutoff:
            deep.popleft()
        while deep and deep[-1][1] <= transit:
            deep.pop()
        deep.append((arrival, transit))
        depth = self._bin_of(deep[0][1] - transit) * self.bin_ms

        if self._jitter_total == 0:
            jitter_lag = self.initial_lag_ms
        elif not self._disorder:
            jitter_lag = self._jitter_quantile()
        else:
            jitter_lag = max(self._jitter_lag, self._cost_argmin(self._jitter_lag))
        if jitter_lag > self.max_lag_ms:
            jitter_lag = self.max_lag_ms
        self._jitter_lag = jitter_lag
        self._depth = depth
        lag = jitter_lag if jitter_lag >= depth else depth
        self._lag = lag
        return lag

    def _jitter_quantile(self) -> float:
        # lower bin edge of the smallest bin whose cumulative count covers
        # percentile * total
        cs = np.cumsum(self._jitter_bins[: self._jitter_max + 1])
        need = self.percentile * self._jitter_total
        idx = int(np.searchsorted(cs, need, side="left"))
        return idx * self.bin_ms

    def _cost_argmin(self, lag: float) -> float:
        cs = np.cumsum(self._jitter_bins[: self._jitter_max + 1])
        i_ms = np.arange(self._jitter_max + 1, dtype=np.float64) * self.bin_ms
        costs = np.maximum(i_ms - lag, 0.0) + self.loss_cost_ms * (
            1.0 - cs / self._jitter_total
        )
        return int(np.argmin(costs)) * self.bin_ms

    def transit_target(self) -> float:
        """Upper bin edge of the windowed transit quantile at ``percentile``.

        This is the playout buffer's generation-to-playout delay budget; the
        upper edge guarantees the budget covers the quantile sample itself.
        """
        if self._transit_total == 0:
            return self.initial_lag_ms
        cs = np.cumsum(self._transit_bins[: self._transit_max + 1])
        need = self.percentile * self._transit_total
        idx = int(np.searchsorted(cs, need, side="left"))
        return (idx + 1) * self.bin_ms
