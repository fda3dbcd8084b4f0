"""Path selection policies.

Two bandit routers over candidate paths, both minimizing a latency reward in
ms, which must be nonnegative and finite (it is 0 where a latency rounds away
at Ts, so that Ta == Ts):

* ``ThompsonRouter``: Thompson sampling with Gaussian posteriors and known
  observation precision (Agrawal & Goyal, AISTATS 2013). Conjugate update
  for a batch of n rewards with sum S:
  tau' = tau + n*tau0, mu' = (tau*mu + tau0*S) / (tau + n*tau0).
  The router folds one reward at a time, which gives the same posterior.
  Selection samples each arm's posterior predictive N(mu, 1/tau + 1/tau0) and
  takes the minimum.
* ``Ucb1Router``: UCB1 adapted to minimization (Auer et al., Machine Learning
  2002): index = mean - c*sqrt(2*ln(N)/n), argmin wins, after a forced round
  that pulls every arm once.

Both keep flat per-arm state in path id order, and ties go to the lowest
path id. A feedback updates the one arm it rewards. Between plan changes
every reward goes to the adopted path, so only that arm's score moves:
``select`` scores the arm the last feedback rewarded (the hot arm) alone
against a cache over the other arms, kept until another arm is rewarded, and
the picks stay those of a pass over every arm. ``ThompsonRouter`` does so on
every call. ``Ucb1Router`` does so once the hot arm has been rewarded twice
in a row, and makes the pass when that arm does not beat the cache's bound.

The session engine reads ``needs_feedback`` (``"e2e"`` or ``"transmit"``)
and ``follows_plan`` off a router, and calls ``observe`` on each feedback and
``select`` after it once ``follows_plan`` is true. ``follows_plan`` is true
once every later packet takes the adopted plan: from the start for
``ThompsonRouter``, and for ``Ucb1Router`` once every arm has a reward and
its forced round is over. While it is false the engine asks ``path_for`` (a
new packet's path) packet by packet, so only ``Ucb1Router`` has one. A
session whose candidate set is one path, ``direct`` or pruned to one, gets
no router at all (``engine.plan_session``): no feedback could change its
pick.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError

TAU0_VARIANCE_FLOOR = 0.25  # ms^2; keeps tau0 finite on near-constant warmups


def tau0_from_variance(variance_ms2: float) -> float:
    return 1.0 / max(variance_ms2, TAU0_VARIANCE_FLOOR)


class ThompsonRouter:
    """Gaussian Thompson sampling over the candidate set.

    Every arm starts from the warmup history: mu = historical path mean and
    tau = tau0, a prior worth one observation. Routing live probe packets
    round-robin to seed the arms instead does not work: consecutive packets
    on wildly different paths reorder heavily, the receive-side waiting they
    cause leaks into every arm's first end-to-end reward, and the posteriors
    come out confidently wrong and overlapping.

    ``observe`` recomputes only the entry of the arm it updates: its
    posterior and its predictive sd. The router owns its generator and draws
    standard normals ahead, ``DRAW_BLOCK`` selections at a time. A (B, k)
    block holds the same numbers as B sequential k-vectors, so the picks
    equal those of one ``standard_normal(k)`` per selection on a fresh
    generator of the same seed.

    The cache holds, for every row of the block, the first minimum m of the
    other arms' draws and its arm j, computed with numpy when the block is
    drawn or another arm is rewarded. ``select`` draws for the hot arm h
    alone: h wins if its draw d < m, or d == m and h < j, as the first
    minimum over every arm would. Before the first reward no arm is masked
    and j is the pick.
    """

    needs_feedback = "e2e"
    follows_plan = True  # every packet takes the adopted plan

    DRAW_BLOCK = 64  # selections per standard-normal draw

    def __init__(
        self,
        priors: Sequence[tuple[int, float, float]],  # (path_id, mu0, tau0)
        rng: np.random.Generator,
    ) -> None:
        if not priors:
            raise ValidationError("empty candidate set")
        ordered = sorted(priors, key=lambda prior: prior[0])
        self._ids = [pid for pid, _, _ in ordered]
        if len(set(self._ids)) != len(self._ids):
            raise ValidationError("duplicate path ids in priors")
        for _, mu0, tau0 in ordered:
            if not math.isfinite(mu0):
                raise ValidationError(f"prior mean must be finite, got {mu0!r}")
            if tau0 <= 0:
                raise ValidationError("precisions must be positive")
        self._index = {pid: i for i, pid in enumerate(self._ids)}
        self._tau = [tau0 for _, _, tau0 in ordered]
        self._tau0 = list(self._tau)
        self._pulls = [0] * len(ordered)
        self._mu = [float(mu0) for _, mu0, _ in ordered]
        self._sd = [math.sqrt(1.0 / tau + 1.0 / tau0)
                    for tau, tau0 in zip(self._tau, self._tau0)]
        self._rng = rng
        self._block = np.empty((0, len(ordered)))  # the standard normals drawn
        self._row = 0  # the block's next row
        self._hot = -1  # the arm the last observe rewarded, -1 before any
        # per row of the block: the first minimum of the other arms' draws,
        # its arm, and the hot arm's normal; None until built
        self._rest_min: list[float] | None = None
        self._rest_arg: list[int] = []
        self._hot_z: list[float] = []

    def observe(self, path_id: int, reward: float) -> None:
        if not 0.0 <= reward < math.inf:  # also false for nan
            raise ValidationError(f"rewards must be nonnegative and finite, got {reward!r}")
        i = self._index[path_id]
        tau = self._tau[i]
        tau0 = self._tau0[i]
        # the conjugate update for a batch of one, then the predictive sd
        new_tau = tau + tau0
        self._mu[i] = (tau * self._mu[i] + tau0 * reward) / new_tau
        self._sd[i] = math.sqrt(1.0 / new_tau + 1.0 / tau0)
        self._tau[i] = new_tau
        self._pulls[i] += 1
        if i != self._hot:
            self._hot = i
            self._rest_min = None

    def select(self) -> int:
        r = self._row
        if r == len(self._block):
            self._block = self._rng.standard_normal((self.DRAW_BLOCK, len(self._ids)))
            self._rest_min = None
            r = 0
        self._row = r + 1
        if self._rest_min is None:
            self._cache_rest()
        # the hot arm's draw against the first minimum of the others' draws:
        # the hot arm wins below it, or level with a higher arm
        j = self._rest_arg[r]
        h = self._hot
        if h < 0:
            return self._ids[j]
        draw = self._mu[h] + self._sd[h] * self._hot_z[r]
        rest = self._rest_min[r]
        return self._ids[h if draw < rest or (draw == rest and h < j) else j]

    def _cache_rest(self) -> None:
        """Every arm's draws but the hot arm's, for the whole block at once:
        numpy rounds the product and the sum as ``select`` does, and argmin
        takes the first minimum. The hot arm's column draws inf + 0*z."""
        h = self._hot
        mu = np.array(self._mu)
        sd = np.array(self._sd)
        if h >= 0:
            mu[h] = math.inf
            sd[h] = 0.0
        draws = mu + sd * self._block
        arg = draws.argmin(axis=1)
        self._rest_min = draws[np.arange(len(arg)), arg].tolist()
        self._rest_arg = arg.tolist()
        if h >= 0:
            self._hot_z = self._block[:, h].tolist()

    def arm(self, path_id: int) -> tuple[float, float, float, int]:
        """The arm's ``(mu, tau, tau0, pulls)``."""
        i = self._index[path_id]
        return self._mu[i], self._tau[i], self._tau0[i], self._pulls[i]


class Ucb1Router:
    """UCB1 over the candidate set, rewarded with transmitting latency.

    Beside the per-arm means and pull counts it keeps the total of pulls and
    the count of arms never pulled, so ``follows_plan`` is a counter test:
    it turns true when the last arm gets its first reward. ``observe``
    updates the arm's running mean and ``select`` computes the index in a
    Python loop over lists: at 1 to 17 arms a numpy expression's per-call
    dispatch costs more than the arithmetic.

    Once the hot arm has been rewarded twice in a row, the index of every
    other arm can only fall as the total grows, so their minimum at a horizon
    of twice the current total, less a rounding margin, bounds them all until
    the total passes it. While the hot arm's exact index is strictly below
    that bound it is the first minimum, and ``select`` returns it after one
    square root. Otherwise it runs the loop.
    """

    needs_feedback = "transmit"

    def __init__(self, path_ids: Sequence[int], c: float = 1.0) -> None:
        if not path_ids:
            raise ValidationError("empty candidate set")
        if c < 0:
            raise ValidationError("exploration constant must be nonnegative")
        self._ids = sorted(path_ids)
        if len(set(self._ids)) != len(self._ids):
            raise ValidationError("duplicate path ids")
        self._index = {pid: i for i, pid in enumerate(self._ids)}
        self._mean = [0.0] * len(self._ids)
        self._n = [0] * len(self._ids)
        self._total = 0
        self._unpulled = len(self._ids)
        self._c = c
        self.follows_plan = False  # true once every arm has a reward
        self._hot = -1  # the arm the last observe rewarded
        self._streak = 0  # its rewards in a row
        # while total <= _horizon: a lower bound on every other arm's index
        self._rest_bound = -math.inf
        self._horizon = 0

    def path_for(self, seq: int) -> int:
        """Forced round: packet seq < k takes the seq-th of the k arms, then
        packets cycle through the arms still without a reward. Asked only
        while ``follows_plan`` is false."""
        if seq < len(self._ids):
            return self._ids[seq]
        unrewarded = [pid for pid, n in zip(self._ids, self._n) if n == 0]
        return unrewarded[seq % len(unrewarded)]

    def observe(self, path_id: int, reward: float) -> None:
        if not 0.0 <= reward < math.inf:  # also false for nan
            raise ValidationError(f"rewards must be nonnegative and finite, got {reward!r}")
        i = self._index[path_id]
        n = self._n[i] + 1
        self._n[i] = n
        self._mean[i] += (reward - self._mean[i]) / n
        self._total += 1
        if i == self._hot:
            self._streak += 1
        else:
            self._hot = i
            self._streak = 1
            self._horizon = 0
        if n == 1:
            self._unpulled -= 1
            self.follows_plan = not self._unpulled

    def select(self) -> int:
        if self._unpulled:
            return self._ids[self._n.index(0)]
        c = self._c
        two_log_total = 2.0 * math.log(self._total)
        if self._streak > 1:
            if self._total > self._horizon:
                self._bound_rest()
            h = self._hot
            if self._mean[h] - c * math.sqrt(two_log_total / self._n[h]) < self._rest_bound:
                return self._ids[h]
        # the first minimum of the index, the lowest path id on ties
        best = 0
        best_index = math.inf
        for i, mean in enumerate(self._mean):
            index = mean - c * math.sqrt(two_log_total / self._n[i])
            if index < best_index:
                best_index = index
                best = i
        return self._ids[best]

    def _bound_rest(self) -> None:
        """Bound every index but the hot arm's from below, up to a horizon of
        twice the pulls so far: those arms' means and counts hold still, so
        their indices only fall as the total grows. Less a margin for
        rounding, a hot index below the bound is below every other index."""
        self._horizon = 2 * self._total
        c = self._c
        two_log_horizon = 2.0 * math.log(self._horizon)
        margin = 1e-9 * (max(map(abs, self._mean)) + c * math.sqrt(two_log_horizon))
        self._rest_bound = min((self._mean[i] - c * math.sqrt(two_log_horizon / n)
                                for i, n in enumerate(self._n) if i != self._hot),
                               default=math.inf) - margin

    def arm(self, path_id: int) -> tuple[float, int]:
        """The arm's ``(mean, n)``."""
        i = self._index[path_id]
        return self._mean[i], self._n[i]
