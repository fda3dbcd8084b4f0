"""Path selection policies.

Two bandit routers over candidate paths, both minimizing a latency reward:

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

Both keep flat per-arm state in path id order, so a feedback costs the
update of the one arm that changed plus one pass over the arms, and ties go
to the lowest path id.

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
    generator of the same seed. State and blocks are Python lists, and
    ``select`` finds the minimum in a loop, as ``Ucb1Router`` does.
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
        self._z: list[list[float]] = []
        self._row = 0

    def observe(self, path_id: int, reward: float) -> None:
        if not 0.0 < reward < math.inf:  # also false for nan
            raise ValidationError(f"rewards must be positive and finite, got {reward!r}")
        i = self._index[path_id]
        tau = self._tau[i]
        tau0 = self._tau0[i]
        # the conjugate update for a batch of one, then the predictive sd
        new_tau = tau + tau0
        self._mu[i] = (tau * self._mu[i] + tau0 * reward) / new_tau
        self._sd[i] = math.sqrt(1.0 / new_tau + 1.0 / tau0)
        self._tau[i] = new_tau
        self._pulls[i] += 1

    def select(self) -> int:
        r = self._row
        if r == len(self._z):
            self._z = self._rng.standard_normal((self.DRAW_BLOCK, len(self._ids))).tolist()
            r = 0
        self._row = r + 1
        # one predictive draw mu + sd * z per arm; the first minimum wins,
        # the lowest path id on ties
        mu = self._mu
        sd = self._sd
        z = self._z[r]
        best = 0
        best_draw = math.inf
        for i in range(len(z)):
            draw = mu[i] + sd[i] * z[i]
            if draw < best_draw:
                best_draw = draw
                best = i
        return self._ids[best]

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

    def path_for(self, seq: int) -> int:
        """Forced round: packet seq < k takes the seq-th of the k arms, then
        packets cycle through the arms still without a reward. Asked only
        while ``follows_plan`` is false."""
        if seq < len(self._ids):
            return self._ids[seq]
        unrewarded = [pid for pid, n in zip(self._ids, self._n) if n == 0]
        return unrewarded[seq % len(unrewarded)]

    def observe(self, path_id: int, reward: float) -> None:
        if not 0.0 < reward < math.inf:  # also false for nan
            raise ValidationError(f"rewards must be positive and finite, got {reward!r}")
        i = self._index[path_id]
        n = self._n[i] + 1
        self._n[i] = n
        self._mean[i] += (reward - self._mean[i]) / n
        self._total += 1
        if n == 1:
            self._unpulled -= 1
            self.follows_plan = not self._unpulled

    def select(self) -> int:
        if self._unpulled:
            return self._ids[self._n.index(0)]
        # the first minimum of the index, the lowest path id on ties
        c = self._c
        two_log_total = 2.0 * math.log(self._total)
        best = 0
        best_index = math.inf
        for i, mean in enumerate(self._mean):
            index = mean - c * math.sqrt(two_log_total / self._n[i])
            if index < best_index:
                best_index = index
                best = i
        return self._ids[best]

    def arm(self, path_id: int) -> tuple[float, int]:
        """The arm's ``(mean, n)``."""
        i = self._index[path_id]
        return self._mean[i], self._n[i]
