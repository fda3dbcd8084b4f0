"""Path selection policies and routing-plan bookkeeping.

Two bandit selectors over candidate paths, both minimizing a latency reward,
plus a fixed direct policy:

* Thompson sampling with Gaussian posteriors and known observation precision.
  Conjugate update for a batch of n rewards with sum S:
  tau' = tau + n*tau0, mu' = (tau*mu + tau0*S) / (tau + n*tau0).
  Selection samples each arm's posterior predictive N(mu, 1/tau + 1/tau0) and
  takes the minimum.
* UCB1 adapted to minimization: index = mean - c*sqrt(2*ln(N)/n), argmin wins,
  after a forced round that pulls every arm once.

``ts_update``/``ts_select`` and ``Ucb1Arm``/``ucb1_select`` are the
primitives (Agrawal & Goyal, AISTATS 2013; Auer et al., Machine Learning
2002). The two routers run the same arithmetic on flat per-arm state, where
a feedback costs the update of the one arm that changed plus one pass over
the arms. ``ThompsonRouter`` owns its generator and draws its normals ahead
in blocks; its picks equal ``ts_select``'s on a fresh generator of the same
seed.

Plan updates are gated: a new plan is issued only when the selected path
differs from the current one, and takes effect at the sender only after the
control-message delay.

The session engine uses only these router members: ``needs_feedback``,
``path_for`` (each new packet's path), ``observe``, ``ready`` and ``select``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

TAU0_VARIANCE_FLOOR = 0.25  # ms^2; keeps tau0 finite on near-constant warmups


class _ArmFields(NamedTuple):
    path_id: int
    mu: float
    tau: float
    tau0: float
    pulls: int = 0


class GaussianArmPosterior(_ArmFields):
    """Posterior over one path's mean latency, observation precision known.

    An immutable record: ``ts_update`` returns a new one. It is a tuple
    underneath because a loop over ``ts_update`` rebuilds one per reward,
    where a frozen dataclass's construction costs more than the arithmetic.
    """

    __slots__ = ()

    def __new__(cls, path_id: int, mu: float, tau: float, tau0: float,
                pulls: int = 0) -> "GaussianArmPosterior":
        if tau <= 0 or tau0 <= 0:
            raise ValidationError("precisions must be positive")
        return _new_posterior(cls, (path_id, mu, tau, tau0, pulls))


# unvalidated construction, for updates that keep both precisions positive
_new_posterior = tuple.__new__


def tau0_from_variance(variance_ms2: float) -> float:
    return 1.0 / max(variance_ms2, TAU0_VARIANCE_FLOOR)


def ts_update(arm: GaussianArmPosterior, rewards: Sequence[float]) -> GaussianArmPosterior:
    """Fold a batch of observed latencies into the posterior.

    The mu numerator uses the pre-update tau; folding rewards one at a time
    gives the same result as one batch. An empty batch is a no-op.
    """
    n = len(rewards)
    if n == 0:
        return arm
    for x in rewards:
        if not 0.0 < x < math.inf:  # also false for nan
            raise ValidationError(f"rewards must be positive and finite, got {x!r}")
    # fsum of one float is that float
    total = math.fsum(rewards) if n > 1 else float(rewards[0])
    path_id, mu, tau, tau0, pulls = arm
    new_tau = tau + n * tau0
    new_mu = (tau * mu + tau0 * total) / new_tau
    # tau, tau0 > 0 were checked when arm was built, so new_tau > 0 too
    return _new_posterior(type(arm), (path_id, new_mu, new_tau, tau0, pulls + n))


def ts_select(arms: Sequence[GaussianArmPosterior], rng: np.random.Generator) -> int:
    """Sample each posterior predictive and return the path id of the minimum.

    Arms must be ordered by path_id so the draw order (and hence the result
    for a given rng state) is well defined; ties keep the lowest path_id.
    """
    if not arms:
        raise ValidationError("no arms to select from")
    prev = arms[0].path_id
    for arm in arms:
        pid = arm.path_id
        if pid < prev:
            raise ValidationError("arms must be sorted by path_id")
        prev = pid
    # plain loop over a standard-normal vector: candidate sets are small,
    # and building ndarrays per call would cost more than the loop
    z = rng.standard_normal(len(arms))
    best_id = arms[0].path_id
    best = math.inf
    for arm, zi in zip(arms, z.tolist()):
        draw = arm.mu + math.sqrt(1.0 / arm.tau + 1.0 / arm.tau0) * zi
        if draw < best:
            best = draw
            best_id = arm.path_id
    return best_id


@dataclass(slots=True)
class Ucb1Arm:
    """Running mean state for one path under UCB1."""

    path_id: int
    mean: float = 0.0
    n: int = 0

    def observe(self, reward: float) -> None:
        if not 0.0 < reward < math.inf:  # also false for nan
            raise ValidationError(f"rewards must be positive and finite, got {reward!r}")
        self.n += 1
        self.mean += (reward - self.mean) / self.n


def ucb1_select(arms: Sequence[Ucb1Arm], c: float = 1.0) -> int:
    """Pick the arm minimizing mean - c*sqrt(2*ln(N)/n).

    During the init round (any arm with n == 0) the first unpulled arm in
    path_id order is returned. Ties keep the lowest path_id.
    """
    if not arms:
        raise ValidationError("no arms to select from")
    # one pass: order check, first unpulled arm, total pulls
    prev = arms[0].path_id
    unpulled = None
    total = 0
    for arm in arms:
        pid = arm.path_id
        if pid < prev:
            raise ValidationError("arms must be sorted by path_id")
        prev = pid
        n = arm.n
        if n == 0 and unpulled is None:
            unpulled = pid
        total += n
    if unpulled is not None:
        return unpulled
    log_total = math.log(total)
    best_id = arms[0].path_id
    best_index = math.inf
    for arm in arms:
        index = arm.mean - c * math.sqrt(2.0 * log_total / arm.n)
        if index < best_index:
            best_index = index
            best_id = arm.path_id
    return best_id


@dataclass(frozen=True)
class RoutingPlan:
    """The path currently prescribed for a stream, with a version counter."""

    endpoint: str
    user: str
    path_id: int
    version: int
    issued_at_ms: float

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ValidationError("plan versions start at 1")


def maybe_update_plan(
    plan: RoutingPlan, selected_path_id: int, now_ms: float
) -> tuple[RoutingPlan, bool]:
    """Issue a new plan version only when the selection changed."""
    if selected_path_id == plan.path_id:
        return plan, False
    return (
        replace(plan, path_id=selected_path_id, version=plan.version + 1, issued_at_ms=now_ms),
        True,
    )


class DirectRouter:
    """Always the direct path; consumes no feedback."""

    kind = "direct"
    needs_feedback = None  # no reward signal

    def __init__(self, direct_path_id: int = 0) -> None:
        self._path_id = direct_path_id

    def path_for(self, seq: int, active_path: int) -> int:
        return active_path

    def ready(self) -> bool:
        return True

    def observe(self, path_id: int, reward: float) -> None:
        pass

    def select(self) -> int:
        return self._path_id


class ThompsonRouter:
    """Gaussian Thompson sampling over the candidate set.

    Every arm starts from the warmup history: mu = historical path mean and
    tau = tau0, a prior worth one observation. Routing live probe packets
    round-robin to seed the arms instead does not work: consecutive packets
    on wildly different paths reorder heavily, the receive-side waiting they
    cause leaks into every arm's first end-to-end reward, and the posteriors
    come out confidently wrong and overlapping.

    The state is flat, one entry per arm in path id order: ``observe``
    recomputes only the entry of the arm it updates, with ``ts_update``'s
    arithmetic and ``ts_select``'s predictive sd. The router owns its
    generator and draws standard normals ahead, ``DRAW_BLOCK`` selections at
    a time. A (B, k) block holds the same numbers as B sequential k-vectors,
    so the picks equal ``ts_select``'s on a fresh generator of the same seed.
    """

    kind = "vcroute_ts"
    needs_feedback = "e2e"

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
        self._mu = np.array([mu0 for _, mu0, _ in ordered], dtype=np.float64)
        self._sd = np.array([math.sqrt(1.0 / tau + 1.0 / tau0)
                             for tau, tau0 in zip(self._tau, self._tau0)])
        self._rng = rng
        self._z = np.empty((0, len(ordered)))
        self._row = 0

    def path_for(self, seq: int, active_path: int) -> int:
        return active_path

    def ready(self) -> bool:
        return True

    def observe(self, path_id: int, reward: float) -> None:
        if not 0.0 < reward < math.inf:  # also false for nan
            raise ValidationError(f"rewards must be positive and finite, got {reward!r}")
        i = self._index[path_id]
        tau = self._tau[i]
        tau0 = self._tau0[i]
        # ts_update for a batch of one, then ts_select's sd expression
        new_tau = tau + tau0
        self._mu[i] = (tau * self._mu.item(i) + tau0 * reward) / new_tau
        self._sd[i] = math.sqrt(1.0 / new_tau + 1.0 / tau0)
        self._tau[i] = new_tau
        self._pulls[i] += 1

    def select(self) -> int:
        r = self._row
        if r == len(self._z):
            self._z = self._rng.standard_normal((self.DRAW_BLOCK, len(self._ids)))
            r = 0
        self._row = r + 1
        # ts_select's draw mu + sd * z per arm; argmin keeps the first
        # minimum, the lowest path id
        return self._ids[int((self._mu + self._sd * self._z[r]).argmin())]

    def arm(self, path_id: int) -> GaussianArmPosterior:
        i = self._index[path_id]
        return GaussianArmPosterior(path_id, mu=self._mu.item(i), tau=self._tau[i],
                                    tau0=self._tau0[i], pulls=self._pulls[i])


class Ucb1Router:
    """UCB1 over the candidate set, rewarded with transmitting latency.

    The state is flat, one entry per arm in path id order, plus the total of
    pulls and the count of arms never pulled, so ``ready`` is a counter
    test. ``observe`` applies ``Ucb1Arm.observe``'s arithmetic and ``select``
    ``ucb1_select``'s index, in a Python loop over lists: at 1 to 17 arms a
    numpy expression's per-call dispatch costs more than the arithmetic.
    """

    kind = "via_ucb1"
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

    def path_for(self, seq: int, active_path: int) -> int:
        """Forced round: packet seq < k takes the seq-th of the k arms, then
        packets cycle through the arms still without a reward, if any."""
        if seq < len(self._ids):
            return self._ids[seq]
        if self._unpulled:
            unrewarded = [pid for pid, n in zip(self._ids, self._n) if n == 0]
            return unrewarded[seq % len(unrewarded)]
        return active_path

    def ready(self) -> bool:
        return not self._unpulled

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

    def select(self) -> int:
        if self._unpulled:
            return self._ids[self._n.index(0)]
        # ucb1_select's index per arm; min keeps the first minimum, the
        # lowest path id
        c = self._c
        two_log_total = 2.0 * math.log(self._total)
        index = [mean - c * math.sqrt(two_log_total / n)
                 for mean, n in zip(self._mean, self._n)]
        return self._ids[index.index(min(index))]

    def arm(self, path_id: int) -> Ucb1Arm:
        i = self._index[path_id]
        return Ucb1Arm(path_id, self._mean[i], self._n[i])
