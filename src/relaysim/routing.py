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
    underneath because one is rebuilt on every feedback, where a frozen
    dataclass's construction costs more than the update arithmetic.
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
    # plain loop over a standard-normal vector: candidate sets are small and
    # this sits on the per-feedback hot path, where building ndarrays per
    # call dominates the cost
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
    """

    kind = "vcroute_ts"
    needs_feedback = "e2e"

    def __init__(
        self,
        priors: Sequence[tuple[int, float, float]],  # (path_id, mu0, tau0)
        rng: np.random.Generator,
    ) -> None:
        if not priors:
            raise ValidationError("empty candidate set")
        self._ids = sorted(pid for pid, _, _ in priors)
        if len(set(self._ids)) != len(self._ids):
            raise ValidationError("duplicate path ids in priors")
        self._arms: dict[int, GaussianArmPosterior] = {}
        for pid, mu0, tau0 in priors:
            if not math.isfinite(mu0):
                raise ValidationError(f"prior mean must be finite, got {mu0!r}")
            self._arms[pid] = GaussianArmPosterior(pid, mu=mu0, tau=tau0, tau0=tau0)
        self._rng = rng

    def path_for(self, seq: int, active_path: int) -> int:
        return active_path

    def ready(self) -> bool:
        return True

    def observe(self, path_id: int, reward: float) -> None:
        self._arms[path_id] = ts_update(self._arms[path_id], [reward])

    def select(self) -> int:
        return ts_select([self._arms[pid] for pid in self._ids], self._rng)

    def arm(self, path_id: int) -> GaussianArmPosterior:
        return self._arms[path_id]


class Ucb1Router:
    """UCB1 over the candidate set, rewarded with transmitting latency."""

    kind = "via_ucb1"
    needs_feedback = "transmit"

    def __init__(self, path_ids: Sequence[int], c: float = 1.0) -> None:
        if not path_ids:
            raise ValidationError("empty candidate set")
        if c < 0:
            raise ValidationError("exploration constant must be nonnegative")
        self._ids = sorted(path_ids)
        self._arms = {pid: Ucb1Arm(pid) for pid in self._ids}
        self._unrewarded = list(self._ids)
        self._c = c

    def path_for(self, seq: int, active_path: int) -> int:
        """Forced round: packet seq < k takes the seq-th of the k arms, then
        packets cycle through the arms still without a reward, if any."""
        if seq < len(self._ids):
            return self._ids[seq]
        if self._unrewarded:  # arms never lose rewards: only shrinks
            self._unrewarded = [pid for pid in self._unrewarded if self._arms[pid].n == 0]
            if self._unrewarded:
                return self._unrewarded[seq % len(self._unrewarded)]
        return active_path

    def ready(self) -> bool:
        return all(arm.n > 0 for arm in self._arms.values())

    def observe(self, path_id: int, reward: float) -> None:
        self._arms[path_id].observe(reward)

    def select(self) -> int:
        return ucb1_select([self._arms[pid] for pid in self._ids], self._c)

    def arm(self, path_id: int) -> Ucb1Arm:
        return self._arms[path_id]
