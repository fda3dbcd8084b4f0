"""Independent reference model of the two bandit routers.

The bandit primitives written out plainly, the way the papers state them
(Agrawal & Goyal, AISTATS 2013; Auer et al., Machine Learning 2002): a dict
of per-arm state, one ``standard_normal(k)`` call per Thompson selection,
the conjugate Gaussian update with known observation precision, and the UCB1
index recomputed for every arm on every selection. The equivalence tests
drive this model and ``ThompsonRouter``/``Ucb1Router`` with the same priors,
rewards and seed, and require the same picks and bit-identical arm state.
"""

from __future__ import annotations

import math

import numpy as np


class ThompsonReference:
    def __init__(self, priors: list[tuple[int, float, float]],
                 rng: np.random.Generator) -> None:
        # path_id -> [mu, tau, tau0, pulls]; each prior is worth one observation
        self.arms = {pid: [mu0, tau0, tau0, 0] for pid, mu0, tau0 in priors}
        self.rng = rng

    def select(self) -> int:
        ids = sorted(self.arms)
        z = self.rng.standard_normal(len(ids))
        draws = []
        for pid, zi in zip(ids, z.tolist()):
            mu, tau, tau0, _ = self.arms[pid]
            draws.append(mu + math.sqrt(1.0 / tau + 1.0 / tau0) * zi)
        return ids[draws.index(min(draws))]

    def observe(self, path_id: int, reward: float) -> None:
        mu, tau, tau0, pulls = self.arms[path_id]
        new_tau = tau + tau0
        self.arms[path_id] = [(tau * mu + tau0 * reward) / new_tau, new_tau, tau0, pulls + 1]


class Ucb1Reference:
    def __init__(self, path_ids: list[int], c: float) -> None:
        self.arms = {pid: [0.0, 0] for pid in path_ids}  # path_id -> [mean, n]
        self.c = c

    def select(self) -> int:
        ids = sorted(self.arms)
        for pid in ids:
            if self.arms[pid][1] == 0:
                return pid
        total = sum(n for _, n in self.arms.values())
        indices = []
        for pid in ids:
            mean, n = self.arms[pid]
            indices.append(mean - self.c * math.sqrt(2.0 * math.log(total) / n))
        return ids[indices.index(min(indices))]

    def observe(self, path_id: int, reward: float) -> None:
        mean, n = self.arms[path_id]
        self.arms[path_id] = [mean + (reward - mean) / (n + 1), n + 1]
