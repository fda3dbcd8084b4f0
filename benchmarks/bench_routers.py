"""Time the bandit routers' observe + select, per call.

Both routers (``ThompsonRouter`` and ``Ucb1Router`` at c = 1) at k = 3 and
k = 17 arms, in three regimes of feedback:

* ``steady``: every reward goes to the best arm, which keeps winning (a
  session between plan changes);
* ``alternating``: the rewarded arm changes on every call, round robin (UCB1's
  forced round, exploration at a large c, one RTT after a path change);
* ``losing``: every reward goes to the worst arm, which keeps losing (feedback
  still in flight on a path the router has just left).

Each cell runs a fresh router through ``--calls`` observe + select pairs and
the same observes alone; ``select`` is the difference of the two per call.
Times are the fastest of ``--repeats`` runs, in microseconds.

    PYTHONPATH=src python benchmarks/bench_routers.py [--calls N] [--repeats R]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from relaysim import ThompsonRouter, Ucb1Router

REGIMES = ("steady", "alternating", "losing")
ARMS = (3, 17)


def _means(k):
    return [100.0 + 50.0 * i for i in range(k)]  # arm 0 is the best by far


def _make(router, k, seed):
    if router == "thompson":
        made = ThompsonRouter([(pid, mean, 0.04) for pid, mean in enumerate(_means(k))],
                              np.random.default_rng(seed))
    else:
        made = Ucb1Router(list(range(k)), c=1.0)
    for pid, mean in enumerate(_means(k)):  # every arm rewarded, UCB1's forced round over
        made.observe(pid, mean)
    return made


def _feedback(regime, k, calls, seed):
    """(path_id, reward) per call."""
    if regime == "steady":
        arms = [0] * calls
    elif regime == "alternating":
        arms = [i % k for i in range(calls)]
    else:
        arms = [k - 1] * calls
    means = np.array(_means(k))[arms]
    rewards = np.maximum(np.random.default_rng(seed).normal(means, 5.0), 0.1).tolist()
    return list(zip(arms, rewards))


def _time(router, k, feedback, seed, with_select):
    made = _make(router, k, seed)
    observe, select = made.observe, made.select
    start = time.perf_counter()
    if with_select:
        for pid, reward in feedback:
            observe(pid, reward)
            select()
    else:
        for pid, reward in feedback:
            observe(pid, reward)
    return (time.perf_counter() - start) / len(feedback) * 1e6


def measure(calls, repeats, seed=0):
    """{(router, k, regime): (observe + select us, select us)}"""
    rows = {}
    for router in ("thompson", "ucb1"):
        for k in ARMS:
            for regime in REGIMES:
                feedback = _feedback(regime, k, calls, seed + k)
                both = min(_time(router, k, feedback, seed, True) for _ in range(repeats))
                alone = min(_time(router, k, feedback, seed, False) for _ in range(repeats))
                rows[(router, k, regime)] = (both, both - alone)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"{'router':10s}{'k':>4s}  {'regime':12s}{'observe+select us':>19s}{'select us':>11s}")
    for (router, k, regime), (both, select) in measure(args.calls, args.repeats).items():
        print(f"{router:10s}{k:4d}  {regime:12s}{both:19.3f}{select:11.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
