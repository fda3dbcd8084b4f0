"""Posterior updates and arm selection."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandit_reference import ThompsonReference, Ucb1Reference
from relaysim import ThompsonRouter, Ucb1Router, ValidationError
from relaysim.routing import TAU0_VARIANCE_FLOOR, tau0_from_variance


def _thompson(*priors, seed=0):
    return ThompsonRouter(list(priors), np.random.default_rng(seed))


def test_conjugate_update_single_observation():
    router = _thompson((0, 0.0, 1.0))
    router.observe(0, 10.0)
    assert router.arm(0) == (5.0, 2.0, 1.0, 1)


def test_conjugate_update_symmetric_batch():
    router = _thompson((0, 100.0, 2.0))
    for reward in (90.0, 110.0):
        router.observe(0, reward)
    # tau' = 2 + 2*2; mu' = (2*100 + 2*200) / 6, the batch mean equals the
    # prior mean so the location is unchanged
    mu, tau, _, _ = router.arm(0)
    assert tau == 6.0
    assert mu == 100.0


def test_conjugate_update_uses_pre_update_precision():
    # folding one reward at a time must equal the batch closed form
    tau0 = 0.125
    rewards = [140.0, 155.0, 149.5]
    router = _thompson((0, 150.0, tau0))
    for r in rewards:
        router.observe(0, r)
    want_tau = tau0 + len(rewards) * tau0
    want_mu = (tau0 * 150.0 + tau0 * math.fsum(rewards)) / want_tau
    mu, tau, _, pulls = router.arm(0)
    assert tau == pytest.approx(want_tau, rel=1e-12)
    assert mu == pytest.approx(want_mu, rel=1e-12)
    assert pulls == 3


def test_conjugate_update_precision_grows_monotonically():
    router = _thompson((0, 100.0, 0.04))
    rng = np.random.default_rng(0)
    for _ in range(50):
        _, prev, tau0, _ = router.arm(0)
        router.observe(0, float(rng.uniform(50, 200)))
        assert router.arm(0)[1] == prev + tau0


@pytest.mark.parametrize("bad", [0.0, -5.0, float("inf"), float("nan")])
def test_conjugate_update_rejects_bad_rewards(bad):
    router = _thompson((0, 100.0, 1.0))
    router.observe(0, 100.0)
    with pytest.raises(ValidationError):
        router.observe(0, bad)
    assert router.arm(0) == (100.0, 2.0, 1.0, 1)  # the rejected reward left no trace


def test_posterior_validation():
    for tau0 in (0.0, -1.0):
        with pytest.raises(ValidationError):
            _thompson((0, 0.0, tau0))


def test_posterior_concentrates_on_true_mean():
    true_mean = 150.0
    rng = np.random.default_rng(5)
    router = _thompson((0, 300.0, 0.01))  # wrong prior
    for reward in rng.normal(true_mean, 10.0, size=5000).tolist():
        router.observe(0, reward)
    mu, tau, _, _ = router.arm(0)
    assert mu == pytest.approx(true_mean, abs=1.0)
    assert tau == pytest.approx(0.01 + 5000 * 0.01)


def test_tau0_variance_floor():
    assert tau0_from_variance(4.0) == 0.25
    assert tau0_from_variance(0.0) == 1.0 / TAU0_VARIANCE_FLOOR
    assert tau0_from_variance(1e-9) == 1.0 / TAU0_VARIANCE_FLOOR


def test_select_single_arm():
    assert _thompson((4, 100.0, 1.0)).select() == 4


def test_select_prefers_clearly_lower_mean():
    # posterior-predictive stds ~1.0 vs a 900 ms gap: picking the slow arm is
    # a >600-sigma event
    router = _thompson((1, 100.0, 2.0), (2, 1000.0, 2.0), seed=123)
    picks = [router.select() for _ in range(1000)]
    assert picks.count(1) == 1000


def test_select_symmetric_arms_split_evenly():
    router = _thompson((0, 100.0, 1.0), (1, 100.0, 1.0), seed=7)
    picks = [router.select() for _ in range(10_000)]
    share = picks.count(0) / len(picks)
    assert 0.47 <= share <= 0.53


def test_select_invariant_under_common_shift():
    # identical rng state, every mean moved by the same constant: the sampled
    # ordering cannot change
    means = (120.0, 80.0, 150.0, 95.0)
    for seed in range(50):
        router = _thompson(*[(i, m, 0.5) for i, m in enumerate(means)], seed=seed)
        shifted = _thompson(*[(i, m + 1e4, 0.5) for i, m in enumerate(means)], seed=seed)
        assert router.select() == shifted.select()


def test_select_validation():
    with pytest.raises(ValidationError):
        _thompson()
    # priors in any order: the router sorts them by path id
    given = [(2, 1.0, 1.0), (1, 3.0, 0.5), (5, 2.0, 2.0)]
    router = _thompson(*given, seed=1)
    ordered = _thompson(*sorted(given), seed=1)
    picks = [router.select() for _ in range(200)]
    assert len(set(picks)) == 3
    assert picks == [ordered.select() for _ in range(200)]


def test_ucb1_init_round_in_id_order():
    router = Ucb1Router([0, 1, 2])
    assert router.select() == 0
    router.observe(0, 100.0)
    assert router.select() == 1
    router.observe(1, 100.0)
    assert router.select() == 2


def _ucb1(arms, c):
    # a router whose arms hold the given (path_id, mean, n): every reward is
    # the arm's mean, so the running mean is exact
    router = Ucb1Router([pid for pid, _, _ in arms], c=c)
    for pid, mean, n in arms:
        for _ in range(n):
            router.observe(pid, mean)
    return router


def test_ucb1_exploration_bonus_flips_to_undersampled_arm():
    arms = [(1, 100.0, 10_000), (2, 105.0, 1)]
    c = 100.0
    assert _ucb1(arms, c).select() == 2
    # the indices behind that choice
    total = math.log(10_001)
    idx_a = 100.0 - c * math.sqrt(2.0 * total / 10_000)
    idx_b = 105.0 - c * math.sqrt(2.0 * total)
    assert idx_b < idx_a
    # with no exploration the better mean wins
    assert _ucb1(arms, 0.0).select() == 1


def test_ucb1_tie_breaks_to_lowest_id():
    assert _ucb1([(7, 100.0, 50), (3, 100.0, 50)], 5.0).select() == 3


def test_ucb1_observe_running_mean():
    router = Ucb1Router([0])
    for r in (10.0, 20.0, 30.0):
        router.observe(0, r)
    mean, n = router.arm(0)
    assert n == 3
    assert mean == pytest.approx(20.0)
    with pytest.raises(ValidationError):
        router.observe(0, -1.0)


def test_ucb1_select_validation():
    with pytest.raises(ValidationError):
        Ucb1Router([])
    # ids in any order: the router sorts them, so the init round runs in id order
    assert Ucb1Router([2, 1]).select() == 1


def test_thompson_router_state():
    rng = np.random.default_rng(0)
    router = ThompsonRouter([(0, 100.0, 0.01), (2, 150.0, 0.01)], rng)
    assert router.follows_plan  # from the start: every packet on the plan
    assert router.needs_feedback == "e2e"
    router.observe(2, 140.0)
    assert router.arm(2)[3] == 1  # (mu, tau, tau0, pulls)
    assert router.select() in (0, 2)
    with pytest.raises(ValidationError):
        ThompsonRouter([], rng)
    with pytest.raises(ValidationError):
        ThompsonRouter([(0, 1.0, 1.0), (0, 2.0, 1.0)], rng)
    with pytest.raises(ValidationError):
        ThompsonRouter([(0, float("nan"), 1.0)], rng)
    with pytest.raises(ValidationError):
        ThompsonRouter([(0, 1.0, 0.0)], rng)
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValidationError):
            router.observe(0, bad)
    assert router.arm(0) == (100.0, 0.01, 0.01, 0)


def test_ucb1_router_state():
    router = Ucb1Router([4, 1, 2], c=10.0)
    # forced round: each arm once in path_id order
    assert [router.path_for(seq) for seq in range(3)] == [1, 2, 4]
    assert not router.follows_plan
    assert router.needs_feedback == "transmit"
    # no reward yet: cycle the unrewarded arms, indexed by seq
    assert [router.path_for(seq) for seq in range(3, 6)] == [1, 2, 4]
    router.observe(2, 102.0)
    assert [router.path_for(seq) for seq in range(6, 9)] == [1, 4, 1]
    # follows_plan turns true with the last arm's first reward
    assert not router.follows_plan and router.path_for(9) == 4
    router.observe(1, 101.0)
    assert not router.follows_plan and router.path_for(10) == 4
    router.observe(4, 104.0)
    assert router.follows_plan
    assert router.select() in (1, 2, 4)
    with pytest.raises(ValidationError):
        Ucb1Router([])
    with pytest.raises(ValidationError):
        Ucb1Router([1], c=-1.0)
    with pytest.raises(ValidationError):
        Ucb1Router([1, 2, 1])
    with pytest.raises(ValidationError):
        router.observe(1, float("nan"))
    assert router.arm(1) == (101.0, 1)  # (mean, n)


def test_thompson_converges_on_stationary_arms():
    # light version of the full convergence benchmark in the acceptance suite
    rng = np.random.default_rng(3)
    reward_rng = np.random.default_rng(30)
    means = (100.0, 150.0, 200.0)
    router = ThompsonRouter([(i, 150.0, 0.01) for i in range(3)], rng)
    picks = []
    for _ in range(3000):
        pid = router.select()
        picks.append(pid)
        router.observe(pid, max(float(reward_rng.normal(means[pid], 10.0)), 0.1))
    assert picks[-1000:].count(0) >= 800


def _trajectory_digest(picks, state):
    return hashlib.sha256(bytes(picks) + repr(state).encode()).hexdigest()


def test_ts_router_trajectory_pinned():
    # the exact pick sequence and final arm state of a seeded router run: any
    # rewrite of ThompsonRouter must reproduce both
    means = (100.0, 108.0, 115.0)
    rewards = np.maximum(
        np.random.default_rng(12).normal(means, 40.0, (5000, 3)), 0.1).tolist()
    router = ThompsonRouter([(0, 150.0, 0.01), (1, 120.0, 0.005), (2, 110.0, 0.0004)],
                            np.random.default_rng(11))
    picks = []
    for row in rewards:
        pid = router.select()
        picks.append(pid)
        router.observe(pid, row[pid])
    state = []
    for pid in range(3):
        mu, tau, _, pulls = router.arm(pid)
        state.append((pid, mu.hex(), tau.hex(), pulls))
    assert [pulls for *_, pulls in state] == [picks.count(i) for i in range(3)]
    assert _trajectory_digest(picks, state) == (
        "080be0cc389d1cc19a0a275b4f6c7ead3711b1e7dbbf74aa930d4a5a8b237159")


def test_ucb1_router_trajectory_pinned():
    means = (100.0, 108.0, 115.0)
    rewards = np.maximum(
        np.random.default_rng(13).normal(means, 40.0, (5000, 3)), 0.1).tolist()
    router = Ucb1Router([0, 1, 2], c=40.0)
    picks = []
    for row in rewards:
        pid = router.select()
        picks.append(pid)
        router.observe(pid, row[pid])
    state = []
    for pid in range(3):
        mean, n = router.arm(pid)
        state.append((pid, mean.hex(), n))
    assert _trajectory_digest(picks, state) == (
        "873f3c80ae398d8fa3408046e966a62adcc4f57001f486db081afa450e4b2659")


@pytest.mark.parametrize("k", [1, 3, 17])
def test_block_normal_draws_equal_sequential_draws(k):
    # ThompsonRouter draws a (DRAW_BLOCK, k) block where the reference draws
    # one k-vector per call; their picks are equal only while the two produce
    # the same numbers, block after block
    blocked = np.random.default_rng(2024 + k)
    sequential = np.random.default_rng(2024 + k)
    for _ in range(3):
        block = blocked.standard_normal((ThompsonRouter.DRAW_BLOCK, k))
        rows = np.array([sequential.standard_normal(k)
                         for _ in range(ThompsonRouter.DRAW_BLOCK)])
        assert np.array_equal(block, rows)
    # and the draws after the blocks stay aligned
    assert np.array_equal(blocked.standard_normal(k), sequential.standard_normal(k))
    assert blocked.standard_normal() == sequential.standard_normal()


def _router_priors(k):
    # non-contiguous ids given out of order, distinct means and precisions
    rng = np.random.default_rng(40 + k)
    ids = rng.permutation(np.arange(0, 3 * k, 3)).tolist()
    return [(pid, float(rng.uniform(90.0, 130.0)), float(rng.uniform(0.0005, 0.05)))
            for pid in ids]


def _router_rewards(k, steps, seed):
    means = np.random.default_rng(seed).uniform(100.0, 115.0, k)
    return np.maximum(
        np.random.default_rng(seed + 1).normal(means, 40.0, (steps, k)), 0.1).tolist()


@pytest.mark.parametrize("k", [1, 3, 17])
def test_thompson_router_equals_primitives(k):
    priors = _router_priors(k)
    ids = sorted(pid for pid, _, _ in priors)
    col = {pid: j for j, pid in enumerate(ids)}
    rewards = _router_rewards(k, 5000, 60 + k)

    router = ThompsonRouter(priors, np.random.default_rng(77))
    router_picks = []
    for row in rewards:
        pid = router.select()
        router_picks.append(pid)
        router.observe(pid, row[col[pid]])

    ref = ThompsonReference(priors, np.random.default_rng(77))
    picks = []
    for row in rewards:
        pid = ref.select()
        picks.append(pid)
        ref.observe(pid, row[col[pid]])

    assert router_picks == picks
    if k > 1:
        assert len(set(picks)) > 1  # the run explores, so every arm's state moves
    for pid in ids:
        assert router.arm(pid) == tuple(ref.arms[pid])


@pytest.mark.parametrize("k", [1, 3, 17])
def test_ucb1_router_equals_primitives(k):
    ids = [pid for pid, _, _ in _router_priors(k)]  # out of order
    col = {pid: j for j, pid in enumerate(sorted(ids))}
    rewards = _router_rewards(k, 5000 + k, 80 + k)
    forced, rest = rewards[:k], rewards[k:]

    router = Ucb1Router(ids, c=40.0)
    ref = Ucb1Reference(ids, c=40.0)
    # the forced round, rewarded out of id order
    for pid, row in zip(ids, forced):
        router.observe(pid, row[col[pid]])
        ref.observe(pid, row[col[pid]])
    assert router.follows_plan

    router_picks = []
    for row in rest:
        pid = router.select()
        router_picks.append(pid)
        router.observe(pid, row[col[pid]])
    picks = []
    for row in rest:
        pid = ref.select()
        picks.append(pid)
        ref.observe(pid, row[col[pid]])

    assert router_picks == picks
    if k > 1:
        assert len(set(picks)) > 1
    for pid in ids:
        assert router.arm(pid) == tuple(ref.arms[pid])


def test_ucb1_router_tie_breaks_to_lowest_id():
    router = Ucb1Router([7, 3], c=5.0)
    router.observe(7, 100.0)
    router.observe(3, 100.0)
    assert router.select() == 3


@pytest.mark.parametrize("order", [
    [2, 4, 5, 9],           # id order
    [9, 5, 4, 2],           # reversed
    [9, 9, 2, 5, 2, 4],     # out of order, with arms rewarded twice
])
def test_ucb1_router_ready_counts_rewarded_arms(order):
    ids = [5, 2, 9, 4]
    router = Ucb1Router(ids)
    assert not router.follows_plan
    last_first_reward = max(order.index(pid) for pid in ids)
    for step, pid in enumerate(order + [2, 9, 5]):
        router.observe(pid, 100.0 + step)
        unrewarded = [i for i in sorted(ids) if router.arm(i)[1] == 0]
        assert router.follows_plan == (not unrewarded)
        # false until the last arm's first reward, true from then on
        assert router.follows_plan == (step >= last_first_reward)
        # before then, the first unrewarded arm in id order
        if unrewarded:
            assert router.select() == unrewarded[0]


# --------------------------------- incremental selection against the reference
#
# Both routers score only the arm the last feedback rewarded (the hot arm)
# against a cache of the other arms: Thompson on every select, against the
# first minimum of their draws per row of the normal block; UCB1 once the hot
# arm has been rewarded twice in a row, against a lower bound on their
# indices. Drawn runs select before the first feedback, interleave feedback on
# the hot arm and on other arms, change the hot arm at every step, and select
# across DRAW_BLOCK boundaries; picks and arm state must equal the reference.

@st.composite
def bandit_runs(draw):
    return {
        "k": draw(st.sampled_from([1, 2, 3, 17])),
        "c": draw(st.sampled_from([0.0, 1.0, 2000.0])),
        # interleaved: the hot arm keeps its feedback with probability p_hot;
        # alternating: every feedback goes to another arm than the last
        "schedule": draw(st.sampled_from(["interleaved", "alternating"])),
        "p_hot": draw(st.floats(0.0, 1.0)),
        # the most selects after a feedback, and before the first one
        "selects": draw(st.integers(0, 3)),
        "steps": draw(st.integers(1, 150)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _drawn_schedule(run, ids):
    """The run as steps: (path_id, reward) for a feedback, None for a select."""
    rng = np.random.default_rng(run["seed"])
    means = rng.uniform(100.0, 130.0, len(ids))
    hot = int(rng.integers(len(ids)))
    # selects before any arm has a reward: Thompson's unmasked cache and
    # UCB1's forced round
    steps = [None] * int(rng.integers(0, run["selects"] + 1))
    for _ in range(run["steps"]):
        if run["schedule"] == "alternating" and len(ids) > 1:
            hot = (hot + int(rng.integers(1, len(ids)))) % len(ids)
        elif rng.random() >= run["p_hot"]:
            hot = int(rng.integers(len(ids)))
        steps.append((ids[hot], max(float(rng.normal(means[hot], 20.0)), 0.1)))
        steps += [None] * int(rng.integers(0, run["selects"] + 1))
    return steps


def _drive(router, ref, steps):
    for step in steps:
        if step is None:
            assert router.select() == ref.select()
        else:
            router.observe(*step)
            ref.observe(*step)
            assert router.arm(step[0]) == tuple(ref.arms[step[0]])
    for pid in ref.arms:
        assert router.arm(pid) == tuple(ref.arms[pid])


@settings(max_examples=150, deadline=None)
@given(run=bandit_runs())
@example(run={"k": 17, "c": 1.0, "schedule": "interleaved", "p_hot": 0.9, "selects": 3,
              "steps": 150, "seed": 5})
@example(run={"k": 17, "c": 1.0, "schedule": "alternating", "p_hot": 0.0, "selects": 3,
              "steps": 150, "seed": 6})
def test_thompson_router_equals_reference_on_drawn_runs(run):
    rng = np.random.default_rng(run["seed"] + 1)
    ids = rng.permutation(np.arange(0, 3 * run["k"], 3)).tolist()
    priors = [(pid, float(rng.uniform(100.0, 130.0)), float(rng.uniform(0.0005, 0.05)))
              for pid in ids]
    router = ThompsonRouter(priors, np.random.default_rng(run["seed"]))
    ref = ThompsonReference(priors, np.random.default_rng(run["seed"]))
    _drive(router, ref, _drawn_schedule(run, ids))


@settings(max_examples=150, deadline=None)
@given(run=bandit_runs())
@example(run={"k": 17, "c": 2000.0, "schedule": "interleaved", "p_hot": 0.9, "selects": 3,
              "steps": 150, "seed": 5})
def test_ucb1_router_equals_reference_on_drawn_runs(run):
    ids = np.random.default_rng(run["seed"] + 1).permutation(
        np.arange(0, 3 * run["k"], 3)).tolist()
    router = Ucb1Router(ids, c=run["c"])
    ref = Ucb1Reference(ids, c=run["c"])
    _drive(router, ref, _drawn_schedule(run, ids))


class _ZeroNormals:
    """A generator whose standard normals are all zero: every Thompson draw
    is its arm's mean."""

    def standard_normal(self, size):
        return np.zeros(size)


# runs of feedback: (arm, rewards in a row)
_runs = st.lists(st.tuples(st.integers(0, 16), st.integers(1, 4)), max_size=40)


@settings(max_examples=80, deadline=None)
@given(means=st.lists(st.sampled_from([100.0, 120.0]), min_size=1, max_size=17), runs=_runs)
def test_thompson_exact_ties_go_to_the_lowest_id(means, runs):
    # every draw ties its arm's mean: a reward equal to it leaves the mean
    # exact at dyadic precisions, so the hot arm's draw equals the others'
    # minimum whenever it shares the lowest mean, and wins only as the lower id
    k = len(means)
    priors = [(3 * i, mean, 0.25) for i, mean in enumerate(means)]
    router = ThompsonRouter(priors, _ZeroNormals())
    ref = ThompsonReference(priors, _ZeroNormals())
    want = 3 * means.index(min(means))
    assert router.select() == ref.select() == want  # before any arm has a reward
    for arm, count in runs:
        for _ in range(count):
            router.observe(3 * (arm % k), means[arm % k])
            ref.observe(3 * (arm % k), means[arm % k])
            assert router.select() == ref.select() == want
    for pid, mean, _ in priors:
        assert router.arm(pid) == tuple(ref.arms[pid])
        assert router.arm(pid)[0] == mean


@settings(max_examples=80, deadline=None)
@given(k=st.sampled_from([1, 2, 3, 17]), c=st.sampled_from([0.0, 1.0, 2000.0]), runs=_runs)
def test_ucb1_equal_means_tie_like_the_reference(k, c, runs):
    # every reward is 100 ms, so indices tie between arms with equal counts,
    # and between all arms at c = 0, where the lowest id wins
    ids = [3 * i for i in range(k)]
    router = Ucb1Router(ids, c=c)
    ref = Ucb1Reference(ids, c=c)
    for pid in ids:
        router.observe(pid, 100.0)
        ref.observe(pid, 100.0)
    for arm, count in runs:
        for _ in range(count):
            router.observe(ids[arm % k], 100.0)
            ref.observe(ids[arm % k], 100.0)
            assert router.select() == ref.select()
            if c == 0.0:
                assert router.select() == ids[0]
    for pid in ids:
        assert router.arm(pid) == tuple(ref.arms[pid])
