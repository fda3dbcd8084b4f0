"""Posterior updates and arm selection."""

import hashlib
import math

import numpy as np
import pytest

from relaysim import (
    DirectRouter,
    GaussianArmPosterior,
    ThompsonRouter,
    Ucb1Arm,
    Ucb1Router,
    ValidationError,
    ts_select,
    ts_update,
    ucb1_select,
)
from relaysim.routing import TAU0_VARIANCE_FLOOR, tau0_from_variance


def test_conjugate_update_single_observation():
    arm = GaussianArmPosterior(0, mu=0.0, tau=1.0, tau0=1.0)
    out = ts_update(arm, [10.0])
    assert out.tau == 2.0
    assert out.mu == 5.0
    assert out.pulls == 1


def test_conjugate_update_symmetric_batch():
    arm = GaussianArmPosterior(0, mu=100.0, tau=4.0, tau0=2.0)
    out = ts_update(arm, [90.0, 110.0])
    # tau' = 4 + 2*2; mu' = (4*100 + 2*200) / 8, the batch mean equals the
    # prior mean so the location is unchanged
    assert out.tau == 8.0
    assert out.mu == 100.0


def test_conjugate_update_empty_batch_is_noop():
    arm = GaussianArmPosterior(3, mu=50.0, tau=2.0, tau0=1.0, pulls=7)
    assert ts_update(arm, []) is arm


def test_conjugate_update_uses_pre_update_precision():
    # folding one by one must equal the batch fold exactly
    arm = GaussianArmPosterior(0, mu=150.0, tau=0.5, tau0=0.125)
    rewards = [140.0, 155.0, 149.5]
    batch = ts_update(arm, rewards)
    seq = arm
    for r in rewards:
        seq = ts_update(seq, [r])
    assert batch.tau == pytest.approx(seq.tau, rel=1e-12)
    assert batch.mu == pytest.approx(seq.mu, rel=1e-12)
    assert batch.pulls == seq.pulls == 3


def test_conjugate_update_precision_grows_monotonically():
    arm = GaussianArmPosterior(0, mu=100.0, tau=1.0, tau0=0.04)
    rng = np.random.default_rng(0)
    for _ in range(50):
        prev = arm.tau
        arm = ts_update(arm, [float(rng.uniform(50, 200))])
        assert arm.tau == prev + arm.tau0


@pytest.mark.parametrize("bad", [0.0, -5.0, float("inf"), float("nan")])
def test_conjugate_update_rejects_bad_rewards(bad):
    arm = GaussianArmPosterior(0, mu=100.0, tau=1.0, tau0=1.0)
    with pytest.raises(ValidationError):
        ts_update(arm, [100.0, bad])


def test_posterior_validation():
    with pytest.raises(ValidationError):
        GaussianArmPosterior(0, mu=0.0, tau=0.0, tau0=1.0)
    with pytest.raises(ValidationError):
        GaussianArmPosterior(0, mu=0.0, tau=1.0, tau0=-1.0)


def test_posterior_concentrates_on_true_mean():
    true_mean = 150.0
    rng = np.random.default_rng(5)
    arm = GaussianArmPosterior(0, mu=300.0, tau=0.01, tau0=0.01)  # wrong prior
    arm = ts_update(arm, list(rng.normal(true_mean, 10.0, size=5000)))
    assert arm.mu == pytest.approx(true_mean, abs=1.0)
    assert arm.tau == pytest.approx(0.01 + 5000 * 0.01)


def test_tau0_variance_floor():
    assert tau0_from_variance(4.0) == 0.25
    assert tau0_from_variance(0.0) == 1.0 / TAU0_VARIANCE_FLOOR
    assert tau0_from_variance(1e-9) == 1.0 / TAU0_VARIANCE_FLOOR


def test_select_single_arm():
    arm = GaussianArmPosterior(4, mu=100.0, tau=1.0, tau0=1.0)
    rng = np.random.default_rng(0)
    assert ts_select([arm], rng) == 4


def test_select_prefers_clearly_lower_mean():
    # posterior-predictive stds ~1.0 vs a 900 ms gap: picking the slow arm is
    # a >600-sigma event
    fast = GaussianArmPosterior(1, mu=100.0, tau=2.0, tau0=2.0)
    slow = GaussianArmPosterior(2, mu=1000.0, tau=2.0, tau0=2.0)
    rng = np.random.default_rng(123)
    picks = [ts_select([fast, slow], rng) for _ in range(1000)]
    assert picks.count(1) == 1000


def test_select_symmetric_arms_split_evenly():
    a = GaussianArmPosterior(0, mu=100.0, tau=1.0, tau0=1.0)
    b = GaussianArmPosterior(1, mu=100.0, tau=1.0, tau0=1.0)
    rng = np.random.default_rng(7)
    picks = [ts_select([a, b], rng) for _ in range(10_000)]
    share = picks.count(0) / len(picks)
    assert 0.47 <= share <= 0.53


def test_select_invariant_under_common_shift():
    # identical rng state, every mean moved by the same constant: the sampled
    # ordering cannot change
    arms = [GaussianArmPosterior(i, mu=float(m), tau=1.0, tau0=0.5)
            for i, m in enumerate((120.0, 80.0, 150.0, 95.0))]
    arms = sorted(arms, key=lambda a: a.path_id)
    shifted = [GaussianArmPosterior(a.path_id, a.mu + 1e4, a.tau, a.tau0) for a in arms]
    for seed in range(50):
        r1 = np.random.default_rng(seed)
        r2 = np.random.default_rng(seed)
        assert ts_select(arms, r1) == ts_select(shifted, r2)


def test_select_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        ts_select([], rng)
    a = GaussianArmPosterior(2, mu=1.0, tau=1.0, tau0=1.0)
    b = GaussianArmPosterior(1, mu=1.0, tau=1.0, tau0=1.0)
    with pytest.raises(ValidationError):
        ts_select([a, b], rng)


def test_ucb1_init_round_in_id_order():
    arms = [Ucb1Arm(0), Ucb1Arm(1), Ucb1Arm(2)]
    assert ucb1_select(arms) == 0
    arms[0].observe(100.0)
    assert ucb1_select(arms) == 1
    arms[1].observe(100.0)
    assert ucb1_select(arms) == 2


def test_ucb1_exploration_bonus_flips_to_undersampled_arm():
    a = Ucb1Arm(1, mean=100.0, n=10_000)
    b = Ucb1Arm(2, mean=105.0, n=1)
    c = 100.0
    assert ucb1_select([a, b], c=c) == 2
    # the indices behind that choice
    total = math.log(10_001)
    idx_a = 100.0 - c * math.sqrt(2.0 * total / 10_000)
    idx_b = 105.0 - c * math.sqrt(2.0 * total)
    assert idx_b < idx_a
    # with no exploration the better mean wins
    assert ucb1_select([a, b], c=0.0) == 1


def test_ucb1_tie_breaks_to_lowest_id():
    a = Ucb1Arm(3, mean=100.0, n=50)
    b = Ucb1Arm(7, mean=100.0, n=50)
    assert ucb1_select([a, b], c=5.0) == 3


def test_ucb1_observe_running_mean():
    arm = Ucb1Arm(0)
    for r in (10.0, 20.0, 30.0):
        arm.observe(r)
    assert arm.n == 3
    assert arm.mean == pytest.approx(20.0)
    with pytest.raises(ValidationError):
        arm.observe(-1.0)


def test_ucb1_select_validation():
    with pytest.raises(ValidationError):
        ucb1_select([])
    with pytest.raises(ValidationError):
        ucb1_select([Ucb1Arm(2), Ucb1Arm(1)])


def test_direct_router_is_inert():
    r = DirectRouter()
    assert r.path_for(0, 3) == 3 and r.needs_feedback is None


def test_thompson_router_state():
    rng = np.random.default_rng(0)
    router = ThompsonRouter([(0, 100.0, 0.01), (2, 150.0, 0.01)], rng)
    assert router.ready() and router.path_for(0, 2) == 2
    assert router.needs_feedback == "e2e"
    router.observe(2, 140.0)
    assert router.arm(2).pulls == 1
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
    assert router.arm(0).pulls == 0


def test_ucb1_router_state():
    router = Ucb1Router([4, 1, 2], c=10.0)
    # forced round: each arm once in path_id order, whatever the active path
    assert [router.path_for(seq, 9) for seq in range(3)] == [1, 2, 4]
    assert not router.ready()
    assert router.needs_feedback == "transmit"
    # no reward yet: cycle the unrewarded arms, indexed by seq
    assert [router.path_for(seq, 9) for seq in range(3, 6)] == [1, 2, 4]
    router.observe(2, 102.0)
    assert [router.path_for(seq, 9) for seq in range(6, 9)] == [1, 4, 1]
    for pid in (1, 4):
        router.observe(pid, 100.0 + pid)
    assert router.ready() and router.path_for(9, 9) == 9
    assert router.select() in (1, 2, 4)
    with pytest.raises(ValidationError):
        Ucb1Router([])
    with pytest.raises(ValidationError):
        Ucb1Router([1], c=-1.0)
    with pytest.raises(ValidationError):
        Ucb1Router([1, 2, 1])
    with pytest.raises(ValidationError):
        router.observe(1, float("nan"))
    assert router.arm(1).n == 1


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


def test_ts_trajectory_pinned():
    # the exact pick sequence, final posteriors and generator position of a
    # seeded run: any rewrite of ts_select/ts_update must reproduce all three
    means = (100.0, 108.0, 115.0)
    sel = np.random.default_rng(11)
    rewards = np.maximum(
        np.random.default_rng(12).normal(means, 40.0, (5000, 3)), 0.1).tolist()
    arms = [GaussianArmPosterior(0, mu=150.0, tau=0.01, tau0=0.01),
            GaussianArmPosterior(1, mu=120.0, tau=0.02, tau0=0.005),
            GaussianArmPosterior(2, mu=110.0, tau=0.01, tau0=0.0004)]
    picks = []
    for row in rewards:
        pid = ts_select(arms, sel)
        picks.append(pid)
        arms[pid] = ts_update(arms[pid], [row[pid]])
    state = [(a.path_id, a.mu.hex(), a.tau.hex(), a.pulls) for a in arms]
    state.append(sel.standard_normal().hex())  # one draw per select, no more
    assert [a.pulls for a in arms] == [picks.count(i) for i in range(3)]
    assert _trajectory_digest(picks, state) == (
        "7df151cd73cca797e8160e3799913f64c0b008dfc45db6c565355fd7767b299c")


def test_ucb1_trajectory_pinned():
    means = (100.0, 108.0, 115.0)
    rewards = np.maximum(
        np.random.default_rng(13).normal(means, 40.0, (5000, 3)), 0.1).tolist()
    arms = [Ucb1Arm(i) for i in range(3)]
    picks = []
    for row in rewards:
        pid = ucb1_select(arms, 40.0)
        picks.append(pid)
        arms[pid].observe(row[pid])
    state = [(a.path_id, a.mean.hex(), a.n) for a in arms]
    assert _trajectory_digest(picks, state) == (
        "873f3c80ae398d8fa3408046e966a62adcc4f57001f486db081afa450e4b2659")


@pytest.mark.parametrize("k", [1, 3, 17])
def test_block_normal_draws_equal_sequential_draws(k):
    # ThompsonRouter draws a (DRAW_BLOCK, k) block where ts_select draws one
    # k-vector per call; its picks equal the primitive's only while the two
    # produce the same numbers, block after block
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

    arms = {pid: GaussianArmPosterior(pid, mu=mu0, tau=tau0, tau0=tau0)
            for pid, mu0, tau0 in priors}
    sel = np.random.default_rng(77)
    picks = []
    for row in rewards:
        pid = ts_select([arms[i] for i in ids], sel)
        picks.append(pid)
        arms[pid] = ts_update(arms[pid], [row[col[pid]]])

    assert router_picks == picks
    if k > 1:
        assert len(set(picks)) > 1  # the run explores, so every arm's state moves
    for pid in ids:
        got, want = router.arm(pid), arms[pid]
        assert (got.path_id, got.mu.hex(), got.tau.hex(), got.tau0.hex(), got.pulls) == (
            want.path_id, want.mu.hex(), want.tau.hex(), want.tau0.hex(), want.pulls)


@pytest.mark.parametrize("k", [1, 3, 17])
def test_ucb1_router_equals_primitives(k):
    ids = [pid for pid, _, _ in _router_priors(k)]  # out of order
    col = {pid: j for j, pid in enumerate(sorted(ids))}
    rewards = _router_rewards(k, 5000 + k, 80 + k)
    forced, rest = rewards[:k], rewards[k:]

    router = Ucb1Router(ids, c=40.0)
    arms = {pid: Ucb1Arm(pid) for pid in sorted(ids)}
    # the forced round, rewarded out of id order
    for pid, row in zip(ids, forced):
        router.observe(pid, row[col[pid]])
        arms[pid].observe(row[col[pid]])
    assert router.ready()

    router_picks = []
    for row in rest:
        pid = router.select()
        router_picks.append(pid)
        router.observe(pid, row[col[pid]])
    picks = []
    for row in rest:
        pid = ucb1_select([arms[i] for i in sorted(ids)], 40.0)
        picks.append(pid)
        arms[pid].observe(row[col[pid]])

    assert router_picks == picks
    if k > 1:
        assert len(set(picks)) > 1
    for pid in ids:
        got, want = router.arm(pid), arms[pid]
        assert (got.path_id, got.mean.hex(), got.n) == (want.path_id, want.mean.hex(), want.n)


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
    assert not router.ready()
    last_first_reward = max(order.index(pid) for pid in ids)
    for step, pid in enumerate(order + [2, 9, 5]):
        router.observe(pid, 100.0 + step)
        assert router.ready() == all(router.arm(i).n > 0 for i in ids)
        # false until the last arm's first reward, true from then on
        assert router.ready() == (step >= last_first_reward)
        # before then, the first unrewarded arm in id order
        assert router.select() == ucb1_select([router.arm(i) for i in sorted(ids)])
