from __future__ import annotations

import itertools

import numpy as np
import pytest

from crisscross.params import NetworkLimits, make_r_network
from crisscross.policies import (
    BUFFER1,
    BUFFER2,
    BUFFER3,
    IDLE,
    indicator_form_audit,
    make_policy,
)

LIMITS = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 1.0), gamma=1.0)


@pytest.fixture(scope="module")
def net_l3_c9():
    """Symmetric server-1 rates with threshold_low=3, threshold_high=9."""
    net = make_r_network(LIMITS, 20.0, 1.2, 2.6)
    assert (net.threshold_low, net.threshold_high) == (3, 9)
    return net


@pytest.mark.parametrize(
    "q,expected",
    [
        ((0, 5, 2), (BUFFER2, BUFFER3)),  # safe regime, downstream not near full
        ((5, 5, 20), (BUFFER2, BUFFER3)),  # past the low line, buffer 1 not overgrown
        ((10, 5, 20), (BUFFER1, BUFFER3)),  # past the low line, buffer 1 overgrown
        ((0, 0, 0), (IDLE, IDLE)),
        ((0, 0, 7), (IDLE, BUFFER3)),
        ((4, 0, 0), (BUFFER1, IDLE)),  # empty feed: fall back to buffer 1
        ((6, 3, 7), (BUFFER2, BUFFER3)),  # safe regime, downstream one below the hold-back mark
        ((6, 3, 8), (BUFFER1, BUFFER3)),  # q3 at threshold_high - 1 holds back feeding
    ],
)
def test_threshold_decisions(net_l3_c9, q, expected):
    assert make_policy("threshold", net_l3_c9)(*q) == expected


def test_priority_rules():
    p1 = make_policy("priority1")
    p2 = make_policy("priority2")
    assert p1(2, 3, 1) == (BUFFER1, BUFFER3)
    assert p1(0, 3, 1) == (BUFFER2, BUFFER3)
    assert p2(2, 3, 0) == (BUFFER2, IDLE)
    assert p2(2, 0, 0) == (BUFFER1, IDLE)
    assert p1(0, 0, 4) == (IDLE, BUFFER3)
    with pytest.raises(ValueError):
        make_policy("priority3")


def _states(limit, step=1):
    rng = range(0, limit, step)
    return itertools.product(rng, rng, rng)


def test_server_assignments_are_work_conserving(net_l3_c9):
    for name in ("threshold", "priority1", "priority2"):
        policy = make_policy(name, net_l3_c9)
        for q in _states(12):
            server1, server2 = policy(*q)
            assert (server1 != IDLE) == (q[0] + q[1] > 0)
            assert (server2 == BUFFER3) == (q[2] > 0)
            if server1 == BUFFER1:
                assert q[0] > 0
            if server1 == BUFFER2:
                assert q[1] > 0


def test_indicator_audit_passes_on_a_grid(net_l3_c9):
    for q in _states(12):
        assert indicator_form_audit(q, net_l3_c9)


def test_policy_closure_matches_decision_rule():
    """Unequal server-1 rates make the safe line and the overgrowth level
    depend on mu2/mu1; the rule still matches its indicator form."""
    limits = NetworkLimits(lam=(0.8, 1.8), mu=(2.0, 3.0, 1.8), h=(1.2, 1.0, 0.6), gamma=1.0)
    net = make_r_network(limits, 30.0, 1.3, 2.6)
    for q in _states(25, step=2):
        assert indicator_form_audit(q, net)


def test_priority_closures_match_decision_rules(net_l3_c9):
    """priority2 is priority1 with the roles of buffers 1 and 2 swapped."""
    p1 = make_policy("priority1", net_l3_c9)
    p2 = make_policy("priority2", net_l3_c9)
    swap = {IDLE: IDLE, BUFFER1: BUFFER2, BUFFER2: BUFFER1}
    for q1, q2, q3 in _states(9):
        server1, server2 = p1(q2, q1, q3)
        assert p2(q1, q2, q3) == (swap[server1], server2)


def test_unknown_policy_name_rejected(net_l3_c9):
    with pytest.raises(ValueError):
        make_policy("lifo", net_l3_c9)


def test_threshold_closure_requires_a_network():
    with pytest.raises(ValueError):
        make_policy("threshold", None)


def test_decisions_depend_only_on_the_threshold_geometry():
    """Two nets with equal thresholds and server-1 rates act identically."""
    net_a = make_r_network(LIMITS, 20.0, 1.2, 2.6)
    shifted = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 0.5), gamma=0.3)
    net_b = make_r_network(shifted, 20.0, 1.2, 2.6)
    assert (net_a.threshold_low, net_a.threshold_high) == (net_b.threshold_low, net_b.threshold_high)
    policy_a = make_policy("threshold", net_a)
    policy_b = make_policy("threshold", net_b)
    gen = np.random.Generator(np.random.PCG64(1))
    for _ in range(200):
        q = tuple(int(x) for x in gen.integers(0, 40, size=3))
        assert policy_a(*q) == policy_b(*q)
