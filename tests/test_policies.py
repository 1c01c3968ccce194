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
    _server1,
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
    assert _server1("threshold", net_l3_c9, np.array([q])).tolist() == [expected[0]]
    assert make_policy("threshold", net_l3_c9)(*q) == expected


def test_priority_rules():
    states = np.array([(2, 3, 1), (0, 3, 1), (2, 3, 0), (2, 0, 0), (0, 0, 4)])
    assert _server1("priority1", None, states).tolist() == [BUFFER1, BUFFER2, BUFFER1, BUFFER1, IDLE]
    assert _server1("priority2", None, states).tolist() == [BUFFER2, BUFFER2, BUFFER2, BUFFER1, IDLE]
    p1 = make_policy("priority1")
    p2 = make_policy("priority2")
    assert p1(2, 3, 1) == (BUFFER1, BUFFER3)
    assert p1(0, 3, 1) == (BUFFER2, BUFFER3)
    assert p2(2, 3, 0) == (BUFFER2, IDLE)
    assert p2(2, 0, 0) == (BUFFER1, IDLE)
    assert p1(0, 0, 4) == (IDLE, BUFFER3)
    with pytest.raises(ValueError):
        make_policy("priority3")
    with pytest.raises(ValueError):
        _server1("priority3", None, states)


def _states(limit, step=1):
    rng = range(0, limit, step)
    return itertools.product(rng, rng, rng)


def _grid(limit, step=1):
    """The states of _states as an (n, 3) array."""
    return np.array(list(_states(limit, step)), dtype=np.int64)


def test_server_assignments_are_work_conserving(net_l3_c9):
    q = _grid(12)
    for name in ("threshold", "priority1", "priority2"):
        server1 = _server1(name, net_l3_c9, q)
        assert np.array_equal(server1 != IDLE, q[:, 0] + q[:, 1] > 0)
        assert np.all(q[server1 == BUFFER1, 0] > 0)
        assert np.all(q[server1 == BUFFER2, 1] > 0)
        policy = make_policy(name, net_l3_c9)
        for state, code in zip(q.tolist(), server1.tolist()):
            assert policy(*state) == (code, BUFFER3 if state[2] > 0 else IDLE)


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
    q = _grid(9)
    swap = np.array([IDLE, BUFFER2, BUFFER1])
    swapped = _server1("priority1", net_l3_c9, q[:, [1, 0, 2]])
    assert np.array_equal(_server1("priority2", net_l3_c9, q), swap[swapped])


def test_unknown_policy_name_rejected(net_l3_c9):
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("lifo", net_l3_c9)
    with pytest.raises(ValueError, match="unknown policy"):
        _server1("lifo", net_l3_c9, _grid(2))


def test_threshold_closure_requires_a_network():
    with pytest.raises(ValueError, match="needs an RNetwork"):
        make_policy("threshold", None)
    with pytest.raises(ValueError, match="needs an RNetwork"):
        _server1("threshold", None, _grid(2))


def test_decisions_depend_only_on_the_threshold_geometry():
    """Two nets with equal thresholds and server-1 rates act identically."""
    net_a = make_r_network(LIMITS, 20.0, 1.2, 2.6)
    shifted = NetworkLimits(lam=(1.0, 1.0), mu=(2.0, 2.0, 1.0), h=(1.0, 1.0, 0.5), gamma=0.3)
    net_b = make_r_network(shifted, 20.0, 1.2, 2.6)
    assert (net_a.threshold_low, net_a.threshold_high) == (net_b.threshold_low, net_b.threshold_high)
    q = np.random.Generator(np.random.PCG64(1)).integers(0, 40, size=(200, 3))
    assert np.array_equal(_server1("threshold", net_a, q), _server1("threshold", net_b, q))
