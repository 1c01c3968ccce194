"""Server decision rules.

Server 2 never idles while its buffer is nonempty, under every rule here.
Server 1 either follows a static priority or the two-level threshold rule:
keep the downstream buffer fed (serve buffer 2) while it is far from being
overfull, park effort on buffer 1 once the downstream stock is comfortable,
and fall back to buffer 1 whenever buffer 2 is empty.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .params import RNetwork

__all__ = [
    "IDLE",
    "BUFFER1",
    "BUFFER2",
    "BUFFER3",
    "indicator_form_audit",
    "PolicyAuditError",
    "make_policy",
    "POLICY_NAMES",
]

IDLE = 0
BUFFER1 = 1
BUFFER2 = 2
BUFFER3 = 3


class PolicyAuditError(AssertionError):
    """Raised when the indicator form and the decision rule disagree on a state."""


def indicator_form_audit(q: tuple[int, int, int], net: RNetwork) -> bool:
    """Re-derive the threshold action from raw indicator products and compare.

    The rule can be written as indicator algebra over four events (safe
    regime, downstream-near-full-or-empty-feed, buffer-1-overgrown-or-empty-
    feed, any-work-for-server-1). This audit evaluates those products
    directly and checks they reproduce server 1's activity under
    _server1("threshold", net, ...) on that one state, that at most one
    buffer receives server 1, and that no empty buffer is ever served.
    """
    q1, q2, q3 = q
    mu1, mu2 = net.mu[0], net.mu[1]
    safe = q3 - (mu2 / mu1) * q1 < net.threshold_low
    hold_back = q3 >= net.threshold_high - 1 or q2 == 0
    overgrown = q1 >= (mu1 / mu2) * (net.threshold_high - net.threshold_low + 2) or q2 == 0
    has_work = (q1 + q2) != 0
    serve1 = ((safe and hold_back) or (not safe and overgrown)) and has_work
    serve2 = ((safe and not hold_back) or (not safe and not overgrown)) and has_work

    if serve1 and serve2:
        raise PolicyAuditError(f"state {q}: both buffers selected for server 1")
    if (serve1 or serve2) != has_work:
        raise PolicyAuditError(f"state {q}: server 1 idles with work present")
    if serve1 and q1 == 0:
        raise PolicyAuditError(f"state {q}: buffer 1 selected while empty")
    if serve2 and q2 == 0:
        raise PolicyAuditError(f"state {q}: buffer 2 selected while empty")

    action = int(_server1("threshold", net, np.array([q]))[0])
    expected = BUFFER1 if serve1 else (BUFFER2 if serve2 else IDLE)
    if action != expected:
        raise PolicyAuditError(f"state {q}: indicator form gives {expected}, decision rule gives {action}")
    return True


# Server 1's buffer order under each static priority: the preferred buffer,
# then the one it falls back to when the preferred one is empty.
_PRIORITY_ORDER = {"priority1": (BUFFER1, BUFFER2), "priority2": (BUFFER2, BUFFER1)}

POLICY_NAMES = ("threshold", *_PRIORITY_ORDER)


def _require_policy(name: str, net: RNetwork | None) -> None:
    """Refuse anything but a policy name, and "threshold" without a net."""
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    if name == "threshold" and net is None:
        raise ValueError("threshold policy needs an RNetwork")


def _server1(name: str, net: RNetwork | None, q: np.ndarray) -> np.ndarray:
    """Server 1's activity under the named policy in each state of q, an
    (n, 3) integer array of queues: n int8 buffer codes. This is each
    rule's one definition on states; simulate._chain_step runs the same
    rules step by step. Server 1 idles only when buffers 1 and 2 are both
    empty. Otherwise:

    - "priority1" / "priority2": static priority to buffer 1 / buffer 2,
      falling back to the other buffer when the preferred one is empty.
    - "threshold" (needs net): with ratio = mu2^r/mu1^r the state is "safe"
      when q3 - ratio*q1 < threshold_low, i.e. the downstream buffer can be
      replenished quickly out of buffer 1's backlog. In the safe regime
      server 1 drains buffer 2 unless the downstream stock is already near
      the high mark (q3 >= threshold_high - 1) or there is nothing to drain.
      Outside it, buffer 2 is drained unless buffer 1 has grown past
      (mu1^r/mu2^r)(threshold_high - threshold_low + 2) or there is
      nothing to drain. RNetwork.levels holds these levels.

    indicator_form_audit re-derives the threshold rule independently.
    """
    _require_policy(name, net)
    q1, q2, q3 = q[:, 0], q[:, 1], q[:, 2]
    if name == "threshold":
        ratio, low, near_full, overgrow = net.levels
        feed = (q2 > 0) & np.where(q3 - ratio * q1 < low, q3 < near_full, q1 < overgrow)
        busy = np.where(feed, BUFFER2, BUFFER1)
    else:
        first, second = _PRIORITY_ORDER[name]
        busy = np.where(q[:, first - 1] > 0, first, second)  # buffer b is column b - 1
    return np.where(q1 + q2 > 0, busy, IDLE).astype(np.int8)


def make_policy(name: str, net: RNetwork | None = None) -> Callable[[int, int, int], tuple[int, int]]:
    """The named policy on one state, (q1, q2, q3) -> (server1, server2) of
    buffer indices (0 = idle): _server1 on that one row, one numpy pass
    per call, and buffer 3 for server 2 whenever it is nonempty. A bad
    name, or "threshold" without net, gets ValueError here."""
    _require_policy(name, net)

    def policy(q1: int, q2: int, q3: int) -> tuple[int, int]:
        return (int(_server1(name, net, np.array([(q1, q2, q3)]))[0]), BUFFER3 if q3 > 0 else IDLE)

    return policy
