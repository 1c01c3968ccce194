"""Server decision rules.

Server 2 never idles while its buffer is nonempty, under every rule here.
Server 1 either follows a static priority or the two-level threshold rule:
keep the downstream buffer fed (serve buffer 2) while it is far from being
overfull, park effort on buffer 1 once the downstream stock is comfortable,
and fall back to buffer 1 whenever buffer 2 is empty.
"""
from __future__ import annotations

from typing import Callable

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
    directly and checks they reproduce make_policy("threshold", net), that
    at most one buffer receives server 1, and that no empty buffer is ever
    served.
    """
    q1, q2, q3 = q
    mu1, mu2 = net.mu[0], net.mu[1]
    safe = q3 - (mu2 / mu1) * q1 < net.threshold_low
    hold_back = q3 >= net.threshold_high - 1 or q2 == 0
    overgrown = q1 >= (mu1 / mu2) * (net.threshold_high - net.threshold_low + 2) or q2 == 0
    has_work = (q1 + q2) != 0
    serve1 = ((safe and hold_back) or (not safe and overgrown)) and has_work
    serve2 = ((safe and not hold_back) or (not safe and not overgrown)) and has_work
    serve3 = q3 > 0

    if serve1 and serve2:
        raise PolicyAuditError(f"state {q}: both buffers selected for server 1")
    if (serve1 or serve2) != has_work:
        raise PolicyAuditError(f"state {q}: server 1 idles with work present")
    if serve1 and q1 == 0:
        raise PolicyAuditError(f"state {q}: buffer 1 selected while empty")
    if serve2 and q2 == 0:
        raise PolicyAuditError(f"state {q}: buffer 2 selected while empty")

    action = make_policy("threshold", net)(q1, q2, q3)
    expected = (BUFFER1 if serve1 else (BUFFER2 if serve2 else IDLE), BUFFER3 if serve3 else IDLE)
    if action != expected:
        raise PolicyAuditError(f"state {q}: indicator form gives {expected}, decision rule gives {action}")
    return True


PolicyFn = Callable[[int, int, int], "tuple[int, int]"]

POLICY_NAMES = ("threshold", "priority1", "priority2")


def make_policy(name: str, net: RNetwork | None = None) -> PolicyFn:
    """Compile a named policy to a per-event closure (q1, q2, q3) ->
    (server1, server2) of buffer indices (0 = idle).

    Server 2 serves buffer 3 whenever it is nonempty. For server 1:

    - "priority1" / "priority2": static priority to buffer 1 / buffer 2,
      falling back to the other buffer when the preferred one is empty.
    - "threshold" (needs net): with ratio = mu2^r/mu1^r the state is "safe"
      when q3 - ratio*q1 < threshold_low, i.e. the downstream buffer can be
      replenished quickly out of buffer 1's backlog. In the safe regime
      server 1 drains buffer 2 unless the downstream stock is already near
      the high mark (q3 >= threshold_high - 1) or there is nothing to drain.
      Outside it, buffer 2 is drained unless buffer 1 has grown past
      (mu1^r/mu2^r)(threshold_high - threshold_low + 2). Server 1 idles
      only when buffers 1 and 2 are both empty.

    indicator_form_audit re-derives the threshold rule independently.
    """
    if name == "threshold":
        if net is None:
            raise ValueError("threshold policy needs an RNetwork")
        ratio = net.mu[1] / net.mu[0]
        near_full = net.threshold_high - 1
        overgrow_level = (net.mu[0] / net.mu[1]) * (net.threshold_high - net.threshold_low + 2)
        low = net.threshold_low

        def threshold_policy(q1: int, q2: int, q3: int) -> tuple[int, int]:
            server2 = BUFFER3 if q3 > 0 else IDLE
            if q1 + q2 == 0:
                return (IDLE, server2)
            if q3 - ratio * q1 < low:
                serve_first = q3 >= near_full or q2 == 0
            else:
                serve_first = q1 >= overgrow_level or q2 == 0
            return (BUFFER1 if serve_first else BUFFER2, server2)

        return threshold_policy

    if name in ("priority1", "priority2"):
        prefer_first = name == "priority1"

        def priority_policy(q1: int, q2: int, q3: int) -> tuple[int, int]:
            server2 = BUFFER3 if q3 > 0 else IDLE
            if prefer_first:
                if q1 > 0:
                    return (BUFFER1, server2)
                if q2 > 0:
                    return (BUFFER2, server2)
            else:
                if q2 > 0:
                    return (BUFFER2, server2)
                if q1 > 0:
                    return (BUFFER1, server2)
            return (IDLE, server2)

        return priority_policy

    raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
