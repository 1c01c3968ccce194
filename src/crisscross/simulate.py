"""Event-driven simulation of the crisscross network.

The network is a continuous-time Markov chain: two Poisson arrival streams,
exponential services, and a policy consulted at every event epoch. Service
preemption is resume-type, realized by resampling the remaining service
time whenever a server's assignment changes (exact by memorylessness).
Five independent random substreams (arrivals 1 and 2, services 1-3) are
derived from one seed so that runs are reproducible and arrival streams can
be shared across policies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .params import RNetwork
from .policies import BUFFER1, BUFFER2, BUFFER3, IDLE, PolicyFn, make_policy
from .workload import WorkloadMatrix

__all__ = [
    "Trajectory",
    "ScaledTrajectory",
    "ConservationReport",
    "simulate",
    "fluid_scale",
    "diffusion_scale",
    "check_conservation",
    "write_scaled_csv",
]

SeedLike = Union[int, np.random.SeedSequence]


# The five queue moves an event can make, in counting-process order:
# arrival 1, arrival 2, service at buffer 1, 2 (routed to 3) and 3.
_MOVES = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 1], [0, 0, -1]], dtype=np.int64)


@dataclass
class Trajectory:
    """Piecewise-constant record of a single run.

    Row k describes the state on [epochs[k], epochs[k+1]); the last row sits
    at the horizon. The record stores only what the simulator decides: the
    epochs, the queues (exact integers) and the activity in force. The
    counting processes, busy times and idleness follow from these and are
    derived on first access:

    - counts (n, 5): cumulative arrivals 1-2 and services 1-3, one per row
      whose queue move is the matching event (any other move counts for
      nothing, so a corrupted row breaks the flow identities);
    - alloc (n, 3): cumulative busy time at buffers 1-3, the elapsed time
      under the activity in force;
    - idle (n, 2): elapsed time minus busy time, per server.
    """

    r: float
    horizon: float
    epochs: np.ndarray      # (n,) float
    queues: np.ndarray      # (n, 3) int64
    activity: np.ndarray    # (n, 2) int8

    def __len__(self) -> int:
        return self.epochs.shape[0]

    @cached_property
    def counts(self) -> np.ndarray:
        moves = np.diff(self.queues, axis=0)
        events = np.ones((len(moves), 5), dtype=bool)
        for j in range(3):
            events &= moves[:, j, None] == _MOVES[:, j]
        counts = np.zeros((len(self), 5), dtype=np.int64)
        np.cumsum(events, axis=0, out=counts[1:])
        return counts

    @cached_property
    def alloc(self) -> np.ndarray:
        # Sequential accumulation, so each column is the running sum of its
        # busy intervals exactly as an event loop would add them.
        act = self.activity[:-1]
        busy = np.stack([act[:, 0] == BUFFER1, act[:, 0] == BUFFER2, act[:, 1] == BUFFER3], axis=1)
        alloc = np.zeros((len(self), 3))
        np.add.accumulate(np.where(busy, np.diff(self.epochs)[:, None], 0.0), axis=0, out=alloc[1:])
        return alloc

    @cached_property
    def idle(self) -> np.ndarray:
        ep, al = self.epochs, self.alloc
        return np.stack([ep - al[:, 0] - al[:, 1], ep - al[:, 2]], axis=1)


def _exp_source(gen: np.random.Generator, rate: float, chunk: int = 8192):
    """Buffered sampler of Exp(rate) variates; strictly positive by construction."""
    scale = 1.0 / rate
    buf: list[float] = []

    def draw() -> float:
        if not buf:
            vals = gen.exponential(scale, chunk)
            vals = vals[vals > 0.0]  # zero has probability ~2^-64; dropping keeps the law
            rev = vals.tolist()
            rev.reverse()
            buf.extend(rev)
        return buf.pop()

    return draw


def simulate(
    net: RNetwork,
    policy: str | PolicyFn,
    horizon: float,
    seed: SeedLike,
) -> Trajectory:
    """Run the network from the empty state over [0, horizon] (unscaled time).

    policy is a registered name or a callable (q1, q2, q3) -> (server1,
    server2) returning buffer indices (0 = idle); it is consulted once per
    recorded row, so it must be a function of the queues alone. The same
    (net, policy, horizon, seed) always reproduces the identical trajectory.
    """
    if not (horizon >= 0.0) or not math.isfinite(horizon):
        raise ValueError(f"horizon = {horizon!r} must be finite and >= 0")
    policy_fn = make_policy(policy, net) if isinstance(policy, str) else policy

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    gens = [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(5)]
    draw_a1 = _exp_source(gens[0], net.lam[0])
    draw_a2 = _exp_source(gens[1], net.lam[1])
    draw_s1 = _exp_source(gens[2], net.mu[0])
    draw_s2 = _exp_source(gens[3], net.mu[1])
    draw_s3 = _exp_source(gens[4], net.mu[2])

    inf = math.inf
    t = 0.0
    q1 = q2 = q3 = 0

    svc1_buf = IDLE          # buffer server 1's pending completion belongs to
    svc1_due = inf
    svc2_due = inf
    next_a1 = draw_a1()
    next_a2 = draw_a2()

    col_t = []
    col_q1, col_q2, col_q3 = [], [], []
    col_act1, col_act2 = [], []

    while True:
        # One row for the initial state, one per event, and a terminal row at
        # the horizon unless the last event fell exactly on it.
        act1, act2 = policy_fn(q1, q2, q3)
        col_t.append(t)
        col_q1.append(q1)
        col_q2.append(q2)
        col_q3.append(q3)
        col_act1.append(act1)
        col_act2.append(act2)
        if t >= horizon:
            break

        # Reconcile service clocks with the in-force action. A changed
        # assignment discards the pending completion and resamples (resume-
        # type preemption); an unchanged one keeps its clock.
        if act1 != svc1_buf:
            svc1_buf = act1
            if act1 == BUFFER1:
                svc1_due = t + draw_s1()
            elif act1 == BUFFER2:
                svc1_due = t + draw_s2()
            else:
                svc1_due = inf
        if act2 == BUFFER3:
            if svc2_due == inf:
                svc2_due = t + draw_s3()
        else:
            svc2_due = inf

        t_next = next_a1
        if next_a2 < t_next:
            t_next = next_a2
        if svc1_due < t_next:
            t_next = svc1_due
        if svc2_due < t_next:
            t_next = svc2_due
        if t_next > horizon:
            # No event before the horizon: the terminal row moves no queue,
            # since every clock below lies past it.
            t_next = horizon
        t = t_next

        # Fixed order breaks exact float ties: arrivals, then server 1, then 2.
        if t_next == next_a1:
            q1 += 1
            next_a1 = t + draw_a1()
        elif t_next == next_a2:
            q2 += 1
            next_a2 = t + draw_a2()
        elif t_next == svc1_due:
            if svc1_buf == BUFFER1:
                q1 -= 1
            else:
                q2 -= 1
                q3 += 1
            svc1_due = inf
            svc1_buf = IDLE  # completion consumed; next assignment resamples
        elif t_next == svc2_due:
            q3 -= 1
            svc2_due = inf

    queues = np.stack(
        [np.asarray(col_q1, dtype=np.int64), np.asarray(col_q2, dtype=np.int64), np.asarray(col_q3, dtype=np.int64)],
        axis=1,
    )
    activity = np.stack(
        [np.asarray(col_act1, dtype=np.int8), np.asarray(col_act2, dtype=np.int8)],
        axis=1,
    )
    return Trajectory(
        r=net.r,
        horizon=float(horizon),
        epochs=np.asarray(col_t, dtype=np.float64),
        queues=queues,
        activity=activity,
    )


@dataclass(frozen=True)
class ConservationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    @property
    def first(self) -> str | None:
        return self.violations[0] if self.violations else None


def check_conservation(traj: Trajectory, atol: float = 1e-9) -> ConservationReport:
    """Audit a trajectory against the flow and clock identities.

    Integer identities (queues = arrivals - services, routed flow) must hold
    exactly; clock identities (allocation + idleness = elapsed time per
    server, 1-Lipschitz allocations, nondecreasing idleness) to atol. Also
    enforces that recorded busy time accrues only under the recorded
    activity and that server 2 idles exactly when its buffer is empty.
    """
    v: list[str] = []
    ep, q, cnt, al, idl, act = (
        traj.epochs, traj.queues, traj.counts, traj.alloc, traj.idle, traj.activity,
    )

    def bad(mask: np.ndarray, msg: str) -> None:
        idx = np.flatnonzero(mask)
        if idx.size:
            k = int(idx[0])
            v.append(f"{msg} (first at epoch index {k}, t = {ep[min(k + 1, len(ep) - 1)]!r})")

    if ep[0] != 0.0:
        v.append("first epoch must be 0")
    bad(np.diff(ep) <= 0.0, "epochs not strictly increasing")

    bad((q[:, 0] != cnt[:, 0] - cnt[:, 2]), "flow: q1 != arrivals1 - services1")
    bad((q[:, 1] != cnt[:, 1] - cnt[:, 3]), "flow: q2 != arrivals2 - services2")
    bad((q[:, 2] != cnt[:, 3] - cnt[:, 4]), "flow: q3 != services2 - services3")
    bad((q < 0).any(axis=1), "negative queue length")
    bad(np.diff(cnt, axis=0).min(axis=1) < 0, "event counters decreased")
    # Counts follow from the queue moves, so a row whose move was cancelled
    # keeps the flow identities; only the terminal row may record no event.
    bad(np.diff(cnt, axis=0)[:-1].sum(axis=1) != 1, "non-terminal row does not record exactly one event")

    d_ep = np.diff(ep)
    d_al = np.diff(al, axis=0)
    bad((d_al < -atol).any(axis=1), "allocation decreased")
    bad(d_al[:, 0] + d_al[:, 1] > d_ep + atol, "server-1 allocations exceed elapsed time")
    bad(d_al[:, 2] > d_ep + atol, "server-2 allocation exceeds elapsed time")

    # Busy time accrues exactly under the recorded activity.
    on1 = (act[:-1, 0] == BUFFER1).astype(float)
    on2 = (act[:-1, 0] == BUFFER2).astype(float)
    on3 = (act[:-1, 1] == BUFFER3).astype(float)
    bad(np.abs(d_al[:, 0] - on1 * d_ep) > atol, "buffer-1 busy time disagrees with activity")
    bad(np.abs(d_al[:, 1] - on2 * d_ep) > atol, "buffer-2 busy time disagrees with activity")
    bad(np.abs(d_al[:, 2] - on3 * d_ep) > atol, "buffer-3 busy time disagrees with activity")

    bad(np.abs(idl[:, 0] - (ep - al[:, 0] - al[:, 1])) > atol, "server-1 idleness != t - busy time")
    bad(np.abs(idl[:, 1] - (ep - al[:, 2])) > atol, "server-2 idleness != t - busy time")
    bad((idl < -atol).any(axis=1), "negative idleness")
    bad((np.diff(idl, axis=0) < -atol).any(axis=1), "idleness decreased")

    bad((act[:, 1] == BUFFER3) != (q[:, 2] > 0), "server 2 must serve exactly when its buffer is nonempty")
    valid1 = np.isin(act[:, 0], (IDLE, BUFFER1, BUFFER2))
    bad(~valid1, "server-1 activity out of range")
    bad((act[:, 0] == BUFFER1) & (q[:, 0] == 0), "server 1 assigned to empty buffer 1")
    bad((act[:, 0] == BUFFER2) & (q[:, 1] == 0), "server 1 assigned to empty buffer 2")

    return ConservationReport(not v, tuple(v))


SCALES = ("raw", "fluid", "diffusion")


@dataclass(frozen=True)
class ScaledTrajectory:
    """A trajectory seen at one scale; every column is derived on first access.

    raw: the unscaled record. fluid: time t -> t/r^2, amplitudes (queues,
    idleness, workload) divided by r^2. diffusion: time t -> t/r^2;
    amplitudes divided by r. Allocations are times and scale with time.
    workload is the clearing-time vector of the scaled queues (None in the
    raw view); netput, in the diffusion view only, is the centered free
    process whose reflection reproduces the queues.
    """

    traj: Trajectory
    net: RNetwork
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in SCALES:
            raise ValueError(f"scale {self.kind!r} is not one of {', '.join(SCALES)}")
        if self.net.r != self.traj.r:
            raise ValueError(f"network index r = {self.net.r!r} does not match trajectory r = {self.traj.r!r}")

    @property
    def r(self) -> float:
        return self.traj.r

    @property
    def _divisors(self) -> tuple[float, float]:
        """(time, amplitude) divisors of this view."""
        r = self.traj.r
        return {"raw": (1.0, 1.0), "fluid": (r * r, r * r), "diffusion": (r * r, r)}[self.kind]

    @cached_property
    def times(self) -> np.ndarray:
        return self.traj.epochs / self._divisors[0]

    @cached_property
    def queues(self) -> np.ndarray:
        return self.traj.queues / self._divisors[1]

    @cached_property
    def alloc(self) -> np.ndarray:
        return self.traj.alloc / self._divisors[0]

    @cached_property
    def idle(self) -> np.ndarray:
        return self.traj.idle / self._divisors[1]

    @cached_property
    def workload(self) -> np.ndarray | None:
        return None if self.kind == "raw" else WorkloadMatrix(self.net.mu).apply(self.queues)

    @cached_property
    def netput(self) -> np.ndarray | None:
        """Centered arrival processes minus centered service processes (the
        latter composed with the busy times), plus the drift offsets, so that
        queues = netput plus the reflection terms and workload = netput
        workload + idleness."""
        if self.kind != "diffusion":
            return None
        traj, r, t = self.traj, self.traj.r, self.times
        cnt, ep, al = traj.counts, traj.epochs, traj.alloc
        lam1, lam2 = self.net.lam
        mu1, mu2, mu3 = self.net.mu
        b1, b2, b3 = self.net.b
        a1 = (cnt[:, 0] - lam1 * ep) / r
        a2 = (cnt[:, 1] - lam2 * ep) / r
        s1 = (cnt[:, 2] - mu1 * al[:, 0]) / r
        s2 = (cnt[:, 3] - mu2 * al[:, 1]) / r
        s3 = (cnt[:, 4] - mu3 * al[:, 2]) / r
        # Centering around the critical load point. The nominal coefficients
        # are r(lam_i^r - mu_i^r * rho_i) with rho_i the limiting load
        # fractions; because the drift offsets are realized exactly they
        # reduce to mu_i^r b_i (and mu_3^r b_3 - mu_2^r b_2 for the
        # downstream buffer), which avoids reconstructing the limits here.
        return np.stack(
            [a1 - s1 + (mu1 * b1) * t, a2 - s2 + (mu2 * b2) * t, s2 - s3 + (mu3 * b3 - mu2 * b2) * t],
            axis=1,
        )

    @property
    def activity(self) -> np.ndarray:
        return self.traj.activity


def fluid_scale(traj: Trajectory, net: RNetwork) -> ScaledTrajectory:
    """Law-of-large-numbers view; r = 1 is the identity view."""
    return ScaledTrajectory(traj, net, "fluid")


def diffusion_scale(traj: Trajectory, net: RNetwork) -> ScaledTrajectory:
    """Central-limit view around the critical load point."""
    return ScaledTrajectory(traj, net, "diffusion")


_ACT1_NAMES = {IDLE: "idle", BUFFER1: "serve1", BUFFER2: "serve2"}
_ACT2_NAMES = {IDLE: "idle", BUFFER3: "serve3"}


def write_scaled_csv(scaled: ScaledTrajectory, fh) -> None:
    """Write a view as CSV, one row per epoch. Workload and netput columns
    appear only when the view carries them."""
    cols = ["epoch" if scaled.kind == "raw" else "time", "Q1", "Q2", "Q3", "T1", "T2", "T3", "I1", "I2"]
    blocks = [scaled.times[:, None], scaled.queues, scaled.alloc, scaled.idle]
    if scaled.workload is not None:
        cols += ["W1", "W2"]
        blocks.append(scaled.workload)
    if scaled.netput is not None:
        cols += ["X1", "X2", "X3"]
        blocks.append(scaled.netput)
    data = np.hstack(blocks)
    fh.write(",".join(cols) + ",server1_activity,server2_activity\n")
    fmt = ",".join(["%.17g"] * data.shape[1])
    for k in range(data.shape[0]):
        fh.write(
            fmt % tuple(data[k])
            + ",%s,%s\n" % (_ACT1_NAMES[int(scaled.activity[k, 0])], _ACT2_NAMES[int(scaled.activity[k, 1])])
        )
