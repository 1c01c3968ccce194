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
    "write_trajectory_csv",
    "write_scaled_csv",
]

SeedLike = Union[int, np.random.SeedSequence]


@dataclass
class Trajectory:
    """Piecewise-constant record of a single run.

    Row k describes the state on [epochs[k], epochs[k+1]); the last row sits
    at the horizon. Queue and count columns are exact integers; alloc and
    idle columns are cumulative times.
    """

    r: float
    horizon: float
    epochs: np.ndarray      # (n,) float
    queues: np.ndarray      # (n, 3) int64
    counts: np.ndarray      # (n, 5) int64
    alloc: np.ndarray       # (n, 3) float
    idle: np.ndarray        # (n, 2) float
    activity: np.ndarray    # (n, 2) int8

    def __len__(self) -> int:
        return self.epochs.shape[0]


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
    a1 = a2 = c1 = c2 = c3 = 0
    t1 = t2 = t3 = 0.0

    svc1_buf = IDLE          # buffer server 1's pending completion belongs to
    svc1_due = inf
    svc2_due = inf
    next_a1 = draw_a1()
    next_a2 = draw_a2()

    col_t = []
    col_q1, col_q2, col_q3 = [], [], []
    col_a1, col_a2, col_c1, col_c2, col_c3 = [], [], [], [], []
    col_t1, col_t2, col_t3 = [], [], []
    col_act1, col_act2 = [], []

    while True:
        # One row for the initial state, one per event, and a terminal row at
        # the horizon unless the last event fell exactly on it.
        act1, act2 = policy_fn(q1, q2, q3)
        col_t.append(t)
        col_q1.append(q1)
        col_q2.append(q2)
        col_q3.append(q3)
        col_a1.append(a1)
        col_a2.append(a2)
        col_c1.append(c1)
        col_c2.append(c2)
        col_c3.append(c3)
        col_t1.append(t1)
        col_t2.append(t2)
        col_t3.append(t3)
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
            # No event before the horizon: the terminal row only advances
            # the allocations, since every clock below lies past it.
            t_next = horizon

        dt = t_next - t
        if act1 == BUFFER1:
            t1 += dt
        elif act1 == BUFFER2:
            t2 += dt
        if act2 == BUFFER3:
            t3 += dt
        t = t_next

        # Fixed order breaks exact float ties: arrivals, then server 1, then 2.
        if t_next == next_a1:
            q1 += 1
            a1 += 1
            next_a1 = t + draw_a1()
        elif t_next == next_a2:
            q2 += 1
            a2 += 1
            next_a2 = t + draw_a2()
        elif t_next == svc1_due:
            if svc1_buf == BUFFER1:
                q1 -= 1
                c1 += 1
            else:
                q2 -= 1
                c2 += 1
                q3 += 1
            svc1_due = inf
            svc1_buf = IDLE  # completion consumed; next assignment resamples
        elif t_next == svc2_due:
            q3 -= 1
            c3 += 1
            svc2_due = inf

    epochs = np.asarray(col_t, dtype=np.float64)
    queues = np.stack(
        [np.asarray(col_q1, dtype=np.int64), np.asarray(col_q2, dtype=np.int64), np.asarray(col_q3, dtype=np.int64)],
        axis=1,
    )
    counts = np.stack(
        [
            np.asarray(col_a1, dtype=np.int64),
            np.asarray(col_a2, dtype=np.int64),
            np.asarray(col_c1, dtype=np.int64),
            np.asarray(col_c2, dtype=np.int64),
            np.asarray(col_c3, dtype=np.int64),
        ],
        axis=1,
    )
    alloc = np.stack(
        [np.asarray(col_t1, dtype=np.float64), np.asarray(col_t2, dtype=np.float64), np.asarray(col_t3, dtype=np.float64)],
        axis=1,
    )
    idle = np.stack(
        [epochs - alloc[:, 0] - alloc[:, 1], epochs - alloc[:, 2]],
        axis=1,
    )
    activity = np.stack(
        [np.asarray(col_act1, dtype=np.int8), np.asarray(col_act2, dtype=np.int8)],
        axis=1,
    )
    return Trajectory(
        r=net.r,
        horizon=float(horizon),
        epochs=epochs,
        queues=queues,
        counts=counts,
        alloc=alloc,
        idle=idle,
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


@dataclass
class ScaledTrajectory:
    """Fluid- or diffusion-scaled view of a trajectory.

    Fluid: time t -> t/r^2, amplitudes divided by r^2 (queues, allocations,
    idleness, raw counts). Diffusion: time t -> t/r^2; queues, idleness, and
    centered counting processes divided by r; allocations stay fluid-scaled;
    netput is the centered free process whose reflection reproduces the
    queues; workload is the scaled clearing-time vector.
    """

    kind: str
    r: float
    times: np.ndarray       # (n,)
    queues: np.ndarray      # (n, 3)
    alloc: np.ndarray       # (n, 3) fluid-scaled cumulative busy time
    idle: np.ndarray        # (n, 2)
    arrivals: np.ndarray    # (n, 2)
    services: np.ndarray    # (n, 3)
    workload: np.ndarray | None  # (n, 2); None for a fluid view built without rates
    netput: np.ndarray | None    # (n, 3), diffusion only
    activity: np.ndarray    # (n, 2)


def fluid_scale(traj: Trajectory, net: RNetwork | None = None) -> ScaledTrajectory:
    """Law-of-large-numbers scaling; r = 1 is the identity view.

    The workload column needs the service rates and is filled only when the
    network is supplied.
    """
    r2 = traj.r * traj.r
    q = traj.queues / r2
    return ScaledTrajectory(
        kind="fluid",
        r=traj.r,
        times=traj.epochs / r2,
        queues=q,
        alloc=traj.alloc / r2,
        idle=traj.idle / r2,
        arrivals=traj.counts[:, :2] / r2,
        services=traj.counts[:, 2:] / r2,
        workload=WorkloadMatrix(net.mu).apply(q) if net is not None else None,
        netput=None,
        activity=traj.activity,
    )


def diffusion_scale(traj: Trajectory, net: RNetwork) -> ScaledTrajectory:
    """Central-limit scaling around the critical load point.

    Centered arrival processes use the r-network arrival rates; centered
    service processes are composed with the fluid allocations. The netput
    combines them with the drift offsets so that queues = netput plus the
    reflection terms, and workload = netput workload + idleness.
    """
    if net.r != traj.r:
        raise ValueError(f"network index r = {net.r!r} does not match trajectory r = {traj.r!r}")
    r = traj.r
    r2 = r * r
    times = traj.epochs / r2
    q_hat = traj.queues / r
    alloc_bar = traj.alloc / r2
    idle_hat = traj.idle / r
    lam1, lam2 = net.lam
    mu1, mu2, mu3 = net.mu

    a_hat = np.stack(
        [
            (traj.counts[:, 0] - lam1 * traj.epochs) / r,
            (traj.counts[:, 1] - lam2 * traj.epochs) / r,
        ],
        axis=1,
    )
    s_hat = np.stack(
        [
            (traj.counts[:, 2] - mu1 * traj.alloc[:, 0]) / r,
            (traj.counts[:, 3] - mu2 * traj.alloc[:, 1]) / r,
            (traj.counts[:, 4] - mu3 * traj.alloc[:, 2]) / r,
        ],
        axis=1,
    )
    # Centering around the critical load point. The nominal coefficients are
    # r(lam_i^r - mu_i^r * rho_i) with rho_i the limiting load fractions;
    # because the drift offsets are realized exactly they reduce to
    # mu_i^r b_i (and mu_3^r b_3 - mu_2^r b_2 for the downstream buffer),
    # which avoids reconstructing the limits here.
    b1, b2, b3 = net.b
    netput = np.empty((len(traj), 3))
    netput[:, 0] = a_hat[:, 0] - s_hat[:, 0] + (mu1 * b1) * times
    netput[:, 1] = a_hat[:, 1] - s_hat[:, 1] + (mu2 * b2) * times
    netput[:, 2] = s_hat[:, 1] - s_hat[:, 2] + (mu3 * b3 - mu2 * b2) * times

    w_hat = WorkloadMatrix(net.mu).apply(q_hat)
    return ScaledTrajectory(
        kind="diffusion",
        r=r,
        times=times,
        queues=q_hat,
        alloc=alloc_bar,
        idle=idle_hat,
        arrivals=a_hat,
        services=s_hat,
        workload=w_hat,
        netput=netput,
        activity=traj.activity,
    )


_ACT1_NAMES = {IDLE: "idle", BUFFER1: "serve1", BUFFER2: "serve2"}
_ACT2_NAMES = {IDLE: "idle", BUFFER3: "serve3"}


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """Write the event-epoch record as CSV (one row per epoch)."""
    fh.write("epoch,Q1,Q2,Q3,T1,T2,T3,I1,I2,server1_activity,server2_activity\n")
    for k in range(len(traj)):
        fh.write(
            "%.17g,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s\n"
            % (
                traj.epochs[k],
                traj.queues[k, 0],
                traj.queues[k, 1],
                traj.queues[k, 2],
                traj.alloc[k, 0],
                traj.alloc[k, 1],
                traj.alloc[k, 2],
                traj.idle[k, 0],
                traj.idle[k, 1],
                _ACT1_NAMES[int(traj.activity[k, 0])],
                _ACT2_NAMES[int(traj.activity[k, 1])],
            )
        )


def write_scaled_csv(scaled: ScaledTrajectory, fh) -> None:
    """Write a scaled trajectory as CSV. Workload and netput columns appear
    only when the view carries them."""
    cols = ["time", "Q1", "Q2", "Q3", "T1", "T2", "T3", "I1", "I2"]
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
