"""Simulation of the crisscross network on its uniformized jump chain.

The network is a continuous-time Markov chain: two Poisson arrival streams,
exponential services, and a policy that is a function of the queues. Its
uniformized jump chain, one clock at the rate L of _clock_rate and one
uniform per step to pick the step's move, with Exp(L) holding times, is the
same process in law. _chain_step is the one definition of that chain's
step, and _walk of its stream: the step uniforms of PCG64(seed), read in
blocks with the queues carried from one block to the next. simulate walks
it with the holding times drawn, and experiments._chain_cost with them
integrated out, so a replication's record and its cost are one chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

import numpy as np

from .params import RNetwork, _ThresholdLevels
from .policies import _PRIORITY_ORDER, BUFFER1, BUFFER2, BUFFER3, IDLE, _require_policy, _server1
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
    "event_budget",
]

# What every random stream of the toolkit is seeded from. PCG64 seeds from
# SeedSequence(seed) when given an int, so both name one stream.
SeedLike = Union[int, np.random.SeedSequence]

# Float tolerance of the clock identities in check_conservation.
_CLOCK_ATOL = 1e-9

# Most events simulate accepts to run, by the estimate of event_budget. The
# record costs at most about 120 bytes per event while it is built (85-118
# traced by tracemalloc at r = 40, 80 and 160, H = 15), so this caps it near
# 480 MB. r = 160 at the default scaled horizon of 15 estimates 1.92M events
# on the symmetric example.
_MAX_EVENTS = 4_000_000

# Steps of the uniformized chain per numpy pass (_chain_step), at most. The
# step buffers hold O(_CHAIN_BLOCK) values at any r, and no result depends
# on it.
_CHAIN_BLOCK = 1 << 14

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
        # busy intervals exactly as a loop over the rows would add them.
        act = self.activity[:-1]
        busy = np.stack([act[:, 0] == BUFFER1, act[:, 0] == BUFFER2, act[:, 1] == BUFFER3], axis=1)
        alloc = np.zeros((len(self), 3))
        np.add.accumulate(np.where(busy, np.diff(self.epochs)[:, None], 0.0), axis=0, out=alloc[1:])
        return alloc

    @cached_property
    def idle(self) -> np.ndarray:
        ep, al = self.epochs, self.alloc
        return np.stack([ep - al[:, 0] - al[:, 1], ep - al[:, 2]], axis=1)


def _clock_rate(net: RNetwork) -> float:
    """Total event rate with server 1 at its faster service rate: a bound on
    every state's event rate, and the clock of the uniformized chain."""
    return net.lam[0] + net.lam[1] + max(net.mu[0], net.mu[1]) + net.mu[2]


def event_budget(net: RNetwork, horizon: float) -> float:
    """Estimated events of a run over [0, horizon] (unscaled time): the total
    event rate, with server 1 at its faster service rate, times the horizon.
    Raises ValueError above _MAX_EVENTS, before anything is simulated.
    """
    events = _clock_rate(net) * horizon
    if events > _MAX_EVENTS:
        raise ValueError(
            f"r = {net.r!r} over horizon {horizon!r} needs about {events:.3g} events, "
            f"more than the limit of {_MAX_EVENTS}"
        )
    return events


def _reflect(q0: int, inc: np.ndarray) -> np.ndarray:
    """Lindley's recursion q_k = max(q_{k-1} + inc_k, 0) from q0 >= 0: the
    queue's path, q0 first, then its value after each step. The reflected
    walk is the free walk q0 + cumsum(inc) less its running minimum where
    that is below 0, so it is exact on integers."""
    path = np.zeros(inc.shape[0] + 1, dtype=np.int64)
    np.cumsum(inc, dtype=np.int64, out=path[1:])
    path += q0
    path -= np.minimum(np.minimum.accumulate(path), 0)
    return path


def _less(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """The steps of mask up less those of mask down, as -1/0/1 increments."""
    return up.view(np.int8) - down.view(np.int8)


def _threshold_gates(
    levels: _ThresholdLevels,
    q: dict[int, int],
    x: np.ndarray,
    arrive: dict[int, np.ndarray],
    band1: np.ndarray,
    band2: np.ndarray,
    serve: dict[int, float],
) -> dict[int, np.ndarray]:
    """The services at buffers 1 and 2 of one block of _chain_step under
    the threshold rule, from the queues q before the block.

    A Python loop visits the server-1 band steps only, with the arrivals at
    buffers 1 and 2 and the server-2 band steps since the previous one, and
    whether the uniform lies in the first mu of buffer 1 and of buffer 2.
    Between two such steps buffer 3 meets only server-2 band steps, each
    serving it if it is nonempty, so its level is the last one less those
    steps, floored at 0. The rule of policies._server1 runs inlined on
    Python ints, at the levels RNetwork.levels gives.
    """
    steps = np.flatnonzero(band1)

    def since(mask: np.ndarray) -> list[int]:
        return np.diff(np.cumsum(mask)[steps], prepend=0).tolist()

    y = x[steps]
    in_mu1, in_mu2 = (y < serve[BUFFER1]).tolist(), (y < serve[BUFFER2]).tolist()
    rows = zip(since(arrive[BUFFER1]), since(arrive[BUFFER2]), since(band2), in_mu1, in_mu2)
    ratio, low, near_full, overgrow = levels
    codes = bytearray()
    push = codes.append
    q1, q2, q3 = q[BUFFER1], q[BUFFER2], q[BUFFER3]
    for n1, n2, n3, can1, can2 in rows:
        q1 += n1
        q2 += n2
        q3 = q3 - n3 if q3 > n3 else 0
        if not q1 + q2:
            push(IDLE)
        elif q2 and ((q3 < near_full) if q3 - ratio * q1 < low else (q1 < overgrow)):
            if can2:
                q2 -= 1
                q3 += 1
                push(BUFFER2)
            else:
                push(IDLE)
        elif can1:
            q1 -= 1
            push(BUFFER1)
        else:
            push(IDLE)
    server1 = np.zeros(x.shape[0], dtype=np.int8)
    server1[steps] = np.frombuffer(codes, dtype=np.int8)
    return {BUFFER1: server1 == BUFFER1, BUFFER2: server1 == BUFFER2}


def _chain_step(net: RNetwork, policy: str, q: dict[int, int], x: np.ndarray) -> dict[int, np.ndarray]:
    """One block of the network's uniformized jump chain under the named
    policy: from the queues q before the block and its uniforms x, scaled to
    [0, L) (_clock_rate), each queue's path over the block, keyed by buffer:
    n + 1 values, q first, then the queue after each step.

    Each uniform falls in one of four bands: arrival 1 (width lam1),
    arrival 2 (lam2), server 1 (max(mu1, mu2)) and server 2 (mu3). In
    server 1's band, the buffer the policy assigns it is served when the
    uniform lies in the band's first mu of that buffer; in server 2's band,
    buffer 3 is served when it is nonempty; any other step is fictitious.

    Each queue is a Lindley reflection (_reflect) of its arrivals less the
    steps that may serve it, so a block needs no per-step Python except
    where the threshold rule decides:

    - Server 2 never idles while its buffer is nonempty, under every rule
      (see the policies module). So buffer 3 reflects the buffer-2 services
      less the server-2 band steps.
    - "threshold" runs its rule in a Python loop over the server-1 band
      steps (_threshold_gates); the reflections of buffers 1 and 2 never
      bind.
    - Under a static priority (a name in _PRIORITY_ORDER), the preferred
      buffer may be served at its steps in server 1's band, and the other
      buffer at its steps there where the preferred one is empty: three
      cascaded reflections.
    """
    lam1, lam2 = net.lam
    mu1, mu2, _ = net.mu
    edge1 = lam1 + lam2
    serve = {BUFFER1: edge1 + mu1, BUFFER2: edge1 + mu2}
    edge2 = edge1 + max(mu1, mu2)
    arrive1 = x < lam1
    arrive = {BUFFER1: arrive1, BUFFER2: (x < edge1) & ~arrive1}
    band1 = (x >= edge1) & (x < edge2)
    band2 = x >= edge2
    path = {}
    if policy == "threshold":
        gate = _threshold_gates(net.levels, q, x, arrive, band1, band2, serve)
        for b in (BUFFER1, BUFFER2):
            path[b] = _reflect(q[b], _less(arrive[b], gate[b]))
    else:
        first, second = _PRIORITY_ORDER[policy]
        gate = {first: band1 & (x < serve[first])}
        path[first] = _reflect(q[first], _less(arrive[first], gate[first]))
        gate[second] = band1 & (x < serve[second]) & (path[first][:-1] == 0)
        path[second] = _reflect(q[second], _less(arrive[second], gate[second]))
    served2 = gate[BUFFER2] & (path[BUFFER2][:-1] > 0)
    path[BUFFER3] = _reflect(q[BUFFER3], _less(served2, band2))
    return path


def _walk(net: RNetwork, policy: str, seed: SeedLike, n_steps: int) -> Iterator[tuple[int, dict[int, np.ndarray]]]:
    """The first n_steps steps of the uniformized jump chain of net under
    policy from the empty state, as (start, path): _chain_step's paths over
    consecutive blocks of at most _CHAIN_BLOCK steps, start the index of a
    block's first step.

    This is the one definition of the chain's stream: its uniforms are
    PCG64(seed)'s doubles in order, one per step, scaled to [0, L), and each
    block starts from the queues the previous one ended in. Both walks read
    it: simulate with Exp(L) holding times, experiments._chain_cost with
    them integrated out. The uniforms are one stream, so the chain does not
    depend on _CHAIN_BLOCK.
    """
    rate = _clock_rate(net)
    uniforms = np.random.Generator(np.random.PCG64(seed))
    q = {BUFFER1: 0, BUFFER2: 0, BUFFER3: 0}
    for start in range(0, n_steps, _CHAIN_BLOCK):
        path = _chain_step(net, policy, q, uniforms.random(min(_CHAIN_BLOCK, n_steps - start)) * rate)
        q = {b: int(p[-1]) for b, p in path.items()}
        yield start, path


def _child(seed: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    """seed's child index (spawn key + (index,)), derived without advancing
    seed's spawn counter, so it is the same on every call. A replication's
    clock (simulate) is child 0 and its roulette draw
    (experiments._chain_cost) child 1; the chain's uniforms are seed's own."""
    return np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, index), pool_size=seed.pool_size)


def simulate(net: RNetwork, policy: str, horizon: float, seed: SeedLike) -> Trajectory:
    """Run the network from the empty state over [0, horizon] (unscaled time).

    policy is a name in POLICY_NAMES, or simulate raises a
    ValueError before anything is drawn. The run draws its clock first:
    Exp(L) holding times from seed's child 0 (_child), until an epoch
    passes the horizon. It then walks exactly the steps by the horizon of
    the uniformized jump chain on seed's stream (_walk), as
    experiments._chain_cost does. A row is kept for the empty state, for
    each step that moves a queue, and for the horizon; fictitious steps
    only pass time.

    Server 1's activity is policies._server1's, in one pass over the rows.
    Server 2's is buffer 3 whenever it is nonempty, by the policies
    module's contract, which the chain assumes. The same (net, policy,
    horizon, seed) always reproduces the identical trajectory, whether seed
    is an int or a SeedSequence. A run that event_budget estimates above
    _MAX_EVENTS raises ValueError.
    """
    if not (horizon >= 0.0) or not math.isfinite(horizon):
        raise ValueError(f"horizon = {horizon!r} must be finite and >= 0")
    events = event_budget(net, horizon)
    _require_policy(policy, net)

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    clock = np.random.Generator(np.random.PCG64(_child(ss, 0)))
    mean_hold = 1.0 / _clock_rate(net)
    # The clock first: each step's epoch, carried left to right across chunks
    # that mostly cover a run of the estimated length in one draw, until one
    # passes the horizon.
    chunk = min(_CHAIN_BLOCK, math.ceil(events + 4.0 * math.sqrt(events)) + 1)
    at, reached = [], 0.0
    while reached <= horizon:
        hold = clock.exponential(mean_hold, chunk)
        while not hold.all():  # an exact 0 has probability ~2^-53; dropping it keeps the law
            hold = np.append(hold[hold > 0.0], clock.exponential(mean_hold, chunk - np.count_nonzero(hold)))
        hold[0] += reached
        at.append(np.cumsum(hold))
        reached = float(at[-1][-1])
    at = np.concatenate(at)
    n_steps = int(np.searchsorted(at, horizon, side="right"))  # the steps by the horizon

    epochs, queues = [np.zeros(1)], [np.zeros((1, 3), dtype=np.int64)]
    for start, path in _walk(net, policy, ss, n_steps):
        p1, p2, p3 = path[BUFFER1], path[BUFFER2], path[BUFFER3]
        moved = (p1[1:] != p1[:-1]) | (p2[1:] != p2[:-1]) | (p3[1:] != p3[:-1])
        epochs.append(at[start : start + moved.size][moved])
        queues.append(np.stack([p1[1:][moved], p2[1:][moved], p3[1:][moved]], axis=1))
    # A terminal row holds the last state at the horizon, unless a step fell on it.
    last = [k for k, piece in enumerate(epochs) if piece.size][-1]
    if epochs[last][-1] < horizon:
        epochs.append(np.array([float(horizon)]))
        queues.append(queues[last][-1:])

    queues = np.concatenate(queues)
    activity = np.empty((queues.shape[0], 2), dtype=np.int8)
    activity[:, 0] = _server1(policy, net, queues)
    activity[:, 1] = np.where(queues[:, 2] > 0, BUFFER3, IDLE)
    return Trajectory(r=net.r, horizon=float(horizon), epochs=np.concatenate(epochs), queues=queues, activity=activity)


@dataclass(frozen=True)
class ConservationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    @property
    def first(self) -> str | None:
        return self.violations[0] if self.violations else None


def check_conservation(traj: Trajectory) -> ConservationReport:
    """Audit a trajectory against the flow and clock identities.

    Integer identities (queues = arrivals - services, routed flow) must hold
    exactly; clock identities (allocation + idleness = elapsed time per
    server, 1-Lipschitz allocations, nondecreasing idleness) to 1e-9. Also
    enforces that recorded busy time accrues only under the recorded
    activity, that server 2 idles exactly when its buffer is empty, and
    that each service at buffer 1 or 2 follows a row with server 1 on it.
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
    d_cnt = np.diff(cnt, axis=0)
    bad(d_cnt.min(axis=1) < 0, "event counters decreased")
    # Counts follow from the queue moves, so a row whose move was cancelled
    # keeps the flow identities; only the terminal row may record no event.
    bad(d_cnt[:-1].sum(axis=1) != 1, "non-terminal row does not record exactly one event")

    d_ep = np.diff(ep)
    d_al = np.diff(al, axis=0)
    bad((d_al < -_CLOCK_ATOL).any(axis=1), "allocation decreased")
    bad(d_al[:, 0] + d_al[:, 1] > d_ep + _CLOCK_ATOL, "server-1 allocations exceed elapsed time")
    bad(d_al[:, 2] > d_ep + _CLOCK_ATOL, "server-2 allocation exceeds elapsed time")

    # Busy time accrues exactly under the recorded activity.
    on1 = (act[:-1, 0] == BUFFER1).astype(float)
    on2 = (act[:-1, 0] == BUFFER2).astype(float)
    on3 = (act[:-1, 1] == BUFFER3).astype(float)
    bad(np.abs(d_al[:, 0] - on1 * d_ep) > _CLOCK_ATOL, "buffer-1 busy time disagrees with activity")
    bad(np.abs(d_al[:, 1] - on2 * d_ep) > _CLOCK_ATOL, "buffer-2 busy time disagrees with activity")
    bad(np.abs(d_al[:, 2] - on3 * d_ep) > _CLOCK_ATOL, "buffer-3 busy time disagrees with activity")

    bad(np.abs(idl[:, 0] - (ep - al[:, 0] - al[:, 1])) > _CLOCK_ATOL, "server-1 idleness != t - busy time")
    bad(np.abs(idl[:, 1] - (ep - al[:, 2])) > _CLOCK_ATOL, "server-2 idleness != t - busy time")
    bad((idl < -_CLOCK_ATOL).any(axis=1), "negative idleness")
    bad((np.diff(idl, axis=0) < -_CLOCK_ATOL).any(axis=1), "idleness decreased")

    bad((act[:, 1] == BUFFER3) != (q[:, 2] > 0), "server 2 must serve exactly when its buffer is nonempty")
    valid1 = np.isin(act[:, 0], (IDLE, BUFFER1, BUFFER2))
    bad(~valid1, "server-1 activity out of range")
    bad((act[:, 0] == BUFFER1) & (q[:, 0] == 0), "server 1 assigned to empty buffer 1")
    bad((act[:, 0] == BUFFER2) & (q[:, 1] == 0), "server 1 assigned to empty buffer 2")
    bad((d_cnt[:, 2] > 0) & (act[:-1, 0] != BUFFER1), "service at buffer 1 while server 1 is not on it")
    bad((d_cnt[:, 3] > 0) & (act[:-1, 0] != BUFFER2), "service at buffer 2 while server 1 is not on it")

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
