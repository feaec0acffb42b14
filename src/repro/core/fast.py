"""Fast layer-recurrence simulator.

Delays and hardware clock rates are static within a pulse (the paper's
model), so the ``k``-th pulse of layer ``l`` is a deterministic function of
the ``k``-th pulses of layer ``l - 1`` (Lemma B.1).  This module evaluates
that recurrence directly -- pulse by pulse, layer by layer -- implementing
the *full* Algorithm 3 semantics (missing messages, early exits, the
via-``H_max`` branch) without an event queue.  The event-driven simulator
(:mod:`repro.core.network_sim`) is cross-validated against this one in the
test suite.

The per-cell, per-pulse logic mirrors Algorithm 3:

1. Compute the reception time of each predecessor's pulse (send time plus
   edge delay); a faulty predecessor sends at its correct time plus its
   :class:`~repro.faults.model.FaultBehavior`'s offset (``+inf`` =
   silent).
2. Replay the do-until loop.  It exits at the first local time ``tau``
   such that ``H_min`` is set and each still-missing reception has timed
   out: a missing own-copy message times out at ``H_max + k/2 + vt*k``
   (possible only once ``H_max`` is set), a missing last-neighbor message
   at ``2*H_own - H_min + 2k``.  When everything has been received the
   loop exits immediately at the final arrival.  This is the reading of
   Algorithm 3's ``until`` clause under which Lemma B.2's equivalence
   proof goes through: its case "terminated because ``H(t) = H_max + k/2
   + vt*k``" is exactly "own message still missing at exit" (so Algorithm
   1 would see ``H_own >= H_max + k/2 + vt*k``), and its other case is
   "last neighbor still missing".
3. If the own-copy message was missing at exit, pulse at local time
   ``H_max + 3k/2 + Lambda - d`` (the "own copy is missing/late" branch);
   otherwise compute the correction ``C`` (with ``H_max = +inf`` if the
   last neighbor never showed) and pulse at ``H_own + Lambda - d - C``.

Faulty nodes also run the protocol (their "correct time" anchors the fault
behaviours, as in Lemma 4.30's coupled executions) but broadcast whatever
their behaviour dictates, per successor.

Kernel, batched fallback, scalar reference
------------------------------------------
:meth:`FastSimulation.run` is a :class:`~repro.core.fast_batch.TrialStack`
of one, and the stack is the only driver of the recurrence: it advances
one layer of a *block* of pulses for **all** base vertices of all its
trials at once with NumPy array operations (reception times, do-until
exit, correction, pulse time), which is what makes large parameter
sweeps tractable; each layer step runs on an ``(S, B, W)`` plane of
``B`` pulses (see the "Pulse blocks" section of
:mod:`repro.core.fast_batch`).  The arithmetic lives in the
shape-generic :func:`_layer_step_kernel`, which reads every neighbor
copy from one flat CSR entry axis and works in place with
bitwise-unchanged outputs (its docstring has the argument); both
algorithms run through it:

* Under the **full** Algorithm 3 semantics the kernel covers exactly the
  executions in which the do-until loop exits at the *final* arrival with
  every register filled -- the fault-free/normal-branch path.  A cell is
  resolved by the stack-wide batched fallback
  (:meth:`~repro.core.fast_batch._StackRun.fallback`, replaying
  through :func:`_fallback_replay`) instead when any of its
  predecessors is faulty (reception times then come from the faulty
  nodes' recorded sends), a predecessor never pulsed (missing-message regime),
  or the loop would exit *early* -- the own-copy timeout (via-``H_max``
  branch, ``H_own > H_max + k/2 + vt*k``) or the last-neighbor timeout
  (``H_max > 2*H_own - H_min + 2k``) fires before the last arrival.
* Under the **simplified** Algorithm 1 semantics there is no do-until
  exit to predict -- the node waits for its own, first, and last neighbor
  arrival unconditionally, so those arrivals are a fixed gather and the
  fault-free case is a pure array op.  Only fault-adjacent and
  missing-message cells (where Algorithm 1 deadlocks) go through the
  batched fallback.

The eligibility tests are exact (ties fall back conservatively), and the
kernel and the batched fallback mirror the per-cell scalar rule
(:func:`_scalar_replay`) operation for operation.  That rule is the
reference the test suite cross-validates the kernel against over random
rates, delays, and fault plans -- the event engine runs Algorithm 3
only, so it is the one independent reference for Algorithm 1 under
faults.  It has :func:`_fallback_replay`'s signature and sits behind
the fallback seam: patching ``fast_batch._kernel_cells`` to
:func:`numpy.zeros_like` and ``fast_batch._fallback_replay`` to
:func:`_scalar_replay` sends every cell of a normal run through it, so
streaming, campaign epochs and the fault overlay run the production path
in every reference run and only the per-cell rule differs.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.correction import CorrectionPolicy, PAPER_POLICY, compute_correction
from repro.core.layer0 import Layer0Schedule, PerfectLayer0
from repro.delays.models import DelayModel, UniformDelayModel
from repro.faults.campaign import ChaosCampaign
from repro.faults.injection import FaultPlan
from repro.faults.model import FaultBehavior
from repro.params import Parameters
from repro.topology.layered import LayeredGraph, NodeId, layer_major_nodes

__all__ = ["FastSimulation", "FastResult", "RatePlane", "BRANCH_CODES"]

#: Encoding of the branch that produced each pulse (see :class:`FastResult`).
BRANCH_CODES = {
    "mid": 0,
    "low": 1,
    "high": 2,
    "via_max": 3,
    "none": 4,
    "layer0": 5,
}



class RatePlane(Mapping[NodeId, float]):
    """Read-only ``NodeId -> rate`` mapping over an ``(L, W)`` rate plane.

    ``plane[layer, v]`` is the rate of node ``(v, layer)``; iteration visits
    the nodes layer by layer, like
    :meth:`~repro.topology.layered.LayeredGraph.nodes`.  The plane is
    read-only (a writeable one is copied first), so the stacked kernel
    reads it as-is on every run.
    """

    __slots__ = ("plane",)

    def __init__(self, plane: np.ndarray) -> None:
        plane = np.asarray(plane, dtype=float)
        if plane.ndim != 2:
            raise ValueError(f"rate plane must be (L, W), got {plane.shape}")
        if plane.flags.writeable:
            plane = plane.copy()
            plane.setflags(write=False)
        self.plane = plane

    def __getitem__(self, node: NodeId) -> float:
        layers, width = self.plane.shape
        try:
            v, layer = node
            if 0 <= v < width and 0 <= layer < layers:
                return float(self.plane[layer, v])
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(node)

    def __iter__(self) -> Iterator[NodeId]:
        layers, width = self.plane.shape
        return layer_major_nodes(width, layers)

    def __len__(self) -> int:
        return self.plane.size

    def __reduce__(self):
        return (RatePlane, (self.plane,))


#: Per-node clock rates: none (rate 1), a ``NodeId``-keyed mapping (a
#: plain dict, re-read every run, or a :class:`RatePlane`, read as-is),
#: or a callable ``(node, pulse) -> rate``.
RateProvider = Union[
    None, Mapping[NodeId, float], Callable[[NodeId, int], float]
]

#: Most edges one block query gathers: a pulse-invariant delay-cache miss
#: covers whole layers up to this many edges, so a D = 32 trial (~3.3k
#: edges) replays all its delays in one call while the replay's uint64
#: temporaries stay bounded on 10^5-node graphs (one layer per call).
_GATHER_BLOCK_EDGES = 1 << 16


def _correction_step(
    h_own: np.ndarray,
    h_min: np.ndarray,
    h_max: np.ndarray,
    params: Parameters,
    policy: CorrectionPolicy,
    codes: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Vectorized correction rule: ``compute_correction`` over a plane.

    Mirrors :func:`repro.core.correction.compute_correction`
    operation-for-operation on finite registers, so eligible kernel
    lanes and batched-fallback cells compute bit-identical floats to the
    scalar rule.  Lanes with ``H_max = +inf`` (last neighbor missing --
    reachable only through the batched fallback) reproduce the scalar
    ``raw_delta`` convention: their delta is ``-inf``, forcing the low
    branch; the formulae below would produce NaN via ``inf - inf``
    instead, so the convention is pinned explicitly.  Returns
    ``(correction, branches)``; ``branches`` is None without ``codes``.
    Works in place (see :func:`_layer_step_kernel`); the selects stay
    :func:`numpy.where`, which measured 2-3x faster than a masked
    :func:`numpy.copyto` on these planes.
    """
    kappa = params.kappa
    vartheta = params.vartheta
    kappa_stacked = np.ndim(kappa) > 0

    with np.errstate(invalid="ignore", divide="ignore"):
        a = h_own - h_max
        b = h_own - h_min
        if policy.discretize:
            if not kappa_stacked and kappa == 0.0:
                # A copy: ``b`` is read again for the low branch.
                delta = b.copy()
            else:
                # s_star >= 0 on every eligible lane (h_max >= h_min),
                # so the scalar path's max(0, .) clamps are no-ops.
                s_star = h_max - h_min
                s_star /= 8.0 * kappa
                delta = None
                for step in (np.floor(s_star), np.ceil(s_star, out=s_star)):
                    step *= 4.0
                    step *= kappa  # 4 * s * kappa, shared by both terms
                    term = a + step
                    np.maximum(term, np.subtract(b, step, out=step), out=term)
                    delta = term if delta is None else np.minimum(delta, term, out=delta)
                delta -= kappa / 2.0
                if kappa_stacked:
                    # kappa == 0 lanes divided by zero above; give them the
                    # scalar path's kappa == 0 answer instead.
                    np.copyto(delta, b, where=kappa == 0.0)
        else:
            delta = h_max + h_min
            delta /= 2.0
            np.subtract(h_own, delta, out=delta)
            delta -= kappa / 2.0
        np.copyto(delta, -np.inf, where=np.isinf(h_max))

        upper = vartheta * kappa
        low = delta < 0.0
        high = delta > upper
        if policy.stick_to_median:
            damp = policy.jump_slack * kappa
            a -= kappa / 2.0
            a -= damp
            corr_high = np.maximum(a, upper, out=a)
            b += kappa / 2.0
            b += damp
            corr_low = np.minimum(b, 0.0, out=b)
        else:
            corr_low, corr_high = 0.0, upper
        correction = np.where(low, corr_low, np.where(high, corr_high, delta))
        branches = None
        if codes:
            # low wins over high, as in the select above: 2 * high + low.
            high &= ~low
            branches = np.add(high, high, dtype=np.int8)
            branches += low
    return correction, branches


def _registers_step(
    h_own: np.ndarray,
    h_min: np.ndarray,
    h_max: np.ndarray,
    rate: np.ndarray,
    static_eligible: np.ndarray,
    params: Parameters,
    policy: CorrectionPolicy,
    simplified: bool,
    planes: bool = True,
) -> Tuple[np.ndarray, ...]:
    """Eligibility, correction, and pulse time from the filled registers.

    The back half of the layer step: every operation is elementwise
    over the ``(..., W)`` plane.  Without ``planes`` (a streamed run
    keeps neither) the branch codes and effective corrections are None.
    """
    kappa = params.kappa
    vartheta = params.vartheta

    with np.errstate(invalid="ignore", divide="ignore"):
        scratch = h_own + h_min
        scratch += h_max
        eligible = np.isfinite(scratch)
        eligible &= static_eligible
        if not simplified:
            np.add(h_max, kappa / 2.0, out=scratch)
            scratch += vartheta * kappa
            eligible &= h_own <= scratch
            np.multiply(2.0, h_own, out=scratch)
            scratch -= h_min
            scratch += 2.0 * kappa
            eligible &= h_max <= scratch

        correction, branches = _correction_step(
            h_own, h_min, h_max, params, policy, planes
        )

        base = h_own + params.Lambda
        base -= params.d
        np.subtract(base, correction, out=scratch)  # the target
        pulse_time = np.maximum(h_own, h_max)
        np.maximum(scratch, pulse_time, out=scratch)
        np.divide(scratch, rate, out=pulse_time)
        effective = None
        if planes:
            effective = np.subtract(base, np.multiply(rate, pulse_time, out=scratch), out=base)

    return eligible, correction, branches, pulse_time, effective


def _read_only(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """A read-only view of ``array`` (None stays None)."""
    if array is not None:
        array = array.view()
        array.flags.writeable = False
    return array


def _neighbor_bounds(
    prev: np.ndarray, nb_delay: np.ndarray, rate: np.ndarray, columns: Tuple
) -> Tuple[np.ndarray, np.ndarray]:
    """``H_min`` / ``H_max`` of the layer step, one degree column at a time.

    ``nb_delay`` holds the neighbor copies' delays on the flat ``(...,
    E)`` entry axis, and ``columns`` is the neighbor plan
    (:func:`~repro.topology.base_graph.degree_columns`): per degree
    column ``j``, ``(entries, source, lanes, mask)`` -- the entries
    ``indptr[v] + j`` of the ``lanes`` (None: all) of degree ``> j``,
    the neighbor each one reads in ``prev`` and their validity (None:
    all valid), ``(C,)`` or, per trial, ``(S, C)`` broadcast over the
    pulse axis of the ``(S, B, W)`` plane.  Each column is
    computed on its lanes only and folded, in order, into bounds that
    start at the identities; the ufunc's ``where`` keeps a bound on an
    invalid entry, as folding in the identity would.  So the bounds are
    bitwise the min / max over each lane's valid entries in any order:
    min and max are exact and propagate NaN alike.
    """
    bounds = (np.full(prev.shape, np.inf), np.full(prev.shape, -np.inf))
    for entries, source, lanes, mask in columns:
        # A per-row ``source`` gathers row ``s`` from trial ``s``'s plane.
        if source.ndim > 1:
            values = np.take_along_axis(prev, source[:, None], axis=-1)
        else:
            values = prev.take(source, axis=-1)
        values += nb_delay[..., entries]
        at = slice(None) if lanes is None else lanes
        np.multiply(rate[..., at], values, out=values)
        where = True if mask is None else mask[:, None]
        for bound, ufunc in zip(bounds, (np.minimum, np.maximum)):
            part = bound if lanes is None else bound[..., lanes]
            ufunc(part, values, out=part, where=where)
            if lanes is not None:
                bound[..., lanes] = part
    return bounds


def _layer_step_kernel(
    prev: np.ndarray,
    own_delay: np.ndarray,
    nb_delay: np.ndarray,
    rate: np.ndarray,
    columns: Tuple,
    static_eligible: np.ndarray,
    params: Parameters,
    policy: CorrectionPolicy,
    simplified: bool,
    planes: bool = True,
) -> Tuple[np.ndarray, ...]:
    """One layer step for every cell of a ``(..., W)`` plane.

    The shape-generic arithmetic behind the trial-stacked ``(S, B, W)``
    layer step of :class:`repro.core.fast_batch.TrialStack` (``S``
    trials, a block of ``B`` pulses): every operation broadcasts over
    the leading axes, so a (trial, pulse) row of the plane evaluates
    *the same* NumPy expressions as a ``(W,)`` call and eligible cells
    produce bit-identical floats.  Formulae mirror the scalar replay
    (:func:`_scalar_replay`) operation-for-operation.  Inputs that do
    not change with the pulse (static delays and rates) carry a
    length-1 pulse axis and broadcast.

    ``prev`` holds the previous layer's send times (NaN = missing);
    ``static_eligible`` is the precomputed fault-structure part of the
    eligibility mask for this layer.  Returns ``(eligible, correction,
    branches, pulse_time, effective_correction)``; only entries where
    ``eligible`` is True are meaningful -- the rest are resolved by the
    caller through the exact batched fallback.  Without ``planes`` the
    branch codes and effective corrections are None (see
    :func:`_registers_step`).  The inputs are only read.

    Neighbor copies live on the flat ``(..., E)`` entry axis of
    ``nb_delay`` (CSR order: vertex ``v``'s copies at ``indptr[v] + j``),
    and ``H_min``/``H_max`` are folded one degree column of it at a time
    (:func:`_neighbor_bounds`, over the plan ``columns``): no ``(W,
    max_deg)`` table or tensor exists, so a hub-skewed graph costs
    ``O(W + E)`` per step.  On the heterogeneous stack the plan gathers
    per trial (trial ``s`` reads its own plane; padded entries are
    masked and padded cells stay NaN), and the numeric fields of
    ``params`` / ``policy`` may be per-trial ``(S, 1, 1)`` columns: every
    use is elementwise, so a lane computes what a scalar call with its
    own value does.  ``discretize`` and ``stick_to_median`` select
    Python-level branches and must be bools.

    In-place evaluation: the step writes into its own temporaries
    (``out=``, in-place operators) and evaluates each shared
    subexpression once (``h_own - h_max``, ``h_own - h_min``,
    ``4 * round(s*) * kappa``, ``h_own + Lambda - d``), with every
    operation's operands and order kept.  An IEEE result depends only
    on the operation and its operands, not on where it is stored, so
    every output is bitwise that of one temporary per expression (the
    bench's ``kernel_step`` checks it against that form frozen).

    Eligibility: all predecessors correct (static part) and received (a
    missing reception turns the summed registers NaN or infinite), and --
    under the full Algorithm 3 semantics -- the loop provably exits at the
    last arrival: no own-copy timeout, no last-neighbor timeout;
    non-strict bounds are exit-free ties.  The two comparisons mirror the
    scalar exit thresholds (:func:`_replay_full`) operation-for-operation.
    Algorithm 1 (``simplified=True``) has no timeouts -- the node waits
    for every arrival unconditionally -- so the two comparisons drop out
    and every received cell is eligible.
    """
    h_own = prev + own_delay
    np.multiply(rate, h_own, out=h_own)
    h_min, h_max = _neighbor_bounds(prev, nb_delay, rate, columns)
    return _registers_step(
        h_own, h_min, h_max, rate, static_eligible, params, policy, simplified, planes
    )


def _fallback_replay(
    ev_time: np.ndarray,
    num_nb: np.ndarray,
    rates: np.ndarray,
    params: Parameters,
    policy: CorrectionPolicy,
    simplified: bool,
) -> Tuple[np.ndarray, ...]:
    """Replay the loop of every kernel-rejected cell at once.

    ``ev_time`` holds one row of real reception times per cell: column 0
    is the own copy, columns ``1..`` the neighbor copies (order is
    irrelevant), ``+inf`` where a message is missing or the slot is
    padding.  ``num_nb`` counts each cell's neighbor predecessors and
    ``rates`` its clock rate; the numeric fields of ``params``/``policy``
    are scalars or one value per cell.  The events are sorted along the
    event axis and the replay advances event **positions**: at most
    ``max_deg + 1`` vectorized steps, however many cells there are.
    Register updates, the exit test and the correction
    (:func:`_correction_step`) mirror the per-cell scalar rule
    (:func:`_scalar_replay`) operation for operation, and every operation
    is per cell, so a cell's outcome does not depend on which other cells
    share the pass.

    Returns ``(pulses, correction, branches, pulse_time, effective,
    h_own)``: ``pulses`` marks cells that pulse; ``pulse_time`` is NaN
    elsewhere, and ``effective`` is meaningful where a cell pulses with a
    finite ``h_own``.
    """
    n, n_ev = ev_time.shape
    ev_own = np.zeros(ev_time.shape, dtype=bool)
    ev_own[:, 0] = True
    # Chronological event order in local time.  Rates are positive,
    # so sorting real arrivals sorts local times; the secondary key
    # puts own-copy events after neighbor events on ties, matching
    # the scalar sort key ``(time, kind != "neighbor")``.
    order = np.lexsort((ev_own, ev_time))
    local = rates[:, None] * np.take_along_axis(ev_time, order, axis=1)
    own_sorted = np.take_along_axis(ev_own, order, axis=1)
    is_event = np.isfinite(local)

    via_max = np.zeros(n, dtype=bool)
    if simplified:
        # Algorithm 1: wait for own + first + last neighbor
        # unconditionally; no do-until exit to replay.
        nb_event = is_event & ~own_sorted
        own_ok = np.isfinite(ev_time[:, 0])
        complete = own_ok & (nb_event.sum(axis=1) >= num_nb) & (num_nb > 0)
        with np.errstate(invalid="ignore"):
            h_own = np.where(own_ok, rates * ev_time[:, 0], np.inf)
            h_min = np.where(nb_event, local, np.inf).min(axis=1)
            h_max = np.where(nb_event, local, -np.inf).max(axis=1)
            exit_tau = np.maximum(h_own, h_max)
        pulses = complete
    else:
        # Algorithm 3: replay the do-until loop for every cell at
        # once, one event *position* per step.
        kappa = params.kappa
        vartheta = params.vartheta
        h_own = np.full(n, np.inf)
        h_min = np.full(n, np.inf)
        h_max = np.full(n, np.inf)
        received = np.zeros(n, dtype=np.int64)
        exit_tau = np.zeros(n)
        done = np.zeros(n, dtype=bool)
        with np.errstate(invalid="ignore"):
            for j in range(n_ev):
                live = is_event[:, j] & ~done
                if not live.any():
                    # Events are sorted, +inf-padded to the right:
                    # nothing live here means nothing live later.
                    break
                t = local[:, j]
                upd_own = live & own_sorted[:, j]
                upd_nb = live & ~own_sorted[:, j]
                h_own = np.where(upd_own, np.minimum(h_own, t), h_own)
                received = received + upd_nb
                h_min = np.where(upd_nb & (received == 1), t, h_min)
                h_max = np.where(upd_nb & (received == num_nb), t, h_max)
                # The earliest local exit time given the registers
                # known after event j (see _replay_full).
                own_inf = np.isinf(h_own)
                max_inf = np.isinf(h_max)
                req_own = np.where(
                    own_inf,
                    h_max + kappa / 2.0 + vartheta * kappa,
                    -np.inf,
                )
                req_nb = np.where(
                    max_inf,
                    2.0 * h_own - h_min + 2.0 * kappa,
                    -np.inf,
                )
                required = np.maximum(t, np.maximum(req_own, req_nb))
                can_exit = live & np.isfinite(h_min) & ~(own_inf & max_inf)
                next_t = (
                    local[:, j + 1] if j + 1 < n_ev else np.full(n, np.inf)
                )
                exits = can_exit & (required < next_t)
                exit_tau = np.where(exits, required, exit_tau)
                via_max = via_max | (exits & own_inf)
                done = done | exits
        pulses = done

    # Outcomes.  Cells that never exit stay "none" (NaN correction, no
    # pulse); via-H_max cells anchor on H_max; the rest run the
    # correction rule on their frozen registers.
    correction = np.full(n, np.nan)
    branch_codes = np.full(n, BRANCH_CODES["none"], dtype=np.int8)
    normal = pulses & ~via_max
    if normal.any():
        corr, br = _correction_step(h_own, h_min, h_max, params, policy)
        correction = np.where(normal, corr, correction)
        branch_codes = np.where(normal, br, branch_codes)
    with np.errstate(invalid="ignore"):
        target = h_own + params.Lambda - params.d - correction
        pulse_local = np.maximum(target, exit_tau)
        if via_max.any():
            vm_local = np.maximum(
                h_max + 1.5 * params.kappa + params.Lambda - params.d,
                exit_tau,
            )
            pulse_local = np.where(via_max, vm_local, pulse_local)
            branch_codes = np.where(
                via_max, np.int8(BRANCH_CODES["via_max"]), branch_codes
            )
        pulse_time = np.where(pulses, pulse_local / rates, np.nan)
        effective = h_own + params.Lambda - params.d - rates * pulse_time
    return pulses, correction, branch_codes, pulse_time, effective, h_own


def _scalar_replay(
    ev_time: np.ndarray,
    num_nb: np.ndarray,
    rates: np.ndarray,
    params: Parameters,
    policy: CorrectionPolicy,
    simplified: bool,
) -> Tuple[np.ndarray, ...]:
    """Per-cell scalar reference of :func:`_fallback_replay`.

    Same arguments and return tuple, but each cell's loop runs on its
    own in plain Python floats, with
    :func:`~repro.core.correction.compute_correction` as the correction
    rule: the independent reference the tests and benchmarks compare the
    kernel and the batched replay against.  Tests reach it through one seam: patch
    ``repro.core.fast_batch._kernel_cells`` to :func:`numpy.zeros_like`
    and ``repro.core.fast_batch._fallback_replay`` to this function, so
    every cell of a normal run goes through it.  Numeric fields of
    ``params``/``policy`` may be one value per cell.
    """
    n = ev_time.shape[0]
    pulses = np.zeros(n, dtype=bool)
    correction = np.full(n, np.nan)
    branch_codes = np.full(n, BRANCH_CODES["none"], dtype=np.int8)
    pulse_time = np.full(n, np.nan)
    effective = np.full(n, np.nan)
    h_own_out = np.full(n, np.inf)

    def at(value, i):
        return float(value[i]) if np.ndim(value) else value

    replay = _replay_simplified if simplified else _replay_full
    for i in range(n):
        kappa = at(params.kappa, i)
        vartheta = at(params.vartheta, i)
        lam = at(params.Lambda, i)
        d = at(params.d, i)
        rate = float(rates[i])
        cell_policy = (
            policy
            if isinstance(policy, CorrectionPolicy)
            else CorrectionPolicy(
                policy.discretize, at(policy.jump_slack, i), policy.stick_to_median
            )
        )
        own = float(ev_time[i, 0])
        own_arrival = own if math.isfinite(own) else None
        neighbor_arrivals = sorted(
            float(t) for t in ev_time[i, 1:] if math.isfinite(t)
        )
        exit_local, corr, branch, h_own, h_max = replay(
            own_arrival, neighbor_arrivals, int(num_nb[i]), rate,
            kappa, vartheta, cell_policy,
        )
        h_own_out[i] = h_own
        if exit_local is None:
            continue
        correction[i] = corr
        branch_codes[i] = BRANCH_CODES[branch]
        if branch == "via_max":
            # Algorithm 3's "H(t) = H_max + k/2 + vt*k" branch: the own
            # copy's message did not arrive in time; anchor on H_max.
            pulse_local = max(h_max + 1.5 * kappa + lam - d, exit_local)
        else:
            pulse_local = max(h_own + lam - d - corr, exit_local)
        pulses[i] = True
        pulse_time[i] = pulse_local / rate
        effective[i] = h_own + lam - d - rate * pulse_time[i]
    return pulses, correction, branch_codes, pulse_time, effective, h_own_out


def _replay_simplified(
    own_arrival, neighbor_arrivals, num_neighbors, rate, kappa, vartheta, policy
):
    """Algorithm 1: wait for own + first + last neighbor, then correct.

    Returns ``(exit_local, correction, branch, h_own, h_max)``;
    ``exit_local`` is None when the node deadlocks (a missing message,
    or no neighbor predecessor at all).
    """
    h_own = math.inf if own_arrival is None else rate * own_arrival
    if (
        own_arrival is None
        or num_neighbors == 0
        or len(neighbor_arrivals) < num_neighbors
    ):
        return None, math.nan, "none", h_own, math.inf
    h_min = rate * neighbor_arrivals[0]
    h_max = rate * neighbor_arrivals[-1]
    outcome = compute_correction(h_own, h_min, h_max, kappa, vartheta, policy)
    return max(h_own, h_max), outcome.correction, outcome.branch, h_own, h_max


def _replay_full(
    own_arrival, neighbor_arrivals, num_neighbors, rate, kappa, vartheta, policy
):
    """Algorithm 3: replay the do-until loop and branch on exit cause.

    Returns like :func:`_replay_simplified`; ``branch`` is ``"via_max"``
    when the own copy was still missing at exit.
    """
    # The chronological arrival events in *local* time; neighbors before
    # own on ties, like the batched replay.  The order inside a tie never
    # changes the outcome: the loop cannot exit before a next event at
    # the same time (``required < next_arrival`` is strict).
    events: List[Tuple[float, str]] = []
    if own_arrival is not None:
        events.append((rate * own_arrival, "own"))
    for arrival in neighbor_arrivals:
        events.append((rate * arrival, "neighbor"))
    events.sort(key=lambda e: (e[0], e[1] != "neighbor"))

    h_own = math.inf
    h_min = math.inf
    h_max = math.inf
    received = 0
    for i, (h_arrival, kind) in enumerate(events):
        if kind == "own":
            h_own = min(h_own, h_arrival)
        else:
            received += 1
            if received == 1:
                h_min = h_arrival
            if received == num_neighbors:
                h_max = h_arrival
        # The earliest local exit time given the receptions known now;
        # none while no neighbor message arrived, or while the own copy
        # and the last neighbor are both missing.
        if math.isinf(h_min) or (math.isinf(h_own) and math.isinf(h_max)):
            continue
        required = h_arrival
        if math.isinf(h_own):
            required = max(required, h_max + kappa / 2.0 + vartheta * kappa)
        if math.isinf(h_max):
            required = max(required, 2.0 * h_own - h_min + 2.0 * kappa)
        next_arrival = events[i + 1][0] if i + 1 < len(events) else math.inf
        if required < next_arrival:
            if math.isinf(h_own):
                return required, math.nan, "via_max", h_own, h_max
            # H_max may be +inf (last neighbor missing), which drives
            # the correction negative.
            outcome = compute_correction(
                h_own, h_min, h_max, kappa, vartheta, policy
            )
            return required, outcome.correction, outcome.branch, h_own, h_max
    # No neighbor message, or own copy and last neighbor both missing:
    # the loop never exits.  Only possible with >= 2 silent predecessors
    # (outside the fault model).
    return None, math.nan, "none", h_own, h_max


class FastResult:
    """Pulse-time matrices produced by :class:`FastSimulation`.

    Attributes
    ----------
    times:
        Array of shape ``(K, L, W)``: actual broadcast time of pulse ``k``
        at node ``(v, l)``.  ``NaN`` for faulty nodes (their messages are
        per-successor; see ``fault_sends``) and for nodes that never pulse.
    protocol_times:
        Same shape: the time each node pulses *when following the protocol
        on its actual inputs* -- equal to ``times`` for correct nodes, and
        the Lemma 4.30 reference point for faulty ones.
    corrections:
        Correction ``C_{v,l}`` chosen at each iteration (``NaN`` on layer 0,
        where no pulse happened, and in the via-``H_max`` branch, which does
        not compute a correction).
    effective_corrections:
        ``H_own + Lambda - d - H(pulse)``: the correction *effectively*
        applied relative to the own-copy reception, defined whenever the own
        message eventually arrived.  Equals ``corrections`` on the normal
        branch; in the via-``H_max`` branch it reconstructs the correction
        Lemma B.2 attributes to Algorithm 1.  This is the quantity the
        SC/FC/JC condition checkers consume.
    branches:
        ``int8`` codes per :data:`BRANCH_CODES`.
    fault_sends:
        ``{(faulty_node, successor): {pulse: send_time_or_None}}``.  A
        lazy view: the trial stack records the sends as arrays, and the
        dict is built from them on first access (and when the result is
        pickled).
    fallback_cells:
        How many of this trial's kernel-rejected cells the stack-wide
        batched fallback resolved.  Zero on fault-free runs that never
        hit a missing message or an early exit.
    fallback_batches:
        In how many (pulse, layer) steps this trial had any such cell:
        the per-trial count of fallback work, whatever stack the trial
        ran in.  The stack's own count of resolver calls is
        ``fallback_passes`` in
        :attr:`~repro.core.fast_batch.TrialStack.compaction_stats`.

    Every trial-stack run folds its statistics into ``streamed`` (a
    :class:`~repro.analysis.streaming.StreamedStats`, shared across a
    stack) with this trial's row in ``streamed_row``.  Streamed runs
    (``store_times=False``) keep only a two-layer ring of one pulse
    block of these matrices while running and never hand it to the
    result: the matrices are then ``None`` and the skew accessors below
    serve from ``streamed``.
    """

    def __init__(
        self,
        graph: LayeredGraph,
        params: Parameters,
        fault_plan: FaultPlan,
        num_pulses: int,
        allocate: bool = True,
    ) -> None:
        shape = (num_pulses, graph.num_layers, graph.width)
        self.graph = graph
        self.params = params
        self.fault_plan = fault_plan
        self.num_pulses = num_pulses
        if allocate:
            self.times = np.full(shape, np.nan)
            self.protocol_times = np.full(shape, np.nan)
            self.corrections = np.full(shape, np.nan)
            self.effective_corrections = np.full(shape, np.nan)
            self.branches = np.full(
                shape, BRANCH_CODES["none"], dtype=np.int8
            )
        else:
            # The trial stack attaches its own windows before the first
            # layer step (streamed runs attach none).
            self.times = None
            self.protocol_times = None
            self.corrections = None
            self.effective_corrections = None
            self.branches = None
        self._fault_sends: Optional[
            Dict[Tuple[NodeId, NodeId], Dict[int, Optional[float]]]
        ] = {}
        # Set by the trial stack on runs with faults: the run's recorded
        # sends and this trial's row in them (see ``fault_sends``).
        self._fault_log = None
        # Batched-fallback accounting (see the class docstring).
        self.fallback_cells = 0
        self.fallback_batches = 0
        # Set by campaign runs (:class:`~repro.faults.campaign.ChaosCampaign`):
        # the campaign the run executed under and its compiled accounting
        # (``CampaignSchedule.summary()``) -- epoch count, boundary pulses,
        # action count, last event pulse.  None for static runs.
        self.campaign = None
        self.churn_stats: Optional[dict] = None
        # Set by the trial-stacked runner: the shared (S, K, L_max, W_max)
        # block this result's matrices are windows of, plus this trial's
        # row.  BatchResult uses them to adopt the block without re-copying
        # (single-stack batches); everyone else can ignore them.
        self.stack_block = None
        self.stack_row: Optional[int] = None
        # Set by the trial stack: the folded statistics of the run (shared
        # across a stack) and this trial's row in their accumulators.
        self.streamed = None
        self.streamed_row: Optional[int] = None

    def __getstate__(self) -> dict:
        """Drop the shared-block backref when pickling.

        The per-trial matrices pickle as their own (window-sized) arrays;
        carrying ``stack_block`` too would serialize the whole ``S``-trial
        block once *per result* -- an ``S``-fold blowup on the process
        executor's return path.  ``streamed`` is *kept*: its accumulators
        are the entire payload of a streamed run, and pickle's memo
        serializes the shared object once per shard payload, not once per
        result.
        """
        state = self.__dict__.copy()
        state["stack_block"] = None
        state["stack_row"] = None
        # The recorded sends are shared by the whole stack: ship this
        # trial's dict instead.
        state["_fault_sends"] = self.fault_sends
        state["_fault_log"] = None
        return state

    @property
    def fault_sends(
        self,
    ) -> Dict[Tuple[NodeId, NodeId], Dict[int, Optional[float]]]:
        """``{(faulty_node, successor): {pulse: send_time_or_None}}``.

        Built on first access from the stack's recorded send arrays.
        """
        if self._fault_sends is None:
            log, row = self._fault_log
            self._fault_sends = log.sends_of(row)
        return self._fault_sends

    @cached_property
    def faulty_mask(self) -> np.ndarray:
        """Boolean array ``(L, W)``: True where the node is faulty.

        Computed once and cached -- analysis code reads it inside loops.
        """
        return self.fault_plan.faulty_mask(self.graph)

    def pulse_time(self, node: NodeId, pulse: int) -> float:
        """Broadcast time (NaN if none); convenience accessor."""
        v, layer = node
        return float(self.times[pulse, layer, v])

    # Convenience delegates into the analysis package (lazy import to keep
    # the dependency direction core <- analysis).  Streamed results (no
    # materialized ``times``) serve the same numbers -- bitwise, see
    # :mod:`repro.analysis.streaming` -- from their accumulators.
    def local_skew(self, layer: int) -> float:
        """Measured ``L_layer`` over all recorded pulses."""
        if self.times is None:
            from repro.analysis.streaming import StreamedStats

            values = StreamedStats.of(self).trial_values(
                "local", self.streamed_row
            )
            return float(values[layer])
        from repro.analysis.skew import local_skew_per_layer

        return local_skew_per_layer(self)[layer]

    def max_local_skew(self) -> float:
        """Measured ``sup_l L_l``."""
        if self.times is None:
            from repro.analysis.streaming import StreamedStats

            values = StreamedStats.of(self).trial_values(
                "local", self.streamed_row
            )
            return float(np.max(values))
        from repro.analysis.skew import max_local_skew

        return max_local_skew(self)

    def global_skew(self) -> float:
        """Measured global skew ``max_l Psi^0``-style same-layer spread."""
        if self.times is None:
            from repro.analysis.streaming import StreamedStats

            values = StreamedStats.of(self).trial_values(
                "global", self.streamed_row
            )
            return float(np.max(values))
        from repro.analysis.skew import global_skew

        return global_skew(self)


class FastSimulation:
    """Closed-form grid simulation (see module docstring).

    Parameters
    ----------
    graph:
        The layered graph ``G``.
    params:
        Timing parameters.
    delay_model:
        Edge delays; default uniform midpoint ``d - u/2``.
    clock_rates:
        Per-node hardware clock rates in ``[1, vartheta]``: a mapping keyed
        by node (a dict, or a :class:`RatePlane` the kernel reads without
        a per-node loop), a callable ``(node, pulse) -> rate`` (rates may
        change between pulses for Corollary 1.5 runs), or None for rate 1
        everywhere.
    fault_plan:
        The faulty set and behaviours.
    layer0:
        Layer-0 pulse schedule; default :class:`PerfectLayer0`.
    policy:
        Correction-rule ablation knobs.
    algorithm:
        ``"full"`` (Algorithm 3) or ``"simplified"`` (Algorithm 1: waits for
        all predecessors; deadlocks on crashed predecessors exactly as the
        paper warns).
    campaign:
        Optional :class:`~repro.faults.campaign.ChaosCampaign` over the
        same base graph: the run compiles it into per-epoch adjacency +
        fault state and, at epoch boundaries only, re-gathers the
        stack's neighbor tensors from the epoch's own graph and plan
        (the simulation's ``graph`` and ``fault_plan`` never change).
        ``fault_plan`` stays the *static* plan every epoch merges over.
        The layer-0 schedule is gathered once from the seed topology;
        membership changes silence a vertex's column via per-epoch crash
        masks rather than rewriting history.
    """

    def __init__(
        self,
        graph: LayeredGraph,
        params: Parameters,
        delay_model: Optional[DelayModel] = None,
        clock_rates: RateProvider = None,
        fault_plan: Optional[FaultPlan] = None,
        layer0: Optional[Layer0Schedule] = None,
        policy: CorrectionPolicy = PAPER_POLICY,
        algorithm: str = "full",
        campaign: Optional["ChaosCampaign"] = None,
    ) -> None:
        if algorithm not in ("full", "simplified"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if campaign is not None:
            if campaign.base.num_nodes != graph.base.num_nodes or (
                campaign.base.adjacency != graph.base.adjacency
            ):
                raise ValueError(
                    "campaign's seed base graph does not match the "
                    "simulation's base graph"
                )
            if campaign.num_layers != graph.num_layers:
                raise ValueError(
                    f"campaign compiled for {campaign.num_layers} layers, "
                    f"simulation has {graph.num_layers}"
                )
        self.graph = graph
        self.params = params
        self.delay_model = delay_model or UniformDelayModel(params.d, params.u)
        self.fault_plan = fault_plan or FaultPlan.none()
        self.layer0 = layer0 or PerfectLayer0(params.Lambda)
        self.policy = policy
        self.algorithm = algorithm
        self.campaign = campaign
        # A pulse-invariant model's per-layer *delay* arrays are cached on
        # the model itself (see :class:`~repro.delays.models.DelayModel`), so they
        # survive simulation reconstruction -- a batch sweep rebuilding
        # one FastSimulation per trial per run gathers a trial's delays
        # once per model, all its layers in one call.
        self._rates = clock_rates

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        num_pulses: int,
        store_times: bool = True,
    ) -> FastResult:
        """Simulate ``num_pulses`` pulses through all layers.

        The run is a :class:`~repro.core.fast_batch.TrialStack` of one,
        so its result is a frozen snapshot like every stacked result
        (read-only matrices, ``stack_row == 0``), and it advances the
        same pulse blocks as any stack (see
        :mod:`repro.core.fast_batch`).  The run folds its statistics
        online, one (block, layer) step at a time, into
        ``result.streamed`` (a
        :class:`~repro.analysis.streaming.StreamedStats`).  With
        ``store_times=False`` it keeps only a two-layer ring of one
        pulse block of the result matrices -- memory O(B, W) for a block
        of ``B`` pulses instead of O(K, L, W) -- releasing even that at
        the end: the returned result serves its skew accessors from
        ``result.streamed`` (bitwise identical to the materialized
        reducers).
        """
        # Local import: fast_batch builds on this module.
        from repro.core.fast_batch import TrialStack

        return TrialStack([self]).run(num_pulses, store_times)[0]


class _FaultRows(NamedTuple):
    """One trial's faulty senders (see :attr:`_VectorSweep.fault_rows`)."""

    vertices: np.ndarray
    layers: np.ndarray
    behaviors: List[FaultBehavior]
    #: ``(R, D)`` neighbor successor vertices, valid where ``valid``.
    neighbors: np.ndarray
    valid: np.ndarray
    #: ``(R, D)`` CSR entries of the copies those successors receive.
    entries: np.ndarray


class _VectorSweep:
    """One trial's index/mask structures for the stacked layer step.

    Built by every :meth:`repro.core.fast_batch.TrialStack.run` once per
    trial (the fault plan may change between runs), from the
    simulation's ``graph`` and ``fault_plan``, and once per campaign
    epoch state, from the epoch's own graph and plan.  Neighbor copies
    are laid out on the graph's CSR entry axis
    (:meth:`~repro.topology.base_graph.BaseGraph.neighbor_csr`: vertex
    ``v``'s copies at ``indptr[v] + j``, one per sorted neighbor).  The
    sweep reads the simulation's delay model and rates and writes
    nothing to it.  The rate plane is cached on the sweep, so once per
    run (a :class:`RatePlane` provider's own plane, so nothing is
    rebuilt); a pulse-invariant model's delay arrays are cached on the
    *delay model* (keyed by edge structure and layer), so they survive
    simulation reconstruction and are never re-gathered for the same
    model.  Every gather is one block query with int64 vertex and layer
    arrays (:meth:`~repro.delays.models.DelayModel.pulse_delays`).
    """

    def __init__(
        self, sim: FastSimulation, graph: LayeredGraph, fault_plan: FaultPlan
    ) -> None:
        self.sim = sim
        self.graph = graph
        base = graph.base
        width = base.num_nodes
        self.width = width
        self.indptr, self.indices = base.neighbor_csr()
        self.degree = np.diff(self.indptr)
        # Identifies the edge set the delay gathers cover: two graphs with
        # equal width and adjacency query exactly the same edge tuples, so
        # they may share a delay model's array cache.
        self.edge_signature = (width, base.adjacency)
        self.num_layers = graph.num_layers
        self.fault_plan = fault_plan
        faulty = fault_plan.faulty_mask(graph)
        self.faulty = faulty
        # has_faulty_pred[l - 1] flags nodes of layer ``l`` with a faulty
        # own-copy or neighbor-copy predecessor on layer ``l - 1``.
        prev = faulty[:-1]
        has_faulty_pred = prev.copy()
        if faulty.any():
            layers, entries = np.nonzero(prev[:, self.indices])
            has_faulty_pred[layers, self.owner[entries]] = True
        self.static_eligible = (self.degree > 0)[None, :] & ~has_faulty_pred

    @cached_property
    def owner(self) -> np.ndarray:
        """The vertex each CSR entry belongs to (the copy's receiver)."""
        return np.repeat(np.arange(self.width, dtype=np.int64), self.degree)

    def entries_on(self, indptr: np.ndarray) -> np.ndarray:
        """Where this sweep's CSR entries sit on an entry axis that starts
        vertex ``v``'s copies at ``indptr[v]`` (a padded stack's union
        axis, with at least this graph's degree at every vertex)."""
        shift = indptr[: self.width] - self.indptr[:-1]
        return np.arange(self.indices.size) + np.repeat(shift, self.degree)

    @cached_property
    def _edge_ends(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)`` vertex ids of every own-copy then
        neighbor-copy edge into a layer, in the gathered arrays' order."""
        own = np.arange(self.width, dtype=np.int64)
        return (
            np.concatenate((own, self.indices)),
            np.concatenate((own, self.owner)),
        )

    @cached_property
    def fault_rows(self) -> Optional[_FaultRows]:
        """The trial's faulty senders and where their sends land.

        One row per faulty node ``(v, l)`` below the last layer (a
        last-layer node has no successors), in ``(l, v)`` order.
        ``graph.successors((v, l))`` lists the own copy, then
        ``(w, l + 1)`` for each neighbor ``w`` of ``v`` in sorted order;
        the message to ``(w, l + 1)`` is the copy of ``v`` among ``w``'s
        neighbors, CSR entry ``entries[r, j]`` one layer up.  None
        without faults.
        """
        layers, vertices = np.nonzero(self.faulty[:-1])
        if not vertices.size:
            return None
        plan = self.fault_plan
        indptr, indices = self.indptr, self.indices
        # Adjacency is symmetric and sorted, so the entries sorted by
        # (target, source) list the reverse of CSR entry i at i.
        reverse = np.lexsort((self.owner, indices))
        start = indptr[vertices]
        degree = indptr[vertices + 1] - start
        columns = np.arange(int(degree.max()))
        valid = columns < degree[:, None]
        entry = np.minimum(start[:, None] + columns, indices.shape[0] - 1)
        return _FaultRows(
            vertices=vertices,
            layers=layers,
            behaviors=[
                plan.behavior((v, layer))
                for layer, v in zip(layers.tolist(), vertices.tolist())
            ],
            neighbors=indices[entry],
            valid=valid,
            entries=reverse[entry],
        )

    def delay_arrays(self, layer: int, pulses: range) -> Tuple[np.ndarray, np.ndarray]:
        """Own-copy ``(P, W)`` and neighbor-copy ``(P, E)`` delays of one
        layer over ``pulses``; ``P`` is 1 on a pulse-invariant model.

        Neighbor delays follow the CSR entry axis.  A pulse-invariant
        model's arrays are cached on the model keyed by the edge
        structure and layer, so rebuilt simulations over the same model
        gather nothing.  A miss gathers the requested layer together
        with every missing layer above it, whole layers up to
        :data:`_GATHER_BLOCK_EDGES` edges at a time: a sweep's first
        layer step fills a small trial's every layer in one block query.
        A pulse-varying model is asked once per layer and pulse block
        and keeps only its own per-edge memo.
        """
        model = self.sim.delay_model
        if not model.pulse_invariant:
            return self._gather(model, [layer], pulses)[0]
        cache = model._edge_array_cache.setdefault(self.edge_signature, {})
        cached = cache.get(layer)
        if cached is None:
            missing = [at for at in range(layer, self.num_layers) if at not in cache]
            per_call = _GATHER_BLOCK_EDGES // max(1, len(self._edge_ends[0]))
            missing = missing[: max(1, per_call)]
            for at, arrays in zip(missing, self._gather(model, missing, pulses)):
                cache[at] = arrays
            cached = cache[layer]
        return cached

    def _gather(
        self, model: DelayModel, layers: List[int], pulses: range
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Every edge into each of ``layers`` over ``pulses`` in one
        :meth:`~repro.delays.models.DelayModel.pulse_delays` query (layers
        as an int64 array); one ``(own, nb)`` pair per layer."""
        sources, targets = self._edge_ends
        count = len(layers)
        tops = np.repeat(np.array(layers, dtype=np.int64), sources.shape[0])
        values = model.pulse_delays(
            ((np.tile(sources, count), tops - 1), (np.tile(targets, count), tops)),
            pulses,
        ).reshape(-1, count, sources.shape[0])
        return [
            (values[:, at, : self.width], values[:, at, self.width:])
            for at in range(count)
        ]

    def rate_array(self, layer: int, pulses: range) -> np.ndarray:
        """Hardware clock rates of the layer's nodes over ``pulses``:
        ``(P, W)``, with ``P`` 1 for a static provider.

        Static providers read a row of :attr:`rate_plane`: a plain dict is
        re-read into it each run, a :class:`RatePlane` is not.  Callable
        providers are queried per node and pulse.
        """
        rates = self.sim._rates
        if callable(rates):
            return np.array(
                [[float(rates((v, layer), k)) for v in range(self.width)] for k in pulses]
            )
        return self.rate_plane[layer, None]

    @cached_property
    def rate_plane(self) -> np.ndarray:
        """The ``(L, W)`` rates of a static provider (none or a mapping).

        A :class:`RatePlane` of the graph's shape is used as-is: it is
        immutable, so no run rebuilds it.  Plain mappings are re-read into
        a fresh plane by every run's sweep, so in-place edits of a rates
        dict between runs are honored; a missing node runs at rate 1.
        """
        rates = self.sim._rates
        shape = (self.num_layers, self.width)
        if rates is None:
            return np.ones(shape)
        if isinstance(rates, RatePlane) and rates.plane.shape == shape:
            return rates.plane
        return np.fromiter(
            map(rates.get, self.graph.nodes(), repeat(1.0)),
            dtype=float,
            count=shape[0] * shape[1],
        ).reshape(shape)
