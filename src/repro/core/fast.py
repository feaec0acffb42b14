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
   edge delay); faulty predecessors' send times come from their
   :class:`~repro.faults.model.FaultBehavior` (``None`` = silent).
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
one pulse of one layer for **all** base vertices of all its trials at
once with NumPy array operations (reception times, do-until exit,
correction, pulse time), which is what makes large parameter sweeps
tractable.  The arithmetic lives in the shape-generic
:func:`_layer_step_kernel` (and its CSR twin); both algorithms run
through it:

* Under the **full** Algorithm 3 semantics the kernel covers exactly the
  executions in which the do-until loop exits at the *final* arrival with
  every register filled -- the fault-free/normal-branch path.  A cell is
  resolved by the stack-wide batched fallback
  (:meth:`~repro.core.fast_batch.TrialStack._run_fallback`, replaying
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
from itertools import chain, repeat
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.correction import CorrectionPolicy, PAPER_POLICY, compute_correction
from repro.core.layer0 import Layer0Schedule, PerfectLayer0
from repro.delays.models import DelayModel, UniformDelayModel
from repro.faults.campaign import CampaignEpoch, ChaosCampaign
from repro.faults.injection import FaultPlan
from repro.faults.model import FaultContext
from repro.params import Parameters
from repro.topology.layered import LayeredGraph, NodeId

__all__ = ["FastSimulation", "FastResult", "BRANCH_CODES"]

#: Encoding of the branch that produced each pulse (see :class:`FastResult`).
BRANCH_CODES = {
    "mid": 0,
    "low": 1,
    "high": 2,
    "via_max": 3,
    "none": 4,
    "layer0": 5,
}

RateProvider = Union[None, Dict[NodeId, float], Callable[[NodeId, int], float]]

#: Most edges one array-valued ``delay`` call gathers: a delay-cache miss
#: covers whole layers up to this many edges, so a D = 32 trial (~3.3k
#: edges) replays all its delays in one call while the replay's uint64
#: temporaries stay bounded on 10^5-node graphs (one layer per call).
_GATHER_BLOCK_EDGES = 1 << 16


def _prefer_csr(base) -> bool:
    """Density heuristic: should this base graph default to the CSR kernel?

    The dense padded tensors cost ``O(W * max_deg)`` per layer step while
    CSR costs ``O(nnz)`` (``nnz = 2m``).  CSR wins when the padding waste
    is at least 2x *and* the graph is big enough for the segment-reduce
    overhead to amortize; regular small graphs (cycles, completes, tori --
    padding ratio 1.0) stay dense.
    """
    width = base.num_nodes
    if width == 0:
        return False
    padded = width * max(base.max_degree(), 1)
    nnz = 2 * len(base.edges)
    return padded >= 4096 and 2 * nnz <= padded


def _neighbor_backend(base) -> str:
    """The neighbor representation the density heuristic picks for ``base``."""
    return "csr" if _prefer_csr(base) else "dense"


def _correction_step(
    h_own: np.ndarray,
    h_min: np.ndarray,
    h_max: np.ndarray,
    params: Parameters,
    policy: CorrectionPolicy,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized correction rule: ``compute_correction`` over a plane.

    Mirrors :func:`repro.core.correction.compute_correction`
    operation-for-operation on finite registers, so eligible kernel
    lanes and batched-fallback cells compute bit-identical floats to the
    scalar rule.  Lanes with ``H_max = +inf`` (last neighbor missing --
    reachable only through the batched fallback) reproduce the scalar
    ``raw_delta`` convention: their delta is ``-inf``, forcing the low
    branch; the formulae below would produce NaN via ``inf - inf``
    instead, so the convention is pinned explicitly.  Returns
    ``(correction, branches)``.
    """
    kappa = params.kappa
    vartheta = params.vartheta
    kappa_stacked = np.ndim(kappa) > 0

    with np.errstate(invalid="ignore", divide="ignore"):
        a = h_own - h_max
        b = h_own - h_min
        if policy.discretize:
            if not kappa_stacked and kappa == 0.0:
                delta = b
            else:
                # s_star >= 0 on every eligible lane (h_max >= h_min),
                # so the scalar path's max(0, .) clamps are no-ops.
                s_star = (h_max - h_min) / (8.0 * kappa)
                s_floor = np.floor(s_star)
                s_ceil = np.ceil(s_star)
                delta = (
                    np.minimum(
                        np.maximum(
                            a + 4.0 * s_floor * kappa,
                            b - 4.0 * s_floor * kappa,
                        ),
                        np.maximum(
                            a + 4.0 * s_ceil * kappa,
                            b - 4.0 * s_ceil * kappa,
                        ),
                    )
                    - kappa / 2.0
                )
                if kappa_stacked:
                    # kappa == 0 lanes divided by zero above; give them the
                    # scalar path's kappa == 0 answer instead.
                    delta = np.where(kappa == 0.0, b, delta)
        else:
            delta = h_own - (h_max + h_min) / 2.0 - kappa / 2.0
        delta = np.where(np.isinf(h_max), -np.inf, delta)

        upper = vartheta * kappa
        damp = policy.jump_slack * kappa
        low = delta < 0.0
        high = delta > upper
        if policy.stick_to_median:
            corr_low = np.minimum(h_own - h_min + kappa / 2.0 + damp, 0.0)
            corr_high = np.maximum(h_own - h_max - kappa / 2.0 - damp, upper)
        else:
            corr_low = np.zeros_like(delta)
            corr_high = np.broadcast_to(
                np.asarray(upper, dtype=float), delta.shape
            )
        correction = np.where(low, corr_low, np.where(high, corr_high, delta))
        branches = np.where(
            low,
            BRANCH_CODES["low"],
            np.where(high, BRANCH_CODES["high"], BRANCH_CODES["mid"]),
        ).astype(np.int8)
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eligibility, correction, and pulse time from the filled registers.

    The back half of the layer step, shared verbatim by the dense padded
    kernel (:func:`_layer_step_kernel`) and the CSR segment-reduce kernel
    (:func:`_layer_step_kernel_csr`): once ``H_own``/``H_min``/``H_max``
    are gathered, the two representations are indistinguishable -- every
    operation here is elementwise over the ``(..., W)`` plane, so equal
    registers produce bit-identical outputs regardless of how the
    neighbor reduction was evaluated.
    """
    kappa = params.kappa
    vartheta = params.vartheta

    with np.errstate(invalid="ignore", divide="ignore"):
        eligible = static_eligible & np.isfinite(h_own + h_min + h_max)
        if not simplified:
            eligible = (
                eligible
                & (h_own <= h_max + kappa / 2.0 + vartheta * kappa)
                & (h_max <= 2.0 * h_own - h_min + 2.0 * kappa)
            )

        correction, branches = _correction_step(
            h_own, h_min, h_max, params, policy
        )

        exit_tau = np.maximum(h_own, h_max)
        target = h_own + params.Lambda - params.d - correction
        pulse_local = np.maximum(target, exit_tau)
        pulse_time = pulse_local / rate
        effective = h_own + params.Lambda - params.d - rate * pulse_time

    return eligible, correction, branches, pulse_time, effective


def _layer_step_kernel(
    prev: np.ndarray,
    own_delay: np.ndarray,
    nb_delay: np.ndarray,
    rate: np.ndarray,
    nb_idx: np.ndarray,
    nb_valid: np.ndarray,
    static_eligible: np.ndarray,
    params: Parameters,
    policy: CorrectionPolicy,
    simplified: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pulse of one layer for every cell of a ``(..., W)`` plane.

    The shape-generic arithmetic behind the trial-stacked ``(S, W)``
    layer step (:class:`repro.core.fast_batch.TrialStack`): every
    operation broadcasts over the leading axes, so a row of the stack
    evaluates *the same* NumPy expressions as a ``(W,)`` call and
    eligible cells produce bit-identical floats.  Formulae mirror the
    scalar replay (:func:`_scalar_replay`) operation-for-operation.

    ``prev`` holds the previous layer's send times (NaN = missing);
    ``static_eligible`` is the precomputed fault-structure part of the
    eligibility mask for this layer.  Returns ``(eligible, correction,
    branches, pulse_time, effective_correction)``; only entries where
    ``eligible`` is True are meaningful -- the rest are resolved by the
    caller through the exact batched fallback.

    Two generalizations serve the heterogeneous trial stack of
    :mod:`repro.core.fast_batch`:

    * ``nb_idx``/``nb_valid`` may carry a leading trial axis (shape
      ``(S, W, max_deg)``): each trial then gathers through its *own*
      padded index rows (``prev[s, nb_idx[s, v, j]]``) instead of one
      shared index table.  Padded lanes are masked by ``nb_valid`` and
      padded cells stay NaN end-to-end, so they can never turn eligible.
    * the numeric fields of ``params`` (``kappa``, ``vartheta``,
      ``Lambda``, ``d``) and ``policy`` (``jump_slack``) may be
      per-trial ``(S, 1)`` columns instead of scalars; every use is
      elementwise, so lanes compute bit-identical floats to a scalar
      call with their own value.  The *structural* policy switches
      (``discretize``, ``stick_to_median``) select Python-level branches
      and must be plain bools (uniform across the stack).

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
    own_arrival = prev + own_delay
    h_own = rate * own_arrival
    # Padded gather + delay + rate product + masked min/max.  A 3-D
    # ``nb_idx`` gathers row ``s`` only from trial ``s``'s plane.
    if nb_idx.ndim == 3:
        gathered = np.take_along_axis(
            prev, nb_idx.reshape(nb_idx.shape[0], -1), axis=-1
        ).reshape(nb_idx.shape)
    else:
        # ``take`` gathers like ``prev[..., nb_idx]`` with less
        # per-call overhead (this runs once per layer step).
        gathered = prev.take(nb_idx, axis=-1)
    nb_arrival = gathered + nb_delay
    h_nb = rate[..., None] * nb_arrival
    h_min = np.where(nb_valid, h_nb, np.inf).min(axis=-1)
    h_max = np.where(nb_valid, h_nb, -np.inf).max(axis=-1)

    return _registers_step(
        h_own, h_min, h_max, rate, static_eligible, params, policy, simplified
    )


def _layer_step_kernel_csr(
    prev: np.ndarray,
    own_delay: np.ndarray,
    nb_delay: np.ndarray,
    rate: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    owner: np.ndarray,
    has_neighbors: np.ndarray,
    static_eligible: np.ndarray,
    params: Parameters,
    policy: CorrectionPolicy,
    simplified: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR variant of :func:`_layer_step_kernel`: reduce over edge segments.

    Instead of gathering through padded ``(..., W, max_deg)`` tensors,
    the neighbor reduction walks the base graph's
    :meth:`~repro.topology.base_graph.BaseGraph.neighbor_csr` arrays:
    per-entry arrivals are gathered along the flat ``(..., nnz)`` edge
    axis (``owner[j]`` maps entry ``j`` back to its destination vertex
    for the rate product) and ``H_min``/``H_max`` come from
    ``np.minimum.reduceat`` / ``np.maximum.reduceat`` at the segment
    starts.  Per-step memory is ``O(nnz)`` instead of ``O(W * max_deg)``,
    so a single hub vertex no longer pads every row.

    Bit-exactness: min/max over the *same value set* (each vertex's
    segment holds exactly its valid padded lane values, in the same
    sorted-neighbor order) are exact regardless of evaluation order, and
    NaN (a missing predecessor) propagates through ``reduceat`` exactly
    as through the masked dense reduction, so eligible cells match the
    dense kernel bitwise.  Empty segments (degree-0 vertices; only in
    campaign epoch graphs) get the dense path's identity values --
    ``+inf`` / ``-inf`` -- explicitly, since ``reduceat`` has no empty
    reduction: their start index is clamped into range and the garbage
    overwritten.  Such cells are statically ineligible anyway.
    """
    own_arrival = prev + own_delay
    h_own = rate * own_arrival
    nnz = indices.shape[0]
    lead = prev.shape[:-1]
    if nnz == 0:
        h_min = np.full(lead + (indptr.shape[0] - 1,), np.inf)
        h_max = np.full(lead + (indptr.shape[0] - 1,), -np.inf)
    else:
        nb_arrival = prev.take(indices, axis=-1) + nb_delay
        h_nb = rate.take(owner, axis=-1) * nb_arrival
        starts = np.minimum(indptr[:-1], nnz - 1)
        h_min = np.minimum.reduceat(h_nb, starts, axis=-1)
        h_max = np.maximum.reduceat(h_nb, starts, axis=-1)
        if not has_neighbors.all():
            h_min[..., ~has_neighbors] = np.inf
            h_max[..., ~has_neighbors] = -np.inf

    return _registers_step(
        h_own, h_min, h_max, rate, static_eligible, params, policy, simplified
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
        ``{(faulty_node, successor): {pulse: send_time_or_None}}``.
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

    Streamed runs (``store_times=False``) keep only a rolling one-pulse
    window of these matrices while running and release even that at the
    end: the matrices are then ``None`` and the statistics live in
    ``streamed`` (a :class:`~repro.analysis.streaming.StreamedStats`,
    shared across a stack) with this trial's row in ``streamed_row``.
    The skew accessors below transparently serve from it.
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
            # The trial stack attaches its own windows (or rolling
            # one-pulse planes) before the first layer step.
            self.times = None
            self.protocol_times = None
            self.corrections = None
            self.effective_corrections = None
            self.branches = None
        self.fault_sends: Dict[Tuple[NodeId, NodeId], Dict[int, Optional[float]]] = {}
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
        # Set by streamed runs: the folded statistics of the run (shared
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
        return state

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
        Per-node hardware clock rates in ``[1, vartheta]``: a dict keyed by
        node, a callable ``(node, pulse) -> rate`` (rates may change between
        pulses for Corollary 1.5 runs), or None for rate 1 everywhere.
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
        fault state and swaps graph/plan (re-gathering the stack's
        neighbor tensors) at epoch boundaries only.  ``fault_plan``
        stays the *static* plan every epoch merges over.  The layer-0
        schedule is gathered once from the seed topology; membership
        changes silence a vertex's column via per-epoch crash masks rather
        than rewriting history.

    Notes
    -----
    The stacked kernel reduces over padded ``(W, max_deg)`` neighbor
    tensors, or over the base graph's
    :meth:`~repro.topology.base_graph.BaseGraph.neighbor_csr` segments
    when the density heuristic (:func:`_prefer_csr`) says padding
    dominates; both are bit-identical on eligible cells.
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
        self._rates = clock_rates
        # (L, W) rate plane of a static rate provider for the stacked
        # sweep, rebuilt every run so in-place edits of a rates dict
        # between runs are honored.  The per-layer *delay* arrays are
        # cached on the delay model itself (see
        # :class:`~repro.delays.models.DelayModel`), so they survive
        # simulation reconstruction -- a batch sweep rebuilding one
        # FastSimulation per trial per run gathers a trial's delays once
        # per model, all its layers in one call.
        self._rate_plane: Optional[np.ndarray] = None

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
        (read-only matrices, ``stack_row == 0``).  With
        ``store_times=False`` the run folds its statistics online, one
        layer plane at a time, into a
        :class:`~repro.analysis.streaming.StreamedStats`, and keeps only
        a rolling *one-pulse* window of the result matrices -- memory
        O(L, W) instead of O(K, L, W) -- releasing even that at the end:
        the returned result serves its skew accessors from
        ``result.streamed`` (bitwise identical to the materialized
        reducers).
        """
        # Local import: fast_batch builds on this module.
        from repro.core.fast_batch import TrialStack

        return TrialStack([self]).run(num_pulses, store_times)[0]

    def _begin_run(self, num_pulses: int) -> FastResult:
        """Validate, reset the per-run caches, and start an empty result.

        Called by the trial stack (:class:`repro.core.fast_batch.TrialStack`)
        for each of its simulations; the stack attaches window views of
        its own shared block as the result matrices.
        """
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {num_pulses}")
        self._rate_plane = None
        return FastResult(
            self.graph, self.params, self.fault_plan, num_pulses, allocate=False
        )

    def _enter_epoch(self, epoch: CampaignEpoch) -> None:
        """Swap in a campaign epoch's graph and fault state.

        Called at epoch boundaries only; between boundaries every pulse
        runs exactly the static machinery on the swapped state.  The
        layer-0 *schedule* (gathered by the trial stack from the seed
        base) is left alone -- an absent vertex's column is
        silenced by the epoch plan's crash mask, not by rewriting the
        schedule.  Rate caches survive (rates are keyed by node id, and
        the vertex set never changes); delay-array caches live on the
        delay model keyed by edge structure, so each distinct epoch
        topology gathers its arrays once and revisited topologies hit
        the cache.
        """
        self.graph = epoch.graph
        self.fault_plan = epoch.fault_plan

    def _record_fault_sends(
        self, result: FastResult, node: NodeId, k: int, correct_time: float
    ) -> List[Optional[float]]:
        """Record faulty ``node``'s pulse-``k`` sends in ``fault_sends``.

        Returns the send times (None = silent) in ``graph.successors``
        order -- own copy first, then the neighbor copies -- so the trial
        stack can also lay them out as arrays.
        """
        behavior = self.fault_plan.behavior(node)
        assert behavior is not None
        context = FaultContext(
            node=node, pulse=k, correct_time=correct_time, kappa=self.params.kappa
        )
        sends = []
        for successor in self.graph.successors(node):
            send = behavior.send_time(context, successor)
            result.fault_sends.setdefault((node, successor), {})[k] = send
            sends.append(send)
        return sends


class _VectorSweep:
    """One trial's index/mask structures for the stacked layer step.

    Built by :meth:`repro.core.fast_batch.TrialStack.run` once per trial
    and run (the fault plan may change between runs) and once per
    campaign epoch state, with the neighbor ``backend`` (``"dense"`` or
    ``"csr"``) the stack chose.  The rate plane is cached on the
    simulation per run; delay arrays are cached on the *delay model*
    (keyed by edge structure and layer/pulse), so they survive simulation
    reconstruction and are never re-gathered for the same model.  Block
    gathers pass int64 vertex arrays and per-edge gathers plain ``int``
    vertices, so delay models keyed or seeded by edge identity see
    exactly the edges of a per-edge ``delay`` query.
    """

    def __init__(self, sim: FastSimulation, backend: str) -> None:
        self.sim = sim
        graph = sim.graph
        base = graph.base
        self.base = base
        width = base.num_nodes
        self.width = width
        self.backend = backend
        self.nb_lists = [tuple(base.neighbors(v)) for v in base.nodes()]
        # Identifies the edge set the delay gathers cover: two graphs with
        # equal width and adjacency query exactly the same edge tuples, so
        # they may share a delay model's array cache.
        self.edge_signature = (width, tuple(self.nb_lists))
        self.num_layers = graph.num_layers
        self.max_deg = base.max_degree() if width else 0
        if self.backend == "csr":
            # CSR mode never materializes the O(W * max_deg) padded
            # tensors -- that allocation is exactly what it exists to
            # avoid on hub-skewed graphs.
            indptr, indices, _ = base.neighbor_csr()
            self.indptr = indptr
            self.indices = indices
            degrees = np.diff(indptr)
            self.owner = np.repeat(
                np.arange(width, dtype=np.int64), degrees
            )
            self.nb_idx = None
            self.nb_valid = None
            self.has_neighbors = degrees > 0
        else:
            self.indptr = None
            self.indices = None
            self.owner = None
            # Padded gather indices come from the graph's own cache
            # (adjacency is immutable), shared across trials, runs, and
            # stacks.
            self.nb_idx, self.nb_valid = base.neighbor_index_arrays()
            self.has_neighbors = self.nb_valid.any(axis=1)
        faulty = sim.fault_plan.faulty_mask(graph)
        self.faulty = faulty
        # has_faulty_pred[l - 1] flags nodes of layer ``l`` with a faulty
        # own-copy or neighbor-copy predecessor on layer ``l - 1``.
        prev = faulty[:-1]
        if not faulty.any():
            nb_faulty = np.zeros_like(prev)
        elif self.backend == "csr":
            nnz = self.indices.shape[0]
            if nnz == 0:
                nb_faulty = np.zeros_like(prev)
            else:
                vals = prev[:, self.indices].astype(np.uint8)
                starts = np.minimum(indptr[:-1], nnz - 1)
                seg = np.maximum.reduceat(vals, starts, axis=-1)
                seg[:, ~self.has_neighbors] = 0
                nb_faulty = seg.astype(bool)
        else:
            nb_faulty = (
                prev[:, self.nb_idx] & self.nb_valid[None, :, :]
            ).any(axis=2)
        self.has_faulty_pred = prev | nb_faulty
        self.static_eligible = self.has_neighbors[None, :] & ~self.has_faulty_pred
        #: ``(indptr, indices, reverse)`` CSR tables of the send slots;
        #: built on the first fault send.
        self._reverse: Optional[Tuple[np.ndarray, ...]] = None

    @cached_property
    def _edge_ends(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)`` vertex ids of every own-copy then
        neighbor-copy edge into a layer, in the gathered arrays' order."""
        own = np.arange(self.width, dtype=np.int64)
        if self.backend == "csr":
            sources, targets = self.indices, self.owner
        else:
            sources = self.nb_idx[self.nb_valid]
            targets = np.nonzero(self.nb_valid)[0]
        return np.concatenate((own, sources)), np.concatenate((own, targets))

    def send_slots(self, v: int) -> Tuple[np.ndarray, ...]:
        """Where vertex ``v``'s neighbor-copy sends land one layer up.

        ``graph.successors((v, l))`` lists the own copy, then ``(w, l + 1)``
        for each neighbor ``w`` of ``v`` in sorted order; the message to
        ``(w, l + 1)`` is the copy of ``v`` among ``w``'s neighbors.
        Returns the index of those slots in the neighbor-delay layout:
        ``(targets, positions)`` into a ``(W, max_deg)`` plane in dense
        mode, ``(entries,)`` into the ``(nnz,)`` edge vector in CSR mode.
        """
        if self._reverse is None:
            indptr, indices, _ = self.base.neighbor_csr()
            owner = np.repeat(
                np.arange(self.width, dtype=np.int64), np.diff(indptr)
            )
            # Adjacency is symmetric and sorted, so the entries sorted by
            # (target, source) list the reverse of CSR entry i at i.
            reverse = np.lexsort((owner, indices))
            self._reverse = (indptr, indices, reverse)
        indptr, indices, reverse = self._reverse
        segment = slice(indptr[v], indptr[v + 1])
        entries = reverse[segment]
        if self.backend == "csr":
            return (entries,)
        targets = indices[segment]
        return targets, entries - indptr[targets]

    def delay_arrays(self, layer: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Own-copy ``(W,)`` and neighbor-copy delays for one layer.

        Neighbor delays are ``(W, max_deg)`` padded in dense mode and a
        flat ``(nnz,)`` vector in CSR segment order in ``csr`` mode.
        Cached on the delay model keyed by the edge structure and layer
        (plus pulse unless the model is pulse-invariant), so rebuilt
        simulations over the same model gather nothing.  A miss gathers
        the requested layer together with every missing layer above it,
        whole layers up to :data:`_GATHER_BLOCK_EDGES` edges at a time:
        a sweep's first layer step fills a small trial's every layer in
        one array-valued ``delay`` call.  Models not subclassing
        :class:`~repro.delays.models.DelayModel` are gathered uncached,
        one layer at a time.
        """
        model = self.sim.delay_model
        model_cache = getattr(model, "_edge_array_cache", None)
        if model_cache is None:
            return self._gather(model, [layer], k)[0]
        per_pulse = not getattr(model, "pulse_invariant", False)
        csr = self.backend == "csr"

        def key(at: int) -> object:
            plain = (at, k) if per_pulse else at
            # CSR delays are a flat (nnz,) vector in segment order; keep
            # them on a distinct cache key so dense and CSR consumers of
            # the same model never hand each other the wrong shape.
            return ("csr", plain) if csr else plain

        cache = model_cache.setdefault(self.edge_signature, {})
        cached = cache.get(key(layer))
        if cached is None:
            missing = [
                at for at in range(layer, self.num_layers) if key(at) not in cache
            ]
            per_call = _GATHER_BLOCK_EDGES // max(1, len(self._edge_ends[0]))
            missing = missing[: max(1, per_call)]
            for at, arrays in zip(missing, self._gather(model, missing, k)):
                cache[key(at)] = arrays
            cached = cache[key(layer)]
        return cached

    def _gather(
        self, model, layers: List[int], k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Query every edge into each of ``layers``; one ``(own, nb)`` each.

        A model with ``array_endpoints`` answers all the layers' edges in
        one array-valued ``delay`` call (layers as an int64 array); other
        models are queried edge by edge with plain ``int`` parts.
        """
        sources, targets = self._edge_ends
        count = len(layers)
        if getattr(model, "array_endpoints", False):
            tops = np.repeat(np.array(layers, dtype=np.int64), sources.shape[0])
            values = np.asarray(
                model.delay(
                    (
                        (np.tile(sources, count), tops - 1),
                        (np.tile(targets, count), tops),
                    ),
                    k,
                ),
                dtype=float,
            )
        else:
            pairs = list(zip(sources.tolist(), targets.tolist()))
            values = np.array(
                [
                    model.delay(((w, top - 1), (v, top)), k)
                    for top in layers
                    for w, v in pairs
                ],
                dtype=float,
            )
        values = values.reshape(count, sources.shape[0])
        own = values[:, : self.width]
        if self.backend == "csr":
            nb = values[:, self.width:]
        else:
            nb = np.zeros((count,) + self.nb_valid.shape)
            nb[:, self.nb_valid] = values[:, self.width:]
        return list(zip(own, nb))

    def rate_array(self, layer: int, k: int) -> np.ndarray:
        """Hardware clock rates of the layer's nodes during pulse ``k``.

        Static providers (none, or a ``NodeId``-keyed mapping) are read
        once per run into the simulation's ``(L, W)`` rate plane, so
        in-place edits of a rates dict between runs are honored; callable
        providers are queried per layer and pulse.
        """
        sim = self.sim
        rates = sim._rates
        if callable(rates):
            return np.array(
                [float(rates((v, layer), k)) for v in range(self.width)]
            )
        if sim._rate_plane is None:
            layers, width = self.num_layers, self.width
            if rates is None:
                sim._rate_plane = np.ones((layers, width))
            else:
                # Every (v, layer) node id, layer by layer, built and
                # looked up without a Python-level loop.
                nodes = zip(
                    chain.from_iterable(repeat(range(width), layers)),
                    chain.from_iterable(map(repeat, range(layers), repeat(width))),
                )
                sim._rate_plane = np.fromiter(
                    map(rates.get, nodes, repeat(1.0)),
                    dtype=float,
                    count=layers * width,
                ).reshape(layers, width)
        return sim._rate_plane[layer]
