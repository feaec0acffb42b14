"""Measurement and analysis utilities.

* :mod:`repro.analysis.skew` -- the paper's skew measures (``L_l``,
  ``L_{l,l+1}``, ``L``, global skew) over simulation results.
* :mod:`repro.analysis.potentials` -- the potential functions of
  Definition 4.1 (``psi``, ``Psi``, ``xi``, ``Xi``).
* :mod:`repro.analysis.streaming` -- :class:`StreamedStats`, the one
  online fold of the local, inter-layer and global skew and the
  correction statistics, for ``store_times=False`` sweeps that never
  materialize the pulse-time block.
* :mod:`repro.analysis.stats` -- regression helpers (log/linear/power fits)
  used to check growth *shapes* against the paper's bounds.
* :mod:`repro.analysis.report` -- ASCII tables for benchmark output.
"""

from repro.analysis.skew import (
    global_skew,
    global_skew_layers,
    inter_layer_skew,
    inter_layer_skew_layers,
    local_skew_layers,
    local_skew_per_layer,
    max_inter_layer_skew,
    max_local_skew,
    overall_skew,
    times_from_trace,
)
from repro.analysis.potentials import (
    Psi,
    Xi,
    psi,
    xi,
    potential_layers,
    local_skew_bound_from_potential,
)
from repro.analysis.streaming import (
    StreamedStats,
    StreamLayout,
    fold_correction_planes,
)
from repro.analysis.stats import fit_linear, fit_log2, fit_power
from repro.analysis.report import format_table

__all__ = [
    "Psi",
    "StreamLayout",
    "StreamedStats",
    "Xi",
    "fit_linear",
    "fit_log2",
    "fit_power",
    "fold_correction_planes",
    "format_table",
    "global_skew",
    "global_skew_layers",
    "inter_layer_skew",
    "inter_layer_skew_layers",
    "local_skew_bound_from_potential",
    "local_skew_layers",
    "local_skew_per_layer",
    "max_inter_layer_skew",
    "max_local_skew",
    "overall_skew",
    "potential_layers",
    "psi",
    "times_from_trace",
    "xi",
]
