"""Shared test configuration: pinned hypothesis profiles.

The property suites (``test_fast_hetero``, ``test_differential``,
``test_properties``, ...) drive randomized scenarios through the
simulator equivalence promises.  Locally that randomness is welcome; in
CI it must be reproducible, so the ``ci`` profile derandomizes example
selection (examples are derived from the test body, identical on every
run) and disables per-example deadlines (shared runners jitter).  CI
selects it with ``--hypothesis-profile=ci``; the ``dev`` profile is the
library default and stays active otherwise.

Per-test ``@settings(...)`` decorators compose with the active profile:
they override only the fields they name, so ``max_examples`` choices in
the suites survive while ``derandomize`` comes from the profile.

:func:`shards` is the one seam that sets how a ``BatchRunner`` run
shards; test modules (and the bench module) import it from here.
"""

from hypothesis import HealthCheck, settings

import repro.experiments.batch as batch_mod

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", settings.default)


def shards(monkeypatch, count):
    """Force the executor rule's pick: every ``BatchRunner`` run of the
    test runs in ``count`` shards.

    ``1`` runs in-process, which a test must pin when it patches a
    kernel seam (``_kernel_cells`` / ``_fallback_replay``) or times or
    traces one stack: the pool's workers run the unpatched code, out of
    reach of the timer and tracer.  ``count > 1`` runs the first shard
    in-process and the others on the worker pool.
    """
    monkeypatch.setattr(batch_mod, "_pick_shards", lambda *args: count)
