"""repro.serve — an overload-safe HTTP/JSON minimization service.

Stdlib-only serving layer over :mod:`repro.engine`, designed around the
cooperative budgets of :mod:`repro.budget`:

* :mod:`repro.serve.server` — :class:`MinimizeService`: request
  expansion, budgets and the engine behind ``POST /minimize``, its
  ``/stats`` and ``/metrics``, and its graceful SIGTERM drain;
* :mod:`repro.serve.tier` — the HTTP skeleton the service shares with
  the cluster coordinator: one handler (``/minimize``, ``/healthz``,
  ``/readyz``, ``/stats``, ``/metrics``), one error table, one drain
  lifecycle;
* :mod:`repro.serve.admission` — bounded concurrency + waiting room,
  shedding the excess with 429 + ``Retry-After``;
* :mod:`repro.serve.breaker` — a per-(rung, job-size) circuit breaker
  that stops re-attempting rungs that keep timing out;
* :mod:`repro.serve.watchdog` — RSS sampling with a soft ceiling
  (shrink the result cache) and a hard one (shed all new work);
* :mod:`repro.serve.shadow` — sampled post-response re-verification
  of served results (quarantine + per-rung breaker feed on mismatch).

Start one with ``spp-minimize serve`` or programmatically::

    from repro.serve import MinimizeService, ServeConfig

    service = MinimizeService(ServeConfig(port=0))  # 0 = ephemeral
    host, port = service.start()
    ...
    service.drain()
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.breaker import RungBreaker
from repro.serve.server import VERIFIED_HEADER, MinimizeService, ServeConfig
from repro.serve.shadow import ShadowVerifier
from repro.serve.watchdog import MemoryWatchdog

__all__ = [
    "AdmissionQueue",
    "MemoryWatchdog",
    "MinimizeService",
    "RungBreaker",
    "ServeConfig",
    "ShadowVerifier",
    "VERIFIED_HEADER",
]
