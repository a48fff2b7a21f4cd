"""repro.serve — an overload-safe HTTP/JSON minimization service.

A serving layer over :mod:`repro.engine` on the stdlib's HTTP server
(no web framework), designed around the cooperative budgets of
:mod:`repro.budget`:

* :mod:`repro.serve.server` — :class:`MinimizeService`: budgets and
  the engine behind ``POST /minimize``, its ``/stats`` and
  ``/metrics``, and its graceful SIGTERM drain;
* :mod:`repro.serve.request` — the request decoder both tiers call
  (``jobs_from_payload``), with the per-process PLA parse memo and the
  bound on what a request PLA may expand to; it loads no solver, so
  the cluster coordinator that imports it stays free of numpy;
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

from repro._lazy import lazy_exports

__all__ = [
    "AdmissionQueue",
    "MemoryWatchdog",
    "MinimizeService",
    "RungBreaker",
    "ServeConfig",
    "ShadowVerifier",
    "VERIFIED_HEADER",
]

# Imported on first access: the cluster coordinator imports this
# package's tier, metrics and request modules, and must not load the
# service and the engine behind it.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.serve.admission": ("AdmissionQueue",),
        "repro.serve.breaker": ("RungBreaker",),
        "repro.serve.server": ("VERIFIED_HEADER", "MinimizeService", "ServeConfig"),
        "repro.serve.shadow": ("ShadowVerifier",),
        "repro.serve.watchdog": ("MemoryWatchdog",),
    },
)
