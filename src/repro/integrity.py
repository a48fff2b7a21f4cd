"""Result certificates and independent re-verification.

The engine refuses to *produce* a wrong cover: every record, cold rung
or warm re-solve, is built by :func:`repro.engine.ladder.seal_record`,
which verifies the form against its function and stamps the
certificate below before the record exists.  But a record outlives the
process that proved it: it sits in the disk cache, travels through the
cluster, and is replayed from manifests.  This module is the trust
layer for that afterlife — one seal, one audit:

* :func:`make_certificate` stamps a record with an **integrity
  envelope** ``{spec_hash, form_hash, cost_recomputed, solver_salt,
  verified, verify_ms}``.  The cost is recomputed from the form through
  the CEX expression builder (:func:`repro.core.cex.cex_of`) — a
  different code path from the closed-form ``Pseudocube.num_literals``
  the solvers use — so a cost-accounting bug in either path is caught
  by the other.  The seal is its only caller.
* :func:`check_certificate` decodes the record's form, re-verifies it
  against the spec, re-derives everything the record and its envelope
  claim, and raises :class:`~repro.errors.IntegrityError` on any
  disagreement.  It is the only re-check: verify-on-read cache
  auditing, serve-tier shadow verification and a client's
  ``"verify": true`` all call it, so they accept and reject the same
  records.  Its ``detail`` dict is surfaced verbatim in HTTP 500
  bodies.

Certificates are *self-describing but not self-certifying*: the
envelope hashes bind spec to form, and the semantic check re-verifies
the form against the spec the caller trusts (the request body, the
job's own truth table) — never against a spec recovered from the
suspect record.
"""

from __future__ import annotations

import time
from typing import Any

from repro.boolfunc.function import BoolFunc
from repro.core.cex import cex_of
from repro.core.spp_form import SppForm
from repro.errors import IntegrityError
from repro.serialize import checksum_of, form_from_dict, form_to_dict, func_to_dict
from repro.verify import VerificationReport, verify_form

__all__ = [
    "CERTIFICATE_VERSION",
    "VERIFIED_FULL",
    "VERIFIED_SAMPLED",
    "VERIFIED_NONE",
    "spec_hash",
    "form_hash",
    "recompute_cost",
    "make_certificate",
    "check_certificate",
    "cover_error",
    "report_to_dict",
]

CERTIFICATE_VERSION = 1

# ``verified`` levels, weakest to strongest.  ``none`` means the
# envelope's hashes and recomputed cost were produced but no semantic
# check ran at stamping time; ``sampled`` means this record was picked
# by a sampling audit (cache verify-on-read, serve shadow verification)
# and passed; ``full`` means the producer verified it synchronously.
VERIFIED_NONE = "none"
VERIFIED_SAMPLED = "sampled"
VERIFIED_FULL = "full"

_LEVELS = (VERIFIED_NONE, VERIFIED_SAMPLED, VERIFIED_FULL)


def spec_hash(func: BoolFunc) -> str:
    """Content hash of the specification (canonical function dict)."""
    return checksum_of(func_to_dict(func))


def form_hash(form: SppForm) -> str:
    """Content hash of the produced form (canonical form dict)."""
    return checksum_of(form_to_dict(form))


def recompute_cost(form: SppForm) -> int:
    """Literal cost of ``form``, recomputed independently of the solver.

    Builds the CEX expression of every pseudoproduct and counts literals
    factor by factor, instead of trusting the cached
    ``SppForm.num_literals`` (which sums the closed-form
    ``popcount``-based ``Pseudocube.num_literals``).  The two paths are
    proved equal in the core tests; at runtime their agreement is the
    certificate's cost check.
    """
    pseudoproducts = getattr(form, "pseudoproducts", None)
    if pseudoproducts is None:  # non-SPP forms: fall back to the form's own count
        return form.num_literals
    return sum(cex_of(pc).num_literals for pc in pseudoproducts)


def make_certificate(
    func: BoolFunc,
    form: SppForm,
    *,
    solver_salt: str,
    claimed_cost: int | None = None,
    verified: str = VERIFIED_NONE,
    verify_ms: float = 0.0,
) -> dict[str, Any]:
    """Build the integrity envelope for a (spec, form) pair.

    ``claimed_cost`` is the literal count the solver reported; when
    given, it must agree with the independent recompute or this raises
    :class:`IntegrityError` immediately — a wrong cost claim is caught
    at stamping time, not at audit time.
    """
    if verified not in _LEVELS:
        raise ValueError(f"unknown verified level {verified!r}")
    cost = recompute_cost(form)
    if claimed_cost is not None and claimed_cost != cost:
        raise IntegrityError(
            f"cost mismatch: solver claims {claimed_cost} literals, "
            f"independent recompute finds {cost}",
            detail={"claimed_cost": claimed_cost, "cost_recomputed": cost},
        )
    return {
        "version": CERTIFICATE_VERSION,
        "spec_hash": spec_hash(func),
        "form_hash": form_hash(form),
        "cost_recomputed": cost,
        "solver_salt": solver_salt,
        "verified": verified,
        "verify_ms": round(verify_ms, 3),
    }


def report_to_dict(report: VerificationReport) -> dict[str, Any]:
    """JSON-compatible rendering of a verification report.

    The counterexample lists are already capped by ``verify_form``'s
    ``max_counterexamples``; ``truncated`` says whether they are
    complete.  This is the shape HTTP 500 bodies embed.
    """
    return {
        "ok": report.ok,
        "uncovered_on_points": list(report.uncovered_on_points),
        "covered_off_points": list(report.covered_off_points),
        "truncated": report.truncated,
    }


def cover_error(message: str, report: VerificationReport, **detail: Any) -> IntegrityError:
    """The error for a form ``report`` found wrong: ``message``, what
    the scan found, and its counterexamples under ``detail``."""
    return IntegrityError(
        f"{message}: misses {len(report.uncovered_on_points)} on-points, "
        f"covers {len(report.covered_off_points)} off-points"
        + (" (scan truncated)" if report.truncated else ""),
        report=report,
        detail={**detail, "counterexamples": report_to_dict(report)},
    )


def check_certificate(
    record: dict[str, Any],
    func: BoolFunc,
    *,
    expected_salt: str | None = None,
) -> dict[str, Any]:
    """Audit ``record`` against the trusted spec ``func``.

    Decodes the record's stored form (a form that does not decode is an
    integrity failure) and re-derives every claim made about it:

    * the recomputed literal cost must match the record's top-level
      ``literals``;
    * the envelope's ``spec_hash`` must match the trusted spec (a
      record keyed to the wrong function — hash collision in the cache
      layer, a routing bug — is an integrity failure, not a miss);
    * its ``form_hash`` must match the stored form (a checksum-valid
      but mutated payload breaks here);
    * its ``cost_recomputed`` must match the recompute;
    * the form is re-verified against the spec point by point.

    The point-by-point check always runs, so whichever check fails
    first, a wrong cover's counterexamples ride along in ``report`` and
    ``detail``.  Records without an envelope (pre-integrity cache dirs)
    are checked on their form and ``literals`` only.  Returns an
    *updated* envelope (``verified`` is raised to ``sampled`` if the
    stamped level was ``none``; ``verify_ms`` reflects this audit) —
    callers decide whether to write it back.  Raises
    :class:`~repro.errors.IntegrityError` on any mismatch.
    """
    t0 = time.perf_counter()
    cert = record.get("integrity")
    detail: dict[str, Any] = {}
    if expected_salt is not None:
        detail["expected_salt"] = expected_salt
    try:
        form = form_from_dict(record["form"])
        report = verify_form(form, func)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise IntegrityError(f"stored form is undecodable: {exc}", detail=detail) from None
    wrong_cover = None if report else report
    if wrong_cover is not None:
        detail["counterexamples"] = report_to_dict(report)

    def mismatch(message: str, **extra: Any) -> IntegrityError:
        return IntegrityError(message, report=wrong_cover, detail={**detail, **extra})

    fh = form_hash(form)
    cost = recompute_cost(form)
    claimed = record.get("literals")
    if claimed is not None and claimed != cost:
        raise mismatch(
            f"record claims {claimed} literals, recompute finds {cost}",
            claimed_cost=claimed, cost_recomputed=cost,
        )
    if cert is not None:
        sh = spec_hash(func)
        if cert.get("spec_hash") != sh:
            raise mismatch(
                "certificate spec_hash does not match the trusted spec",
                spec_hash=sh, certificate_spec_hash=cert.get("spec_hash"),
            )
        if cert.get("form_hash") != fh:
            raise mismatch(
                "certificate form_hash does not match the stored form",
                form_hash=fh, certificate_form_hash=cert.get("form_hash"),
            )
        if cert.get("cost_recomputed") != cost:
            raise mismatch(
                f"certificate cost {cert.get('cost_recomputed')} disagrees "
                f"with recompute {cost}",
                cost_recomputed=cost, certificate_cost=cert.get("cost_recomputed"),
            )
    if wrong_cover is not None:
        raise cover_error("stored form is not equivalent to its spec", report, **detail)
    verify_ms = (time.perf_counter() - t0) * 1000.0
    level = (cert or {}).get("verified", VERIFIED_NONE)
    if level == VERIFIED_NONE:
        level = VERIFIED_SAMPLED
    return {
        "version": CERTIFICATE_VERSION,
        "spec_hash": (cert or {}).get("spec_hash") or spec_hash(func),
        "form_hash": fh,
        "cost_recomputed": cost,
        "solver_salt": (cert or {}).get("solver_salt", expected_salt or ""),
        "verified": level,
        "verify_ms": round(verify_ms, 3),
    }
