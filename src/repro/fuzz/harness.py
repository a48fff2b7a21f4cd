"""Differential + metamorphic fuzz harness over the engine rungs.

For every drawn function the harness runs all four engine rungs
(exact, bounded-2, heuristic-k0, sp) and checks:

* **differential** — every returned form is replayed against a
  brute-force truth-table oracle (independent of
  :mod:`repro.verify`): 1 on every on-point, 0 on every off-point.
* **cost-sanity** — when every covering was solved to proved
  optimality and the exact generation was not truncated, the paper's
  cost chain must hold: ``exact <= bounded-2 <= sp`` and
  ``exact <= heuristic-k0``.
* **metamorphic-permutation** — permuting input variables commutes
  with minimization *semantically*, and the exact SP cost is
  invariant (cubes map to cubes literal-for-literal).  The exact SPP
  cost is deliberately **not** asserted equal: pseudocube literal
  counts depend on the coordinate frame, and permutation can change
  the optimum (observed: 17 vs 18 literals on a 5-variable function,
  both proved optimal).
* **metamorphic-negation** — translating the input space by a mask
  (negating variables) maps pseudocubes to pseudocubes of identical
  literal count, so the proved-optimal exact SPP cost must be equal.
* **metamorphic-cofactor** — minimizing a Shannon cofactor still
  verifies against the cofactor.
* **delta-warm** — a care-preserving on/dc toggle of the function is
  re-minimized through the incremental warm path
  (:func:`repro.delta.warm_minimize`) and must return the same form as
  a cold exact solve of the edited function, and pass the oracle.

Any failure is shrunk (greedy ddmin over the on- and dc-sets) and
written as a replayable JSON artifact under ``results/fuzz/``.

The ``plant_bug`` hook mutates one rung's output before checking —
used by tests and CI to prove the harness detects, shrinks, and
reports a wrong cover end to end.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core.spp_form import SppForm
from repro.errors import BudgetExceeded
from repro.fuzz.generators import draw_function
from repro.minimize.bounded import minimize_spp_bounded
from repro.minimize.exact import minimize_spp
from repro.minimize.heuristic import minimize_spp_k
from repro.minimize.sp import minimize_sp
from repro.serialize import func_from_dict, func_to_dict

__all__ = [
    "CHECKS",
    "PLANT_BUGS",
    "FuzzFailure",
    "FuzzReport",
    "replay_artifact",
    "run_fuzz",
    "run_trial",
    "shrink_function",
]

ARTIFACT_VERSION = 1

CHECKS = (
    "differential",
    "cost-sanity",
    "metamorphic-permutation",
    "metamorphic-negation",
    "metamorphic-cofactor",
    "delta-warm",
)

# Generation cap for the exact rung so a single dense draw cannot eat
# the whole fuzz budget; cost checks are skipped on truncation.
_EXACT_CAP = 50_000

# The rung whose output a planted bug mutates before checking.
_PLANT_TARGET = "heuristic-k0"


@dataclass
class FuzzFailure:
    """One failed check on one function."""

    check: str
    message: str
    rung: str = ""
    detail: dict = field(default_factory=dict)


@dataclass
class FuzzReport:
    """Outcome of a :func:`run_fuzz` campaign."""

    seed: int
    trials: int
    elapsed_seconds: float
    family_counts: dict[str, int]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Planted bugs
# ---------------------------------------------------------------------------


def _plant_drop_cover(form: SppForm, func: BoolFunc) -> SppForm:
    """Remove every pseudoproduct covering one on-point — a guaranteed
    wrong cover (the differential oracle must catch it)."""
    if not func.on_set or not form.pseudoproducts:
        return form
    victim = min(func.on_set)
    kept = tuple(pc for pc in form.pseudoproducts if victim not in pc.points())
    return SppForm(form.n, kept)


PLANT_BUGS = {"drop-cover": _plant_drop_cover}


# ---------------------------------------------------------------------------
# Oracle and transforms
# ---------------------------------------------------------------------------


def _oracle_mismatches(form: SppForm, func: BoolFunc, limit: int = 4) -> list[dict]:
    """Brute-force truth-table comparison, first ``limit`` mismatches."""
    out: list[dict] = []
    for p in range(1 << func.n):
        want = func.evaluate(p)
        if want is None:
            continue
        got = form.evaluate(p)
        if got != want:
            out.append({"point": p, "expected": want, "got": got})
            if len(out) >= limit:
                break
    return out


def _permute_points(points, perm: list[int], n: int) -> frozenset[int]:
    out = set()
    for p in points:
        q = 0
        for i in range(n):
            if (p >> i) & 1:
                q |= 1 << perm[i]
        out.add(q)
    return frozenset(out)


def _permute_func(func: BoolFunc, perm: list[int]) -> BoolFunc:
    return BoolFunc(
        func.n,
        _permute_points(func.on_set, perm, func.n),
        _permute_points(func.dc_set, perm, func.n),
    )


def _translate_func(func: BoolFunc, mask: int) -> BoolFunc:
    return BoolFunc(
        func.n,
        frozenset(p ^ mask for p in func.on_set),
        frozenset(p ^ mask for p in func.dc_set),
    )


def _budget(seconds: float | None) -> Budget | None:
    return None if seconds is None else Budget(seconds=seconds)


def _exact(func: BoolFunc, seconds: float | None = None):
    return minimize_spp(
        func,
        covering="exact",
        max_pseudoproducts=_EXACT_CAP,
        on_limit="stop",
        budget=_budget(seconds),
    )


def _untruncated(result) -> bool:
    return result.generation is None or not result.generation.truncated


_RUNGS = (
    ("exact", _exact),
    ("bounded-2", lambda f, s=None: minimize_spp_bounded(
        f, 2, covering="exact", budget=_budget(s))),
    ("heuristic-k0", lambda f, s=None: minimize_spp_k(f, 0, budget=_budget(s))),
    ("sp", lambda f, s=None: minimize_sp(f, covering="exact", budget=_budget(s))),
)


# ---------------------------------------------------------------------------
# One trial
# ---------------------------------------------------------------------------


def run_trial(
    func: BoolFunc,
    *,
    seed: int = 0,
    plant_bug: str | None = None,
    checks=None,
    rung_budget: float | None = None,
) -> list[FuzzFailure]:
    """Run every enabled check on ``func``; return the failures.

    ``seed`` drives the metamorphic draws (permutation, mask,
    cofactor variable) so a trial is exactly reproducible.  A crash in
    any rung is itself a failure (check ``"crash"``), never an
    exception out of the harness.  ``rung_budget`` bounds each
    minimizer call in seconds; a rung that runs out of budget is
    skipped, not reported — a slow solve is not a wrong one.
    """
    enabled = set(checks) if checks is not None else set(CHECKS)
    rng = random.Random(seed)
    failures: list[FuzzFailure] = []
    results: dict[str, object] = {}

    for rung, minimize in _RUNGS:
        try:
            results[rung] = minimize(func, rung_budget)
        except BudgetExceeded:
            continue
        except Exception as exc:  # noqa: BLE001 — a crash is a finding
            failures.append(
                FuzzFailure("crash", f"{type(exc).__name__}: {exc}", rung=rung)
            )

    # -- differential: every form vs the truth-table oracle ------------
    if "differential" in enabled:
        for rung, result in results.items():
            form = result.form
            if plant_bug is not None and rung == _PLANT_TARGET:
                form = PLANT_BUGS[plant_bug](form, func)
            bad = _oracle_mismatches(form, func)
            if bad:
                failures.append(
                    FuzzFailure(
                        "differential",
                        f"{rung} form disagrees with truth-table oracle",
                        rung=rung,
                        detail={"counterexamples": bad},
                    )
                )

    # -- cost sanity ---------------------------------------------------
    if "cost-sanity" in enabled and all(r in results for r, _ in _RUNGS):
        exact, two = results["exact"], results["bounded-2"]
        spp0, sp = results["heuristic-k0"], results["sp"]
        if (
            exact.covering_optimal
            and _untruncated(exact)
            and two.covering_optimal
            and sp.covering_optimal
        ):
            chain = (
                ("exact", exact.num_literals, "bounded-2", two.num_literals),
                ("bounded-2", two.num_literals, "sp", sp.num_literals),
                ("exact", exact.num_literals, "heuristic-k0", spp0.num_literals),
            )
            for lo_name, lo, hi_name, hi in chain:
                if lo > hi:
                    failures.append(
                        FuzzFailure(
                            "cost-sanity",
                            f"{lo_name} cost {lo} exceeds {hi_name} cost {hi}",
                            rung=lo_name,
                            detail={lo_name: lo, hi_name: hi},
                        )
                    )

    # -- metamorphic -----------------------------------------------------
    exact = results.get("exact")

    if "metamorphic-permutation" in enabled and exact is not None:
        perm = list(range(func.n))
        rng.shuffle(perm)
        permuted = _permute_func(func, perm)
        try:
            p_exact = _exact(permuted, rung_budget)
            p_sp = minimize_sp(
                permuted, covering="exact", budget=_budget(rung_budget)
            )
            sp = results.get("sp")
            bad = _oracle_mismatches(p_exact.form, permuted)
            if bad:
                failures.append(
                    FuzzFailure(
                        "metamorphic-permutation",
                        "exact form of permuted function fails oracle",
                        rung="exact",
                        detail={"perm": perm, "counterexamples": bad},
                    )
                )
            if (
                sp is not None
                and sp.covering_optimal
                and p_sp.covering_optimal
                and sp.num_literals != p_sp.num_literals
            ):
                failures.append(
                    FuzzFailure(
                        "metamorphic-permutation",
                        "optimal SP cost changed under variable permutation "
                        f"({sp.num_literals} vs {p_sp.num_literals})",
                        rung="sp",
                        detail={"perm": perm},
                    )
                )
        except BudgetExceeded:
            pass
        except Exception as exc:  # noqa: BLE001
            failures.append(
                FuzzFailure(
                    "crash", f"{type(exc).__name__}: {exc}", rung="permutation"
                )
            )

    if "metamorphic-negation" in enabled and exact is not None:
        mask = rng.randrange(1, 1 << func.n)
        negated = _translate_func(func, mask)
        try:
            n_exact = _exact(negated, rung_budget)
            bad = _oracle_mismatches(n_exact.form, negated)
            if bad:
                failures.append(
                    FuzzFailure(
                        "metamorphic-negation",
                        "exact form of negated function fails oracle",
                        rung="exact",
                        detail={"mask": mask, "counterexamples": bad},
                    )
                )
            if (
                exact.covering_optimal
                and _untruncated(exact)
                and n_exact.covering_optimal
                and _untruncated(n_exact)
                and exact.num_literals != n_exact.num_literals
            ):
                failures.append(
                    FuzzFailure(
                        "metamorphic-negation",
                        "optimal SPP cost changed under input negation "
                        f"({exact.num_literals} vs {n_exact.num_literals})",
                        rung="exact",
                        detail={"mask": mask},
                    )
                )
        except BudgetExceeded:
            pass
        except Exception as exc:  # noqa: BLE001
            failures.append(
                FuzzFailure("crash", f"{type(exc).__name__}: {exc}", rung="negation")
            )

    if "delta-warm" in enabled and exact is not None and _untruncated(exact):
        from repro.delta import (
            DeltaIneligible,
            build_context,
            toggle_points,
            warm_minimize,
        )

        try:
            ctx = build_context(func, exact, covering="exact")
            care = sorted(func.care_set)
            if ctx is not None and care:
                toggles = rng.sample(care, rng.randint(1, min(3, len(care))))
                edited = toggle_points(func, toggles)
                if edited.on_set:
                    warm = warm_minimize(
                        ctx, edited, budget=_budget(rung_budget)
                    )
                    cold = _exact(edited, rung_budget)
                    bad = _oracle_mismatches(warm.form, edited)
                    if bad:
                        failures.append(
                            FuzzFailure(
                                "delta-warm",
                                "warm re-minimized form fails oracle on "
                                "edited function",
                                rung="exact",
                                detail={
                                    "toggles": sorted(toggles),
                                    "counterexamples": bad,
                                },
                            )
                        )
                    if warm.form != cold.form:
                        failures.append(
                            FuzzFailure(
                                "delta-warm",
                                "warm re-minimization differs from cold solve "
                                f"({warm.num_literals} vs "
                                f"{cold.num_literals} literals)",
                                rung="exact",
                                detail={"toggles": sorted(toggles)},
                            )
                        )
        except (BudgetExceeded, DeltaIneligible):
            pass
        except Exception as exc:  # noqa: BLE001
            failures.append(
                FuzzFailure("crash", f"{type(exc).__name__}: {exc}", rung="delta")
            )

    if "metamorphic-cofactor" in enabled:
        variable = rng.randrange(func.n)
        value = rng.randrange(2)
        restricted = func.cofactor(variable, value)
        if restricted.on_set:
            try:
                r_exact = _exact(restricted, rung_budget)
                bad = _oracle_mismatches(r_exact.form, restricted)
                if bad:
                    failures.append(
                        FuzzFailure(
                            "metamorphic-cofactor",
                            f"exact form of cofactor x{variable}={value} fails oracle",
                            rung="exact",
                            detail={
                                "variable": variable,
                                "value": value,
                                "counterexamples": bad,
                            },
                        )
                    )
            except BudgetExceeded:
                pass
            except Exception as exc:  # noqa: BLE001
                failures.append(
                    FuzzFailure(
                        "crash", f"{type(exc).__name__}: {exc}", rung="cofactor"
                    )
                )

    return failures


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _with_sets(func: BoolFunc, on, dc) -> BoolFunc:
    on = frozenset(on)
    return BoolFunc(func.n, on, frozenset(dc) - on)


def shrink_function(func: BoolFunc, predicate) -> BoolFunc:
    """Greedy ddmin over the dc- and on-sets.

    ``predicate(candidate)`` must return True iff the candidate still
    exhibits the failure.  Returns the smallest function found (the
    original if nothing could be removed)."""
    current = func
    for attr in ("dc_set", "on_set"):
        pts = sorted(getattr(current, attr))
        chunk = len(pts) // 2 or 1
        while chunk >= 1 and pts:
            i = 0
            while i < len(pts):
                keep = pts[:i] + pts[i + chunk :]
                if attr == "on_set" and not keep:
                    i += chunk
                    continue
                if attr == "on_set":
                    cand = _with_sets(current, keep, current.dc_set)
                else:
                    cand = _with_sets(current, current.on_set, keep)
                if predicate(cand):
                    current = cand
                    pts = keep
                else:
                    i += chunk
            if chunk == 1:
                break
            chunk //= 2
    return current


# ---------------------------------------------------------------------------
# Campaign driver and artifacts
# ---------------------------------------------------------------------------


def _failure_to_dict(failure: FuzzFailure) -> dict:
    return {
        "check": failure.check,
        "rung": failure.rung,
        "message": failure.message,
        "detail": failure.detail,
    }


def run_fuzz(
    *,
    seed: int,
    budget: float = 60.0,
    max_trials: int | None = None,
    max_failures: int = 10,
    n_min: int = 3,
    n_max: int = 6,
    families: list[str] | None = None,
    plant_bug: str | None = None,
    out_dir: str | Path = "results/fuzz",
    rung_budget: float | None = 5.0,
    log=None,
) -> FuzzReport:
    """Run a seeded fuzz campaign until the time budget or trial cap.

    Every failure is shrunk and written as a replayable artifact under
    ``out_dir/seed<seed>/``; the campaign stops early after
    ``max_failures`` distinct failing trials.
    """
    if plant_bug is not None and plant_bug not in PLANT_BUGS:
        raise ValueError(
            f"unknown plant bug {plant_bug!r}; known: {', '.join(PLANT_BUGS)}"
        )
    rng = random.Random(seed)
    t0 = time.monotonic()
    trial = 0
    family_counts: Counter = Counter()
    failures: list[dict] = []
    artifact_dir = Path(out_dir) / f"seed{seed}"

    while time.monotonic() - t0 < budget:
        if max_trials is not None and trial >= max_trials:
            break
        trial += 1
        trial_seed = rng.getrandbits(32)
        family, func = draw_function(rng, n_min=n_min, n_max=n_max, families=families)
        family_counts[family] += 1
        found = run_trial(
            func, seed=trial_seed, plant_bug=plant_bug, rung_budget=rung_budget
        )
        if found:
            first = found[0]

            def still_fails(cand: BoolFunc) -> bool:
                redo = run_trial(
                    cand,
                    seed=trial_seed,
                    plant_bug=plant_bug,
                    checks=(first.check,) if first.check in CHECKS else None,
                    rung_budget=rung_budget,
                )
                return any(f.check == first.check for f in redo)

            shrunk = shrink_function(func, still_fails)
            shrunk_failures = run_trial(
                shrunk, seed=trial_seed, plant_bug=plant_bug, rung_budget=rung_budget
            )
            artifact = {
                "version": ARTIFACT_VERSION,
                "seed": seed,
                "trial": trial - 1,
                "trial_seed": trial_seed,
                "family": family,
                "plant_bug": plant_bug,
                "failures": [_failure_to_dict(f) for f in found],
                "shrunk_failures": [_failure_to_dict(f) for f in shrunk_failures],
                "func": func_to_dict(func),
                "shrunk_func": func_to_dict(shrunk),
                "shrunk_on_points": len(shrunk.on_set),
            }
            artifact_dir.mkdir(parents=True, exist_ok=True)
            path = artifact_dir / f"trial{trial - 1:05d}_{first.check}.json"
            path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
            artifact["path"] = str(path)
            artifact["repro"] = f"spp-minimize fuzz --replay {path}"
            failures.append(artifact)
            if log is not None:
                log(
                    f"trial {trial - 1} [{family}]: {first.check} — {first.message} "
                    f"(shrunk to {len(shrunk.on_set)} on-points, artifact {path})"
                )
            if len(failures) >= max_failures:
                break

    return FuzzReport(
        seed=seed,
        trials=trial,
        elapsed_seconds=time.monotonic() - t0,
        family_counts=dict(family_counts),
        failures=failures,
    )


def replay_artifact(path: str | Path, *, shrunk: bool = True) -> list[FuzzFailure]:
    """Re-run the checks recorded in a fuzz artifact; return failures."""
    data = json.loads(Path(path).read_text())
    func = func_from_dict(data["shrunk_func" if shrunk else "func"])
    return run_trial(
        func, seed=data["trial_seed"], plant_bug=data.get("plant_bug")
    )
