"""Bounded-factor SPP minimization (the "2-SPP" extension).

The paper's conclusion points toward algorithms "whose complexity no
longer depends on the number of pseudoproducts to manipulate"; the
follow-up literature restricts EXOR factors to at most two literals
(2-SPP forms), shrinking the candidate space drastically while keeping
most of the literal savings.  This module generalizes Algorithm 2 with
a *factor-width bound* ``B``:

* ``B = 1``  → plain cubes: the generation degenerates to
  Quine–McCluskey and the result is an SP form;
* ``B = 2``  → 2-SPP forms;
* ``B = n``  → unrestricted SPP (Algorithm 2 exactly).

A pseudocube is ``B``-bounded iff every factor of its CEX has at most
``B`` literals, i.e. every direction-basis vector has at most ``B-1``
bits besides its pivot *columnwise*: factor width of non-canonical
variable ``j`` is 1 + (number of basis vectors with bit ``j``).
The bound is a filter on the one generation pipeline
(``generate_eppp(factor_width=B)``): unions that break it are compared
but not kept, so the search explores exactly the bounded pseudoproduct
lattice, in every lane and under the same pseudoproduct cap as the
exact rung.
"""

from __future__ import annotations

from repro.boolfunc.function import BoolFunc
from repro.core.pseudocube import Pseudocube
from repro.minimize.eppp import _basis_factor_width
from repro.minimize.exact import SppResult, minimize_spp

__all__ = ["max_factor_width", "minimize_spp_bounded"]


def max_factor_width(pc: Pseudocube) -> int:
    """Width of the widest EXOR factor of ``CEX(pc)`` (0 if none)."""
    return _basis_factor_width(pc.n, pc.basis)


def minimize_spp_bounded(func: BoolFunc, bound: int, **options) -> SppResult:
    """Minimize ``func`` over ``bound``-bounded pseudoproducts.

    ``options`` are those of :func:`~repro.minimize.exact.minimize_spp`
    (backend, covering, cost, pseudoproduct cap, budget, ...).
    """
    return minimize_spp(func, factor_width=bound, **options)
