"""Independent check of one ``/minimize`` answer.

Shares no code with ``repro.verify`` or ``repro.core``: the returned form
is decoded from its JSON (``anchor`` and ``basis`` vectors in hex), each
pseudoproduct is rebuilt as a coset ``anchor + span(basis)`` of GF(2)^n
with this module's own elimination, and every point of the request's
truth table is tested against the union of those cosets.  The literal
count is recomputed from each basis as DESIGN.md section 1 defines the
CEX expression: every non-canonical variable ``x_j`` yields one EXOR
factor holding ``x_j`` and the canonical (pivot) variables whose basis
row has bit ``j`` set.
"""

from __future__ import annotations


def reduced_rows(vectors: list[int]) -> list[int]:
    """Fully reduced echelon rows, pivot = lowest set bit of each row.

    Raises ValueError when the vectors are linearly dependent (a basis
    that claims more dimensions than it spans).
    """
    rows: list[int] = []
    for vec in vectors:
        for row in rows:
            if vec & (row & -row):
                vec ^= row
        if not vec:
            raise ValueError("basis vectors are linearly dependent")
        pivot = vec & -vec
        rows = [row ^ vec if row & pivot else row for row in rows]
        rows.append(vec)
    return rows


def coset_mask(anchor: int, rows: list[int]) -> int:
    """Truth-table bitmask (bit p = point p) of ``anchor + span(rows)``."""
    points = [anchor]
    for row in rows:
        points += [p ^ row for p in points]
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


def cex_literals(n: int, rows: list[int]) -> int:
    """Literal count of the pseudoproduct's CEX expression."""
    pivots = 0
    for row in rows:
        pivots |= row & -row
    total = 0
    for j in range(n):
        bit = 1 << j
        if not pivots & bit:
            total += 1 + sum(1 for row in rows if row & bit)
    return total


def check_answer(
    entry: dict,
    n: int,
    on_mask: int,
    off_mask: int,
    rung: str,
) -> str | None:
    """None when ``entry`` (one ``results[]`` item) is right, else why not.

    ``on_mask``/``off_mask`` are the request's on- and off-set as
    truth-table bitmasks; don't-care points may go either way.
    """
    if entry.get("rung") != rung:
        return f"answered by rung {entry.get('rung')!r}, requested {rung!r}"
    form = entry.get("form")
    if not isinstance(form, dict) or form.get("n") != n:
        return "response carries no form for the requested width"
    cover = 0
    literals = 0
    try:
        for pc in form["pseudoproducts"]:
            anchor = int(pc["anchor"], 16)
            basis = [int(b, 16) for b in pc["basis"]]
            if anchor >> n or any(b >> n for b in basis):
                return "pseudoproduct vector wider than the function"
            rows = reduced_rows(basis)
            cover |= coset_mask(anchor, rows)
            literals += cex_literals(n, rows)
    except (KeyError, TypeError, ValueError) as exc:
        return f"undecodable form: {exc}"
    if on_mask & ~cover:
        return f"misses {bin(on_mask & ~cover).count('1')} on-points"
    if cover & off_mask:
        return f"covers {bin(cover & off_mask).count('1')} off-points"
    if literals != entry.get("literals"):
        return f"claims {entry.get('literals')} literals, CEX recount gives {literals}"
    if len(form["pseudoproducts"]) != entry.get("pseudoproducts"):
        return "pseudoproduct count disagrees with the form"
    return None
