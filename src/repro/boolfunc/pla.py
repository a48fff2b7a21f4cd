"""ESPRESSO-format PLA reader/writer.

The paper's benchmarks come from the ESPRESSO suite [10], distributed as
``.pla`` files.  This module parses the subset of the format those files
use — ``.i``, ``.o``, ``.p``, ``.ilb``, ``.ob``, ``.type`` (``f``,
``fd``, ``fr``), input cubes over ``{0,1,-}`` and output parts over
``{0,1,-,~,2,4}`` — and converts to :class:`MultiBoolFunc` semantics:

* type ``fd`` (the default): output ``1`` adds the minterms to the
  on-set, ``-``/``2`` to the dc-set, ``0``/``~`` says nothing;
* type ``fr``: ``1`` on-set, ``0`` off-set, everything else unspecified
  — points never mentioned are **don't care**;
* type ``f``: ``1`` on-set; everything else is off.

Malformed input raises :class:`PlaError` — a structured
:class:`repro.errors.ParseError` carrying the offending file and line,
so the CLI can print ``circuit.pla:12: …`` instead of a traceback.

The writer emits minterm-exact ``fr`` PLAs, so a round trip preserves
function semantics exactly.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from dataclasses import dataclass

from repro.boolfunc.function import BoolFunc, MultiBoolFunc
from repro.errors import ParseError

__all__ = ["PlaBody", "PlaError", "parse_pla", "parse_pla_file", "read_pla", "write_pla"]


class PlaError(ParseError):
    """Malformed PLA input (with file/line context when known)."""


# The output characters that add a cube's points to an output's on-, dc-
# or off-set, by ``.type`` (see :meth:`PlaBody.function`), as tables that
# delete them: what a row's output part loses is what it sets.
_DROP_SETTERS = {
    kind: str.maketrans("", "", chars)
    for kind, chars in (
        ("f", "14-2"), ("fd", "14-2"), ("fr", "140"), ("fdr", "14-20")
    )
}

# What :meth:`PlaBody.function` builds for each output beyond its points
# (three sets and a BoolFunc, about 1.2 KB at peak), in points (about 64
# to 136 bytes each): the least any output is charged.
_OUTPUT_POINTS = 16


@dataclass
class PlaBody:
    """A PLA's headers and cube rows, checked for shape but with no cube
    expanded yet: :meth:`points` says what :meth:`function` would
    build, before it is built."""

    n_inputs: int
    n_outputs: int
    pla_type: str
    rows: list[tuple[int, str, str]]  # (line number, input part, output part)
    name: str
    output_names: tuple[str, ...]
    file: str | None = None

    def points(self) -> int:
        """What :meth:`function` costs, in points, counted from the text
        alone: each cube's ``2^dashes`` once per output it sets (at least
        once, for the expansion itself), plus per output the ``2^n``
        don't-care fill of ``fr``/``fdr``, and at least 16 points per
        output for the output itself, however few points it holds.  That
        ``2^n`` counts at most ``2^64``: a cube is as long as its text,
        but ``.i`` alone can be any size.
        """
        drop = _DROP_SETTERS[self.pla_type]
        total = sum([
            (len(out_part) - len(out_part.translate(drop)) or 1)
            << in_part.count("-")
            for _, in_part, out_part in self.rows
        ])
        fill = 1 << min(self.n_inputs, 64) if self.pla_type in ("fr", "fdr") else 0
        return total + self.n_outputs * max(fill, _OUTPUT_POINTS)

    def function(self) -> MultiBoolFunc:
        """Expand every cube into the multi-output function."""
        file = self.file
        n, m = self.n_inputs, self.n_outputs
        on: list[set[int]] = [set() for _ in range(m)]
        off: list[set[int]] = [set() for _ in range(m)]
        dc: list[set[int]] = [set() for _ in range(m)]
        for lineno, in_part, out_part in self.rows:
            points = list(_expand_cube(in_part, lineno, file))
            for o, ch in enumerate(out_part):
                if ch == "1" or ch == "4":
                    on[o].update(points)
                elif ch in ("-", "2", "~") and self.pla_type in ("fd", "fdr", "f"):
                    if ch != "~":
                        dc[o].update(points)
                elif ch == "0":
                    if self.pla_type in ("fr", "fdr"):
                        off[o].update(points)
                elif ch in ("-", "2", "~"):
                    pass  # fr: unspecified
                else:
                    raise PlaError(
                        f"invalid output character {ch!r}", file=file, line=lineno
                    )
        outputs = []
        for o in range(m):
            if self.pla_type in ("fr", "fdr"):
                # Points not mentioned at all are don't-care in fr PLAs.
                mentioned = on[o] | off[o]
                dc_set = frozenset(p for p in range(1 << n) if p not in mentioned)
            else:
                dc_set = frozenset(dc[o] - on[o])
            outputs.append(BoolFunc(n, frozenset(on[o]), dc_set))
        return MultiBoolFunc(
            n, tuple(outputs), name=self.name, output_names=self.output_names
        )


def _tokenize(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _directive_int(tokens: list[str], lineno: int, file: str | None) -> int:
    if len(tokens) < 2:
        raise PlaError(
            f"directive {tokens[0]!r} needs a value", file=file, line=lineno
        )
    try:
        value = int(tokens[1])
    except ValueError:
        raise PlaError(
            f"directive {tokens[0]!r} needs an integer, got {tokens[1]!r}",
            file=file, line=lineno,
        ) from None
    if value < 0:
        raise PlaError(
            f"directive {tokens[0]!r} must be non-negative, got {value}",
            file=file, line=lineno,
        )
    return value


def read_pla(text: str, name: str = "", file: str | None = None) -> PlaBody:
    """Read PLA text's headers and cube rows without expanding a cube.

    ``file`` (defaulting to ``name`` when that looks like a path) is
    attached to any :class:`PlaError` for ``file:line:`` messages.
    """
    if file is None and name:
        file = name
    n_inputs = n_outputs = -1
    pla_type = "fd"
    rows: list[tuple[int, str, str]] = []
    output_names: tuple[str, ...] = ()
    for lineno, tokens in _tokenize(text):
        key = tokens[0]
        if key == ".i":
            n_inputs = _directive_int(tokens, lineno, file)
        elif key == ".o":
            n_outputs = _directive_int(tokens, lineno, file)
        elif key == ".type":
            if len(tokens) < 2:
                raise PlaError(".type needs a value", file=file, line=lineno)
            pla_type = tokens[1]
        elif key == ".ilb":
            pass  # input labels: accepted, not needed
        elif key == ".ob":
            output_names = tuple(tokens[1:])
        elif key in (".p", ".phase", ".pair", ".symbolic"):
            pass
        elif key == ".e" or key == ".end":
            break
        elif key.startswith("."):
            raise PlaError(
                f"unsupported PLA directive {key!r}", file=file, line=lineno
            )
        else:
            if n_inputs < 0 or n_outputs < 0:
                raise PlaError(
                    "cube line before .i/.o headers", file=file, line=lineno
                )
            if len(tokens) == 2:
                in_part, out_part = tokens
            elif len(tokens) == 1 and n_outputs == 0:
                in_part, out_part = tokens[0], ""
            else:
                in_part = tokens[0]
                out_part = "".join(tokens[1:])
            if len(in_part) != n_inputs:
                raise PlaError(
                    f"input part {in_part!r} has wrong width "
                    f"(expected {n_inputs})",
                    file=file, line=lineno,
                )
            if len(out_part) != n_outputs:
                raise PlaError(
                    f"output part {out_part!r} has wrong width "
                    f"(expected {n_outputs})",
                    file=file, line=lineno,
                )
            rows.append((lineno, in_part, out_part))
    if n_inputs < 0 or n_outputs < 0:
        raise PlaError("missing .i/.o headers", file=file)
    if pla_type not in ("f", "fd", "fr", "fdr"):
        raise PlaError(f"unsupported .type {pla_type!r}", file=file)
    return PlaBody(n_inputs, n_outputs, pla_type, rows, name, output_names, file)


def _expand_cube(in_part: str, lineno: int, file: str | None) -> Iterator[int]:
    """All minterms matched by an input cube over {0,1,-}."""
    fixed = 0
    free_positions = []
    for i, ch in enumerate(in_part):
        if ch == "1":
            fixed |= 1 << i
        elif ch == "-":
            free_positions.append(i)
        elif ch != "0":
            raise PlaError(
                f"invalid input character {ch!r}", file=file, line=lineno
            )
    for combo in range(1 << len(free_positions)):
        point = fixed
        for j, pos in enumerate(free_positions):
            if (combo >> j) & 1:
                point |= 1 << pos
        yield point


def parse_pla(text: str, name: str = "", file: str | None = None) -> MultiBoolFunc:
    """Parse PLA text into a multi-output function (see :func:`read_pla`)."""
    return read_pla(text, name, file).function()


def parse_pla_file(path: str, name: str = "") -> MultiBoolFunc:
    try:
        with open(path, encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        raise PlaError(f"cannot read PLA file: {exc.strerror}", file=path) from exc
    except UnicodeDecodeError as exc:
        raise PlaError(f"PLA file is not ASCII text: {exc}", file=path) from exc
    return parse_pla(text, name=name or path, file=path)


def write_pla(func: MultiBoolFunc) -> str:
    """Serialize as a minterm-exact ``fr`` PLA (round-trip safe)."""
    out = io.StringIO()
    out.write(f".i {func.n}\n.o {func.num_outputs}\n.type fr\n")
    if func.output_names:
        out.write(".ob " + " ".join(func.output_names) + "\n")
    for point in range(1 << func.n):
        chars = []
        interesting = False
        for f in func.outputs:
            value = f.evaluate(point)
            if value == 1:
                chars.append("1")
                interesting = True
            elif value == 0:
                chars.append("0")
                interesting = True
            else:
                chars.append("-")
        if interesting:
            bits = "".join(str((point >> i) & 1) for i in range(func.n))
            out.write(f"{bits} {''.join(chars)}\n")
    out.write(".e\n")
    return out.getvalue()
