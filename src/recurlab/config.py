"""Run-config parsing: operator, vector, scalar and set literals.

One human-editable text format drives the experiment runner.  A config is a
sequence of sections::

    [experiment NAME]
    operator = blockcycle
    vector   = vec(sparse: 5:1)
    epsilons = 1/2, 1/10
    seminorms = 0
    horizon  = 10000

    [suite NAME]
    check = kronecker
    turns = 1/4
    epsilon = 1.0
    horizon = 10000

Scalars: exact rationals ``p/q``, decimals, complex ``re+imi`` (e.g. ``1+2i``,
``0.5-0.5i``, ``i``), and ``rot(expr)`` for the unimodular point at ``expr``
turns.  Operator literals: ``matrix([[...],[...]])``, ``shift(weights=expr,
side=uni|bi)``, ``diag(rot(expr))`` or ``diag(expr)``, ``blockcycle``,
``rowrotation``, ``comp(a=..., b=..., deg=...)``.  Vector literals:
``vec(sparse: idx:val, ...)`` and ``vec(rowpattern)``.  Set expressions:
``residue(k,r)``, ``fs(g1,...,gm; depth)``, ``intervals(a-b, c-d)``,
``explicit(n1, n2, ...)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .families import IndexWindow, SetPredicate, ip_generate
from .operators import (AffineComposition, BlockCycle, Diagonal,
                        EntireCoefficients, FiniteRowVector, Matrix, Operator,
                        RowRotation, RowState, SparseVector, Vector,
                        WeightedBackwardShift)
from .rules import Rule, RuleSyntaxError
from .values import Phase, Value, to_complex

__all__ = [
    "ConfigError", "RunConfig", "ExperimentSpec", "SuiteSpec",
    "parse_config", "parse_operator", "parse_vector", "parse_scalar",
    "parse_set_expression", "describe_operator",
]


class ConfigError(ValueError):
    """Parse or consistency error, carrying a location when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# ---------------------------------------------------------------------------
# scalar literals
# ---------------------------------------------------------------------------

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:\.\d+)?(?:/\d+)?)?"
    r"(?P<im>[+-](?:\d+(?:\.\d+)?(?:/\d+)?)?)?i$")


def parse_scalar(text: str) -> Value:
    """Rational, decimal, complex ``re+imi`` or ``rot(expr)`` literal."""
    t = text.strip()
    if not t:
        raise ConfigError("empty scalar literal")
    if t.startswith("rot(") and t.endswith(")"):
        rule = Rule(t[4:-1])
        v0, v1 = rule(0), rule(1)
        if v0 != v1:
            raise ConfigError("rot(...) used as a scalar must not depend on n")
        return Phase(Fraction(1), v0)
    if t.endswith("i") and not t.endswith("pi"):
        mm = _COMPLEX_RE.match(t.replace(" ", ""))
        if mm:
            re_part = mm.group("re")
            im_part = mm.group("im")
            if im_part is None:
                # a single number directly before i is purely imaginary
                real = Fraction(0)
                imag = Fraction(re_part) if re_part else Fraction(1)
            else:
                real = Fraction(re_part) if re_part else Fraction(0)
                if im_part in ("+", "-"):
                    imag = Fraction(1 if im_part == "+" else -1)
                else:
                    imag = Fraction(im_part)
            if real == 0 and imag == 0:
                return Fraction(0)
            return complex(float(real), float(imag))
        raise ConfigError(f"malformed complex literal {text!r}")
    try:
        return Fraction(t)
    except ValueError as err:
        raise ConfigError(f"malformed scalar literal {text!r}") from err


def _split_top(text: str, sep: str = ",") -> list[str]:
    """Split at top level, respecting (), [] nesting."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or out:
        out.append("".join(cur))
    return [p.strip() for p in out if p.strip()]


# ---------------------------------------------------------------------------
# operator literals
# ---------------------------------------------------------------------------

def parse_operator(text: str) -> Operator:
    t = text.strip()
    if t == "blockcycle":
        return BlockCycle()
    if t == "rowrotation":
        return RowRotation()
    if t.startswith("matrix(") and t.endswith(")"):
        return _parse_matrix(t[7:-1])
    if t.startswith("shift(") and t.endswith(")"):
        return _parse_shift(t[6:-1])
    if t.startswith("diag(") and t.endswith(")"):
        return _parse_diag(t[5:-1])
    if t.startswith("comp(") and t.endswith(")"):
        return _parse_comp(t[5:-1])
    raise ConfigError(f"unknown operator literal {text!r}")


def _parse_matrix(body: str) -> Matrix:
    b = body.strip()
    if not (b.startswith("[[") and b.endswith("]]")):
        raise ConfigError("matrix literal needs [[...],[...]] rows")
    rows_text = _split_top(b[1:-1])
    rows = []
    for rt in rows_text:
        rt = rt.strip()
        if not (rt.startswith("[") and rt.endswith("]")):
            raise ConfigError(f"malformed matrix row {rt!r}")
        entries = [to_complex(parse_scalar(e)) for e in _split_top(rt[1:-1])]
        rows.append(tuple(entries))
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ConfigError("matrix must be square")
    return Matrix(tuple(rows))


def _parse_kwargs(body: str) -> dict[str, str]:
    out = {}
    for part in _split_top(body):
        if "=" not in part:
            raise ConfigError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _parse_shift(body: str) -> WeightedBackwardShift:
    kw = _parse_kwargs(body)
    if "weights" not in kw:
        raise ConfigError("shift(...) needs weights=")
    side = kw.get("side", "uni")
    if side not in ("uni", "bi"):
        raise ConfigError("shift side must be uni or bi")
    try:
        rule = Rule(kw["weights"])
    except RuleSyntaxError as err:
        raise ConfigError(str(err)) from err
    return WeightedBackwardShift(rule, bilateral=(side == "bi"))


def _parse_diag(body: str) -> Diagonal:
    b = body.strip()
    try:
        if b.startswith("rot(") and b.endswith(")"):
            return Diagonal(turns=Rule(b[4:-1]))
        return Diagonal(values=Rule(b))
    except RuleSyntaxError as err:
        raise ConfigError(str(err)) from err


def _parse_comp(body: str) -> AffineComposition:
    kw = _parse_kwargs(body)
    for key in ("a", "b"):
        if key not in kw:
            raise ConfigError("comp(...) needs a= and b=")
    a = parse_scalar(kw["a"])
    b = parse_scalar(kw["b"])
    deg = int(kw.get("deg", "8"))
    return AffineComposition(a, b, EntireCoefficients(deg))


# ---------------------------------------------------------------------------
# vector literals
# ---------------------------------------------------------------------------

def parse_vector(text: str, op: Operator) -> Vector:
    t = text.strip()
    if not (t.startswith("vec(") and t.endswith(")")):
        raise ConfigError(f"unknown vector literal {text!r}")
    body = t[4:-1].strip()
    if body == "rowpattern":
        if not isinstance(op, RowRotation):
            raise ConfigError("vec(rowpattern) needs the rowrotation operator")
        return RowState(0)
    if not body.startswith("sparse:"):
        raise ConfigError("vector literal must be vec(sparse: idx:val, ...)")
    pairs = []
    for item in _split_top(body[len("sparse:"):]):
        if ":" not in item:
            raise ConfigError(f"malformed coordinate {item!r}")
        idx_text, val_text = item.split(":", 1)
        pairs.append((int(idx_text), parse_scalar(val_text)))
    if isinstance(op, RowRotation):
        if pairs:
            raise ConfigError("row-space coordinates are (row, column) cells; "
                              "only the zero vector vec(sparse:) and "
                              "vec(rowpattern) are expressible here")
        return FiniteRowVector(())
    return SparseVector.from_pairs(op.space, pairs)


# ---------------------------------------------------------------------------
# set expressions
# ---------------------------------------------------------------------------

def parse_set_expression(text: str, horizon: int) -> IndexWindow:
    try:
        return _set_expression(text.strip(), horizon)
    except ConfigError:
        raise
    except ValueError as err:           # families rejects bad arguments
        raise ConfigError(f"set expression {text.strip()!r}: {err}") from err


def _set_expression(t: str, horizon: int) -> IndexWindow:
    if t.startswith("residue(") and t.endswith(")"):
        parts = _split_top(t[8:-1])
        if len(parts) != 2:
            raise ConfigError("residue(k, r) takes two arguments")
        return IndexWindow.residue(int(parts[0]), int(parts[1]), horizon)
    if t.startswith("fs(") and t.endswith(")"):
        body = t[3:-1]
        if ";" not in body:
            raise ConfigError("fs(g1,...,gm; depth)")
        gens_text, depth_text = body.rsplit(";", 1)
        gens = tuple(int(g) for g in _split_top(gens_text))
        return ip_generate(gens, int(depth_text), horizon)
    if t.startswith("intervals(") and t.endswith(")"):
        spans = []
        for span in _split_top(t[10:-1]):
            if "-" not in span:
                raise ConfigError(f"malformed interval {span!r}")
            lo, hi = span.split("-", 1)
            spans.append((int(lo), int(hi)))
        return IndexWindow.from_mask(SetPredicate.intervals(*spans).mask(horizon))
    if t.startswith("explicit(") and t.endswith(")"):
        return IndexWindow.from_iterable(
            (int(x) for x in _split_top(t[9:-1])), horizon)
    raise ConfigError(f"unknown set expression {t!r}")


# ---------------------------------------------------------------------------
# run configs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    operator_literal: str
    vector_literal: str
    epsilons: tuple[Fraction, ...]
    seminorms: tuple[int, ...]
    horizon: int
    seed: int = 0

    def build(self) -> tuple[Operator, Vector]:
        op = parse_operator(self.operator_literal)
        return op, parse_vector(self.vector_literal, op)


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    check: str
    params: tuple[tuple[str, str], ...]

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class RunConfig:
    experiments: tuple[ExperimentSpec, ...]
    suites: tuple[SuiteSpec, ...]
    output_dir: str = "results"


def parse_config(text: str) -> RunConfig:
    experiments: list[ExperimentSpec] = []
    suites: list[SuiteSpec] = []
    output_dir = "results"
    section: Optional[tuple[str, str]] = None
    fields: dict[str, tuple[str, int]] = {}
    names = set()

    def flush(line_no: int):
        nonlocal output_dir
        if section is None:
            return
        kind, name = section
        if kind == "experiment":
            experiments.append(_experiment_from(name, fields))
        elif kind == "suite":
            suites.append(SuiteSpec(
                name=name, check=_take(fields, "check", name),
                params=tuple(sorted((k, v) for k, (v, _) in fields.items()))))
        elif kind == "output":
            output_dir = fields.get("directory", (output_dir, 0))[0]
        else:
            raise ConfigError(f"unknown section kind {kind!r}", line_no)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("["):
            stripped = line.strip()
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", line_no)
            flush(line_no)
            fields = {}
            head = stripped[1:-1].split(None, 1)
            if head[0] == "output":
                section = ("output", "")
            elif len(head) == 2 and head[0] in ("experiment", "suite"):
                if head[1] in names:
                    raise ConfigError(f"duplicate name {head[1]!r}", line_no)
                names.add(head[1])
                section = (head[0], head[1])
            else:
                raise ConfigError(f"malformed section header {stripped!r}", line_no)
            continue
        if section is None:
            raise ConfigError("content before any section", line_no)
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line.strip()!r}", line_no)
        key, value = line.split("=", 1)
        fields[key.strip()] = (value.strip(), line_no)
    flush(len(text.splitlines()))
    return RunConfig(tuple(experiments), tuple(suites), output_dir)


def _take(fields: dict, key: str, section_name: str) -> str:
    if key not in fields:
        raise ConfigError(f"section {section_name!r} is missing {key!r}")
    return fields[key][0]


def _experiment_from(name: str, fields: dict) -> ExperimentSpec:
    op_lit = _take(fields, "operator", name)
    vec_lit = _take(fields, "vector", name)
    eps_text, eps_line = fields.get("epsilons", ("", 0))
    if not eps_text:
        raise ConfigError(f"experiment {name!r} is missing epsilons")
    eps = tuple(Fraction(e) for e in _split_top(eps_text))
    if any(e <= 0 for e in eps) or len(set(eps)) != len(eps):
        raise ConfigError("epsilons must be positive and distinct", eps_line)
    sem_text = fields.get("seminorms", ("0", 0))[0]
    seminorms = tuple(int(s) for s in _split_top(sem_text))
    horizon_text, hline = fields.get("horizon", ("", 0))
    if not horizon_text:
        raise ConfigError(f"experiment {name!r} is missing horizon")
    horizon = int(horizon_text)
    if horizon < 1:
        raise ConfigError("horizon must be >= 1", hline)
    seed = int(fields.get("seed", ("0", 0))[0])
    spec = ExperimentSpec(name, op_lit, vec_lit, eps, seminorms, horizon, seed)
    try:
        spec.build()        # fail fast on malformed literals
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"experiment {name!r}: {err}") from err
    return spec


# ---------------------------------------------------------------------------
# operator descriptions
# ---------------------------------------------------------------------------

def describe_operator(literal: str) -> str:
    op = parse_operator(literal)
    return "\n".join([f"literal: {literal.strip()}", *op.describe()])
