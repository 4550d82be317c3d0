"""Run-config parsing: the one module that reads config text.

``parse_config`` reads every field of every section through one reader, so
an unknown field or a malformed value raises ``ConfigError`` with its line
before anything runs, and it turns each ``[suite]`` into a ``SuiteSpec`` whose
``run`` is a ``checks`` function with its arguments parsed.  A config is a
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
side=uni)``, ``diag(rot(expr))`` or ``diag(expr)``, ``blockcycle``,
``rowrotation``, ``comp(a=..., b=..., deg=...)``.  Vector literals:
``vec(sparse: idx:val, ...)`` and ``vec(rowpattern)``.  Set expressions:
``residue(k,r)``, ``fs(g1,...,gm; depth)``, ``intervals(a-b, c-d)``,
``explicit(n1, n2, ...)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Optional

from . import checks
from .families import IndexWindow, SetPredicate, ip_generate
from .operators import (AffineComposition, BlockCycle, Diagonal,
                        EntireCoefficients, FiniteRowVector, Matrix, Operator,
                        RowRotation, RowState, SparseVector, Vector,
                        WeightedBackwardShift, check_seminorm_index)
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
        if rule.uses_n:
            raise ConfigError("rot(...) used as a scalar must not depend on n")
        return Phase(Fraction(1), rule(0))
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
    if kw.get("side", "uni") != "uni":
        raise ConfigError("shift side must be uni: the space is indexed from 1, "
                          "so there is no bilateral shift on it")
    try:
        rule = Rule(kw["weights"])
    except RuleSyntaxError as err:
        raise ConfigError(str(err)) from err
    return WeightedBackwardShift(rule)


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
    first = op.space.first_coordinate
    if first is None:
        if pairs:
            raise ConfigError("row-space coordinates are (row, column) cells; "
                              "only the zero vector vec(sparse:) and "
                              "vec(rowpattern) are expressible here")
        return FiniteRowVector(())
    if any(i < first for i, _ in pairs):
        raise ConfigError(f"coordinates of this space start at index {first}")
    return SparseVector.from_pairs(op.space, pairs)


# ---------------------------------------------------------------------------
# set expressions
# ---------------------------------------------------------------------------

def parse_set_expression(text: str, horizon: int) -> IndexWindow:
    """The window of a set expression; only ``fs`` truncates at ``horizon``."""
    try:
        return _set_expression(text.strip(), horizon)
    except ValueError as err:           # ours, or families rejecting arguments
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
        if any(hi > horizon for _, hi in spans):
            raise ConfigError(f"interval past the horizon {horizon}")
        return IndexWindow.from_mask(SetPredicate.intervals(*spans).mask(horizon))
    if t.startswith("explicit(") and t.endswith(")"):
        return IndexWindow(sorted({int(x) for x in _split_top(t[9:-1])}), horizon)
    raise ConfigError("unknown set expression")


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
    """One ``[suite]``: its check kind and that check with parsed arguments."""
    name: str
    check: str
    run: Callable[[], checks.CheckOutcome]


@dataclass(frozen=True)
class RunConfig:
    experiments: tuple[ExperimentSpec, ...]
    suites: tuple[SuiteSpec, ...]
    output_dir: str = "results"


def parse_config(text: str, seed: int = 0) -> RunConfig:
    """Parse and check a whole config; ``seed`` is the suites' default seed."""
    experiments, suites = [], []
    output_dir = "results"
    for kind, name, fields, line_no in _sections(text):
        sec = _Section(f"{kind} {name!r}" if name else f"[{kind}]", fields, line_no)
        if kind == "experiment":
            experiments.append(_experiment(sec, name))
        elif kind == "suite":
            suites.append(SuiteSpec(name, sec.get("check"), _suite_check(sec, seed)))
        else:
            output_dir = sec.get("directory", default=output_dir)
        sec.check_all_read()
    return RunConfig(tuple(experiments), tuple(suites), output_dir)


def _sections(text: str) -> list[tuple[str, str, dict, int]]:
    """``(kind, name, {key: (value, line)}, header line)`` per section."""
    sections = []
    names = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line_no)
            head = line[1:-1].split(None, 1)
            if head[0] == "output":
                sections.append(("output", "", {}, line_no))
            elif len(head) == 2 and head[0] in ("experiment", "suite"):
                if head[1] in names:
                    raise ConfigError(f"duplicate name {head[1]!r}", line_no)
                names.add(head[1])
                sections.append((head[0], head[1], {}, line_no))
            else:
                raise ConfigError(f"malformed section header {line!r}", line_no)
            continue
        if not sections:
            raise ConfigError("content before any section", line_no)
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        fields = sections[-1][2]
        if key in fields:
            raise ConfigError(f"duplicate field {key!r}", line_no)
        fields[key] = (value, line_no)
    return sections


class _Section:
    """One section's fields; ``check_all_read`` rejects any ``get`` never read."""

    def __init__(self, label: str, fields: dict[str, tuple[str, int]], line: int):
        self.label = label
        self.fields = fields
        self.line = line
        self.read: set[str] = set()

    def get(self, key: str, parse: Callable[[str], Any] = str,
            default: Optional[str] = None) -> Any:
        """``parse`` of the field's text, or of ``default`` when it is absent."""
        self.read.add(key)
        text, line = self.fields.get(key, (default, self.line))
        if text is None:
            raise ConfigError(f"{self.label} needs {key}=", line)
        try:
            return parse(text)
        except (ValueError, ArithmeticError) as err:
            raise ConfigError(f"{self.label}, field {key!r}: {err}", line) from err

    def check_all_read(self) -> None:
        for key, (_, line) in self.fields.items():
            if key not in self.read:
                raise ConfigError(f"{self.label} has no field {key!r}", line)


def _horizon(text: str) -> int:
    horizon = int(text)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return horizon


def _epsilons(text: str) -> tuple[Fraction, ...]:
    eps = tuple(Fraction(e) for e in _split_top(text))
    if not eps or any(e <= 0 for e in eps) or len(set(eps)) != len(eps):
        raise ValueError("epsilons must be positive and distinct")
    return eps


def _seminorm(op: Operator, text: str) -> int:
    return check_seminorm_index(op.space, int(text))


def _seminorms(op: Operator, text: str) -> tuple[int, ...]:
    indices = tuple(_seminorm(op, s) for s in _split_top(text))
    if not indices:
        raise ValueError("need at least one seminorm index")
    return indices


def _family(name: str) -> str:
    if name not in checks.named_families():
        raise ValueError(f"unknown family {name!r}")
    return name


def _turn(t: str):
    return float(Rule(t)(0)) % 1.0 if "sqrt" in t else Fraction(t) % 1


def _operator(sec: _Section, cls: type = Operator) -> Operator:
    op = sec.get("operator", parse_operator)
    if not isinstance(op, cls):
        raise ConfigError(f"{sec.label} needs a {cls.__name__} operator",
                          sec.fields["operator"][1])
    return op


def _operator_vector(sec: _Section):
    op = _operator(sec)
    return op, sec.get("vector", partial(parse_vector, op=op))


def _experiment(sec: _Section, name: str) -> ExperimentSpec:
    op, _ = _operator_vector(sec)   # fail fast on malformed literals
    return ExperimentSpec(
        name, sec.get("operator"), sec.get("vector"), sec.get("epsilons", _epsilons),
        sec.get("seminorms", partial(_seminorms, op), "0"),
        sec.get("horizon", _horizon),
        sec.get("seed", int, "0"))


def _suite_check(sec: _Section, seed: int) -> Callable[[], checks.CheckOutcome]:
    """The suite's check with every argument parsed; README lists the kinds."""
    kind = sec.get("check")
    horizon = sec.get("horizon", _horizon,
                      "20000" if kind == "cut-shift-paste" else "10000")
    epsilons = partial(sec.get, "epsilons", _epsilons, "1/2,1/5")
    index_set = partial(parse_set_expression, horizon=horizon)
    if kind == "kronecker":
        turns = sec.get("turns", lambda t: [_turn(s) for s in t.split(",")])
        eps = sec.get("epsilon", lambda t: float(Fraction(t)), "1/2")
        return partial(checks.kronecker_return_check, turns, eps, horizon)
    if kind == "cut-shift-paste":
        return partial(checks.cut_shift_paste_check,
                       sec.get("family", _family, "syndetic"),
                       sec.get("trials", int, "100"),
                       sec.get("seed", int, str(seed)), horizon)
    if kind == "matrix-criterion":
        return partial(checks.matrix_criterion_check, _operator(sec, Matrix),
                       epsilons(), horizon)
    if kind == "diagonal-criterion":
        return partial(checks.diagonal_criterion_check, _operator(sec, Diagonal),
                       sec.get("sample", int, "4"), epsilons(), horizon)
    if kind == "power-consistency":
        op, x = _operator_vector(sec)
        return partial(checks.power_consistency_check, op, x,
                       sec.get("p", int, "2"), epsilons(), horizon,
                       seminorms=sec.get("seminorms", partial(_seminorms, op), "0"))
    if kind == "scaling-consistency":
        op, x = _operator_vector(sec)
        return partial(checks.scaling_consistency_check, op, x,
                       sec.get("factor", parse_scalar, "rot(1/3)"), epsilons(),
                       horizon,
                       seminorms=sec.get("seminorms", partial(_seminorms, op), "0"))
    if kind == "shift-series":
        return partial(checks.shift_series_check, sec.get("weights", Rule, "2"),
                       sec.get("support", index_set, f"intervals(1-{horizon})"),
                       sec.get("threshold", float, "10"))
    if kind == "translation-invariance":
        return partial(checks.translation_invariance_check,
                       sec.get("window", index_set, "residue(3,0)"),
                       sec.get("m", int, "7"))
    if kind == "minimality-separation":
        op, x = _operator_vector(sec)
        return partial(checks.minimality_separation_check, op, x,
                       sec.get("reference", partial(parse_vector, op=op)), horizon,
                       seminorm_index=sec.get("seminorm", partial(_seminorm, op), "0"))
    if kind == "eigenvector-span":
        # diagonal operators carry their eigenvectors: unit coordinates
        op = _operator(sec, Diagonal)

        def eigenpairs(text):
            coeffs = [parse_scalar(c) for c in text.split(",")]
            return coeffs, [(op.entry(k), SparseVector.unit(op.space, k))
                            for k in range(1, len(coeffs) + 1)]
        coeffs, pairs = sec.get("coefficients", eigenpairs, "1")
        return partial(checks.eigenvector_span_check, op, pairs, coeffs,
                       epsilons(), horizon)
    raise ConfigError(f"unknown check kind {kind!r} in {sec.label}", sec.line)


# ---------------------------------------------------------------------------
# operator descriptions
# ---------------------------------------------------------------------------

def describe_operator(literal: str) -> str:
    op = parse_operator(literal)
    return "\n".join([f"literal: {literal.strip()}", *op.describe()])
