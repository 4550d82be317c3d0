"""Run-config parsing: the one module that reads config text.

``parse_config`` reads every field of every section through one reader, with
one parser per field key, so an unknown field or a malformed value raises
``ConfigError`` with its line before anything runs.  Each ``[suite]`` kind is
one row of ``suite_kinds()``: its ``checks`` function and its fields; the
suite becomes a ``SuiteSpec`` whose ``run`` is that function with its
arguments parsed.  A config is a sequence of sections::

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
from typing import Any, Callable, NamedTuple, Optional

from . import checks
from .families import IndexWindow, SetPredicate, ip_generate
from .operators import (AffineComposition, BlockCycle, Diagonal,
                        EntireCoefficients, FiniteRowVector, Matrix, Operator,
                        RowRotation, RowState, SparseVector, Vector,
                        WeightedBackwardShift, check_seminorm_index)
from .rules import Rule, RuleSyntaxError
from .values import Phase, Value, to_complex

__all__ = [
    "ConfigError", "RunConfig", "ExperimentSpec", "SuiteSpec", "SuiteKind", "Field",
    "parse_config", "parse_operator", "parse_vector", "parse_scalar",
    "parse_set_expression", "describe_operator", "suite_kinds",
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
        if not mm:
            raise ConfigError(f"malformed complex literal {text!r}")
        re_part, im_part = mm["re"] or "0", mm["im"]
        if im_part is None:     # a single number directly before i is purely imaginary
            re_part, im_part = "0", mm["re"] or "1"
        real = Fraction(re_part)
        imag = Fraction(im_part + "1" if im_part in ("+", "-") else im_part)
        return complex(float(real), float(imag)) if real or imag else Fraction(0)
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
    out.append("".join(cur))
    return [p.strip() for p in out if p.strip()]


# ---------------------------------------------------------------------------
# operator literals
# ---------------------------------------------------------------------------

def parse_operator(text: str) -> Operator:
    t = text.strip()
    if t in ("blockcycle", "rowrotation"):
        return BlockCycle() if t == "blockcycle" else RowRotation()
    head, _, body = t.partition("(")
    parse = {"matrix": _parse_matrix, "shift": _parse_shift, "diag": _parse_diag,
             "comp": _parse_comp}.get(head)
    if parse is None or not body.endswith(")"):
        raise ConfigError(f"unknown operator literal {text!r}")
    return parse(body[:-1])


def _parse_matrix(body: str) -> Matrix:
    b = body.strip()
    if not (b.startswith("[[") and b.endswith("]]")):
        raise ConfigError("matrix literal needs [[...],[...]] rows")
    rows = []
    for rt in _split_top(b[1:-1]):
        if not (rt.startswith("[") and rt.endswith("]")):
            raise ConfigError(f"malformed matrix row {rt!r}")
        rows.append(tuple(to_complex(parse_scalar(e)) for e in _split_top(rt[1:-1])))
    if any(len(r) != len(rows) for r in rows):
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
        return WeightedBackwardShift(Rule(kw["weights"]))
    except RuleSyntaxError as err:
        raise ConfigError(str(err)) from err


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
    if not {"a", "b"} <= kw.keys():
        raise ConfigError("comp(...) needs a= and b=")
    return AffineComposition(parse_scalar(kw["a"]), parse_scalar(kw["b"]),
                             EntireCoefficients(int(kw.get("deg", "8"))))


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
    """One ``[suite]``: its check with every argument parsed."""
    name: str
    run: Callable[[], checks.CheckOutcome]


@dataclass(frozen=True)
class RunConfig:
    experiments: tuple[ExperimentSpec, ...]
    suites: tuple[SuiteSpec, ...]
    output_dir: str = "results"


class Field(NamedTuple):
    """A section field: its key, its default (None: required; a format string
    over ``seed`` and the fields read before it), its value's class and, for
    a count, the row's own least value in place of the key's."""
    key: str
    default: Optional[str] = None
    cls: type = object
    least: Optional[int] = None


class SuiteKind(NamedTuple):
    """A ``[suite]`` check kind: ``check`` runs on the values of ``fields``,
    read in this order, or on the values ``args`` names."""
    name: str
    check: Callable[..., checks.CheckOutcome]
    fields: tuple[Field, ...]
    args: tuple[str, ...] = ()

    def build(self, values: dict) -> Callable[[], checks.CheckOutcome]:
        keys = self.args or [f.key for f in self.fields]
        return partial(self.check, *(values[k] for k in keys))


_EXPERIMENT = (Field("operator"), Field("vector"), Field("epsilons"),
               Field("seminorms", "0"), Field("horizon"), Field("seed", "0"))


def suite_kinds() -> dict[str, SuiteKind]:
    """The ``[suite]`` check kinds by name; README's suite table lists them.

    Built on each call, so that a row runs the ``checks`` function the module
    holds when the config is parsed.
    """
    op, x, diag = Field("operator"), Field("vector"), Field("operator", cls=Diagonal)
    eps, horizon = Field("epsilons", "1/2,1/5"), Field("horizon", "10000")
    kinds = (
        SuiteKind("kronecker", checks.kronecker_return_check,
                  (Field("turns"), Field("epsilon", "1/2"), horizon)),
        SuiteKind("cut-shift-paste", checks.cut_shift_paste_check,
                  (Field("family", "syndetic"), Field("trials", "100"),
                   Field("seed", "{seed}"),
                   Field("horizon", "20000", least=checks.CUT_SHIFT_PASTE_MIN_HORIZON))),
        SuiteKind("matrix-criterion", checks.matrix_criterion_check,
                  (Field("operator", cls=Matrix), eps, horizon)),
        SuiteKind("diagonal-criterion", checks.diagonal_criterion_check,
                  (diag, Field("sample", "4"), eps, horizon)),
        SuiteKind("power-consistency", checks.power_consistency_check,
                  (op, x, Field("p", "2"), eps, horizon, Field("seminorms", "0"))),
        SuiteKind("scaling-consistency", checks.scaling_consistency_check,
                  (op, x, Field("factor", "rot(1/3)"), eps, horizon, Field("seminorms", "0"))),
        SuiteKind("shift-series", checks.shift_series_check,
                  (horizon, Field("weights", "2"), Field("support", "intervals(1-{horizon})"),
                   Field("threshold", "10")), args=("weights", "support", "threshold")),
        SuiteKind("translation-invariance", checks.translation_invariance_check,
                  (horizon, Field("window", "residue(3,0)"), Field("m", "7")),
                  args=("window", "m")),
        SuiteKind("minimality-separation", checks.minimality_separation_check,
                  (op, x, Field("reference"), horizon, Field("seminorm", "0"))),
        SuiteKind("eigenvector-span", checks.eigenvector_span_check,
                  (diag, Field("coefficients", "1"), eps, horizon),
                  args=("operator", "eigenpairs", "coefficients", "epsilons", "horizon")),
    )
    return {kind.name: kind for kind in kinds}


def parse_config(text: str, seed: int = 0) -> RunConfig:
    """Parse and check a whole config; ``seed`` is the suites' default seed."""
    experiments, suites = [], []
    output_dir = "results"
    kinds = suite_kinds()
    for kind, name, fields, line_no in _sections(text):
        sec = _Section(f"{kind} {name!r}" if name else f"[{kind}]", fields, line_no)
        if kind == "experiment":
            v = sec.values(_EXPERIMENT)
            experiments.append(ExperimentSpec(
                name, fields["operator"][0], fields["vector"][0], v["epsilons"],
                v["seminorms"], v["horizon"], v["seed"]))
        elif kind == "suite":
            check = sec.get("check")
            if check not in kinds:
                raise ConfigError(f"unknown check kind {check!r} in {sec.label}", line_no)
            row = kinds[check]
            suites.append(SuiteSpec(name, row.build(sec.values(row.fields, seed=seed))))
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
            if head == ["output"]:
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

    def values(self, fields: tuple[Field, ...], **context) -> dict:
        """``context`` and the value of each field, read in order by its key's
        parser."""
        values = dict(context)
        parsers = _parsers(values)
        for key, default, cls, least in fields:
            parse = parsers[key] if least is None else _at_least(least, key)
            value = values[key] = self.get(key, parse, default and default.format_map(values))
            if not isinstance(value, cls):
                raise ConfigError(f"{self.label} needs a {cls.__name__} {key}",
                                  self.fields[key][1])
        return values

    def check_all_read(self) -> None:
        for key, (_, line) in self.fields.items():
            if key not in self.read:
                raise ConfigError(f"{self.label} has no field {key!r}", line)


def _at_least(low: int, key: str) -> Callable[[str], int]:
    def parse(text):
        if int(text) < low:
            raise ValueError(f"{key} must be >= {low}")
        return int(text)
    return parse


def _parsers(v: dict) -> dict[str, Callable[[str], Any]]:
    """The one parser of each field key; ``v`` holds the fields read before."""

    def epsilons(text):
        eps = tuple(Fraction(e) for e in _split_top(text))
        if not eps or any(e <= 0 for e in eps) or len(set(eps)) != len(eps):
            raise ValueError("epsilons must be positive and distinct")
        return eps

    def seminorm(text):
        return check_seminorm_index(v["operator"].space, int(text))

    def seminorms(text):
        indices = tuple(seminorm(s) for s in _split_top(text))
        if not indices:
            raise ValueError("need at least one seminorm index")
        return indices

    def turns(text):
        # each turn reduced mod 1: a Fraction, or a float once sqrt enters
        rules = [Rule(t) for t in text.split(",")]
        if any(rule.uses_n for rule in rules):
            raise ValueError("turns must not depend on n")
        return [rule(0) % 1 for rule in rules]

    def family(name):
        if name not in checks.named_families():
            raise ValueError(f"unknown family {name!r}")
        return name

    def coefficients(text):
        # one eigenpair per coefficient: a diagonal's unit coordinates
        op, coeffs = v["operator"], [parse_scalar(c) for c in text.split(",")]
        v["eigenpairs"] = [(op.entry(k), SparseVector.unit(op.space, k))
                           for k in range(1, len(coeffs) + 1)]
        return coeffs

    return {
        "operator": parse_operator,
        "vector": lambda t: parse_vector(t, v["operator"]),
        "reference": lambda t: parse_vector(t, v["operator"]),
        "support": lambda t: parse_set_expression(t, v["horizon"]),
        "window": lambda t: parse_set_expression(t, v["horizon"]),
        "epsilons": epsilons, "epsilon": lambda t: float(Fraction(t)),
        "seminorms": seminorms, "seminorm": seminorm,
        **{key: _at_least(1, key) for key in ("horizon", "trials", "sample", "p")},
        **{key: _at_least(0, key) for key in ("m", "seed")},
        "threshold": float, "turns": turns, "family": family,
        "factor": parse_scalar, "weights": Rule, "coefficients": coefficients,
    }


# ---------------------------------------------------------------------------
# operator descriptions
# ---------------------------------------------------------------------------

def describe_operator(literal: str) -> str:
    op = parse_operator(literal)
    return "\n".join([f"literal: {literal.strip()}", *op.describe()])
