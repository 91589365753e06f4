"""Formula language: core syntax, surface parser, and adequate-set machinery.

The core language has exactly five constructors: atoms, negation,
conjunction, the interior box, and the binary reachability operator.
Everything else accepted by the parser (``|``, ``->``, ``<->``, ``<>``,
``T``, ``F``, ``pi``) is surface syntax lowered into the core at parse
time.  Truth constants are encoded over a reserved atom that user input
cannot mention, and the printer renders the encodings back as ``T`` and
``F`` so that printing and parsing round-trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

__all__ = [
    "Formula",
    "Atom",
    "Not",
    "And",
    "Box",
    "Reach",
    "TOP",
    "BOT",
    "RESERVED_ATOM",
    "ParseError",
    "ReservedAtomError",
    "dia",
    "lor",
    "implies",
    "equiv",
    "pibox",
    "parse_formula",
    "format_formula",
    "formula_key",
    "atoms_of",
    "subformulas",
    "single_negation",
    "AdequateSet",
    "adequate_closure",
    "is_adequate",
    "saturate_diamonds",
]

RESERVED_ATOM = "__t"
KEYWORDS = frozenset({"T", "F", "pi", "gamma"})
_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Formula:
    """Base class for core formulas.  Instances are immutable and hashable."""


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self) -> None:
        if self.name == RESERVED_ATOM:
            return  # sanctioned exception: carrier of the truth-constant encoding
        if not _ATOM_RE.match(self.name) or self.name in KEYWORDS:
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    child: Formula


@dataclass(frozen=True)
class Reach(Formula):
    """gamma(left, right): a path through left-points ends at a right-point."""

    left: Formula
    right: Formula


# Truth constants, encoded so the core stays at five constructors.  TOP is a
# negation, so its single negation strips to BOT and vice versa.
BOT = And(Atom(RESERVED_ATOM), Not(Atom(RESERVED_ATOM)))
TOP = Not(BOT)


def dia(f: Formula) -> Formula:
    """Diamond: somewhere above."""
    return Not(Box(Not(f)))


def lor(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def equiv(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def pibox(f: Formula) -> Formula:
    """Global box over the reachability-connected component."""
    return Not(Reach(TOP, Not(f)))


class ParseError(ValueError):
    """Syntax error with a character position into the input."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ReservedAtomError(ParseError):
    """User input mentioned an identifier in the reserved atom space."""


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<darrow><->)"
    r"|(?P<arrow>->)"
    r"|(?P<diamond><>)"
    r"|(?P<box>\[\])"
    r"|(?P<punct>[~&|(),])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        value = m.group()
        if kind == "ident":
            if value.startswith("_"):
                raise ReservedAtomError(
                    f"identifier {value!r} is reserved and may not appear in input",
                    pos,
                )
            if value in KEYWORDS:
                kind = value
        if kind == "punct":
            kind = value
        if kind != "ws":
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the surface grammar.

    Precedence, tightest first: unary (~ [] <> pi), &, |, -> (right
    associative), <-> (right associative).
    """

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def _advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def _expect(self, kind: str) -> tuple[str, str, int]:
        tok = self._peek()
        if tok[0] != kind:
            shown = tok[1] if tok[0] != "eof" else "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok[2])
        return self._advance()

    def parse(self) -> Formula:
        f = self._iff()
        tok = self._peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return f

    def _iff(self) -> Formula:
        left = self._implication()
        if self._peek()[0] == "darrow":
            self._advance()
            return equiv(left, self._iff())
        return left

    def _implication(self) -> Formula:
        left = self._disjunction()
        if self._peek()[0] == "arrow":
            self._advance()
            return implies(left, self._implication())
        return left

    def _disjunction(self) -> Formula:
        left = self._conjunction()
        while self._peek()[0] == "|":
            self._advance()
            left = lor(left, self._conjunction())
        return left

    def _conjunction(self) -> Formula:
        left = self._unary()
        while self._peek()[0] == "&":
            self._advance()
            left = And(left, self._unary())
        return left

    def _unary(self) -> Formula:
        kind = self._peek()[0]
        if kind == "~":
            self._advance()
            return Not(self._unary())
        if kind == "box":
            self._advance()
            return Box(self._unary())
        if kind == "diamond":
            self._advance()
            return dia(self._unary())
        if kind == "pi":
            self._advance()
            return pibox(self._unary())
        return self._primary()

    def _primary(self) -> Formula:
        kind, value, pos = self._peek()
        if kind == "(":
            self._advance()
            f = self._iff()
            self._expect(")")
            return f
        if kind == "gamma":
            self._advance()
            self._expect("(")
            left = self._iff()
            self._expect(",")
            right = self._iff()
            self._expect(")")
            return Reach(left, right)
        if kind == "T":
            self._advance()
            return TOP
        if kind == "F":
            self._advance()
            return BOT
        if kind == "ident":
            self._advance()
            return Atom(value)
        shown = value if kind != "eof" else "end of input"
        raise ParseError(f"expected a formula, found {shown!r}", pos)


def parse_formula(text: str) -> Formula:
    """Parse surface syntax into a core formula."""
    return _Parser(text).parse()


def format_formula(f: Formula) -> str:
    """Canonical surface text.  parse_formula(format_formula(f)) == f.

    Sugared operators are not reintroduced, with the single exception of the
    truth constants whose encodings mention the reserved atom.
    """
    return _format(f, False, False)


def _format(f: Formula, in_unary: bool, right_of_and: bool) -> str:
    if f == TOP:
        return "T"
    if f == BOT:
        return "F"
    match f:
        case Atom(name):
            return name
        case Not(child):
            return "~" + _format(child, True, False)
        case Box(child):
            return "[]" + _format(child, True, False)
        case Reach(left, right):
            return f"gamma({_format(left, False, False)}, {_format(right, False, False)})"
        case And(left, right):
            text = f"{_format(left, False, False)} & {_format(right, False, True)}"
            if in_unary or right_of_and:
                return f"({text})"
            return text
    raise TypeError(f"not a formula: {f!r}")


def formula_key(f: Formula) -> str:
    """Total order on formulas used wherever iteration must be deterministic."""
    return format_formula(f)


def atoms_of(f: Formula, *, include_reserved: bool = False) -> frozenset[str]:
    names: set[str] = set()
    for g in subformulas([f]):
        if isinstance(g, Atom):
            if g.name != RESERVED_ATOM or include_reserved:
                names.add(g.name)
    return frozenset(names)


def _children(f: Formula) -> tuple[Formula, ...]:
    match f:
        case Atom():
            return ()
        case Not(child) | Box(child):
            return (child,)
        case And(left, right) | Reach(left, right):
            return (left, right)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(formulas: Formula | Iterable[Formula]) -> frozenset[Formula]:
    """All subformulas of the given formulas, including the formulas themselves."""
    if isinstance(formulas, Formula):
        formulas = [formulas]
    seen: set[Formula] = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        stack.extend(_children(f))
    return frozenset(seen)


def single_negation(f: Formula) -> Formula:
    """~f, except that an outer negation is stripped instead of doubled."""
    if isinstance(f, Not):
        return f.child
    return Not(f)


@dataclass(frozen=True)
class AdequateSet:
    """A finite formula set closed under the rules used by filtration.

    Closure conditions: subformulas, single negations, and for every
    reachability member gamma(a, b) the two companions [](a -> gamma(a, b))
    and <>(a & gamma(a, b)), in core normal form.
    """

    members: frozenset[Formula]
    origin: frozenset[Formula]

    def __contains__(self, f: Formula) -> bool:
        return f in self.members

    def __iter__(self) -> Iterator[Formula]:
        return iter(self._ordered)

    @cached_property
    def _ordered(self) -> tuple[Formula, ...]:
        return tuple(sorted(self.members, key=formula_key))

    def __len__(self) -> int:
        return len(self.members)


def _reach_companions(f: Reach) -> tuple[Formula, Formula]:
    step = Box(implies(f.left, f))
    witness = dia(And(f.left, f))
    return step, witness


def adequate_closure(formulas: Iterable[Formula]) -> AdequateSet:
    """Least adequate set containing the given formulas."""
    origin = frozenset(formulas)
    members: set[Formula] = set()
    stack = list(origin)
    while stack:
        f = stack.pop()
        if f in members:
            continue
        members.add(f)
        stack.extend(_children(f))
        stack.append(single_negation(f))
        if isinstance(f, Reach):
            stack.extend(_reach_companions(f))
    return AdequateSet(members=frozenset(members), origin=origin)


def is_adequate(formulas: Iterable[Formula]) -> bool:
    """Check the closure conditions directly."""
    members = frozenset(formulas)
    for f in members:
        if any(g not in members for g in _children(f)):
            return False
        if single_negation(f) not in members:
            return False
        if isinstance(f, Reach) and any(g not in members for g in _reach_companions(f)):
            return False
    return True


def saturate_diamonds(sigma: AdequateSet) -> AdequateSet:
    """Extend an adequate set with the diamonds that pin down strict steps.

    Every member of the form ~[]g is a diamond in disguise: it says g fails
    somewhere above.  For each such member the formula <>(g & ~[]g) is
    added, locating a point where g still holds but is about to fail, and
    for every reachability member gamma(a, b) the formula <>(a & ~b); the
    result is closed again.  Filtrations through the extended set admit
    witness paths whose steps are equal or strict, which is what the
    cluster-cutting transformation needs.
    """
    extra: set[Formula] = set(sigma.members)
    for f in sigma.members:
        match f:
            case Not(Box(body)):
                extra.add(dia(And(body, f)))
            case Reach(left, right):
                extra.add(dia(And(left, Not(right))))
    return adequate_closure(extra)
