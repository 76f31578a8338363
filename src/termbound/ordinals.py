"""Exact arithmetic on ordinals below epsilon_0 in Cantor normal form.

A value is a finite sum ``w^e1*c1 + ... + w^ep*cp`` with exponents that are
themselves ordinals, ``e1 > ... > ep``, and positive integer coefficients.
The representation is canonical: two ordinals are equal exactly when their
term lists are equal, so ``==`` and ``hash`` behave structurally.

Supported operations are comparison, the standard (non-commutative) sum,
the natural (coefficient-wise) sum, the natural product by a non-negative
integer, exponentiation of an integer base ``k >= 2`` by an ordinal, and
the identification of ordinals below ``w^k`` with integer vectors.

All values are immutable and every operation is a pure function, so they
may be shared freely between threads.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from contextlib import contextmanager

from .errors import BudgetExceeded, DomainTooLarge, ParseError


class Ordinal:
    """An ordinal below epsilon_0 in hereditary Cantor normal form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple["Ordinal", int]] = ()):
        terms = tuple(terms)
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise TypeError(f"exponent must be an Ordinal, got {exp!r}")
            if type(coeff) is not int or coeff < 1:
                raise ValueError(f"coefficient must be a positive integer, got {coeff!r}")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if cmp(e1, e2) <= 0:
                raise ValueError("exponents must be strictly decreasing")
        self._terms = terms

    @staticmethod
    def _make(terms: tuple[tuple["Ordinal", int], ...]) -> "Ordinal":
        # Internal fast path: terms are already known to be canonical.
        o = object.__new__(Ordinal)
        o._terms = terms
        return o

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if type(n) is not int or n < 0:
            raise ValueError(f"expected a natural number, got {n!r}")
        if n == 0:
            return ZERO
        return cls._make(((ZERO, n),))

    @classmethod
    def omega_pow(cls, exponent: OrdinalLike, coeff: int = 1) -> "Ordinal":
        """The ordinal ``w^exponent * coeff``."""
        if type(coeff) is not int or coeff < 0:
            raise ValueError(f"coefficient must be a natural number, got {coeff!r}")
        if coeff == 0:
            return ZERO
        return cls._make(((_coerce(exponent), coeff),))

    @classmethod
    def parse(cls, text: str) -> "Ordinal":
        return parse_ordinal(text)

    @property
    def terms(self) -> tuple[tuple["Ordinal", int], ...]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_finite(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0].is_zero)

    def to_int(self) -> int:
        """The value as an integer; raises ValueError if infinite."""
        if self.is_zero:
            return 0
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self._terms[0][1]

    @property
    def finite_part(self) -> int:
        """The coefficient of w^0, i.e. n in the decomposition a = l + n."""
        if self._terms and self._terms[-1][0].is_zero:
            return self._terms[-1][1]
        return 0

    @property
    def limit_part(self) -> "Ordinal":
        """The ordinal minus its finite part: l in a = l + n, l limit or 0."""
        if self._terms and self._terms[-1][0].is_zero:
            return Ordinal._make(self._terms[:-1])
        return self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_finite and self.to_int() == other
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Finite ordinals compare equal to ints, so they must hash alike.
        return hash(self.to_int()) if self.is_finite else hash(self._terms)

    def __lt__(self, other: OrdinalLike) -> bool:
        return cmp(self, other) < 0

    def __le__(self, other: OrdinalLike) -> bool:
        return cmp(self, other) <= 0

    def __gt__(self, other: OrdinalLike) -> bool:
        return cmp(self, other) > 0

    def __ge__(self, other: OrdinalLike) -> bool:
        return cmp(self, other) >= 0

    def __add__(self, other: OrdinalLike) -> "Ordinal":
        return add(self, other)

    def __radd__(self, other: OrdinalLike) -> "Ordinal":
        return add(other, self)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self._terms:
            if exp.is_zero:
                parts.append(str(coeff))
                continue
            if exp == ONE:
                text = "w"
            elif exp.is_finite:
                text = f"w^{exp.to_int()}"
            else:
                text = f"w^({exp})"
            if coeff != 1:
                text += f"*{coeff}"
            parts.append(text)
        return "+".join(parts)

    def __repr__(self) -> str:
        return f'Ordinal.parse("{self}")'


OrdinalLike = Ordinal | int
ZERO = Ordinal._make(())
ONE = Ordinal._make(((ZERO, 1),))
OMEGA = Ordinal._make(((ONE, 1),))


def _coerce(value: OrdinalLike) -> Ordinal:
    if isinstance(value, Ordinal):
        return value
    if type(value) is int:
        return Ordinal.from_int(value)
    raise TypeError(f"expected Ordinal or int, got {value!r}")


def cmp(a: OrdinalLike, b: OrdinalLike) -> int:
    """Total order on ordinals: -1, 0 or 1 as a <, =, > b."""
    a, b = _coerce(a), _coerce(b)
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def add(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Standard ordinal sum a + b.

    Not commutative: terms of ``a`` with exponent below the leading
    exponent of ``b`` are absorbed.
    """
    a, b = _coerce(a), _coerce(b)
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    lead = b.terms[0][0]
    kept = []
    for exp, coeff in a.terms:
        c = cmp(exp, lead)
        if c > 0:
            kept.append((exp, coeff))
        elif c == 0:
            return Ordinal._make(
                tuple(kept) + ((lead, coeff + b.terms[0][1]),) + b.terms[1:]
            )
        else:
            break
    return Ordinal._make(tuple(kept) + b.terms)


def nat_sum(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Natural (Hessenberg) sum: coefficient-wise over the merged exponents.

    Commutative, associative and strictly increasing in both arguments.
    """
    a, b = _coerce(a), _coerce(b)
    terms = []
    i = j = 0
    ta, tb = a.terms, b.terms
    while i < len(ta) and j < len(tb):
        c = cmp(ta[i][0], tb[j][0])
        if c > 0:
            terms.append(ta[i])
            i += 1
        elif c < 0:
            terms.append(tb[j])
            j += 1
        else:
            terms.append((ta[i][0], ta[i][1] + tb[j][1]))
            i += 1
            j += 1
    terms.extend(ta[i:])
    terms.extend(tb[j:])
    return Ordinal._make(tuple(terms))


def nat_sum_all(values: Iterable[OrdinalLike]) -> Ordinal:
    total = ZERO
    for v in values:
        total = nat_sum(total, v)
    return total


def nat_prod_nat(a: OrdinalLike, k: int) -> Ordinal:
    """k-fold natural sum of a with itself; every coefficient times k."""
    if type(k) is not int or k < 0:
        raise ValueError(f"expected a natural number, got {k!r}")
    a = _coerce(a)
    if k == 0 or a.is_zero:
        return ZERO
    return Ordinal._make(tuple((exp, coeff * k) for exp, coeff in a.terms))


# An integer power k^n can be astronomically larger than the text asking for
# it (an exponent of a few digits), so powers beyond this many bits are
# refused.
MAX_POWER_BITS = 1 << 16


def int_power(k: int, n: int) -> int:
    """k^n for k >= 2; BudgetExceeded when it would pass MAX_POWER_BITS bits."""
    if n * (k - 1).bit_length() > MAX_POWER_BITS:
        raise BudgetExceeded(f"a power of {k} with more than {MAX_POWER_BITS} bits")
    return k**n


def exp_base_k(k: int, a: OrdinalLike) -> Ordinal:
    """k^a for an integer base k >= 2.

    Writing a = l + n with l limit or zero, the result is
    ``w^(l / w) * k^n`` where ``l / w`` shifts every exponent of l down
    by one (finite exponents decrement, infinite ones are unchanged).
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"base must be an integer >= 2, got {k!r}")
    a = _coerce(a)
    n = a.finite_part
    limit = a.limit_part
    if limit.is_zero:
        return Ordinal.from_int(int_power(k, n))
    shifted = []
    for exp, coeff in limit.terms:
        if exp.is_finite:
            shifted.append((Ordinal.from_int(exp.to_int() - 1), coeff))
        else:
            shifted.append((exp, coeff))
    return Ordinal.omega_pow(Ordinal._make(tuple(shifted)), int_power(k, n))


def to_vector(a: OrdinalLike, k: int) -> tuple[int, ...]:
    """Coefficients (c_{k-1}, ..., c_0) of an ordinal a < w^k.

    Lexicographic order on the vectors coincides with the ordinal order.
    Raises DomainTooLarge when a >= w^k.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"expected a natural number, got {k!r}")
    a = _coerce(a)
    vec = [0] * k
    for exp, coeff in a.terms:
        if not exp.is_finite or exp.to_int() >= k:
            raise DomainTooLarge(f"{a} is not below w^{k}")
        vec[k - 1 - exp.to_int()] = coeff
    return tuple(vec)


def from_vector(vec: Sequence[int]) -> Ordinal:
    """The ordinal below ``w^len(vec)`` with coefficients ``vec``; inverts ``to_vector``."""
    k = len(vec)
    return Ordinal(
        (Ordinal.from_int(k - 1 - i), c) for i, c in enumerate(vec) if c != 0
    )


# --- textual grammar ---------------------------------------------------------
#
#   ordinal := term ("+" term)*
#   term    := "w" ("^" "(" ordinal ")" | "^" nat)? ("*" nat)? | nat
#
# Printing always produces the canonical spelling ("w" not "w^1", no "*1").
# Parsing accepts any spelling of a canonical value. ``Ordinal`` rejects a
# term list not in normal form (non-decreasing exponents, zero coefficients);
# the reader only names the text in its message.
# A literal has no inner whitespace, and it continues across "+" only when
# a term follows at once, so "w+ 1" is the literal "w" and then a "+".
#
# A reader that embeds literals (the command line's ordinal expressions)
# reads each one in place on its own Scanner, so error positions count
# from the start of the input. Parsing, printing and comparing
# recurse per level, so all levels of one input (exponents, parentheses,
# ``exp(``) share one depth of at most MAX_NESTING: deeper input is a
# ParseError, not a RecursionError in whichever of them runs out of stack
# first.

MAX_NESTING = 100


def is_nat(text: str) -> bool:
    """Whether ``text`` spells a natural number in ASCII digits.

    ``str.isdigit`` alone also accepts other scripts' digits and
    superscripts, which ``int`` then reads or rejects.
    """
    return text.isascii() and text.isdigit()


def nat_value(digits: str) -> int:
    """The natural that ``digits`` (``is_nat`` holds) spells; a ParseError,
    not ``int``'s advice to raise the limit, if Python's int-string limit refuses it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and len(digits) > limit:
        raise ParseError(f"a natural of {len(digits)} digits; at most {limit} are read")
    return int(digits)


class Scanner:
    """A position in a text, shared by every reader of the grammar."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while self.peek().isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        if self.take() != ch:
            raise ParseError(f"expected {ch!r} at position {self.pos - 1} in {self.text!r}")

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos < len(self.text):
            raise ParseError(f"trailing input at position {self.pos} in {self.text!r}")

    def nat(self) -> int:
        start = self.pos
        while is_nat(self.peek()):
            self.pos += 1
        if start == self.pos:
            raise ParseError(f"expected a number at position {start} in {self.text!r}")
        return nat_value(self.text[start : self.pos])

    @contextmanager
    def nest(self):
        """One level deeper for the duration of the block."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nested too deeply (limit {MAX_NESTING}) at position {self.pos}")
        yield
        self.depth -= 1


def read_ordinal(sc: Scanner) -> Ordinal:
    """Read one ordinal literal at the scanner's position."""
    terms = [_read_term(sc)]
    while sc.peek() == "+" and (sc.peek(1) == "w" or is_nat(sc.peek(1))):
        sc.take()
        terms.append(_read_term(sc))
    if len(terms) == 1 and terms[0] == (ZERO, 0):
        return ZERO
    try:
        return Ordinal(terms)
    except ValueError as exc:
        raise ParseError(f"{exc} in {sc.text!r}") from None


def _read_term(sc: Scanner) -> tuple[Ordinal, int]:
    if sc.peek() == "w":
        sc.take()
        exp = ONE
        if sc.peek() == "^":
            sc.take()
            if sc.peek() == "(":
                sc.take()
                with sc.nest():
                    exp = read_ordinal(sc)
                sc.expect(")")
            else:
                exp = Ordinal.from_int(sc.nat())
        coeff = 1
        if sc.peek() == "*":
            sc.take()
            coeff = sc.nat()
        if coeff == 0:  # else "w^0*0" would read as the term (0, 0), the literal 0
            raise ParseError(f"zero coefficient in {sc.text!r}")
        return (exp, coeff)
    return (ZERO, sc.nat())


def parse_ordinal(text: str) -> Ordinal:
    """Parse the textual ordinal grammar; rejects non-canonical input."""
    sc = Scanner(text)
    sc.skip_ws()
    result = read_ordinal(sc)
    sc.expect_end()
    return result
