"""Primitive recursive bounds for lexicographic descent.

Given a total sequence of k-tuples of naturals, a strict lexicographic
descent cannot continue forever; ``bound_g`` computes, by recursion on
the number of components, a point by which a non-descent must occur, and
``find_nondescent`` locates the least such point inside a bound the
caller has computed.

For one component the bound is ``n + sigma(n) + 1``. For k+1 components
it iterates the k-component bound of the tail:

    H(0, x) = x,   H(i, x) = g_k(H(i-1, x) + 1),
    g(n)    = H(sigma_1(n) + 2, n),

which splits ``[n, g(n)]`` into sigma_1(n) + 2 intervals each containing
a tail non-descent; the head component can strictly decrease at most
sigma_1(n) + 1 times across them.

The bound grows non-elementarily in k, so evaluation is budgeted. Every
sequence here is a finite list of rows whose last row repeats forever (a
sigma file, or a trace measure, which is constant once the program
halts). Above that freeze point each level's bound function becomes
``x + constant``, and the iteration is finished off in closed form;
values stay exact however large.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, compress, count, islice
from operator import le

from .errors import BudgetExceeded, LemmaViolated, Record

DEFAULT_MAX_ITERATIONS = 2_000_000
PROOF_CHUNK = 1 << 16  # characters of text encoded at a time by text_proves_natural
_UNCOUNTED = b"0123456789 \t\n\r],}:krows"


class SequenceFn(Record):
    """A sequence of k-tuples of naturals: ``rows``, then its last row forever.

    The last row is the freeze point: every read at or past its index
    returns that row, as a tuple. ``from_rows`` checks the rows once and
    keeps the row objects it is given, all lists or all tuples, uncopied,
    and a list of them as it is; ``PhiSequence.sequence`` builds one on
    ``erdos.MeasureRows``, tree heights that are naturals by construction,
    held as they are: any ``rows`` with ``len`` and indexing will do.
    Equality and the hash go by ``rows``, so a sequence on ``MeasureRows``
    compares and hashes by the identity of that rows object.
    """

    __slots__ = ("rows",)

    def __call__(self, n: int) -> tuple[int, ...]:
        rows = self.rows
        return tuple(rows[n] if n < len(rows) else rows[-1])

    @property
    def k(self) -> int:
        """The length of every row; 0 for no rows."""
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int]], *, proven_natural: bool = False
    ) -> "SequenceFn":
        """Raises ValueError unless the rows are non-empty, all lists or all
        tuples (a list and a tuple do not compare), of one length, and every
        coordinate is a natural (an ``int``, not a ``bool``).

        The coordinates are checked by ``all_natural``, which
        ``proven_natural`` skips: pass it only with a proof that rows of the
        right shape hold naturals alone, such as ``text_proves_natural``.
        The shape checks run either way, so errors come in the same order.
        A ``list`` of rows is kept as it is, not copied; any other sequence
        of rows is copied into one.
        """
        try:
            rows = rows if type(rows) is list else list(rows)
        except TypeError:
            raise ValueError("every row must be a list of naturals") from None
        if not rows:
            raise ValueError("need at least one row")
        if set(map(type, rows)) not in ({list}, {tuple}):
            raise ValueError("every row must be a list of naturals")
        if len(set(map(len, rows))) != 1:
            raise ValueError("rows of unequal length")
        if not (proven_natural or all_natural(rows)):
            raise ValueError("every coordinate must be a natural number")
        return cls(rows)


def all_natural(rows: Sequence[Sequence[int]]) -> bool:
    """Whether every coordinate is an ``int`` >= 0, not a ``bool``: two C-level passes."""
    types = set(map(type, chain.from_iterable(rows)))
    return not types - {int} and min(chain.from_iterable(rows), default=0) >= 0


def text_proves_natural(text: str, doc: dict) -> bool:
    """True when the JSON ``text`` of ``doc`` shows every coordinate a natural.

    This holds for the rows ``doc["rows"]`` once they pass the shape checks
    of ``SequenceFn.from_rows``: a list of rows, each one a list. Then
    every coordinate is an exact ``int`` >= 0 when

    1. ``text`` holds only digits, JSON whitespace, ``[],{}:"`` and the
       letters of ``k`` and ``rows``: with no ``-``, ``.``, ``e`` or ``E``
       there is no negative and no float, and there is no ``true``,
       ``false``, ``null``, ``NaN``, ``Infinity`` or backslash escape;
    2. ``text`` has one ``[`` per row and one more, the rows' own: no
       list sits below a row (each row is a list, so each has its ``[``);
    3. ``text`` has one ``{``, the document's own: no object sits below;
    4. ``text`` has two ``"`` per key of ``doc``: with no escapes each
       string takes two, and each distinct key is one, so the keys, none
       repeated, are the only strings.

    So every coordinate is a number written in digits alone. The text is
    read in one pass, ``PROOF_CHUNK`` characters at a time: each slice is
    encoded (an ASCII text encodes one byte a character) and loses every
    allowed character but ``[``, ``{`` and ``"``. What is left, about a byte
    a row, then decides all four conditions by its length and three counts.
    """
    if not text.isascii():
        return False
    left = b"".join(
        text[at : at + PROOF_CHUNK].encode().translate(None, _UNCOUNTED)
        for at in range(0, len(text), PROOF_CHUNK)
    )
    lists, objects, quotes = left.count(b"["), left.count(b"{"), left.count(b'"')
    return (
        lists + objects + quotes == len(left)
        and lists == len(doc["rows"]) + 1
        and objects == 1
        and quotes == 2 * len(doc)
    )


def bound_g(sigma: SequenceFn, n: int, max_value: int | None = None) -> int:
    """A point by which the lexicographic descent of sigma must pause.

    Raises BudgetExceeded when the value passes ``max_value`` or the
    evaluation needs more than ``DEFAULT_MAX_ITERATIONS`` iteration steps.

    It keeps no table of values: every evaluation returns more than its
    argument, so within one call the points evaluated at each depth
    strictly increase, and no (depth, point) is evaluated twice.
    """
    if sigma.k < 1:
        raise ValueError("sequence must have at least one component")
    if n < 0:
        raise ValueError("n must be a natural number")
    k, freeze, last = sigma.k, len(sigma.rows) - 1, sigma.rows[-1]
    # delta[d], d >= 1: at or past the freeze point the depth-d bound is x + delta[d].
    # g_1(x) = x + c + 1 there, and each further level applies the one below
    # c + 2 times with a +1 between steps (c: that level's component of the last row).
    delta = [0, last[-1] + 1]
    for d in range(2, k + 1):
        delta.append((last[k - d] + 2) * (delta[d - 1] + 1))
    iterations = 0

    def bound(depth: int, m: int) -> int:
        """Bound for the last ``depth`` components, evaluated at m."""
        nonlocal iterations
        if m >= freeze:
            x = m + delta[depth]
        elif depth == 1:
            x = m + sigma(m)[k - 1] + 1
        else:
            c = sigma(m)[k - depth]
            x = m
            for done in range(c + 2):
                if x >= freeze:
                    x += (c + 2 - done) * (delta[depth - 1] + 1)
                    break
                iterations += 1
                if iterations > DEFAULT_MAX_ITERATIONS:
                    raise BudgetExceeded(
                        f"bound evaluation exceeded {DEFAULT_MAX_ITERATIONS} iterations"
                    )
                x = bound(depth - 1, x + 1)
        if max_value is not None and x > max_value:
            raise BudgetExceeded(f"bound value exceeded ceiling {max_value}")
        return x

    try:
        return bound(k, n)
    finally:
        # bound refers to itself; break that cycle, so that reference
        # counting frees sigma here and the cyclic GC need not.
        del bound


def find_nondescent(sigma: SequenceFn, n: int, limit: int) -> int:
    """Least m in [n, limit] with sigma(m) <=_lex sigma(m+1).

    ``limit`` is normally ``bound_g(sigma, n)``, computed once by the
    caller. The scan starts at n only below the last row; an n at or past
    it is its own answer. Raises BudgetExceeded if the scan would pass
    ``DEFAULT_MAX_ITERATIONS`` points, and LemmaViolated if the whole
    interval strictly descends, which with that limit would refute the
    bound construction; tests treat that as failure. Raises ValueError for
    a negative n or a limit below n, an empty interval.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    if limit < n:
        raise ValueError(f"limit {limit} is below n = {n}")
    end = min(limit, n + DEFAULT_MAX_ITERATIONS)
    rows, last = sigma.rows, len(sigma.rows) - 1
    # Compare rows below the last in one C-level pass; past it, sigma(m) == sigma(m + 1).
    # islice takes no index past sys.maxsize, so an n past the last row is not passed on.
    stop = min(end + 1, last)
    start = min(n, stop)
    pairs = map(le, islice(rows, start, stop), islice(rows, start + 1, stop + 1))
    m = next(compress(count(n), pairs), max(n, last))
    if m <= end:
        return m
    if end < limit:
        raise BudgetExceeded(
            f"non-descent scan exceeded {DEFAULT_MAX_ITERATIONS} evaluations"
        )
    raise LemmaViolated(
        f"strict lexicographic descent throughout [{n}, {limit}]"
    )
