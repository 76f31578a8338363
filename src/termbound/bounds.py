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


class SequenceFn(Record):
    """A sequence of k-tuples of naturals: ``rows``, then its last row forever.

    ``eventually_constant_from`` is the index of the last row; every read
    at or past it returns that row. Build one with ``from_rows`` or
    ``constant``, which check the rows once.
    """

    __slots__ = ("rows", "k", "eventually_constant_from")

    def __call__(self, n: int) -> tuple[int, ...]:
        return self.rows[min(n, self.eventually_constant_from)]

    @classmethod
    def constant(cls, values: Sequence[int]) -> "SequenceFn":
        return cls.from_rows([values])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SequenceFn":
        """Raises ValueError unless the rows are non-empty, of one length,
        and every coordinate is a natural (an ``int``, not a ``bool``)."""
        try:
            rows = list(map(tuple, rows))
        except TypeError:
            raise ValueError("every row must be a list of naturals") from None
        if not rows:
            raise ValueError("need at least one row")
        if len(set(map(len, rows))) != 1:
            raise ValueError("rows of unequal length")
        types = set(map(type, chain.from_iterable(rows)))
        if types - {int} or min(chain.from_iterable(rows), default=0) < 0:
            raise ValueError("every coordinate must be a natural number")
        return cls(rows, len(rows[0]), len(rows) - 1)


class _Budget:
    __slots__ = ("max_value", "iterations")

    def __init__(self, max_value: int | None):
        self.max_value, self.iterations = max_value, 0

    def spend(self) -> None:
        self.iterations += 1
        if self.iterations > DEFAULT_MAX_ITERATIONS:
            raise BudgetExceeded(
                f"bound evaluation exceeded {DEFAULT_MAX_ITERATIONS} iterations"
            )

    def check_value(self, x: int) -> int:
        if self.max_value is not None and x > self.max_value:
            raise BudgetExceeded(f"bound value exceeded ceiling {self.max_value}")
        return x


class _Evaluator:
    __slots__ = ("sigma", "budget", "memo", "deltas")

    def __init__(self, sigma: SequenceFn, budget: _Budget):
        self.sigma, self.budget = sigma, budget
        self.memo: dict[tuple[int, int], int] = {}
        self.deltas: dict[int, int] = {}

    def delta(self, depth: int) -> int:
        """Increment of the depth-level bound above the freeze point.

        g_1(x) = x + c_k + 1 there, and each further level applies the
        previous one sigma-component + 2 times with a +1 between steps.
        """
        cached = self.deltas.get(depth)
        if cached is not None:
            return cached
        c = self.sigma.rows[-1][self.sigma.k - depth]
        d = c + 1 if depth == 1 else (c + 2) * (self.delta(depth - 1) + 1)
        self.deltas[depth] = d
        return d

    def bound(self, depth: int, n: int) -> int:
        """Bound for the last ``depth`` components, evaluated at n."""
        freeze = self.sigma.eventually_constant_from
        if n >= freeze:
            return self.budget.check_value(n + self.delta(depth))
        key = (depth, n)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        c = self.sigma(n)[self.sigma.k - depth]
        if depth == 1:
            result = self.budget.check_value(n + c + 1)
        else:
            x = n
            for done in range(c + 2):
                if x >= freeze:
                    x += (c + 2 - done) * (self.delta(depth - 1) + 1)
                    break
                self.budget.spend()
                x = self.bound(depth - 1, x + 1)
            result = self.budget.check_value(x)
        self.memo[key] = result
        return result


def bound_g(sigma: SequenceFn, n: int, max_value: int | None = None) -> int:
    """A point by which the lexicographic descent of sigma must pause.

    Raises BudgetExceeded when the value passes ``max_value`` or the
    evaluation needs more than ``DEFAULT_MAX_ITERATIONS`` iteration steps.
    """
    if sigma.k < 1:
        raise ValueError("sequence must have at least one component")
    if n < 0:
        raise ValueError("n must be a natural number")
    evaluator = _Evaluator(sigma, _Budget(max_value))
    return evaluator.bound(sigma.k, n)


def find_nondescent(sigma: SequenceFn, n: int, limit: int) -> int:
    """Least m in [n, limit] with sigma(m) <=_lex sigma(m+1).

    ``limit`` is normally ``bound_g(sigma, n)``, computed once by the
    caller. Raises BudgetExceeded if the scan would pass
    ``DEFAULT_MAX_ITERATIONS`` points, and LemmaViolated if the whole
    interval strictly descends, which with that limit would refute the
    bound construction; tests treat that as failure.
    """
    end = min(limit, n + DEFAULT_MAX_ITERATIONS)
    rows, last = sigma.rows, sigma.eventually_constant_from
    # Compare rows below the last in one C-level pass; past it, sigma(m) == sigma(m + 1).
    stop = min(end + 1, last)
    pairs = map(le, islice(rows, n, stop), islice(rows, n + 1, stop + 1))
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
