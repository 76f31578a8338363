"""Exception types shared across the toolkit."""


class TermboundError(Exception):
    """Base class for all toolkit errors."""


class ParseError(TermboundError):
    """Input text does not conform to the expected grammar."""


class DomainTooLarge(TermboundError):
    """Ordinal does not fit below the requested power of omega."""


class LabelNotDecreasing(TermboundError):
    """Child label is not strictly below its parent's label."""


class BudgetExceeded(TermboundError):
    """A configured enumeration, step, or value ceiling was exceeded."""


class NoRelation(TermboundError):
    """No coordinate of the later point decreases below the earlier one."""


class NotHomogeneous(TermboundError):
    """Sequence has a pair with no strictly decreasing coordinate.

    Also raised by ``PhiSequence`` when the invariant check did not pass.
    """


class LemmaViolated(TermboundError):
    """No lexicographic non-descent inside the computed bound interval."""


class ArityMismatch(TermboundError):
    """Argument count does not match the term's arity."""
