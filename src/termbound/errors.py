"""Exception types and the immutable-record base shared across the toolkit."""


class Record:
    """Base of the immutable values: ``__init__`` sets each field named in ``__slots__``
    once, then assignment raises AttributeError; equal when of one class and equal fields."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self):
        return hash(_fields(self))

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), _fields(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value.__slots__)


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
