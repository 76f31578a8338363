"""The contract of the immutable values: slotted ``errors.Record`` classes.

Each value refuses assignment and deletion, equals a value of the same
class with equal fields (and hashes like it), never equals a value of
another class or a plain tuple, and prints like a constructor call.
"""

import copy
import pickle

import pytest

from termbound import bounds, erdos, ktree, prcompile, termlang
from termbound.bounds import SequenceFn
from termbound.erdos import ColoredList
from termbound.errors import Record
from termbound.ktree import LabelledTree, Node
from termbound.ordinals import Ordinal
from termbound.prcompile import Comp, CompiledUnit, Proj, Rec, Succ, Zero, compile_term
from termbound.termlang import (
    Assign,
    Atom,
    ConstraintRelation,
    If,
    InvariantReport,
    State,
    Trace,
    TransitionInvariant,
    While,
    const,
    post,
    pre,
)

INC = "Assign(var='x', expr=('add', ('pre', 'x'), ('const', 1)))"
ATOM = "Atom(lhs=('pre', 'x'), op='<', rhs=('post', 'x'))"
REL = (
    f"ConstraintRelation(name='r', atoms=({ATOM},), rank=('pre', 'y'), "
    "pre_locations=frozenset({1}), post_locations=None)"
)
LEAF = 'Node(label=Ordinal.parse("1"), children=(None, None))'

# (builder, repr) per value; each builder makes a fresh, equal value. The
# repr texts are those the values printed as dataclasses.
VALUES = {
    "Zero": (lambda: Zero(2), "Zero(n=2)"),
    "Succ": (lambda: Succ(), "Succ()"),
    "Proj": (lambda: Proj(1, 2), "Proj(i=1, n=2)"),
    "Comp": (lambda: Comp(Succ(), (Proj(1, 2),)), "Comp(h=Succ(), gs=(Proj(i=1, n=2),))"),
    "Rec": (
        lambda: Rec(Proj(1, 1), Comp(Succ(), (Proj(2, 3),))),
        "Rec(h=Proj(i=1, n=1), g=Comp(h=Succ(), gs=(Proj(i=2, n=3),)))",
    ),
    "CompiledUnit": (
        lambda: compile_term(Succ()),
        "CompiledUnit(program=Program(variables=('x1', 'r'), commands=1), "
        "invariant=TransitionInvariant(relations=(ConstraintRelation(name='line', "
        "atoms=(Atom(lhs=('preloc',), op='<', rhs=('postloc',)),), "
        "rank=('monus', ('const', 1), ('preloc',)), pre_locations=None, "
        "post_locations=None),)), result_var='r', input_vars=('x1',))",
    ),
    "State": (lambda: State(0, (1, 2)), "State(location=0, env=(1, 2))"),
    "Trace": (
        lambda: Trace([0, 1], [(1, 2), (2, 2)], True),
        "Trace(locations=[0, 1], envs=[(1, 2), (2, 2)], complete=True)",
    ),
    "InvariantReport": (
        lambda: InvariantReport(2, True, 1, [(0, 1)], [], 1, 0, [(2,), (0,)]),
        "InvariantReport(trace_length=2, reached_final=True, pairs_checked=1, "
        "uncovered=[(0, 1)], rank_violations=[], uncovered_total=1, "
        "rank_violation_total=0, rank_tuples=[(2,), (0,)])",
    ),
    "Assign": (lambda: Assign("x", ("add", pre("x"), const(1))), INC),
    "While": (
        lambda: While("x", "y", (Assign("x", ("add", pre("x"), const(1))),)),
        f"While(left='x', right='y', body=({INC},))",
    ),
    "If": (
        lambda: If("x", "y", (Assign("x", ("add", pre("x"), const(1))),), ()),
        f"If(left='x', right='y', then_body=({INC},), else_body=())",
    ),
    "Atom": (lambda: Atom(pre("x"), "<", post("x")), ATOM),
    "ConstraintRelation": (
        lambda: ConstraintRelation(
            "r", (Atom(pre("x"), "<", post("x")),), pre("y"), frozenset({1})
        ),
        REL,
    ),
    "TransitionInvariant": (
        lambda: TransitionInvariant((VALUES["ConstraintRelation"][0](),)),
        f"TransitionInvariant(relations=({REL},))",
    ),
    "ColoredList": (
        lambda: ColoredList(((3, 4), (1, 4)), (1,)),
        "ColoredList(points=((3, 4), (1, 4)), colors=(1,))",
    ),
    "Node": (lambda: Node(Ordinal.from_int(1), (None, None)), LEAF),
    "LabelledTree": (
        lambda: LabelledTree(2, Node(Ordinal.parse("w"), (VALUES["Node"][0](), None))),
        f'LabelledTree(k=2, root=Node(label=Ordinal.parse("w"), children=({LEAF}, None)))',
    ),
    "SequenceFn": (
        lambda: SequenceFn.from_rows([[1, 2], [0, 0]]),
        "SequenceFn(rows=[[1, 2], [0, 0]])",
    ),
}


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("name", VALUES)
class TestRecordContract:
    def test_refuses_assignment_and_deletion(self, name):
        value = VALUES[name][0]()
        before = fields(value)
        for attr in (*type(value).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(value, attr, 0)
            with pytest.raises(AttributeError):
                delattr(value, attr)
        assert fields(value) == before
        assert not hasattr(value, "__dict__")

    def test_equal_fields_equal_values(self, name):
        build = VALUES[name][0]
        a, b = build(), build()
        assert a == b and not a != b
        # They hold lists or a Program: unhashable.
        if name in ("SequenceFn", "CompiledUnit", "Trace", "InvariantReport"):
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_class_sensitive(self, name):
        value = VALUES[name][0]()
        # Another record class with the same fields, holding the same values.
        twin = type("Twin", (Record,), {"__slots__": type(value).__slots__})(*fields(value))
        assert fields(twin) == fields(value)
        assert value != twin and twin != value
        assert value != fields(value) and fields(value) != value

    def test_copy_and_pickle(self, name):
        value = VALUES[name][0]()
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_repr_is_the_dataclass_form(self, name):
        build, text = VALUES[name]
        assert repr(build()) == text


def test_every_record_class_is_covered():
    records = {
        name
        for module in (bounds, erdos, ktree, prcompile, termlang)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, Record)
        and obj.__module__ == module.__name__
    }
    assert records == set(VALUES)


def test_measure_sequences_compare_by_rows_identity():
    # A SequenceFn compares and hashes by its rows; erdos.MeasureRows defines
    # no equality, so two measures of one report are unequal sequences.
    unit = compile_term(Succ())
    s0 = termlang.initial_state(unit.program, {"x1": 2})
    report = termlang.check_invariant(
        unit.program, termlang.run_trace(unit.program, s0), unit.invariant
    )
    phi, again = termlang.PhiSequence(report), termlang.PhiSequence(report)
    assert list(phi.rows) == list(again.rows)
    assert phi.sequence() != again.sequence()
    assert phi.sequence() == phi.sequence()
    assert hash(phi.sequence()) == hash(phi.sequence()) == hash((phi.rows,))
    assert SequenceFn(phi.rows) != SequenceFn.from_rows(list(phi.rows))


def test_classes_with_equal_fields_differ():
    assert Node("x", ("pre", "y")) != Assign("x", ("pre", "y"))
    assert Node(((1,),), ()) != ColoredList(((1,),), ())
    assert Node(0, (1, 2)) != State(0, (1, 2))


def test_construction_errors():
    with pytest.raises(TypeError):
        Assign("x")
    with pytest.raises(TypeError):
        State(0)
    with pytest.raises(TypeError):  # a report takes all eight fields
        InvariantReport(3, True, 3)
    with pytest.raises(ValueError, match="arity must be a natural"):
        Zero(-1)
    with pytest.raises(ValueError, match="projection index"):
        Proj(3, 2)
    with pytest.raises(ValueError, match="at least one relation"):
        TransitionInvariant(())
    with pytest.raises(ValueError, match="one color per edge"):
        ColoredList(((1,),), (1,))
    assert Zero() == Zero(1)
    assert LabelledTree(2) == LabelledTree(2, None)
    assert ConstraintRelation(name="r", atoms=(), rank=const(0)) == ConstraintRelation(
        "r", (), const(0), None, None
    )
