"""Termination bounds for while-programs.

The toolkit computes ordinal heights of bounded-label trees, embeds
pairwise-descending sequences into colored k-ary trees, derives
primitive recursive step bounds for programs carrying rank-certified
transition invariants, and compiles primitive recursive terms into such
programs.

The package exports the entry point of each stage of that chain: a term
is parsed and compiled into a program with an invariant, the program is
run to a trace, the trace is checked against the invariant, the check's
rank tuples become a descending measure, and the descent bound of that
measure caps the number of steps. Everything else is imported from its
module.
"""

from .bounds import SequenceFn, bound_g, find_nondescent
from .prcompile import compile_term, eval_pr, parse_term
from .termlang import (
    PhiSequence,
    check_invariant,
    initial_state,
    run_trace,
    step_bound,
)

__version__ = "0.1.0"
