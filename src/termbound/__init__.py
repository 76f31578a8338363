"""Termination bounds for while-programs.

The toolkit computes ordinal heights of bounded-label trees, embeds
pairwise-descending sequences into colored k-ary trees, derives
primitive recursive step bounds for programs carrying rank-certified
transition invariants, and compiles primitive recursive terms into such
programs.
"""

from .bounds import SequenceFn, bound_g, find_adjacent_increase, find_nondescent, lex_le
from .erdos import (
    ColoredList,
    ErdosTree,
    color_of,
    embed,
    f_star,
    f_star_vec,
    insert_branch,
    is_homogeneous,
    label_alpha,
    node_profile,
    to_labelled_tree,
)
from .ktree import (
    LabelledTree,
    Node,
    brute_force_height,
    extend,
    height_nil,
    height_tree,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    cmp,
    exp_base_k,
    nat_prod_nat,
    nat_sum,
    parse_ordinal,
    to_vector,
)
from .prcompile import (
    ADD,
    MULT,
    PRED,
    SUB,
    Comp,
    CompiledUnit,
    Proj,
    Rec,
    Succ,
    Zero,
    compile_term,
    eval_pr,
    parse_term,
    splice_call,
    term_to_text,
)
from .termlang import (
    PhiSequence,
    Program,
    State,
    TransitionInvariant,
    check_invariant,
    initial_state,
    run_trace,
    step,
    step_bound,
)

__version__ = "0.1.0"
