"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from itertools import product

from oracles import brute_force_height, f_star, f_star_vec, insert_branch
from termbound.bounds import SequenceFn, bound_g, find_nondescent
from termbound.erdos import embed, is_homogeneous, to_labelled_tree
from termbound.ktree import LabelledTree, height_nil, height_tree
from termbound.ordinals import (
    OMEGA,
    Ordinal,
    cmp,
    exp_base_k,
    nat_prod_nat,
    nat_sum,
    parse_ordinal,
)
from termbound.prcompile import (
    ADD,
    MULT,
    PRED,
    SUB,
    Succ,
    Zero,
    Proj,
    compile_term,
    eval_pr,
)
from termbound.termlang import (
    ConstraintRelation,
    PhiSequence,
    TransitionInvariant,
    check_invariant,
    const,
    initial_state,
    run_trace,
    step_bound,
)

o = parse_ordinal


def _random_ordinal(rng, max_exp=3, max_coeff=9):
    exps = sorted(rng.sample(range(max_exp + 1), rng.randint(0, max_exp + 1)), reverse=True)
    return Ordinal(tuple((Ordinal.from_int(e), rng.randint(1, max_coeff)) for e in exps))


def _random_homogeneous(rng, k, max_coord=8, max_len=10):
    length = rng.randint(1, max_len)
    pts = [tuple(rng.randint(0, max_coord) for _ in range(k))]
    while len(pts) < length:
        for _ in range(40):
            cand = tuple(rng.randint(0, max_coord) for _ in range(k))
            if all(any(c < p[h] for h, c in enumerate(cand)) for p in pts):
                pts.append(cand)
                break
        else:
            last = pts[-1]
            positive = [h for h, v in enumerate(last) if v > 0]
            if not positive:
                break
            h = rng.choice(positive)
            cand = list(last)
            cand[h] -= 1
            pts.append(tuple(cand))
    return pts


CORPUS = (("add", ADD), ("mult", MULT), ("pred", PRED), ("sub", SUB))


def _unit_states(unit, args):
    s0 = initial_state(unit.program, dict(zip(unit.input_vars, args)))
    trace = run_trace(unit.program, s0, max_steps=100_000)
    assert trace.complete
    return s0, trace


def test_criterion_1_closed_form_matches_brute_force():
    started = time.time()
    classes = 0
    for k in (1, 2, 3):
        for m in range(5):
            table = brute_force_height(k, m)
            empty_height = table[LabelledTree(k)]
            assert height_nil(k, m) == empty_height, (k, m)
            for tree, h in table.items():
                assert height_tree(tree, m) == Ordinal.from_int(h), (k, m, tree)
                classes += 1
    elapsed = time.time() - started
    assert elapsed < 60
    print(
        f"\n[PASS] criterion 1: closed form = exhaustive height on {classes} "
        f"tree classes, k<=3, labels<5 ({elapsed:.1f}s)"
    )


def test_criterion_2_fixed_heights_reproduced():
    assert height_nil(2, 3) == 7
    for k in (1, 2, 3, 4, 5):
        assert height_nil(k, OMEGA) == OMEGA
    assert height_nil(2, o("w+1")) == o("w*2+1")
    rng = random.Random(2)
    for _ in range(50):
        alpha = _random_ordinal(rng)
        assert height_nil(1, alpha) == alpha
    for k in (1, 2, 3, 4, 5):
        assert exp_base_k(2, nat_prod_nat(OMEGA, k)) == Ordinal.omega_pow(k)
    print(
        "[PASS] criterion 2: fixed heights h2(nil,3)=7, hk(nil,w)=w, "
        "h2(nil,w+1)=w*2+1, h1 identity on 50 samples, 2^(w*k)=w^k for k<=5"
    )


def test_criterion_3_natural_sum_algebra():
    rng = random.Random(3)
    checked = 0
    for _ in range(250):
        a, b, c = (_random_ordinal(rng) for _ in range(3))
        assert nat_sum(a, b) == nat_sum(b, a)
        assert nat_sum(nat_sum(a, b), c) == nat_sum(a, nat_sum(b, c))
        if cmp(b, c) < 0:
            assert cmp(nat_sum(a, b), nat_sum(a, c)) < 0
        checked += 1
    assert checked >= 200
    print(
        f"[PASS] criterion 3: natural sum commutative, associative, strictly "
        f"monotone on {checked} random triples below w^4"
    )


def test_criterion_4_embedding_pipeline_invariants():
    rng = random.Random(4)
    omega_pow = {k: Ordinal.omega_pow(k) for k in (2, 3)}
    checked = 0
    while checked < 200:
        k = rng.choice([2, 3])
        s = _random_homogeneous(rng, k)
        assert is_homogeneous(s, k)
        prev_tree = embed([], k)
        prev_measure = None
        for n in range(1, len(s) + 1):
            tree = embed(s[:n], k)
            # one-leaf simulation of sequence extension
            assert tree.branch_count() == prev_tree.branch_count() + 1
            new_branch = insert_branch(prev_tree, s[n - 1])
            assert set(prev_tree.branches()) | {new_branch} == set(tree.branches())
            # strictly decreasing labels on every edge
            labelled = to_labelled_tree(tree)

            def walk(node):
                for child in node.children:
                    if child is not None:
                        assert cmp(child.label, node.label) < 0
                        walk(child)

            walk(labelled.root)
            # strictly decreasing measure, always below w^k
            measure = f_star(s[:n], k)
            assert cmp(measure, omega_pow[k]) < 0
            if prev_measure is not None:
                assert cmp(measure, prev_measure) < 0
            f_star_vec(s[:n], k)  # never DomainTooLarge
            prev_measure = measure
            prev_tree = tree
        checked += 1
    print(
        f"[PASS] criterion 4: embedding simulation, decreasing labels, "
        f"strictly descending measure < w^k on {checked} random homogeneous "
        f"sequences (k in {{2,3}})"
    )


def test_criterion_5_descent_bound_holds():
    corpus: list[tuple[str, SequenceFn]] = [
        ("const-0", SequenceFn.from_rows([(0,)])),
        ("const-5", SequenceFn.from_rows([(5,)])),
        ("const-00", SequenceFn.from_rows([(0, 0)])),
        ("const-23", SequenceFn.from_rows([(2, 3)])),
        ("const-231", SequenceFn.from_rows([(2, 3, 1)])),
        ("const-555", SequenceFn.from_rows([(5, 5, 5)])),
        ("desc-1", SequenceFn.from_rows([(5,), (4,), (3,), (2,), (1,), (0,)])),
        ("desc-stall", SequenceFn.from_rows([(4,), (4,), (2,), (2,), (1,)])),
        (
            "stair-2",
            SequenceFn.from_rows(
                [(2, 2), (2, 1), (2, 0), (1, 5), (1, 4), (1, 3), (0, 1), (0, 0)]
            ),
        ),
        (
            "stair-2b",
            SequenceFn.from_rows([(3, 0), (2, 4), (2, 3), (1, 1), (0, 6), (0, 6)]),
        ),
        (
            "stair-3",
            SequenceFn.from_rows(
                [(1, 1, 1), (1, 1, 0), (1, 0, 3), (1, 0, 2), (0, 2, 2), (0, 2, 1)]
            ),
        ),
        (
            "interleaved",
            SequenceFn.from_rows(
                [(2, 5, 1), (2, 5, 0), (2, 4, 4), (2, 4, 3), (1, 9, 9), (1, 9, 8)]
            ),
        ),
        ("wide", SequenceFn.from_rows([(0, 9), (0, 8), (0, 7), (0, 7)])),
        ("flat-3", SequenceFn.from_rows([(1, 0, 1)])),
    ]
    for name, term, args in [
        ("phi-zero", Zero(1), (3,)),
        ("phi-succ", Succ(), (4,)),
        ("phi-proj", Proj(2, 2), (1, 2)),
        ("phi-succ-0", Succ(), (0,)),
        ("phi-zero-arity2", Zero(2), (2, 5)),
        ("phi-proj11", Proj(1, 1), (4,)),
    ]:
        unit = compile_term(term)
        _, trace = _unit_states(unit, args)
        report = check_invariant(unit.program, trace, unit.invariant)
        corpus.append((name, PhiSequence(report).sequence()))

    assert len(corpus) >= 20
    assert all(sigma.k <= 3 for _, sigma in corpus)
    for name, sigma in corpus:
        for n in range(6):
            bound = bound_g(sigma, n, max_value=10**9)
            assert bound < 10**9, name
            m = find_nondescent(sigma, n, bound)
            assert n <= m <= bound, (name, n)
            assert sigma(m) <= sigma(m + 1), (name, n)
    print(
        f"[PASS] criterion 5: non-descent found within the bound for "
        f"{len(corpus)} sequences x 6 start points, all bounds < 10^9"
    )


def test_criterion_6_compiler_matches_evaluator():
    started = time.time()
    checked = 0
    for name, term in CORPUS:
        unit = compile_term(term)
        for args in product(range(6), repeat=term.arity):
            _, trace = _unit_states(unit, args)
            result = trace.envs[-1][unit.program.var_index(unit.result_var)]
            assert result == eval_pr(term, args), (name, args)
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 60
    print(
        f"[PASS] criterion 6: compiled add, mult, pred, truncated-sub equal "
        f"the evaluator on all {checked} inputs <= 5 ({elapsed:.1f}s)"
    )


def test_criterion_7_invariants_valid_and_mutation_detected():
    pairs = 0
    for name, term in CORPUS:
        unit = compile_term(term)
        for args in product(range(6), repeat=term.arity):
            _, trace = _unit_states(unit, args)
            report = check_invariant(unit.program, trace, unit.invariant)
            assert report.ok, (name, args, report.uncovered_total,
                               report.rank_violation_total)
            pairs += report.pairs_checked

    probe = {"add": (2, 3), "mult": (2, 2), "pred": (3,), "sub": (2, 4)}
    mutations = 0
    for name, term in CORPUS:
        unit = compile_term(term)
        _, trace = _unit_states(unit, probe[name])
        for idx, rel in enumerate(unit.invariant.relations):
            assert isinstance(rel, ConstraintRelation)
            broken = ConstraintRelation(
                rel.name, rel.atoms, const(0), rel.pre_locations,
                rel.post_locations,
            )
            relations = list(unit.invariant.relations)
            relations[idx] = broken
            report = check_invariant(
                unit.program, trace, TransitionInvariant(tuple(relations))
            )
            assert report.rank_violation_total > 0, (name, rel.name)
            mutations += 1
    print(
        f"[PASS] criterion 7: zero violations over {pairs} trace pairs; "
        f"each of {mutations} rank corruptions detected"
    )


def test_criterion_8_step_bound_dominates_termination():
    results = []
    # add(600, 3) is a long trace: 9,005 steps.
    for term, args in [(ADD, (1, 1)), (ADD, (2, 1)), (MULT, (2, 2)), (ADD, (600, 3))]:
        unit = compile_term(term)
        _, trace = _unit_states(unit, args)
        report = check_invariant(unit.program, trace, unit.invariant)
        bound = step_bound(report)
        assert trace.steps <= bound, (args, trace.steps)
        # The bound reads only the freeze index, trace.steps; the measure must
        # also fall at every step before it, and first pause at the final state.
        assert find_nondescent(PhiSequence(report).sequence(), 0, bound) == trace.steps
        results.append((args, trace.steps, len(str(bound))))
    summary = ", ".join(
        f"{args}: {steps} steps <= bound of {digits} digits"
        for args, steps, digits in results
    )
    print(f"[PASS] criterion 8: termination step below descent bound ({summary})")
