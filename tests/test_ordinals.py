import random

import pytest
from hypothesis import given, strategies as st

from termbound.errors import BudgetExceeded, DomainTooLarge, ParseError
from termbound.ordinals import (
    MAX_NESTING,
    MAX_POWER_BITS,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    cmp,
    exp_base_k,
    from_vector,
    is_nat,
    nat_prod_nat,
    nat_sum,
    parse_ordinal,
    to_vector,
)

w = OMEGA
o = parse_ordinal


def small_ordinals(max_exp=3, max_coeff=9, max_terms=4):
    """Strategy for ordinals below w^(max_exp+1) with finite exponents."""

    def build(draw_exps, draw_coeffs):
        exps = sorted(set(draw_exps), reverse=True)
        terms = tuple(
            (Ordinal.from_int(e), c) for e, c in zip(exps, draw_coeffs)
        )
        return Ordinal(terms)

    return st.builds(
        build,
        st.lists(st.integers(0, max_exp), max_size=max_terms),
        st.lists(st.integers(1, max_coeff), min_size=max_terms, max_size=max_terms),
    )


class TestConstruction:
    def test_zero_is_empty(self):
        assert ZERO.is_zero
        assert ZERO.terms == ()

    def test_canonical_rejects_bad_coefficient(self):
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 0),))

    # A bool is not a natural, nor is a float: each entry point refuses both.
    @pytest.mark.parametrize(
        "call, error",
        [
            pytest.param(lambda: Ordinal(((ZERO, True),)), ValueError, id="Ordinal-coeff-True"),
            pytest.param(lambda: Ordinal(((ONE, 2.0),)), ValueError, id="Ordinal-coeff-2.0"),
            pytest.param(lambda: Ordinal.from_int(True), ValueError, id="from_int-True"),
            pytest.param(lambda: Ordinal.from_int(3.0), ValueError, id="from_int-3.0"),
            pytest.param(lambda: Ordinal.omega_pow(1, 2.5), ValueError, id="omega_pow-2.5"),
            pytest.param(lambda: Ordinal.omega_pow(1, True), ValueError, id="omega_pow-True"),
            pytest.param(lambda: Ordinal.omega_pow(1, False), ValueError, id="omega_pow-False"),
            pytest.param(lambda: Ordinal.omega_pow(True), TypeError, id="omega_pow-exponent-True"),
            pytest.param(lambda: nat_prod_nat(w, True), ValueError, id="nat_prod_nat-True"),
            pytest.param(lambda: nat_prod_nat(w, 2.0), ValueError, id="nat_prod_nat-2.0"),
            pytest.param(lambda: to_vector(ONE, True), ValueError, id="to_vector-True"),
            pytest.param(lambda: to_vector(ONE, 2.0), ValueError, id="to_vector-2.0"),
            pytest.param(lambda: cmp(True, 0), TypeError, id="coerce-True"),
            pytest.param(lambda: nat_sum(w, 1.5), TypeError, id="coerce-1.5"),
        ],
    )
    def test_rejects_bool_and_float_naturals(self, call, error):
        with pytest.raises(error):
            call()

    def test_rejects_an_exponent_that_is_not_an_ordinal(self):
        with pytest.raises(TypeError, match="^exponent must be an Ordinal, got 1$"):
            Ordinal([(1, 1)])

    def test_to_int_of_an_infinite_ordinal(self):
        with pytest.raises(ValueError, match="^w is not finite$"):
            OMEGA.to_int()

    def test_canonical_rejects_nondecreasing_exponents(self):
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 1), (ONE, 1)))

    def test_equality_is_structural(self):
        assert nat_sum(w, 1) == add(w, 1)
        assert hash(nat_sum(w, 1)) == hash(add(w, 1))

    def test_int_equality(self):
        assert Ordinal.from_int(7) == 7
        assert w != 7

    def test_finite_hashes_as_its_int(self):
        assert hash(Ordinal.from_int(7)) == hash(7)
        assert len({Ordinal.from_int(7), 7}) == 1

    def test_omega_pow_zero_coefficient(self):
        assert Ordinal.omega_pow(1, 0) == ZERO


class TestCmp:
    def test_zero_zero(self):
        assert cmp(0, 0) == 0

    def test_omega_above_finite(self):
        assert cmp(w, 5) > 0

    def test_same_exponent_coefficient_decides(self):
        assert cmp(o("w*2+1"), o("w*2+3")) < 0

    def test_prefix_is_smaller(self):
        assert cmp(o("w*2"), o("w*2+3")) < 0


class TestAdd:
    def test_absorption(self):
        assert add(1, w) == w

    def test_successor(self):
        assert add(w, 1) == o("w+1")

    def test_merge(self):
        assert add(o("w*2+3"), o("w+1")) == o("w*3+1")

    def test_not_commutative(self):
        assert add(1, w) != add(w, 1)


class TestNatSum:
    def test_identity(self):
        assert nat_sum(0, o("w^2+w")) == o("w^2+w")

    def test_one_plus_omega(self):
        assert nat_sum(1, w) == o("w+1")

    def test_coefficient_wise(self):
        assert nat_sum(o("w*2+1"), o("w+3")) == o("w*3+4")


class TestNatProd:
    def test_zero_factor(self):
        assert nat_prod_nat(o("w^2+5"), 0) == ZERO

    def test_omega_doubled(self):
        assert nat_prod_nat(w, 2) == o("w*2")

    def test_coefficients_scaled(self):
        assert nat_prod_nat(o("w+1"), 2) == o("w*2+2")


class TestExpBaseK:
    def test_power_zero(self):
        assert exp_base_k(2, 0) == ONE

    def test_power_omega(self):
        assert exp_base_k(2, w) == w

    def test_power_omega_times_two(self):
        assert exp_base_k(2, o("w*2")) == o("w^2")

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_omega_times_k_gives_omega_power_k(self, k):
        assert exp_base_k(2, nat_prod_nat(w, k)) == Ordinal.omega_pow(k)

    def test_successor_exponent(self):
        # k^(l+n) = k^l * k^n
        assert exp_base_k(2, o("w+1")) == o("w*2")
        assert exp_base_k(3, o("w*2+2")) == o("w^2*9")

    def test_infinite_exponent_unchanged_by_shift(self):
        assert exp_base_k(2, o("w^(w)")) == o("w^(w^(w))")

    def test_base_below_two_rejected(self):
        with pytest.raises(ValueError):
            exp_base_k(1, w)

    def test_power_budget(self):
        assert exp_base_k(2, MAX_POWER_BITS) == 2**MAX_POWER_BITS
        assert exp_base_k(4, o(f"w+{MAX_POWER_BITS // 2}")) == Ordinal.omega_pow(
            1, 4 ** (MAX_POWER_BITS // 2)
        )
        with pytest.raises(BudgetExceeded):
            exp_base_k(2, MAX_POWER_BITS + 1)
        with pytest.raises(BudgetExceeded):
            exp_base_k(3, o(f"w+{MAX_POWER_BITS // 2 + 1}"))


@pytest.mark.parametrize(
    "text,expected",
    [("0", True), ("0123", True), ("", False), ("٣", False), ("²", False), ("1٣", False), ("-1", False)],
)
def test_is_nat_accepts_ascii_digits_only(text, expected):
    assert is_nat(text) is expected


class TestToVector:
    def test_zero(self):
        assert to_vector(0, 3) == (0, 0, 0)

    def test_reads_off_coefficients(self):
        assert to_vector(o("w^2*2+3"), 3) == (2, 0, 3)

    def test_boundary_rejected(self):
        with pytest.raises(DomainTooLarge):
            to_vector(o("w^2"), 2)


class TestGrammar:
    @pytest.mark.parametrize(
        "text", ["0", "7", "w", "w*2+1", "w^2*3+w+4", "w^(w)", "w^(w+1)*2+w^3+5"]
    )
    def test_round_trip(self, text):
        assert str(parse_ordinal(text)) == text

    @pytest.mark.parametrize("text", ["w^1", "w^(2)", "w*1", "w^0"])
    def test_redundant_spellings_accepted(self, text):
        parse_ordinal(text)

    @pytest.mark.parametrize(
        "text", ["w+w", "1+w", "3+5", "w*0", "w+0", "w^0*0", "0+1", "w^(1+w)", "", "w^", "x"]
    )
    def test_non_canonical_rejected(self, text):
        with pytest.raises(ParseError) as info:
            parse_ordinal(text)
        assert str(info.value).endswith(f" in {text!r}")

    def test_nesting_cap(self):
        def tower(depth):
            return "w^(" * depth + "1" + ")" * depth

        deepest = parse_ordinal(tower(MAX_NESTING))
        n = MAX_NESTING - 1
        assert str(deepest) == "w^(" * n + "w" + ")" * n
        assert cmp(deepest, parse_ordinal(tower(n))) > 0
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_ordinal(tower(MAX_NESTING + 1))


class TestAlgebraicLaws:
    @given(small_ordinals(), small_ordinals())
    def test_nat_sum_commutative(self, a, b):
        assert nat_sum(a, b) == nat_sum(b, a)

    @given(small_ordinals(), small_ordinals(), small_ordinals())
    def test_nat_sum_associative(self, a, b, c):
        assert nat_sum(nat_sum(a, b), c) == nat_sum(a, nat_sum(b, c))

    @given(small_ordinals(), small_ordinals(), small_ordinals())
    def test_nat_sum_strictly_increasing(self, a, b, b2):
        if cmp(b, b2) < 0:
            assert cmp(nat_sum(a, b), nat_sum(a, b2)) < 0

    @given(small_ordinals(), small_ordinals())
    def test_trichotomy(self, a, b):
        assert [cmp(a, b) < 0, cmp(a, b) == 0, cmp(a, b) > 0].count(True) == 1

    @given(small_ordinals(), small_ordinals(), small_ordinals())
    def test_transitivity(self, a, b, c):
        if cmp(a, b) <= 0 and cmp(b, c) <= 0:
            assert cmp(a, c) <= 0

    @given(small_ordinals(), small_ordinals(), st.integers(0, 20))
    def test_operators_agree_with_cmp_and_add(self, a, b, n):
        c = cmp(a, b)
        assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)
        assert n + a == add(n, a)

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_finite_agreement(self, m, n):
        assert add(m, n) == m + n
        assert nat_sum(m, n) == m + n
        assert nat_prod_nat(Ordinal.from_int(m), n) == m * n

    @given(st.integers(2, 4), st.integers(0, 10))
    def test_finite_exponentiation_agreement(self, k, n):
        assert exp_base_k(k, n) == k**n


def test_to_vector_is_an_order_isomorphism():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 4)
        pairs = []
        for _ in range(2):
            vec = tuple(rng.randint(0, 6) for _ in range(k))
            terms = tuple(
                (Ordinal.from_int(k - 1 - i), c)
                for i, c in enumerate(vec)
                if c > 0
            )
            pairs.append((Ordinal(terms), vec))
        (a, va), (b, vb) = pairs
        assert to_vector(a, k) == va
        assert cmp(a, b) == (va > vb) - (va < vb)


@given(small_ordinals(), st.integers(0, 2))
def test_from_vector_inverts_to_vector(a, extra):
    # small_ordinals() are below w^4.
    assert from_vector(to_vector(a, 4 + extra)) == a


@given(st.lists(st.integers(0, 9), max_size=6))
def test_to_vector_inverts_from_vector(vec):
    assert to_vector(from_vector(vec), len(vec)) == tuple(vec)
