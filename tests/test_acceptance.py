"""Acceptance gate: one test per shipped guarantee, at the stated bounds.

Each test records a single [acceptance] line; the bounds and tolerances here
are deliberate commitments, not tuning knobs.
"""

import time
from fractions import Fraction
from math import factorial

import pytest

from mzhopf import quasi_shuffle, shuffle_algebra, verify
from mzhopf.compositions import compositions_up_to, enumerate_basis
from mzhopf.elements import Element
from mzhopf.morphisms import (
    Character,
    SingularCharacterError,
    factorial_character,
    induced_morphism_fast,
    morphism_matrix,
    preimage,
    validate_character,
)
from mzhopf.numeric import DEFAULT_CONFIG, double_shuffle_residual
from mzhopf.quasi_shuffle import canonical_character
from mzhopf.verify import induced_morphism

F = Fraction


def test_c01_golden_morphism_values(acceptance):
    with acceptance(1, "golden morphism values (exact, < 1 s)"):
        start = time.perf_counter()
        chi = factorial_character(6)
        golden = {
            (1, 1): {(2,): F(1, 2), (1, 1): 1},
            (2, 1): {(3,): F(1, 6), (2, 1): F(1, 2)},
            (1, 2): {(3,): F(1, 6), (1, 2): F(1, 2), (2, 1): F(-1, 2)},
            (1, 1, 1): {
                (3,): F(1, 6), (1, 2): F(1, 2), (2, 1): F(1, 2), (1, 1, 1): 1,
            },
            (3, 1): {(4,): F(1, 24), (3, 1): F(1, 6)},
            (2, 2): {(4,): F(1, 24), (2, 2): F(1, 4), (3, 1): F(-1, 3)},
        }
        for n in range(1, 7):
            image = induced_morphism(chi, Element.basis((n,)))
            assert image == Element.basis((n,), F(1, factorial(n)))
        for comp, image in golden.items():
            assert induced_morphism(chi, Element.basis(comp)) == Element(image)
            assert induced_morphism_fast(chi, Element.basis(comp)) == Element(image)
        assert time.perf_counter() - start < 1.0


def test_c02_weight_four_chain(acceptance):
    with acceptance(2, "ascending weight-4 basis chain"):
        assert [tuple(c) for c in enumerate_basis(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1),
            (1, 3), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1),
        ]


def test_c03_hopf_suites(acceptance):
    with acceptance(3, "both Hopf suites (weight 7 / antipode 6, < 60 s)"):
        start = time.perf_counter()
        sh, q = shuffle_algebra, quasi_shuffle
        for product, coprod, antipode in (
            (sh.shuffle, sh.coproduct, sh.antipode),
            (q.stuffle, q.coproduct, q.antipode),
        ):
            assert verify._check_coassociativity(7, coprod) is None
            assert verify._check_counit_laws(7, coprod) is None
            assert verify._check_coproduct_multiplicative(7, product, coprod) is None
            assert verify._check_antipode_axiom(6, product, coprod, antipode) is None
        assert time.perf_counter() - start < 60.0


def test_c04_morphism_laws(acceptance):
    with acceptance(4, "morphism respects products, coproducts, characters"):
        chi = factorial_character(8)
        assert verify._check_algebra_map(8, chi) is None
        assert verify._check_coalgebra_map(7, chi) is None
        for c in compositions_up_to(8):
            got = canonical_character(induced_morphism_fast(chi, Element.basis(c)))
            assert got == chi.value(c)


def test_c05_triangularity_and_inversion(acceptance):
    with acceptance(5, "triangular matrices, factorial diagonal, exact inverse (weight 9)"):
        chi = factorial_character(9)
        for n in range(1, 10):
            mat = morphism_matrix(chi, n)
            assert mat.is_upper_triangular()
            for j, c in enumerate(mat.basis):
                expected = F(1)
                for part in c:
                    expected *= F(1, factorial(part))
                assert mat.entries[j][j] == expected
        assert verify._check_inversion_identity(9, chi) is None


def test_c06_rota_baxter(acceptance):
    with acceptance(6, "Rota-Baxter identity (weight 6, exact)"):
        assert verify._check_rota_baxter(6) is None


def test_c07_coefficient_sum(acceptance):
    with acceptance(7, "shuffle coefficient sums are binomial (weights 4)"):
        assert verify._check_coefficient_sum(4) is None


def test_c08_order_lemmas(acceptance):
    with acceptance(8, "order lemmas at stated bounds"):
        assert verify._check_concat_extension(5) is None
        assert verify._check_tensor_extension(7) is None
        assert verify._check_raise_part_order(6) is None
        assert verify._check_coproduct_triangular(7) is None


def test_c09_antipode_cross_check(acceptance):
    with acceptance(9, "quasi-shuffle antipode equals convolution oracle (weight 6)"):
        assert verify._check_qsh_antipode_oracle(6) is None


def test_c10_numeric_double_shuffle(acceptance):
    with acceptance(10, "double-shuffle residuals <= 1e-3 at N=100000 (< 30 s)"):
        start = time.perf_counter()
        comps = [
            c for c in compositions_up_to(3)
            if c and c[0] >= 2
        ]
        checked = 0
        for s in comps:
            for t in comps:
                if s.weight + t.weight > 6:
                    continue
                assert double_shuffle_residual(s, t, DEFAULT_CONFIG) <= 1e-3
                checked += 1
        assert checked == 9  # {[2],[3],[2,1]} x itself
        assert time.perf_counter() - start < 30.0


def test_c11_singularity_behavior(acceptance):
    with acceptance(11, "vanishing character: zero diagonal, named singularity"):
        chi = Character(
            {(1,): 1, (2,): 0, (1, 1): F(1, 2)},
            max_weight=2,
            label="vanishing-at-2",
        )
        assert validate_character(chi)
        mat = morphism_matrix(chi, 2)
        assert 0 in mat.diagonal()
        with pytest.raises(SingularCharacterError) as err:
            preimage(chi, Element.basis((2,)))
        assert err.value.part == 2
