import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from ndsolve import graver
from ndsolve.errors import BudgetError
from ndsolve.graver import (
    _entry,
    _first_below,
    _smallest_minimizer,
    augment_to_optimum,
    conformal,
    g1_norm,
    g_inf_norm,
    graver_basis,
    graver_best_step,
    kernel_lattice_basis,
    stacking_check,
)
from ndsolve.graphs import type_graph
from ndsolve.instances import generate_blowup, random_template
from ndsolve.matrices import IntMatrix
from ndsolve.models import build_sumcol_graver, split_stacked_blocks

from helpers import graver_by_enumeration, kernel_vectors_by_product


vectors = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5)


def random_vector_pairs(seed, count=3000):
    """Pairs (g, s) of equal length from 1 to 80, so that sign masks run past
    64 bits.  Coordinates are mostly 0; in half of the pairs g is s with
    each coordinate moved towards 0 and, rarely, past it or beyond s, so
    that both outcomes of a conformal test are common.  Zero vectors and
    single non-zero coordinates come first."""
    pairs = [((0,) * 70, (0,) * 70), ((0,) * 69 + (-1,), (0,) * 70),
             ((0,) * 70, (0,) * 69 + (-1,)), ((0,) * 69 + (1,), (0,) * 69 + (-2,)),
             ((0,) * 69 + (-1,), (0,) * 69 + (-2,)), ((2,) + (0,) * 69, (0,) * 69 + (-1,))]
    rng = random.Random(seed)
    while len(pairs) < count:
        n = rng.randint(1, 80)
        s = tuple(rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(n))
        if rng.random() < 0.5:
            g = tuple(rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(n))
        else:
            g = tuple(
                rng.randint(-1, 1) if rng.random() < 0.02 else round(x * rng.random() * 1.1)
                for x in s
            )
        pairs.append((g, s))
    return pairs


class TestConformal:
    def test_zero_below_everything(self):
        assert conformal((0, 0), (5, -7))

    def test_componentwise(self):
        assert conformal((1, -1), (2, -3))

    def test_sign_clash(self):
        assert not conformal((1, 1), (2, -3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            conformal((1,), (1, 2))

    @given(vectors)
    def test_reflexive(self, v):
        assert conformal(v, v)

    @given(st.data())
    def test_transitive(self, data):
        n = data.draw(st.integers(1, 4))
        elt = st.integers(-3, 3)
        x = data.draw(st.lists(elt, min_size=n, max_size=n))
        y = data.draw(st.lists(elt, min_size=n, max_size=n))
        z = data.draw(st.lists(elt, min_size=n, max_size=n))
        if conformal(x, y) and conformal(y, z):
            assert conformal(x, z)

    @given(st.data())
    def test_antisymmetric(self, data):
        n = data.draw(st.integers(1, 4))
        elt = st.integers(-3, 3)
        x = tuple(data.draw(st.lists(elt, min_size=n, max_size=n)))
        y = tuple(data.draw(st.lists(elt, min_size=n, max_size=n)))
        if conformal(x, y) and conformal(y, x):
            assert x == y


class TestSignMasks:
    def test_mask_test_equals_conformal(self):
        outcomes = set()
        for g, s in random_vector_pairs(1):
            eg, es = _entry(g), _entry(s)
            below = _first_below(es[1], es[2], [eg]) is eg
            assert below == conformal(g, s), (g, s)
            outcomes.add(below)
        assert outcomes == {False, True}

    def test_common_orthant_test_equals_both_conformal_tests(self):
        # the completion skips v + g exactly when v and g share an orthant;
        # that is when v, and also g, is conformal to v + g
        outcomes = set()
        for v, g in random_vector_pairs(2):
            s = tuple(a + b for a, b in zip(v, g))
            common = not _entry(v)[3] & _entry(g)[2]
            assert common == conformal(v, s) == conformal(g, s), (v, g)
            outcomes.add(common)
        assert outcomes == {False, True}

    def test_first_below_keeps_order(self):
        s = _entry((2, -1, 0, 3))
        entries = [_entry(g) for g in [(1, 1, 0, 0), (0, 0, 0, 3), (1, 0, 0, 0), (0, 0, 0, 1)]]
        assert _first_below(s[1], s[2], entries) is entries[1]
        assert _first_below(s[1], s[2], entries[:1]) is None


class TestKernelLattice:
    @pytest.mark.parametrize("seed", range(15))
    def test_basis_vectors_lie_in_kernel(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        a = IntMatrix.from_dict(
            m, n,
            {(i, j): rng.randint(-2, 2) for i in range(m) for j in range(n) if rng.random() < 0.7},
        )
        for v in kernel_lattice_basis(a):
            assert a.mul_vec(list(v)) == [0] * m

    def test_identity_has_trivial_kernel(self):
        a = IntMatrix.from_dict(3, 3, {(i, i): 1 for i in range(3)})
        assert kernel_lattice_basis(a) == []

    def test_zero_matrix_kernel_is_everything(self):
        a = IntMatrix.from_dict(1, 3, {})
        basis = kernel_lattice_basis(a)
        assert len(basis) == 3


class TestKernelEnumeration:
    @pytest.mark.parametrize("chunk", range(4))
    def test_matches_the_whole_box(self, chunk):
        # the same vectors in the same (lexicographic) order as a test of
        # every point of the box; zero columns, zero rows and cap 0 included
        for seed in range(50 * chunk, 50 * chunk + 50):
            rng = random.Random(7_000 + seed)
            m, n, cap = rng.randint(1, 3), rng.randint(1, 5), rng.randint(0, 2)
            a = IntMatrix.from_dict(
                m, n, {(i, j): rng.randint(-2, 2) for i in range(m) for j in range(n)
                       if rng.random() < 0.7})
            assert graver._kernel_vectors_within(a, cap, 10**7) == kernel_vectors_by_product(a, cap), seed

    def test_budget_counts_every_node(self):
        # 2,246 nodes, leaves included, as when the search recursed
        a = IntMatrix.from_rows([[1, -2, 1, 0, 2], [0, 1, 1, -1, -1]])
        assert len(graver._kernel_vectors_within(a, 2, 2246)) == 40
        with pytest.raises(BudgetError, match="kernel enumeration budget exceeded"):
            graver._kernel_vectors_within(a, 2, 2245)


class TestGraverBasis:
    def test_difference_matrix(self):
        b = graver_basis(IntMatrix.from_rows([[1, -1]]))
        assert b.elements == {(1, 1), (-1, -1)}
        assert g1_norm(b) == 2 and g_inf_norm(b) == 1

    def test_sum_matrix_enumeration_oracle(self):
        # the oracle itself, against a hand count of the kernel up to norm 2
        a = IntMatrix.from_rows([[1, 1, -1]])
        expected = {(1, 0, 1), (0, 1, 1), (1, -1, 0)}
        assert graver_by_enumeration(a, 2) == expected | {tuple(-x for x in v) for v in expected}
        b = graver_basis(a)
        assert g1_norm(b) == 2 and g_inf_norm(b) == 1

    def test_completion_agrees_with_enumeration(self):
        a = IntMatrix.from_rows([[1, 1, -1]])
        assert graver_basis(a).elements == graver_by_enumeration(a, 2)

    def test_chain_recurrence_block(self):
        # rows a1 = b1, a2 = a1 + b2; columns (a1, a2, b1, b2)
        l = IntMatrix.from_rows([[1, 0, -1, 0], [-1, 1, 0, -1]])
        b = graver_basis(l)
        expected = {(1, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, -1)}
        assert b.elements == expected | {tuple(-x for x in v) for v in expected}
        assert g1_norm(b) == 3  # K + 1 with K = 2

    def test_zero_row_matrix_gives_unit_vectors(self):
        b = graver_basis(IntMatrix.from_dict(1, 3, {}))
        assert b.elements == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        }
        assert g1_norm(b) == 1

    def test_trivial_kernel_empty_basis(self):
        b = graver_basis(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert b.elements == frozenset()
        assert g1_norm(b) == 0

    def test_budget_error(self):
        a = IntMatrix.from_dict(1, 4, {})
        with pytest.raises(BudgetError):
            graver_basis(a, max_elements=2)

    @pytest.mark.parametrize("seed", range(12))
    def test_invariants_and_route_agreement(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 2), rng.randint(2, 4)
        a = IntMatrix.from_dict(
            m, n,
            {(i, j): rng.randint(-2, 2) for i in range(m) for j in range(n) if rng.random() < 0.8},
        )
        b = graver_basis(a)
        b.validate()
        # one norm level above the basis: a missed element would show up here
        assert graver_by_enumeration(a, g_inf_norm(b) + 1) == b.elements

    @pytest.mark.parametrize("seed", range(8))
    def test_conformal_decomposition_property(self, seed):
        from ndsolve.graver import _conformal_normal_form, _kernel_vectors_within

        rng = random.Random(100 + seed)
        a = IntMatrix.from_dict(
            1, 3, {(0, j): rng.randint(-2, 2) for j in range(3) if rng.random() < 0.9}
        )
        b = graver_basis(a)
        cap = max(g_inf_norm(b), 1) + 1
        elems = sorted(b.elements)
        for v in _kernel_vectors_within(a, cap, 10**6):
            assert not any(_conformal_normal_form(v, elems))

    def test_every_element_needed(self):
        from ndsolve.graver import _conformal_normal_form

        b = graver_basis(IntMatrix.from_rows([[1, 1, -1]]))
        elems = sorted(b.elements)
        for v in elems:
            rest = [u for u in elems if u != v]
            assert any(_conformal_normal_form(v, rest))


class TestAugmentation:
    def test_optimal_point_returns_none(self):
        a = IntMatrix.from_rows([[1, -1]])
        basis = graver_basis(a)
        f = lambda p: p[0] + p[1]
        assert graver_best_step(basis, (0, 0), f, ((0, 0), (5, 5))) is None

    def test_one_dim_quadratic_descent(self):
        a = IntMatrix.from_dict(1, 1, {})
        basis = graver_basis(a)
        f = lambda p: p[0] * p[0]
        res = augment_to_optimum((3,), f, ((-5,), (5,)), basis)
        assert res.point == (0,) and res.value == 0
        assert res.steps <= 2

    def test_step_respects_bounds(self):
        a = IntMatrix.from_dict(1, 1, {})
        basis = graver_basis(a)
        f = lambda p: -p[0]
        g, lam = graver_best_step(basis, (1,), f, ((0,), (4,)))
        assert g == (1,) and lam == 3

    def test_infeasible_point_rejected(self):
        a = IntMatrix.from_dict(1, 1, {})
        basis = graver_basis(a)
        with pytest.raises(ValueError):
            graver_best_step(basis, (9,), lambda p: 0, ((0,), (5,)))

    def test_best_step_length_past_last_doubling(self):
        # doubling stops at lambda 2 (phi(4) == phi(2)); the best length is 3
        a = IntMatrix.from_dict(1, 1, {})
        basis = graver_basis(a)
        f = lambda p: (p[0] - 3) ** 2
        assert graver_best_step(basis, (0,), f, ((0,), (20,))) == ((1,), 3)

    def test_tie_broken_by_lex_smallest_direction(self):
        a = IntMatrix.from_dict(1, 2, {})
        basis = graver_basis(a)  # unit vectors
        f = lambda p: -(p[0] + p[1])
        g, lam = graver_best_step(basis, (0, 0), f, ((0, 0), (1, 1)))
        assert g == (0, 1) and lam == 1  # (0,1) sorts before (1,0)


class TestSmallestMinimizer:
    def test_agrees_with_brute_force_on_quadratics(self):
        # c = 3, 5, 6, 11, 12 over [1, 20] have their minimizer in (hi, 2*hi]
        # of the doubling bracket
        for lam_max in range(1, 21):
            for c in range(-2, 24):
                phi = lambda lam: (lam - c) ** 2
                expected = min(range(1, lam_max + 1), key=lambda lam: (phi(lam), lam))
                assert _smallest_minimizer(phi, lam_max) == expected, (c, lam_max)


class TestStacking:
    def test_simple_pair_holds(self):
        rep = stacking_check(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, -1]]))
        assert rep.holds
        assert rep.g1_stack == 0 and rep.bound == 4

    def test_zero_lower_block_reduces_to_upper_term(self):
        f = IntMatrix.from_rows([[1, -1]])
        l = IntMatrix.from_dict(1, 2, {})
        rep = stacking_check(f, l)
        assert rep.g1_lower == 1
        assert rep.bound == rep.g1_projected
        assert rep.holds

    @pytest.mark.parametrize("seed", range(10))
    def test_random_tiny_pairs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        f = IntMatrix.from_dict(
            1, n, {(0, j): rng.randint(-2, 2) for j in range(n) if rng.random() < 0.8}
        )
        l = IntMatrix.from_dict(
            1, n, {(0, j): rng.randint(-2, 2) for j in range(n) if rng.random() < 0.8}
        )
        assert stacking_check(f, l).holds


def acceptance_graver_models():
    """The Graver sum-coloring models of the acceptance gate's 200
    sum-coloring instances (its criterion 2)."""
    for i in range(200):
        rng = random.Random(22_000 + i)
        template = random_template(rng, max_k=4, max_n=8, with_capacities=False, max_capacity=4)
        g = generate_blowup(template, seed=rng.randrange(2**30))
        yield build_sumcol_graver(type_graph(g))


def acceptance_graver_matrices():
    """The lower blocks and full matrices of acceptance_graver_models, each
    distinct matrix once, in order of first appearance."""
    out = {}
    for model in acceptance_graver_models():
        for matrix in (split_stacked_blocks(model)[1], model.matrix()):
            out.setdefault((matrix.m, matrix.n, matrix.entries), matrix)
    return list(out.values())


# sha256 over the repr of the sorted Graver basis of each matrix above, as
# computed by the completion that tested conformality coordinate by
# coordinate, before sign masks.
PINNED_BASES_DIGEST = "0bccee2b251765d3b81204ca647ecb463c1de0060219e96d83633a103897480b"


def test_acceptance_bases_are_pinned():
    matrices = acceptance_graver_matrices()
    h = hashlib.sha256()
    for matrix in matrices:
        h.update(repr(sorted(graver_basis(matrix).elements)).encode())
    assert len(matrices) == 122
    assert h.hexdigest() == PINNED_BASES_DIGEST


# sha256 over the repr of the list of the smallest max_elements with which
# the completion finishes on each matrix above (0 for a trivial kernel), as
# computed when the completion queued and reduced both sums s and -s.
PINNED_COMPLETION_BUDGETS_DIGEST = "2de6abc22804a033c95ce30bacf41abe126b7ab140de73bffeb46198563dc083"


def test_acceptance_completion_budgets_are_pinned(monkeypatch):
    """The completion pushes the same elements in the same order, so it
    stops at the same point: max_elements = size finishes, size - 1 raises.
    It is driven directly, incidence matrices included, which graver_basis
    answers without it."""
    sizes = []
    minimal_filter = graver._minimal_filter

    def recorded(vectors):
        vectors = list(vectors)
        sizes.append(len(vectors))
        return minimal_filter(vectors)

    matrices = acceptance_graver_matrices()
    with monkeypatch.context() as patch:
        patch.setattr(graver, "_minimal_filter", recorded)
        for matrix in matrices:
            graver._pottier_completion(matrix, 200_000)
    assert len(sizes) == len(matrices)
    for matrix, size in zip(matrices, sizes):
        graver._pottier_completion(matrix, size)
        if size:
            with pytest.raises(BudgetError):
                graver._pottier_completion(matrix, size - 1)
    assert hashlib.sha256(repr(sizes).encode()).hexdigest() == PINNED_COMPLETION_BUDGETS_DIGEST


def test_acceptance_incidence_budgets_bound_the_basis():
    """On an incidence matrix max_elements bounds the basis itself:
    max_elements = |G| finishes, |G| - 1 raises."""
    incidence = [m for m in acceptance_graver_matrices() if graver._incidence_arcs(m) is not None]
    assert len(incidence) == 65
    for matrix in incidence:
        size = len(graver_basis(matrix))
        assert graver_basis(matrix, max_elements=size).elements == graver_basis(matrix).elements
        if size:
            with pytest.raises(BudgetError, match="Graver basis budget exceeded"):
                graver_basis(matrix, max_elements=size - 1)


def test_every_counter_block_is_an_incidence_matrix():
    for model in acceptance_graver_models():
        assert graver._incidence_arcs(split_stacked_blocks(model)[1]) is not None


def random_incidence_matrix(rng):
    """1-4 rows, 1-8 columns: arcs between rows, arcs to the ground node (one
    entry), zero columns (loops) and arcs parallel or antiparallel to an
    earlier one."""
    m, n = rng.randint(1, 4), rng.randint(1, 8)
    cols = []
    for j in range(n):
        kind = rng.random()
        if kind < 0.15:
            cols.append({})
        elif kind < 0.3 and cols:
            sign = rng.choice((1, -1))
            cols.append({r: sign * v for r, v in rng.choice(cols).items()})
        else:
            rows = rng.sample(range(m), min(m, rng.choice((1, 2, 2))))
            cols.append(dict(zip(rows, rng.sample((1, -1), len(rows)))))
    return IntMatrix.from_dict(m, n, {(r, j): v for j, col in enumerate(cols) for r, v in col.items()})


class TestSignedCycles:
    def test_random_incidence_matrices_agree_with_completion_and_enumeration(self, monkeypatch):
        completion = graver._pottier_completion
        calls = []
        monkeypatch.setattr(graver, "_pottier_completion", lambda a, k: calls.append(a) or completion(a, k))
        rng = random.Random(2021)
        kinds = set()
        for _ in range(300):
            a = random_incidence_matrix(rng)
            arcs = graver._incidence_arcs(a)
            assert arcs is not None
            kinds.update("loop" if t == h else "ground" if a.m in (t, h) else "inner" for t, h in arcs)
            links = [frozenset(arc) for arc in arcs if arc[0] != arc[1]]
            if len(set(links)) < len(links):
                kinds.add("parallel")
            b = graver_basis(a)
            b.validate()
            assert b.elements == frozenset(completion(a, 10**6))
            # a totally unimodular matrix has a basis of infinity-norm 1
            assert b.elements == graver_by_enumeration(a, 1)
        assert calls == []
        assert kinds == {"loop", "ground", "inner", "parallel"}

    @pytest.mark.parametrize("rows", [
        [[1, -1, 2], [0, 1, -1]],  # one 2 entry
        [[1, 1, 0], [-1, 0, -2]],  # one -2 entry
        [[1, -1, 0], [1, 0, 1]],  # two +1 in one column
        [[-1, 1, 0], [-1, 0, 1]],  # two -1 in one column
    ])
    def test_near_misses_take_the_completion(self, rows, monkeypatch):
        completion = graver._pottier_completion
        calls = []
        monkeypatch.setattr(graver, "_pottier_completion", lambda a, k: calls.append(a) or completion(a, k))
        a = IntMatrix.from_rows(rows)
        assert graver._incidence_arcs(a) is None
        b = graver_basis(a)
        assert calls == [a]
        b.validate()
        assert b.elements == graver_by_enumeration(a, g_inf_norm(b) + 1)

    def test_parallel_arcs_and_loops(self):
        # arcs 0 and 2 run ground -> row 0, arc 1 back; column 3 is a loop
        b = graver_basis(IntMatrix.from_rows([[1, -1, 1, 0]]))
        assert b.elements == {
            (1, 1, 0, 0), (-1, -1, 0, 0), (0, 1, 1, 0), (0, -1, -1, 0),
            (1, 0, -1, 0), (-1, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, -1),
        }

    def test_budget_counts_both_signs(self):
        a = IntMatrix.from_rows([[1, -1, 1, 0]])
        assert len(graver_basis(a, max_elements=8)) == 8
        with pytest.raises(BudgetError):
            graver_basis(a, max_elements=7)
