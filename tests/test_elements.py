import pytest
from hypothesis import given, strategies as st

from gklab import elements as el


def random_perm(n):
    return st.permutations(range(n)).map(lambda images: el.perm(images))


class TestPerm:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            el.perm((0, 0, 2))

    def test_from_cycles_one_based(self):
        g = el.perm_from_cycles(3, [[1, 2]])
        assert g == el.perm((1, 0, 2))

    def test_cycles_out_of_range(self):
        with pytest.raises(ValueError):
            el.perm_from_cycles(3, [[3, 4]])

    @pytest.mark.parametrize("cycles", [[[1, 1]], [[1, 2, 1]], [[2, 3, 3]]])
    def test_cycle_repeating_a_point(self, cycles):
        with pytest.raises(ValueError, match="repeats a point"):
            el.perm_from_cycles(3, cycles)

    @given(random_perm(6))
    def test_cycle_roundtrip(self, g):
        assert el.perm_from_cycles(6, el.perm_to_cycles(g)) == g

    @given(random_perm(5), random_perm(5))
    def test_inverse_law(self, a, b):
        n = el.perm_identity(5)
        assert el.mul(a, el.inv(a)) == n
        assert el.inv(el.mul(a, b)) == el.mul(el.inv(b), el.inv(a))

    def test_composition_convention(self):
        # (a*b) applies b first: images of a indexed by b
        a = el.perm_from_cycles(3, [[1, 2]])
        b = el.perm_from_cycles(3, [[2, 3]])
        assert el.mul(a, b) == el.perm((1, 2, 0))

    def test_degree_mismatch(self):
        with pytest.raises(el.IncompatibleKinds):
            el.mul(el.perm_identity(3), el.perm_identity(4))


class TestMat:
    def test_entries_reduced(self):
        m = el.mat(5, [[2, 0], [0, -2]])
        assert el.mat_rows(m) == [[2, 0], [0, 3]]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            el.mat(3, [[1, 2], [2, 4]])

    @pytest.mark.parametrize("p", [0, 1, 4, -3])
    def test_non_prime_modulus_rejected(self, p):
        # p = 0 used to divide by zero; p = 4 built a matrix over Z/4
        with pytest.raises(ValueError, match=f"p={p}"):
            el.mat(p, [[1, 2], [0, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            el.mat(3, [[1, 2, 0], [0, 1, 0]])

    @given(st.lists(st.integers(0, 6), min_size=4, max_size=4))
    def test_inverse_law(self, entries):
        rows = [entries[:2], entries[2:]]
        if (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % 7 == 0:
            return
        m = el.mat(7, rows)
        assert el.mul(m, el.inv(m)) == el.mat_identity(7, 2)

    def test_inverse_of_raw_singular_tuple(self):
        # a ValueError, not an assert, so that python -O rejects it too
        with pytest.raises(ValueError, match="matrix is singular over F_3"):
            el.inv((el.MAT, 3, 2, (1, 2, 2, 1)))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="empty matrix"):
            el.mat(2, [])

    def test_field_mismatch(self):
        with pytest.raises(el.IncompatibleKinds):
            el.mul(el.mat_identity(3, 2), el.mat_identity(5, 2))

    def test_multiplication(self):
        a = el.mat(5, [[2, 0], [0, 3]])
        b = el.mat(5, [[0, 1], [4, 0]])
        assert el.mat_rows(el.mul(a, b)) == [[0, 2], [2, 0]]


class TestPair:
    def test_pair_needs_group_context(self):
        p = el.pair(el.perm_identity(2), el.perm_identity(2))
        with pytest.raises(el.IncompatibleKinds):
            el.mul(p, p)
        with pytest.raises(el.IncompatibleKinds):
            el.inv(p)

    def test_same_kind(self):
        assert el.same_kind(el.perm_identity(3), el.perm_identity(3))
        assert not el.same_kind(el.perm_identity(3), el.perm_identity(4))
        assert not el.same_kind(el.perm_identity(3), el.mat_identity(3, 2))
        assert el.same_kind(el.pair(el.perm_identity(2), el.mat_identity(3, 2)),
                            el.pair(el.perm_identity(2), el.mat_identity(3, 2)))
