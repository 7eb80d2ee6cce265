import itertools
import random

import pytest
from hypothesis import given, strategies as st

from gklab import catalog, groups
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


# el.mul against the per-entry reference it replaced on permutations of two
# or more points and on 2 x 2 matrices.

def _reference_mul(a, b):
    """Context-free product by index and per-entry sums, for every shape."""
    if a[0] != b[0]:
        raise el.IncompatibleKinds(f"cannot multiply kinds {a[0]!r} and {b[0]!r}")
    if a[0] == el.PERM:
        pa, pb = a[1], b[1]
        if len(pa) != len(pb):
            raise el.IncompatibleKinds("permutation degrees differ")
        return (el.PERM, tuple(pa[i] for i in pb))
    if a[0] == el.MAT:
        _, p, d, xs = a
        if (p, d) != (b[1], b[2]):
            raise el.IncompatibleKinds("matrix fields or dimensions differ")
        ys = b[3]
        out = []
        for i in range(0, d * d, d):
            row = xs[i:i + d]
            for j in range(d):
                out.append(sum(row[k] * ys[k * d + j] for k in range(d)) % p)
        return (el.MAT, p, d, tuple(out))
    raise el.IncompatibleKinds("pair elements need their group's multiplication")


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # compared, type and message, with the reference
        return type(exc), str(exc)


@st.composite
def raw_matrix(draw, p, d):
    """A ('M', p, d, entries) tuple with entries in [0, p), singular or not."""
    return (el.MAT, p, d, tuple(draw(st.lists(st.integers(0, p - 1),
                                              min_size=d * d, max_size=d * d))))


@st.composite
def shaped(draw):
    """A strategy for elements of one drawn shape."""
    if draw(st.booleans()):
        return random_perm(draw(st.integers(1, 12)))
    return raw_matrix(draw(st.sampled_from([2, 3, 5, 7])),
                      draw(st.sampled_from([1, 2, 3, 4, 6])))


@st.composite
def any_element(draw):
    """An element of any kind and a small shape, a pair included."""
    kind = draw(st.sampled_from(["perm", "mat", "pair"]))
    if kind == "perm":
        return draw(random_perm(draw(st.integers(1, 4))))
    if kind == "mat":
        return draw(raw_matrix(draw(st.sampled_from([2, 3, 5, 7])),
                               draw(st.integers(1, 3))))
    return el.pair(draw(any_element()), draw(any_element()))


# one or two elements of each kind and shape, a singular matrix among them
SHAPES = [el.perm_identity(0), el.perm_identity(1), el.perm_identity(2),
          el.perm((1, 2, 0)), el.perm((1, 0, 3, 2)),
          el.mat(2, [[1, 1], [0, 1]]), el.mat(3, [[1, 1], [0, 1]]),
          el.mat(3, [[0, 2], [1, 0]]), el.mat(5, [[1, 2], [3, 4]]),
          (el.MAT, 5, 2, (1, 2, 2, 4)), el.mat(7, [[0, 1], [6, 3]]),
          el.mat(3, [[2]]), el.mat(2, [[1]]),
          el.mat(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]), el.mat_identity(5, 3),
          el.pair(el.perm_identity(2), el.perm_identity(2))]


class TestMulMatchesReference:
    def test_every_pair_of_shapes(self):
        """The same result, or the same exception type and message."""
        for a in SHAPES:
            for b in SHAPES:
                assert _outcome(el.mul, a, b) == _outcome(_reference_mul, a, b)

    @given(shaped(), st.data())
    def test_same_shape(self, maker, data):
        for _ in range(4):
            a, b = data.draw(maker), data.draw(maker)
            assert el.mul(a, b) == _reference_mul(a, b)

    @given(shaped(), any_element(), st.data())
    def test_foreign_operand(self, maker, foreign, data):
        mine = data.draw(maker)
        for a, b in [(foreign, mine), (mine, foreign), (foreign, foreign)]:
            assert _outcome(el.mul, a, b) == _outcome(_reference_mul, a, b)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_2x2_matrix(self, p):
        """Every 2 x 2 matrix over F_p, singular ones included, multiplied on
        both sides by four fixed ones: the draws above favour entries near 0."""
        every = [(el.MAT, p, 2, xs)
                 for xs in itertools.product(range(p), repeat=4)]
        fixed = random.Random(p).sample(every, 4)
        for m in every:
            for f in fixed:
                assert el.mul(m, f) == _reference_mul(m, f)
                assert el.mul(f, m) == _reference_mul(f, m)


def _reference_closure(gens, mul=_reference_mul):
    """Every product of gens, by a breadth-first search on mul (the
    reference unless given) from the identity, in the order the search
    finds them: one level at a time, each element times each generator in
    the order given."""
    e = g = gens[0]
    while mul(e, g) != g:  # the powers of g end at the identity
        e = mul(e, g)
    out, frontier, seen = [e], [e], {e}
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        out += new
        frontier = new
    return out


def _enumerated_parts(G, out):
    """Every enumerated group G is built from, G itself included."""
    o = G.origin
    if o is None:
        out.setdefault(id(G), G)
    elif isinstance(o, groups.Product):
        _enumerated_parts(o.left, out)
        _enumerated_parts(o.right, out)
    else:
        _enumerated_parts(o.parent, out)
    return out


def test_enumeration_matches_reference_closure():
    """Every enumerated group of the catalog and the corpus pool lists the
    same elements, in the same order, as a search on the reference
    multiplication."""
    builders = [e.build for e in catalog.catalog()] + catalog._corpus_pool()
    parts = {}
    for build in builders:
        _enumerated_parts(build(), parts)
    for G in parts.values():
        assert G.ordered == _reference_closure(G.generators), G.label
