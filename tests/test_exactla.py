import pytest
from hypothesis import given, settings, strategies as st

from qsl2.cyclo import CycRat
from qsl2.exactla import (ColumnKernel, Echelon, kernel_of_columns,
                          span_closure, span_dim)

ELLS = (1, 5)


@st.composite
def matrices(draw):
    """(ell, columns): a small integer matrix over Q(q), as sparse columns."""
    ell = draw(st.sampled_from(ELLS))
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 6))
    # few distinct values, so that dependent columns are common
    entries = st.lists(st.integers(-2, 2), min_size=1, max_size=2)
    cols = []
    for _ in range(ncols):
        col = {}
        for r in range(nrows):
            c = CycRat.from_coeffs(ell, draw(entries))
            if not c.is_zero():
                col[r] = c
        cols.append(col)
    return ell, cols


def combine(cols, coeffs, ell) -> dict:
    """sum_i coeffs[i] * cols[i], without zero entries."""
    out = {}
    for i, c in coeffs.items():
        for k, v in cols[i].items():
            out[k] = out.get(k, CycRat.zero(ell)) + c * v
    return {k: v for k, v in out.items() if not v.is_zero()}


def dense_rank(vecs, ell) -> int:
    """Rank by dense Gaussian elimination, independent of Echelon."""
    keys = sorted({k for v in vecs for k in v})
    rows = [[v.get(k, CycRat.zero(ell)) for k in keys] for v in vecs]
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(rows))
                      if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate_columns(data):
    ell, cols = data
    kernel = kernel_of_columns(cols, ell)
    tops = []
    for vec in kernel:
        assert vec and all(not c.is_zero() for c in vec.values())
        assert combine(cols, vec, ell) == {}
        tops.append(max(vec))
        assert vec[max(vec)].is_one()
    # distinct top indices make the kernel vectors independent
    assert len(set(tops)) == len(tops)
    assert len(kernel) == len(cols) - span_dim(cols)
    assert span_dim(cols) == dense_rank(cols, ell)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_column_kernel_vectors_depend_only_on_the_pivots_before(data):
    # the vector a column completes is the same over any earlier columns
    # with the same span: over all of them, or over the pivot columns alone
    ell, cols = data
    ker, pivots = ColumnKernel(ell), []
    for i, col in enumerate(cols):
        vec = ker.add(col)
        if vec is None:
            pivots.append(i)
            continue
        alone = kernel_of_columns([cols[j] for j in pivots] + [col], ell)
        index = pivots + [i]
        assert [{index[j]: c for j, c in v.items()} for v in alone] == [vec]
    assert ker.size == len(cols)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_echelon_add_false_exactly_on_dependent(data):
    ell, vecs = data
    ech = Echelon()
    seen = []
    for v in vecs:
        dependent = dense_rank(seen + [v], ell) == dense_rank(seen, ell)
        assert ech.contains(v) == dependent
        assert ech.add(v) == (not dependent)
        assert ech.contains(v)
        seen.append(v)
    assert ech.dim == dense_rank(vecs, ell)


def test_kernel_pinned_4x6():
    ell = 5
    q = CycRat.q_power(ell, 1)

    def s(n):
        return CycRat.from_rational(ell, n)

    cols = [
        {0: s(1), 1: q},
        {1: s(2), 2: s(-1)},
        {0: s(1), 1: q + 2, 2: s(-1)},
        {3: q * q},
        {0: q, 2: s(1), 3: s(1)},
        {0: s(2), 1: q * 2 + 4, 2: s(-2), 3: q * q + 1},
    ]
    kernel = kernel_of_columns(cols, ell)
    rendered = [[(i, c.render()) for i, c in vec.items()] for vec in kernel]
    assert rendered == [
        [(2, "1"), (1, "-1"), (0, "-1")],
        [(5, "1"), (3, "-1 - q^3"), (1, "-2"), (0, "-2")],
    ]


def pivots_are_the_interned_one(ech, ell) -> bool:
    """Each stored row holds the field's one object at its pivot, so the
    products Echelon.reduce makes with it skip their arithmetic."""
    one = CycRat.one(ell)
    return all(row[pivot] is one for pivot, row in ech.rows.items())


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_stored_pivots_are_the_interned_one(data):
    ell, cols = data
    ker, ech = ColumnKernel(ell), Echelon()
    for col in cols:
        ker.add(col)
        ech.add(col)
    assert pivots_are_the_interned_one(ker.ech, ell)
    assert pivots_are_the_interned_one(ech, ell)


def test_construct_kernel_pivots_are_the_interned_one(monkeypatch):
    # and each kernel vector step 2 reads is still the unique one with top
    # entry 1 over the pivot columns before it
    import qsl2.subgroups
    from qsl2.subgroups import GroupSpec, SubgroupDatum, construct_quotient

    kernels = []

    class Recording(ColumnKernel):
        def __init__(self, ell):
            super().__init__(ell)
            self.ell, self.cols, self.vecs = ell, [], []
            kernels.append(self)

        def add(self, col):
            self.cols.append(col)
            vec = super().add(col)
            if vec is not None:
                self.vecs.append(vec)
            return vec

    monkeypatch.setattr(qsl2.subgroups, "ColumnKernel", Recording)
    construct_quotient(SubgroupDatum(parity="even", ell=4, I_plus=(1,),
                                     I_minus=(1,),
                                     gamma=GroupSpec("cyclic", n=3)))
    assert kernels and all(ker.ech.rows and ker.vecs for ker in kernels)
    for ker in kernels:
        assert pivots_are_the_interned_one(ker.ech, ker.ell)
        for vec in ker.vecs:
            assert vec[max(vec)].is_one()
            assert combine(ker.cols, vec, ker.ell) == {}


@pytest.mark.parametrize("n", [3, 5, 6])
def test_span_closure_roots_of_unity_reach_full_dimension(n):
    # the character k -> q^k of Z/n and its powers: a Vandermonde system
    chi = [CycRat.q_power(n, k) for k in range(n)]

    def successors(values):
        yield [a * b for a, b in zip(values, chi)]

    def vector(values):
        return {i: x for i, x in enumerate(values) if not x.is_zero()}

    ech = span_closure([CycRat.one(n)] * n, successors, vector)
    assert ech.dim == n


def test_span_closure_degree_cap():
    n, cap = 6, 2
    chi = [CycRat.q_power(n, k) for k in range(n)]

    def successors(item):
        values, degree = item
        if degree < cap:
            yield [a * b for a, b in zip(values, chi)], degree + 1

    def vector(item):
        return dict(enumerate(item[0]))

    ech = span_closure(([CycRat.one(n)] * n, 0), successors, vector)
    assert ech.dim == cap + 1 < n
