"""Exact sparse linear algebra over Q(q).

Vectors are dicts keyed by any orderable hashable (words, index pairs),
with no stored zero entries; everything is exact CycRat arithmetic.  This
module is the one home of that arithmetic:

* ``addto(terms, key, c)`` adds c to one entry and drops the entry when
  the sum is zero; polynomials, tensors and rewriting accumulate through it.
  ``addto_all(terms, keys, coeffs)`` is the same for parallel iterables of
  keys and coefficients: a tensor's multiplied-out terms, added at once.
* ``Echelon`` keeps pivot-normalized rows; ``ColumnKernel`` runs its
  reduction on columns augmented with their index, one column at a time,
  and ``kernel_of_columns`` feeds it a whole list.
* ``span_closure`` grows an ``Echelon`` breadth-first from a start element
  under a successor function (subalgebra spans, surjectivity certificates).
"""

from __future__ import annotations

from .cyclo import CycRat


def addto(terms: dict, key, c):
    """terms[key] += c, dropping the key when the sum is zero."""
    acc = terms.get(key)
    v = acc + c if acc is not None else c
    if v.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = v


def addto_all(terms: dict, keys, coeffs):
    """addto(terms, key, c) for each key and c of the parallel iterables."""
    get, pop = terms.get, terms.pop
    for key, c in zip(keys, coeffs):
        acc = get(key)
        v = acc + c if acc is not None else c
        if v.is_zero():
            pop(key, None)
        else:
            terms[key] = v


def _normalized(vec: dict):
    """(pivot, vec scaled so that its entry at the largest key is 1, the
    field's interned one, which products with it skip)."""
    pivot = max(vec)
    inv = vec[pivot].inverse()
    row = {k: v * inv for k, v in vec.items()}
    row[pivot] = CycRat.one(inv.ell)
    return pivot, row


class Echelon:
    """Incremental row echelon form for sparse vectors."""

    def __init__(self):
        self.rows: dict = {}  # pivot key -> vector with that pivot, coeff 1

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        while vec:
            pivot = max(vec)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            m = -vec[pivot]
            for k, v in row.items():
                addto(vec, k, m * v)
        return vec

    def add(self, vec: dict) -> bool:
        """Insert the vector; True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        pivot, row = _normalized(res)
        self.rows[pivot] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.rows)


class ColumnKernel:
    """Kernel of the linear map e_i -> col_i, as the columns arrive.

    Column i is reduced as the augmented vector with entries (1, k) from
    the column and (0, i) = 1, so pivots always come from the column part;
    a remainder without column part is a kernel vector.  Its entry at i is
    1, the highest index it has: the rows hold only earlier indices.  So
    the kernel vector of a column is its unique expression over the pivot
    columns before it, whatever columns follow.
    """

    def __init__(self, ell: int):
        self.ech = Echelon()
        self.size = 0               # columns added so far
        self._one = CycRat.one(ell)

    def add(self, col: dict) -> dict | None:
        """Add the next column; the kernel vector it completes, as a sparse
        dict over column indices, or None when it is a pivot column."""
        vec = {(1, k): v for k, v in col.items()}
        vec[(0, self.size)] = self._one
        self.size += 1
        res = self.ech.reduce(vec)
        if max(res)[0]:
            pivot, row = _normalized(res)
            self.ech.rows[pivot] = row
            return None
        return {i: v for (_, i), v in res.items()}


def kernel_of_columns(cols: list[dict], ell: int) -> list[dict]:
    """Kernel of the linear map e_i -> cols[i], as sparse coefficient dicts:
    the ColumnKernel vectors of the columns in order, each with its
    highest-index entry 1."""
    ker = ColumnKernel(ell)
    return [vec for col in cols if (vec := ker.add(col)) is not None]


def span_dim(vecs) -> int:
    ech = Echelon()
    for v in vecs:
        ech.add(v)
    return ech.dim


def span_closure(start, successors, vector) -> Echelon:
    """The span of start and of everything reachable from it, breadth-first.

    successors(x) yields the elements one step from x, in visit order, and
    vector(x) is the sparse vector of x.  An element is kept, and expanded in
    the next generation, only when it enlarges the span; the closure ends
    with the first generation that keeps nothing.
    """
    ech = Echelon()
    ech.add(vector(start))
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in successors(x):
                if ech.add(vector(y)):
                    nxt.append(y)
        frontier = nxt
    return ech
