"""Vector lex orderings of Z^n and the matrix action on them.

An ordering of Z^n is given by a flag of vectors u_1, ..., u_k with entries
in a real quadratic field: v is positive when the first nonzero inner product
<v, u_i> is positive.  The flag is total when no nonzero integer vector is
orthogonal to every u_i; that is an exact rank condition on the stacked
rational parts, checked at construction.

A matrix M in GL_n(Z) acts on Z^n by v -> v M (row convention) and pushes an
ordering forward so that the new sign of v is the old sign of v M^-1; on
flags that means replacing each u by M^-1 u (column convention).  In
particular M preserves the ordering of a one-vector flag u exactly when u is
an eigenvector of M with positive eigenvalue.

Equality of flag orderings is decided exactly by `FormFlag.canonical`, a
normal form built from the chain of convex subgroups (Robbiano, Sikora), so
`preserves`, `vlo_equal` and `comm_acts_trivially` give exact verdicts.
A vector witnessing a difference is exact too: `disagreement_vector` walks
a plane inside the first convex subgroup where the forms differ, with no
radius.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import Group, GroupAutomorphism, SignOracle
from .quadfield import QuadRat, UnsupportedFieldError, _square_free_part


class TotalityError(ValueError):
    """The flag fails totality: some nonzero lattice vector is orthogonal
    to every flag vector, so the sign map is not defined everywhere."""


def vector_ray(v) -> tuple:
    """v divided by the absolute value of its first nonzero entry; entries
    may be ints or Fractions.  Two nonzero vectors have positive multiples
    in common exactly when their rays are equal."""
    lead = next((abs(c) for c in v if c), None)
    if lead is None:
        return tuple(v)
    return tuple(Fraction(c) / lead for c in v)


class LatticeGroup(Group):
    """Z^n with elements as integer tuples; the unit vectors generate, so
    balls are l1 balls."""

    def __init__(self, rank: int):
        super().__init__()
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.rank = rank
        self.name = f"Z^{rank}"
        self.generators = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))

    @property
    def identity(self):
        return (0,) * self.rank

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def invert(self, g):
        return tuple(-a for a in g)

    @staticmethod
    def sort_key(g):
        """The l1 length, then the word e_i^c in index order read as
        letters: a lower index first, then a positive entry, then a larger
        |c|.  One triple per nonzero entry, whatever its size."""
        return (sum(map(abs, g)), tuple((i, c < 0, -abs(c)) for i, c in enumerate(g) if c))

    def label(self, g):
        return "(" + ",".join(str(c) for c in g) + ")"

    ray = staticmethod(vector_ray)


# each group keeps its own balls, so only the most recent are kept
@functools.lru_cache(maxsize=16)
def lattice_group(rank: int) -> LatticeGroup:
    return LatticeGroup(rank)


# matrices are tuples of row tuples with int or Fraction entries

def mat_from_rows(rows) -> tuple:
    mat = tuple(tuple(Fraction(x) for x in row) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("matrix must be square and nonempty")
    return mat


def mat_mul(a, b) -> tuple:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


def row_times_mat(v, m) -> tuple:
    n = len(m)
    return tuple(sum(v[i] * m[i][j] for i in range(n)) for j in range(n))


def mat_times_col(m, u) -> tuple:
    n = len(m)
    return tuple(sum(m[i][j] * u[j] for j in range(n)) for i in range(n))


def row_reduce(rows) -> tuple[tuple, tuple, Fraction]:
    """Gauss-Jordan elimination of rational rows.

    Returns the nonzero rows of the reduced row echelon form, their pivot
    columns, and the product of the pivots signed by the row swaps.  For a
    square matrix of full rank that product is the determinant.
    """
    work = [list(map(Fraction, row)) for row in rows]
    width = len(work[0]) if work else 0
    pivots = []
    factor = Fraction(1)
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            factor = -factor
        lead = work[r][col]
        factor *= lead
        work[r] = [x / lead for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[col]:
                c = row[col]
                work[i] = [x - c * y for x, y in zip(row, work[r])]
        pivots.append(col)
        if len(pivots) == len(work):
            break
    return tuple(map(tuple, work[:len(pivots)])), tuple(pivots), factor


def mat_inverse(m) -> tuple:
    n = len(m)
    rref, pivots, _ = row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in rref)


def mat_det(m) -> Fraction:
    _, pivots, factor = row_reduce(m)
    return factor if len(pivots) == len(m) else Fraction(0)


def rational_rank(rows) -> int:
    """Row rank of a list of rational row vectors."""
    return len(row_reduce(rows)[1])


def _integer_row(u) -> tuple[tuple, tuple]:
    """u as integer rows (A, B) with D u = A + sqrt(d) B for some D > 0; a
    positive factor leaves every sign and every zero set alone."""
    den = math.lcm(*(x.a.denominator for x in u), *(x.b.denominator for x in u))
    return (tuple(x.a.numerator * (den // x.a.denominator) for x in u),
            tuple(x.b.numerator * (den // x.b.denominator) for x in u))


def _pair(row, v) -> tuple[int, int]:
    """<v, A + sqrt(d) B> for an integer vector v, as the pair (A.v, B.v)."""
    a_row, b_row = row
    return sum(map(operator.mul, v, a_row)), sum(map(operator.mul, v, b_row))


@dataclass(frozen=True)
class FormFlag:
    """An ordered flag of Q(sqrt d) vectors defining a lex sign map."""

    vectors: tuple
    d: int = 2

    @classmethod
    def of(cls, vectors, d: int = 2) -> "FormFlag":
        coerced = tuple(
            tuple(x if isinstance(x, QuadRat) else QuadRat.of(x, 0, d) for x in vec)
            for vec in vectors)
        if not coerced or not coerced[0]:
            raise ValueError("flag needs at least one nonzero vector")
        if any(len(vec) != len(coerced[0]) for vec in coerced):
            raise ValueError("flag vectors have different ranks")
        for vec in coerced:
            for x in vec:
                if x.d != d:
                    raise UnsupportedFieldError(f"entry {x} lives in Q(sqrt {x.d}), not Q(sqrt {d})")
        return cls(coerced, d)

    @property
    def rank(self) -> int:
        return len(self.vectors[0])

    @functools.cached_property
    def _integer_rows(self) -> tuple:
        return tuple(map(_integer_row, self.vectors))

    def form_sign(self, v) -> int:
        """Sign of the first nonzero <v, u_i>; 0 only when all vanish.

        v has int or Fraction entries.  Its denominators are cleared first,
        so each <v, u_i> is an integer pair (A, B) standing for A + B sqrt(d),
        signed exactly by comparing A^2 with d B^2 when A and B disagree.
        """
        if len(v) != self.rank:
            raise ValueError(f"vector has rank {len(v)}, flag has rank {self.rank}")
        if all(type(c) is int for c in v):
            w = v
        else:
            den = math.lcm(*(c.denominator for c in v))
            w = [c.numerator * (den // c.denominator) for c in v]
        for a_row, b_row in self._integer_rows:
            a = sum(map(operator.mul, w, a_row))
            b = sum(map(operator.mul, w, b_row))
            if b == 0:
                if a:
                    return 1 if a > 0 else -1
            elif a == 0 or (a > 0) == (b > 0):
                return 1 if b > 0 else -1
            elif a * a > self.d * b * b:
                return 1 if a > 0 else -1
            else:
                return 1 if b > 0 else -1
        return 0

    def is_total(self) -> bool:
        """Exact: no nonzero rational vector is orthogonal to the flag.

        <v, u> vanishes iff both the rational part and the sqrt-d part of the
        inner product vanish, so totality is a full-rank condition on the
        stacked parts.
        """
        rows = []
        for u in self.vectors:
            rows.append([x.a for x in u])
            rows.append([x.b for x in u])
        return rational_rank(rows) == self.rank

    @functools.cached_property
    def canonical(self) -> tuple:
        """A normal form of the sign map: two flags over the same field
        define the same sign map exactly when their forms are equal.

        Step i signs only the vectors of W_i, where every earlier u_j
        vanishes: the common kernel of their rational and sqrt-d parts (the
        convex subgroups of the ordering).  On W_i, u_i counts only modulo
        the span of those parts, and reducing it on the pivot columns of
        their RREF leaves a unique residue.  Vanishing residues sign nothing
        and drop out; the others are scaled so that their first nonzero entry
        is +-1, which removes the positive field factor.
        """
        form = []
        parts = []
        for u in self.vectors:
            rref, pivots, _ = row_reduce(parts)
            residue = u
            for row, col in zip(rref, pivots):
                c = u[col]
                residue = tuple(x - c * y for x, y in zip(residue, row))
            lead = next((x for x in residue if x.sign()), None)
            if lead is not None:
                scale = lead if lead.sign() > 0 else -lead
                form.append(tuple(x / scale for x in residue))
            parts.append([x.a for x in u])
            parts.append([x.b for x in u])
        return tuple(form)

    def negated(self) -> "FormFlag":
        return FormFlag(tuple(tuple(-x for x in u) for u in self.vectors), self.d)

    def descriptor(self) -> str:
        body = ";".join("(" + ",".join(str(x) for x in u) + ")" for u in self.vectors)
        return f"flag[{body}]"

    def ordering(self, group: LatticeGroup) -> SignOracle:
        if group.rank != self.rank:
            raise ValueError(f"flag has rank {self.rank}, group is {group.name}")
        if not self.is_total():
            raise TotalityError(f"{self.descriptor()} is not total on {group.name}")
        return SignOracle(group=group, fn=self.form_sign, descriptor=self.descriptor())


def flag_ordering(group: LatticeGroup, vectors, d: int = 2) -> SignOracle:
    return FormFlag.of(vectors, d).ordering(group)


def matrix_automorphism(group: LatticeGroup, rows) -> GroupAutomorphism:
    """The automorphism v -> v M for M in GL_n(Z)."""
    m = mat_from_rows(rows)
    if len(m) != group.rank:
        raise ValueError(f"matrix is {len(m)}x{len(m)}, group is {group.name}")
    if any(x.denominator != 1 for row in m for x in row):
        raise ValueError("matrix must have integer entries")
    if abs(mat_det(m)) != 1:
        raise ValueError("matrix is not invertible over the integers")
    minv = mat_inverse(m)
    fwd = lambda v: tuple(int(x) for x in row_times_mat(v, m))
    bwd = lambda v: tuple(int(x) for x in row_times_mat(v, minv))
    body = ";".join("(" + ",".join(str(int(x)) for x in row) + ")" for row in m)
    return GroupAutomorphism(group=group, forward=fwd, backward=bwd,
                             descriptor=f"mat[{body}]")


def matrix_pushforward(rows, flag: FormFlag) -> FormFlag:
    """The flag of the pushforward ordering under v -> v M.

    The new sign of v is the old sign of v M^-1, and <v M^-1, u> = <v, M^-1 u>,
    so each flag vector u is replaced by M^-1 u.
    """
    m = mat_from_rows(rows)
    if len(m) != flag.rank:
        raise ValueError("matrix and flag ranks differ")
    minv = mat_inverse(m)
    return FormFlag(tuple(mat_times_col(minv, u) for u in flag.vectors), flag.d)


def preserves(rows, flag: FormFlag) -> bool:
    """Exact: does v -> v M carry the flag ordering to itself?"""
    return matrix_pushforward(rows, flag).canonical == flag.canonical


def _sublattice_basis(basis, rank: int):
    if basis is None:
        return None
    b = mat_from_rows(basis)
    if len(b) != rank:
        raise ValueError("sublattice basis has the wrong rank")
    if any(x.denominator != 1 for row in b for x in row):
        raise ValueError("sublattice basis must be integral")
    if mat_det(b) == 0:
        raise ValueError("sublattice basis is singular (index-zero sublattice)")
    return b


def _primitive(v) -> tuple:
    """The primitive integer vector on the ray of a nonzero rational vector."""
    den = math.lcm(*(c.denominator for c in v))
    w = [int(c * den) for c in v]
    g = math.gcd(*w)
    return tuple(c // g for c in w)


def _kernel_basis(rows, rank: int) -> list:
    """Primitive integer vectors spanning the common kernel of rational
    rows, one per free column of their RREF: the unit basis when there are
    no rows."""
    rref, pivots, _ = row_reduce(rows)
    basis = []
    for free in range(rank):
        if free not in pivots:
            v = [int(i == free) for i in range(rank)]
            for row, col in zip(rref, pivots):
                v[col] = -row[free]
            basis.append(_primitive(v))
    return basis


def _floor(x: QuadRat) -> int:
    """floor(a + b sqrt d), exactly: with x = (A + B sqrt d) / D, |B| sqrt d
    lies strictly between isqrt(B^2 d) and the next integer when B != 0."""
    den = math.lcm(x.a.denominator, x.b.denominator)
    a = x.a.numerator * (den // x.a.denominator)
    b = x.b.numerator * (den // x.b.denominator)
    root = math.isqrt(b * b * x.d)
    return (a + root) // den if b >= 0 else (a - root - 1) // den


def _simplest_between(lo: QuadRat, hi: QuadRat | None) -> tuple[int, int]:
    """(p, q) with q/p the simplest fraction strictly between lo >= 0 and
    hi > lo (None for infinity): the least p and the least q of any
    fraction there.  A Stern-Brocot walk that takes each run of equal
    turns at once by an exact floor, so its continued fraction is found
    in a loop, not a recursion (Graham, Knuth and Patashnik, Concrete
    Mathematics, 4.5)."""
    terms = []
    while True:
        n = _floor(lo)
        if hi is None or (hi - (n + 1)).sign() > 0:
            terms.append(n + 1)
            break
        # lo and hi lie in [n, n + 1]: go on with the reciprocals of the
        # fractional parts, which swaps the ends
        terms.append(n)
        lo, hi = 1 / (hi - n), (None if lo == n else 1 / (lo - n))
    q, p = terms.pop(), 1
    for t in reversed(terms):
        q, p = t * q + p, q
    return p, q


def _positive_multiples(x, y) -> bool:
    """Are the nonzero field pairs x, y positive multiples of each other?"""
    return ((x[0] * y[1] - x[1] * y[0]).sign() == 0
            and (x[0].sign(), x[1].sign()) == (y[0].sign(), y[1].sign()))


def _plane_witness(f1: FormFlag, f2: FormFlag, lines, b1, b2) -> tuple:
    """The first vector by sort_key on which f1 and f2 differ, among a
    finite set of candidates p b1 + q b2 that meets every region of the
    plane where both signs are constant.

    lines holds, for each step-k functional the flags sign the plane by,
    its values on b1 and b2 as integer pairs (a, r) for a + r sqrt d, up to
    a positive factor.  Off their zero lines both signs are constant on
    each open sector, and both are odd, so the half-plane p > 0 holds a
    representative of every region: the quadrants q > 0 and q < 0, cut
    into open slope intervals by the zero lines, the rational zero lines
    themselves, and the axes b1 and b2.  Each interval contributes its
    simplest fraction, which has the least p and q there; each rational
    line its primitive vector.
    """
    d = f1.d
    zeros = []
    for (a1, r1), (a2, r2) in lines:
        # the zero line (a1 + r1 sqrt d) p + (a2 + r2 sqrt d) q = 0 has
        # slope q/p = -(a1 + r1 sqrt d)(a2 - r2 sqrt d) / (a2^2 - d r2^2)
        if a2 or r2:
            n = a2 * a2 - d * r2 * r2
            zeros.append(QuadRat(Fraction(d * r1 * r2 - a1 * a2, n),
                                 Fraction(a1 * r2 - r1 * a2, n), d))
    slopes = []
    for s in (1, -1):
        cuts = sorted({s * c for c in zeros if c.sign() == s})
        slopes += [(s, c.a.denominator, c.a.numerator) for c in cuts if c.b == 0]
        ends = [QuadRat.of(0, 0, d)] + cuts + [None]
        slopes += [(s, *_simplest_between(lo, hi)) for lo, hi in zip(ends, ends[1:])]
    candidates = [b1, b2] + [tuple(p * x + s * q * y for x, y in zip(b1, b2))
                             for s, p, q in slopes]
    return min((w for v in candidates if f1.form_sign(v) != f2.form_sign(v)
                for w in (v, tuple(-c for c in v))), key=LatticeGroup.sort_key)


def disagreement_vector(f1: FormFlag, f2: FormFlag) -> tuple | None:
    """An integer vector on which the two flag signs differ, or None when
    the canonical forms are equal; exact in any rank, with no radius.

    Let k be the first step where the canonical forms differ (or the
    shorter length).  On W, the common kernel of the steps before k, f1
    signs by its step-k functional alpha and f2 by beta, which are not
    positive multiples there; off W the flags agree.  A line W gives +-b,
    the first by sort_key.  Otherwise a plane (b_i, b_j) of W's basis is
    walked by `_plane_witness`: alpha(b_i) != 0, and on the plane beta is
    nonzero and not a positive multiple of alpha, which some j gives since
    beta is not one on W.  On Z^2 the result is the first disagreement in
    ball order.
    """
    if f1.rank != f2.rank:
        raise ValueError("flags have different ranks")
    if f1.d != f2.d:
        raise UnsupportedFieldError(f"flags live in Q(sqrt {f1.d}) and Q(sqrt {f2.d})")
    form1, form2 = f1.canonical, f2.canonical
    if form1 == form2:
        return None
    k = next((i for i, (x, y) in enumerate(zip(form1, form2)) if x != y),
             min(len(form1), len(form2)))
    parts = [[x.a for x in u] for u in form1[:k]] + [[x.b for x in u] for u in form1[:k]]
    basis = _kernel_basis(parts, f1.rank)
    if len(basis) == 1:
        b = basis[0]
        return min(b, tuple(-c for c in b), key=LatticeGroup.sort_key)
    if k == len(form1):
        f1, f2, form1, form2 = f2, f1, form2, form1
    values = [[_pair(_integer_row(form[k]), b) for b in basis]
              for form in (form1, form2) if k < len(form)]
    i = next(i for i, x in enumerate(values[0]) if any(x))
    if len(values) == 1:
        return basis[i]
    a, c = ([QuadRat.of(*x, f1.d) for x in row] for row in values)
    j = next(j for j in range(len(basis)) if j != i and (c[i].sign() or c[j].sign())
             and not _positive_multiples((a[i], a[j]), (c[i], c[j])))
    return _plane_witness(f1, f2, [(row[i], row[j]) for row in values], basis[i], basis[j])


def vlo_equal(f1: FormFlag, f2: FormFlag, basis1=None,
              basis2=None) -> tuple[bool, tuple | None]:
    """Do two flag orderings, carried by finite-index sublattices, agree
    as germs on the common sublattice?

    Each basis is an integer row matrix spanning the carrying sublattice;
    None means the full lattice.  Flag signs are homogeneous, so agreeing
    on a finite-index sublattice is agreeing everywhere, and the verdict is
    exact: the canonical forms are compared.  On a difference the witness
    is `disagreement_vector` scaled by the least positive integer that
    puts it in both sublattices, so it is never None.
    """
    v = disagreement_vector(f1, f2)
    inverses = [mat_inverse(b) for b in (_sublattice_basis(basis1, f1.rank),
                                         _sublattice_basis(basis2, f1.rank))
                if b is not None]
    if v is None:
        return (True, None)
    n = math.lcm(*(x.denominator for inv in inverses for x in row_times_mat(v, inv)))
    return (False, tuple(n * c for c in v))


ALL_ORDERINGS = "all"
FIELD_HINT_LIMIT = 10**9


def eigen_orderings(rows, d: int = 2):
    """The one-vector flags preserved by v -> v M, for 2x2 integer M.

    Flags come from column eigenvectors with positive eigenvalue, normalized
    so the last nonzero coordinate is 1, each paired with its negation.
    A positive scalar matrix preserves every ordering and returns the marker
    string "all"; a negative scalar preserves none and returns [].
    """
    m = mat_from_rows(rows)
    n = len(m)
    if all(m[i][j] == 0 for i in range(n) for j in range(n) if i != j) and \
            len({m[i][i] for i in range(n)}) == 1:
        return ALL_ORDERINGS if m[0][0] > 0 else []
    if n != 2:
        raise ValueError("eigen orderings are implemented for 2x2 matrices")
    trace = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    disc = trace * trace - 4 * det
    if disc <= 0:
        return []
    if disc.denominator != 1:
        raise ValueError("matrix must have integer entries")
    disc = int(disc)
    if math.isqrt(disc) ** 2 == disc:
        raise UnsupportedFieldError(
            "eigenvalues are rational; no irrational one-vector flag is preserved")
    # disc = d root^2 exactly when the eigenvalues lie in Q(sqrt d)
    root = math.isqrt(disc // d)
    if disc != d * root * root:
        # naming the field takes trial division up to sqrt(disc)
        if disc > FIELD_HINT_LIMIT:
            raise UnsupportedFieldError(f"eigenvalues lie outside Q(sqrt {d})")
        part = _square_free_part(disc)
        raise UnsupportedFieldError(
            f"eigenvalues live in Q(sqrt {part}); construct the flag with d={part}")
    flags = []
    for sign in (1, -1):
        lam = QuadRat(Fraction(trace, 2), Fraction(sign * root, 2), d)
        if lam.sign() <= 0:
            continue
        u = _eigenvector(m, lam, d)
        flags.append(FormFlag.of([u], d))
        flags.append(FormFlag.of([tuple(-x for x in u)], d))
    return flags


def _eigenvector(m, lam: QuadRat, d: int) -> tuple:
    """A nonzero column eigenvector of 2x2 m for eigenvalue lam, with the
    last nonzero coordinate normalized to 1."""
    a, b = m[0][0], m[0][1]
    c, dd = m[1][0], m[1][1]
    one = QuadRat.of(1, 0, d)
    if b != 0:
        u = (b * one, lam - a)
    elif c != 0:
        u = (lam - dd, c * one)
    else:
        u = (one, QuadRat.of(0, 0, d)) if (lam - a).sign() == 0 else (QuadRat.of(0, 0, d), one)
    last = next(x for x in reversed(u) if x.sign() != 0)
    return tuple(x / last for x in u)


def is_scalar_star(rows) -> tuple[Fraction | None, tuple | None]:
    """The ratio p/q if M is a positive scalar matrix, else (None, witness).

    Positive scalars are exactly the matrices whose action v -> v M keeps
    every element on its own ray with a positive factor, the lattice form
    of the power-agreement property.  The probes e_1, ..., e_n and then the
    all-ones vector decide it: e_j stays on its ray exactly when row j of M
    is c e_j with c > 0, and the all-ones vector then stays on its ray
    exactly when those c agree.  The witness is the first probe carried off
    its ray.
    """
    m = mat_from_rows(rows)
    n = len(m)
    for j, row in enumerate(m):
        if row[j] <= 0 or any(x for i, x in enumerate(row) if i != j):
            return (None, tuple(int(i == j) for i in range(n)))
    if len({m[j][j] for j in range(n)}) > 1:
        return (None, (1,) * n)
    return (m[0][0], None)


def probe_flags(n: int, d: int = 2) -> list[FormFlag]:
    """Standard test flags: both lex flags, plus the slope +-sqrt(d) lines
    when the rank is two."""
    basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    flags = [FormFlag.of(basis, d), FormFlag.of(list(reversed(basis)), d)]
    if n == 2:
        root = QuadRat.root(d)
        one = QuadRat.of(1, 0, d)
        flags.append(FormFlag.of([(root, one)], d))
        flags.append(FormFlag.of([(-root, one)], d))
    return flags


def comm_acts_trivially(rows, d: int = 2) -> tuple[bool, FormFlag | None]:
    """Does the commensuration v -> v M act trivially on every vector
    lex ordering of every finite-index sublattice?

    True exactly for positive scalar matrices: those restrict to
    multiplication by p/q between finite-index sublattices and keep every
    sign map where it is.  Flag signs are homogeneous, so acting trivially
    on a sublattice ordering is preserving the flag, which is decided
    exactly.  The first moved probe flag is returned as witness.
    """
    n = len(rows)
    probes = probe_flags(n, d)
    probes.append(FormFlag.of([(1,) * n] + [tuple(int(i == j) for i in range(n))
                                            for j in range(n)], d))
    # Lex and reverse lex are both preserved only by a positive diagonal,
    # and the all-ones flag then only by equal entries: a non-scalar always
    # moves some probe.
    for flag in probes:
        if not preserves(rows, flag):
            return (False, flag)
    return (True, None)
