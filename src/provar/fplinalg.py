"""Exact linear algebra over the prime field F_p.

Matrices are lists of row lists with entries reduced mod p and act on
column vectors, so the matrix of a composition of linear maps is the
product of their matrices in the same order.  Diagonalization only ever
has to handle matrices whose order divides p - 1: such matrices split
completely over F_p, and a direct scan of the p - 1 candidate
eigenvalues is both complete and exact.  A commuting family shares one
eigenbasis, ordered by the tuple of its eigenvalues, one per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDiagonalizableError
from .numtheory import require_prime

Matrix = list[list[int]]
Vector = list[int]


def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_reduce(m: Matrix, p: int) -> Matrix:
    return [[x % p for x in row] for row in m]


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    n, k, cols = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("dimension mismatch")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def mat_vec(a: Matrix, v: Vector, p: int) -> Vector:
    return [sum(x * y for x, y in zip(row, v)) % p for row in a]


def mat_pow(a: Matrix, k: int, p: int) -> Matrix:
    if k < 0:
        return mat_pow(mat_inv(a, p), -k, p)
    out = mat_identity(len(a))
    base = mat_reduce(a, p)
    while k:
        if k & 1:
            out = mat_mul(out, base, p)
        base = mat_mul(base, base, p)
        k >>= 1
    return out


def rref(m: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form over F_p and its pivot columns."""
    if len(m) <= 1:
        # nothing to eliminate: the one row, if any, scaled at its first
        # nonzero entry
        if not m:
            return [], []
        row = [x % p for x in m[0]]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            return [row], []
        inv = pow(row[c], -1, p)
        return [[x * inv % p for x in row]], [c]
    m = mat_reduce(m, p)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [(x - factor * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def mat_rank(m: Matrix, p: int) -> int:
    return len(rref(m, p)[1])


def mat_inv(m: Matrix, p: int) -> Matrix:
    n = len(m)
    aug = [row[:] + ident_row for row, ident_row in zip(mat_reduce(m, p), mat_identity(n))]
    reduced, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def kernel_basis(m: Matrix, p: int) -> list[Vector]:
    """Basis of {v : m v = 0}, from the free columns of the RREF."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    reduced, pivots = rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-reduced[r][fc]) % p
        basis.append(v)
    return basis


def _columns(m: Matrix) -> list[Vector]:
    return [list(col) for col in zip(*m)]


def _from_columns(cols: list[Vector]) -> Matrix:
    return [list(row) for row in zip(*cols)]


def _check_order_divides(m: Matrix, p: int) -> None:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if mat_rank(m, p) != n:
        raise NotDiagonalizableError("matrix is singular mod p")
    if mat_pow(m, p - 1, p) != mat_identity(n):
        raise NotDiagonalizableError("matrix order does not divide p - 1")


def diagonalize(m: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Invertible P and eigenvalues with P^-1 m P = diag(eigenvalues).

    Requires m invertible with m^(p-1) = 1; then all eigenvalues lie in
    F_p^* and eigenvectors of distinct eigenvalues span the space.
    Eigenvalues are reported in ascending order, repeated by multiplicity.
    This is ``simultaneous_diagonalize`` on the family of m alone.
    """
    pmat, (eigenvalues,) = simultaneous_diagonalize([m], p)
    return pmat, eigenvalues


def simultaneous_diagonalize(ms: list[Matrix], p: int) -> tuple[Matrix, list[list[int]]]:
    """One P diagonalizing every matrix of a commuting family.

    Works by refining common invariant subspaces: split the space along
    the first matrix's eigenspaces, then split each piece along the next
    matrix's eigenspaces restricted to it, and so on.  A piece with basis
    columns B splits along the kernels of (m - lam) B = B (R - lam), R
    the restriction, with no need to form R: B has independent columns,
    so both matrices share one RREF and one kernel basis.  Every piece is
    a block of common eigenvectors with one eigenvalue per matrix, and
    each split lists its pieces by ascending eigenvalue, so the columns
    of P come in lexicographic order of their tuples of eigenvalues.
    """
    require_prime(p, "p")
    if not ms:
        raise ValueError("need at least one matrix")
    n = len(ms[0])
    ms = [mat_reduce(m, p) for m in ms]
    for m in ms:
        _check_order_divides(m, p)
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if mat_mul(a, b, p) != mat_mul(b, a, p):
                raise ValueError("matrices do not commute")

    blocks: list[list[Vector]] = [_columns(mat_identity(n))]
    for m in ms:
        refined: list[list[Vector]] = []
        for basis in blocks:
            bmat = _from_columns(basis)
            images = mat_mul(m, bmat, p)
            k = len(basis)
            found = 0
            for lam in range(1, p):
                shifted = [[(x - lam * y) % p for x, y in zip(row, brow)]
                           for row, brow in zip(images, bmat)]
                piece = [mat_vec(bmat, coords, p) for coords in kernel_basis(shifted, p)]
                if piece:
                    refined.append(piece)
                    found += len(piece)
                if found == k:
                    break
            if found != k:  # pragma: no cover - excluded by the order check
                raise NotDiagonalizableError("restriction does not split")
        blocks = refined
    columns = [v for block in blocks for v in block]
    pmat = _from_columns(columns)
    pinv = mat_inv(pmat, p)
    eigenlists = []
    for m in ms:
        d = mat_mul(mat_mul(pinv, m, p), pmat, p)
        if any(i != j and d[i][j] for i in range(n) for j in range(n)):
            raise AssertionError("conjugate is not diagonal")  # pragma: no cover
        eigenlists.append([d[i][i] for i in range(n)])
    return pmat, eigenlists


@dataclass(frozen=True)
class ApdPresentation:
    """Canonical presentation data for a group in Ab(p)*Ab(d).

    Generators x_1..x_n of order p commute; generators y_1..y_m commute,
    y_j has order dividing orders[j]; conjugation acts diagonally:
    y_j x_i y_j^-1 = x_i^exponents[i][j].
    """

    p: int
    d: int
    n: int
    m: int
    orders: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        require_prime(self.p, "p")
        if self.d <= 1 or (self.p - 1) % self.d:
            raise ValueError("d must be a divisor of p - 1 greater than 1")
        if len(self.orders) != self.m:
            raise ValueError("need one order per y-generator")
        for dj in self.orders:
            if dj <= 1 or self.d % dj:
                raise ValueError(f"order {dj} must divide d = {self.d} and exceed 1")
        if len(self.exponents) != self.n or any(len(row) != self.m for row in self.exponents):
            raise ValueError("exponent matrix must be n x m")
        for row in self.exponents:
            for j, q in enumerate(row):
                if not 1 <= q <= self.p - 1:
                    raise ValueError(f"exponent {q} out of range")
                if pow(q, self.orders[j], self.p) != 1:
                    raise ValueError(
                        f"exponent {q} does not satisfy q^{self.orders[j]} = 1 mod {self.p}"
                    )

    @property
    def group_order(self) -> int:
        order = self.p**self.n
        for dj in self.orders:
            order *= dj
        return order


def action_to_presentation(ms: list[Matrix], orders: list[int], p: int, d: int) -> ApdPresentation:
    """Read the canonical presentation off a simultaneously diagonalized action.

    ``ms[j]`` is the matrix of the j-th commuting generator acting on
    F_p^n and must satisfy ms[j]^orders[j] = 1 with orders[j] dividing d.
    """
    if len(ms) != len(orders):
        raise ValueError("need one order per matrix")
    n = len(ms[0]) if ms else 0
    for m, dj in zip(ms, orders):
        if mat_pow(m, dj, p) != mat_identity(len(m)):
            raise ValueError(f"matrix does not have order dividing {dj}")
    _, eigenlists = simultaneous_diagonalize(ms, p)
    exponents = tuple(
        tuple(eigenlists[j][i] for j in range(len(ms))) for i in range(n)
    )
    return ApdPresentation(
        p=p, d=d, n=n, m=len(ms), orders=tuple(orders), exponents=exponents
    )
