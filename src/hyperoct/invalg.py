"""Finite-dimensional involutive algebras over exact rings.

An algebra is given by structure constants on a named basis, a unit vector,
an involution matrix and an optional augmentation.  Construction validates
associativity, the unit laws, the anti-homomorphism property of the
involution and the compatibility of the augmentation, all exhaustively on
basis elements; a bad presentation fails loudly.

``adapt_basis_to_augmentation`` rewrites an augmented algebra on the basis
``{unit} + {augmentation-ideal basis}``, which is the basis every
ideal-tensor construction downstream assumes.
"""
from __future__ import annotations

import itertools

from .rings import Ring, QQ, ZZ, xgcd


class AlgebraError(ValueError):
    pass


def _vec(ring, entries):
    return tuple(ring.from_int(e) if isinstance(e, int) else e for e in entries)


class InvolutiveAlgebra:
    """Associative unital algebra with involution, optionally augmented.

    structure[i][j][k] is the coefficient of basis element k in the product
    (basis i) * (basis j).  involution[i] is the image vector of basis i.
    """

    def __init__(self, ring: Ring, basis_names, structure, unit, involution,
                 augmentation=None, name: str = "algebra"):
        self.ring = ring
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        self.structure = tuple(
            tuple(_vec(ring, row) for row in plane) for plane in structure)
        self.unit = _vec(ring, unit)
        self.involution = tuple(_vec(ring, row) for row in involution)
        self.augmentation = None if augmentation is None else _vec(ring, augmentation)
        self.name = name
        self._validate()

    # -- vector arithmetic ---------------------------------------------------

    def zero_vector(self):
        z = self.ring.zero()
        return (z,) * self.dim

    def basis_vector(self, i):
        z, o = self.ring.zero(), self.ring.one()
        return tuple(o if k == i else z for k in range(self.dim))

    def add(self, x, y):
        return tuple(self.ring.add(a, b) for a, b in zip(x, y))

    def scale(self, s, x):
        return tuple(self.ring.mul(s, a) for a in x)

    def multiply(self, x, y):
        """Bilinear extension of the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraError("dimension mismatch")
        ring = self.ring
        out = list(self.zero_vector())
        for i, xi in enumerate(x):
            if ring.is_zero(xi):
                continue
            plane = self.structure[i]
            for j, yj in enumerate(y):
                if ring.is_zero(yj):
                    continue
                coeff = ring.mul(xi, yj)
                for k, c in enumerate(plane[j]):
                    if not ring.is_zero(c):
                        out[k] = ring.add(out[k], ring.mul(coeff, c))
        return tuple(out)

    def involve(self, x):
        """Linear extension of the involution."""
        if len(x) != self.dim:
            raise AlgebraError("dimension mismatch")
        ring = self.ring
        out = list(self.zero_vector())
        for i, xi in enumerate(x):
            if ring.is_zero(xi):
                continue
            for k, c in enumerate(self.involution[i]):
                if not ring.is_zero(c):
                    out[k] = ring.add(out[k], ring.mul(xi, c))
        return tuple(out)

    def eps(self, x):
        if self.augmentation is None:
            raise AlgebraError("algebra has no augmentation")
        ring = self.ring
        acc = ring.zero()
        for xi, ei in zip(x, self.augmentation):
            acc = ring.add(acc, ring.mul(xi, ei))
        return acc

    # -- validation ------------------------------------------------------------

    def _validate(self):
        ring = self.ring
        d = self.dim
        if len(self.unit) != d or len(self.involution) != d:
            raise AlgebraError("unit/involution dimension mismatch")
        if len(self.structure) != d or any(
                len(p) != d or any(len(r) != d for r in p) for p in self.structure):
            raise AlgebraError("structure constants must be a d x d x d array")
        bs = [self.basis_vector(i) for i in range(d)]
        for i, j in itertools.product(range(d), repeat=2):
            for k in range(d):
                lhs = self.multiply(self.multiply(bs[i], bs[j]), bs[k])
                rhs = self.multiply(bs[i], self.multiply(bs[j], bs[k]))
                if lhs != rhs:
                    raise AlgebraError(
                        f"associativity fails on basis triple ({i},{j},{k})")
        for i in range(d):
            if self.multiply(self.unit, bs[i]) != bs[i] or \
                    self.multiply(bs[i], self.unit) != bs[i]:
                raise AlgebraError(f"unit is not neutral on basis element {i}")
        for i in range(d):
            if self.involve(self.involve(bs[i])) != bs[i]:
                raise AlgebraError(f"involution does not square to one on {i}")
        for i, j in itertools.product(range(d), repeat=2):
            lhs = self.involve(self.multiply(bs[i], bs[j]))
            rhs = self.multiply(self.involve(bs[j]), self.involve(bs[i]))
            if lhs != rhs:
                raise AlgebraError(
                    f"involution is not an anti-homomorphism on ({i},{j})")
        if self.augmentation is not None:
            if not self.eps(self.unit) == ring.one():
                raise AlgebraError("augmentation must send the unit to one")
            for i, j in itertools.product(range(d), repeat=2):
                if self.eps(self.multiply(bs[i], bs[j])) != \
                        ring.mul(self.eps(bs[i]), self.eps(bs[j])):
                    raise AlgebraError(
                        f"augmentation is not multiplicative on ({i},{j})")
            for i in range(d):
                if self.eps(self.involve(bs[i])) != self.eps(bs[i]):
                    raise AlgebraError(
                        "augmentation does not descend through the involution")

    # -- adapted presentation ---------------------------------------------------

    def is_adapted(self) -> bool:
        """Basis 0 is the unit and the augmentation is its dual functional."""
        if self.augmentation is None:
            return False
        ring = self.ring
        if self.unit != self.basis_vector(0):
            return False
        want = [ring.one()] + [ring.zero()] * (self.dim - 1)
        return list(self.augmentation) == want

    def __repr__(self):
        return f"InvolutiveAlgebra({self.name}, dim={self.dim}, ring={self.ring.name})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def group_algebra(elements, table, ring: Ring, name=None) -> InvolutiveAlgebra:
    """Group algebra with involution g -> g^{-1} and the sum-of-coefficients
    augmentation.  ``table[i][j]`` is the index of elements[i] * elements[j];
    the table is checked to be a group table."""
    n = len(elements)
    if len(table) != n or any(len(r) != n for r in table):
        raise AlgebraError("multiplication table must be square")
    if any(not 0 <= v < n for r in table for v in r):
        raise AlgebraError("table entry out of range")
    ident = None
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            ident = e
            break
    if ident is None:
        raise AlgebraError("table has no identity element")
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise AlgebraError(f"table is not associative at ({i},{j},{k})")
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == ident and table[j][i] == ident:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise AlgebraError(f"element {i} has no inverse")
    one, zero = ring.one(), ring.zero()
    structure = [[[one if table[i][j] == k else zero for k in range(n)]
                  for j in range(n)] for i in range(n)]
    unit = [one if k == ident else zero for k in range(n)]
    involution = [[one if inverse[i] == k else zero for k in range(n)]
                  for i in range(n)]
    augmentation = [one] * n
    return InvolutiveAlgebra(ring, elements, structure, unit, involution,
                             augmentation, name=name or "group_algebra")


def ground_ring_algebra(ring: Ring) -> InvolutiveAlgebra:
    """The ground ring as a rank-one algebra with trivial involution."""
    one = ring.one()
    return InvolutiveAlgebra(ring, ("1",), (((one,),),), (one,), ((one,),),
                             (one,), name="ground")


def cyclic_group_algebra(n: int, ring: Ring) -> InvolutiveAlgebra:
    if n < 1:
        raise AlgebraError("cyclic group order must be positive")
    names = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_algebra(names, table, ring, name=f"C{n}")


def klein_four_algebra(ring: Ring) -> InvolutiveAlgebra:
    # C2 x C2 via bitwise xor
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return group_algebra(("e", "a", "b", "c"), table, ring, name="Klein4")


def symmetric_group_algebra(n: int, ring: Ring) -> InvolutiveAlgebra:
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms]
             for p in perms]
    names = ["".join(map(str, p)) for p in perms]
    return group_algebra(names, table, ring, name=f"S{n}")


BUILTIN_ALGEBRAS = ("ground", "c2", "c3", "c4", "c5", "c6", "klein", "s3")


def builtin_algebra(tag: str, ring: Ring) -> InvolutiveAlgebra:
    low = tag.lower()
    if low in ("ground", "k", "q"):
        return ground_ring_algebra(ring)
    if low.startswith("c") and low[1:].isdigit():
        return cyclic_group_algebra(int(low[1:]), ring)
    if low == "klein":
        return klein_four_algebra(ring)
    if low == "s3":
        return symmetric_group_algebra(3, ring)
    raise AlgebraError(f"unknown builtin algebra {tag!r}")


# ---------------------------------------------------------------------------
# augmentation-adapted basis
# ---------------------------------------------------------------------------

def _kernel_basis_of_functional(ring, eps):
    """Basis of the kernel of a nonzero functional, rows over the ring.

    The pivot form {e_i - (eps_i / eps_p) e_p} is used whenever some entry
    is invertible; it is the same basis over every ring, so integral and
    modular adaptations of the same presentation agree entrywise.  Over the
    integers with no unit entry the extended-gcd ladder still produces a
    basis of the saturated kernel lattice."""
    d = len(eps)
    if ring == ZZ:
        pivot = next((i for i in range(d) if eps[i] in (1, -1)), None)
        if pivot is not None:
            rows = []
            for i in range(d):
                if i == pivot:
                    continue
                row = [0] * d
                row[i] = 1
                row[pivot] = -(eps[i] * eps[pivot])
                rows.append(row)
            return rows
        # ladder: maintain a vector v with eps(v) = gcd of processed entries
        rows = []
        v = None
        gcd_val = 0
        for i in range(d):
            e = eps[i]
            basis_i = [0] * d
            basis_i[i] = 1
            if e == 0:
                rows.append(basis_i)
                continue
            if v is None:
                v = basis_i
                gcd_val = e
                continue
            # combine: find x, y with x*gcd_val + y*e = g
            x, y, g = xgcd(gcd_val, e)
            new_v = [x * a + y * b for a, b in zip(v, basis_i)]
            # kernel row: (e/g) * v - (gcd_val/g) * basis_i
            rows.append([(e // g) * a - (gcd_val // g) * b
                         for a, b in zip(v, basis_i)])
            v = new_v
            gcd_val = g
        if v is None:
            raise AlgebraError("augmentation functional is zero")
        return rows
    # field case: the same pivot form at the first nonzero entry
    pivot = next((i for i in range(d) if not ring.is_zero(eps[i])), None)
    if pivot is None:
        raise AlgebraError("augmentation functional is zero")
    rows = []
    for i in range(d):
        if i == pivot:
            continue
        row = [ring.zero()] * d
        row[i] = ring.one()
        row[pivot] = ring.neg(ring.div(eps[i], eps[pivot]))
        rows.append(row)
    return rows


def _dot(ring, row, vec):
    acc = ring.zero()
    for a, b in zip(row, vec):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def _invert_matrix(ring, rows):
    """Exact inverse of a square matrix given as a list of rows."""
    d = len(rows)
    base = QQ if ring == ZZ else ring
    work = [list(row) + [base.one() if i == j else base.zero() for j in range(d)]
            for i, row in enumerate(rows)]
    for col in range(d):
        piv = next((r for r in range(col, d) if not base.is_zero(work[r][col])), None)
        if piv is None:
            raise AlgebraError("change of basis matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = base.div(base.one(), work[col][col])
        work[col] = [base.mul(inv, v) for v in work[col]]
        for r in range(d):
            if r != col and not base.is_zero(work[r][col]):
                f = work[r][col]
                work[r] = [base.sub(a, base.mul(f, b))
                           for a, b in zip(work[r], work[col])]
    out = [row[d:] for row in work]
    if ring == ZZ:
        for row in out:
            if any(v.denominator != 1 for v in row):
                raise AlgebraError(
                    "augmentation does not split over the integers "
                    "(change of basis is not unimodular)")
        out = [[int(v) for v in row] for row in out]
    return out


def adapt_basis_to_augmentation(algebra: InvolutiveAlgebra) -> InvolutiveAlgebra:
    """Equivalent presentation on the basis {unit} + {ideal basis}.

    After adaptation basis vector 0 is the unit, the augmentation is the
    functional picking coordinate 0, and coordinates 1..d-1 span the
    augmentation ideal.  Idempotent on already adapted algebras."""
    if algebra.augmentation is None:
        raise AlgebraError("adaptation requires an augmentation")
    if algebra.is_adapted():
        return algebra
    ring = algebra.ring
    d = algebra.dim
    eps = list(algebra.augmentation)
    kernel = _kernel_basis_of_functional(ring, eps)
    if len(kernel) != d - 1:
        raise AlgebraError("augmentation kernel has the wrong rank")
    # rows of P express the new basis in old coordinates
    P = [list(algebra.unit)] + [
        [ring.from_int(v) if isinstance(v, int) else v for v in row]
        for row in kernel]
    Pt = [[P[i][a] for i in range(d)] for a in range(d)]
    R = _invert_matrix(ring, Pt)  # new coords of an old-coordinate vector

    def to_new(vec):
        return tuple(_dot(ring, R[i], vec) for i in range(d))

    new_basis_old_coords = [tuple(row) for row in P]
    structure = []
    for i in range(d):
        plane = []
        for j in range(d):
            prod_old = algebra.multiply(new_basis_old_coords[i],
                                        new_basis_old_coords[j])
            plane.append(to_new(prod_old))
        structure.append(tuple(plane))
    involution = tuple(to_new(algebra.involve(new_basis_old_coords[i]))
                       for i in range(d))
    unit = to_new(algebra.unit)
    augmentation = tuple(algebra.eps(new_basis_old_coords[i]) for i in range(d))
    names = ["1"] + [f"i{k}" for k in range(1, d)]
    out = InvolutiveAlgebra(ring, names, structure, unit, involution,
                            augmentation, name=algebra.name + "_adapted")
    if not out.is_adapted():
        raise AlgebraError("adaptation did not produce an adapted presentation")
    # the ideal span must be closed under involution and multiplication
    for i in range(1, d):
        if not ring.is_zero(out.involve(out.basis_vector(i))[0]):
            raise AlgebraError("ideal basis is not closed under the involution")
        for j in range(1, d):
            prod = out.multiply(out.basis_vector(i), out.basis_vector(j))
            if not ring.is_zero(prod[0]):
                raise AlgebraError("ideal basis is not closed under products")
    return out


# ---------------------------------------------------------------------------
# tensor-power bases
# ---------------------------------------------------------------------------

class BasicTensorBasis:
    """Indexed basis of a tensor power, lexicographically ordered.

    variant "full": all index tuples over the whole basis (dimension
    d^(points)); variant "ideal": tuples over the ideal part of an adapted
    basis, stored as full-basis indices 1..d-1 (dimension (d-1)^(points)).
    The empty object (0 points) has the single empty tuple.
    """

    def __init__(self, algebra: InvolutiveAlgebra, obj: int, variant: str = "full"):
        if variant not in ("full", "ideal"):
            raise AlgebraError(f"unknown tensor basis variant {variant!r}")
        if variant == "ideal" and not algebra.is_adapted():
            raise AlgebraError("ideal tensor basis needs an adapted algebra")
        self.algebra = algebra
        self.obj = obj
        self.variant = variant
        points = obj + 1
        if points < 0:
            raise AlgebraError("object index below the empty object")
        letters = range(algebra.dim) if variant == "full" else range(1, algebra.dim)
        self.tuples = list(itertools.product(letters, repeat=points))
        self.index = {t: k for k, t in enumerate(self.tuples)}

    def __len__(self):
        return len(self.tuples)
