"""Truncated chain complexes and the chain-level reduction machinery.

Everything here is finite and exact.  A complex is truncated by a policy
(N, D): chain generators are composable strings of morphisms among objects
0..N (plus the empty object in the extended category), and matrices are
built through degree D + 1 so that homology is available in degrees 0..D.

Normal coordinates for quotient complexes
-----------------------------------------

The under-category variant of the standard complex is a quotient: degree-n
chains are classes of (n+1)-morphism strings tensored with a coefficient at
the string's base.  Dropping the base morphism and pushing the coefficient
through the functor is a retraction onto a free module whose basis is the set
of n-morphism strings tensored with coefficient basis elements, i.e. the same
index set as the standard complex.  The retraction kills every defining
relation exactly when the functor is functorial on composable pairs, which is
what the relation certificate checks; with that certificate the quotient is
the free module on these normal coordinates and the comparison isomorphism
between the two variants is the identity matrix in them.

For an augmented algebra in an adapted basis the normal coordinates split by
the tensor tuple: the all-units tuple spans one summand (a copy of the nerve
of the truncated category) and the remaining tuples span the ideal summand.
A generator of the ideal summand decodes uniquely as (string, injection,
ideal-only tuple), which is the form the epimorphism construction, the
comparison chain map into the epimorphism complex and the presimplicial
homotopy act on.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import croscat
from .barfun import BarFunctor, FULL, IDEAL, EXTENDED
from .croscat import (EMPTY_OBJECT, IFasMorphism, factorize_ifas, ifas_compose,
                      ifas_identity, ifas_injection)
from .homology import HomologyError, check_dsquared_pair
from .invalg import InvolutiveAlgebra, adapt_basis_to_augmentation, AlgebraError
from .matrices import SparseMatrix
from .rings import Ring, GF, ZZ

DEFAULT_MAX_GENERATORS = 2_000_000


class ComplexError(ValueError):
    pass


class ResourceCapExceeded(ComplexError):
    def __init__(self, label, degree, projected, cap):
        self.label = label
        self.degree = degree
        self.projected = projected
        self.cap = cap
        super().__init__(
            f"{label}: projected {projected} generators in degree {degree} "
            f"exceed the cap of {cap}")


@dataclass(frozen=True)
class TruncationPolicy:
    """Objects 0..max_object, homology degrees 0..max_degree; matrices are
    assembled one degree higher than max_degree."""

    max_object: int
    max_degree: int

    def __post_init__(self):
        if self.max_object < 0 or self.max_degree < 0:
            raise ComplexError("truncation parameters must be non-negative")

    def tag(self):
        return f"(N={self.max_object}, D={self.max_degree})"


# ---------------------------------------------------------------------------
# category views over the combinatorics layer
# ---------------------------------------------------------------------------

class DeltaHCategory:
    name = "deltaH"
    variant = "all"

    def __init__(self):
        self._compose_cache = {}

    def objects(self, max_object):
        return list(range(max_object + 1))

    def hom(self, a, b):
        return croscat.enumerate_hom(a, b, self.variant)

    def hom_size(self, a, b):
        return croscat.hom_size(a, b, self.variant)

    def identity(self, obj):
        return ifas_identity(obj)

    def compose(self, f2, f1):
        key = (f2, f1)
        out = self._compose_cache.get(key)
        if out is None:
            out = ifas_compose(f2, f1)
            self._compose_cache.setdefault(key, out)
        return out


class EpiDeltaHCategory(DeltaHCategory):
    name = "epideltaH"
    variant = "epi"


class ExtendedDeltaHCategory(DeltaHCategory):
    name = "deltaHplus"

    def objects(self, max_object):
        return [EMPTY_OBJECT] + list(range(max_object + 1))

    def hom(self, a, b):
        return croscat.extended_hom(a, b)

    def hom_size(self, a, b):
        return croscat.extended_hom_size(a, b)

    def identity(self, obj):
        if obj == EMPTY_OBJECT:
            return IFasMorphism(EMPTY_OBJECT, EMPTY_OBJECT, ())
        return ifas_identity(obj)


class BarFunctorView:
    """Functor adapter used by the assembler."""

    def __init__(self, functor: BarFunctor):
        self.functor = functor
        self.ring = functor.ring

    def dim(self, obj):
        return self.functor.dim(obj)

    def matrix(self, f):
        return self.functor.evaluate(f)

    def label(self, obj, idx):
        return self.functor.basis(obj).label(idx)


# ---------------------------------------------------------------------------
# truncated complexes
# ---------------------------------------------------------------------------

class TruncatedComplex:
    """Chain complex with explicit generator bookkeeping.

    dims[n] for n in 0..D+1; boundaries[n]: C_n -> C_{n-1} for n in 1..D+1.
    String metadata is attached when the complex comes from a category
    assembly and is used by the reduction machinery and by reports.
    """

    def __init__(self, ring: Ring, policy: TruncationPolicy, dims, boundaries,
                 label="complex", strings=None, string_index=None,
                 offsets=None, functor=None, category=None):
        self.ring = ring
        self.policy = policy
        self.dims = list(dims)
        self.boundaries = dict(boundaries)
        self.label = label
        self.strings = strings
        self.string_index = string_index
        self.offsets = offsets
        self.functor = functor
        self.category = category
        if len(self.dims) != policy.max_degree + 2:
            raise ComplexError("dims must cover degrees 0..D+1")
        for n in range(1, policy.max_degree + 2):
            M = self.boundaries.get(n)
            if M is None:
                raise ComplexError(f"missing boundary in degree {n}")
            if (M.nrows, M.ncols) != (self.dims[n - 1], self.dims[n]):
                raise ComplexError(f"boundary {n} has the wrong shape")

    def dimension(self, n: int) -> int:
        if not 0 <= n <= self.policy.max_degree + 1:
            raise ComplexError(f"degree {n} outside the built range")
        return self.dims[n]

    def boundary(self, n: int) -> SparseMatrix:
        M = self.boundaries.get(n)
        if M is None:
            raise ComplexError(f"degree {n} boundary was not built")
        return M

    def generator_counts(self):
        return list(self.dims)

    def check_dsquared(self) -> bool:
        """d_{n-1} d_n = 0 for every built pair, on integer columns."""
        try:
            for n in range(2, self.policy.max_degree + 2):
                check_dsquared_pair(self.boundary(n - 1), self.boundary(n), n)
        except HomologyError:
            return False
        return True

    def generator_label(self, n: int, index: int) -> str:
        if self.strings is None:
            return f"g{n}:{index}"
        offs = self.offsets[n]
        si = _offset_bisect(offs, index)
        src, morphs = self.strings[n][si]
        tensor_idx = index - offs[si]
        tens = self.functor.label(src, tensor_idx) if self.functor else str(tensor_idx)
        body = ",".join(str(m) for m in reversed(morphs)) if morphs else f"[{src}]"
        return f"({body}; {tens})"

    def __repr__(self):
        return (f"TruncatedComplex({self.label}, {self.policy.tag()}, "
                f"dims={self.dims})")


def _offset_bisect(offsets, index):
    lo, hi = 0, len(offsets) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if offsets[mid] <= index:
            lo = mid
        else:
            hi = mid - 1
    return lo


def projected_generator_counts(category, functor, policy: TruncationPolicy):
    """Per-degree generator counts from hom-set cardinalities alone; used by
    the resource guard and the size reports (no enumeration happens)."""
    objs = category.objects(policy.max_object)
    sizes = {(a, b): category.hom_size(a, b) for a in objs for b in objs}
    ways = {o: 1 for o in objs}
    counts = [sum(functor.dim(o) * ways[o] for o in objs)]
    for _ in range(policy.max_degree + 1):
        ways = {o: sum(sizes[(o, o2)] * ways2 for o2, ways2 in ways.items())
                for o in objs}
        counts.append(sum(functor.dim(o) * ways[o] for o in objs))
    return counts


def _strings_for_degree(category, policy, degree):
    objs = category.objects(policy.max_object)
    if degree == 0:
        return [(o, ()) for o in objs]
    out = []
    for objseq in itertools.product(objs, repeat=degree + 1):
        homs = [category.hom(objseq[i], objseq[i + 1]) for i in range(degree)]
        if any(not h for h in homs):
            continue
        for morphs in itertools.product(*homs):
            out.append((objseq[0], morphs))
    return out


def build_gz_complex(category, functor, policy: TruncationPolicy,
                     max_generators: int = DEFAULT_MAX_GENERATORS,
                     label: str | None = None) -> TruncatedComplex:
    """Standard functor-homology complex over the truncated category.

    Degree-n generators are pairs (string of n composable morphisms, basis
    element of the functor at the string's source); the boundary is the
    alternating face sum (apply the functor to the first morphism, compose
    adjacent morphisms, truncate the top).
    """
    label = label or f"gz[{category.name}]"
    projected = projected_generator_counts(category, functor, policy)
    for degree, count in enumerate(projected):
        if count > max_generators:
            raise ResourceCapExceeded(label, degree, count, max_generators)

    ring = functor.ring
    D = policy.max_degree
    strings = []
    string_index = []
    offsets = []
    dims = []
    for n in range(D + 2):
        sts = _strings_for_degree(category, policy, n)
        strings.append(sts)
        string_index.append({s: i for i, s in enumerate(sts)})
        offs = []
        total = 0
        for (src, _) in sts:
            offs.append(total)
            total += functor.dim(src)
        offsets.append(offs)
        dims.append(total)
        if dims[n] != projected[n]:
            raise ComplexError("projected and enumerated sizes disagree")

    one = ring.one()
    neg_one = ring.neg(one)
    boundaries = {}
    for n in range(1, D + 2):
        cols = [dict() for _ in range(dims[n])]
        idx_prev = string_index[n - 1]
        offs_prev = offsets[n - 1]
        for si, (src, morphs) in enumerate(strings[n]):
            face_specs = []
            # face 0: push the coefficient through the first morphism
            f1 = morphs[0]
            tgt_string = (f1.target, morphs[1:])
            face_specs.append((one, offs_prev[idx_prev[tgt_string]],
                               functor.matrix(f1)))
            sign = neg_one
            for i in range(1, n):
                composed = category.compose(morphs[i], morphs[i - 1])
                mid_string = (src, morphs[:i - 1] + (composed,) + morphs[i + 1:])
                face_specs.append((sign, offs_prev[idx_prev[mid_string]], None))
                sign = one if sign is neg_one else neg_one
            top_string = (src, morphs[:-1])
            face_specs.append((sign, offs_prev[idx_prev[top_string]], None))

            base = offsets[n][si]
            for t in range(functor.dim(src)):
                col = cols[base + t]
                for fsign, tgt_base, fmat in face_specs:
                    if fmat is None:
                        _acc(ring, col, tgt_base + t, fsign)
                    else:
                        negate = fsign is neg_one
                        for r, v in fmat.cols[t].items():
                            _acc(ring, col, tgt_base + r,
                                 ring.neg(v) if negate else v)
        boundaries[n] = SparseMatrix(ring, dims[n - 1], dims[n], cols)

    return TruncatedComplex(ring, policy, dims, boundaries, label=label,
                            strings=strings, string_index=string_index,
                            offsets=offsets, functor=functor, category=category)


def _acc(ring, col, row, v):
    cur = col.get(row)
    if cur is None:
        if not ring.is_zero(v):
            col[row] = v
    else:
        s = ring.add(cur, v)
        if ring.is_zero(s):
            del col[row]
        else:
            col[row] = s


# ---------------------------------------------------------------------------
# under-category variant and its certificate
# ---------------------------------------------------------------------------

@dataclass
class RelationCertificate:
    """Record that the normal-form retraction kills the tensor relations.

    A relation column is indexed by a composable pair (alpha, g) with a
    string tail and a coefficient basis element; its image under the
    retraction vanishes iff the functor is functorial on (g, alpha) at that
    coefficient, independently of the tail.  The certificate therefore
    checks all pairs (exhaustively up to the configured bound, sampled
    beyond) and additionally evaluates a sample of full relation columns
    with tails, verbatim."""

    pairs_checked: int
    pairs_failed: int
    sampled_columns_checked: int
    sampled_columns_failed: int

    @property
    def ok(self) -> bool:
        return self.pairs_failed == 0 and self.sampled_columns_failed == 0


def relation_certificate(category, functor, policy: TruncationPolicy,
                         exhaustive_pair_limit: int = 200_000,
                         tail_samples: int = 50, seed: int = 11) -> RelationCertificate:
    objs = category.objects(policy.max_object)
    pair_count = 0
    for a in objs:
        for b in objs:
            for c in objs:
                pair_count += category.hom_size(a, b) * category.hom_size(b, c)
    rng = random.Random(seed)
    checked = failed = 0
    exhaustive = pair_count <= exhaustive_pair_limit
    triples = []
    if exhaustive:
        for a in objs:
            for b in objs:
                for c in objs:
                    for alpha in category.hom(a, b):
                        for g in category.hom(b, c):
                            triples.append((alpha, g))
    else:
        flat = [(a, b) for a in objs for b in objs if category.hom_size(a, b)]
        while len(triples) < 2000:
            a, b = rng.choice(flat)
            bc = [(x, y) for x, y in flat if x == b]
            if not bc:
                continue
            _, c = rng.choice(bc)
            alpha = rng.choice(category.hom(a, b))
            g = rng.choice(category.hom(b, c))
            triples.append((alpha, g))
    for alpha, g in triples:
        composed = category.compose(g, alpha)
        lhs = functor.matrix(composed)
        rhs = functor.matrix(g).matmul(functor.matrix(alpha))
        checked += 1
        if not lhs.equals(rhs):
            failed += 1
    # a sample of literal relation columns with non-trivial string tails
    ring = functor.ring
    tails_checked = tails_failed = 0
    if triples:
        for _ in range(tail_samples):
            alpha, g = rng.choice(triples)
            tail_len = rng.randrange(0, 2)
            tail = []
            cur = g.target
            ok_tail = True
            for _ in range(tail_len):
                cand = [o for o in objs if category.hom_size(cur, o)]
                if not cand:
                    ok_tail = False
                    break
                nxt = rng.choice(cand)
                tail.append(rng.choice(category.hom(cur, nxt)))
                cur = nxt
            if not ok_tail:
                continue
            for x in range(functor.dim(alpha.source)):
                # pi((tail, g o alpha) (x) e_x) - pi((tail, g) (x) F(alpha) e_x)
                left = functor.matrix(category.compose(g, alpha)).cols[x]
                right: dict = {}
                for r, v in functor.matrix(alpha).cols[x].items():
                    for rr, vv in functor.matrix(g).cols[r].items():
                        _acc(ring, right, rr, ring.mul(vv, v))
                tails_checked += 1
                if left != right:
                    tails_failed += 1
    return RelationCertificate(checked, failed, tails_checked, tails_failed)


def build_nerve_variant(category, functor, policy: TruncationPolicy,
                        max_generators: int = DEFAULT_MAX_GENERATORS,
                        label: str | None = None,
                        certificate: bool = True):
    """Under-category variant presented in normal coordinates.

    Returns (complex, certificate).  The generator index set coincides with
    the standard complex by construction (see the module docstring); what
    makes the quotient presentation legitimate is the relation certificate.
    """
    label = label or f"nerve[{category.name}]"
    cpx = build_gz_complex(category, functor, policy, max_generators, label)
    cert = relation_certificate(category, functor, policy) if certificate else None
    if cert is not None and not cert.ok:
        raise ComplexError(f"{label}: tensor relations are not killed by the "
                           f"normal-form retraction")
    return cpx, cert


@dataclass
class ChainMap:
    source: TruncatedComplex
    target: TruncatedComplex
    matrices: dict
    label: str = "chain map"

    def matrix(self, n: int) -> SparseMatrix:
        return self.matrices[n]

    def commutes_with_boundaries(self) -> bool:
        D = self.source.policy.max_degree
        for n in range(1, D + 2):
            lhs = self.target.boundary(n).matmul(self.matrices[n])
            rhs = self.matrices[n - 1].matmul(self.source.boundary(n))
            if not lhs.equals(rhs):
                return False
        return True


def gz_nerve_iso(nerve: TruncatedComplex, gz: TruncatedComplex) -> ChainMap:
    """The comparison isomorphism in normal coordinates.

    Sends the class of a string with identity base to the standard generator
    with the same index, which is the identity matrix degreewise; validity
    rests on the certificate produced with the nerve variant."""
    if nerve.dims != gz.dims:
        raise ComplexError("variants disagree on generator counts")
    mats = {n: SparseMatrix.identity(nerve.ring, nerve.dims[n])
            for n in range(nerve.policy.max_degree + 2)}
    iso = ChainMap(nerve, gz, mats, label="nerve-to-standard")
    if not iso.commutes_with_boundaries():
        raise ComplexError("comparison map does not commute with boundaries")
    return iso


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientModule:
    """Finitely generated coefficients: free rank plus prime torsion orders.

    Torsion moduli are restricted to primes so that every component complex
    lives over a field or over the integers."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ComplexError("negative free rank")
        for m in self.torsion:
            if m < 2:
                raise ComplexError("torsion order must be at least 2")


@dataclass
class TensoredComplex:
    """Degreewise tensor with a coefficient module, componentwise.

    components: list of (multiplicity, complex); homology of the tensored
    complex is the direct sum over components with multiplicity."""

    base: TruncatedComplex
    module: CoefficientModule
    components: list

    def dimension(self, n):
        return sum(mult * c.dimension(n) for mult, c in self.components)


def reduce_mod_p(complex_: TruncatedComplex, p: int) -> TruncatedComplex:
    if complex_.ring != ZZ:
        raise ComplexError("mod-p reduction starts from an integer complex")
    field = GF(p)
    boundaries = {}
    for n, M in complex_.boundaries.items():
        cols = []
        for col in M.cols:
            cols.append({r: v % p for r, v in col.items() if v % p})
        boundaries[n] = SparseMatrix(field, M.nrows, M.ncols, cols)
    return TruncatedComplex(field, complex_.policy, complex_.dims, boundaries,
                            label=f"{complex_.label} mod {p}",
                            strings=complex_.strings,
                            string_index=complex_.string_index,
                            offsets=complex_.offsets,
                            functor=complex_.functor,
                            category=complex_.category)


def tensor_with_coefficients(complex_: TruncatedComplex,
                             module: CoefficientModule) -> TensoredComplex:
    """Degreewise tensor with boundary d (x) id, assembled per component."""
    components = []
    if module.free_rank:
        components.append((module.free_rank, complex_))
    for m in module.torsion:
        if complex_.ring != ZZ:
            raise ComplexError("torsion coefficients need an integer complex")
        components.append((1, reduce_mod_p(complex_, m)))
    if not components:
        raise ComplexError("zero coefficient module")
    return TensoredComplex(complex_, module, components)


# ---------------------------------------------------------------------------
# epimorphism construction
# ---------------------------------------------------------------------------

def induced_epi_morphism(psi: IFasMorphism, under: IFasMorphism) -> IFasMorphism:
    """The unique epimorphism completing the image-factorization square.

    ``under`` is an object of the under-category (a morphism out of the
    anchor object) and ``psi`` maps it to ``psi o under``; the induced
    morphism connects the epimorphism parts of the two objects."""
    mono, _ = factorize_ifas(under)
    composed = ifas_compose(psi, mono)
    mono2, epi2 = factorize_ifas(composed)
    target_mono, _ = factorize_ifas(ifas_compose(psi, under))
    if mono2 != target_mono:
        raise ComplexError("image factorization square failed to close")
    return epi2


# ---------------------------------------------------------------------------
# reduced machinery for augmented algebras
# ---------------------------------------------------------------------------

class ReducedMachinery:
    """All the chain-level data attached to an augmented algebra at a fixed
    truncation: the adapted full complex, its ideal/unit splitting, the
    epimorphism complex, the comparison chain maps and the homotopies.
    """

    def __init__(self, algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                 max_generators: int = DEFAULT_MAX_GENERATORS,
                 certificate: bool = True):
        if algebra.augmentation is None:
            raise AlgebraError("the reduced machinery needs an augmented algebra")
        self.algebra = adapt_basis_to_augmentation(algebra)
        self.ring = algebra.ring
        self.policy = policy
        self.category = DeltaHCategory()
        self.epi_category = EpiDeltaHCategory()
        self.full_functor = BarFunctor(self.algebra, FULL)
        self.ideal_functor = BarFunctor(self.algebra, IDEAL)
        self.nerve, self.certificate = build_nerve_variant(
            self.category, BarFunctorView(self.full_functor), policy,
            max_generators, label="nerve[deltaH]", certificate=certificate)
        self._split()
        self.epi, self.epi_certificate = build_nerve_variant(
            self.epi_category, BarFunctorView(self.ideal_functor), policy,
            max_generators, label="epi", certificate=certificate)
        self._chi = None
        self._inclusion = None
        self._homotopy = None
        self._homotopy_sign = None

    # -- the splitting -------------------------------------------------------

    def _split(self):
        nerve = self.nerve
        D = self.policy.max_degree
        fa = self.full_functor
        self.ci_gens = []   # per degree: list of (string_idx, tensor_idx)
        self.ck_gens = []
        self.ci_index = []  # per degree: nerve generator index -> block index
        self.ck_index = []
        for n in range(D + 2):
            ci, ck = [], []
            ci_map, ck_map = {}, {}
            for si, (src, _) in enumerate(nerve.strings[n]):
                base = nerve.offsets[n][si]
                dim_src = fa.dim(src)
                # tensor index 0 is the all-units tuple in every degree
                ck_map[base] = len(ck)
                ck.append((si, 0))
                for t in range(1, dim_src):
                    ci_map[base + t] = len(ci)
                    ci.append((si, t))
            self.ci_gens.append(ci)
            self.ck_gens.append(ck)
            self.ci_index.append(ci_map)
            self.ck_index.append(ck_map)
        ci_dims = [len(g) for g in self.ci_gens]
        ck_dims = [len(g) for g in self.ck_gens]
        ci_bound, ck_bound = {}, {}
        for n in range(1, D + 2):
            M = nerve.boundary(n)
            ci_rows = [self._nerve_index(n - 1, si, t) for si, t in self.ci_gens[n - 1]]
            ci_cols = [self._nerve_index(n, si, t) for si, t in self.ci_gens[n]]
            ck_rows = [self._nerve_index(n - 1, si, t) for si, t in self.ck_gens[n - 1]]
            ck_cols = [self._nerve_index(n, si, t) for si, t in self.ck_gens[n]]
            if not M.restrict_rows_complement_is_zero(ci_rows, ci_cols) or \
                    not M.restrict_rows_complement_is_zero(ck_rows, ck_cols):
                raise ComplexError("boundary does not preserve the splitting")
            ci_bound[n] = M.submatrix(ci_rows, ci_cols)
            ck_bound[n] = M.submatrix(ck_rows, ck_cols)
        self.c_ideal = TruncatedComplex(self.ring, self.policy, ci_dims,
                                        ci_bound, label="C_I")
        self.c_unit = TruncatedComplex(self.ring, self.policy, ck_dims,
                                       ck_bound, label="C_k")

    def _nerve_index(self, n, string_idx, tensor_idx):
        return self.nerve.offsets[n][string_idx] + tensor_idx

    # -- decoding ideal generators -------------------------------------------

    def _decode_ci(self, n, block_index):
        """(string, injection, ideal letters) for an ideal-summand generator."""
        si, t = self.ci_gens[n][block_index]
        src, morphs = self.nerve.strings[n][si]
        tpl = self.full_functor.basis(src).tuples[t]
        positions = tuple(p for p, letter in enumerate(tpl) if letter != 0)
        letters = tuple(tpl[p] for p in positions)
        iota = ifas_injection(positions, src)
        return src, morphs, iota, positions, letters

    def _ci_lookup(self, n, src, morphs, letters):
        """Ideal-summand index of ((morphs based at src), ideal tuple)."""
        si = self.nerve.string_index[n].get((src, morphs))
        if si is None:
            raise ComplexError("reduction left the truncation window")
        t = self.full_functor.basis(src).index[letters]
        return self.ci_index[n][self._nerve_index(n, si, t)]

    def _epi_lookup(self, n, src, morphs, letters):
        si = self.epi.string_index[n].get((src, morphs))
        if si is None:
            raise ComplexError("epimorphism string left the truncation window")
        t = self.ideal_functor.basis(src).index[letters]
        return self.epi.offsets[n][si] + t

    def _epi_walk(self, iota, morphs):
        """Run the epimorphism construction along a string anchored at a
        monomorphism: returns (epimorphism parts, monomorphism parts)."""
        monos = [iota]
        epis = []
        m = iota
        for f in morphs:
            mono, epi = factorize_ifas(ifas_compose(f, m))
            epis.append(epi)
            monos.append(mono)
            m = mono
        return epis, monos

    # -- chain maps ------------------------------------------------------------

    def chi(self) -> ChainMap:
        """Comparison map from the ideal summand onto the epimorphism
        complex: apply the epimorphism construction to the whole string."""
        if self._chi is None:
            one = self.ring.one()
            mats = {}
            for n in range(self.policy.max_degree + 2):
                M = SparseMatrix(self.ring, self.epi.dimension(n),
                                 self.c_ideal.dimension(n))
                for ci in range(self.c_ideal.dimension(n)):
                    src, morphs, iota, positions, letters = self._decode_ci(n, ci)
                    epis, _ = self._epi_walk(iota, morphs)
                    anchor = len(positions) - 1
                    M.cols[ci][self._epi_lookup(n, anchor, tuple(epis), letters)] = one
                mats[n] = M
            self._chi = ChainMap(self.c_ideal, self.epi, mats, label="chi")
        return self._chi

    def inclusion(self) -> ChainMap:
        """Inclusion of the epimorphism complex into the ideal summand."""
        if self._inclusion is None:
            one = self.ring.one()
            mats = {}
            for n in range(self.policy.max_degree + 2):
                M = SparseMatrix(self.ring, self.c_ideal.dimension(n),
                                 self.epi.dimension(n))
                col = 0
                for si, (src, morphs) in enumerate(self.epi.strings[n]):
                    for letters in self.ideal_functor.basis(src).tuples:
                        M.cols[col][self._ci_lookup(n, src, morphs, letters)] = one
                        col += 1
                mats[n] = M
            self._inclusion = ChainMap(self.epi, self.c_ideal, mats,
                                       label="inclusion")
        return self._inclusion

    def homotopy(self):
        """Presimplicial homotopy between the identity of the ideal summand
        and inclusion-after-comparison: term j applies the epimorphism
        construction to the first j morphisms and inserts the j-th
        monomorphism part."""
        if self._homotopy is None:
            one = self.ring.one()
            neg = self.ring.neg(one)
            mats = {}
            for n in range(self.policy.max_degree + 1):
                M = SparseMatrix(self.ring, self.c_ideal.dimension(n + 1),
                                 self.c_ideal.dimension(n))
                for ci in range(self.c_ideal.dimension(n)):
                    src, morphs, iota, positions, letters = self._decode_ci(n, ci)
                    epis, monos = self._epi_walk(iota, morphs)
                    anchor = len(positions) - 1
                    sign = one
                    for j in range(n + 1):
                        out = tuple(epis[:j]) + (monos[j],) + morphs[j:]
                        row = self._ci_lookup(n + 1, anchor, out, letters)
                        _acc(self.ring, M.cols[ci], row, sign)
                        sign = neg if sign is one else one
                mats[n] = M
            self._homotopy = mats
        return self._homotopy

    def homotopy_identity_sign(self):
        """Empirical global sign: s with (d h + h d) == s (id - i chi)."""
        if self._homotopy_sign is None:
            h = self.homotopy()
            n = 0
            lhs = self.c_ideal.boundary(1).matmul(h[0])
            iden = SparseMatrix.identity(self.ring, self.c_ideal.dimension(0))
            ichi = self.inclusion().matrix(0).matmul(self.chi().matrix(0))
            target = iden.sub(ichi)
            if lhs.equals(target):
                self._homotopy_sign = 1
            elif lhs.equals(target.neg()):
                self._homotopy_sign = -1
            else:
                raise ComplexError("homotopy identity fails in degree zero")
        return self._homotopy_sign

    def verify_chain_theorem(self) -> dict:
        """Exact matrix verification of the reduction theorem at this
        truncation: both maps are chain maps, the comparison retracts the
        inclusion, and the homotopy witnesses the other composite."""
        chi, inc, h = self.chi(), self.inclusion(), self.homotopy()
        sign = self.homotopy_identity_sign()
        out = {
            "chi_chain_map": chi.commutes_with_boundaries(),
            "inclusion_chain_map": inc.commutes_with_boundaries(),
            "homotopy_sign": sign,
        }
        D = self.policy.max_degree
        ok_retract = True
        for n in range(D + 2):
            prod = chi.matrix(n).matmul(inc.matrix(n))
            if not prod.equals(SparseMatrix.identity(self.ring,
                                                     self.epi.dimension(n))):
                ok_retract = False
        out["chi_after_inclusion_is_identity"] = ok_retract
        ok_homotopy = True
        ok_on_image = True
        for n in range(D + 1):
            lhs = self.c_ideal.boundary(n + 1).matmul(h[n])
            if n >= 1:
                lhs = lhs.add(h[n - 1].matmul(self.c_ideal.boundary(n)))
            iden = SparseMatrix.identity(self.ring, self.c_ideal.dimension(n))
            ichi = inc.matrix(n).matmul(chi.matrix(n))
            target = iden.sub(ichi)
            if sign < 0:
                target = target.neg()
            if not lhs.equals(target):
                ok_homotopy = False
            if not lhs.matmul(inc.matrix(n)).is_zero_matrix():
                ok_on_image = False
        out["homotopy_identity"] = ok_homotopy
        out["homotopy_vanishes_on_epi_image"] = ok_on_image
        return out

    # -- contraction of the unit summand ---------------------------------------

    def unit_summand_contraction(self):
        """Degree-raising maps for the unit summand, built from the canonical
        point-zero section, together with the augmentation and its section.

        The degree-zero identity d h0 = id - (section o augmentation) holds
        exactly; in higher degrees the corresponding identity is a statement
        about the pre-quotient complex of strings anchored at the smallest
        object (see zero_anchored_contraction) and is reported, not assumed,
        on the quotient."""
        ring = self.ring
        one = ring.one()
        D = self.policy.max_degree
        h = {}
        for n in range(D + 1):
            M = SparseMatrix(ring, self.c_unit.dimension(n + 1),
                             self.c_unit.dimension(n))
            for ck in range(self.c_unit.dimension(n)):
                si, _ = self.ck_gens[n][ck]
                src, morphs = self.nerve.strings[n][si]
                u = ifas_injection((0,), src)
                out = (u,) + morphs
                si_out = self.nerve.string_index[n + 1].get((0, out))
                if si_out is None:
                    raise ComplexError("contraction left the truncation window")
                row = self.ck_index[n + 1][self._nerve_index(n + 1, si_out, 0)]
                M.cols[ck][row] = one
            h[n] = M
        # augmentation and its section
        eps = SparseMatrix(ring, 1, self.c_unit.dimension(0),
                           [{0: one} for _ in range(self.c_unit.dimension(0))])
        si0 = self.nerve.string_index[0][(0, ())]
        eta_row = self.ck_index[0][self._nerve_index(0, si0, 0)]
        eta = SparseMatrix(ring, self.c_unit.dimension(0), 1, [{eta_row: one}])
        identity_by_degree = {}
        iden0 = SparseMatrix.identity(ring, self.c_unit.dimension(0))
        identity_by_degree[0] = self.c_unit.boundary(1).matmul(h[0]).equals(
            iden0.sub(eta.matmul(eps)))
        for n in range(1, D + 1):
            lhs = self.c_unit.boundary(n + 1).matmul(h[n]).add(
                h[n - 1].matmul(self.c_unit.boundary(n)))
            identity_by_degree[n] = lhs.equals(
                SparseMatrix.identity(ring, self.c_unit.dimension(n)))
        return h, eps, eta, identity_by_degree


def zero_anchored_contraction(policy: TruncationPolicy, ring: Ring,
                              max_generators: int = DEFAULT_MAX_GENERATORS) -> dict:
    """Exact cone contraction of the complex of strings anchored at the
    smallest object (pre-quotient form of the unit summand).

    Degree n is spanned by strings of n+1 composable morphisms whose first
    morphism starts at object 0; prepending the identity of object 0 is an
    extra degeneracy and the contraction identities hold on the nose, inside
    the truncation, because only object 0 is inserted."""
    cat = DeltaHCategory()
    D = policy.max_degree
    label = "zero-anchored"
    # strings of length n+1 with source object fixed to 0
    strings = []
    index = []
    objs = cat.objects(policy.max_object)
    total_guard = 0
    for n in range(D + 2):
        sts = []
        for objseq in itertools.product(objs, repeat=n + 1):
            seq = (0,) + objseq
            homs = [cat.hom(seq[i], seq[i + 1]) for i in range(n + 1)]
            if any(not hm for hm in homs):
                continue
            for morphs in itertools.product(*homs):
                sts.append(morphs)
        total_guard += len(sts)
        if total_guard > max_generators:
            raise ResourceCapExceeded(label, n, total_guard, max_generators)
        strings.append(sts)
        index.append({s: i for i, s in enumerate(sts)})
    one = ring.one()
    neg = ring.neg(one)
    boundaries = {}
    for n in range(1, D + 2):
        cols = []
        for morphs in strings[n]:
            col = {}
            sign = one
            for i in range(n + 1):
                if i < n:
                    tgt = morphs[:i] + (ifas_compose(morphs[i + 1], morphs[i]),) \
                        + morphs[i + 2:]
                else:
                    tgt = morphs[:-1]
                _acc(ring, col, index[n - 1][tgt], sign)
                sign = neg if sign is one else one
            cols.append(col)
        boundaries[n] = SparseMatrix(ring, len(strings[n - 1]), len(strings[n]), cols)
    dims = [len(s) for s in strings]
    # extra degeneracy: prepend the identity of object 0
    ident0 = ifas_identity(0)
    h = {}
    for n in range(D + 1):
        cols = []
        for morphs in strings[n]:
            cols.append({index[n + 1][(ident0,) + morphs]: one})
        h[n] = SparseMatrix(ring, dims[n + 1], dims[n], cols)
    eps = SparseMatrix(ring, 1, dims[0], [{0: one} for _ in range(dims[0])])
    eta = SparseMatrix(ring, dims[0], 1, [{index[0][(ident0,)]: one}])
    results = {}
    iden0 = SparseMatrix.identity(ring, dims[0])
    results[0] = boundaries[1].matmul(h[0]).equals(iden0.sub(eta.matmul(eps)))
    for n in range(1, D + 1):
        lhs = boundaries[n + 1].matmul(h[n]).add(h[n - 1].matmul(boundaries[n]))
        results[n] = lhs.equals(SparseMatrix.identity(ring, dims[n]))
    return {"identities": results, "dims": dims,
            "ok": all(results.values())}


# ---------------------------------------------------------------------------
# builders of the single-complex pipelines
# ---------------------------------------------------------------------------

def build_epi_complex(algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                      max_generators: int = DEFAULT_MAX_GENERATORS
                      ) -> TruncatedComplex:
    adapted = adapt_basis_to_augmentation(algebra)
    functor = BarFunctor(adapted, IDEAL)
    cpx, _ = build_nerve_variant(EpiDeltaHCategory(), BarFunctorView(functor),
                                 policy, max_generators, label="epi")
    return cpx


def build_full_complex(algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                       max_generators: int = DEFAULT_MAX_GENERATORS
                       ) -> TruncatedComplex:
    functor = BarFunctor(algebra, FULL)
    return build_gz_complex(DeltaHCategory(), BarFunctorView(functor), policy,
                            max_generators, label="full")


def build_extended_complex(algebra: InvolutiveAlgebra, policy: TruncationPolicy,
                           max_generators: int = DEFAULT_MAX_GENERATORS
                           ) -> TruncatedComplex:
    functor = BarFunctor(algebra, EXTENDED)
    return build_gz_complex(ExtendedDeltaHCategory(), BarFunctorView(functor),
                            policy, max_generators, label="extended")
