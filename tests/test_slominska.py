import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from hyperoct.rings import QQ, GF
from hyperoct import invalg as ia, slominska as sl
from hyperoct.barfun import BarFunctor, IDEAL
from hyperoct.cli import algebra_from_spec
from hyperoct.complexes import (TruncationPolicy, build_epi_complex,
                                build_gz_complex)
from hyperoct.croscat import (hyp_compose, hyp_group_order, hyp_identity,
                               hyp_t, hyp_theta, hyp_to_ifas, ifas_compose,
                               ifas_identity, enumerate_hom)
from hyperoct.homology import field_rank, homology_over_field
from hyperoct.invalg import _invert_matrix
from hyperoct.matrices import SparseMatrix
from oracles import columns, hyp_enumerate, hyp_inverse


def c3_spec(rows):
    """JSON spec of the group algebra of C3 = <g>, involution g -> g^2, on
    the basis whose vectors have coordinates ``rows`` over 1, g, g^2;
    scalars are [numerator, denominator] pairs."""
    R = _invert_matrix(QQ, [list(c) for c in zip(*rows)])

    def coords(v):
        return [pair(sum(r * x for r, x in zip(row, v))) for row in R]

    def pair(x):
        x = Fraction(x)
        return [x.numerator, x.denominator]

    def mul(a, b):
        out = [0] * 3
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[(i + j) % 3] += x * y
        return out

    return {"dim": 3,
            "structure": [[i, j, k, *c] for i, a in enumerate(rows)
                          for j, b in enumerate(rows)
                          for k, c in enumerate(coords(mul(a, b))) if c[0]],
            "unit": coords([1, 0, 0]),
            "involution": [coords([a[0], a[2], a[1]]) for a in rows],
            "augmentation": [pair(sum(a)) for a in rows]}


# involutions that are no signed permutation of the adapted basis: on
# 1, g, g + g^2 the involution sends g to -g + (g + g^2); on
# 1, g - 1, (1 - g^2)/2 it swaps the ideal vectors up to the scales -2
# and -1/2, so the relations have leading entries other than 1
TWISTED = {
    "twisted-c3": c3_spec([[1, 0, 0], [0, 1, 0], [0, 1, 1]]),
    "scaled-c3": c3_spec([[1, 0, 0], [-1, 1, 0],
                          [Fraction(1, 2), 0, Fraction(-1, 2)]]),
}


def algebra(tag):
    if tag in TWISTED:
        return algebra_from_spec(json.loads(json.dumps(TWISTED[tag])), QQ)
    return ia.builtin_algebra(tag, QQ)


# -- the automorphism product and its action on every epi chain: oracles --

def functor_A(X):
    """Product of the automorphism groups along the chain, anchor factor
    first.  Elements are tuples of signed permutations."""
    groups = [list(hyp_enumerate(y)) for y in sl.chain_objects(X)]
    return list(itertools.product(*groups))


def functor_E(X):
    """Product of epimorphism hom-sets along the chain: element i maps the
    object at position i (larger) onto the object at position i + 1.  For a
    singleton chain the value is the one-point set (empty tuple here)."""
    ys = sl.chain_objects(X)
    return list(itertools.product(*(enumerate_hom(a, b, "epi")
                                    for a, b in zip(ys, ys[1:]))))


def automorphism_generators(X):
    """A generating set of ``functor_A(X)``, one factor at a time: the sign
    flip t_0 and the adjacent transpositions of that factor's group, with
    identities in the other slots."""
    ids = [hyp_identity(y) for y in sl.chain_objects(X)]
    for i, y in enumerate(sl.chain_objects(X)):
        for s in [hyp_t(y, 0)] + [hyp_theta(y, j) for j in range(y)]:
            yield tuple(ids[:i] + [s] + ids[i + 1:])


def chain_action(gs):
    """The twist of hom-chains by an automorphism tuple, as a function:
    entry i becomes g_{i+1} o f_i o g_i^{-1}.  The factors are turned into
    morphisms once, for every chain the function is applied to."""
    sides = [(hyp_to_ifas(gs[i + 1]), hyp_to_ifas(hyp_inverse(gs[i])))
             for i in range(len(gs) - 1)]

    def act(chain):
        return tuple(ifas_compose(left, ifas_compose(f, right))
                     for f, (left, right) in zip(chain, sides))
    return act


def act_on_chain(gs, chain):
    """Twist one hom-chain by an automorphism tuple (see ``chain_action``)."""
    return chain_action(gs)(chain)


def check_action_compatibility(X, Y, samples=None, seed=0):
    """Naturality of the action against the poset arrow X -> Y: twisting
    then restricting equals restricting then twisting by the surviving
    factors.  Exhaustive by default, sampled when ``samples`` is given."""
    ys = sl.chain_objects(X)
    pos = {y: i for i, y in enumerate(ys)}
    keep = [pos[y] for y in sl.chain_objects(Y)]
    chains = functor_E(X)
    group = functor_A(X)
    if samples is None:
        pairs = ((c, g) for c in chains for g in group)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(chains), rng.choice(group))
                 for _ in range(samples))
    for chain, gs in pairs:
        twisted = act_on_chain(gs, chain)
        lhs, _ = sl.restrict_chain(X, Y, twisted)
        base, _ = sl.restrict_chain(X, Y, chain)
        gs_kept = tuple(gs[i] for i in keep)
        rhs = act_on_chain(gs_kept, base)
        if lhs != rhs:
            return False
    return True


def averaging_projector(X, functor):
    """Reference oracle: the columns of the averaging projector, the sum
    of g over the whole automorphism product divided by its order, at one
    chain per orbit of the product (every tensor index).  The projector
    P satisfies P g = P, so these columns span its image, the invariants,
    whose dimension in characteristic zero is that of the coinvariants.
    At a one-chain X this is the whole projector."""
    ring = functor.ring
    chains = functor_E(X)
    chain_index = {c: i for i, c in enumerate(chains)}
    tdim = len(functor.basis(max(X)))
    group = functor_A(X)
    cols, seen = [], set()
    for chain in chains:
        if chain in seen:
            continue
        twisted = [chain_index[act_on_chain(gs, chain)] for gs in group]
        seen.update(chains[i] for i in twisted)
        tensors = [columns(functor.evaluate(hyp_to_ifas(gs[0]))) for gs in group]
        for t in range(tdim):
            col = {}
            for ci, tensor in zip(twisted, tensors):
                for r, v in tensor[t].items():
                    row = ci * tdim + r
                    col[row] = ring.add(col.get(row, ring.zero()),
                                        ring.div(v, len(group)))
            cols.append({r: v for r, v in col.items() if v})
    return SparseMatrix(ring, len(chains) * tdim, len(cols), cols)


def test_poset_objects():
    S = sl.SubsetPoset(0)
    assert S.objects() == [(0,)]
    S1 = sl.SubsetPoset(1)
    assert S1.objects() == [(0,), (0, 1), (1,)]
    # exactly two non-identity arrows out of the two-element chain
    outgoing = [Y for Y in S1.objects()
                if Y != (0, 1) and S1.hom((0, 1), Y)]
    assert outgoing == [(0,), (1,)]
    assert S1.hom((0,), (0, 1)) == []


def test_poset_composition_transitive():
    S = sl.SubsetPoset(2)
    for X in S.objects():
        for Y in S.objects():
            for Z in S.objects():
                fs = S.hom(X, Y)
                gs = S.hom(Y, Z)
                if fs and gs:
                    comp = S.compose(gs[0], fs[0])
                    assert comp == S.hom(X, Z)[0]


def test_functor_values():
    assert len(functor_A((1,))) == 8
    assert functor_E((1,)) == [()]
    assert len(functor_E((0, 1))) == 8
    # chains go from the anchor (largest index) downwards
    chain = functor_E((0, 1))[0]
    assert chain[0].source == 1 and chain[0].target == 0


def test_coxeter_generators_generate_the_automorphism_product():
    # t_0 and the adjacent transpositions generate each factor, which is
    # all the coinvariant relations of the last factor need
    X = (1, 3)
    gens = list(automorphism_generators(X))
    reached = {tuple(hyp_identity(y) for y in sl.chain_objects(X))}
    frontier = reached
    while frontier:
        frontier = {tuple(map(hyp_compose, s, g))
                    for s in gens for g in frontier} - reached
        reached |= frontier
    assert reached == set(functor_A(X))


def test_action_is_a_group_action():
    import itertools
    X = (0, 1)
    chains = functor_E(X)
    group = functor_A(X)
    from hyperoct.croscat import hyp_identity, hyp_compose
    ident = tuple(hyp_identity(y) for y in sl.chain_objects(X))
    for chain in chains:
        assert act_on_chain(ident, chain) == chain
    for gs, hs in itertools.islice(itertools.product(group, group), 200):
        prod = tuple(hyp_compose(a, b) for a, b in zip(gs, hs))
        for chain in chains[:2]:
            assert act_on_chain(gs, act_on_chain(hs, chain)) == \
                act_on_chain(prod, chain)


def test_action_naturality_exhaustive_at_n1():
    S = sl.SubsetPoset(1)
    for X in S.objects():
        for Y in S.objects():
            if S.hom(X, Y):
                assert check_action_compatibility(X, Y)


def test_action_naturality_sampled_at_n2():
    S = sl.SubsetPoset(2)
    for X in S.objects():
        for Y in S.objects():
            if S.hom(X, Y) and X != Y:
                assert check_action_compatibility(X, Y, samples=30, seed=1)


def test_coinvariants_of_the_flip_on_the_ideal():
    # at the one-point chain the group of order two acts on the
    # two-dimensional ideal by the involution; the fixed space is a line
    A = ia.cyclic_group_algebra(3, QQ)
    module = sl.coinvariants((0,), A)
    assert module.dim == 1
    functor = BarFunctor(ia.adapt_basis_to_augmentation(A), IDEAL)
    P = averaging_projector((0,), functor)
    assert P.matmul(P).equals(P)
    assert field_rank(P) == module.dim


@pytest.mark.parametrize("tag", ["c2", "c3", "klein", *TWISTED])
def test_quotient_dimension_is_the_projector_rank(tag):
    # the quotient by (s - 1)e over a generating set s has the dimension
    # of the image of the average over the whole group
    functor = BarFunctor(ia.adapt_basis_to_augmentation(algebra(tag)), IDEAL)
    for X in sl.SubsetPoset(2).objects():
        module = sl.CoinvariantModule(X, functor)
        assert module.dim == field_rank(averaging_projector(X, functor)), X


def test_delta_chains_are_a_transversal_of_the_free_action():
    # K, every automorphism factor but the last, acts freely on epi chains
    # and each orbit holds one Delta-chain: the normal form sends the epi
    # chains onto the Delta-chains with every fibre of size |K|
    for X in sl.SubsetPoset(3).objects():
        if len(X) > 3:
            continue
        ys = sl.chain_objects(X)
        order = math.prod(hyp_group_order(y) for y in ys[:-1])
        deltas = sl.delta_chains(X)
        chains = functor_E(X)
        assert len(chains) == order * len(deltas), X
        one = ifas_identity(ys[-1])
        fibres = Counter(sl._normal_form(c, one)[0] for c in chains)
        assert sorted(fibres, key=deltas.index) == deltas, X
        assert set(fibres.values()) == {order}, X


def test_coinvariants_reject_positive_characteristic():
    A = ia.cyclic_group_algebra(3, GF(5))
    with pytest.raises(sl.SlominskaError):
        sl.coinvariants((0,), A)


def test_ground_ring_gives_the_zero_module():
    G = ia.ground_ring_algebra(QQ)
    res = homology_over_field(sl.slominska_complex(G, TruncationPolicy(1, 1)))
    assert res.betti == [0, 0]


def test_agreement_with_the_epimorphism_complex():
    # the twisted specs are C3 in other bases: Betti [0, 1] at (1, 1) and
    # [0, 0] at (2, 1)
    cases = [("c2", (1, 1), None), ("c3", (1, 1), [0, 1])]
    cases += [(tag, policy, betti) for tag in TWISTED
              for policy, betti in (((1, 1), [0, 1]), ((2, 1), [0, 0]))]
    for tag, policy, betti in cases:
        A = algebra(tag)
        hs = homology_over_field(sl.slominska_complex(
            A, TruncationPolicy(*policy)))
        he = homology_over_field(build_epi_complex(A, TruncationPolicy(*policy)))
        assert hs.betti == he.betti, (tag, policy)
        assert betti is None or hs.betti == betti, (tag, policy)


@pytest.mark.parametrize("tag, n, d", [("c2", 3, 3), ("c3", 3, 2),
                                       ("klein", 2, 2), ("twisted-c3", 2, 2)])
def test_strict_strings_keep_the_homology(tag, n, d):
    # the pipeline eliminates the strict strings only, and reports the
    # standard complex's sizes
    policy = TruncationPolicy(n, d)
    A = algebra(tag)
    view = sl.CoinvariantFunctorView(A)
    standard = build_gz_complex(sl.SubsetPoset(policy.max_object), view,
                                policy)
    C = sl.slominska_complex(A, policy)
    assert C.generator_counts() == standard.generator_counts()
    assert sum(C.dims) < sum(standard.dims)
    assert homology_over_field(C).betti == homology_over_field(standard).betti


def test_tall_top_boundary_is_a_cleared_column_stream():
    # d3 of c3 at (3, 2) has more rows (2190) than columns (1152): like
    # every boundary it streams its columns, seeded by the pivot columns of
    # d2, and reports its own pivots
    C = sl.slominska_complex(algebra("c3"), TruncationPolicy(3, 2))
    assert homology_over_field(C).betti == [0, 0, 1]
    d3 = C.boundary_stream(3)
    assert d3.stats == {"cols": 1152, "of": 1152, "early_exit": False}
    assert d3.rank == 1151
    M = C.boundary(3)
    assert len(set(d3.pivots)) == d3.rank
    assert field_rank(M.submatrix(range(M.nrows), d3.pivots)) == 1151


def test_slominska_complex_dsquared():
    A = ia.cyclic_group_algebra(2, QQ)
    C = sl.slominska_complex(A, TruncationPolicy(1, 1))
    assert C.check_dsquared()


def test_coinvariant_functor_is_functorial():
    S = sl.SubsetPoset(2)
    for tag in ("c3", *TWISTED):
        view = sl.CoinvariantFunctorView(algebra(tag))
        for X in S.objects():
            for Y in S.objects():
                for Z in S.objects():
                    fs, gs = S.hom(X, Y), S.hom(Y, Z)
                    if fs and gs:
                        lhs = view.matrix(S.compose(gs[0], fs[0]))
                        rhs = view.matrix(gs[0]).matmul(view.matrix(fs[0]))
                        assert lhs.equals(rhs), (tag, X, Y, Z)
            assert view.matrix(S.identity(X)).equals(
                SparseMatrix.identity(view.ring, view.dim(X)))


def test_twisted_specs():
    A = algebra("twisted-c3")
    assert A.involution == ((1, 0, 0), (0, -1, 1), (0, 0, 1))
    assert A.augmentation == (1, 1, 2)
    functor = BarFunctor(ia.adapt_basis_to_augmentation(algebra("scaled-c3")),
                         IDEAL)
    assert set(sl.CoinvariantModule((0, 1), functor).lead.values()) - {1}


FRONTIER = """
import json, resource
from hyperoct import cli
out = {}
for algebra, n, d in (("c2", 2, 2), ("c3", 2, 1), ("c3", 3, 2),
                      ("klein", 3, 2)):
    report, code = cli.run(cli.JobSpec(algebra, "q", "slominska", [n], d))
    assert code == 0, report["errors"]
    out[f"{algebra} ({n}, {d})"] = (report["sizes"]["slominska"][f"N={n}"],
                                    report["betti"]["slominska"][f"N={n}"])
usage = resource.getrusage(resource.RUSAGE_SELF)
out["cpu_s"] = usage.ru_utime + usage.ru_stime
print(json.dumps(out))
"""


def test_frontier_slominska_jobs_fit_a_cpu_budget():
    # c2 (2, 2), c3 (2, 1), c3 (3, 2) and klein (3, 2) together, in a
    # fresh interpreter (cold memo tables) that is killed once it has used
    # 20 s of CPU
    budget = 20

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (budget, budget))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", FRONTIER], env=env,
                          preexec_fn=limit, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["c2 (2, 2)"] == [[7, 19, 37, 61], [1, 0, 0]]
    assert out["c3 (2, 1)"] == [[21, 89, 205], [0, 0]]
    assert out["c3 (3, 2)"] == [[162, 1362, 4752, 11484], [0, 0, 1]]
    assert out["klein (3, 2)"] == [[871, 7045, 24343, 58597], [3, 0, 0]]
    assert out["cpu_s"] < budget
