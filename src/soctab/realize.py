"""Construct an embedding realizing a prescribed socle tableau.

The construction builds a chain of surjections with semisimple kernels
between the standard modules of the chain layers.  Column pairs found by
the level matching receive a unipotent correction so that the kernel of
each two-step composite has socle equal to the kernel of the first step;
the kernel of the full composite is then the subspace sought.  The maps
have entries 0 and 1 at every prime (the construction of Ringel and
Schmidmeier is prime-free), so they are built once per tableau on rows of
Python ints, and each prime runs only the eliminations and their checks.
LR tableaux are realized as the duals of the realizations of their
mirrored socle tableaux, which lie in the same standard module of beta.
"""

from . import linalg
from .convert import duallr_to_socle
from .embeddings import Embedding, dual_embedding
from .modules import Subspace, block_offsets, standard_module, zero_subspace
from .tableaux import InvalidTableau, SkewTableau, _chain_layers, build_matching, check_socle


class ConditionStarViolated(RuntimeError):
    """Internal construction invariant failed; indicates a bug, never expected."""


class EpiChain:
    """Stage modules C0..Cs and matrices of the surjections between them."""

    __slots__ = ("prime", "stages", "maps")

    def __init__(self, prime, stages, maps):
        self.prime = prime
        self.stages = list(stages)
        self.maps = list(maps)
        if len(self.maps) != len(self.stages) - 1:
            raise ValueError("need exactly one map per consecutive stage pair")

    def __repr__(self):
        return f"EpiChain(p={self.prime}, dims={[c.dim for c in self.stages]})"


class _IntChain:
    """The construction of a socle tableau on integer rows, valid mod every prime:
    the rows of each map and of the full composite, and for each consecutive
    pair f1, f2, |S| for the socle S of f1's source, the coordinates high(1)
    outside S and the rows of f2 f1[:, S]."""

    __slots__ = ("layers", "maps", "pairs", "composite")

    def __init__(self, t):
        # the axioms make the layers a valid chain; each is padded to the width of beta
        self.layers = layers = _chain_layers(t, "socle")
        s = len(layers) - 1
        ones = []  # ones[ell - 1][r]: the source coordinates of the 1s in row r of map ell
        for ell, src, dst in zip(range(1, s + 1), layers, layers[1:]):
            # canonical surjection of blocks, p^i -> p^i for i < dst[j]: the
            # coordinates of dst, in order, come from these coordinates of src
            cols = [o + i for o, n in zip(block_offsets(src), dst) for i in range(n)]
            h = _correction(t, dst, block_offsets(dst), ell) if ell < s else [[k] for k in range(len(cols))]
            # row r of h g adds the rows k of g, the unit rows at cols[k], for the 1s of row r of h
            ones.append([[cols[k] for k in hr] for hr in h])
        # h lists distinct columns in each row, so the maps are exactly 0/1
        self.maps = [_rows(f, sum(src)) for f, src in zip(ones, layers)]
        self.pairs = []
        for f1, f2, layer in zip(ones, ones[1:], layers):
            offs = block_offsets(layer)
            socle = [o + n - 1 for o, n in zip(offs, layer) if n]  # spans the socle of the stage
            high = [o + i for o, n in zip(offs, layer) for i in range(n - 1)]
            prod = [[socle.index(c) for k in r for c in f1[k] if c in socle] for r in f2]
            self.pairs.append((len(socle), high, _rows(prod, len(socle))))
        comp = ones[0] if s else []  # a column once for each path of 1s to it
        for f in ones[1:]:
            comp = [[c for k in r for c in comp[k]] for r in f]
        self.composite = _rows(comp, sum(layers[0]))

    def check(self, p):
        """Raise ``ConditionStarViolated`` unless every map is onto and meets
        condition star at p.  An onto map ell has the kernel length the
        tableau prescribes by construction: n - m is the number of entries
        ell, which the layers remove."""
        kernels = []
        for ell, (f, src, dst) in enumerate(zip(self.maps, self.layers, self.layers[1:]), 1):
            n, m = sum(src), sum(dst)
            # one elimination gives the kernel, and rank = source dim - kernel dim
            kernels.append(linalg._null_rows(f, n, p))
            if n - len(kernels[-1]) != m:
                raise ConditionStarViolated(f"stage {ell} map is not surjective")
        # condition star: soc(Ker f2 f1) = Ker f1 for consecutive maps f1, f2
        for idx, ((size, high, prod), ker1) in enumerate(zip(self.pairs, kernels)):
            if not _socle_condition(size, high, [[x % p for x in r] for r in prod], ker1, p):
                raise ConditionStarViolated(f"socle condition fails between stages {idx+1},{idx+2}")

    def embedding(self, p):
        """The kernel of the full composite at p, in the standard module of beta."""
        amb = standard_module(p, self.layers[0])
        if not self.maps:
            return Embedding(amb, zero_subspace(amb))
        self.check(p)
        basis = linalg._null_rows([[x % p for x in r] for r in self.composite], amb.dim, p)
        return Embedding(amb, Subspace._canonical(amb, basis))


def _rows(ones, n):
    """Rows of length n from lists of columns, a column listed k times holding k."""
    return [[r.count(c) for c in range(n)] for r in ones]


def _socle_condition(size, high, prod, ker1, p):
    """True iff soc(Ker f2 f1) = Ker f1, given the kernel rows ker1 of f1: Ker f1
    lies in Ker f2 f1, so iff Ker f1 vanishes on ``high``, outside the socle S,
    and dim Ker f1 = |S| - rank((f2 f1)[:, S]), with |S| = size and prod the rows."""
    meet = size - len(linalg._eliminate(prod, size, p)[0])
    return not any(r[c] for r in ker1 for c in high) and meet == len(ker1)


def _correction(t, layer, offs, ell):
    """Unipotent automorphism pairing columns along the cross matches at level ell,
    as the columns of the 1s in each row: the diagonal, then an inclusion."""
    h = [[r] for r in range(sum(layer))]  # the identity, then the inclusions
    used = set()
    for hi_box, lo_box in build_matching(t, ell).pairs.items():
        j, i = hi_box[1] - 1, lo_box[1] - 1
        if i == j:
            continue  # same-column match needs no correction
        if i in used or j in used:
            raise ConditionStarViolated("column pairing is not disjoint")
        used.update((i, j))
        u, v = layer[i], layer[j]
        # u == v is possible and harmless: the inclusion degenerates to the identity
        if not (i < j and u >= v >= 1):
            raise ConditionStarViolated(f"bad column pair ({i+1},{j+1}) at level {ell}")
        # inclusion of the length-v block into the length-u one: p^k -> p^(u-v+k)
        for k in range(v):
            h[offs[i] + u - v + k].append(offs[j] + k)
    return h


def build_chain(t: SkewTableau, prime: int) -> EpiChain:
    """Epimorphism chain realizing the socle tableau ``t``.

    Each map must be onto and meet the socle condition with the next map;
    a failure is a bug and raises ``ConditionStarViolated``.
    """
    if not check_socle(t):
        raise InvalidTableau("socle tableau expected")
    chain = _IntChain(t)
    stages = [standard_module(prime, layer) for layer in chain.layers]
    epi = EpiChain(prime, stages, [linalg._to_array(f, c.dim) for f, c in zip(chain.maps, stages)])
    chain.check(prime)
    return epi


def realize_socle(t: SkewTableau, prime: int = 2) -> Embedding:
    """Embedding whose socle tableau is exactly ``t``."""
    if not check_socle(t):
        raise InvalidTableau("socle tableau expected")
    return _IntChain(t).embedding(prime)


def realize_lr(t: SkewTableau, prime: int = 2) -> Embedding:
    """Embedding in ``standard_module(prime, t.beta)`` whose LR tableau is exactly ``t``.

    It is the dual of the realization of the mirrored socle tableau;
    ``duallr_to_socle`` rejects a tableau that is not LR, and its result
    has passed ``check_socle`` already.
    """
    return dual_embedding(_IntChain(duallr_to_socle(t)).embedding(prime))
