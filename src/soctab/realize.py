"""Construct an embedding realizing a prescribed socle tableau.

The construction builds a chain of surjections with semisimple kernels
between the standard modules of the chain layers.  Column pairs found by
the level matching receive a unipotent correction so that the kernel of
each two-step composite has socle equal to the kernel of the first step;
the kernel of the full composite is then the subspace sought.  The maps
have entries 0 and 1 at every prime (the construction of Ringel and
Schmidmeier is prime-free), so they are built once per tableau on rows of
Python ints.  Their eliminations run once too, by the routines of
``linalg`` with p None, over the integers: while every entry stays in
{-1, 0, 1}, an entry is 0 iff it is 0 mod p, so every prime would take the
same steps, and the verdict of the checks and the composite's kernel,
reduced mod p, serve every prime.  An elimination that leaves that set
(the composite can hold a 2) is run again at each prime instead.  The
kernel's invariance and socle levels are certified once too, by the
invariance test and the type read-off of ``modules`` with p None, so the
socle sweep reads an embedding at p only where that certificate is
missing or misses.
LR tableaux are realized as the duals of the realizations of their
mirrored socle tableaux, which lie in the same standard module of beta.
"""

from . import linalg
from .convert import duallr_to_socle
from .embeddings import Embedding, dual_embedding
from .modules import (
    Subspace,
    _is_invariant,
    _read_type,
    block_offsets,
    standard_module,
    zero_subspace,
)
from .tableaux import InvalidTableau, SkewTableau, _chain_layers, build_matching, check_socle


class ConditionStarViolated(RuntimeError):
    """Internal construction invariant failed; indicates a bug, never expected."""


class EpiChain:
    """Stage modules C0..Cs and the surjections between them, each as rows of
    ints (one row per target coordinate), with entries 0 and 1 at every prime."""

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

    __slots__ = ("layers", "maps", "pairs", "composite", "_certified", "_invariant", "_levels")

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
        # (verdict, kernel) over the integers, set by the first check; not run
        # here, so that a construction that fails condition star still builds
        self._certified = None
        self._levels = None  # set by the first certified_levels

    def check(self, p):
        """Raise ``ConditionStarViolated`` unless every map is onto and meets
        condition star at p.  An onto map ell has the kernel length the
        tableau prescribes by construction: n - m is the number of entries
        ell, which the layers remove.

        The first call eliminates over the integers (p None in ``linalg``).
        If every elimination it needs stays in {-1, 0, 1}, its verdict and
        the composite's kernel hold at every prime, and no later prime
        eliminates again; otherwise each prime runs its own eliminations.
        The kernel's invariance is tested once too, over the integers: a
        zero residual there is zero mod every prime.
        """
        if self._certified is None:
            verdict = self._violation(None)
            kernel = linalg._null_rows(self.composite, sum(self.layers[0]), None) if verdict == "" else None
            self._certified = verdict, kernel
            beta = self.layers[0]
            high = [o + i for o, n in zip(block_offsets(beta), beta) for i in range(n - 1)]
            self._invariant = kernel is not None and _is_invariant(kernel, high, None)
        verdict = self._certified[0]
        if verdict is None:
            verdict = self._violation(p)
        if verdict:
            raise ConditionStarViolated(verdict)

    def _violation(self, p):
        """The message of the first violation at p, or "" if there is none.
        With p None the eliminations run over the integers, and None means
        one of them left {-1, 0, 1} before a verdict."""
        kernels = []
        for ell, (f, src, dst) in enumerate(zip(self.maps, self.layers, self.layers[1:]), 1):
            n, m = sum(src), sum(dst)
            # one elimination gives the kernel, and rank = source dim - kernel dim;
            # the maps are 0/1, so already reduced mod p
            kernels.append(linalg._null_rows(f, n, p))
            if kernels[-1] is None:
                return None
            if n - len(kernels[-1]) != m:
                return f"stage {ell} map is not surjective"
        # condition star: soc(Ker f2 f1) = Ker f1 for consecutive maps f1, f2
        for idx, ((size, high, prod), ker1) in enumerate(zip(self.pairs, kernels)):
            holds = _socle_condition(size, high, [[x % p for x in r] for r in prod] if p else prod, ker1, p)
            if holds is None:
                return None
            if not holds:
                return f"socle condition fails between stages {idx+1},{idx+2}"
        return ""

    def embedding(self, p):
        """The kernel of the full composite at p, in the standard module of beta."""
        amb = standard_module(p, self.layers[0])
        if not self.maps:
            return Embedding(amb, zero_subspace(amb))
        self.check(p)
        kernel = self._certified[1]
        if kernel is None:
            basis = linalg._null_rows([[x % p for x in r] for r in self.composite], amb.dim, p)
        else:
            basis = [[x % p for x in r] for r in kernel]
        sub = Subspace._canonical(amb, basis)
        # an invariance certified over the integers holds at p; else test it at p
        return Embedding._certified(amb, sub) if self._invariant else Embedding(amb, sub)

    def certified_levels(self, p):
        """(dim U, the types of M / soc^l U for l = 1..s) of the subspace U of
        ``embedding(p)``, read once for every prime off the pivots of U's
        integer rows, which are those at p while the forward pass stays in
        {-1, 0, 1}; None for the zero U, or if U is not certified invariant
        or a pass leaves that set."""
        if not self.maps:
            return None
        self.check(p)
        if self._levels is None:
            self._levels = self._read_levels() if self._invariant else ()
        return self._levels or None

    def _read_levels(self):
        kernel, beta = self._certified[1], self.layers[0]
        levels = tuple(_read_type(beta, kernel, None, "socle", ell) for ell in range(1, len(self.layers)))
        return () if None in levels else (len(kernel), levels)


def _rows(ones, n):
    """Rows of length n from lists of columns, a column listed k times holding k."""
    out = [[0] * n for _ in ones]
    for row, r in zip(out, ones):
        for c in r:
            row[c] += 1
    return out


def _socle_condition(size, high, prod, ker1, p):
    """True iff soc(Ker f2 f1) = Ker f1, given the kernel rows ker1 of f1: Ker f1
    lies in Ker f2 f1, so iff Ker f1 vanishes on ``high``, outside the socle S,
    and dim Ker f1 = |S| - rank((f2 f1)[:, S]), with |S| = size and prod the rows.
    With p None the rank is taken over the integers, and None means it gave up."""
    lead = linalg._pivot_rows(prod, size, p)
    if lead is None:
        return None
    return not any(r[c] for r in ker1 for c in high) and size - len(lead) == len(ker1)


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
    epi = EpiChain(prime, stages, chain.maps)
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
