"""Construct an embedding realizing a prescribed socle tableau.

The construction builds a chain of surjections with semisimple kernels
between the standard modules of the chain layers.  Column pairs found by
the level matching receive a unipotent correction so that the kernel of
each two-step composite has socle equal to the kernel of the first step;
the kernel of the full composite is then the subspace sought, and each
map is checked as it is built.  LR tableaux are realized as the duals of
the realizations of their mirrored socle tableaux, which lie in the same
standard module of beta.
"""

import numpy as np

from . import linalg
from .convert import duallr_to_socle
from .embeddings import Embedding, dual_embedding
from .modules import Subspace, block_offsets, standard_module, zero_subspace
from .partitions import transpose
from .tableaux import (
    InvalidTableau,
    SkewTableau,
    _chain_layers,
    build_matching,
    check_socle,
)


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

    def composite(self):
        """Matrix of the full composition C0 -> Cs."""
        p = self.prime
        out = np.eye(self.stages[0].dim, dtype=np.int64)
        for f in self.maps:
            out = (f @ out) % p
        return out

    def __repr__(self):
        dims = [c.dim for c in self.stages]
        return f"EpiChain(p={self.prime}, dims={dims})"


def build_chain(t: SkewTableau, prime: int) -> EpiChain:
    """Epimorphism chain realizing the socle tableau ``t``.

    Each map must be onto, with the kernel length that ``t`` prescribes,
    and meet the socle condition with the next map; a failure is a bug
    and raises ``ConditionStarViolated``.
    """
    if not check_socle(t):
        raise InvalidTableau("socle tableau expected")
    return _build_chain(t, prime)


def _build_chain(t, prime):
    """``build_chain`` for a tableau already known to be a socle tableau."""
    # the axioms make the layers a valid chain; each is padded to the width of beta
    layers = _chain_layers(t, "socle")
    s = len(layers) - 1
    width = len(t.beta)
    acols = transpose(t.alpha)
    stages = [standard_module(prime, layer) for layer in layers]
    maps = []
    kernels = []
    for ell in range(1, s + 1):
        src, dst = layers[ell - 1], layers[ell]
        soffs, doffs = block_offsets(src), block_offsets(dst)
        # canonical surjection of blocks, p^i -> p^i for i < dst[j]: the
        # coordinates of dst, in order, come from these coordinates of src
        cols = [soffs[j] + i for j in range(width) for i in range(dst[j])]
        g = np.zeros((sum(dst), sum(src)), dtype=np.int64)
        g[range(len(cols)), cols] = 1
        if ell < s:
            h = _correction(t, layers[ell], doffs, ell, prime)
            g = (h @ g) % prime
        maps.append(g)
        # one elimination gives the kernel, and rank = source dim - kernel dim
        kernels.append(linalg.nullspace(g, prime))
        if sum(src) - kernels[-1].shape[0] != sum(dst):
            raise ConditionStarViolated(f"stage {ell} map is not surjective")
        kdim = sum(src) - sum(dst)
        if kdim != acols[ell - 1]:
            raise ConditionStarViolated(f"stage {ell} kernel has the wrong length")
    epi = EpiChain(prime, stages, maps)
    # condition star: soc(Ker f2 f1) = Ker f1 for consecutive maps f1, f2
    for idx in range(s - 1):
        if not _socle_condition(stages[idx], maps[idx], maps[idx + 1], kernels[idx]):
            raise ConditionStarViolated(f"socle condition fails between stages {idx+1},{idx+2}")
    return epi


def _socle_condition(stage, f1, f2, ker1):
    """True iff soc(Ker f2 f1) = Ker f1, given the basis ker1 of Ker f1.

    Ker f1 lies in Ker f2 f1, so this holds iff Ker f1 lies in the socle
    of ``stage``, spanned by the coordinates S = {off + size - 1}, and
    Ker f2 f1 meets that span in dim Ker f1 = |S| - rank((f2 f1)[:, S]).
    """
    socle = [o + n - 1 for o, n in zip(block_offsets(stage.parts), stage.parts)]
    meet = len(socle) - linalg.rank((f2 @ f1[:, socle]) % stage.prime, stage.prime)
    # high(1) holds every coordinate outside S
    return not ker1[:, stage._high_cols(1)].any() and meet == ker1.shape[0]


def _correction(t, layer, offs, ell, prime):
    """Unipotent automorphism pairing columns along the cross matches at level ell."""
    n = sum(layer)
    rows, cols = list(range(n)), list(range(n))  # the identity, then the inclusions
    matching = build_matching(t, ell)
    used = set()
    for hi_box, lo_box in matching.pairs.items():
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
        rows += range(offs[i] + u - v, offs[i] + u)
        cols += range(offs[j], offs[j] + v)
    h = np.zeros((n, n), dtype=np.int64)
    h[rows, cols] = 1
    return h


def realize_socle(t: SkewTableau, prime: int = 2) -> Embedding:
    """Embedding whose socle tableau is exactly ``t``."""
    return _kernel_embedding(build_chain(t, prime))


def _kernel_embedding(epi: EpiChain) -> Embedding:
    """The kernel of the chain's full composite, inside its first stage."""
    amb = epi.stages[0]
    if not epi.maps:
        return Embedding(amb, zero_subspace(amb))
    sub = Subspace._canonical(amb, linalg.nullspace(epi.composite(), epi.prime))
    return Embedding(amb, sub)


def realize_lr(t: SkewTableau, prime: int = 2) -> Embedding:
    """Embedding in ``standard_module(prime, t.beta)`` whose LR tableau is exactly ``t``.

    It is the dual of the realization of the mirrored socle tableau;
    ``duallr_to_socle`` rejects a tableau that is not LR, and its result
    has passed ``check_socle`` already.
    """
    return dual_embedding(_kernel_embedding(_build_chain(duallr_to_socle(t), prime)))
