"""Closed-form conversions between the socle tableau, the dual LR tableau,
and the Hom-matrix, plus the cokernel defect of the canonical picket map,
computed from the picket Hom spaces of the embedding alone.

Entry multiplicities are plain dicts mu[(entry, row)] -> count; a tableau
of known kind and ambient is reconstructible from its multiplicity map,
whose cumulative row sums are the row lengths of its partition chain.
"""

from functools import lru_cache
from itertools import accumulate, zip_longest
from operator import lt, sub

from . import linalg
from .embeddings import BadIndex, Embedding, HomMatrix, _picket_constraints
from .partitions import part, partition, transpose
from .tableaux import (
    InvalidTableau,
    SkewTableau,
    _chain_layers,
    _chain_tableau,
    _interned,
    _unpad,
    check_lr,
    check_socle,
)


class InconsistentMatrix(ValueError):
    """Raised when a Hom-matrix does not come from any tableau."""


def entry_multiplicities(t: SkewTableau) -> dict:
    """mu[(entry, row)] -> count for all present entries."""
    mu = {}
    for (r, _c), v in t.entries.items():
        mu[(v, r)] = mu.get((v, r), 0) + 1
    return mu


def _mu(mu, entry, row):
    return mu.get((entry, row), 0)


def tableau_from_mu(kind: str, beta: tuple, mu: dict) -> SkewTableau:
    """Rebuild a tableau of the given kind on ambient beta from its multiplicities.

    Layer i of its chain has the row lengths of beta less the entries <= i
    (socle kind), or of the inner shape plus them (LR kind).
    """
    beta = partition(beta)
    rows = transpose(beta)
    nrows = len(rows)
    for (entry, row), cnt in mu.items():
        if cnt < 0:
            raise InconsistentMatrix(f"negative multiplicity at {(entry, row)}")
        if cnt > 0 and not (1 <= row <= nrows and entry >= 1):
            raise InconsistentMatrix(f"multiplicity outside the diagram at {(entry, row)}")
    s = max((e for (e, _r), cnt in mu.items() if cnt), default=0)
    # filled[i][r-1] is the number of entries <= i in row r
    filled = [(0,) * nrows]
    for e in range(1, s + 1):
        filled.append(tuple(f + _mu(mu, e, r) for r, f in enumerate(filled[-1], 1)))
    if kind == "socle":
        layers = [[b - f for b, f in zip(rows, fs)] for fs in filled]
    else:
        inner = [b - f for b, f in zip(rows, filled[-1])]
        layers = [[g + f for g, f in zip(inner, fs)] for fs in filled]
    try:
        t = _chain_tableau([transpose(tuple(layer)) for layer in layers], kind)
    except ValueError as exc:
        raise InconsistentMatrix(str(exc)) from exc
    if not (check_socle(t) if kind == "socle" else check_lr(t)):
        raise InconsistentMatrix(f"reconstructed filling violates the {kind} axioms")
    return t


# ---------------------------------------------------------------------------
# socle tableau <-> Hom-matrix


def socle_to_hom(t: SkewTableau) -> HomMatrix:
    """h[l][m] = |soc^l(sub)| + first (m - l) row lengths of the level-l layer."""
    if not check_socle(t):
        raise InvalidTableau("socle tableau expected")
    chain = _chain_layers(t, "socle")
    s = len(chain) - 1
    acols = transpose(t.alpha)
    a1 = t.alpha[0] if t.alpha else 0
    b1 = t.beta[0] if t.beta else 0
    L, M = a1 + 1, a1 + b1 + 1
    rows = []
    for ell in range(L + 1):
        soc = sum(acols[:min(ell, len(acols))])
        layer = transpose(chain[min(ell, s)])
        row = [None] * (M + 1)
        for m in range(ell, M + 1):
            row[m] = soc + sum(layer[: m - ell])
        rows.append(row)
    return HomMatrix(L, M, rows)


def _socle_params_from_hom(h: HomMatrix):
    """Derive (beta, alpha_rows) from a Hom-matrix; raise when malformed."""
    if h.value(0, 0) != 0:
        raise InconsistentMatrix("h[0][0] must be 0")
    beta_rows = [h.value(0, m) - h.value(0, m - 1) for m in range(1, h.M + 1)]
    if any(x < 0 for x in beta_rows) or any(
        b > a for a, b in zip(beta_rows, beta_rows[1:])
    ):
        raise InconsistentMatrix("row 0 differences are not a transposed partition")
    if beta_rows and beta_rows[-1] != 0:
        raise InconsistentMatrix("row 0 did not stabilize inside the matrix")
    alpha_rows = [h.value(ell, ell) - h.value(ell - 1, ell - 1) for ell in range(1, h.L + 1)]
    if any(x < 0 for x in alpha_rows) or any(
        b > a for a, b in zip(alpha_rows, alpha_rows[1:])
    ):
        raise InconsistentMatrix("diagonal differences are not a transposed partition")
    if alpha_rows and alpha_rows[-1] != 0:
        raise InconsistentMatrix("diagonal did not stabilize inside the matrix")
    while beta_rows and beta_rows[-1] == 0:
        beta_rows.pop()
    while alpha_rows and alpha_rows[-1] == 0:
        alpha_rows.pop()
    return transpose(tuple(beta_rows)), alpha_rows


def hom_to_socle(h: HomMatrix) -> SkewTableau:
    """Inverse of socle_to_hom via the four-term multiplicity formula."""
    beta, alpha_rows = _socle_params_from_hom(h)
    s = len(alpha_rows)
    b1 = beta[0] if beta else 0
    if s + b1 > h.M:
        raise InconsistentMatrix("matrix too small for the derived shape")
    mu = {}
    for ell in range(1, s + 1):
        for r in range(1, b1 + 1):
            m = r + ell
            v = (
                h.value(ell, m - 1)
                - h.value(ell, m)
                - h.value(ell - 1, m - 2)
                + h.value(ell - 1, m - 1)
            )
            if v < 0:
                raise InconsistentMatrix(f"negative multiplicity for entry {ell} row {r}")
            if v:
                mu[(ell, r)] = v
    for ell in range(1, s + 1):
        if sum(_mu(mu, ell, r) for r in range(1, b1 + 1)) != alpha_rows[ell - 1]:
            raise InconsistentMatrix(f"entry {ell} count disagrees with the diagonal")
    t = tableau_from_mu("socle", beta, mu)
    if socle_to_hom(t) != h:
        raise InconsistentMatrix("matrix is not realized by any socle tableau")
    return t


# ---------------------------------------------------------------------------
# dual LR tableau <-> Hom-matrix


def duallr_to_hom(t: SkewTableau) -> HomMatrix:
    """h[r][m] = first m row lengths of the layer m - r of the dual LR chain."""
    if not check_lr(t):
        raise InvalidTableau("LR tableau expected")
    chain = _chain_layers(t, "lr")
    tmax = len(chain) - 1
    layers = [transpose(lam) for lam in chain]
    a1 = t.gamma[0] if t.gamma else 0  # inner shape of the dual LR tableau
    b1 = t.beta[0] if t.beta else 0
    L, M = a1 + 1, a1 + b1 + 1
    rows = []
    for r in range(L + 1):
        row = [None] * (M + 1)
        for m in range(r, M + 1):
            lam = layers[min(m - r, tmax)]
            row[m] = sum(lam[:m])
        rows.append(row)
    return HomMatrix(L, M, rows)


def _hom_value_saturated(h: HomMatrix, s: int, ell: int, m: int) -> int:
    """Stored value extended by the shift rule h[l][m] = h[s][m-l+s] for l > s."""
    if ell < 0 or m < 0:
        return 0
    if m < ell:
        raise BadIndex(f"no picket with ({ell},{m})")
    if ell <= h.L and m <= h.M:
        return h.value(ell, m)
    if ell > s:
        return _hom_value_saturated(h, s, s, m - (ell - s))
    # column saturation: values are constant once m reaches beta_1 + ell
    return h.value(ell, h.M)


def hom_to_duallr(h: HomMatrix) -> SkewTableau:
    """Inverse of duallr_to_hom via the two-case multiplicity formula."""
    beta, alpha_rows = _socle_params_from_hom(h)
    s = len(alpha_rows)
    b1 = beta[0] if beta else 0
    mu = {}
    for m in range(1, b1 + 1):
        for ell in range(1, m + 1):
            if ell == m:
                v = h.value(0, m) - _hom_value_saturated(h, s, 1, m)
            else:
                r = m - ell
                v = (
                    _hom_value_saturated(h, s, r, m)
                    - _hom_value_saturated(h, s, r + 1, m)
                    - _hom_value_saturated(h, s, r - 1, m - 1)
                    + _hom_value_saturated(h, s, r, m - 1)
                )
            if v < 0:
                raise InconsistentMatrix(f"negative multiplicity for entry {ell} row {m}")
            if v:
                mu[(ell, m)] = v
    t = tableau_from_mu("lr", beta, mu)
    if duallr_to_hom(t) != h:
        raise InconsistentMatrix("matrix is not realized by any dual LR tableau")
    return t


# ---------------------------------------------------------------------------
# socle tableau <-> dual LR tableau, directly


def socle_to_duallr(t: SkewTableau) -> SkewTableau:
    """Dual LR tableau with the same Hom-matrix, built without the matrix."""
    if not check_socle(t):
        raise InvalidTableau("socle tableau expected")
    # the layers are canonical partitions, so only the chain is validated
    out = _chain_tableau(_socle_chain_to_duallr(_chain_layers(t, "socle")), "lr")
    if out.shape != (t.gamma, t.beta, t.alpha):
        raise InvalidTableau(f"dual LR tableau has shape {tuple(out.shape)}, not the swapped shape")
    return out


def _socle_chain_to_duallr(chain) -> tuple:
    """The closed form of ``socle_to_duallr``, from chain to chain.

    ``chain`` is a socle chain from beta down to gamma (padded partitions
    allowed); the result is the dual LR chain of canonical partitions.
    Its layer ell has the row lengths of beta in rows m <= ell, and in row
    m > ell the number of entries m - ell below row ell: the boxes of
    chain[m - ell - 1] below row ell less those of chain[m - ell].
    """
    beta = chain[0]
    beta_rows = transpose(beta)
    b1 = len(beta_rows)
    # column r: the boxes below row r in each member a layer reads
    below = zip_longest(*map(_boxes_below, chain[:b1 + 1]), fillvalue=0)
    out = []
    for ell, col in zip(range(part(chain[-1], 1) + 1), below):
        # a display, not tuple(map(...)): that tuple is built oversized and
        # shrunk, and each one freed stays on the interpreter's free lists
        out.append(_dual_layer((*beta_rows[:ell], *map(sub, col, col[1:b1 - ell + 1]))))
    if out[-1] != beta:
        raise InvalidTableau("derived chain does not reach the ambient shape")
    return tuple(out)


@lru_cache(maxsize=1024)
def _boxes_below(p) -> tuple:
    """below[r]: the number of boxes of partition ``p`` below row r, for r = 0..p[0]."""
    below = list(accumulate(reversed(transpose(p)), initial=0))
    below.reverse()
    return tuple(below)


@lru_cache(maxsize=4096)
def _dual_layer(rows) -> tuple:
    """The partition with row lengths ``rows``, trailing zeros allowed.

    A sweep's chains share their layers, so each distinct row tuple is
    checked and transposed once while it stays in the cache.
    """
    rows = _unpad(rows)
    if any(map(lt, rows, rows[1:])):
        raise InvalidTableau("derived layer is not a partition")
    # cached here, not in transpose's cache too; the layers of an enumerated
    # chain are members of enumerated LR chains, so the strip lists hold them
    layer = transpose.__wrapped__(rows)
    return _interned.get(layer, layer)


def _duallr_chain_to_socle(chain) -> tuple:
    """The inverse of ``_socle_chain_to_duallr``, from chain to chain: with
    L(j, m) row m of layer j, which for m > j counts the entries m - j below
    row j, row r of the socle tableau holds L(r-1, r-1+e) - L(r, r+e) entries e."""
    rows = [transpose(lam) for lam in chain]
    rows += rows[-1:] * len(rows[-1])  # L(j, m) reads the last layer for every j past it
    layer = rows[-1]  # the rows of beta
    out = [transpose(layer)]
    for e in range(1, part(chain[0], 1) + 1):
        layer = tuple(x - part(rows[r - 1], r - 1 + e) + part(rows[r], r + e) for r, x in enumerate(layer, 1))
        out.append(transpose(layer))  # raises unless a partition
    return tuple(out)


def duallr_to_socle(t: SkewTableau) -> SkewTableau:
    """Socle tableau with the same Hom-matrix, built without the matrix."""
    if not check_lr(t):
        raise InvalidTableau("LR tableau expected")
    out = _chain_tableau(_duallr_chain_to_socle(_chain_layers(t, "lr")), "socle")
    if not check_socle(out):
        raise InvalidTableau("mirrored filling violates the socle axioms")
    if out.shape != (t.gamma, t.beta, t.alpha):
        raise InvalidTableau(f"socle tableau has shape {tuple(out.shape)}, not the swapped shape")
    return out


# ---------------------------------------------------------------------------
# the defect of the canonical picket map


def defect(x: Embedding, ell: int, m: int) -> int:
    """Cokernel length of precomposition with the canonical picket map.

    The map goes from the (ell, m-1) picket into the direct sum of the
    (ell, m) and (ell-1, m-2) pickets.  The defect equals the multiplicity
    of entry ell in row m - ell of the socle tableau of x.
    """
    if ell < 1 or m <= ell:
        raise BadIndex(f"defect requires 1 <= ell < m, got ({ell},{m})")
    return _defect(x, ell, m, {})


def defect_table(x: Embedding) -> dict:
    """{(ell, m): defect(x, ell, m)} over every cell the socle tableau can fill.

    That is 1 <= ell <= alpha_1 and ell < m <= alpha_1 + beta_1, with ell
    then m increasing; every other defect is 0.  Neighbouring cells share
    picket Hom spaces, so the call solves each of them once.
    """
    a1 = x.alpha[0] if x.alpha else 0
    b1 = x.beta[0] if x.beta else 0
    memo = {}
    return {
        (ell, m): _defect(x, ell, m, memo)
        for ell in range(1, a1 + 1)
        for m in range(ell + 1, a1 + b1 + 1)
    }


def _defect(x, ell, m, memo):
    top = _picket_maps(x, ell, m - 1, memo)
    v1 = _picket_maps(x, ell, m, memo)
    v2 = _picket_maps(x, ell - 1, m - 2, memo)
    # the precomposed maps are spanned by T v1 and v2
    maps = x.ambient.shift(v1, 1) + v2
    return len(top) - len(linalg._pivot_rows(maps, x.ambient.dim, x.prime))


def _picket_maps(x, ell, m, memo):
    """The maps from the (ell, m) picket into x, as the solutions v of
    T^m v = 0, T^(m-ell) v in sub; solved once per ``memo``."""
    if (ell, m) not in memo:
        memo[ell, m] = linalg._null_rows(_picket_constraints(x, ell, m), x.ambient.dim, x.prime)
    return memo[ell, m]
