"""Embeddings of an invariant subspace in a module, and their invariants.

An embedding is a pair (sub inside ambient) with the subspace stable
under the operator.  Its shape triple is (type(sub), type(ambient),
type(ambient/sub)).  The socle tableau records the quotient types along
the socle filtration of the subspace, the LR tableau those along the
radical filtration; pickets are the single-block embeddings, and the
Hom-matrix collects the dimensions of homomorphism spaces from all
pickets into the embedding.

Every ambient module is the shared standard module of its type: the dual
embedding keeps its ambient module, and a direct sum lies in the standard
module of the merged block sizes, so every embedding serializes.
"""

import json
import random
from importlib import resources

from . import linalg
from .modules import (
    Subspace,
    _quotient_type,
    _radical_quotient_type,
    _socle_quotient_type,
    _sub_type,
    annihilator,
    block_offsets,
    quotient_type,  # unused here; perfbench/tests checks the tracer rebinds this import
    standard_module,
    submodule_span,
)
from .partitions import Shape, partition, partitions_of
from .tableaux import SkewTableau, _chain_tableau, _is_int, _is_json_int


class PrimeMismatch(ValueError):
    pass


class BadIndex(ValueError):
    pass


class Embedding:
    """Pair (sub inside ambient); sub must be invariant under the operator."""

    __slots__ = ("ambient", "sub", "_shape")

    def __init__(self, ambient, sub):
        if sub.module is not ambient and sub.module != ambient:
            raise ValueError("subspace does not live in the ambient module")
        if not sub.is_invariant():
            raise ValueError("subspace is not invariant under the operator")
        self.ambient = ambient
        self.sub = sub
        self._shape = None

    @classmethod
    def _certified(cls, ambient, sub):
        """Embedding of a subspace of ``ambient`` already known to be invariant."""
        x = cls.__new__(cls)
        x.ambient, x.sub, x._shape = ambient, sub, None
        return x

    @property
    def prime(self):
        return self.ambient.prime

    @property
    def shape(self) -> Shape:
        if self._shape is None:
            # __init__ checked that sub is invariant
            a = _sub_type(self.ambient, self.sub)
            b = self.ambient.parts
            g = _quotient_type(self.ambient, self.sub)
            self._shape = Shape(a, b, g)
        return self._shape

    @property
    def alpha(self):
        return self.shape.alpha

    @property
    def beta(self):
        return self.shape.beta

    @property
    def gamma(self):
        return self.shape.gamma

    def __repr__(self):
        a, b, g = self.shape
        return f"Embedding(alpha={a}, beta={b}, gamma={g}, p={self.prime})"


def picket(prime, ell, m):
    """Single block of length m with its unique invariant subspace of length ell."""
    if ell < 0 or m < 0 or ell > m:
        raise BadIndex(f"picket requires 0 <= ell <= m, got ({ell}, {m})")
    mod = standard_module(prime, (m,))
    rows = [[int(c == m - ell + i) for c in range(m)] for i in range(ell)]
    return Embedding(mod, Subspace(mod, rows))


def direct_sum(x: Embedding, y: Embedding) -> Embedding:
    """Direct sum, in the standard module of the merged block sizes.

    The blocks of x, then those of y, are sorted by a stable descending
    sort, and the coordinates move with their blocks.
    """
    if x.prime != y.prime:
        raise PrimeMismatch(f"primes differ: {x.prime} vs {y.prime}")
    merged = x.ambient.parts + y.ambient.parts
    order = sorted(range(len(merged)), key=lambda j: -merged[j])
    mod = standard_module(x.prime, [merged[j] for j in order])
    offs = block_offsets(merged)
    cols = [offs[j] + i for j in order for i in range(merged[j])]
    rows = [v + [0] * y.ambient.dim for v in x.sub.rows] + [[0] * x.ambient.dim + v for v in y.sub.rows]
    return Embedding(mod, Subspace(mod, [[v[c] for c in cols] for v in rows]))


def _filtration_chain(x: Embedding, read_off, first, last):
    """Quotient types read_off(ambient, sub, i) for i = 0..s, s = alpha[0].

    The end layers are read from the shape: layer 0 has quotient type
    ``first`` and layer s has ``last``; only the interior is computed.
    """
    s = x.alpha[0] if x.alpha else 0
    if s == 0:
        return [first]  # sub = 0, so first == last
    # __init__ checked that sub is invariant
    return [first, *(read_off(x.ambient, x.sub, i) for i in range(1, s)), last]


def socle_tableau(x: Embedding) -> SkewTableau:
    """Tableau of the socle filtration: layer i is the type of ambient / soc^i(sub).

    soc^0(sub) = 0 and soc^s(sub) = sub, so the end layers are beta and gamma.
    """
    chain = _filtration_chain(x, _socle_quotient_type, x.beta, x.gamma)
    return _chain_tableau(chain, "socle")


def lr_tableau(x: Embedding) -> SkewTableau:
    """Tableau of the radical filtration: layer i is the type of ambient / rad^i(sub).

    rad^i(sub) = T^i sub, rad^0(sub) = sub and rad^s(sub) = 0, so the end
    layers are gamma and beta.
    """
    chain = _filtration_chain(x, _radical_quotient_type, x.gamma, x.beta)
    return _chain_tableau(chain, "lr")


def dual_embedding(x: Embedding) -> Embedding:
    """Annihilator of the subspace, in the same module; swaps alpha and gamma."""
    return Embedding(x.ambient, annihilator(x.ambient, x.sub))


class HomMatrix:
    """Triangular integer matrix h[ell][m], 0 <= ell <= L, ell <= m <= M."""

    __slots__ = ("L", "M", "rows")

    def __init__(self, L, M, rows):
        if not (_is_json_int(L) and _is_json_int(M) and L >= 0 and M >= 0):
            raise ValueError(f"L and M must be nonnegative integers, got {L!r} and {M!r}")
        self.L = L
        self.M = M
        self.rows = [list(r) for r in rows]
        if len(self.rows) != L + 1:
            raise ValueError("expected L+1 rows")
        for ell, row in enumerate(self.rows):
            if len(row) != M + 1:
                raise ValueError("expected M+1 cells per row")
            for m, v in enumerate(row):
                if m < ell and v is not None:
                    raise ValueError(f"cell ({ell},{m}) must be absent")
                if m >= ell and (not _is_json_int(v) or v < 0):
                    raise ValueError(f"cell ({ell},{m}) must be a nonnegative integer")

    def value(self, ell, m):
        """Entry with the boundary conventions: 0 for any negative index."""
        if ell < 0 or m < 0:
            return 0
        if ell > self.L or m > self.M or m < ell:
            raise BadIndex(f"({ell},{m}) outside the stored triangle")
        return self.rows[ell][m]

    def __eq__(self, other):
        if not isinstance(other, HomMatrix):
            return NotImplemented
        return self.L == other.L and self.M == other.M and self.rows == other.rows

    def __repr__(self):
        return f"HomMatrix(L={self.L}, M={self.M})"

    def render(self) -> str:
        lines = []
        for ell, row in enumerate(self.rows):
            cells = [("." if v is None else str(v)).rjust(3) for v in row]
            lines.append(f"l={ell}:" + "".join(cells))
        return "\n".join(lines)

    def to_json_dict(self):
        return {"L": self.L, "M": self.M, "h": [list(r) for r in self.rows]}

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of to_json_dict; ValueError unless data is an object with int L, M and a list h of lists."""
        if not isinstance(data, dict) or not {"L", "M", "h"} <= data.keys():
            raise ValueError("Hom-matrix JSON must be an object with keys L, M and h")
        L, M, rows = data["L"], data["M"], data["h"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("h must be a list of rows, each a list")
        return cls(L, M, rows)


def _picket_constraints(x: Embedding, ell, m):
    """Rows whose common kernel is {b : T^m b = 0 and T^(m-ell) b in sub}.

    That space holds the images of the generator under the maps from the
    (ell, m) picket into x, so its dimension is that of the Hom space.
    T^m b = 0 iff b vanishes on high(m), where the unit rows stand.
    """
    mod = x.ambient
    units = [[int(c == k) for c in range(mod.dim)] for k in mod._high_cols(m)]
    return units + mod.shift(x.sub.annihilator_basis, ell - m)


def hom_matrix(x: Embedding) -> HomMatrix:
    """Hom dimensions from every picket into x, with one stabilized margin."""
    alpha, beta = x.alpha, x.beta
    L = (alpha[0] if alpha else 0) + 1
    M = (alpha[0] if alpha else 0) + (beta[0] if beta else 0) + 1
    n, p = x.ambient.dim, x.prime
    rows = []
    for ell in range(L + 1):
        row = [None] * (M + 1)
        for m in range(ell, M + 1):
            row[m] = n - len(linalg._pivot_rows(_picket_constraints(x, ell, m), n, p))
        rows.append(row)
    return HomMatrix(L, M, rows)


# ---------------------------------------------------------------------------
# serialization and fixtures

def embedding_spec(beta, generators) -> dict:
    """Prime-free description: ambient block sizes plus per-block generator coefficients.

    ``beta`` is a list of int block sizes and ``generators`` a list whose
    items hold one list of int coefficients per block; ValueError otherwise.
    """
    if not isinstance(beta, (list, tuple)) or not all(map(_is_int, beta)):
        raise ValueError(f"beta must be a list of integers, got {beta!r}")
    if not isinstance(generators, (list, tuple)):
        raise ValueError(f"generators must be a list, got {generators!r}")
    beta = partition(beta)
    gens = []
    for gen in generators:
        if not isinstance(gen, (list, tuple)) or len(gen) != len(beta):
            raise ValueError("each generator needs one coefficient list per block")
        for coeffs, size in zip(gen, beta):
            if not isinstance(coeffs, (list, tuple)) or len(coeffs) != size:
                raise ValueError("coefficient list length must match the block size")
            if not all(map(_is_int, coeffs)):
                raise ValueError(f"coefficients must be integers, got {coeffs!r}")
        gens.append([[int(v) for v in coeffs] for coeffs in gen])
    return {"beta": list(beta), "generators": gens}


def embedding_from_spec(spec, prime) -> Embedding:
    spec = embedding_spec(spec["beta"], spec["generators"])
    mod = standard_module(prime, spec["beta"])
    p = mod.prime
    # reduced in Python first, so no coefficient overflows int64
    vecs = [[v % p for coeffs in gen for v in coeffs] for gen in spec["generators"]]
    return Embedding(mod, submodule_span(mod, vecs))


def embedding_to_json(x: Embedding) -> dict:
    """JSON form: the block sizes and one generator per basis row of the subspace."""
    beta = x.ambient.parts
    offs = block_offsets(beta)
    gens = [[v[o : o + size] for o, size in zip(offs, beta)] for v in x.sub.rows]
    d = embedding_spec(beta, gens)
    return {"prime": x.prime, **d}


def embedding_from_json(data, prime=None) -> Embedding:
    """Embedding of a JSON object; ``prime`` overrides its stored prime (default 2).

    ValueError unless data is an object whose stored prime, if any, is an int.
    """
    if not isinstance(data, dict):
        raise ValueError("embedding JSON must be an object")
    stored = data.get("prime", 2)
    if not _is_int(stored):
        raise ValueError(f"prime must be an integer, got {stored!r}")
    return embedding_from_spec(data, stored if prime is None else prime)


def load_fixture(name, prime=None) -> Embedding:
    """Bundled example embeddings: 'm1', 'm2', 'm3'."""
    text = resources.files("soctab").joinpath(f"fixtures/{name}.json").read_text()
    return embedding_from_json(json.loads(text), prime=prime)


# ---------------------------------------------------------------------------
# random corpus

def random_embedding_spec(rng: random.Random, max_weight: int) -> dict:
    """Random ambient type and 0/1 generator coefficients.  The spec is the
    same at every prime, its embedding need not be: the generators (1, 0, 1),
    (0, 1, 1), (1, 1, 0) in blocks (1, 1, 1) span 2 dimensions mod 2, 3 mod p > 2."""
    w = rng.randint(1, max_weight)
    parts = _random_partition(rng, w)
    g = rng.randint(1, 3)
    gens = []
    for _ in range(g):
        gens.append([[rng.randint(0, 1) for _ in range(size)] for size in parts])
    return embedding_spec(parts, gens)


def _random_partition(rng: random.Random, n: int) -> tuple:
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        x = rng.randint(1, min(bound, remaining))
        parts.append(x)
        bound = x
        remaining -= x
    return partition(parts)


def random_corpus(seed: int, count: int, max_weight: int) -> list:
    """Deterministic list of embedding specs; duplicates are discarded.

    A spec of weight w is a partition of w with one to three generators of
    w coefficients each, so p(w) (2^w + 4^w + 8^w) specs have weight w.
    ValueError when fewer than ``count`` specs have weight <= max_weight.
    """
    distinct = 0
    for w in range(1, max_weight + 1):
        if distinct >= count:
            break
        distinct += sum(1 for _ in partitions_of(w)) * (2**w + 4**w + 8**w)
    if distinct < count:
        raise ValueError(
            f"only {distinct} distinct embedding specs have weight <= {max_weight}; "
            f"cannot draw {count}"
        )
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        spec = random_embedding_spec(rng, max_weight)
        key = json.dumps(spec, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        out.append(spec)
    return out
