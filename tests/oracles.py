"""Reference computations that several test files check the library against."""

import random
from itertools import groupby, zip_longest
from operator import gt, lt

import numpy as np

from soctab import checks, linalg, switching
from soctab.modules import Subspace, block_offsets, standard_module, zero_subspace
from soctab.partitions import NotContained, Shape, contains, part, partition, shape_triples, transpose
from soctab.realize import ConditionStarViolated, EpiChain
from soctab.tableaux import (
    InvalidTableau,
    MatchingFailed,
    _chain_layers,
    _chain_start,
    _chain_tableau,
    _steps,
    _strip_columns,
    _unpad,
    build_matching,
    check_socle,
    check_st3_prime,
)


def is_horizontal_strip(beta, gamma):
    """True iff every column of beta \\ gamma holds at most one box."""
    if not contains(beta, gamma):
        raise NotContained(f"{gamma} is not contained in {beta}")
    return all(beta[c] - part(gamma, c + 1) <= 1 for c in range(len(beta)))


def format_partition(p):
    return ",".join(str(x) for x in p)


def format_shape(s):
    return "/".join(format_partition(p) for p in s)


def to_chain(t, view):
    """Partition chain of ``t``; view is 'socle' (decreasing) or 'lr' (increasing)."""
    chain = []
    for i, layer in enumerate(_chain_layers(t, view)):
        try:
            chain.append(partition(layer))
        except ValueError:
            raise InvalidTableau(
                f"level-{i} layer is not a partition; tableau violates the {view} axioms"
            )
    _chain_tableau(chain, view)  # validates the chain
    return tuple(chain)


def from_chain(chain, view):
    """Inverse of to_chain; accepts trailing constant repeats and canonicalizes."""
    return _chain_tableau([partition(p) for p in chain], view)


def shift(module, mat, r):
    """``module.shift`` on the rows of an int64 array, as an int64 array."""
    return linalg._to_array(module.shift(mat.tolist(), r), module.dim)


def basis(sub):
    """``sub.rows`` as an int64 array."""
    return linalg._to_array(sub.rows, sub.module.dim)


def annihilator_array(sub):
    """``sub.annihilator_basis`` as an int64 array."""
    return linalg._to_array(sub.annihilator_basis, sub.module.dim)


def rank(mat, p):
    """Rank of an int64 matrix, by ``linalg._eliminate`` on its rows."""
    return len(linalg._eliminate(linalg._to_rows(mat, p), mat.shape[1], p)[0])


def row_space(mat, p):
    """Canonical (rref) basis of the row space of an int64 matrix, as an int64 array."""
    ncols = mat.shape[1]
    return linalg._to_array(linalg._eliminate(linalg._to_rows(mat, p), ncols, p)[0], ncols)


def nullspace(mat, p):
    """Canonical basis of {x : mat @ x = 0}, as the rows of an int64 array."""
    ncols = mat.shape[1]
    return linalg._to_array(linalg._null_rows(linalg._to_rows(mat, p), ncols, p), ncols)


def intersection(a, b, p):
    """Canonical basis of span(a) & span(b): the common kernel of both annihilators."""
    return nullspace(np.vstack([nullspace(a, p), nullspace(b, p)]), p)


def _type_from_ker_dims(ker_dims):
    """Partition with ker_dims[r] - ker_dims[r - 1] boxes in row r (ker_dims[0] = 0)."""
    rows = [b - a for a, b in zip(ker_dims, ker_dims[1:]) if b > a]
    return tuple(sum(1 for n in rows if n >= c) for c in range(1, rows[0] + 1)) if rows else ()


def quotient_type(module, sub):
    """Type of module/sub: dim ker T^r there is dim {v : T^r v in sub} - dim sub,
    and T^r v lies in sub iff every functional vanishing on sub kills it."""
    ann, p = annihilator_array(sub), module.prime
    return _type_from_ker_dims(
        [module.dim - rank(shift(module, ann, -r), p) - sub.dim
         for r in range(module.nilpotency_index + 1)]
    )


def sub_type(module, sub):
    """Type of sub: dim ker T^r there is dim sub - rank(T^r sub)."""
    p = module.prime
    return _type_from_ker_dims(
        [sub.dim - rank(shift(module, basis(sub), r), p)
         for r in range(module.nilpotency_index + 1)]
    )


def invariant_by_product(sub):
    """True iff T maps sub into itself, by one int64 product: with B the reduced
    basis and piv its pivot columns, TB = (TB)[:, piv] @ B mod p."""
    if sub.dim == 0:
        return True
    b, m = basis(sub), sub.module
    tb = shift(m, b, 1)
    piv = [row.index(1) for row in b.tolist()]  # each row leads with a 1
    return np.array_equal(tb[:, piv] @ b % m.prime, tb)


def pivot_keys_by_array(rows, p, order, keys):
    """``modules._pivot_keys`` at a prime p, on an int64 array: the pivot
    columns of rref(rows[:, order])."""
    pivots = linalg.rref(linalg.asmat(rows, len(order), p)[:, list(order)], p)[1]
    return [keys[k] for k in pivots if keys[k] is not None]


def is_subspace(small, big, p):
    """True iff span(small) is contained in span(big)."""
    return rank(np.vstack([big, small]), p) == rank(big, p)


def full_subspace(module):
    return Subspace(module, np.eye(module.dim, dtype=np.int64))


def soc_layer(module, sub, ell):
    """{a in sub : T^ell a = 0}, from the columns of sub's basis in high(ell)."""
    p = module.prime
    if ell <= 0 or sub.dim == 0:
        return zero_subspace(module)
    # coefficients x with T^ell (x . basis) = 0, that is x . basis[:, high(ell)] = 0;
    # the product of two reduced row-echelon matrices in this order is one
    b = basis(sub)
    coeffs = nullspace(b[:, module._high_cols(ell)].T, p)
    return Subspace._canonical(module, ((coeffs @ b) % p).tolist())


def soc_layer_by_shift(module, sub, ell):
    """{a in sub : T^ell a = 0}, from the kernel of T^ell on sub's basis."""
    p = module.prime
    if ell <= 0 or sub.dim == 0:
        return zero_subspace(module)
    b = basis(sub)
    coeffs = nullspace(shift(module, b, ell).T, p)
    return Subspace(module, (coeffs @ b) % p)


def rad_layer(module, sub, m):
    """T^m applied to sub."""
    return Subspace._canonical(
        module, row_space(shift(module, basis(sub), m), module.prime).tolist()
    )


def preimage(module, sub, r):
    """{b in module : T^r b in sub}: where f T^r vanishes for every f vanishing on sub.

    When no functional vanishes on sub (sub is the whole module), that is everything.
    """
    return Subspace._canonical(
        module, nullspace(shift(module, annihilator_array(sub), -r), module.prime).tolist()
    )


class _SwitchGeometry:
    """Box lists of the diagram of beta, as (r, c)-keyed dicts."""

    def __init__(self, beta):
        rows = transpose(beta)
        self.rows = rows
        row_lines = [[(r, c) for c in range(1, n + 1)] for r, n in enumerate(rows, 1)]
        col_lines = [[(r, c) for r in range(1, n + 1)] for c, n in enumerate(beta, 1)]
        self.up, self.down, self.left, self.right = {}, {}, {}, {}
        for line in row_lines:
            for i, box in enumerate(line):
                self.left[box], self.right[box] = line[:i], line[i + 1 :]
        for line in col_lines:
            for i, box in enumerate(line):
                self.up[box], self.down[box] = line[:i], line[i + 1 :]
        # each box in row-major order, with the S boxes a T box there could swap with
        self.targets = {
            box: (self.up[box][-1] if self.up[box] else None, self.left[box][-1] if self.left[box] else None)
            for line in row_lines
            for box in line
        }


class SwitchState:
    """The dict-based switching engine that ``soctab.switching`` is checked against.

    ``owner`` maps each box of beta to "S" or "T", ``entry`` to its value,
    and every swap rescans whole lines of boxes.
    """

    def __init__(self, beta, owner, entry):
        self.beta = partition(beta)
        self.owner = dict(owner)
        self.entry = dict(entry)
        self.history = []
        self.geo = _SwitchGeometry(self.beta)

    def copy(self):
        st = SwitchState(self.beta, self.owner, self.entry)
        st.history = list(self.history)
        return st

    def _fits(self, who, v, before, after, strict):
        owner, entry = self.owner, self.entry
        for b in before:
            if owner[b] == who and (entry[b] >= v if strict else entry[b] > v):
                return False
        for b in after:
            if owner[b] == who and (entry[b] <= v if strict else entry[b] < v):
                return False
        return True

    def exchange_ok(self, sbox, tbox, vertical):
        """Both moved values keep their order across the crossing line of the swap."""
        geo = self.geo
        s_val, t_val = self.entry[sbox], self.entry[tbox]
        if vertical:
            return self._fits("T", t_val, geo.left[sbox], geo.right[sbox], False) and self._fits(
                "S", s_val, geo.left[tbox], geo.right[tbox], False
            )
        return self._fits("T", t_val, geo.up[sbox], geo.down[sbox], True) and self._fits(
            "S", s_val, geo.up[tbox], geo.down[tbox], True
        )

    def apply(self, sbox, tbox):
        self.history.append((self.entry[sbox], self.entry[tbox], sbox, tbox))
        self.owner[sbox], self.owner[tbox] = self.owner[tbox], self.owner[sbox]
        self.entry[sbox], self.entry[tbox] = self.entry[tbox], self.entry[sbox]

    def admissible_swaps(self):
        owner = self.owner
        out = []
        for box, (up, left) in self.geo.targets.items():
            if owner[box] != "T":
                continue
            if up is not None and owner[up] == "S" and self.exchange_ok(up, box, True):
                out.append((up, box))
            if left is not None and owner[left] == "S" and self.exchange_ok(left, box, False):
                out.append((left, box))
        return out


def init_switch(t):
    """Superstandard S filling of gamma, and the socle tableau t inverted outside it."""
    s = t.max_entry()
    owner, entry = {}, {}
    grows = transpose(t.gamma)
    for r in range(1, len(grows) + 1):
        for c in range(1, grows[r - 1] + 1):
            owner[(r, c)], entry[(r, c)] = "S", r
    for box, v in t.entries.items():
        owner[box], entry[box] = "T", s + 1 - v
    return SwitchState(t.beta, owner, entry)


def run_switch(state, order="deterministic", rng=None):
    """Swap until terminal, in the deterministic or the seeded-random order."""
    st = state.copy()
    owner, entry, targets = st.owner, st.entry, st.geo.targets
    if order == "deterministic":
        moved = True
        while moved:
            moved = False
            for v, box in sorted((entry[b], b) for b, who in owner.items() if who == "T"):
                if owner[box] != "T" or entry[box] != v:
                    continue  # displaced earlier in this pass
                cur = box
                while True:
                    up, left = targets[cur]
                    if up is not None and owner[up] == "S" and st.exchange_ok(up, cur, True):
                        st.apply(up, cur)
                        cur = up
                    elif left is not None and owner[left] == "S" and st.exchange_ok(left, cur, False):
                        st.apply(left, cur)
                        cur = left
                    else:
                        break
                    moved = True
    else:
        while True:
            swaps = st.admissible_swaps()
            if not swaps:
                break
            st.apply(*rng.choice(swaps))
    return st


def map_arrays(epi):
    """The maps of an ``EpiChain`` as int64 arrays, each as wide as its source
    stage; a map of another width raises ValueError."""
    return [np.array(f, dtype=np.int64).reshape(len(f), src.dim) for f, src in zip(epi.maps, epi.stages)]


def composite(epi):
    """Matrix of the full composition C0 -> Cs of an ``EpiChain``."""
    out = np.eye(epi.stages[0].dim, dtype=np.int64)
    for f in map_arrays(epi):
        out = (f @ out) % epi.prime
    return out


def build_chain(t, prime):
    """The realizing chain of the socle tableau ``t`` on int64 matrices, built
    again at each prime, with ``soctab.realize``'s checks and messages.

    Each map is the canonical surjection g of blocks, corrected by h @ g, and
    its kernel is taken by ``nullspace``; condition star is checked on
    the product (f2 @ f1)[:, S] for the socle coordinates S of each stage.
    """
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
        cols = [soffs[j] + i for j in range(width) for i in range(dst[j])]
        g = np.zeros((sum(dst), sum(src)), dtype=np.int64)
        g[range(len(cols)), cols] = 1
        if ell < s:
            g = (_correction(t, layers[ell], doffs, ell) @ g) % prime
        maps.append(g)
        kernels.append(nullspace(g, prime))
        if sum(src) - kernels[-1].shape[0] != sum(dst):
            raise ConditionStarViolated(f"stage {ell} map is not surjective")
        if sum(src) - sum(dst) != acols[ell - 1]:
            raise ConditionStarViolated(f"stage {ell} kernel has the wrong length")
    for idx in range(s - 1):
        stage, f1, f2, ker1 = stages[idx], maps[idx], maps[idx + 1], kernels[idx]
        socle = [o + n - 1 for o, n in zip(block_offsets(stage.parts), stage.parts)]
        meet = len(socle) - rank((f2 @ f1[:, socle]) % prime, prime)
        if ker1[:, stage._high_cols(1)].any() or meet != ker1.shape[0]:
            raise ConditionStarViolated(f"socle condition fails between stages {idx+1},{idx+2}")
    return EpiChain(prime, stages, maps)


def _correction(t, layer, offs, ell):
    """Unipotent automorphism pairing columns along the cross matches at level ell."""
    n = sum(layer)
    rows, cols = list(range(n)), list(range(n))  # the identity, then the inclusions
    used = set()
    for hi_box, lo_box in build_matching(t, ell).pairs.items():
        j, i = hi_box[1] - 1, lo_box[1] - 1
        if i == j:
            continue
        if i in used or j in used:
            raise ConditionStarViolated("column pairing is not disjoint")
        used.update((i, j))
        u, v = layer[i], layer[j]
        if not (i < j and u >= v >= 1):
            raise ConditionStarViolated(f"bad column pair ({i+1},{j+1}) at level {ell}")
        # inclusion of the length-v block into the length-u one: p^k -> p^(u-v+k)
        rows += range(offs[i] + u - v, offs[i] + u)
        cols += range(offs[j], offs[j] + v)
    h = np.zeros((n, n), dtype=np.int64)
    h[rows, cols] = 1
    return h


def realized_basis(epi):
    """Reduced echelon basis of the kernel of the chain's full composite."""
    if not epi.maps:
        return basis(zero_subspace(epi.stages[0]))
    return nullspace(composite(epi), epi.prime)


def lr_chain_shape(chain):
    """Shape of the LR tableau with the chain ``chain``, or None if there is none.

    ``chain`` holds canonical partitions, increasing from gamma to beta.
    It is read on its own: each step must add a horizontal strip, and the
    i-th largest column of each strip must be <= the i-th largest of the
    strip before, which is the lattice condition and keeps the strip
    sizes weakly decreasing.
    """
    sizes = []
    prev = None
    for small, big in zip(chain, chain[1:]):
        n = len(small)
        if n > len(big):
            return None
        cols = []
        for c, b in enumerate(big):
            d = b - small[c] if c < n else b
            if d:
                if d != 1:
                    return None
                cols.append(c)
        if prev is not None and (
            len(cols) > len(prev) or any(map(gt, reversed(cols), reversed(prev)))
        ):
            return None
        sizes.append(len(cols))
        prev = cols
    return Shape(transpose(tuple(sizes)), chain[-1], chain[0])


def beta_chains(beta, kind):
    """``soctab.tableaux._beta_chains`` without the shared move cache: every
    visit searches its strips again, on partitions padded to the width of beta."""
    beta = partition(beta)
    socle = kind == "socle"
    n = len(beta)
    cap = beta[0] if beta else 0  # no gap exceeds it, so no column is forced
    found = {}  # (strip sizes in chain order, gamma) -> chains

    def rec(part, prev, sizes, acc):
        found.setdefault((sizes, acc[-1] if socle else acc[0]), []).append(acc)
        if prev is None:
            ks = range(1, n + 1)
        else:
            ks = range(1, len(prev) + 1) if socle else range(len(prev), n + 1)
        for k in ks:
            if prev is None:
                bound = None
            elif socle:
                bound = prev[:k]
            else:
                bound = (0,) * (k - len(prev)) + prev
            for cols in _strip_columns(part, part, k, cap, bound):
                nxt = list(part)
                for c in cols:
                    nxt[c] -= 1
                nxt = tuple(nxt)
                low = _unpad(nxt)
                if socle:
                    rec(nxt, tuple(cols), sizes + (k,), acc + (low,))
                else:
                    rec(nxt, tuple(cols), (k,) + sizes, (low,) + acc)

    rec(beta, None, (), (beta,))
    return {(transpose(sizes), gamma): chains for (sizes, gamma), chains in found.items()}


def socle_chain_to_duallr(chain):
    """``soctab.convert._socle_chain_to_duallr`` as it was first written: per
    chain, the boxes of each strip below every row, then each layer's rows
    stripped of zeros, checked and transposed."""
    beta = chain[0]
    beta_rows = transpose(beta)
    b1 = len(beta_rows)
    # below[e-1][r]: boxes of strip e, chain[e-1] \ chain[e], below row r
    below = []
    for big, small in zip(chain, chain[1:b1 + 1]):
        tail = [0] * (b1 + 1)
        for x, y in zip_longest(big, small, fillvalue=0):
            if x != y:
                tail[x - 1] += 1  # a strip box in row x is below rows 0..x-1
        for r in range(b1 - 1, 0, -1):
            tail[r - 1] += tail[r]
        below.append(tail)
    out = []
    for ell in range(part(chain[-1], 1) + 1):
        lam_rows = list(beta_rows[:ell])
        lam_rows += [tail[ell] for tail in below[:b1 - ell]]
        while lam_rows and lam_rows[-1] == 0:
            lam_rows.pop()
        if any(map(lt, lam_rows, lam_rows[1:])):
            raise InvalidTableau("derived layer is not a partition")
        out.append(transpose(tuple(lam_rows)))
    if out[-1] != beta:
        raise InvalidTableau("derived chain does not reach the ambient shape")
    return tuple(out)


def count_symmetry_walk(max_beta_weight):
    """``checks.count_symmetry_sweep`` visiting every shape triple, one by one.

    The chain searches and the conversion are looked up in ``checks`` at
    each call, so a fault planted there reaches this walk too.
    """
    rep = checks.SweepReport("count-symmetry", max_beta=max_beta_weight)
    for beta, group in groupby(shape_triples(max_beta_weight), key=lambda s: s.beta):
        socle, lr = checks._beta_chains(beta, "socle"), checks._beta_chains(beta, "lr")
        for alpha, _, gamma in group:
            rep.cases += 1
            chains = socle.get((alpha, gamma), ())
            n_lr = len(lr.get((alpha, gamma), ()))
            swapped = lr.get((gamma, alpha), ())
            if not (len(chains) == n_lr == len(swapped)):
                rep.fail(f"{(alpha, beta, gamma)}: socle={len(chains)} lr={n_lr} swapped={len(swapped)}")
                continue
            targets = set(swapped)
            images = set()
            for chain in chains:
                img = checks._socle_chain_to_duallr(chain)
                if img not in targets:
                    rep.fail(f"{(alpha, beta, gamma)}: conversion left the target set")
                    break
                images.add(img)
            if len(images) != len(chains):
                rep.fail(f"{(alpha, beta, gamma)}: conversion is not injective")
    return rep


def conjecture_walk(max_beta_weight, seeds=5, base_seed=0):
    """``switching.check_conjecture`` visiting every shape triple, one by one,
    with the geometry of each beta from the shared cache."""
    report = switching.ConjectureReport(max_beta_weight, seeds)
    rngs = [random.Random(base_seed + k) for k in range(seeds)]
    orders = [(f"seed {base_seed + k}", rng, rng.getstate()) for k, rng in enumerate(rngs)]
    for beta, group in groupby(shape_triples(max_beta_weight), key=lambda s: s.beta):
        chains = switching._beta_chains(beta, "socle")
        geo = switching._geometry(beta)
        for alpha, _, gamma in group:
            report.shapes += 1
            found = chains.get((alpha, gamma))
            if not found:
                continue
            inner = switching._inner_grid(geo, gamma)
            for chain in found:
                switching._switch_one(report, geo, chain, alpha, inner, orders)
    return report


def monotone_chains(alpha, beta, gamma, kind):
    """``soctab.tableaux._chains`` without the lattice step: the chains of every
    filling of the shape whose rows and columns are monotone as the kind's are."""
    start = _chain_start(alpha, beta, gamma, kind)
    if start is None:
        return
    sizes, gap = start
    s = len(sizes)

    def rec(level, part, gap, acc):
        if level == s:
            yield acc if kind == "socle" else acc[::-1]
            return
        for _, nxt, ngap in _steps(part, gap, sizes[level], s - level - 1, None):
            yield from rec(level + 1, nxt, ngap, acc + (_unpad(nxt),))

    yield from rec(0, beta, gap, (beta,))


def iter_st12_fillings(alpha, beta, gamma):
    """All fillings with weakly decreasing rows and strictly decreasing columns."""
    alpha, beta, gamma = partition(alpha), partition(beta), partition(gamma)
    for chain in monotone_chains(alpha, beta, gamma, "socle"):
        yield _chain_tableau(chain, "socle")


def lattice_validator_sweep(max_beta_weight=8):
    """The three socle-lattice validators agree on every row/column-monotone filling."""
    rep = checks.SweepReport("lattice-equivalence", max_beta=max_beta_weight)
    for alpha, beta, gamma in shape_triples(max_beta_weight):
        for t in iter_st12_fillings(alpha, beta, gamma):
            rep.cases += 1
            a = check_socle(t)
            b = check_st3_prime(t)
            try:
                for level in range(1, t.max_entry()):
                    build_matching(t, level)
                c = True
            except MatchingFailed:
                c = False
            if not (a == b == c):
                rep.fail(f"{(alpha, beta, gamma)}: validators disagree ({a},{b},{c})")
    return rep
