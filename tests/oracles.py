"""Reference computations that several test files check the library against."""

import numpy as np

from soctab import linalg
from soctab.modules import Subspace, zero_subspace
from soctab.partitions import partition, transpose


def intersection(a, b, p):
    """Canonical basis of span(a) & span(b): the common kernel of both annihilators."""
    return linalg.nullspace(np.vstack([linalg.nullspace(a, p), linalg.nullspace(b, p)]), p)


def _type_from_ker_dims(ker_dims):
    """Partition with ker_dims[r] - ker_dims[r - 1] boxes in row r (ker_dims[0] = 0)."""
    rows = [b - a for a, b in zip(ker_dims, ker_dims[1:]) if b > a]
    return tuple(sum(1 for n in rows if n >= c) for c in range(1, rows[0] + 1)) if rows else ()


def quotient_type(module, sub):
    """Type of module/sub: dim ker T^r there is dim {v : T^r v in sub} - dim sub,
    and T^r v lies in sub iff every functional vanishing on sub kills it."""
    ann, p = sub.annihilator_basis, module.prime
    return _type_from_ker_dims(
        [module.dim - linalg.rank(module.shift(ann, -r), p) - sub.dim
         for r in range(module.nilpotency_index + 1)]
    )


def sub_type(module, sub):
    """Type of sub: dim ker T^r there is dim sub - rank(T^r sub)."""
    p = module.prime
    return _type_from_ker_dims(
        [sub.dim - linalg.rank(module.shift(sub.basis, r), p)
         for r in range(module.nilpotency_index + 1)]
    )


def soc_layer(module, sub, ell):
    """{a in sub : T^ell a = 0}, from the kernel of T^ell on sub's basis."""
    p = module.prime
    if ell <= 0 or sub.dim == 0:
        return zero_subspace(module)
    coeffs = linalg.nullspace(module.shift(sub.basis, ell).T, p)
    return Subspace(module, (coeffs @ sub.basis) % p)


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
