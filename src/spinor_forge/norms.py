"""The spinor norm B and its graded companion.

B is the bilinear form on S singled out (up to scale) by the defining
property B(x.phi, psi) = B(phi, x.psi) for every vector generator x.  It
is constructed here by actually solving that homogeneous system over all
Fock basis pairs and asserting the solution space is one dimensional, so
the construction certifies the uniqueness statement it relies on.

Each constraint ties two unknowns up to sign or forces one to zero, so
the system is solved as a signed graph: one node per (unknown, sign),
connected components found with numpy by min-label propagation with
pointer jumping.  The solve accepts n <= MAX_NORM_N.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .field import Scalar
from .fock import Config, SpinorVec, apply_monomial, mask_str, parity


class BilinearForm:
    """Sparse bilinear form on S with antidiagonal support.

    entries maps (imask, jmask) to a nonzero scalar; for both flavors the
    support satisfies jmask = complement of imask, so each basis vector
    pairs with exactly one partner.  The kernels read the same entries as
    int numerators keyed by imask alone, over one denominator (`_num`,
    `_den`, in the field's canonical form), built with the form.
    """

    __slots__ = ("config", "flavor", "entries", "_num", "_den")

    def __init__(
        self,
        config: Config,
        flavor: str,
        entries: dict[tuple[int, int], Scalar],
    ) -> None:
        if flavor not in ("plain", "graded"):
            raise ValueError(f"unknown flavor {flavor!r}")
        full = config.size - 1
        for (imask, jmask), val in entries.items():
            if jmask != imask ^ full:
                raise ValueError(
                    f"entry ({mask_str(imask)}, {mask_str(jmask)}) is off the "
                    "antidiagonal"
                )
            if not val:
                raise ValueError("stored entries must be nonzero")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "flavor", flavor)
        num, den = config.field.split({i: v for (i, _), v in entries.items()})
        object.__setattr__(self, "entries", dict(entries))
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("BilinearForm is immutable")

    def __repr__(self) -> str:
        return f"BilinearForm(flavor={self.flavor!r}, n={self.config.n})"

    def entry(self, imask: int, jmask: int) -> Scalar:
        got = self.entries.get((imask, jmask))
        return got if got is not None else self.config.field.zero()

    def export_triples(self) -> list[tuple[int, int, Scalar]]:
        """All nonzero entries as (I, I^c, value), ascending in I."""
        return [(i, j, v) for (i, j), v in sorted(self.entries.items())]

    def symmetry(self) -> int:
        """+1 if the form is symmetric, -1 if antisymmetric."""
        sym = all(
            self.entry(j, i) == v for (i, j), v in self.entries.items()
        )
        anti = all(
            self.entry(j, i) == -v for (i, j), v in self.entries.items()
        )
        if sym and not anti:
            return 1
        if anti and not sym:
            return -1
        raise AssertionError("form is neither symmetric nor antisymmetric")

    def pairing_parity(self) -> int:
        """0 when the form pairs equal spinor parities, 1 when opposite."""
        parities = {(parity(i) + parity(j)) & 1 for i, j in self.entries}
        if len(parities) != 1:
            raise AssertionError("form mixes pairing parities")
        return parities.pop()


def b_eval(form: BilinearForm, phi: SpinorVec, psi: SpinorVec) -> Scalar:
    """B(phi, psi), summed on the int numerators and divided once."""
    config = form.config
    config.check_same(phi.config)
    config.check_same(psi.config)
    full = config.size - 1
    entries, psi_num = form._num, psi._num
    acc = 0
    for imask, ci in phi._num.items():
        cj = psi_num.get(imask ^ full)
        if cj is None:
            continue
        val = entries.get(imask)
        if val is not None:
            acc += ci * cj * val
    return config.field.from_fraction(acc, phi._den * psi._den * form._den)


# Largest n the norm solve accepts: its arrays grow as 4^n (about 100 MiB
# at n = 10, about 1 GiB at n = 12), and its int32 node numbers stay
# below 2^21 at n = 10.
MAX_NORM_N = 10


def _generator_moves(
    config: Config,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(valid, target, odd) tables of e_1, i_1, ..., e_n, i_n on basis masks.

    valid[m] says the move keeps e_M.v nonzero; then it sends the mask m to
    target[m] with sign (-1)^odd[m].
    """
    for a in range(1, config.n + 1):
        bit = 1 << (a - 1)
        for emask, imask in ((bit, 0), (0, bit)):
            hits = [apply_monomial(emask, imask, m) for m in range(config.size)]
            yield (
                np.array([h is not None for h in hits]),
                np.array([h[1] if h else 0 for h in hits], dtype=np.int32),
                np.array([h is not None and h[0] < 0 for h in hits]),
            )


def _signed_components(
    nvars: int, blocks: list[tuple[np.ndarray, np.ndarray]], forced: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed connected components of a system x_a = +-x_b, x_v = 0.

    Node 2v stands for +x_v and 2v + 1 for -x_v.  Each block is a pair of
    int32 node arrays (a, b), one edge per position saying node a equals
    node b; its mirror a ^ 1 = b ^ 1 is implied.  `forced` marks the
    unknowns forced to zero.  Components come from min-label propagation
    with pointer jumping, repeated until every edge joins equal labels.

    A component is zero when it holds both signs of one unknown, holds a
    forced zero, or its mirror does; the other components come in mirror
    pairs, one per dimension of the solution space.  Returns (plus, minus,
    zero): the component labels of +x_v and -x_v, and which unknowns are
    zero.
    """
    label = np.arange(2 * nvars, dtype=np.int32)
    while True:
        for a, b in blocks:
            for x, y in ((a, b), (a ^ 1, b ^ 1)):
                lx, ly = label[x], label[y]
                low = np.minimum(lx, ly)
                np.minimum.at(label, lx, low)
                np.minimum.at(label, ly, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if all(
            np.array_equal(label[a], label[b])
            and np.array_equal(label[a ^ 1], label[b ^ 1])
            for a, b in blocks
        ):
            break

    plus, minus = label[0::2], label[1::2]
    dead = np.zeros(label.size, dtype=bool)
    dead[plus[forced]] = True
    dead[minus[forced]] = True
    dead[plus[plus == minus]] = True
    return plus, minus, dead[plus]


def _solve_components(config: Config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed components of the norm's defining system (see _signed_components).

    Unknowns are the 4^n values B(e_I.v, e_J.v), numbered v = I 2^n + J.
    Every compatibility constraint s_l B[I', J] = s_r B[I, J'] either
    identifies two unknowns up to sign, joining (va, +) to (vb, s_l s_r),
    or forces one to zero when the other side is killed.  Each generator
    gives one int32 edge block; forced zeros go in a boolean mask.
    """
    if config.n > MAX_NORM_N:
        raise ValueError(
            f"the norm solve accepts n <= {MAX_NORM_N}, got {config.n} "
            f"({4 ** config.n} unknowns)"
        )
    size = config.size
    forced = np.zeros((size, size), dtype=bool)
    blocks = []
    for valid, target, odd in _generator_moves(config):
        good = np.flatnonzero(valid).astype(np.int32)
        bad = np.flatnonzero(~valid)
        moved, sign = target[good], odd[good]
        forced[np.ix_(bad, moved)] = True
        forced[np.ix_(moved, bad)] = True
        va = moved[:, None] * size + good[None, :]
        vb = good[:, None] * size + moved[None, :]
        flip = sign[:, None] ^ sign[None, :]
        blocks.append(((2 * va).ravel(), (2 * vb + flip).ravel()))
    return _signed_components(size * size, blocks, forced.ravel())


def _dimension(plus: np.ndarray, minus: np.ndarray, zero: np.ndarray) -> int:
    """Mirror pairs of surviving components, each named by its smaller label."""
    names = np.sort(np.minimum(plus, minus)[~zero])
    return int(np.count_nonzero(np.diff(names, prepend=-1)))


def norm_solution_dimension(config: Config) -> int:
    """Dimension of the space of generator-compatible pairings on spinors."""
    return _dimension(*_solve_components(config))


@lru_cache(maxsize=None)
def solve_spinor_norm(config: Config) -> BilinearForm:
    """Solve B(x.phi, psi) = B(phi, x.psi) over all generators and basis pairs.

    The solution space must be one dimensional; the result is scaled so
    that B(v, e_{1..n}.v) = 1, and each entry is +1 or -1 as its unknown
    lies in the component of +B(v, e_{1..n}.v) or of its mirror.
    """
    size = config.size
    plus, minus, zero = _solve_components(config)
    dim = _dimension(plus, minus, zero)
    if dim != 1:
        raise AssertionError(
            f"spinor norm solution space has dimension {dim}, not 1"
        )
    anchor = size - 1  # the unknown B(v, e_{1..n}.v)
    if zero[anchor]:
        raise AssertionError("normalization entry solved to zero")
    field = config.field
    signs = (field.from_int(-1), field.one())
    alive = np.flatnonzero(~zero)
    same = plus[alive] == plus[anchor]
    entries: dict[tuple[int, int], Scalar] = {
        divmod(v, size): signs[s] for v, s in zip(alive.tolist(), same.tolist())
    }
    return BilinearForm(config, "plain", entries)


def graded_norm(form: BilinearForm) -> BilinearForm:
    """B_eps(phi, psi) = B(eps.phi, psi): flip the sign on odd rows.

    The result satisfies B_eps(x.phi, psi) = -B_eps(phi, x.psi) for every
    vector generator x.
    """
    if form.flavor != "plain":
        raise ValueError("graded_norm expects the plain norm")
    entries = {
        (i, j): (-v if parity(i) else v) for (i, j), v in form.entries.items()
    }
    return BilinearForm(form.config, "graded", entries)
