"""Fast multipole sum of the 2-D log kernel on a uniform quadtree.

`log_kernel_sum(pts, nodes, weights)` returns sum_j w_j ln|y - x_j| for every
target y, the sum `potentials._chunked_kernel_sum` forms directly, by the
method of Greengard & Rokhlin, J. Comput. Phys. 73 (1987), on the uniform
box tree of Barnes & Hut, Nature 324 (1986).  Points are complex numbers and
ln|z - x| = Re log(z - x).

Tree.  One square covers the targets and the nodes; level l splits it into
2^l x 2^l boxes of side w_l.  The leaf level comes from the point counts
(`_leaf_level`).  The interaction list of a box holds the children of its
parent's neighbours that are not its own neighbours (offsets up to three
boxes); every node reaches every target either through exactly one such
pair of boxes or through the near field.

Expansions, scaled by the box side so that the translation operators depend
only on the offset of two boxes in box units:
    multipole about the centre c of a box of side w (P2M):
        phi(z) = A_0 log(z - c) + sum_{k=1}^p A_k (w / (z - c))^k,
        A_0 = sum_j w_j,   A_k = -sum_j w_j ((x_j - c) / w)^k / k;
    local about c (L2P):
        phi(z) = sum_{l=0}^p L_l ((z - c) / w)^l.
M2M, M2L and L2L are Lemmas 2.3-2.5 of Greengard & Rokhlin in these
variables (`_operators`).  M2M and L2L are exact on degree-p series, so M2L
is the only truncation.

Near field.  Each leaf's targets meet the nodes of its 3 x 3 neighbour leaves
directly.  The nodes of leaf rows i-1..i+1, sorted by leaf column, form one
slab per target leaf row i, in which each leaf's neighbours are one slice.
The (targets x nodes) kernel ln|y - x|^2 fills row tiles of at most
`kernels.TILE_BYTES` (one row if longer) and meets the weights halved:
ln r = ln(r^2) / 2 saves a square root, and halving is exact.  So an
exact hit gives -inf signed by its weight (and the nan of a zero weight or of
colliding nodes of opposite weight) as the direct sum does.

A-priori bound.  Let a node x sit in a source box and a target z in a box of
its interaction list, with centres c_s and c_t, D = c_t - c_s, eta = x - c_s
and zeta = z - c_t.  The two boxes are one box apart, so |D| >= 2w while
|eta|, |zeta| <= w / sqrt(2): a = |eta| / |D| and b = |zeta| / |D| are at
most sqrt(2) / 4.  Up to multiples of 2 pi i, which the real part drops,
    log(z - x) = log D + log(1 + zeta/D) + log(1 - eta/(D + zeta)),
    log(1 + zeta/D) = sum_{l>=1} (-1)^(l+1) (zeta/D)^l / l,
    log(1 - eta/(D + zeta))
        = -sum_{k>=1} (eta/D)^k / k sum_{l>=0} C(l+k-1, k-1) (-zeta/D)^l,
and the FMM keeps exactly the terms with k <= p and l <= p.  With
c = a / (1 - b) = b / (1 - a) <= sqrt(2) / (4 - sqrt(2)) ~ 0.547 and
sum_{k>=1} C(l+k-1, k-1) a^k = a / (1 - a)^(l+1), the dropped terms obey
    sum_{l>p} b^l / l                          <= b^(p+1) / ((p+1)(1 - b)),
    sum_{k>p} (a / (1 - b))^k / k              <= c^(p+1) / ((p+1)(1 - c)),
    sum_{k<=p} a^k / k sum_{l>p} C(l+k-1, k-1) b^l
        <= sum_{l>p} b^l a / (1 - a)^(l+1)      = a / (1 - a) c^(p+1) / (1 - c).
Each node therefore adds at most |w_j| `error_bound(p)` (the sum of the three
right-hand sides) to the error, and
    max_y |FMM(y) - direct(y)| <= error_bound(p) * sum_j |w_j|
in exact arithmetic; rounding adds a few units in the last place of the
terms.  ORDER is the least p with error_bound(p) <= TOL.

The evaluation is single-threaded, BLAS included (its caller holds BLAS to
one thread), with one fixed order of every reduction, so its result is the
same from run to run.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import kernels

__all__ = ["TOL", "ORDER", "error_bound", "log_kernel_sum"]

TOL = 1e-13
_RATIO = math.sqrt(2.0) / 4.0  # max |eta| / |D| = max |zeta| / |D|


def error_bound(p: int) -> float:
    """Bound on max |FMM - direct| / sum_j |w_j| at expansion order p (see above)."""
    a = b = _RATIO
    c = a / (1.0 - b)
    return (b ** (p + 1) / ((p + 1) * (1.0 - b)) + c ** (p + 1) / ((p + 1) * (1.0 - c))
            + a / (1.0 - a) * c ** (p + 1) / (1.0 - c))


ORDER = next(p for p in range(1, 200) if error_bound(p) <= TOL)

# the M2L offsets (source box minus target box, in boxes): a 7 x 7 block
# without the 3 x 3 neighbours
OFFSETS = [(i, j) for i in range(-3, 4) for j in range(-3, 4) if max(abs(i), abs(j)) >= 2]
# the deepest leaf level; its dense expansion arrays take about
# 2 * 4^MAX_LEVEL * (ORDER + 1) * 16 bytes
MAX_LEVEL = 7
# cost of one target leaf (its near-field call, L2P and M2L work) in
# near-field kernel pairs, for `_leaf_level`: about 20 us against 8 ns a pair
# on a 2-core x86 box
LEAF_COST = 2_500
# nodes per P2M chunk and targets per L2P chunk: bounds the powers and the
# gathered local coefficients to CHUNK * (ORDER + 1) complex values
CHUNK = 4096


def _binomials(n: int) -> np.ndarray:
    """C[i, j] = binomial(i, j) for 0 <= i, j <= n, as floats (Pascal's rule by rows)."""
    C = np.zeros((n + 1, n + 1))
    C[:, 0] = 1.0
    for i in range(1, n + 1):
        C[i, 1:] = C[i - 1, 1:] + C[i - 1, :-1]
    return C


@functools.cache
def _operators(p: int):
    """Scaled translation matrices of order p, each acting on coefficient vectors.

    Returns (m2m, l2l, m2l): m2m[a][b] and l2l[a][b] for the child in
    quadrant (a, b) of its parent, and m2l[i] for OFFSETS[i].
    """
    C = _binomials(2 * p)
    r = np.arange(p + 1)
    L, K = np.meshgrid(r, r, indexing="ij")  # row l, column k
    ls = r[1:]
    m2m = [[None, None], [None, None]]
    l2l = [[None, None], [None, None]]
    for a in (0, 1):
        for b in (0, 1):
            # child centre minus parent centre, in parent box sides
            t = complex(a - 0.5, b - 0.5) / 2.0
            # M2M (Lemma 2.3): B_l = -A_0 t^l / l + sum_{1<=k<=l} C(l-1, k-1) 2^-k t^(l-k) A_k
            low = (K >= 1) & (K <= L)
            T = np.where(low, C[np.maximum(L - 1, 0), np.maximum(K - 1, 0)] * 0.5 ** K
                         * t ** np.where(low, L - K, 0), 0.0).astype(complex)
            T[0, 0] = 1.0
            T[1:, 0] = -t ** ls / ls
            m2m[a][b] = T
            # L2L (Lemma 2.5): L_l = sum_{k>=l} C(k, l) 2^-l t^(k-l) P_k
            up = K >= L
            l2l[a][b] = np.where(up, C[K, L] * 0.5 ** L * t ** np.where(up, K - L, 0), 0.0)
    m2l = []
    for i, j in OFFSETS:
        s = complex(i, j)  # source centre minus target centre, in box sides
        # M2L (Lemma 2.4): L_0 = A_0 log(-s) + sum_k (-1)^k s^-k A_k,
        # L_l = -A_0 s^-l / l + sum_k C(l+k-1, k-1) (-1)^k s^-(l+k) A_k; the
        # A_0 log w term of the unscaled box is added by the caller
        M = np.empty((p + 1, p + 1), complex)
        Ls, Ks = L[:, 1:], K[:, 1:]
        M[:, 1:] = C[Ls + Ks - 1, Ks - 1] * (-1.0) ** Ks * (1.0 / s) ** (Ls + Ks)
        M[0, 0] = np.log(-s)
        M[1:, 0] = -(1.0 / s) ** ls / ls
        m2l.append(M)
    return m2m, l2l, m2l


def _box_counts(idx: np.ndarray, level: int) -> np.ndarray:
    n = 1 << level
    return np.bincount(idx[:, 0] * n + idx[:, 1], minlength=n * n).reshape(n, n)


def _neighbour_sum(counts: np.ndarray) -> np.ndarray:
    """Sum of each box's 3 x 3 neighbourhood (itself included)."""
    padded = np.pad(counts, 1)
    n = len(counts)
    return sum(padded[i:i + n, j:j + n] for i in range(3) for j in range(3))


def _leaf_level(t_idx: np.ndarray, s_idx: np.ndarray) -> int:
    """Leaf level in 2..MAX_LEVEL minimising near-field pairs + LEAF_COST per target leaf.

    t_idx, s_idx are box indices at MAX_LEVEL.  The points are counted once
    there; each coarser level sums 2 x 2 blocks of the counts below it, so the
    costs stay integers, and a tie goes to the coarsest level.
    """
    nt, ns = _box_counts(t_idx, MAX_LEVEL), _box_counts(s_idx, MAX_LEVEL)
    best = None
    for level in range(MAX_LEVEL, 1, -1):
        cost = int(np.sum(nt * _neighbour_sum(ns))) + LEAF_COST * int(np.count_nonzero(nt))
        if best is None or cost <= best[0]:
            best = (cost, level)
        m = len(nt) // 2
        nt, ns = (c.reshape(m, 2, m, 2).sum(axis=(1, 3)) for c in (nt, ns))
    return best[1]


def _segments(flat: np.ndarray, nboxes: int):
    """Stable sort order of points by box, and start offsets of each box's run."""
    order = np.argsort(flat, kind="stable")
    starts = np.zeros(nboxes + 1, dtype=np.intp)
    np.cumsum(np.bincount(flat, minlength=nboxes), out=starts[1:])
    return order, starts


def _centres(flat: np.ndarray, n: int) -> np.ndarray:
    """Centres of the leaves with C-order indices `flat`, in leaf units from the lower corner."""
    return (flat // n + 0.5) + 1j * (flat % n + 0.5)


def _far_field(zs: np.ndarray, ws: np.ndarray, s_flat: np.ndarray, t_occ: np.ndarray,
               leaf: int, side: float, p: int) -> np.ndarray:
    """Local expansions of the far field at every leaf: P2M, M2M, M2L over the
    interaction lists of the occupied target boxes, and L2L.

    zs are the box-sorted nodes in leaf units, ws their weights, s_flat their
    leaves and t_occ the leaves holding a target.  The result is (p + 1, 4^leaf),
    one contiguous row per order, so that L2P gathers each order's coefficients
    from one row."""
    m2m, l2l, m2l = _operators(p)
    n = 1 << leaf
    # P2M at the leaves, node chunk by node chunk: w_j eta_j^k summed per
    # leaf, then times -1/k
    scale = np.r_[1.0, -1.0 / np.arange(1, p + 1)]
    multi = {leaf: np.zeros((n * n, p + 1), complex)}
    for a in range(0, len(zs), CHUNK):
        box = s_flat[a:a + CHUNK]
        eta = zs[a:a + CHUNK] - _centres(box, n)
        terms = np.empty((p + 1, len(box)), complex)
        terms[0] = ws[a:a + CHUNK]
        for k in range(1, p + 1):
            np.multiply(terms[k - 1], eta, out=terms[k])
        first = np.flatnonzero(np.r_[True, box[1:] != box[:-1]])
        multi[leaf][box[first]] += np.add.reduceat(terms, first, axis=1).T * scale
    # M2M up to level 2
    for level in range(leaf - 1, 1, -1):
        m = 1 << level
        child = multi[level + 1].reshape(m, 2, m, 2, p + 1)
        multi[level] = sum(child[:, a, :, b] @ m2m[a][b].T
                           for a in (0, 1) for b in (0, 1)).reshape(m * m, p + 1)

    # M2L per level over the interaction lists, then L2L down to the leaves
    s_occ = np.zeros(n * n, bool)
    s_occ[s_flat] = True
    local = None
    for level in range(2, leaf + 1):
        m = 1 << level
        if local is None:
            local = np.zeros((m * m, p + 1), complex)
        else:
            parent = local.reshape(m // 2, m // 2, p + 1)
            local = np.empty((m // 2, 2, m // 2, 2, p + 1), complex)
            for a in (0, 1):
                for b in (0, 1):
                    local[:, a, :, b] = parent @ l2l[a][b].T
            local = local.reshape(m * m, p + 1)
        up = leaf - level
        t_here = t_occ.reshape(m, 1 << up, m, 1 << up).any(axis=(1, 3))
        s_here = s_occ.reshape(m, 1 << up, m, 1 << up).any(axis=(1, 3))
        ti, tj = np.nonzero(t_here)
        log_w = math.log(side / m)
        for (di, dj), op in zip(OFFSETS, m2l):
            si, sj = ti + di, tj + dj
            ok = ((si >= 0) & (si < m) & (sj >= 0) & (sj < m)
                  & (np.abs((si >> 1) - (ti >> 1)) <= 1) & (np.abs((sj >> 1) - (tj >> 1)) <= 1))
            ok[ok] = s_here[si[ok], sj[ok]]
            if not ok.any():
                continue
            src = multi[level][si[ok] * m + sj[ok]]
            dst = ti[ok] * m + tj[ok]
            local[dst] += src @ op.T  # one source box per target box and offset
            local[dst, 0] += log_w * src[:, 0]
    return local.T.copy()


def log_kernel_sum(pts: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j ln|pts_i - nodes_j| for every row of pts (d = 2, finite
    points), with expansions of order ORDER."""
    p = ORDER
    lo = np.minimum(pts.min(axis=0), nodes.min(axis=0))
    side = float(np.max(np.maximum(pts.max(axis=0), nodes.max(axis=0)) - lo)) or 1.0

    def boxes(x):  # box indices at MAX_LEVEL; points on the far edge join the last box
        n = 1 << MAX_LEVEL
        return np.clip(np.floor((x - lo) * (n / side)).astype(np.intp), 0, n - 1)

    t_idx, s_idx = boxes(pts), boxes(nodes)
    leaf = _leaf_level(t_idx, s_idx)
    shift, n, w_leaf = MAX_LEVEL - leaf, 1 << leaf, side / (1 << leaf)
    t_flat, s_flat = (x[:, 0] * n + x[:, 1] for x in (t_idx >> shift, s_idx >> shift))
    t_occ = np.zeros(n * n, bool)
    t_occ[t_flat] = True
    s_order, s_starts = _segments(s_flat, n * n)
    s_pts, ws, s_flat = nodes[s_order], weights[s_order], s_flat[s_order]
    # the far field first, while the targets are held only by their leaves
    zs = (s_pts[:, 0] + 1j * s_pts[:, 1] - complex(lo[0], lo[1])) / w_leaf
    local = _far_field(zs, ws, s_flat, t_occ, leaf, side, p)

    # L2P, in target chunks, then the near field
    t_order, t_starts = _segments(t_flat, n * n)
    t_pts, t_flat = pts[t_order], t_flat[t_order]
    out = np.empty(len(pts))
    for a in range(0, len(t_pts), CHUNK):
        box, y = t_flat[a:a + CHUNK], t_pts[a:a + CHUNK]
        z = (y[:, 0] + 1j * y[:, 1] - complex(lo[0], lo[1])) / w_leaf - _centres(box, n)
        acc = local[p][box]  # one order at a time: no (chunk, p + 1) block is copied
        for k in range(p - 1, -1, -1):
            acc *= z
            acc += local[k][box]
        out[a:a + CHUNK] = acc.real
    _near_field(t_pts, t_starts, s_pts, ws, s_flat % n, s_starts, t_occ.reshape(n, n), out)
    result = np.empty(len(pts))
    result[t_order] = out
    return result


def _near_field(t_pts, t_starts, s_pts, ws, s_col, s_starts, t_occ, out):
    """Add to `out` each box-sorted target's sum over the nodes of its 3 x 3
    neighbour leaves (see Near field); s_col is each box-sorted node's leaf column."""
    n = len(t_occ)
    tx, ty, half = t_pts[:, 0].copy(), t_pts[:, 1].copy(), 0.5 * ws
    buf, sq = np.empty(kernels.TILE_BYTES // 8), np.empty(kernels.TILE_BYTES // 8)
    col_starts = np.zeros(n + 1, dtype=np.intp)
    with np.errstate(divide="ignore"):  # ln 0 = -inf on an exact hit
        for i in np.flatnonzero(t_occ.any(axis=1)):
            a, b = s_starts[max(i - 1, 0) * n], s_starts[(min(i + 1, n - 1) + 1) * n]
            slab = np.argsort(s_col[a:b], kind="stable") + a
            sx, sy, sw = s_pts[slab, 0], s_pts[slab, 1], half[slab]
            np.cumsum(np.bincount(s_col[a:b], minlength=n), out=col_starts[1:])
            for j in np.flatnonzero(t_occ[i]):
                lo, hi = col_starts[max(j - 1, 0)], col_starts[min(j + 1, n - 1) + 1]
                if hi == lo:
                    continue
                if hi - lo > len(buf):  # one row is longer than a tile
                    buf, sq = np.empty(hi - lo), np.empty(hi - lo)
                rows = kernels.tile_rows(hi - lo)
                start, stop = t_starts[i * n + j], t_starts[i * n + j + 1]
                for r in range(start, stop, rows):
                    e = min(r + rows, stop)
                    K = buf[:(e - r) * (hi - lo)].reshape(e - r, hi - lo)
                    S = sq[:K.size].reshape(K.shape)
                    np.subtract(tx[r:e, None], sx[lo:hi], out=K)
                    np.square(K, out=K)
                    np.subtract(ty[r:e, None], sy[lo:hi], out=S)
                    np.square(S, out=S)
                    K += S
                    np.log(K, out=K)
                    out[r:e] += K @ sw[lo:hi]
