"""Supernodal multifrontal Cholesky factorization on a separator tree.

The supernodes are the nodes of a nested-dissection separator tree in
postorder (Duff & Reid, ACM TOMS 9, 1983; Liu, SIAM Review 34, 1992). The
symbolic analysis (``analyse``) runs once per pattern: it derives every
front's rows from the graph of the mesh entities that hold the unknowns,
in a few array passes per tree level. A factorization (``Cholesky``)
assembles each front from the matrix entries of its pivot columns and its
children's update matrices, and factors it: L11 = chol(F11), L21 = F21
L11^-T, and the update matrix -L21 L21^T that goes to the parent. Only L is
kept, node by node.

OpenBLAS changes the bits of a call with the number of threads it runs on
(measured with OpenBLAS 0.3.31: potrf from n = 128, syrk from n = 99, gemm
above m n k = 64^3, gemv above about 2.5e5 entries). So a front with more
than 64 pivots or 96 update rows is factored in 64 x 64 tiles, and every
dense call stays within the sizes that run on one thread; trsm, which
OpenBLAS splits by rows from 1024 entries on, solves at most 64 columns,
and a row does not depend on the split. The factor and the solutions are
the same bit for bit on any number of CPUs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.linalg import blas, lapack

from .errors import SolverFailure

_BLOCK = 64          # the width of the pivot blocks and tiles of a large front
_SYRK_MAX = 96       # the largest update matrix formed by one syrk call
_GEMV_MAX = 1 << 17  # the most entries of one matrix-vector product


@dataclass
class Supernodes:
    """The symbolic analysis of a separator tree. Node j has the pivot
    columns ``start[j]`` .. ``start[j + 1] - 1`` and, after them, the
    update rows ``urows[uoff[j]:uoff[j + 1]]`` (ascending, all in ancestors
    of j); its factor is the (p, p) block L11 at ``offset[j]`` and the
    (u, p) block L21 right after it, both row-major, in one array. Every
    per-node record is an array, so a large tree adds no Python objects for
    the garbage collector to walk."""
    parent: np.ndarray    # (N,) parent of each node, -1 at the root (the last)
    start: np.ndarray     # (N + 1,) first pivot column of each node
    urows: np.ndarray     # update rows of the nodes, node by node
    uoff: np.ndarray      # (N + 1,) offsets of the nodes in ``urows``
    offset: np.ndarray    # (N + 1,) offsets of the nodes' factor blocks
    levels: list          # node lists by tree depth, the deepest first
    level_rows: list      # per level, the update rows of its nodes in order
    nnz: int              # the entries of the matrix's CSC pattern
    # the matrix entries on and below the diagonal: their positions in the
    # factor array and in the CSC data
    entry_pos: np.ndarray
    entry_csc: np.ndarray
    # the extend-add, per child c of node j: ``children[child_ptr[j]:
    # child_ptr[j + 1]]`` are j's children with update rows; ``pivot_rows[c]``
    # of c's update rows are pivots of j; ``target`` (aligned with ``urows``)
    # has the row of each in j's L11 (those first) or in j's L21 and update
    # matrix; ``runs[run_ptr[c]:run_ptr[c + 1]]`` are the (first row in c,
    # length, first target row) of the runs of them that land on
    # consecutive rows
    child_ptr: np.ndarray
    children: np.ndarray
    pivot_rows: np.ndarray
    target: np.ndarray
    run_ptr: np.ndarray
    runs: np.ndarray


def _expand(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of the given lengths laid end to end: the segment of
    each position and the position's index inside its segment."""
    seg = np.repeat(np.arange(len(count)), count)
    return seg, np.arange(len(seg)) - (np.cumsum(count) - count)[seg]


def _unique_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, sorted."""
    a = np.sort(a)
    return a[np.r_[True, a[1:] != a[:-1]]] if len(a) else a


def analyse(indptr: np.ndarray, indices: np.ndarray, node: np.ndarray,
            size: np.ndarray, parent: np.ndarray, depth: np.ndarray) -> Supernodes:
    """The fronts of a supernodal Cholesky factorization of a symmetric
    matrix whose unknowns sit on the entities of a graph, and every entity's
    unknowns couple with all those of its neighbours and its own.

    ``indptr``, ``indices``: the symmetric CSR pattern of the entity graph,
    self-loops included, sorted indices, the entities in the order of their
    unknowns (an entity's unknowns together); ``node``, ``size``: the
    separator-tree node of each entity, nondecreasing, and its number of
    unknowns; ``parent``, ``depth``: the tree, in postorder.

    An entity of an ancestor is an update row of node j when it neighbours
    an entity of j's subtree. Level by level from the deepest, each node's
    rows are the neighbours of its own entities in its ancestors plus the
    rows its children pass up, less its own."""
    n_ent, n_nodes = len(node), len(parent)
    first = np.cumsum(size) - size                # each entity's first unknown
    p = np.bincount(node, size, minlength=n_nodes).astype(np.int64)
    start = np.concatenate([[0], np.cumsum(p)])
    n = int(start[-1])
    max_depth = int(depth.max(initial=0))
    level = (max_depth - depth).astype(np.int16)   # 0 for the deepest nodes

    # the graph's edges from each entity to itself and to the entities after
    # it, by rows: the blocks on and below the diagonal
    a = np.repeat(np.arange(n_ent), np.diff(indptr))
    lower = indices >= a
    a, b = a[lower], indices[lower].astype(np.int64)
    j = node[a]

    # (node, entity) keys of the update entities, level by level
    up = node[b] > j                       # a neighbour in an ancestor
    direct = j[up] * n_ent + b[up]
    by_level = np.argsort(level[j[up]], kind="stable")
    direct = np.split(direct[by_level], np.cumsum(np.bincount(level[j[up]],
                                                              minlength=max_depth + 1))[:-1])
    keys, passed = [], np.zeros(0, dtype=np.int64)
    for k in direct[:-1]:                  # the root has no update rows
        k = _unique_sorted(np.concatenate([k, passed]))
        keys.append(k)
        above = parent[k // n_ent]
        keep = node[k % n_ent] != above
        passed = above[keep] * n_ent + k[keep] % n_ent
    keys = np.sort(np.concatenate(keys + [np.zeros(0, dtype=np.int64)]))
    owner, ent = keys // n_ent, keys % n_ent

    # the update rows: every unknown of every update entity
    count = size[ent]
    u = np.bincount(owner, count, minlength=n_nodes).astype(np.int64)
    uoff = np.concatenate([[0], np.cumsum(u)])
    ufirst = np.cumsum(count) - count      # each update entity's first row
    seg, within = _expand(count)
    urows = first[ent][seg] + within
    row_node = owner[seg]

    # the front row of the first unknown of each edge's second entity: a
    # pivot row of L11, or the index of an update row of L21
    front = first[b] - start[j]
    front[up] = ufirst[np.searchsorted(keys, j[up] * n_ent + b[up])] - uoff[j[up]]

    # the extend-add: where each child's update rows land in its parent: in
    # the parent's pivots, or among its update rows
    par = parent[owner]
    in_pivot = node[ent] == par
    target = np.where(in_pivot, first[ent] - start[np.maximum(par, 0)], 0)
    target[~in_pivot] = ufirst[np.searchsorted(
        keys, par[~in_pivot] * n_ent + ent[~in_pivot])] - uoff[par[~in_pivot]]
    row_pivot = in_pivot[seg]
    target = target[seg] + within
    n_pivot = np.bincount(row_node, row_pivot, minlength=n_nodes).astype(np.int64)
    new_run = np.ones(len(urows), dtype=bool)
    new_run[1:] = ((row_node[1:] != row_node[:-1]) | (row_pivot[1:] != row_pivot[:-1])
                   | (target[1:] != target[:-1] + 1))
    run_first = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_first, len(urows)))
    run_node = row_node[run_first]

    # the matrix entries on and below the diagonal: per edge (a, b), the
    # block of the unknowns of b (rows) by those of a (columns), lower
    # triangle only where b is a. Its first entry lies in the factor at
    # ``edge_at`` and in the CSC data at ``edge_csc``: a column of a holds
    # the unknowns of all a's neighbours, in order. The blocks of one shape
    # are laid out at once
    offset = np.concatenate([[0], np.cumsum(p * p + u * p)])
    pj = p[j]
    edge_at = offset[j] + np.where(up, pj * pj, 0) + front * pj + first[a] - start[j]
    sums = np.concatenate([[0], np.cumsum(size[indices])])
    column = np.diff(sums[indptr])                 # the entries of a column of each entity
    col_first = np.cumsum(size * column) - size * column
    edge_csc = col_first[a] + sums[:-1][lower] - sums[indptr[:-1]][a]
    stride = column[a]
    # the kept index arrays in 32 bits where they fit (the factor's
    # positions: up to 2^31 entries)
    index = np.int32 if max(n, offset[-1]) < 2 ** 31 else np.int64
    width = int(size.max(initial=0)) + 1
    shape = (size[a] * width + size[b]) * 2 + (a == b)
    kinds, count = np.unique(shape, return_counts=True)
    sa, sb = divmod(kinds // 2, width)
    entries = count * np.where(kinds % 2, sa * (sa + 1) // 2, sa * sb)
    pos, csc = np.empty((2, entries.sum()), dtype=index)
    for kind, at, m in zip(kinds.tolist(), (np.cumsum(entries) - entries).tolist(),
                           entries.tolist()):
        e = np.flatnonzero(shape == kind)
        sa, sb = divmod(kind // 2, width)
        i, ci = np.tril_indices(sa) if kind % 2 else np.divmod(np.arange(sa * sb), sa)
        out = pos[at:at + m].reshape(len(e), -1)
        np.multiply(i, pj[e, None], out=out, casting="unsafe")
        out += edge_at[e, None] + ci
        out = csc[at:at + m].reshape(len(e), -1)
        np.multiply(ci, stride[e, None], out=out, casting="unsafe")
        out += edge_csc[e, None] + i

    target, urows = target.astype(index), urows.astype(index)
    runs = np.stack([run_first - uoff[run_node], run_len, target[run_first]], axis=1)
    run_ptr = np.searchsorted(run_node, np.arange(n_nodes + 1))
    children = np.flatnonzero(u[:-1])                   # the children with updates
    children = children[np.argsort(parent[children], kind="stable")]
    child_ptr = np.searchsorted(parent[children], np.arange(n_nodes + 1))
    levels = [lv.tolist() for lv in np.split(np.argsort(level, kind="stable"),
                                             np.cumsum(np.bincount(level))[:-1])]
    by_level = np.argsort(level[row_node], kind="stable")
    level_rows = np.split(urows[by_level], np.cumsum(np.bincount(level[row_node],
                                                                 minlength=len(levels)))[:-1])
    return Supernodes(parent, start, urows, uoff, offset, levels, level_rows,
                      int((size * column).sum()), pos, csc, child_ptr, children,
                      n_pivot, target, run_ptr, runs)


def _check(info: int) -> None:
    if info != 0:
        raise SolverFailure("Cholesky factorization failed: the condensed matrix is "
                            f"not positive definite (potrf info = {info})")


@functools.cache
def _tiles(n: int) -> list[tuple[int, int]]:
    """The ranges of 0 .. n - 1 in blocks of ``_BLOCK``."""
    return [(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK)]


def _factor_front(a11: np.ndarray, a21: np.ndarray) -> np.ndarray:
    """Factor an assembled front in place: ``a11`` (p, p), lower triangle
    read, becomes L11 (upper triangle zero) and ``a21`` (u, p) becomes L21;
    returns the update matrix -L21 L21^T (u, u), lower triangle valid, upper
    triangle zero, so that the extend-add keeps every front's upper triangle
    zero. Both blocks are C-contiguous."""
    p, u = a11.shape[0], a21.shape[0]
    if p <= _BLOCK and u <= _SYRK_MAX:
        # the transposes are Fortran-ordered views: every call works in place
        if p:
            _check(lapack.dpotrf(a11.T, lower=0, clean=1, overwrite_a=1)[1])
        if not (p and u):
            return np.zeros((u, u))
        blas.dtrsm(1.0, a11.T, a21.T, side=0, lower=0, trans_a=1, overwrite_b=1)
        return blas.dsyrk(-1.0, a21.T, trans=1, lower=0).T
    # left-looking in pivot blocks of 64, on Fortran-ordered copies of the
    # 64 x 64 tiles of the pivot columns, so that every call works in place:
    # the rows of L11 (the tiles on and below the diagonal), then of L21
    pivots, updates = _tiles(p), _tiles(u)
    rows = ([[np.asfortranarray(a11[i0:i1, j0:j1]) for j0, j1 in pivots[:i + 1]]
             for i, (i0, i1) in enumerate(pivots)]
            + [[np.asfortranarray(a21[i0:i1, j0:j1]) for j0, j1 in pivots]
               for i0, i1 in updates])
    for k in range(len(pivots)):
        for i in range(k, len(rows)):
            _subtract_products(rows[i][k], rows[i], rows[k], k)
        diagonal = rows[k][k]
        _check(lapack.dpotrf(diagonal, lower=1, clean=1, overwrite_a=1)[1])
        for i in range(k + 1, len(rows)):
            blas.dtrsm(1.0, diagonal, rows[i][k], side=1, lower=1, trans_a=1, overwrite_b=1)
    for i, (i0, i1) in enumerate(pivots):
        for j, (j0, j1) in enumerate(pivots[:i + 1]):
            a11[i0:i1, j0:j1] = rows[i][j]
    rows = rows[len(pivots):]
    update = np.zeros((u, u))
    for i, (i0, i1) in enumerate(updates):
        for j, (j0, j1) in enumerate(pivots):
            a21[i0:i1, j0:j1] = rows[i][j]
        for k, (k0, k1) in enumerate(updates[:i + 1]):
            tile = np.zeros((i1 - i0, k1 - k0), order="F")
            _subtract_products(tile, rows[i], rows[k], len(pivots))
            update[i0:i1, k0:k1] = tile
    return update


def _subtract_products(tile: np.ndarray, left: list, right: list, count: int) -> None:
    """tile -= sum over j < count of left[j] right[j]^T, in place (the lower
    triangle only where ``left`` is ``right``, a diagonal tile)."""
    for j in range(count):
        if left is right:
            blas.dsyrk(-1.0, left[j], 1.0, tile, lower=1, overwrite_c=1)
        else:
            blas.dgemm(-1.0, left[j], right[j], 1.0, tile, trans_b=1, overwrite_c=1)


def _matvec(a: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """a x, or a^T x, in products of at most ``_GEMV_MAX`` entries."""
    rows = max(1, _GEMV_MAX // max(a.shape[1], 1))
    if len(a) <= rows:
        return x @ a if transpose else a @ x
    parts = [(x[i:i + rows] @ a[i:i + rows]) if transpose else (a[i:i + rows] @ x)
             for i in range(0, len(a), rows)]
    return sum(parts[1:], parts[0]) if transpose else np.concatenate(parts)


class Cholesky:
    """The factor L, L L^T = A, of a symmetric positive definite CSC
    ``matrix`` (sorted rows, the lower triangle read) with the pattern that
    ``sn`` analysed. A pivot that is not positive is a ``SolverFailure``."""

    def __init__(self, sn: Supernodes, matrix: sps.csc_matrix):
        if matrix.nnz != sn.nnz:
            raise ValueError(f"the matrix has {matrix.nnz} stored entries, its pattern {sn.nnz}")
        self.sn = sn
        factor = np.zeros(int(sn.offset[-1]))
        factor[sn.entry_pos] = matrix.data[sn.entry_csc]
        pending = {}                   # the update matrices not yet added
        self._l11t, self._l21 = [], []   # per node: L11^T (Fortran-ordered) and L21
        starts, offsets, uoff = sn.start.tolist(), sn.offset.tolist(), sn.uoff.tolist()
        child_ptr, children = sn.child_ptr.tolist(), sn.children.tolist()
        pivot_rows, run_ptr, runs = sn.pivot_rows.tolist(), sn.run_ptr.tolist(), sn.runs.ravel().tolist()
        for j in range(len(sn.parent)):
            p, u, off = starts[j + 1] - starts[j], uoff[j + 1] - uoff[j], offsets[j]
            a11 = factor[off:off + p * p].reshape(p, p)
            a21 = factor[off + p * p:off + p * p + u * p].reshape(u, p)
            # the children's update matrices, column run by column run: the
            # pivot columns here before the factorization, the others into
            # this node's update matrix after it
            extra = []
            for c in children[child_ptr[j]:child_ptr[j + 1]]:
                upd, q, target = pending.pop(c), pivot_rows[c], sn.target[uoff[c]:uoff[c + 1]]
                run = runs[3 * run_ptr[c]:3 * run_ptr[c + 1]]
                for first, length, at in zip(run[::3], run[1::3], run[2::3]):
                    block = upd[first:, first:first + length]
                    if first < q:          # pivot columns of this front
                        a11[target[first:q], at:at + length] += block[:q - first]
                        if q < len(upd):
                            a21[target[q:], at:at + length] += block[q - first:]
                    else:
                        extra.append((block, target[first:], at, length))
            update = _factor_front(a11, a21)
            self._l11t.append(a11.T)
            self._l21.append(a21)
            for block, rows, at, length in extra:
                update[rows, at:at + length] += block
            if u:
                pending[j] = update
        self.factor = factor

    @property
    def nnz(self) -> int:
        """The entries of L on and below the diagonal of every node's block."""
        p = np.diff(self.sn.start)
        u = np.diff(self.sn.uoff)
        return int((p * (p + 1) // 2 + u * p).sum())

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b: L y = b level by level from the deepest, then L^T x = y
        from the root. The nodes of a level are independent: the rows they
        update are gathered and scattered once per level."""
        x = np.array(b, dtype=float)
        start, l11t, l21 = self.sn.start.tolist(), self._l11t, self._l21
        for level, rows in zip(self.sn.levels, self.sn.level_rows):
            parts = []
            for j in level:
                y = x[start[j]:start[j + 1]]
                if len(y):
                    blas.dtrsv(l11t[j], y, lower=0, trans=1, overwrite_x=1)
                parts.append(_matvec(l21[j], y))
            x -= np.bincount(rows, np.concatenate(parts), len(x))
        for level, rows in zip(reversed(self.sn.levels), reversed(self.sn.level_rows)):
            g = x[rows]
            at = 0
            for j in level:
                y = x[start[j]:start[j + 1]]
                y -= _matvec(l21[j], g[at:at + len(l21[j])], transpose=True)
                at += len(l21[j])
                if len(y):
                    blas.dtrsv(l11t[j], y, lower=0, trans=0, overwrite_x=1)
        return x
