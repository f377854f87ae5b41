"""The supernodal Cholesky factorization (``ddrplate.cholesky``) on small
hand-made separator trees: the analysis places each graph entry's block in
the fronts where the node-block oracle puts its entries, L L^T reproduces
the matrix and the solves invert it, through the one-call fronts, the tiled
large fronts and a tree node that holds no unknown."""

import numpy as np
import pytest
import scipy.sparse as sps

from conftest import lower_factor, node_blocks
from ddrplate.cholesky import Cholesky, analyse
from ddrplate.errors import SolverFailure


def _supernodes(edges, node, size, parent):
    """The analysis of an entity graph given by its ``edges`` (pairs), the
    entities numbered by node and the tree in postorder: the supernodes,
    the factor position of each graph entry's block, and the graph."""
    n_ent = len(node)
    a, b = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    graph = sps.csr_matrix((np.ones(2 * len(a) + n_ent),
                            (np.r_[a, b, np.arange(n_ent)], np.r_[b, a, np.arange(n_ent)])),
                           shape=(n_ent, n_ent))
    graph.sum_duplicates()
    parent = np.array(parent)
    depth = np.zeros(len(parent), dtype=np.int64)
    for i in range(len(parent) - 2, -1, -1):
        depth[i] = depth[parent[i]] + 1
    return analyse(graph.indptr, graph.indices, np.array(node), np.array(size),
                   parent, depth) + (graph,)


def _spd(graph, size, rng):
    """A random SPD matrix on the unknowns of the entities, with the entity
    graph's pattern: every unknown of an entity couples with all those of
    the entity and of its neighbours."""
    size = np.asarray(size)
    first = np.cumsum(size) - size
    dofs = [np.arange(first[e], first[e] + size[e]) for e in range(len(size))]
    n = int(size.sum())
    coo = graph.tocoo()
    rows = np.concatenate([np.repeat(dofs[i], size[j]) for i, j in zip(coo.row, coo.col)])
    cols = np.concatenate([np.tile(dofs[j], size[i]) for i, j in zip(coo.row, coo.col)])
    vals = rng.standard_normal(len(rows))
    A = sps.csc_matrix((vals, (rows, cols)), shape=(n, n))
    A = A + A.T
    A = A + sps.diags(abs(A).sum(axis=1).A.ravel() + 1.0)
    A.sort_indices()
    return A.tocsc()


def _fronts(sn, edge_at, graph, size, A):
    """The node-block array of A placed by ``edge_at``: graph entry (a, b)
    holds A's block of the unknowns of b by those of a, its entry (r, c) at
    ``edge_at + r p + c``, p the pivots of a's node; above the diagonal
    ``edge_at`` is -1."""
    first = np.cumsum(size) - size
    p = np.diff(sn.start)
    node = np.repeat(np.arange(len(p)), p)
    dense = A.toarray()
    out = np.zeros(sn.offset[-1])
    coo = graph.tocoo()
    for e, (a, b) in enumerate(zip(coo.row, coo.col)):
        assert (edge_at[e] < 0) == (b < a)
        for r in range(size[b] if b >= a else 0):
            for c in range(r + 1 if b == a else size[a]):
                out[edge_at[e] + r * p[node[first[a]]] + c] = dense[first[b] + r, first[a] + c]
    return out


def _check(sn, edge_at, graph, size, A, rng):
    """The analysis places A's entries where the node-block oracle does,
    and the factor of A reproduces and inverts it."""
    fronts = node_blocks(sn, A)
    assert np.array_equal(_fronts(sn, edge_at, graph, np.asarray(size), A), fronts)
    chol = Cholesky(sn, fronts)
    assert chol.factor is fronts               # factored in place
    L = lower_factor(chol)
    assert chol.nnz >= L.nnz
    assert abs(L @ L.T - A).max() <= 1e-13 * abs(A).max()
    b = rng.standard_normal(A.shape[0])
    x = chol.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b) * np.linalg.cond(A.toarray())


def test_a_node_without_unknowns_passes_its_children_updates_on(rng):
    """A path a - b - c - d: the leaves {a} and {d} under a node that holds
    no entity, under the root {b, c}. The empty node has no pivot, and its
    front only carries its children's updates to the root."""
    edges = [(0, 2), (2, 3), (3, 1)]          # a = 0, d = 1, b = 2, c = 3
    node, size, parent = [0, 1, 3, 3], [2, 3, 1, 2], [2, 2, 3, -1]
    sn, edge_at, graph = _supernodes(edges, node, size, parent)
    assert np.diff(sn.start).tolist() == [2, 3, 0, 3]
    assert np.diff(sn.uoff).tolist() == [1, 2, 3, 0]
    _check(sn, edge_at, graph, size, _spd(graph, size, rng), rng)


@pytest.mark.parametrize("pivots, updates, apart",
                         [(70, 0, 0), (200, 130, 0), (40, 150, 0), (130, 20, 0), (40, 150, 32)])
def test_large_fronts_are_factored_in_tiles(pivots, updates, apart, rng):
    """A leaf of ``pivots`` unknowns under a root of ``updates`` ones, all
    coupled, and ``apart`` more in the root that couple with the root only:
    fronts with more than 64 pivots or 96 update rows go through the blocked
    path, which reproduces the matrix as the one-call path does. With the
    root's own unknowns first, the leaf's update tiles straddle the root's
    pivot blocks, and L11 keeps a zero upper triangle all the same."""
    n_ent = pivots + apart + updates
    leaf, root = range(pivots), range(pivots, n_ent)
    edges = ([(i, j) for i in leaf for j in leaf if j < i]
             + [(i, j) for i in leaf for j in root[apart:]]
             + [(i, j) for i in root for j in root if j < i])
    node = [0] * pivots + [1] * (apart + updates)
    sn, edge_at, graph = _supernodes(edges, node, [1] * n_ent, [1, -1])
    _check(sn, edge_at, graph, [1] * n_ent, _spd(graph, [1] * n_ent, rng), rng)


def test_indefinite_matrix_is_a_solver_failure(rng):
    edges = [(0, 2), (2, 3), (3, 1)]
    node, size, parent = [0, 1, 3, 3], [2, 3, 1, 2], [2, 2, 3, -1]
    sn, _, graph = _supernodes(edges, node, size, parent)
    A = _spd(graph, size, rng)
    A = A - 1e3 * sps.eye(A.shape[0], format="csc")
    with pytest.raises(SolverFailure, match="not positive definite"):
        Cholesky(sn, node_blocks(sn, A))


def test_fronts_of_another_size_are_refused(rng):
    """An array that is not the factor's size, or not contiguous, is
    refused before anything is factored."""
    edges = [(0, 2), (2, 3), (3, 1)]
    node, size, parent = [0, 1, 3, 3], [2, 3, 1, 2], [2, 2, 3, -1]
    sn, _, graph = _supernodes(edges, node, size, parent)
    fronts = node_blocks(sn, _spd(graph, size, rng))
    for bad in (fronts[:-1], np.append(fronts, 0.0), np.repeat(fronts, 2)[::2]):
        with pytest.raises(ValueError, match="the factor"):
            Cholesky(sn, bad)
