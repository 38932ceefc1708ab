"""Graph-kernel integral operators between arbitrary point meshes.

A NeighborIndex lists every (query, source) pair within radius r. A k-d tree
(scipy's cKDTree) proposes candidate pairs; an exact squared-distance test
decides, so pairs at distance exactly r on uniform grids are kept whatever
rounding the tree's own distances carry. Application is a discrete kernel
integral: messages k(x, y_i) f(y_i) q_i summed over the neighborhood, with
quadrature weights q_i from the source mesh. Gather and scatter run through
constant sparse matrices so gradients flow only into the kernel MLP and the
function values.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from . import autodiff as ad
from .errors import MeshError, ShapeError
from .field import Mesh
from .spectral import PointwiseOp


class NeighborIndex:
    """Radius-r neighbor pairs between a query mesh and a source mesh.

    Pairs are ordered by (query index, source index). Gather/scatter CSR
    matrices (with precomputed transposes) are built once for reuse.
    """

    def __init__(self, query_mesh: Mesh, source_mesh: Mesh, query_idx: np.ndarray,
                 source_idx: np.ndarray):
        self.query_mesh = query_mesh
        self.source_mesh = source_mesh
        self.query_idx = query_idx
        self.source_idx = source_idx
        self.n_pairs = len(query_idx)
        self.pair_weights = source_mesh.quad_weights[source_idx]

        n_q, n_s, p = query_mesh.n_points, source_mesh.n_points, self.n_pairs
        ones = np.ones(p)
        gather = sp.csr_matrix((ones, (np.arange(p), source_idx)), shape=(p, n_s))
        scatter = sp.csr_matrix((ones, (query_idx, np.arange(p))), shape=(n_q, p))
        self.gather = (gather, gather.T.tocsr())
        self.scatter = (scatter, scatter.T.tocsr())


def build_neighbors(query_mesh: Mesh, source_mesh: Mesh, r: float) -> NeighborIndex:
    """Exact Euclidean radius query (distance <= r, inclusive)."""
    if r <= 0:
        raise MeshError(f"neighbor radius must be positive, got {r}")
    if query_mesh.dim != source_mesh.dim:
        raise MeshError("query and source meshes have different dimensions")
    q, s = query_mesh.points, source_mesh.points
    # the trees only propose candidates; a slightly wider radius keeps pairs at
    # distance exactly r whatever rounding the tree's own distances carry
    cand = cKDTree(q).sparse_distance_matrix(
        cKDTree(s), r * (1.0 + 1e-9), output_type="ndarray")
    order = np.lexsort((cand["j"], cand["i"]))
    qi = cand["i"][order].astype(np.int64)
    si = cand["j"][order].astype(np.int64)
    keep = ((s[si] - q[qi]) ** 2).sum(axis=1) <= r * r
    return NeighborIndex(query_mesh, source_mesh, qi[keep], si[keep])


class KernelNet:
    """MLP kernel k(x, y): concatenated coordinates to a d_out x d_in matrix."""

    def __init__(self, name: str, dim: int, d_in: int, d_out: int, hidden=(32, 32)):
        self.name = name
        self.dim = int(dim)
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.mlp = PointwiseOp(f"{name}.k", (2 * dim, *hidden, d_out * d_in))

    def init_params(self, store: ad.ParamStore, rng) -> None:
        self.mlp.init_params(store, rng)
        store.add(f"{self.name}.bias", np.zeros(self.d_out))

    def param_names(self) -> list[str]:
        return self.mlp.param_names() + [f"{self.name}.bias"]

    def matrices(self, store: ad.ParamStore, nbrs: NeighborIndex) -> ad.Tensor:
        """Kernel matrices for every neighbor pair, shape (n_pairs, d_out, d_in)."""
        coords = np.concatenate(
            [nbrs.query_mesh.points[nbrs.query_idx],
             nbrs.source_mesh.points[nbrs.source_idx]], axis=1)
        k = self.mlp(store, ad.Tensor(coords))
        return ad.reshape(k, (nbrs.n_pairs, self.d_out, self.d_in))


def gno_set_apply(kernel: KernelNet, store: ad.ParamStore, nbrs: NeighborIndex,
                  values, groups: int) -> ad.Tensor:
    """Shared-kernel integral per width-d_in group of (n_source, groups*d_in)."""
    values = ad.as_tensor(values)
    n_s, total = values.shape
    if n_s != nbrs.source_mesh.n_points or total != groups * kernel.d_in:
        raise ShapeError(
            f"expected source values {(nbrs.source_mesh.n_points, groups * kernel.d_in)}, "
            f"got {values.shape}")
    p = nbrs.n_pairs
    k = ad.reshape(kernel.matrices(store, nbrs), (p, 1, kernel.d_out, kernel.d_in))
    gathered = ad.sparse_matmul(nbrs.gather, values) * nbrs.pair_weights[:, None]
    gathered = ad.reshape(gathered, (p, groups, kernel.d_in, 1))
    # one kernel mat-vec per (pair, group): groups carry variables
    msgs = ad.matmul(k, gathered)
    msgs = ad.reshape(msgs, (p, groups * kernel.d_out))
    out = ad.sparse_matmul(nbrs.scatter, msgs)
    out = ad.reshape(out, (nbrs.query_mesh.n_points, groups, kernel.d_out))
    out = out + store[f"{kernel.name}.bias"]
    return ad.reshape(out, (nbrs.query_mesh.n_points, groups * kernel.d_out))


def nearest_neighbor_spacing(mesh: Mesh) -> float:
    """Mean distance from each point to its nearest other point.

    Computed once per mesh and kept on the Mesh object (its points are
    read-only). The tree proposes each point's two nearest points, itself
    usually among them; the minimum is taken over exact squared distances
    to the others, so coincident points and ties give the value of a
    brute-force search bit for bit.
    """
    if "_nn_spacing" in mesh.__dict__:
        return mesh.__dict__["_nn_spacing"]
    pts = mesh.points
    n = len(pts)
    if n < 2:
        raise MeshError("nearest-neighbor spacing needs at least two points")
    _, cand = cKDTree(pts).query(pts, k=2)
    d2 = ((pts[:, None, :] - pts[cand]) ** 2).sum(axis=2)
    d2[cand == np.arange(n)[:, None]] = np.inf
    spacing = float(np.sqrt(d2.min(axis=1)).mean())
    mesh.__dict__["_nn_spacing"] = spacing
    return spacing
