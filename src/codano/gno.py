"""Graph-kernel integral operators between arbitrary point meshes.

A NeighborIndex lists every (query, source) pair within radius r, by an
exact squared-distance test (`radius_pairs`). Application is a discrete
kernel integral: messages k(x, y_i) f(y_i) q_i summed over the
neighborhood, with quadrature weights q_i from the source mesh in a
constant CSR gather, so gradients flow only into the kernel MLP, the
kernel's bias and the function values.
`gno_set_apply` takes and returns token values (..., n_points, c), as the
spectral blocks do, and is one `ad.kernel_integral` node, which alone lays
the groups out as columns.

An index holds no mesh, only what the integral reads from one, so the model
can keep it on the mesh it indexes (see `model._latent_neighbors`) without a
reference cycle: dropping the mesh frees the index, and the no_grad kernel
matrices kept on it (`KernelNet.matrices`), at once.
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

    Pairs are ordered by (query index, source index). Built from the two
    meshes, the index keeps only what the kernel integral reads: the point
    counts `n_query` and `n_source`, the read-only pair coordinates
    (n_pairs, 2*dim) with the query point first, and gather/scatter CSR
    matrices (with precomputed transposes). The gather's one entry per row
    is its pair's source quadrature weight, so weighting inside the gather
    rounds as weighting after it; the scatter's entries are ones. It holds
    no mesh. `kernel_memo` maps a kernel's name to its no_grad matrices on
    these pairs (see `KernelNet.matrices`).
    """

    def __init__(self, query_mesh: Mesh, source_mesh: Mesh, query_idx: np.ndarray,
                 source_idx: np.ndarray):
        self.n_query = query_mesh.n_points
        self.n_source = source_mesh.n_points
        self.n_pairs = len(query_idx)
        self.pair_coords = np.concatenate(
            [query_mesh.points[query_idx], source_mesh.points[source_idx]], axis=1)
        self.pair_coords.setflags(write=False)
        self.kernel_memo: dict[str, tuple] = {}

        n_q, n_s, p = self.n_query, self.n_source, self.n_pairs
        gather = sp.csr_matrix((source_mesh.quad_weights[source_idx],
                                (np.arange(p), source_idx)), shape=(p, n_s))
        scatter = sp.csr_matrix((np.ones(p), (query_idx, np.arange(p))), shape=(n_q, p))
        self.gather = (gather, gather.T.tocsr())
        self.scatter = (scatter, scatter.T.tocsr())


def radius_pairs(q: np.ndarray, s: np.ndarray, r: float):
    """(query indices, source indices) of every pair of points of q and s
    with squared distance <= r*r, sorted by query, then source. One tree
    serves both sides when s is q."""
    # the trees only propose candidates; a slightly wider radius keeps pairs at
    # distance exactly r whatever rounding the tree's own distances carry
    tree = cKDTree(q)
    cand = tree.sparse_distance_matrix(
        tree if s is q else cKDTree(s), r * (1.0 + 1e-9), output_type="ndarray")
    order = np.lexsort((cand["j"], cand["i"]))
    qi = cand["i"][order].astype(np.int64)
    si = cand["j"][order].astype(np.int64)
    keep = ((s[si] - q[qi]) ** 2).sum(axis=1) <= r * r
    return qi[keep], si[keep]


def build_neighbors(query_mesh: Mesh, source_mesh: Mesh, r: float) -> NeighborIndex:
    """Exact Euclidean radius query (distance <= r, inclusive)."""
    if r <= 0:
        raise MeshError(f"neighbor radius must be positive, got {r}")
    if query_mesh.dim != source_mesh.dim:
        raise MeshError("query and source meshes have different dimensions")
    return NeighborIndex(query_mesh, source_mesh,
                         *radius_pairs(query_mesh.points, source_mesh.points, r))


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

    def param_shapes(self) -> dict:
        """Name -> shape of each parameter init_params creates, in its order."""
        return {**self.mlp.param_shapes(), f"{self.name}.bias": (self.d_out,)}

    def matrices(self, store: ad.ParamStore, nbrs: NeighborIndex) -> np.ndarray:
        """Kernel matrices (n_pairs, d_in, d_out) of every neighbor pair for
        an apply under no_grad, built by `ad.kernel_matrices`.

        The result is kept read-only in `nbrs.kernel_memo` under this
        kernel's name, with the shape and bytes of each MLP parameter, and
        returned while those bytes are unchanged; bytes, not a version
        counter, because `grad_check` writes `.data` in place. A taped apply
        drops the entry and does not call this (see `gno_set_apply`).
        """
        key = tuple((store[n].data.shape, store[n].data.tobytes())
                    for n in self.mlp.param_shapes())
        entry = nbrs.kernel_memo.pop(self.name, None)
        if entry is not None and entry[0] == key:
            nbrs.kernel_memo[self.name] = entry
            return entry[1]
        k = ad.kernel_matrices(nbrs.pair_coords, *self.mlp.layers(store), self.d_in)
        k.setflags(write=False)
        nbrs.kernel_memo[self.name] = (key, k)
        return k


def gno_set_apply(kernel: KernelNet, store: ad.ParamStore, nbrs: NeighborIndex,
                  values) -> ad.Tensor:
    """Shared-kernel integral of token values (..., n_source, d_in) to
    (..., n_query, d_out), each leading index (sample, token) one group, as
    one `ad.kernel_integral` node with the kernel's bias.

    Under no_grad the node reads the matrices that `KernelNet.matrices`
    keeps for this index. Otherwise it evaluates the kernel MLP itself, and
    this kernel's memo entry is dropped: it was computed for parameters a
    training step is about to change, and would sit beside the tape."""
    values = ad.as_tensor(values)
    if values.shape[-2:] != (nbrs.n_source, kernel.d_in):
        raise ShapeError(f"expected source values (..., {nbrs.n_source}, {kernel.d_in}), "
                         f"got {values.shape}")
    matrices = None if ad.grad_enabled() else kernel.matrices(store, nbrs)
    if matrices is None:
        nbrs.kernel_memo.pop(kernel.name, None)
    return ad.kernel_integral(values, nbrs.pair_coords, *kernel.mlp.layers(store),
                              store[f"{kernel.name}.bias"], nbrs.gather, nbrs.scatter,
                              matrices)


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
