"""Codomain attention neural operator over per-variable token functions.

Each physical variable becomes one token function on a shared uniform latent
grid. Attention logits are quadrature inner products of query/key token
functions; key/query/value maps, the head merge, and the output integral
operator are spectral blocks shared across tokens, making the model
permutation-equivariant in the variables. Key, query and value are one
spectral block per layer, their channels split off after it; the heads sit
side by side in each and are split off on a tensor axis, so a layer runs
three spectral blocks whatever its head count. Encoders
move between the data mesh and the latent grid either by graph-kernel
integration (any mesh) or by exact spectral resampling (uniform grids only).
Spectral blocks and the Fourier positional encoding use the half-band FFT
pair ad.fftn/ad.ifftn, and resampling the two-sided ad.resample; these take
token values and alone know the grid layout, and the autodiff module
docstring states their convention and band layouts. A spectral model
answers on its input's box only.

A batch of functions on one mesh carries a leading sample axis: token values
are (S, T, n, c), and the token-wise blocks and normalization take them as
they are, with the S*T tokens as one batch. Attention, normalization and
the GNO messages never mix samples.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .errors import (POSITIVE, MeshError, NumericError, ShapeError,
                     TrainingStateError, UnknownVariableError,
                     VariableExistsError, check_settings)
from .field import GridFunction, Mesh
from .gno import KernelNet, build_neighbors, gno_set_apply
from .spectral import FnoBlock, PointwiseOp, spectral_resample

COORD_FREQUENCIES = (1, 2, 4, 8)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; fully determines the parameter set."""

    variables: tuple[str, ...]
    embed_dim: int = 8              # positional embedding width per variable
    latent_width: int = 32          # lifted channels per variable
    token_width: int = 0            # 0 means latent_width (one token per variable)
    n_heads: int = 4
    key_width: int = 32
    value_width: int = 32
    modes: int = 16
    encoder_layers: int = 3
    reconstructor_layers: int = 3
    predictor_layers: int = 1
    latent_resolution: tuple[int, ...] = (32, 32)
    use_gno: bool = True
    gno_radius: float = 0.0         # 0 means 2.5 x mean latent spacing
    gno_hidden: tuple[int, ...] = (32, 32)
    vspe_variant: str = "fourier"
    vspe_modes: int = 8
    temperature: float | str = "auto"
    activation: str = "gelu"
    norm_eps: float = 1e-5
    kind: str = "codano"            # the one kind; stored checkpoints carry it
    seed: int = 0

    def __post_init__(self):
        check_settings(self, ShapeError, {
            "embed_dim": (0, None), "latent_width": (1, None), "token_width": (0, None),
            "n_heads": (1, None), "key_width": (1, None), "value_width": (1, None),
            "modes": (1, None), "encoder_layers": (0, None), "predictor_layers": (0, None),
            "reconstructor_layers": (0, None), "latent_resolution": (1, None),
            "gno_radius": (0, None), "gno_hidden": (1, None), "vspe_modes": (1, None),
            "temperature": POSITIVE, "norm_eps": POSITIVE, "seed": (0, None)})
        if len(set(self.variables)) != len(self.variables) or not self.variables:
            raise ShapeError("variables must be nonempty and unique")
        if self.token_width == 0:
            object.__setattr__(self, "token_width", self.latent_width)
        if self.latent_width % self.token_width:
            raise ShapeError(
                f"token width {self.token_width} must divide latent width "
                f"{self.latent_width}")
        for name, known in (("kind", ("codano",)), ("activation", ("gelu",)),
                            ("vspe_variant", ("fourier", "coord-mlp"))):
            if getattr(self, name) not in known:
                raise ShapeError(f"unknown {name} {getattr(self, name)!r} (known: {known})")
        if isinstance(self.temperature, str) and self.temperature != "auto":
            raise ShapeError(f"temperature must be 'auto' or positive, got "
                             f"{self.temperature!r}")

    @property
    def tokens_per_variable(self) -> int:
        return self.latent_width // self.token_width

    def latent_mesh(self, extents) -> Mesh:
        return Mesh.uniform(self.latent_resolution, extents=extents)

    def radius(self, latent_mesh: Mesh) -> float:
        if self.gno_radius > 0:
            return self.gno_radius
        return 2.5 * float(np.mean(latent_mesh.spacing))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


# -- variable-specific positional encoders ----------------------------------


class Vspe:
    """Per-variable positional encoder, evaluable on any mesh of the domain.

    fourier: learnable complex coefficients on the half band of ad.ifftn
    with vspe_modes per axis, shape (2m, m, embed_dim) in 2-D, stored as
    (re, im) pairs, shape (2m, m, embed_dim, 2), and evaluated as a real
    Fourier series (uniform grids only).
    coord-mlp: an MLP on sinusoidal features of position (any mesh).
    """

    def __init__(self, variant: str, embed_dim: int, modes: int, dim: int = 2):
        self.variant = variant
        self.embed_dim = embed_dim
        self.modes = modes
        self.dim = dim

    @classmethod
    def from_config(cls, config: ModelConfig, dim: int = 2) -> "Vspe":
        return cls(config.vspe_variant, config.embed_dim, config.vspe_modes, dim)

    def _mlp(self, var: str) -> PointwiseOp:
        n_feat = 2 * len(COORD_FREQUENCIES) * self.dim
        hidden = max(2 * self.embed_dim, 4)
        return PointwiseOp(f"vspe.{var}", (n_feat, hidden, self.embed_dim))

    def init_var(self, store: ad.ParamStore, var: str, rng) -> None:
        if self.variant == "fourier":
            shape = self.param_shapes(var)[f"vspe.{var}.coef"][:-1]
            scale = (2 * self.modes) ** (-self.dim / 2)
            re = rng.standard_normal(shape) * scale
            im = rng.standard_normal(shape) * scale
            store.add(f"vspe.{var}.coef", np.stack((re, im), -1))
        else:
            self._mlp(var).init_params(store, rng)

    def param_shapes(self, var: str) -> dict:
        """Name -> shape of each parameter init_var creates, in its order."""
        if self.variant == "fourier":
            return {f"vspe.{var}.coef":
                    (2 * self.modes,) * (self.dim - 1) + (self.modes, self.embed_dim, 2)}
        return self._mlp(var).param_shapes()

    def evaluate(self, store: ad.ParamStore, var: str, mesh: Mesh) -> ad.Tensor:
        """Embedding values at every mesh point, shape (n_points, embed_dim)."""
        if next(iter(self.param_shapes(var))) not in store:
            raise UnknownVariableError(f"no positional encoder for variable {var!r}")
        if self.variant == "fourier":
            if not mesh.is_uniform or mesh.dim != self.dim:
                raise MeshError(f"fourier positional encoding needs a uniform {self.dim}D grid")
            coeff = ad.complex_view(store[f"vspe.{var}.coef"])
            return ad.ifftn(coeff * float(mesh.n_points), mesh.resolution)
        feats = self.features(mesh)
        return self._mlp(var)(store, ad.Tensor(feats))

    def features(self, mesh: Mesh) -> np.ndarray:
        unit = mesh.points / np.asarray(mesh.extents)
        parts = []
        for k in COORD_FREQUENCIES:
            parts.append(np.sin(2 * np.pi * k * unit))
            parts.append(np.cos(2 * np.pi * k * unit))
        return np.concatenate(parts, axis=1)


# -- function-space normalization --------------------------------------------


def normalize(values: ad.Tensor, gain, bias, mesh: Mesh, eps: float = 1e-5) -> ad.Tensor:
    """Whiten each token function under the probability measure of the domain.

    values (..., n_points, c), with any leading sample and token axes. Mean
    and variance are quadrature integrals with weights divided by the domain
    measure; output = gain/(sigma+eps) * (values - mean) + bias.
    """
    # einsum2 takes no ellipsis: one letter per leading axis, none of them n or c
    lead = "abdefghijklm"[:values.ndim - 2]
    spec = f"{lead}nc,n->{lead}c"
    w = mesh.quad_weights / mesh.measure
    mu = ad.einsum2(spec, values, w)
    per_point = mu.shape[:-1] + (1, mu.shape[-1])
    centered = values - ad.reshape(mu, per_point)
    var = ad.einsum2(spec, centered * centered, w)
    # tiny floor keeps the sqrt differentiable at exactly-constant tokens
    sigma = ad.tsqrt(var + 1e-24)
    scale = ad.as_tensor(gain) / (sigma + eps)
    return centered * ad.reshape(scale, per_point) + ad.as_tensor(bias)


# -- one attention layer ------------------------------------------------------


class CodanoLayer:
    """Multi-head function-space attention + normalization + integral block.

    Key, query and value are one spectral block `kqv` whose output channels
    are the key's, the query's and the value's side by side, each head-major
    (n_heads, width); the merge block reads the mixed values in that order.
    """

    def __init__(self, name: str, config: ModelConfig):
        self.name = name
        self.config = config
        d_t, h, m = config.token_width, config.n_heads, config.modes
        kw, vw = h * config.key_width, h * config.value_width
        self.kqv = FnoBlock(f"{name}.kqv", d_t, (kw, kw, vw), m, activation=False)
        self.merge = FnoBlock(f"{name}.merge", vw, d_t, m, activation=False)
        self.iper = FnoBlock(f"{name}.iper", d_t, d_t, m, activation=True)
        self.blocks = (self.kqv, self.merge, self.iper)

    def init_params(self, store: ad.ParamStore, rng) -> None:
        for block in self.blocks:
            block.init_params(store, rng)
        store.add(f"{self.name}.norm.gain", np.ones(self.config.token_width))
        store.add(f"{self.name}.norm.bias", np.zeros(self.config.token_width))

    def param_shapes(self) -> dict:
        """Name -> shape of each parameter init_params creates, in its order."""
        shapes = {n: s for block in self.blocks for n, s in block.param_shapes().items()}
        width = (self.config.token_width,)
        return {**shapes, f"{self.name}.norm.gain": width, f"{self.name}.norm.bias": width}

    def temperature(self, mesh: Mesh) -> float:
        if self.config.temperature == "auto":
            return float(np.sqrt(self.config.key_width) * mesh.measure)
        return float(self.config.temperature)

    def _rows(self, store: ad.ParamStore, tokens: ad.Tensor, mesh: Mesh):
        """(S, h, T, T) row softmax of logits <query_j, key_m> / tau, per
        sample of tokens (S, T, n, d) and head, and the values (S, T, n, h*vw)."""
        heads = tokens.shape[:3] + (self.config.n_heads, -1)
        k, q, v = ad.split(self.kqv(store, tokens, mesh.resolution), self.kqv.parts)
        q = ad.reshape(q, heads) * mesh.quad_weights[:, None, None]
        logits = ad.einsum2("sjnhc,smnhc->shjm", q, ad.reshape(k, heads))
        logits = logits / self.temperature(mesh)
        if not np.all(np.isfinite(logits.data)):
            raise NumericError("attention logits are not finite")
        return ad.softmax_rows(logits), v

    def attention_rows(self, store: ad.ParamStore, tokens, mesh: Mesh) -> np.ndarray:
        """Softmax attention matrices per head of one sample's tokens (T, n, d),
        shape (heads, T, T); no grads."""
        tokens = ad.as_tensor(tokens)
        with ad.no_grad():
            return self._rows(store, ad.reshape(tokens, (1,) + tokens.shape), mesh)[0].data[0]

    def attention(self, store: ad.ParamStore, tokens: ad.Tensor, mesh: Mesh) -> ad.Tensor:
        """Per sample and head: logits = <query_j, key_m>/tau, row-softmax,
        mix values; tokens (S, T, n, d)."""
        if tokens.ndim != 4 or tokens.shape[3] != self.config.token_width:
            raise ShapeError(f"expected (S, T, n, token width {self.config.token_width}) "
                             f"tokens, got {tokens.shape}")
        s, t, n, _ = tokens.shape
        h = self.config.n_heads
        att, v = self._rows(store, tokens, mesh)  # (S, h, T_j, T_m), (S, T_m, n, h*vw)
        # mix values with a value-sorted reduction over the source tokens m,
        # so that permuting a sample's tokens permutes its output bit-identically
        terms = (ad.reshape(ad.transpose(att, (0, 3, 2, 1)), (s, t, t, 1, h, 1))
                 * ad.reshape(v, (s, t, 1, n, h, self.config.value_width)))
        mixed = ad.reshape(ad.ordered_sum(terms, axis=1), (s, t, n, -1))
        return self.merge(store, mixed, mesh.resolution)

    def __call__(self, store: ad.ParamStore, tokens: ad.Tensor, mesh: Mesh) -> ad.Tensor:
        """tokens (S, T, n, d) -> (S, T, n, d)."""
        o = normalize(self.attention(store, tokens, mesh), store[f"{self.name}.norm.gain"],
                      store[f"{self.name}.norm.bias"], mesh, self.config.norm_eps)
        return self.iper(store, o + tokens, mesh.resolution)


# -- model assembly -----------------------------------------------------------


@dataclass
class _Ops:
    vspe: Vspe
    lift: PointwiseOp
    proj: PointwiseOp
    enc_kernel: KernelNet | None
    dec_kernel: KernelNet | None
    encoder: list
    reconstructor: list
    predictor: list


@functools.lru_cache(maxsize=64)
def _ops(config: ModelConfig) -> _Ops:
    d, w = config.latent_width, config.embed_dim
    enc_k = KernelNet("gno_enc", 2, d, d, hidden=config.gno_hidden) if config.use_gno else None
    dec_k = KernelNet("gno_dec", 2, d, d, hidden=config.gno_hidden) if config.use_gno else None
    return _Ops(
        vspe=Vspe.from_config(config),
        lift=PointwiseOp("lift", (1 + w, 2 * d, d)),
        proj=PointwiseOp("proj", (d, 2 * d, 1)),
        enc_kernel=enc_k, dec_kernel=dec_k,
        encoder=[CodanoLayer(f"encoder.layer{i}", config)
                 for i in range(config.encoder_layers)],
        reconstructor=[CodanoLayer(f"reconstructor.layer{i}", config)
                       for i in range(config.reconstructor_layers)],
        predictor=[CodanoLayer(f"predictor.layer{i}", config)
                   for i in range(config.predictor_layers)])


def _owners(config: ModelConfig) -> list:
    """What init_params draws for, in creation order: operators with
    init_params and param_shapes, and variable names, each standing for that
    variable's positional encoder."""
    ops = _ops(config)
    kernels = [ops.enc_kernel, ops.dec_kernel] if config.use_gno else []
    return [*config.variables, ops.lift, *kernels, *ops.encoder, *ops.reconstructor,
            ops.proj]


def init_params(config: ModelConfig) -> ad.ParamStore:
    """Fresh parameters in a deterministic creation order; no predictor head
    (the predictor is added by extend_variables when fine-tuning begins)."""
    rng = np.random.default_rng(config.seed)
    vspe = _ops(config).vspe
    store = ad.ParamStore()
    for owner in _owners(config):
        if isinstance(owner, str):
            vspe.init_var(store, owner, rng)
        else:
            owner.init_params(store, rng)
    return store


def param_shapes(config: ModelConfig, predictor: bool = False) -> dict:
    """Name -> shape of each parameter init_params creates, in its order,
    without drawing any values; with predictor, followed by the predictor
    head's."""
    ops = _ops(config)
    owners = _owners(config) + (ops.predictor if predictor else [])
    return {n: s for o in owners
            for n, s in (ops.vspe.param_shapes(o) if isinstance(o, str)
                         else o.param_shapes()).items()}


def has_predictor(params: ad.ParamStore, config: ModelConfig) -> bool:
    ops = _ops(config)
    return bool(ops.predictor) and next(iter(ops.predictor[0].param_shapes())) in params


def extend_variables(params: ad.ParamStore, config: ModelConfig,
                     new_variables, seed: int | None = None):
    """New config/params with fresh encoders for the new variables and a
    fresh predictor head; every prior non-predictor entry is copied
    bit-identically."""
    new_variables = tuple(new_variables)
    for var in new_variables:
        if var in config.variables:
            raise VariableExistsError(f"variable {var!r} already registered")
    if len(set(new_variables)) != len(new_variables):
        raise VariableExistsError("duplicate names in new variables")
    new_config = replace(config, variables=config.variables + new_variables)
    ops = _ops(new_config)
    predictor_names = {n for layer in ops.predictor for n in layer.param_shapes()}
    rng = np.random.default_rng([config.seed if seed is None else seed, 0x5EED])
    store = ad.ParamStore()
    for name, tensor in params.items():
        if name not in predictor_names:
            store.add(name, tensor.data)  # add copies
    for var in new_variables:
        ops.vspe.init_var(store, var, rng)
    for layer in ops.predictor:
        layer.init_params(store, rng)
    return store, new_config


def _tokens_from_groups(grouped: ad.Tensor, config: ModelConfig) -> ad.Tensor:
    """(S, n_vars, n, latent_width) -> (S, n_tokens, n, token_width)."""
    s, g, n, d = grouped.shape
    t = g * config.tokens_per_variable
    flat = ad.reshape(ad.transpose(grouped, (0, 2, 1, 3)), (s, n, t, config.token_width))
    return ad.transpose(flat, (0, 2, 1, 3))


def _groups_from_tokens(tokens: ad.Tensor, config: ModelConfig, n_vars: int) -> ad.Tensor:
    s, t, n, d_t = tokens.shape
    flat = ad.transpose(tokens, (0, 2, 1, 3))
    grouped = ad.reshape(flat, (s, n, n_vars, config.latent_width))
    return ad.transpose(grouped, (0, 2, 1, 3))


def _gno_transfer(kernel: KernelNet, params, nbrs, x: ad.Tensor) -> ad.Tensor:
    """(S, n_vars, n_source, d) -> (S, n_vars, n_query, d) through one
    gno_set_apply whose groups are the (sample, variable) pairs."""
    s, g, n, d = x.shape
    vals = ad.reshape(ad.transpose(x, (2, 0, 1, 3)), (n, s * g * d))
    out = gno_set_apply(kernel, params, nbrs, vals, groups=s * g)
    out = ad.reshape(out, (nbrs.n_query, s, g, d))
    return ad.transpose(out, (1, 2, 0, 3))


def _as_batch(a) -> tuple[list, bool]:
    """(the functions, whether a was a list) for one GridFunction or a list
    of them; a list must share one mesh and one variable-name order."""
    if isinstance(a, GridFunction):
        return [a], False
    batch = list(a)
    if not batch:
        raise ShapeError("a batch needs at least one function")
    first = batch[0]
    for f in batch[1:]:
        if not f.mesh.same(first.mesh):
            raise MeshError("batched functions must share one mesh")
        if f.names != first.names or f.values.shape != first.values.shape:
            raise ShapeError("batched functions must share one variable-name order")
    return batch, True


def _check_in_domain(query_mesh: Mesh, extents) -> None:
    box = np.asarray(extents)
    pts = query_mesh.points
    if np.any(pts < -1e-9) or np.any(pts > box + 1e-9):
        raise MeshError("query mesh extends outside the model domain box")


def _latent_neighbors(direction: str, mesh: Mesh, latent: Mesh, r: float):
    """The radius-r index from mesh to the latent grid ("enc") or back ("dec"),
    kept on mesh like its nearest-neighbor spacing and keyed on the latent
    grid's resolution and box (the input's, which a query mesh need not share)."""
    key = (direction, latent.resolution, latent.extents, r)
    memo = mesh.__dict__.setdefault("_neighbors", {})
    if key not in memo:
        pair = (latent, mesh) if direction == "enc" else (mesh, latent)
        memo[key] = build_neighbors(*pair, r)
    return memo[key]


def model_forward(params: ad.ParamStore, config: ModelConfig, a,
                  query_mesh: Mesh | None = None, head: str = "reconstructor") -> ad.Tensor:
    """Full pipeline on one GridFunction or a list of S of them.

    One function gives output values (n_query, n_input_variables); a list,
    which must share one mesh and one variable-name order, gives (S, n_query,
    n_input_variables). Either way the samples run as one taped forward on a
    leading sample axis: positional encodings and GNO kernel matrices are
    built once and shared (GNO neighbour indices once per mesh, which keeps
    them, and under no_grad the kernel matrices once per kernel parameter
    state, kept on those indices), while attention and every reduction over
    tokens or points stay within a sample, so each sample's output equals
    its own single-function forward bitwise.

    Variables are bound strictly by name, in the input's order, so permuting
    input channels (with their names) permutes output channels bit-identically.
    A subset of the registered variables is a valid input.
    """
    batch, is_list = _as_batch(a)
    a = batch[0]
    if query_mesh is None:
        query_mesh = a.mesh
    _check_in_domain(query_mesh, a.mesh.extents)
    if not config.use_gno and query_mesh.extents != a.mesh.extents:
        raise MeshError(f"a spectral model answers on its input's box {a.mesh.extents}, "
                        f"not on the query mesh's {query_mesh.extents}")
    values = np.stack([f.values for f in batch])  # (S, n_in, d_in)
    lead = (len(batch),) if is_list else ()
    if a.names is None:
        raise UnknownVariableError("input function must carry variable names")
    if head not in ("reconstructor", "predictor"):
        raise ShapeError(f"unknown head {head!r}")
    ops = _ops(config)
    head_layers = ops.reconstructor if head == "reconstructor" else ops.predictor
    if head == "predictor" and not has_predictor(params, config):
        raise TrainingStateError(
            "predictor head has no parameters; call extend_variables first")
    for var in a.names:
        if var not in config.variables:
            raise UnknownVariableError(f"variable {var!r} not registered")

    s, n_in, d_in = values.shape
    latent_mesh = config.latent_mesh(a.mesh.extents)

    # (S, d_in, n_in, 1 + embed): each (sample, variable) column next to the
    # variable's positional encoding, evaluated once and shared by the samples
    cols = np.ascontiguousarray(values.transpose(0, 2, 1)[..., None])
    if config.embed_dim > 0:
        emb = ad.stack([ops.vspe.evaluate(params, var, a.mesh) for var in a.names])
        stacked = ad.concat([cols, ad.broadcast_to(emb, (s,) + emb.shape)], axis=3)
    else:
        stacked = ad.Tensor(cols)
    lifted = ops.lift(params, stacked)            # (S, d_in, n_in, latent_width)

    if config.use_gno:
        nbrs = _latent_neighbors("enc", a.mesh, latent_mesh, config.radius(latent_mesh))
        lat = _gno_transfer(ops.enc_kernel, params, nbrs, lifted)
    else:
        if not a.mesh.is_uniform:
            raise MeshError("spectral transfer to the latent grid needs a uniform mesh")
        lat = spectral_resample(lifted, a.mesh.resolution, config.latent_resolution)

    tokens = _tokens_from_groups(lat, config)
    for layer in ops.encoder:
        tokens = layer(params, tokens, latent_mesh)
    for layer in head_layers:
        tokens = layer(params, tokens, latent_mesh)
    grouped = _groups_from_tokens(tokens, config, d_in)

    if config.use_gno:
        nbrs = _latent_neighbors("dec", query_mesh, latent_mesh, config.radius(latent_mesh))
        out = _gno_transfer(ops.dec_kernel, params, nbrs, grouped)
    else:
        if not query_mesh.is_uniform:
            raise MeshError("spectral transfer to the query mesh needs a uniform mesh")
        out = spectral_resample(grouped, config.latent_resolution, query_mesh.resolution)

    projected = ops.proj(params, out)             # (S, d_in, n_query, 1)
    return ad.reshape(ad.transpose(projected, (0, 2, 1, 3)),
                      lead + (query_mesh.n_points, d_in))


def predict(params: ad.ParamStore, config: ModelConfig, a,
            query_mesh: Mesh | None = None, head: str = "reconstructor"):
    """Forward pass without gradient tracking, wrapped as grid functions.

    One GridFunction in gives one out; a list in (one mesh, one variable-name
    order) gives a list out, from one batched model_forward."""
    batch, is_list = _as_batch(a)
    with ad.no_grad():
        out = model_forward(params, config, a, query_mesh, head)
    names = batch[0].names
    outs = [GridFunction(f.mesh if query_mesh is None else query_mesh, v, names=names)
            for f, v in zip(batch, out.data.reshape((len(batch),) + out.shape[-2:]))]
    return outs if is_list else outs[0]
