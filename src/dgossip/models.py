"""Differentiable objectives over flat parameter vectors.

Three model families:

* quadratic  -- per-client f_i(x) = 0.5 x^T A_i x - b_i^T x with symmetric
  PSD A_i; gradients are exact and the joint optimum is available in
  closed form, so this family doubles as the oracle testbed.
* logistic   -- multinomial logistic regression (softmax cross-entropy).
* mlp        -- fully-connected net with tanh hidden layers and softmax
  output; tanh keeps the objective smooth everywhere, which the
  trend-level convergence checks rely on.

All parameters live in one flat float64 vector; gradients are computed
analytically (closed form or manual backprop), never by autodiff.  Each
layer's (fan_in, fan_out) weight block is followed by its fan_out bias,
so its slice is one row-major (fan_in + 1, fan_out) augmented matrix
``[W; b]``.  The gradient kernel gives every layer's input a trailing
column of ones, so each layer is one matrix product forward and one back,
the bias riding in the product.  It takes an (m, p) stack of such vectors,
one model per row, and a :class:`Workspace` that holds its buffers, with
stacked matrix products and left-to-right class passes that round each
row exactly as a one-row stack.  Local steps pass one client per row; the
full objective passes one model broadcast to one row per block of its
rows; ``loss_and_grad`` passes one model as a one-row stack.  Evaluation
keeps the plain ``a @ W + b`` forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "Shard",
    "ShardStack",
    "ModelSpec",
    "init_params",
    "loss_and_grad",
    "loss_and_predictions",
    "predictions",
    "Scratch",
    "Workspace",
    "batch_grads",
    "full_objective",
    "quadratic_testbed",
]


@dataclass(frozen=True, eq=False)
class Shard:
    """A client's slice of a labeled dataset."""

    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A model family and its shapes.

    ``layers`` is the flat parameter layout's one definition: per layer of
    the sizes dim, *hidden, num_classes, its (slice, fan_in, fan_out), the
    slice holding the row-major (fan_in + 1, fan_out) matrix ``[W; b]``.
    The spec is frozen, so the table, built on first use and kept, cannot
    go stale; ``param_count``, ``init_params`` and ``_unpack`` read it.
    """

    kind: str  # "quadratic" | "logistic" | "mlp"
    dim: int = 0
    num_classes: int = 0
    hidden: tuple[int, ...] = ()
    # quadratic family: stacked per-client curvature/linear terms plus the
    # closed-form joint optimum (mean A)^-1 (mean b)
    quad_a: np.ndarray | None = None  # (m, p, p)
    quad_b: np.ndarray | None = None  # (m, p)
    quad_opt: np.ndarray | None = field(default=None, compare=False)

    @cached_property
    def layers(self) -> tuple[tuple[slice, int, int], ...]:
        sizes = [self.dim, *self.hidden, self.num_classes]
        fans = list(zip(sizes, sizes[1:]))
        starts = [0, *accumulate((fan_in + 1) * fan_out for fan_in, fan_out in fans)]
        return tuple((slice(a, b), *fan) for a, b, fan in zip(starts, starts[1:], fans))

    def param_count(self) -> int:
        if self.kind == "quadratic":
            return self.quad_a.shape[1]
        return self.layers[-1][0].stop


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """One shared initial parameter vector.

    Weights are Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)),
    biases zero; the quadratic family starts at the origin.  Every client
    receives a copy of this single draw.
    """
    if spec.kind == "quadratic":
        return np.zeros(spec.param_count())
    rng = np.random.default_rng([seed])
    chunks = []
    for _, fan_in, fan_out in spec.layers:
        a = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-a, a, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def _unpack(spec: ModelSpec, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer augmented weight views ``[W; b]`` of x along its last axis, cut by ``spec.layers``.

    Each view is (fan_in + 1, fan_out), its last row the bias; for an (m,
    p) stack the views are (m, fan_in + 1, fan_out).
    """
    lead = x.shape[:-1]
    return [x[..., cut].reshape(*lead, fan_in + 1, fan_out) for cut, fan_in, fan_out in spec.layers]


def _forward(spec: ModelSpec, x: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Logits of one model on plain (n, d) features, each layer as ``a @ W + b``.

    The evaluation forward: the weights and bias are split apart, so that
    the logits are bitwise those of the flat layout's straightforward form.
    """
    layers = _unpack(spec, x)
    a = feats
    for li, layer in enumerate(layers):
        a = np.matmul(a, layer[..., :-1, :])
        a += layer[..., -1, :]
        if li < len(layers) - 1:
            np.tanh(a, out=a)
    return a


def _with_ones(features: np.ndarray) -> np.ndarray:
    """(..., n, d) features as the gradient kernel's (..., n, d + 1) input: each row, then 1.0."""
    out = np.empty((*features.shape[:-1], features.shape[-1] + 1), dtype=features.dtype)
    out[..., :-1] = features
    out[..., -1] = 1.0
    return out


def _class_pass(ufunc: np.ufunc, logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The class axis reduced by ``ufunc`` in one pass over the class columns, left to right.

    ``ufunc`` is ``np.maximum`` for the class max or ``np.add`` for the
    class sum; ``out`` (C-contiguous, shaped as ``logits`` less its last
    axis) or a new array holds the result.  The same order at every size,
    so a row reduces alike in any stack or in any worker's range.  A
    maximum is exact in any order, so the max equals numpy's reduction (a
    zero maximum may differ in its sign, which the softmax shift cannot
    see).  Below 8 classes the sum is numpy's order, so it equals
    ``logits.sum(axis=-1)`` on terms that are never -0, such as a softmax's.
    """
    columns = logits.reshape(-1, logits.shape[-1]).T  # one flat column per class: numpy's cheaper 1-D loop
    total = np.positive(columns[0], out=None if out is None else out.reshape(-1))  # column 0, copied
    for column in columns[1:]:
        ufunc(total, column, out=total)
    return total.reshape(logits.shape[:-1]) if out is None else out


def _softmax_nll(logits: np.ndarray, labels: np.ndarray, with_loss: bool, ws: Workspace | None = None):
    """Softmax in place; (per-row NLL shaped as labels or None, flat view, flat index of each label).

    ``ws`` supplies the per-row scratch of the class max and sum (one
    left-to-right column pass each) and the label index; else new arrays.
    """
    row = _class_pass(np.maximum, logits, None if ws is None else ws.row)
    logits -= row[..., None]
    np.exp(logits, out=logits)
    logits /= _class_pass(np.add, logits, row)[..., None]
    flat = logits.reshape(-1)
    if ws is None:
        picked = np.arange(labels.size) * logits.shape[-1] + labels.reshape(-1)
    else:
        picked = np.add(ws.class_starts, labels.reshape(-1), out=ws.picked)
    nll = None
    if with_loss:
        nll = -np.log(flat[picked] + 1e-300).reshape(labels.shape)
    return nll, flat, picked


def _forward_backward(
    spec: ModelSpec,
    x: np.ndarray,
    feats: np.ndarray,
    labels: np.ndarray,
    divisor,
    *,
    with_loss: bool,
    ws: Workspace,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Weighted cross-entropy gradient of an (m, p) stack, and the per-row NLL.

    ``x`` (m, p), ``feats`` (m, n, d + 1), ``labels`` (m, n), where row i
    is model i on its own batch; the rows may be one model broadcast
    (stride 0), as :func:`full_objective` passes it.  Every row of
    ``feats`` ends in a 1.0 (see :class:`ShardStack`), and each layer reads
    its slice of x as the augmented matrix ``[W; b]`` (:func:`_unpack`):
    the forward pass is one product ``[a, 1] @ [W; b]`` per layer, each
    hidden layer's output held as (m, n, h + 1) with its ones column
    written after ``tanh`` on every call, and the backward pass writes a
    layer's weight and bias gradient together as ``[a, 1]^T @ delta``.
    Errors go back through ``W`` alone.  Each row's output error is
    divided by ``divisor``: the batch size n for a batch mean, or a per-row
    column shaped (m, n, 1).  Every product is ``np.matmul``, which makes
    the same BLAS call per row of a stack as for a one-row stack, so each
    row equals its own one-row computation bitwise.

    The activations, back-propagated errors and softmax scratch live in
    ``ws``: the :class:`Workspace` of one ``local_train`` call, shared by
    its K steps and both gradients of a SAM step, of one ``full_objective``
    call, or of one ``loss_and_grad`` call.  The call allocates nothing the
    size of a batch, and nothing it returns points into ``ws``.  Each
    layer's gradient is written straight into its slice of the result:
    ``out`` (C-contiguous, shaped as x) or a new array.  Returns (per-row
    NLL shaped as ``labels``, or None, and the gradient).
    """
    layers = _unpack(spec, x)
    acts = [feats]
    for li, (layer, z) in enumerate(zip(layers, ws.acts)):
        if li < len(layers) - 1:
            np.matmul(acts[-1], layer, out=z[..., :-1])
            np.tanh(z, out=z)  # the whole contiguous buffer, then the ones column afresh
            z[..., -1] = 1.0
        else:
            np.matmul(acts[-1], layer, out=z)
        acts.append(z)
    delta = acts.pop()  # logits, turned in place into probabilities, then the output error
    nll, flat, picked = _softmax_nll(delta, labels, with_loss, ws)
    flat[picked] -= 1.0
    delta /= divisor
    if out is None:
        out = np.empty(x.shape)
    elif not out.flags.c_contiguous or out.shape != x.shape:
        raise ValueError("out must be a C-contiguous array shaped as x")
    for li, grad in reversed(list(enumerate(_unpack(spec, out)))):
        np.matmul(acts[li].swapaxes(-1, -2), delta, out=grad)
        if li > 0:  # back through tanh: delta W^T * (1 - a^2)
            w = layers[li][..., :-1, :]
            delta = np.matmul(delta, w.swapaxes(-1, -2), out=ws.errors[li - 1])
            a = acts[li]
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            delta *= a[..., :-1]
    return nll, out


def _quadratic_grads(a: np.ndarray, b: np.ndarray, x: np.ndarray, out: np.ndarray | None = None):
    """A x - b for one client's terms and vector, or row-wise for stacked terms and a stack."""
    grad = np.matmul(a, x[..., None], out=None if out is None else out[..., None])[..., 0]
    grad -= b
    return grad


@dataclass(frozen=True, eq=False)
class ShardStack:
    """The shards of several clients laid end to end, one row per client.

    Row i owns rows ``offsets[i] .. offsets[i] + sizes[i]`` of ``features``
    and ``labels``, so a single gather draws the minibatches of every
    client.  Each row of ``features`` holds a sample's d features and then
    1.0, the column that multiplies each layer's bias row in the gradient
    kernel, so the gather is the kernel's input as it stands.
    :meth:`stacked` is the one place that lays this out; :meth:`of` and
    ``engine.build_problem`` call it, and :meth:`take` selects rows of a
    stack without moving its data.  The quadratic family has no data: its
    shards are client indices, and ``features``/``labels`` are None.
    """

    clients: np.ndarray  # (m,)
    sizes: np.ndarray  # (m,)
    offsets: np.ndarray  # (m,)
    features: np.ndarray | None = None  # (N, d + 1), each row ending in 1.0
    labels: np.ndarray | None = None  # (N,)

    def __post_init__(self):
        """Refuse, with ValueError naming the first such client, a shard that runs outside the data.

        :meth:`batch` gathers with ``mode="clip"``, which would read a row
        past the data as the last row.
        """
        if self.features is None:
            return
        rows = min(len(self.features), len(self.labels))
        outside = (self.offsets < 0) | (self.offsets + self.sizes > rows)
        if outside.any():
            i = np.argmax(outside)
            raise ValueError(
                f"shard of client {self.clients[i]} spans rows {self.offsets[i]} to"
                f" {self.offsets[i] + self.sizes[i]}, outside the {rows} rows of data"
            )

    @classmethod
    def stacked(cls, features: np.ndarray, labels: np.ndarray, sizes) -> "ShardStack":
        """Clients 0..m-1, client i owning the next ``sizes[i]`` rows of (N, d) features and (N,) labels.

        Client i starts at the sum of the sizes before it, and the features
        are copied once with the kernel's ones column appended.
        """
        sizes = np.asarray(sizes, dtype=np.intp)
        return cls(np.arange(len(sizes)), sizes, sizes.cumsum() - sizes, _with_ones(features), labels)

    @classmethod
    def of(cls, shards) -> "ShardStack":
        """Stack a list of :class:`Shard` objects by :meth:`stacked`, or of quadratic client indices."""
        if not all(isinstance(s, Shard) for s in shards):
            clients = np.array([int(s) for s in shards], dtype=np.intp)
            zeros = np.zeros(len(clients), dtype=np.intp)
            return cls(clients, zeros, zeros)
        features, labels = zip(*((s.features, s.labels) for s in shards))
        return cls.stacked(np.concatenate(features), np.concatenate(labels), [len(s) for s in shards])

    def __len__(self) -> int:
        return len(self.clients)

    def __getitem__(self, i: int):
        """Client i's :class:`Shard`, (n, d) views into the stack; its index for the quadratic family."""
        if self.features is None:
            return int(self.clients[i])
        rows = slice(self.offsets[i], self.offsets[i] + self.sizes[i])
        return Shard(self.features[rows, :-1], self.labels[rows])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def take(self, rows) -> "ShardStack":
        """The stack of the selected rows only (shares the data arrays)."""
        return ShardStack(
            self.clients[rows], self.sizes[rows], self.offsets[rows], self.features, self.labels
        )

    @cached_property
    def objective_layout(self) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
        """:func:`full_objective`'s row blocks and passes over this stack, built on its first call and kept.

        The n rows fall into the fewest blocks of at most ``_BLOCK_ROWS``
        rows, all of one length, and the blocks into the fewest passes of at
        most ``_OBJECTIVE_ROWS`` rows, all of one block count: whole padding
        blocks, at most one fewer than the passes, fill the last ones.
        (rows, divisor, starts, sizes): the stack's rows in client order (a
        take() need not be laid end to end), then padding rows whose error is
        divided by inf, so they weigh nothing, shaped (passes, rows per
        pass); every row's divisor m n_i, shaped (passes, blocks per pass,
        length, 1); and each client's first row in that order and row count.
        """
        sizes = self.sizes
        n_rows = int(sizes.sum())
        blocks = -(-n_rows // _BLOCK_ROWS)
        length = -(-n_rows // blocks)
        passes = -(-blocks // (_OBJECTIVE_ROWS // length))
        per_pass = -(-blocks // passes)
        pad = passes * per_pass * length - n_rows
        starts = np.cumsum(sizes) - sizes
        rows = np.repeat(self.offsets - starts, sizes) + np.arange(n_rows)
        rows = np.concatenate([rows, np.zeros(pad, dtype=rows.dtype)])
        divisor = np.concatenate([np.repeat(float(len(self)) * sizes, sizes), np.full(pad, np.inf)])
        divisor = divisor.reshape(passes, per_pass, length, 1)
        return rows.reshape(passes, -1), divisor, starts.tolist(), sizes.tolist()

    def batch(self, rows: np.ndarray | None, ws: Workspace) -> None:
        """Gather an (m, B) array of shard-local indices into ``ws.features`` and ``ws.labels``.

        Row i's indices must lie in [0, sizes[i]), its own shard, else
        IndexError names the first client out of range.  Does nothing for
        the quadratic family.  The next gather into the same
        :class:`Workspace` overwrites the minibatch.
        """
        if self.features is None:
            return
        index = np.add(self.offsets[:, None], rows, out=ws.index)
        # viewed unsigned, a negative index exceeds every size, so one comparison bounds both ends
        inside = np.less(np.asarray(rows, dtype=np.intp).view(np.uintp), self.sizes.astype(np.uintp)[:, None])
        if np.count_nonzero(inside) < inside.size:
            i = np.argmin(inside.all(axis=1))  # the first client with an index outside its shard
            raise IndexError(f"minibatch rows of client {self.clients[i]} outside its {self.sizes[i]} samples")
        # in range, so "clip" clips nothing; it lets take write into ws without a buffer
        self.features.take(index, axis=0, out=ws.features, mode="clip")
        self.labels.take(index, out=ws.labels, mode="clip")


_ALIGN = 64  # byte boundary of every array a Scratch lays out


class Scratch:
    """One block of memory for :class:`Workspace` arrays that are never in use at the same time.

    Each Workspace is laid out end to end from the block's first byte, so
    it overwrites the one laid out before.  When a layout needs more, the
    block grows to twice that, so that somewhat larger layouts that follow
    fit as well; pages that no layout touches take no memory.  With blocks
    of just the need, glibc handed a run's pages back at its end and the
    next run faulted them in afresh (92 minor faults per round against 5 on
    fullscale_random_sam).  Each data-backed Workspace is made once per
    block and handed out again.  A run owns one in the caller, whose local
    phases and evaluations take their Workspaces from it in turn, and each
    of its worker processes one of its own, so no two calls that run at
    the same time share one, and once they have grown, none of them
    allocates its workspace.  A Scratch is not for two threads at once.
    """

    def __init__(self) -> None:
        self._block = np.empty(0, dtype=np.uint8)
        self._workspaces: dict[tuple, Workspace] = {}  # a workspace's shapes -> the one laid out for them

    def workspace(self, spec: ModelSpec, shards: ShardStack, batch_size: int, **options) -> Workspace:
        """``Workspace(spec, shards, batch_size, scratch=self, **options)``, made once per block for its shapes.

        The quadratic family's workspace holds its stack's gathered terms, so it is made on every call.
        """
        if spec.kind == "quadratic":
            return Workspace(spec, shards, batch_size, scratch=self, **options)
        dtypes = (shards.features.dtype, shards.labels.dtype)
        key = (spec, len(shards), batch_size, *dtypes, *sorted(options.items()))
        ws = self._workspaces.get(key)
        if ws is None:
            ws = self._workspaces[key] = Workspace(spec, shards, batch_size, scratch=self, **options)
        return ws

    def _arrays(self, layout) -> list[np.ndarray]:
        """One uninitialised array per (shape, dtype) pair of a Workspace's ``layout``."""
        offsets, end = [], 0
        for shape, dtype in layout:
            offsets.append(end)
            end += -(-math.prod(shape) * np.dtype(dtype).itemsize // _ALIGN) * _ALIGN
        if end > self._block.size:
            self._block = np.empty(2 * end, dtype=np.uint8)
            self._workspaces.clear()
        return [np.ndarray(shape, dtype, self._block, at) for (shape, dtype), at in zip(layout, offsets)]


def _workspace(scratch: Scratch | None, spec: ModelSpec, shards: ShardStack, batch_size: int, **options) -> Workspace:
    """``scratch.workspace(...)``, or a :class:`Workspace` that owns its arrays when there is no scratch."""
    if scratch is None:
        return Workspace(spec, shards, batch_size, **options)
    return scratch.workspace(spec, shards, batch_size, **options)


class Workspace:
    """Scratch arrays for the gradient calls of one local phase, one full objective or one ``loss_and_grad``.

    Built for a :class:`ShardStack`, its (m, B) minibatches and (m, p)
    model stacks: it holds the gathered minibatch, (m, B, d + 1) with its
    ones column, every layer's output, each hidden layer's (m, B, h + 1)
    with a ones column that the gradient kernel writes on every call (an
    earlier layout in the same :class:`Scratch` may have overwritten it),
    the error back-propagated to each hidden layer, the per-row class max
    and sum of the softmax (``row``) and the flat label index, or, for the
    quadratic family, the stack's gathered terms.  ``point`` is an (m, p)
    stack at which a gradient is evaluated: SAM's ascent point; ``stacks``
    more (m, p) arrays are the caller's own.  With ``blocks``, a (passes,
    per_pass) pair, it serves :func:`full_objective`'s passes over blocks
    of ``batch_size`` samples: its rows are the per_pass blocks of one pass
    in place of one per client, and it also holds every block's NLL
    (``nll``) and gradient (``grads``), each shaped (passes, per_pass, ...).
    The arrays are laid out in ``scratch`` when it is given (see
    :class:`Scratch`), where the next workspace laid out overwrites them;
    otherwise they are the workspace's own.  :meth:`ShardStack.batch` and
    :func:`batch_grads` overwrite them on every call that is passed the
    workspace, and no result points into it.
    """

    def __init__(
        self,
        spec: ModelSpec,
        shards: ShardStack,
        batch_size: int,
        *,
        point: bool = False,
        stacks: int = 0,
        blocks: tuple[int, int] | None = None,
        scratch: Scratch | None = None,
    ):
        m = blocks[1] if blocks else len(shards)
        p = spec.param_count()
        rows = (m, batch_size)
        widths = (*(h + 1 for h in spec.hidden), spec.num_classes)  # each layer's output, ones column included
        layout = [((m, p), np.float64)] * (point + stacks)
        if spec.kind == "quadratic":
            layout += [((m, p, p), np.float64), ((m, p), np.float64)]
        else:
            if shards.features.shape[-1] != spec.dim + 1:
                raise ValueError(f"the stack's features must be {spec.dim} per row and then 1.0 (see ShardStack)")
            layout += [
                (rows, np.intp), ((*rows, spec.dim + 1), shards.features.dtype), (rows, shards.labels.dtype),
                (rows, np.float64), ((m * batch_size,), np.intp),
                *(((*rows, width), np.float64) for width in (*widths, *spec.hidden)),
            ]
            if blocks:
                layout += [((*blocks, batch_size), np.float64), ((*blocks, p), np.float64)]
        if scratch is None:
            arrays = iter([np.empty(shape, dtype) for shape, dtype in layout])
        else:
            arrays = iter(scratch._arrays(layout))
        self.point = next(arrays) if point else None
        self.stacks = [next(arrays) for _ in range(stacks)]
        if spec.kind == "quadratic":  # in range, so "clip" clips nothing and take writes in place
            self.quad = tuple(
                np.take(terms, shards.clients, axis=0, out=next(arrays), mode="clip")
                for terms in (spec.quad_a, spec.quad_b)
            )
            return
        self.index, self.features, self.labels, self.row, self.picked = (next(arrays) for _ in range(5))
        self.acts = [next(arrays) for _ in widths]
        self.errors = [next(arrays) for _ in spec.hidden]
        if blocks:
            self.nll, self.grads = next(arrays), next(arrays)
        self.class_starts = np.arange(0, m * batch_size * spec.num_classes, spec.num_classes)  # each row's first logit


def batch_grads(spec: ModelSpec, x: np.ndarray, ws: Workspace, out: np.ndarray | None = None) -> np.ndarray:
    """Exact batch-mean gradients of an (m, p) stack, one client per row, on the minibatch in ``ws``.

    The training kernel: it computes no loss, because local steps never
    read one.  :meth:`ShardStack.batch` gathers the minibatch into
    ``ws.features`` and ``ws.labels``; the quadratic family is noiseless
    and takes its terms from ``ws``.  The scratch goes into ``ws`` (see :class:`Workspace`) and the
    gradients into ``out`` (C-contiguous, not overlapping x) when it is
    given, or a new array; the result is bitwise the same either way.
    """
    if spec.kind == "quadratic":
        return _quadratic_grads(*ws.quad, x, out)
    n = ws.labels.shape[-1]
    return _forward_backward(spec, x, ws.features, ws.labels, n, with_loss=False, ws=ws, out=out)[1]


def loss_and_grad(
    spec: ModelSpec,
    x: np.ndarray,
    shard: Shard | int,
    batch: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Batch-mean loss and exact gradient of one client.

    ``shard`` is the client's :class:`Shard` for classification models and
    the client index for the quadratic family (whose objective has no
    sampling noise, so ``batch`` is ignored there).  The gradient comes
    from the same kernel as training: the batch, or the whole shard when
    ``batch`` is None, runs as a one-row :class:`ShardStack` (each row with
    a 1.0 appended) in a :class:`Workspace` of its own, so it equals the
    model's row of any stack on the same rows bitwise.
    """
    if spec.kind == "quadratic":
        a = spec.quad_a[shard]
        b = spec.quad_b[shard]
        return float(0.5 * x @ a @ x - b @ x), _quadratic_grads(a, b, x)
    feats = shard.features if batch is None else shard.features[batch]
    labels = shard.labels if batch is None else shard.labels[batch]
    n = len(labels)
    stack = ShardStack.stacked(feats, labels, [n])
    nll, grad = _forward_backward(
        spec, x[None], stack.features[None], labels[None], n, with_loss=True, ws=Workspace(spec, stack, n)
    )
    return float(nll.sum() / n), grad[0]  # np.mean's sum and division


def predictions(spec: ModelSpec, x: np.ndarray, shard: Shard) -> np.ndarray:
    """Argmax class of every row of ``shard`` under one model, from one forward pass.

    Ties resolve to the lowest class index, as in :func:`loss_and_predictions`.
    """
    return np.argmax(_forward(spec, x, shard.features), axis=-1)


def loss_and_predictions(spec: ModelSpec, x: np.ndarray, shard: Shard) -> tuple[float, np.ndarray]:
    """Full-shard loss (as ``loss_and_grad``) and argmax predictions, from one forward pass.

    Prediction ties resolve to the lowest class index.
    """
    logits = _forward(spec, x, shard.features)
    predictions = np.argmax(logits, axis=-1)
    nll, _, _ = _softmax_nll(logits, shard.labels, with_loss=True)
    return float(np.mean(nll)), predictions


# Rows per BLAS reduction in full_objective.  OpenBLAS may split a long
# reduction over threads and round it differently; blocks as short as a
# training batch keep the objective independent of the BLAS thread count.
_BLOCK_ROWS = 64
# Rows of one full_objective pass over its blocks: their activations then take
# no more memory than a local phase of 100 clients on batches of 32 (3200 rows).
_OBJECTIVE_ROWS = 2048


def full_objective(
    spec: ModelSpec, x: np.ndarray, shards: ShardStack, scratch: Scratch | None = None
) -> tuple[float, np.ndarray]:
    """Exact global objective f = (1/m) sum_i f_i and its gradient, from one forward/backward of every row.

    f_i is client i's full-shard mean loss.  A forward/backward runs over
    all the stack's rows, in blocks of at most ``_BLOCK_ROWS``, with each
    row's error weighted by 1/(m n_i), in passes of equal block count and
    at most ``_OBJECTIVE_ROWS`` rows (:attr:`ShardStack.objective_layout`).
    Each pass is one stacked gradient call on x broadcast to one row per
    block, which writes every block's gradient into its own row; the rows
    are added up in block order at the end, so the passes do not change the
    result, and padding blocks add only zeros.  The loss averages each
    client's mean NLL, summed and divided as ``np.mean`` does, so a
    one-client stack of one block equals :func:`loss_and_grad` bitwise.
    The quadratic family takes one stacked product over its clients'
    terms.  The gathered rows, the activations and the rest of the scratch
    are a :class:`Workspace`, laid out in ``scratch`` when it is given; the
    result is bitwise the same.
    """
    if spec.kind == "quadratic":  # a workspace of gathered terms
        ws = _workspace(scratch, spec, shards, 0, stacks=2)
        (a, b), (grads, centred) = ws.quad, ws.stacks
        grads = _quadratic_grads(a, b, x, out=grads)
        # f_i = 0.5 x.A_i x - b_i.x = 0.5 x.(grad_i - b_i)
        losses = 0.5 * (np.subtract(grads, b, out=centred) @ x)
        return float(np.mean(losses)), grads.mean(axis=0)
    rows, divisor, starts, sizes = shards.objective_layout
    passes, per_pass, length = divisor.shape[:3]
    ws = _workspace(scratch, spec, shards, length, blocks=(passes, per_pass))
    stack = np.broadcast_to(x, (per_pass, len(x)))
    for i, taken in enumerate(rows):  # in range, so "clip" clips nothing and take writes in place
        shards.features.take(taken, axis=0, out=ws.features.reshape(len(taken), -1), mode="clip")
        shards.labels.take(taken, out=ws.labels.reshape(-1), mode="clip")
        nll, _ = _forward_backward(
            spec, stack, ws.features, ws.labels, divisor[i], with_loss=True, ws=ws, out=ws.grads[i]
        )
        ws.nll[i] = nll
    grad = ws.grads.reshape(-1, len(x)).sum(axis=0)  # row by row, in block order
    nll = ws.nll.reshape(-1)
    means = [nll[a : a + n].sum() / n for a, n in zip(starts, sizes)]
    return float(np.mean(means)), grad


def quadratic_testbed(
    m: int,
    p: int,
    heterogeneity: float,
    seed: int,
    identical_curvature: bool = False,
) -> ModelSpec:
    """Heterogeneous quadratic family with a stored closed-form optimum.

    A_i = Q_i D_i Q_i^T with eigenvalues uniform in [0.5, 2]; b_i = b_bar +
    heterogeneity * delta_i with exactly mean-zero delta_i across clients.
    ``identical_curvature`` shares one A across clients, which together
    with heterogeneity 0 makes all client objectives identical.
    """
    if p < 1 or m < 1:
        raise ValueError("need m >= 1 and p >= 1")
    rng = np.random.default_rng([seed])
    n_mats = 1 if identical_curvature else m
    normals = np.empty((n_mats, p, p))
    eigs = np.empty((n_mats, 1, p))
    for i in range(n_mats):  # each client's draws in turn, as the stream has them
        normals[i] = rng.normal(size=(p, p))
        eigs[i] = rng.uniform(0.5, 2.0, size=p)
    q, _ = np.linalg.qr(normals)  # one stacked call, each slice as alone
    mats = (q * eigs) @ q.swapaxes(-1, -2)
    mats = 0.5 * (mats + mats.swapaxes(-1, -2))  # kill asymmetric rounding
    if identical_curvature:
        mats = np.repeat(mats, m, axis=0)
    b_bar = rng.normal(size=p)
    delta = rng.normal(size=(m, p))
    delta -= delta.mean(axis=0)
    b = b_bar + heterogeneity * delta
    opt = np.linalg.solve(mats.mean(axis=0), b.mean(axis=0))
    return ModelSpec(kind="quadratic", quad_a=mats, quad_b=b, quad_opt=opt)
