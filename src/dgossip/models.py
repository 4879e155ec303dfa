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
rows, or each model of a stack over its own copy of the blocks;
``loss_and_grad`` passes one model as a one-row stack.  The workspace
binds, once when it is laid out, every view of its arrays that the kernel
reads, so a gradient call is one flat run of numpy calls on views it
does not build.  Evaluation keeps the plain ``a @ W + b`` forward, over
one model or a stack of them.
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
    "evaluation_group",
    "objective_workspace",
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
    """Logits of one model, (n, C), or of a (g, p) stack, (g, n, C), on plain (n, d) features, each layer as ``a @ W + b``.

    The evaluation forward: the weights and bias are split apart, so that
    the logits are bitwise those of the flat layout's straightforward form.
    A stack broadcasts the features in one ``np.matmul`` per layer, which
    makes each model's own BLAS call, so its rows equal its one-model call.
    """
    layers = _unpack(spec, x)
    a = feats
    for li, layer in enumerate(layers):
        a = np.matmul(a, layer[..., :-1, :])
        a += layer[..., -1:, :]
        if li < len(layers) - 1:
            np.tanh(a, out=a)
    return a


def _with_ones(features: np.ndarray) -> np.ndarray:
    """(..., n, d) features as the gradient kernel's (..., n, d + 1) input: each row, then 1.0."""
    out = np.empty((*features.shape[:-1], features.shape[-1] + 1), dtype=features.dtype)
    out[..., :-1] = features
    out[..., -1] = 1.0
    return out


def _class_pass(ufunc: np.ufunc, columns: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """The class axis reduced by ``ufunc`` in one pass over the class columns, left to right, into ``out``.

    ``columns`` are the 1-D class columns that :func:`_softmax_views`
    binds (numpy's cheaper 1-D loop), ``ufunc`` is ``np.maximum`` for the
    class max or ``np.add`` for the class sum, and ``out`` (1-D,
    C-contiguous, returned) holds ``ufunc`` of columns 0 and 1 (column 0,
    for one class), then of each later column in place.  The same order at
    every size, so a row reduces alike in any stack or worker's range.  A
    maximum is exact in any order, so the max equals numpy's reduction (a
    zero maximum may differ in its sign, which the softmax shift cannot
    see).  Below 8 classes the sum is numpy's order, so it equals
    ``logits.sum(axis=-1)`` on terms that are never -0, such as a softmax's.
    """
    if len(columns) == 1:
        return np.positive(columns[0], out=out)  # the one column, copied
    total = ufunc(columns[0], columns[1], out=out)
    for column in columns[2:]:
        ufunc(total, column, out=total)
    return total


def _softmax_views(logits: np.ndarray, row: np.ndarray) -> tuple:
    """The views of C-contiguous ``logits`` and ``row`` (shaped as logits less its last axis) that the softmax reads.

    (logits, flat logits, the class columns, flat row, ``row[..., None]``):
    a :class:`Workspace` binds them once for its own arrays, and
    :func:`loss_and_predictions` builds them once per call.
    """
    flat = logits.reshape(-1)
    columns = tuple(flat.reshape(-1, logits.shape[-1]).T)
    return logits, flat, columns, row.reshape(-1), row[..., None]


def _softmax_nll(views: tuple, picked: np.ndarray, with_loss: bool) -> np.ndarray | None:
    """Softmax in place over the ``views`` of :func:`_softmax_views`; the per-row NLL, shaped as the row, or None.

    ``picked`` is the flat label index: the position of each row's label in
    the flattened logits, row r's being r * C + its label.  The row holds
    the per-row class max and then sum, each one left-to-right pass over
    the class columns (:func:`_class_pass`).
    """
    logits, flat, columns, row, shift = views
    _class_pass(np.maximum, columns, row)
    logits -= shift
    np.exp(logits, out=logits)
    _class_pass(np.add, columns, row)
    logits /= shift
    if with_loss:
        return -np.log(flat[picked] + 1e-300).reshape(logits.shape[:-1])
    return None


def _forward_backward(
    spec: ModelSpec,
    x: np.ndarray,
    ws: Workspace,
    picked: np.ndarray,
    divisor,
    with_loss: bool,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Weighted cross-entropy gradient of an (m, p) stack on the minibatch in ``ws``, and the per-row NLL.

    ``x`` (m, p) and ``ws.features`` (m, n, d + 1), where row i is model i
    on its own batch, and ``picked`` the batch's (m n,) flat label index
    (see :func:`_softmax_nll`); the rows of x may be one model broadcast
    (stride 0), as :func:`full_objective` passes it.  Every row of the
    features ends in a 1.0 (see :class:`ShardStack`), and each layer reads
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
    call, or of one ``loss_and_grad`` call.  The kernel reads them only
    through the views the workspace bound when it was laid out, so a call
    is one flat run of numpy calls.  It allocates nothing the size of a
    batch, and nothing it returns points into ``ws``.  Each layer's
    gradient is written straight into its slice of the result: ``out``
    (C-contiguous, shaped as x) or a new array.  Returns (per-row NLL, (m,
    n), or None, and the gradient).
    """
    layers = _unpack(spec, x)
    for layer, (a, pre, z, ones) in zip(layers, ws.forward):
        np.matmul(a, layer, out=pre)
        np.tanh(z, out=z)  # the whole contiguous buffer, then the ones column afresh
        ones.fill(1.0)
    # the logits, turned in place into probabilities, then the output error
    delta = np.matmul(ws.forward_last, layers[-1], out=ws.acts[-1])
    nll = _softmax_nll(ws.softmax, picked, with_loss)
    # on the flat logits, one call for the get, subtract and set; the indices are unique
    np.subtract.at(ws.softmax[1], picked, 1.0)
    delta /= divisor
    if out is None:
        out = np.empty(x.shape)
    elif not out.flags.c_contiguous or out.shape != x.shape:
        raise ValueError("out must be a C-contiguous array shaped as x")
    grads = _unpack(spec, out)
    for grad, layer, (a_t, errors, a, derivative) in zip(grads[:0:-1], layers[:0:-1], ws.backward):
        np.matmul(a_t, delta, out=grad)
        # back through tanh: delta W^T * (1 - a^2)
        delta = np.matmul(delta, layer[..., :-1, :].swapaxes(-1, -2), out=errors)
        np.square(a, out=a)
        np.subtract(1.0, a, out=a)
        delta *= derivative
    np.matmul(ws.features_t, delta, out=grads[0])
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

        Minibatches are gathered with ``mode="clip"``, which would read a
        row past the data as the last row.
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
    def objective_blocks(self) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
        """:func:`full_objective`'s row blocks of one model over this stack, built on its first call and kept.

        The n rows fall into the fewest blocks of at most ``_BLOCK_ROWS``
        rows, all of one length, the last one filled with padding rows.
        (rows, divisor, starts, sizes): the stack's rows in client order (a
        take() need not be laid end to end), then padding rows whose error is
        divided by inf, so they weigh nothing, shaped (blocks, length); every
        row's divisor m n_i, shaped (blocks, length, 1); and each client's
        first row in that order and row count.
        """
        sizes = self.sizes
        n_rows = int(sizes.sum())
        blocks = -(-n_rows // _BLOCK_ROWS)
        length = -(-n_rows // blocks)
        pad = blocks * length - n_rows
        starts = np.cumsum(sizes) - sizes
        rows = np.repeat(self.offsets - starts, sizes) + np.arange(n_rows)
        rows = np.concatenate([rows, np.zeros(pad, dtype=rows.dtype)])
        divisor = np.concatenate([np.repeat(float(len(self)) * sizes, sizes), np.full(pad, np.inf)])
        return rows.reshape(blocks, length), divisor.reshape(blocks, length, 1), starts.tolist(), sizes.tolist()

    def objective_layout(self, spec: ModelSpec, g: int = 1) -> tuple[int, int, int]:
        """(passes, blocks per pass, block length) of :func:`full_objective` on g models of ``spec`` over this stack.

        The g models' blocks (:attr:`objective_blocks`), laid model after
        model, fall into the fewest passes of one block count whose blocks
        take at most ``_OBJECTIVE_BYTES`` (:func:`_block_bytes`), and at
        least one block each, so a model may span passes; the last pass is
        filled with at most one fewer blocks than there are passes.
        """
        blocks, length = self.objective_blocks[0].shape
        per_pass = max(1, _OBJECTIVE_BYTES // _block_bytes(spec, self))
        passes = -(-g * blocks // per_pass)
        return passes, -(-g * blocks // passes), length

    def minibatches(self, draws: np.ndarray, ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
        """Stack rows and flat label index of K steps' (K, m, B) shard-local indices, checked and offset in one pass.

        Row i's indices must lie in [0, sizes[i]), its own shard, in every
        step, else IndexError names the first client, in row order, with an
        index out of range in any step.  Returns the (K, m, B) stack rows,
        C-contiguous, and the (K, m B) flat label index on
        ``ws.class_starts``, whose row k is step k's ``ws.picked``.
        """
        # viewed unsigned, a negative index exceeds every size, so one comparison bounds both ends
        inside = np.less(np.asarray(draws, dtype=np.intp).view(np.uintp), self.sizes.astype(np.uintp)[:, None])
        if np.count_nonzero(inside) < inside.size:
            i = np.argmin(inside.all(axis=(0, 2)))  # the first client with an index outside its shard
            raise IndexError(f"minibatch rows of client {self.clients[i]} outside its {self.sizes[i]} samples")
        index = np.add(self.offsets[:, None], draws, order="C")
        return index, _label_index(self.labels, index.reshape(len(index), -1), ws.class_starts)


def _label_index(labels: np.ndarray, rows: np.ndarray, class_starts: np.ndarray) -> np.ndarray:
    """The flat label index of the in-range stack rows ``rows``, (..., n): each label plus its ``class_starts``."""
    picked = labels.take(rows, mode="clip").astype(np.intp, copy=False)
    picked += class_starts
    return picked


_ALIGN = 64  # byte boundary of every array a Scratch lays out
_HUGE_PAGES = 4 * 2**20  # numpy asks the kernel for huge pages for an array of at least these bytes


class Scratch:
    """One block of memory for :class:`Workspace` arrays that are never in use at the same time.

    Every Workspace takes its arrays from a Scratch, a fresh one where its
    caller has none.  Each is laid out end to end from the block's first
    byte, so it overwrites the one laid out before.  When a layout needs
    more, the block grows to twice that, so that somewhat larger layouts
    that follow fit as well, and pages that no layout touches take no
    memory; a run that kept blocks of just the need had glibc hand its
    pages back at its end and the next run fault them in afresh.  While
    the need is under 4 MiB, the block stays just under it too: from 4 MiB
    numpy asks the kernel for huge pages, which round the memory a run
    touches up to whole 2 MiB pages.  Each Workspace is made once per
    block for its shapes and handed out again.  A run's local phase owns
    one, from which the caller's local phases and evaluations take their
    Workspaces in turn, and each worker process forked from it has a copy
    of its own, so no two calls that run at the same time share one, and
    once they have grown, none of them allocates its workspace.  A Scratch
    is not for two threads at once.
    """

    def __init__(self) -> None:
        self._block = np.empty(0, dtype=np.uint8)
        self._workspaces: dict[tuple, Workspace] = {}  # a workspace's shapes -> the one laid out for them

    def workspace(self, spec: ModelSpec, shards: ShardStack, batch_size: int, **options) -> Workspace:
        """``Workspace(spec, shards, batch_size, scratch=self, **options)``, made once per block for its shapes."""
        dtype = getattr(shards.features, "dtype", None)  # None for the quadratic family, which has no data
        key = (spec, len(shards), batch_size, dtype, *sorted(options.items()))
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
            size = 2 * end if end >= _HUGE_PAGES else min(2 * end, _HUGE_PAGES - 1)
            self._block = np.empty(size, dtype=np.uint8)
            self._workspaces.clear()
        return [np.ndarray(shape, dtype, self._block, at) for (shape, dtype), at in zip(layout, offsets)]


def _layout(
    spec: ModelSpec, shards: ShardStack, batch_size: int, point: bool = False, stacks: int = 0, blocks: int | None = None
) -> list[tuple]:
    """The (shape, dtype) of every array of a :class:`Workspace`, in the order it takes them from its Scratch.

    The layout's one definition: the Workspace binds these arrays and
    :func:`_block_bytes` prices an objective pass by them.  ``point`` and
    the ``stacks`` come first, (m, p) each, with m the ``blocks`` or the
    stack's rows; for the quadratic family that is all.  A data workspace
    then holds the gathered features, (m, B, d + 1), the softmax's row
    scratch, (m, B), each layer's output, each hidden layer's error and,
    with ``blocks``, the block gradients, (m, p).
    """
    m = blocks or len(shards)
    p = spec.param_count()
    layout = [((m, p), np.float64)] * (point + stacks)
    if spec.kind == "quadratic":
        return layout
    if shards.features.shape[-1] != spec.dim + 1:
        raise ValueError(f"the stack's features must be {spec.dim} per row and then 1.0 (see ShardStack)")
    rows = (m, batch_size)
    widths = (*(h + 1 for h in spec.hidden), spec.num_classes)  # each layer's output, ones column included
    layout += [
        ((*rows, spec.dim + 1), shards.features.dtype), (rows, np.float64),
        *(((*rows, width), np.float64) for width in (*widths, *spec.hidden)),
    ]
    if blocks:
        layout.append(((m, p), np.float64))
    return layout


class Workspace:
    """Scratch arrays for the gradient calls of one local phase, one full objective or one ``loss_and_grad``.

    Built for a :class:`ShardStack`, its (m, B) minibatches and (m, p)
    model stacks, it holds the arrays of :func:`_layout`, taken from
    ``scratch`` (see :class:`Scratch`), or from a fresh Scratch when it is
    None: the gathered minibatch, (m, B, d + 1) with its ones column, every
    layer's output (``acts``), each hidden layer's (m, B, h + 1) with a
    ones column that the gradient kernel writes on every call (an earlier
    layout in the same Scratch may have overwritten it), the error
    back-propagated to each hidden layer (``errors``) and the per-row class
    max and sum of the softmax (``row``).  ``picked``, the flat label index
    the kernel reads (see :func:`_softmax_nll`), is not laid out: whoever
    gathers a minibatch points it at one built on ``class_starts``
    (:meth:`ShardStack.minibatches`).  For the quadratic family the caller
    likewise points ``quad`` at its stack's gathered terms.  ``point`` is
    an (m, p) stack at which a gradient is evaluated: SAM's ascent point;
    ``stacks`` more (m, p) arrays are the caller's own.  With ``blocks``,
    the block count of one pass, it serves :func:`full_objective`'s passes
    over blocks of ``batch_size`` samples: its rows are the blocks of one
    pass in place of one per client, and it also holds their gradients
    (``grads``, (blocks, p)), which the next pass overwrites once they are
    added into the models' running sums.  The next workspace laid out in
    the same Scratch overwrites the arrays.  A local phase's gather and
    :func:`batch_grads` overwrite them on every call that is passed the
    workspace, and no result points into it.

    It binds, once when it is laid out, every view of these arrays that
    :func:`_forward_backward` reads: ``forward`` (each hidden layer's
    input, pre-activation, output and ones column), ``forward_last``,
    ``softmax`` (:func:`_softmax_views`), ``backward`` (each later layer's
    transposed input, error, output and derivative view, from the last)
    and ``features_t``.  A :class:`Scratch` that grows lays out new
    workspaces, which bind new views, so none points into a stale block.
    """

    def __init__(
        self,
        spec: ModelSpec,
        shards: ShardStack,
        batch_size: int,
        *,
        point: bool = False,
        stacks: int = 0,
        blocks: int | None = None,
        scratch: Scratch | None = None,
    ):
        layout = _layout(spec, shards, batch_size, point, stacks, blocks)
        arrays = iter((scratch or Scratch())._arrays(layout))
        self.point = next(arrays) if point else None
        self.stacks = [next(arrays) for _ in range(stacks)]
        if spec.kind == "quadratic":
            self.quad = None
            return
        self.features, self.row = next(arrays), next(arrays)
        self.picked = None
        self.batch_size = batch_size
        self.acts = acts = [next(arrays) for _ in range(len(spec.hidden) + 1)]
        self.errors = errors = [next(arrays) for _ in spec.hidden]
        if blocks:
            self.grads = next(arrays)
        self.class_starts = np.arange(0, self.row.size * spec.num_classes, spec.num_classes)  # each row's first logit
        inputs, hidden = [self.features, *acts[:-1]], acts[:-1]
        self.forward = [(a, z[..., :-1], z, z[..., -1]) for a, z in zip(inputs, hidden)]
        self.forward_last = inputs[-1]
        self.softmax = _softmax_views(acts[-1], self.row)
        self.backward = []  # the layers after the first, from the last
        for z, e in zip(hidden, errors):
            self.backward.insert(0, (z.swapaxes(-1, -2), e, z, z[..., :-1]))
        self.features_t = self.features.swapaxes(-1, -2)


def batch_grads(spec: ModelSpec, x: np.ndarray, ws: Workspace, out: np.ndarray | None = None) -> np.ndarray:
    """Exact batch-mean gradients of an (m, p) stack, one client per row, on the minibatch in ``ws``.

    The training kernel: it computes no loss, because local steps never
    read one.  It reads the minibatch from ``ws.features`` and its flat
    label index from ``ws.picked``, as the gather left them; the quadratic
    family is noiseless and takes its terms from ``ws.quad``.  The scratch goes
    into ``ws`` (see :class:`Workspace`) and the gradients into ``out``
    (C-contiguous, not overlapping x) when it is given, or a new array; the
    result is bitwise the same either way.
    """
    if spec.kind == "quadratic":
        return _quadratic_grads(*ws.quad, x, out)
    return _forward_backward(spec, x, ws, ws.picked, ws.batch_size, False, out)[1]


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
    ws = Workspace(spec, stack, n)
    ws.features[0] = stack.features
    nll, grad = _forward_backward(spec, x[None], ws, ws.class_starts + labels, n, True)
    return float(nll.sum() / n), grad[0]  # np.mean's sum and division


def predictions(spec: ModelSpec, x: np.ndarray, shard: Shard) -> np.ndarray:
    """Argmax class of every row of ``shard`` under one model, or (g, n) under a (g, p) stack, from one forward pass.

    Ties resolve to the lowest class index, as in :func:`loss_and_predictions`.
    """
    return np.argmax(_forward(spec, x, shard.features), axis=-1)


def loss_and_predictions(spec: ModelSpec, x: np.ndarray, shard: Shard) -> tuple[float, np.ndarray]:
    """Full-shard loss (as ``loss_and_grad``) and argmax predictions, from one forward pass.

    Prediction ties resolve to the lowest class index.
    """
    logits = _forward(spec, x, shard.features)
    predictions = np.argmax(logits, axis=-1)
    picked = np.arange(len(shard)) * logits.shape[-1] + shard.labels
    nll = _softmax_nll(_softmax_views(logits, np.empty(logits.shape[:-1])), picked, True)
    return float(np.mean(nll)), predictions


# Rows per BLAS reduction in full_objective.  OpenBLAS may split a long
# reduction over threads and round it differently; blocks as short as a
# training batch keep the objective independent of the BLAS thread count.
_BLOCK_ROWS = 64
# Bytes that the blocks of one full_objective pass may take (_block_bytes).
# 1.6 MiB holds 27 blocks of 64 rows of the m=100 MLP presets, which keep their
# 3 passes, and 29 models of the logistic desk preset's 7 blocks of 58 rows,
# whose Scratch block, twice that layout, stays under the 4 MiB from which
# numpy asks for huge pages (see Scratch).
_OBJECTIVE_BYTES = 16 * 2**20 // 10


def _block_bytes(spec: ModelSpec, shards: ShardStack) -> int:
    """Bytes that one of the stack's blocks (:attr:`ShardStack.objective_blocks`) adds to a :func:`full_objective` pass.

    The arrays of a one-block :class:`Workspace` (:func:`_layout`), its
    gradient row included, and the block's row of the NLL that the pass
    returns.
    """
    length = shards.objective_blocks[0].shape[1]
    layout = _layout(spec, shards, length, blocks=1)
    return sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout) + 8 * length


def evaluation_group(spec: ModelSpec, shards: ShardStack, test: Shard | None = None) -> int:
    """How many models one :func:`full_objective` call over ``shards`` and one forward over ``test`` take together.

    The most models whose blocks (:attr:`ShardStack.objective_blocks`) fit
    side by side in one pass of ``_OBJECTIVE_BYTES`` (:func:`_block_bytes`),
    and whose test forwards, each layer's (rows, width) output, fit the
    same bytes; 1 for the quadratic family and wherever one model takes
    more than one pass.
    """
    if spec.kind == "quadratic":
        return 1
    forward = 0 if test is None else 8 * len(test) * (sum(spec.hidden) + spec.num_classes)
    return max(1, _OBJECTIVE_BYTES // max(len(shards.objective_blocks[0]) * _block_bytes(spec, shards), forward))


def objective_workspace(
    spec: ModelSpec, shards: ShardStack, g: int = 1, scratch: Scratch | None = None
) -> Workspace | None:
    """The :class:`Workspace` of a :func:`full_objective` call on g models over ``shards``, laid out in ``scratch``.

    It holds one pass (:meth:`ShardStack.objective_layout`).  A run lays
    out its evaluation group's once before its first round, so that its
    Scratch grows to the size of both that and its local phase within
    round 0, and not again when the first group is evaluated.  None for
    the quadratic family, whose objective lays nothing out.
    """
    if spec.kind == "quadratic":
        return None
    _, per_pass, length = shards.objective_layout(spec, g)
    return (scratch or Scratch()).workspace(spec, shards, length, blocks=per_pass)


def _add_blocks(sums: np.ndarray, grads: np.ndarray, first: int, blocks: int) -> None:
    """Add one pass's block gradients into the g models' running sums ``sums``, in block order.

    Row j of ``grads`` is block ``first + j`` of the models' blocks, laid
    model after model, ``blocks`` to a model; rows past the last model's
    fill the pass and are not read.  Each model's sum is numpy's reduction
    over its blocks, which adds them one at a time from +0.0, as ``.sum``
    over all of them at once would: a model whose first block is in this
    pass has its blocks here reduced into its row of ``sums``.  A model
    that began in an earlier pass first has its sum so far added into its
    first block here (``grads`` is scratch), which is that order's next
    addition, and is then reduced the same way; a sum from +0.0 is never
    -0.0, so the reduction's +0.0 leaves it as it is.
    """
    end = min(first + len(grads), len(sums) * blocks)
    at = first
    model, done = divmod(at, blocks)
    if done:  # the rest of a model that began in an earlier pass
        at = min(end, at - done + blocks)
        np.add(sums[model], grads[0], out=grads[0])
        np.add.reduce(grads[: at - first], axis=0, out=sums[model])
    whole = (end - at) // blocks  # the models all of whose blocks are in this pass
    if whole:
        model = at // blocks
        np.add.reduce(
            grads[at - first : at - first + whole * blocks].reshape(whole, blocks, -1),
            axis=1, out=sums[model : model + whole],
        )
        at += whole * blocks
    if at < end:  # a model that goes on in the next pass
        np.add.reduce(grads[at - first : end - first], axis=0, out=sums[at // blocks])


def full_objective(
    spec: ModelSpec, x: np.ndarray, shards: ShardStack, scratch: Scratch | None = None
):
    """Exact global objective f = (1/m) sum_i f_i and its gradient, from one forward/backward of every row.

    f_i is client i's full-shard mean loss.  A forward/backward runs over
    all the stack's rows, in blocks of at most ``_BLOCK_ROWS``
    (:attr:`ShardStack.objective_blocks`), with each row's error weighted
    by 1/(m n_i), in passes of equal block count that take at most
    ``_OBJECTIVE_BYTES``, or one block (:meth:`ShardStack.objective_layout`).
    Each pass is one stacked gradient call, one model row per block, which
    writes every block's gradient into its own row; before the next pass,
    each model's blocks are added into its running sum, in block order
    from +0.0 (:func:`_add_blocks`), so the passes do not change the
    result, and the blocks that fill the last pass are not read.  The
    loss averages each client's mean NLL, summed and divided as
    ``np.mean`` does, so a one-client stack of one block equals
    :func:`loss_and_grad` bitwise.

    ``x`` is one model, for (loss, (p,) gradient), or a (g, p) stack of
    models, for ((g,) losses, (g, p) gradients).  The g models' blocks
    are laid model after model, each model over its own copy of them, and
    each model's losses and gradients are reduced in the same order, so
    each row equals its one-model call bitwise, however the passes fall.
    The quadratic family takes one stacked product over its clients'
    terms, for one model at a time, and lays nothing out.  The gathered
    rows, the activations and the block gradients of a pass are a
    :class:`Workspace`, laid out in ``scratch`` when it is given; the
    result is bitwise the same.
    """
    xs = x if x.ndim == 2 else x[None]
    g, p = xs.shape
    if spec.kind == "quadratic":
        if g > 1:
            raise ValueError("the quadratic family's objective takes one model per call")
        b = spec.quad_b[shards.clients]
        grads = _quadratic_grads(spec.quad_a[shards.clients], b, xs[0])
        losses = 0.5 * ((grads - b) @ xs[0])  # f_i = 0.5 x.A_i x - b_i.x = 0.5 x.(grad_i - b_i)
        loss, grad = np.mean(losses), grads.mean(axis=0)
        return (loss[None], grad[None]) if x.ndim == 2 else (float(loss), grad)
    rows, divisor, starts, sizes = shards.objective_blocks
    blocks = len(rows)
    passes, per_pass, length = shards.objective_layout(spec, g)
    # g copies of the blocks, model after model, then the first ones again to fill the last pass
    units = np.arange(passes * per_pass).reshape(passes, per_pass)
    rows, divisor = rows[units % blocks].reshape(passes, -1), divisor[units % blocks]
    owner = units // blocks % g  # each block's model
    ws = (scratch or Scratch()).workspace(spec, shards, length, blocks=per_pass)
    picked = _label_index(shards.labels, rows, ws.class_starts)  # every pass's at once
    nll = np.empty((passes, per_pass, length))
    grads = np.empty((g, p))
    for i, taken in enumerate(rows):  # in range, so "clip" clips nothing and take writes in place
        shards.features.take(taken, axis=0, out=ws.features.reshape(len(taken), -1), mode="clip")
        stack = np.broadcast_to(xs[0], (per_pass, p)) if g == 1 else xs.take(owner[i], axis=0)
        nll[i] = _forward_backward(spec, stack, ws, picked[i], divisor[i], True, ws.grads)[0]
        _add_blocks(grads, ws.grads, i * per_pass, blocks)
    nll = nll.reshape(-1)[: g * blocks * length].reshape(g, -1)
    means = np.empty((g, len(sizes)))
    for i, (a, n) in enumerate(zip(starts, sizes)):  # a sum and a true divide, as .sum(axis=1) / n
        np.divide(np.add.reduce(nll[:, a : a + n], axis=1), n, out=means[:, i])
    losses = means.mean(axis=1)
    return (losses, grads) if x.ndim == 2 else (float(losses[0]), grads[0])


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
