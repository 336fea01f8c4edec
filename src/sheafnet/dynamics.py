"""Weighted feed-forward dynamics, path-sum gradients, memory cells and the
cusp geometry of cubic cells.

A WeightedNetwork evaluates a DAG of vector-valued nodes; a node with
several parents consumes the tuple (concatenation) of their values, which
is the fork semantics.  Node values are computed in one place, `_forward`,
for `feedforward` and for the batched re-evaluations of
`finite_difference`.  The gradient of the loss with respect to a node's
weight block is the sum over all directed paths from that node to the
output of the chain-rule Jacobian product; `backprop_paths` computes it
literally, in one depth-first walk that holds the product of each path
prefix, and `reverse_mode` / `finite_difference` are the cross-checks.
All three differentiate one linearization of the network at the inputs,
`_linearize`: the activations, the edge Jacobians, one activation slope
per affine node, taken from its value (sigmoid' = a (1 - a), tanh' = 1 -
a^2, the bits of the same expressions in z), and the saturated nodes.
`gradient_agreement` evaluates the network once and hands that point to
all three.
`finite_difference` stacks the perturbed copies of a weight block along a
leading axis, in blocks of at most `FD_ROW_BLOCK` rows, and evaluates the
perturbed node and its descendants once per block from one base forward
pass.  Each row is bit-identical to re-running the whole network with that
perturbation: numpy's stacked matmul makes the same per-item BLAS call as
the unstacked product when each item has the unstacked operand's strides,
and the other operations work element by element.

Memory cells (LSTM, GRU, MGU2, cubic) are implemented from their update
formulas with explicit weight matrices and no biases, so the parameter
counts are the sums of the array sizes.  A cell's weight shapes are stated
in one place, its `CellParams` subclass: each weight is an m-row `_weight`
field that names its column count, m (recurrent) or n (input), and
`CellParams` derives `init`, `n_parameters` and the step functions'
dimension check from those fields.  Every random weight matrix here,
those of `random_fork_network` and `network_from_architecture` included,
is drawn by `_mat`.  The cubic cell's unfolding
parameters (u, v) classify through the discriminant 4u^3 + 27v^2, whose
sign separates the one-root and three-root regimes of z^3 + u z + v.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .arch_site import _kahn_levels
from .errors import ArchitectureError, NondifferentiablePoint, SheafnetError

SATURATION_THRESHOLD = 4.0

# Most perturbed copies that `WeightedNetwork.finite_difference` evaluates
# together (two per weight entry, an even number), and the step h by which
# each copy moves one entry.
FD_ROW_BLOCK = 128
FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# name -> (f, f' as a function of the value a = f(z)).  Each slope has the
# bits of the same expression in z: sigmoid'(z) = s(z) (1 - s(z)), tanh'(z) =
# 1 - tanh(z)^2, and a > 0 exactly when z > 0 for a = max(z, 0).
ACTIVATIONS = {
    "identity": (lambda z: z, lambda a: np.ones_like(a)),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
    "tanh": (np.tanh, lambda a: 1.0 - a ** 2),
    "relu": (lambda z: np.maximum(z, 0.0),
             lambda a: (a > 0).astype(float)),
}

_KINKED = {"relu"}


# ---------------------------------------------------------------------------
# WeightedNetwork
# ---------------------------------------------------------------------------

@dataclass
class Node:
    name: str
    op: str                      # "input" | "affine" | "hadamard" | "hadsum"
    dim: int
    parents: tuple = ()
    activation: str = "identity"
    weight: np.ndarray = None    # affine only: dim x sum(parent dims)
    bias: np.ndarray = None      # affine only, optional


class WeightedNetwork:
    def __init__(self, nodes):
        self.nodes = {n.name: n for n in nodes}
        self.order = [n.name for n in nodes]
        if len(self.nodes) != len(nodes):
            raise ArchitectureError("duplicate node names")
        seen = set()
        for n in nodes:
            if n.op not in ("input", "affine", "hadamard", "hadsum"):
                raise ArchitectureError(f"unknown op {n.op!r} at {n.name!r}")
            if not isinstance(n.dim, (int, np.integer)) or isinstance(n.dim, bool) or n.dim < 1:
                raise ArchitectureError(f"dim at {n.name!r} is not a positive int: {n.dim!r}")
            if isinstance(n.parents, str):
                raise ArchitectureError(f"parents of {n.name!r} are a string, "
                                        f"not a sequence of names: {n.parents!r}")
            if len(set(n.parents)) != len(n.parents):
                raise ArchitectureError(f"node {n.name!r} names a parent twice")
            for p in n.parents:
                if p not in seen:
                    raise ArchitectureError(f"node {n.name!r} used before parent {p!r}")
            seen.add(n.name)
            if n.op == "affine":
                if n.activation not in ACTIVATIONS:
                    raise ArchitectureError(f"unknown activation {n.activation!r} at {n.name!r}")
                want = sum(self.nodes[p].dim for p in n.parents)
                if not isinstance(n.weight, np.ndarray) or n.weight.shape != (n.dim, want):
                    raise ArchitectureError(f"weight at {n.name!r} is not a numpy array "
                                            f"of shape {(n.dim, want)}")
                if n.bias is not None and (not isinstance(n.bias, np.ndarray)
                                           or n.bias.shape != (n.dim,)):
                    raise ArchitectureError(f"bias at {n.name!r} is not a numpy array "
                                            f"of shape {(n.dim,)}")
                for field_name in ("weight", "bias"):
                    array = getattr(n, field_name)
                    if array is not None and array.dtype.kind not in "iuf":
                        raise ArchitectureError(f"{field_name} at {n.name!r} has dtype "
                                                f"{array.dtype}, not a real one")
            elif n.op in ("hadamard", "hadsum"):
                dims = {self.nodes[p].dim for p in n.parents}
                if len(n.parents) != 2 or dims != {n.dim}:
                    raise ArchitectureError(f"{n.op} node {n.name!r} needs two parents of its dimension")
        self.inputs = [n.name for n in nodes if n.op == "input"]
        used = {p for n in nodes for p in n.parents}
        outs = [n.name for n in nodes if n.name not in used]
        if len(outs) != 1:
            raise ArchitectureError(f"expected exactly one output node, found {outs}")
        self.output = outs[0]

    # -- evaluation ----------------------------------------------------------

    def feedforward(self, inputs):
        """Activations per node; the unique section determined by the inputs."""
        acts, pre = {}, {}
        for name in self.inputs:
            # a copy, C-contiguous as every value `_forward` passes to matmul
            v = np.array(inputs[name], dtype=float)
            if v.shape != (self.nodes[name].dim,):
                raise ArchitectureError(f"input {name!r} has wrong dimension")
            acts[name] = v
        self._forward([n for n in self.nodes.values() if n.op != "input"], acts, pre)
        return acts, pre

    def _forward(self, nodes, acts, pre, field=None, stack=None):
        """Evaluate ``nodes`` (in `order`) into ``acts``, which holds the
        value of every parent, and each affine node's pre-activation into
        ``pre``.  With ``stack``, the first node takes each copy in it as its
        ``field`` ("weight" or "bias"), and the values downstream of it get
        one row per copy."""
        for i, n in enumerate(nodes):
            values = [acts[p] for p in n.parents]
            if n.op == "affine":
                weight, bias = n.weight, n.bias
                if i == 0 and stack is not None:
                    weight, bias = (stack, bias) if field == "weight" else (weight, stack)
                if len(values) == 1:
                    x = values[0]       # C-contiguous, as every value here is
                else:
                    # a C-ordered join, with rows if any parent has them:
                    # np.concatenate of broadcast views comes out F-ordered
                    # when a batched parent has dimension 1, and matmul then
                    # skips BLAS
                    x = np.empty(max((v.shape[:-1] for v in values), key=len)
                                 + (n.weight.shape[1],))
                    offset = 0
                    for value in values:
                        x[..., offset:offset + value.shape[-1]] = value
                        offset += value.shape[-1]
                z = np.matmul(weight, x[..., None])[..., 0]
                if bias is not None:
                    z = z + bias
                pre[n.name] = z
                acts[n.name] = ACTIVATIONS[n.activation][0](z)
            elif n.op == "hadamard":
                acts[n.name] = values[0] * values[1]
            else:
                acts[n.name] = values[0] + values[1]

    def _linearize(self, inputs):
        """The evaluated point that the three gradient engines differentiate:
        ``(acts, jac, slopes, saturated)``.  ``acts`` is `feedforward`'s;
        ``jac[(child, parent)]`` is d child / d parent there; ``slopes``
        holds each affine node's activation slope f'(z), taken from its
        value f(z) (`ACTIVATIONS`); ``saturated`` names the sigmoid and tanh
        nodes with some |z| > `SATURATION_THRESHOLD`.  A relu node at its
        kink raises `NondifferentiablePoint`."""
        acts, pre = self.feedforward(inputs)
        jac, slopes, saturated = {}, {}, []
        for name in self.order:
            n = self.nodes[name]
            if n.op == "input":
                continue
            if n.op == "affine":
                z = pre[name]
                if n.activation in _KINKED and np.any(np.abs(z) <= 1e-9):
                    raise NondifferentiablePoint(
                        f"kink of {n.activation} at node {name!r}")
                if n.activation in ("sigmoid", "tanh") and \
                        np.any(np.abs(z) > SATURATION_THRESHOLD):
                    saturated.append(name)
                d = slopes[name] = ACTIVATIONS[n.activation][1](acts[name])
                offset = 0
                for p in n.parents:
                    w = n.weight[:, offset:offset + self.nodes[p].dim]
                    jac[(name, p)] = d[:, None] * w
                    offset += self.nodes[p].dim
            elif n.op == "hadamard":
                a, b = n.parents
                jac[(name, a)] = np.diag(acts[b])
                jac[(name, b)] = np.diag(acts[a])
            else:
                for p in n.parents:
                    jac[(name, p)] = np.eye(n.dim)
        return acts, jac, slopes, tuple(saturated)

    def _path_sum(self, start, jac, children):
        """The sum, over the directed paths from ``start`` to the output, of
        the product of the edge Jacobians along the path, and the number of
        those paths.

        The walk goes depth first, each node's children in `order`, and adds
        the paths in that order.  It holds the product of each prefix of the
        current path (``J @ prefix``, from the identity), so each step is one
        matmul, and one iterator over the unvisited children of each node on
        the path, so its depth is not bounded by Python's recursion limit."""
        dim = self.nodes[start].dim
        total = np.zeros((self.nodes[self.output].dim, dim))
        if start == self.output:
            return total + np.eye(dim), 1
        count = 0
        stack = [(start, np.eye(dim), iter(children[start]))]
        while stack:
            node, prefix, branch = stack[-1]
            child = next(branch, None)
            if child is None:
                stack.pop()
                continue
            product = jac[(child, node)] @ prefix
            if child == self.output:
                total += product
                count += 1
            else:
                stack.append((child, product, iter(children[child])))
        return total, count

    def _block_grads(self, n, acts, slopes, adjoint):
        """The weight and bias gradients of affine node ``n``, given the
        adjoint (the loss gradient) of its output, through the slope that
        `_linearize` took from its activation value."""
        g = adjoint * slopes[n.name]
        return (np.outer(g, np.concatenate([acts[p] for p in n.parents])),
                g if n.bias is not None else None)

    def backprop_paths(self, inputs, loss):
        """Gradients per affine weight block via the literal path sum, one
        prefix-sharing walk (`_path_sum`) per block."""
        return self._backprop_paths(self._linearize(inputs), loss)

    def _backprop_paths(self, point, loss):
        acts, jac, slopes, saturated = point
        dF = loss.grad(acts[self.output])
        children = {name: [] for name in self.order}
        for name in self.order:
            for p in self.nodes[name].parents:
                children[p].append(name)
        grads = {}
        path_counts = {}
        for name in self.order:
            n = self.nodes[name]
            if n.op != "affine":
                continue
            total, path_counts[name] = self._path_sum(name, jac, children)
            grads[name] = self._block_grads(n, acts, slopes, total.T @ dF)
        return BackpropResult(grads, saturated, path_counts)

    def reverse_mode(self, inputs, loss):
        """Standard adjoint accumulation; must agree with the path sum."""
        return self._reverse_mode(self._linearize(inputs), loss)

    def _reverse_mode(self, point, loss):
        acts, jac, slopes, _ = point
        adj = {name: np.zeros(self.nodes[name].dim) for name in self.order}
        adj[self.output] = loss.grad(acts[self.output])
        for name in reversed(self.order):
            n = self.nodes[name]
            for p in n.parents:
                adj[p] = adj[p] + jac[(name, p)].T @ adj[name]
        return {name: self._block_grads(n, acts, slopes, adj[name])
                for name, n in self.nodes.items() if n.op == "affine"}

    def finite_difference(self, inputs, loss):
        """Central differences on every affine weight and bias entry, from one
        base forward pass and batched re-evaluation through `_forward`.

        Each entry gives two rows: the weight (or bias) with that entry moved
        by +h, and by -h, for h = `FD_STEP`.  A block of at most
        `FD_ROW_BLOCK` rows stacks these copies along a leading axis and
        evaluates the perturbed node and its descendants once for the whole
        block, over a copy of the base activations, then calls ``loss.value``
        once on the block's output rows; every other node keeps its base
        activation.  So memory grows with the block times the largest
        weight, not with the square of the parameter count.

        Each row is bit-identical to re-running `feedforward` on the
        perturbed network.  A stacked ``np.matmul`` makes the same per-item
        BLAS call as the unstacked product when each item has the strides of
        the unstacked operands: the values and joins are C-ordered, and the
        copies of a weight keep its C or Fortran order (a weight with any
        other strides, such as a strided slice, is copied in C order, and its
        rows may then differ in the last bits).  Activations, bias addition
        and the Hadamard product and sum work element by element.

        It reads only the activations, so it runs `feedforward`, not
        `_linearize`, and a relu kink does not stop it."""
        return self._finite_difference(self.feedforward(inputs)[0], loss)

    def _finite_difference(self, acts, loss):
        h = FD_STEP
        grads = {}
        for pos, name in enumerate(self.order):
            n = self.nodes[name]
            if n.op != "affine":
                continue
            below, seen = [n], {name}
            for later in self.order[pos + 1:]:
                if seen.intersection(self.nodes[later].parents):
                    below.append(self.nodes[later])
                    seen.add(later)
            blocks = []
            for field in ("weight", "bias"):
                array = getattr(n, field)
                if array is None:
                    blocks.append(None)
                    continue
                diffs = np.empty(array.size)
                for start in range(0, array.size, FD_ROW_BLOCK // 2):
                    stop = min(start + FD_ROW_BLOCK // 2, array.size)
                    stack = _copies(array, 2 * (stop - start))
                    # row 2k moves entry start + k (in C order) by +h, row 2k + 1 by -h
                    idx = np.unravel_index(np.arange(start, stop), array.shape)
                    k = np.arange(stop - start)
                    stack[(2 * k,) + idx] = array[idx] + h
                    stack[(2 * k + 1,) + idx] = array[idx] - h
                    rows = dict(acts)
                    self._forward(below, rows, {}, field, stack)
                    values = loss.value(rows[self.output])
                    diffs[start:stop] = (values[0::2] - values[1::2]) / (2 * h)
                block = np.zeros_like(array)
                block[...] = diffs.reshape(array.shape)
                blocks.append(block)
            grads[name] = tuple(blocks)
        return grads


def _copies(array, count):
    """``count`` copies of ``array`` along a new leading axis.  Each copy of a
    Fortran-ordered matrix is Fortran-ordered too, so that numpy's matmul
    passes it to BLAS as it passes ``array``; anything else is copied in C
    order."""
    if array.ndim == 2 and array.flags.f_contiguous and not array.flags.c_contiguous:
        stack = np.empty((count,) + array.shape[::-1]).transpose(0, 2, 1)
    else:
        stack = np.empty((count,) + array.shape)
    stack[:] = array
    return stack


@dataclass(frozen=True)
class BackpropResult:
    grads: dict
    saturated: tuple
    path_counts: dict = field(compare=False)


class SumLoss:
    """F(y) = sum of the output coordinates.

    A loss's ``value`` reduces the last axis: a C-ordered stack of outputs,
    such as a block of `WeightedNetwork.finite_difference`, gets one value
    per row, each with the bits of the value of that row alone.  ``grad``
    takes one output."""

    def value(self, y):
        return np.sum(y, axis=-1)

    def grad(self, y):
        return np.ones_like(y)


def gradient_agreement(net, inputs, loss):
    """Max relative error of the path sum against reverse mode and against
    central finite differences.  The three engines differentiate one
    linearization (`WeightedNetwork._linearize`), so the network is
    evaluated once.  A block's error is max|mine - theirs| / max(1,
    max|mine|), and a NaN entry makes the error NaN, which fails any
    tolerance."""
    point = net._linearize(inputs)
    paths = net._backprop_paths(point, loss)
    errors = []
    for other in (net._reverse_mode(point, loss), net._finite_difference(point[0], loss)):
        worst = [0.0]
        for name, blocks in paths.grads.items():
            for mine, theirs in zip(blocks, other[name]):
                if mine is None:
                    continue
                scale = max(1.0, float(np.max(np.abs(mine))))
                worst.append(float(np.max(np.abs(mine - theirs))) / scale)
        # np.max keeps a NaN error, which the builtin max would drop
        errors.append(float(np.max(worst)))
    return errors[0], errors[1], paths


def random_fork_network(rng, max_layers=6, max_units=4):
    """A random layered DAG with joins, smooth activations, scalar output."""
    n_layers = rng.randint(2, max_layers)
    nodes = [Node("in0", "input", rng.randint(1, max_units))]
    previous = ["in0"]
    if rng.random() < 0.5:
        nodes.append(Node("in1", "input", rng.randint(1, max_units)))
        previous.append("in1")
    used = set()
    for layer in range(n_layers):
        width = rng.randint(1, 2)
        current = []
        for k in range(width):
            n_par = rng.randint(1, min(2, len(previous)))
            parents = tuple(rng.sample(previous, n_par))
            used.update(parents)
            dim = rng.randint(1, max_units)
            total = sum(n.dim for n in nodes if n.name in parents)
            name = f"h{layer}_{k}"
            nodes.append(Node(name, "affine", dim, parents, rng.choice(("tanh", "sigmoid")),
                              weight=_mat(rng, dim, total, 1.5)))
            current.append(name)
        previous = current
    # the readout consumes every dangling node so the output is unique
    dangling = tuple(n.name for n in nodes if n.name not in used)
    total = sum(n.dim for n in nodes if n.name in dangling)
    nodes.append(Node("out", "affine", 1, dangling, "identity",
                      weight=_mat(rng, 1, total, 1.5)))
    return WeightedNetwork(nodes)


def network_from_architecture(g, rng):
    """The gradcheck network of an architecture `SiteGraph`: each vertex a
    node of 1 to 3 units (an input if it has no in-edge, else a tanh affine
    node on its predecessors, sorted by name, with `_mat` weights in
    [-1, 1]), in Kahn's levels with each level sorted by name, then a scalar
    identity readout ``__loss_readout`` of every sink."""
    if not g.vertices:
        raise SheafnetError("architecture has no vertices")
    preds = {v: [] for v in g.vertices}
    for s, d in g.edges:
        preds[d].append(s)
    index = {v: i for i, v in enumerate(g.vertices)}
    levels, _ = _kahn_levels([[index[s] for s in preds[v]] for v in g.vertices])
    order = [v for level in levels for v in sorted(g.vertices[i] for i in level)]
    dims = {v: rng.randint(1, 3) for v in g.vertices}
    nodes = []
    for v in order:
        ins = tuple(sorted(preds[v]))
        if not ins:
            nodes.append(Node(v, "input", dims[v]))
        else:
            total = sum(dims[p] for p in ins)
            nodes.append(Node(v, "affine", dims[v], ins, "tanh",
                              weight=_mat(rng, dims[v], total, 1)))
    senders = {s for s, _ in g.edges}
    sinks = tuple(sorted(v for v in g.vertices if v not in senders))
    total = sum(dims[s] for s in sinks)
    nodes.append(Node("__loss_readout", "affine", 1, sinks, "identity",
                      weight=_mat(rng, 1, total, 1)))
    return WeightedNetwork(nodes)


# ---------------------------------------------------------------------------
# Memory cells
# ---------------------------------------------------------------------------

def _mat(rng, rows, cols, scale=0.5):
    """A rows x cols matrix of ``rng.uniform(-scale, scale)`` draws, row by row."""
    return np.array([[rng.uniform(-scale, scale) for _ in range(cols)]
                     for _ in range(rows)])


def _weight(columns):
    """A weight field of a cell: an m x m matrix for ``columns="m"``
    (recurrent), an m x n one for ``columns="n"`` (input)."""
    return field(metadata={"columns": columns})


@dataclass
class CellParams:
    """The weights of a memory cell with multiplicity m and input size n.

    A subclass declares its weights, in draw order, as `_weight` fields;
    `init`, `n_parameters` and the step functions' dimension check read
    them from there."""

    m: int
    n: int

    @classmethod
    def init(cls, m, n, rng=None, zero=False, **other):
        """Zero weights, or `_mat` draws from ``rng`` in field order;
        ``other`` sets the cell's other fields (the cubic cell's
        ``activation``)."""
        cols = {"m": m, "n": n}
        make = (lambda c: np.zeros((m, c))) if zero else (lambda c: _mat(rng, m, c))
        return cls(m, n, *(make(cols[f.metadata["columns"]]) for f in cls._weights()),
                   **other)

    @classmethod
    def _weights(cls):
        return [f for f in fields(cls) if "columns" in f.metadata]

    @property
    def n_parameters(self):
        return sum(getattr(self, f.name).size for f in self._weights())

    def _vectors(self, step, x, *states):
        """``x`` and ``states`` as float arrays, checked to have n and m
        entries; `ArchitectureError` names ``step`` otherwise."""
        x, *states = (np.asarray(v, dtype=float) for v in (x, *states))
        if x.shape != (self.n,) or any(s.shape != (self.m,) for s in states):
            raise ArchitectureError(f"{step} dimension mismatch")
        return (x, *states)


@dataclass
class LSTMParams(CellParams):
    """Gates i, f, o and the combine gate, each with an input and a
    recurrent matrix; multiplicity m is shared by h, c and every gate."""

    W_i: np.ndarray = _weight("n")
    U_i: np.ndarray = _weight("m")
    W_f: np.ndarray = _weight("n")
    U_f: np.ndarray = _weight("m")
    W_o: np.ndarray = _weight("n")
    U_o: np.ndarray = _weight("m")
    W_h: np.ndarray = _weight("n")
    U_h: np.ndarray = _weight("m")


def lstm_param_count(m, n):
    return 4 * m * m + 4 * m * n


def lstm_step(p, x, h_prev, c_prev):
    """c = c_prev . sigma_f + sigma_i . tanh_h ; h = sigma_o . tanh(c)."""
    x, h_prev, c_prev = p._vectors("lstm_step", x, h_prev, c_prev)
    s_i = _sigmoid(p.W_i @ x + p.U_i @ h_prev)
    s_f = _sigmoid(p.W_f @ x + p.U_f @ h_prev)
    s_o = _sigmoid(p.W_o @ x + p.U_o @ h_prev)
    t_h = np.tanh(p.W_h @ x + p.U_h @ h_prev)
    c = c_prev * s_f + s_i * t_h
    h = s_o * np.tanh(c)
    return h, c


@dataclass
class GRUParams(CellParams):
    W_z: np.ndarray = _weight("n")
    U_z: np.ndarray = _weight("m")
    W_r: np.ndarray = _weight("n")
    U_r: np.ndarray = _weight("m")
    W_x: np.ndarray = _weight("n")
    U_x: np.ndarray = _weight("m")


def gru_param_count(m, n):
    return 3 * m * m + 3 * m * n


def gru_step(p, x, h_prev):
    """h = (1 - sigma_z) . h_prev + sigma_z . tanh(W x + U (sigma_r . h_prev))."""
    x, h_prev = p._vectors("gru_step", x, h_prev)
    s_z = _sigmoid(p.W_z @ x + p.U_z @ h_prev)
    s_r = _sigmoid(p.W_r @ x + p.U_r @ h_prev)
    cand = np.tanh(p.W_x @ x + p.U_x @ (s_r * h_prev))
    return (1.0 - s_z) * h_prev + s_z * cand


@dataclass
class MGU2Params(CellParams):
    """Single gate, recurrent-only and bias-free."""

    U_z: np.ndarray = _weight("m")
    W_x: np.ndarray = _weight("n")
    U_x: np.ndarray = _weight("m")


def mgu2_param_count(m, n):
    return 2 * m * m + m * n


def mgu2_step(p, x, h_prev):
    x, h_prev = p._vectors("mgu2_step", x, h_prev)
    s_z = _sigmoid(p.U_z @ h_prev)
    cand = np.tanh(p.W_x @ x + p.U_x @ (s_z * h_prev))
    return (1.0 - s_z) * h_prev + s_z * cand


@dataclass
class CubicCellParams(CellParams):
    """h^a = sigma_alpha(h)^3 + u(x) sigma_alpha(h) + v(x), componentwise."""

    alpha: np.ndarray = _weight("m")
    U: np.ndarray = _weight("n")
    V: np.ndarray = _weight("n")
    activation: str = "sigmoid"


def cubic_param_count(m, n):
    return m * m + 2 * m * n


def cubic_cell_step(p, x, h_prev):
    x, h_prev = p._vectors("cubic_cell_step", x, h_prev)
    s = ACTIVATIONS[p.activation][0](p.alpha @ h_prev)
    u = np.tanh(p.U @ x)
    v = np.tanh(p.V @ x)
    return s ** 3 + u * s + v


PARAM_COUNTS = {
    "lstm": lstm_param_count,
    "gru": gru_param_count,
    "mgu2": mgu2_param_count,
    "cubic": cubic_param_count,
}

CELLS = {
    "lstm": LSTMParams,
    "gru": GRUParams,
    "mgu2": MGU2Params,
    "cubic": CubicCellParams,
}


# ---------------------------------------------------------------------------
# Cusp geometry
# ---------------------------------------------------------------------------

def discriminant(u, v):
    """Sign classification of 4u^3 + 27v^2 for z^3 + uz + v."""
    delta = 4.0 * u ** 3 + 27.0 * v ** 2
    if delta < 0:
        kind = "three_real_roots"
    elif delta > 0:
        kind = "one_real_root"
    else:
        kind = "boundary"
    return kind, delta


def cubic_roots(u, v):
    """Real roots of z^3 + u z + v, with multiplicity, ascending; each root
    of the Cardan formulas is polished by three Newton steps."""
    delta = 4.0 * u ** 3 + 27.0 * v ** 2
    if u == 0.0 and v == 0.0:
        return [0.0, 0.0, 0.0]
    if delta == 0.0:
        double = -3.0 * v / (2.0 * u)
        simple = -2.0 * double
        return sorted([double, double, simple])
    if delta < 0.0:
        # three real roots: trigonometric branch of the Cardan formulas
        r = 2.0 * math.sqrt(-u / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * v / (u * r))))
        roots = [r * math.cos(theta / 3.0 - 2.0 * math.pi * k / 3.0)
                 for k in range(3)]
    else:
        s = math.sqrt(delta / 108.0)
        roots = [math.copysign(abs(-v / 2.0 + s) ** (1 / 3), -v / 2.0 + s)
                 + math.copysign(abs(-v / 2.0 - s) ** (1 / 3), -v / 2.0 - s)]
    return sorted(_newton_polish(z, u, v) for z in roots)


def _newton_polish(z, u, v):
    for _ in range(3):
        f = z ** 3 + u * z + v
        df = 3.0 * z ** 2 + u
        if df == 0.0:
            break
        z = z - f / df
    return z


def cubic_residual(z, u, v):
    return abs(z ** 3 + u * z + v)


def cusp_scan(grid=100):
    """CSV-ready rows (u, v, delta, root_count) over a square grid on
    [-2, 2]^2."""
    rows = []
    for i in range(grid):
        for j in range(grid):
            u = -2.0 + 4.0 * i / (grid - 1)
            v = -2.0 + 4.0 * j / (grid - 1)
            kind, delta = discriminant(u, v)
            rows.append((u, v, delta, len(cubic_roots(u, v))))
    return rows


# ---------------------------------------------------------------------------
# Braid representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidRep:
    """Two integer 2x2 matrices of determinant one."""

    s1: tuple
    s2: tuple

    @staticmethod
    def of(s1, s2):
        s1 = tuple(tuple(int(x) for x in row) for row in s1)
        s2 = tuple(tuple(int(x) for x in row) for row in s2)
        for m in (s1, s2):
            if _det2(m) != 1:
                raise ArchitectureError("braid matrices must have determinant one")
        return BraidRep(s1, s2)


def default_braid_rep():
    return BraidRep.of(((1, 1), (0, 1)), ((1, 0), (-1, 1)))


def _mul2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2))


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


_ID2 = ((1, 0), (0, 1))
_NEG_ID2 = ((-1, 0), (0, -1))


@dataclass(frozen=True)
class BraidReport:
    relation_holds: bool
    lhs: tuple
    rhs: tuple
    center_cube: tuple
    center_kind: str            # "minus_identity" | "identity" | "other"


def braid_relation_check(rep):
    """Verify s1 s2 s1 = s2 s1 s2 and classify (s1 s2)^3."""
    lhs = _mul2(_mul2(rep.s1, rep.s2), rep.s1)
    rhs = _mul2(_mul2(rep.s2, rep.s1), rep.s2)
    prod = _mul2(rep.s1, rep.s2)
    cube = _mul2(_mul2(prod, prod), prod)
    kind = "minus_identity" if cube == _NEG_ID2 else \
        ("identity" if cube == _ID2 else "other")
    return BraidReport(lhs == rhs, lhs, rhs, cube, kind)
