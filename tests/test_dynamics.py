import math
import random
import sys

import numpy as np
import pytest

from sheafnet.arch_site import parse_architecture
from sheafnet.dynamics import (
    ACTIVATIONS,
    BraidRep,
    CubicCellParams,
    GRUParams,
    LSTMParams,
    MGU2Params,
    Node,
    SumLoss,
    WeightedNetwork,
    braid_relation_check,
    cubic_cell_step,
    cubic_param_count,
    cubic_residual,
    cubic_roots,
    cusp_scan,
    default_braid_rep,
    discriminant,
    gradient_agreement,
    gru_param_count,
    gru_step,
    lstm_param_count,
    lstm_step,
    mgu2_param_count,
    mgu2_step,
    network_from_architecture,
    random_fork_network,
)
from sheafnet.errors import ArchitectureError, NondifferentiablePoint


class QuadraticLoss:
    """F(y) = 0.5 |y - target|^2, a loss whose gradient depends on y."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def value(self, y):
        return 0.5 * np.sum((y - self.target) ** 2, axis=-1)

    def grad(self, y):
        return y - self.target


# -- feedforward ---------------------------------------------------------------

def identity_chain():
    return WeightedNetwork([
        Node("x", "input", 2),
        Node("h", "affine", 2, ("x",), "identity", weight=np.eye(2)),
        Node("y", "affine", 2, ("h",), "identity", weight=np.eye(2)),
    ])


def test_feedforward_identity_chain():
    net = identity_chain()
    acts, _ = net.feedforward({"x": [1.0, -2.0]})
    assert np.allclose(acts["y"], [1.0, -2.0])


def test_feedforward_matches_matrix_product():
    w1 = np.array([[1.0, 2.0], [0.5, -1.0]])
    w2 = np.array([[2.0, 0.0], [1.0, 1.0]])
    net = WeightedNetwork([
        Node("x", "input", 2),
        Node("h", "affine", 2, ("x",), "identity", weight=w1),
        Node("y", "affine", 2, ("h",), "identity", weight=w2),
    ])
    x = np.array([0.3, -0.7])
    acts, _ = net.feedforward({"x": x})
    assert np.allclose(acts["y"], w2 @ w1 @ x)


def test_join_value_is_tuple_of_tips():
    net = WeightedNetwork([
        Node("a", "input", 1),
        Node("b", "input", 2),
        Node("j", "affine", 3, ("a", "b"), "identity", weight=np.eye(3)),
    ])
    acts, _ = net.feedforward({"a": [2.0], "b": [3.0, 4.0]})
    assert acts["j"].tolist() == [2.0, 3.0, 4.0]


def reference_feedforward(net, inputs):
    """The reference for `feedforward`: each node's value computed by its own
    branch, every affine node on the np.concatenate of its parents."""
    acts, pre = {}, {}
    for name in net.order:
        n = net.nodes[name]
        if n.op == "input":
            v = np.asarray(inputs[name], dtype=float)
            if v.shape != (n.dim,):
                raise ArchitectureError(f"input {name!r} has wrong dimension")
            acts[name] = v
        elif n.op == "affine":
            z = n.weight @ np.concatenate([acts[p] for p in n.parents])
            if n.bias is not None:
                z = z + n.bias
            pre[name] = z
            acts[name] = ACTIVATIONS[n.activation][0](z)
        elif n.op == "hadamard":
            a, b = (acts[p] for p in n.parents)
            acts[name] = a * b
        else:
            a, b = (acts[p] for p in n.parents)
            acts[name] = a + b
    return acts, pre


def assert_same_values(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name].shape == value.shape and got[name].tobytes() == value.tobytes()


def assert_feedforward_is_the_reference(net, inputs):
    acts, pre = net.feedforward(inputs)
    want_acts, want_pre = reference_feedforward(net, inputs)
    assert_same_values(acts, want_acts)
    assert_same_values(pre, want_pre)


def random_inputs(rng, net):
    return {name: [rng.uniform(-1, 1) for _ in range(net.nodes[name].dim)]
            for name in net.inputs}


def test_feedforward_is_bit_identical_to_the_reference():
    """On criterion 8's networks, on the gated network with biases, a
    product and a sum, and on larger networks with Fortran-ordered weights."""
    rng = random.Random(0)     # criterion 8 draws its 100 networks like this
    for _ in range(100):
        net = random_fork_network(rng, max_layers=6, max_units=4)
        assert_feedforward_is_the_reference(net, random_inputs(rng, net))
    assert_feedforward_is_the_reference(gated_network(), {"x": [0.3, -0.6]})
    rng = random.Random("F-ordered")
    for _ in range(30):
        net = random_fork_network(rng, max_layers=8, max_units=6)
        for node in net.nodes.values():
            if node.weight is not None:
                node.weight = np.asarray(node.weight, order="F")
        assert_feedforward_is_the_reference(net, random_inputs(rng, net))


def test_feedforward_of_strided_input_views():
    """An input given as a strided view reaches a one-parent node's matmul as
    a C-contiguous copy, as through np.concatenate.  The one-row product of
    ``y`` is a BLAS dot, which rounds a strided vector differently."""
    rng = random.Random(9)
    mat = lambda rows, cols: np.array([[rng.uniform(-1, 1) for _ in range(cols)]
                                       for _ in range(rows)])
    views = [np.arange(6.0)[::2]]
    views += [np.array([rng.uniform(-1, 1) for _ in range(3 * n)])[::3] for n in range(8, 28)]
    for x in views:
        net = WeightedNetwork([
            Node("x", "input", len(x)),
            Node("h", "affine", 4, ("x",), "tanh", weight=mat(4, len(x))),
            Node("y", "affine", 1, ("x",), "identity", weight=mat(1, len(x))),
            Node("out", "affine", 2, ("h", "y"), "identity", weight=mat(2, 5)),
        ])
        assert_feedforward_is_the_reference(net, {"x": x})
        assert_same_bits(net.finite_difference({"x": x}, SumLoss()),
                         full_forward_differences(net, {"x": x}, SumLoss()))


def test_dimension_mismatch():
    net = identity_chain()
    with pytest.raises(ArchitectureError):
        net.feedforward({"x": [1.0]})


@pytest.mark.parametrize("op", ["affine", "hadamard"])
def test_a_parent_named_twice_is_refused(op):
    """An affine node on ("a", "a") would keep one Jacobian per parent name,
    and its path sum would disagree with finite differences."""
    weight = np.array([[1.0, 2.0]]) if op == "affine" else None
    with pytest.raises(ArchitectureError, match="names a parent twice"):
        WeightedNetwork([Node("a", "input", 1),
                         Node("j", op, 1, ("a", "a"), weight=weight)])


def test_an_unknown_op_is_refused():
    with pytest.raises(ArchitectureError, match="unknown op 'conv'"):
        WeightedNetwork([Node("a", "input", 1), Node("j", "conv", 1, ("a",))])


def test_an_unknown_activation_is_refused():
    with pytest.raises(ArchitectureError, match="unknown activation 'softplus' at 'j'"):
        WeightedNetwork([Node("a", "input", 1),
                         Node("j", "affine", 1, ("a",), "softplus", weight=np.ones((1, 1)))])


@pytest.mark.parametrize("weight", [None, [[1.0]], np.ones((1, 2))])
def test_an_affine_weight_that_is_not_an_array_of_its_shape_is_refused(weight):
    message = r"weight at 'j' is not a numpy array of shape \(1, 1\)"
    with pytest.raises(ArchitectureError, match=message):
        WeightedNetwork([Node("a", "input", 1), Node("j", "affine", 1, ("a",), weight=weight)])


@pytest.mark.parametrize("bias", [[0.0], np.zeros(2)])
def test_an_affine_bias_that_is_not_an_array_of_its_shape_is_refused(bias):
    message = r"bias at 'j' is not a numpy array of shape \(1,\)"
    with pytest.raises(ArchitectureError, match=message):
        WeightedNetwork([Node("a", "input", 1),
                         Node("j", "affine", 1, ("a",), weight=np.ones((1, 1)), bias=bias)])


@pytest.mark.parametrize("field", ["weight", "bias"])
@pytest.mark.parametrize("value", [np.array(["x"]), np.array([1j]), np.array([None])],
                         ids=["str", "complex", "object"])
def test_an_affine_array_of_non_real_dtype_is_refused(field, value):
    """Such an array has its node's shape, and `feedforward` then failed in
    numpy (a bare `UFuncTypeError` from matmul for the strings)."""
    arrays = {"weight": np.ones((1, 1)), "bias": np.zeros(1)}
    arrays[field] = value.reshape(arrays[field].shape)
    with pytest.raises(ArchitectureError, match=f"^{field} at 'j' has dtype .*, not a real one$"):
        WeightedNetwork([Node("a", "input", 1), Node("j", "affine", 1, ("a",), **arrays)])


def test_parents_given_as_a_string_are_refused():
    """"ab" is not read as the parents "a" and "b", although both exist."""
    with pytest.raises(ArchitectureError, match="^parents of 'j' are a string"):
        WeightedNetwork([Node("a", "input", 1), Node("b", "input", 1),
                         Node("j", "affine", 1, "ab", weight=np.ones((1, 2)))])


@pytest.mark.parametrize("dim", [-1, 0, 1.0, True, "1"])
def test_a_dim_that_is_not_a_positive_int_is_refused(dim):
    with pytest.raises(ArchitectureError, match="^dim at 'a' is not a positive int: "):
        WeightedNetwork([Node("a", "input", dim),
                         Node("j", "affine", 1, ("a",), weight=np.ones((1, 1)))])


# -- gradients --------------------------------------------------------------------

def test_single_path_chain_rule():
    w1 = np.array([[3.0]])
    w2 = np.array([[5.0]])
    net = WeightedNetwork([
        Node("x", "input", 1),
        Node("h", "affine", 1, ("x",), "identity", weight=w1),
        Node("y", "affine", 1, ("h",), "identity", weight=w2),
    ])
    res = net.backprop_paths({"x": [2.0]}, SumLoss())
    gw1, _ = res.grads["h"]
    assert gw1[0, 0] == pytest.approx(5.0 * 2.0)   # w2 * x
    gw2, _ = res.grads["y"]
    assert gw2[0, 0] == pytest.approx(3.0 * 2.0)   # h = w1 x


def test_two_path_diamond_gradient():
    # y = a*h + b*h with h = w x: dy/dw = (a + b) x, the two-path sum
    a, b, w = 2.0, -3.0, 1.5
    net = WeightedNetwork([
        Node("x", "input", 1),
        Node("h", "affine", 1, ("x",), "identity", weight=np.array([[w]])),
        Node("p", "affine", 1, ("h",), "identity", weight=np.array([[a]])),
        Node("q", "affine", 1, ("h",), "identity", weight=np.array([[b]])),
        Node("y", "affine", 1, ("p", "q"), "identity",
             weight=np.array([[1.0, 1.0]])),
    ])
    res = net.backprop_paths({"x": [4.0]}, SumLoss())
    assert res.path_counts["h"] == 2
    assert res.grads["h"][0][0, 0] == pytest.approx((a + b) * 4.0)


def test_gradients_match_reverse_and_fd_on_random_networks():
    rng = random.Random(77)
    for _ in range(25):
        net = random_fork_network(rng, max_layers=5, max_units=3)
        inputs = {name: [rng.uniform(-1, 1) for _ in range(net.nodes[name].dim)]
                  for name in net.inputs}
        vs_reverse, vs_fd, _ = gradient_agreement(net, inputs, SumLoss())
        assert vs_reverse <= 1e-12
        assert vs_fd <= 1e-6


def recursive_paths(net, start):
    """Every directed path from ``start`` to the output: a recursive
    depth-first walk, each node's children in `order`."""
    if start == net.output:
        return [(start,)]
    return [(start,) + rest for child in net.order if start in net.nodes[child].parents
            for rest in recursive_paths(net, child)]


# Each activation's derivative as a function of the pre-activation z: the
# reference for the slopes `WeightedNetwork` takes from the activation values.
Z_SLOPES = {
    "identity": lambda z: np.ones_like(z),
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)) * (1.0 - 1.0 / (1.0 + np.exp(-z))),
    "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
    "relu": lambda z: (z > 0).astype(float),
}


def reference_jacobians(net, acts, pre):
    """J[(child, parent)] = d child / d parent at the point of
    `reference_feedforward`, each affine slope taken from z (`Z_SLOPES`)."""
    jac = {}
    for name in net.order:
        n = net.nodes[name]
        if n.op == "affine":
            d = Z_SLOPES[n.activation](pre[name])
            offset = 0
            for p in n.parents:
                dim = net.nodes[p].dim
                jac[(name, p)] = d[:, None] * n.weight[:, offset:offset + dim]
                offset += dim
        elif n.op == "hadamard":
            a, b = n.parents
            jac[(name, a)] = np.diag(acts[b])
            jac[(name, b)] = np.diag(acts[a])
        elif n.op == "hadsum":
            for p in n.parents:
                jac[(name, p)] = np.eye(n.dim)
    return jac


def test_slopes_from_values_equal_the_z_form_derivatives():
    """Bit for bit, for each activation, at saturated pre-activations
    (|z| > 4 up to z = +-40) and close to the relu kink (|z| > 1e-9, the
    kink test's tolerance)."""
    rng = random.Random(29)
    z = np.array([-40.0, 40.0, -4.000001, 4.000001, -1.5e-9, 1.5e-9, -1e-8, 1e-8, 2.5, -0.3]
                 + [rng.uniform(-40, 40) for _ in range(200)]
                 + [rng.choice((-1, 1)) * rng.uniform(4, 40) for _ in range(200)]
                 + [rng.choice((-1, 1)) * 10 ** rng.uniform(-8.9, -1) for _ in range(200)])
    for activation, slope in Z_SLOPES.items():
        net = WeightedNetwork([
            Node("x", "input", len(z)),
            Node("h", "affine", len(z), ("x",), activation, weight=np.eye(len(z))),
        ])
        _, _, slopes, saturated = net._linearize({"x": z})
        assert slopes["h"].tobytes() == slope(z).tobytes()
        assert saturated == (("h",) if activation in ("sigmoid", "tanh") else ())


def per_path_backprop(net, inputs, loss):
    """The reference for `backprop_paths`: the paths of `recursive_paths`,
    each path's Jacobian product taken again from the identity, with slopes
    in z form (`reference_jacobians`), and the path counts."""
    acts, pre = reference_feedforward(net, inputs)
    jac = reference_jacobians(net, acts, pre)
    dF = loss.grad(acts[net.output])
    grads, path_counts = {}, {}
    for name in net.order:
        n = net.nodes[name]
        if n.op != "affine":
            continue
        paths = recursive_paths(net, name)
        path_counts[name] = len(paths)
        total = np.zeros((net.nodes[net.output].dim, n.dim))
        for path in paths:
            m = np.eye(n.dim)
            for a, b in zip(path, path[1:]):
                m = jac[(b, a)] @ m
            total += m
        g = (total.T @ dF) * Z_SLOPES[n.activation](pre[name])
        grads[name] = (np.outer(g, np.concatenate([acts[p] for p in n.parents])),
                       g if n.bias is not None else None)
    return grads, path_counts


def diamond_stack(k):
    """The architecture v_i -> a_i, b_i -> v_(i+1) for i < k: 2^(k-1) paths
    from a0 to v_k."""
    return parse_architecture({
        "nodes": [f"v{i}" for i in range(k + 1)] + [f"{c}{i}" for i in range(k) for c in "ab"],
        "edges": [[f"v{i}", f"{c}{i}"] for i in range(k) for c in "ab"]
        + [[f"{c}{i}", f"v{i + 1}"] for i in range(k) for c in "ab"]})


def test_backprop_paths_match_the_per_path_loop():
    """Bit for bit, path counts included, on random fork networks and on
    stacks of 4, 8 and 11 diamonds (8, 128 and 1024 paths from a0)."""
    rng = random.Random(12)
    nets = [random_fork_network(rng, max_layers=7, max_units=2) for _ in range(30)]
    nets += [network_from_architecture(diamond_stack(k), rng) for k in (4, 8, 11)]
    for i, net in enumerate(nets):
        inputs = random_inputs(rng, net)
        loss = SumLoss() if i % 2 else \
            QuadraticLoss([rng.uniform(-1, 1) for _ in range(net.nodes[net.output].dim)])
        res = net.backprop_paths(inputs, loss)
        grads, path_counts = per_path_backprop(net, inputs, loss)
        assert res.path_counts == path_counts
        assert_same_bits(res.grads, grads)
    assert path_counts["a0"] == 1024


def test_backprop_paths_deeper_than_the_recursion_limit():
    """y = h_depth with h_1 = a + x, h_k = h_(k-1) + x and a = w x, so the one
    path from ``a`` to the output is longer than the recursion limit."""
    depth = sys.getrecursionlimit() + 10
    nodes = [Node("x", "input", 1),
             Node("a", "affine", 1, ("x",), "identity", weight=np.array([[0.5]])),
             Node("h1", "hadsum", 1, ("a", "x"))]
    nodes += [Node(f"h{k}", "hadsum", 1, (f"h{k - 1}", "x")) for k in range(2, depth + 1)]
    net = WeightedNetwork(nodes)
    res = net.backprop_paths({"x": [3.0]}, SumLoss())
    assert res.path_counts == {"a": 1}
    assert res.grads["a"][0].tolist() == [[3.0]]
    assert res.grads["a"][0].tolist() == net.reverse_mode({"x": [3.0]}, SumLoss())["a"][0].tolist()


def full_forward_differences(net, inputs, loss, h=1e-5):
    """The reference for `finite_difference`: central differences that
    re-run the whole network for every perturbed weight and bias entry."""
    grads = {}
    for name in net.order:
        n = net.nodes[name]
        if n.op != "affine":
            continue
        blocks = [None, None]
        for b, array in enumerate((n.weight, n.bias)):
            if array is None:
                continue
            g = blocks[b] = np.zeros_like(array)
            for idx in np.ndindex(*array.shape):
                keep = array[idx]
                array[idx] = keep + h
                up = loss.value(net.feedforward(inputs)[0][net.output])
                array[idx] = keep - h
                down = loss.value(net.feedforward(inputs)[0][net.output])
                array[idx] = keep
                g[idx] = (up - down) / (2 * h)
        grads[name] = tuple(blocks)
    return grads


def assert_same_bits(got, want):
    assert got.keys() == want.keys()
    for name, blocks in want.items():
        for mine, ref in zip(got[name], blocks):
            assert (mine is None and ref is None) or mine.tobytes() == ref.tobytes()


def test_finite_difference_is_bit_identical_to_full_forward_on_criterion_08_networks():
    rng = random.Random(0)     # criterion 8 draws its 100 networks like this
    for _ in range(100):
        net = random_fork_network(rng, max_layers=6, max_units=4)
        inputs = {name: [rng.uniform(-1, 1) for _ in range(net.nodes[name].dim)]
                  for name in net.inputs}
        assert_same_bits(net.finite_difference(inputs, SumLoss()),
                         full_forward_differences(net, inputs, SumLoss()))


def gated_network():
    """Branches ``cand`` and ``side`` are not descendants of ``gate``; the
    weights of ``gate`` reach the output through a product and a sum."""
    rng = random.Random(11)
    mat = lambda rows, cols: np.array([[rng.uniform(-1, 1) for _ in range(cols)]
                                       for _ in range(rows)])
    vec = lambda rows: np.array([rng.uniform(-1, 1) for _ in range(rows)])
    return WeightedNetwork([
        Node("x", "input", 2),
        Node("gate", "affine", 2, ("x",), "sigmoid", weight=mat(2, 2), bias=vec(2)),
        Node("cand", "affine", 2, ("x",), "tanh", weight=mat(2, 2)),
        Node("prod", "hadamard", 2, ("gate", "cand")),
        Node("mix", "hadsum", 2, ("prod", "cand")),
        Node("side", "affine", 3, ("x",), "tanh", weight=mat(3, 2), bias=vec(3)),
        Node("out", "affine", 2, ("mix", "side"), "identity", weight=mat(2, 5), bias=vec(2)),
    ])


def test_finite_difference_is_bit_identical_with_bias_hadamard_and_hadsum():
    net = gated_network()
    inputs = {"x": [0.3, -0.6]}
    for loss in (SumLoss(), QuadraticLoss([0.2, -0.1])):
        assert_same_bits(net.finite_difference(inputs, loss),
                         full_forward_differences(net, inputs, loss))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("loss", ["sum", "quadratic"])
def test_finite_difference_is_bit_identical_on_larger_random_networks(loss, order):
    """Wider and deeper than criterion 8's networks: blocks of several
    parents, several rows of output and joins of perturbed and unperturbed
    branches; with weights in C order, and in Fortran order (as ``M.T`` of a
    C-ordered ``M`` is)."""
    rng = random.Random(f"batched {loss}")
    for _ in range(30):
        net = random_fork_network(rng, max_layers=8, max_units=6)
        for node in net.nodes.values():
            if node.weight is not None:
                node.weight = np.asarray(node.weight, order=order)
        inputs = {name: [rng.uniform(-1, 1) for _ in range(net.nodes[name].dim)]
                  for name in net.inputs}
        f = SumLoss() if loss == "sum" else \
            QuadraticLoss([rng.uniform(-1, 1) for _ in range(net.nodes[net.output].dim)])
        assert_same_bits(net.finite_difference(inputs, f),
                         full_forward_differences(net, inputs, f))


def test_finite_difference_join_of_perturbed_and_base_parents():
    """``join`` reads the perturbed ``hid`` and the unperturbed ``side`` and
    ``x`` through one weight.  Its batched input joins a block of rows with
    base vectors; with ``hid`` of dimension 1, ``np.concatenate`` of
    broadcast views would lay it out in Fortran order, which numpy's matmul
    does not pass to BLAS.  With ``join`` of dimension 1 the unbatched
    product is a BLAS dot, and the loop numpy runs instead rounds
    differently."""
    rng = random.Random(3)
    mat = lambda rows, cols: np.array([[rng.uniform(-1, 1) for _ in range(cols)]
                                       for _ in range(rows)])
    net = WeightedNetwork([
        Node("x", "input", 9),
        Node("hid", "affine", 1, ("x",), "tanh", weight=mat(1, 9)),
        Node("side", "affine", 15, ("x",), "sigmoid", weight=mat(15, 9)),
        Node("join", "affine", 1, ("side", "hid", "x"), "tanh", weight=mat(1, 25)),
        Node("out", "affine", 3, ("join",), "identity", weight=mat(3, 1)),
    ])
    inputs = {"x": [rng.uniform(-1, 1) for _ in range(9)]}
    for loss in (SumLoss(), QuadraticLoss([0.1, -0.2, 0.3])):
        assert_same_bits(net.finite_difference(inputs, loss),
                         full_forward_differences(net, inputs, loss))


def test_finite_difference_without_affine_nodes_is_empty():
    net = WeightedNetwork([
        Node("a", "input", 2),
        Node("b", "input", 2),
        Node("prod", "hadamard", 2, ("a", "b")),
        Node("out", "hadsum", 2, ("prod", "a")),
    ])
    assert net.finite_difference({"a": [1.0, 2.0], "b": [0.5, -1.0]}, SumLoss()) == {}


def test_finite_difference_checks_input_dimension():
    with pytest.raises(ArchitectureError, match="wrong dimension"):
        identity_chain().finite_difference({"x": [1.0, 2.0, 3.0]}, SumLoss())


def per_block_agreement(net, inputs, loss):
    """The reference for `gradient_agreement`'s errors: the three public
    engines, and a loop over the blocks that takes each block's
    max|mine - theirs| / max(1, max|mine|) and keeps the largest."""
    paths = net.backprop_paths(inputs, loss)
    errors = []
    for other in (net.reverse_mode(inputs, loss), net.finite_difference(inputs, loss)):
        worst = 0.0
        for name, blocks in paths.grads.items():
            for mine, theirs in zip(blocks, other[name]):
                if mine is None:
                    continue
                scale = max(1.0, float(np.max(np.abs(mine))))
                worst = max(worst, float(np.max(np.abs(mine - theirs))) / scale)
        errors.append(worst)
    return errors


def test_gradient_agreement_evaluates_the_network_once(monkeypatch):
    """One `feedforward` per check, and the errors of the per-block loop, by
    their bits, on criterion 8's 100 networks and on 50 small ones."""
    calls = []
    feedforward = WeightedNetwork.feedforward

    def spy(self, inputs):
        calls.append(self)
        return feedforward(self, inputs)

    monkeypatch.setattr(WeightedNetwork, "feedforward", spy)
    rng = random.Random(0)     # criterion 8 draws its 100 networks like this
    cases = []
    for _ in range(100):
        net = random_fork_network(rng, max_layers=6, max_units=4)
        cases.append((net, random_inputs(rng, net)))
    rng = random.Random("small")
    for _ in range(50):
        net = random_fork_network(rng, 3, 2)
        cases.append((net, random_inputs(rng, net)))
    for net, inputs in cases:
        calls.clear()
        vs_rev, vs_fd, _ = gradient_agreement(net, inputs, SumLoss())
        assert calls == [net]
        want = per_block_agreement(net, inputs, SumLoss())
        assert [vs_rev.hex(), vs_fd.hex()] == [w.hex() for w in want]


@pytest.mark.parametrize("x, nan_path_sum", [([1e308, 1e308], False), ([math.inf, 1.0], True)])
def test_a_nan_error_fails_the_gradient_check(x, nan_path_sum):
    """Every central difference here is inf - inf = NaN; the errors must be
    NaN, not the 0.0 that a builtin max over the blocks keeps."""
    net = WeightedNetwork([
        Node("x", "input", 2),
        Node("h", "affine", 1, ("x",), "tanh", weight=np.array([[1.0, -1.0]])),
        Node("out", "affine", 1, ("h", "x"), "identity", weight=np.array([[1.0, 1.0, 1.0]])),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        fd = net.finite_difference({"x": x}, SumLoss())
        vs_rev, vs_fd, res = gradient_agreement(net, {"x": x}, SumLoss())
    assert all(np.isnan(block).all() for block, _ in fd.values())
    assert math.isnan(vs_fd) and not vs_fd <= 1e-6
    # at x = (inf, 1) the path sum is NaN too (slope 0 times inf), and so is
    # its error against reverse mode
    assert bool(np.isnan(res.grads["h"][0]).any()) == nan_path_sum
    assert math.isnan(vs_rev) == nan_path_sum and (vs_rev <= 1e-12) != nan_path_sum


def test_hadamard_gate_composition_gradcheck():
    """One LSTM-style gate block: out = sum(sigmoid(Wx) . tanh(Ux)), with the
    product as an explicit two-input node."""
    rng = random.Random(5)
    w = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
    u = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
    net = WeightedNetwork([
        Node("x", "input", 2),
        Node("gate", "affine", 2, ("x",), "sigmoid", weight=w),
        Node("cand", "affine", 2, ("x",), "tanh", weight=u),
        Node("prod", "hadamard", 2, ("gate", "cand")),
        Node("out", "affine", 1, ("prod",), "identity",
             weight=np.array([[1.0, 1.0]])),
    ])
    vs_reverse, vs_fd, res = gradient_agreement(net, {"x": [0.3, -0.6]}, SumLoss())
    assert vs_reverse <= 1e-12 and vs_fd <= 1e-6
    assert res.path_counts["gate"] == 1


def test_quadratic_loss_and_saturation_flag():
    net = WeightedNetwork([
        Node("x", "input", 1),
        Node("h", "affine", 1, ("x",), "sigmoid", weight=np.array([[50.0]])),
        Node("y", "affine", 1, ("h",), "identity", weight=np.array([[1.0]])),
    ])
    res = net.backprop_paths({"x": [1.0]}, QuadraticLoss([0.0]))
    assert "h" in res.saturated


def test_relu_kink_flagged():
    net = WeightedNetwork([
        Node("x", "input", 1),
        Node("h", "affine", 1, ("x",), "relu", weight=np.array([[1.0]])),
        Node("y", "affine", 1, ("h",), "identity", weight=np.array([[1.0]])),
    ])
    with pytest.raises(NondifferentiablePoint):
        net.backprop_paths({"x": [0.0]}, SumLoss())


# -- cells -----------------------------------------------------------------------

def test_lstm_zero_weights_halves_cell_state():
    p = LSTMParams.init(3, 2, zero=True)
    c_prev = np.array([0.4, -0.2, 1.0])
    h, c = lstm_step(p, np.zeros(2), np.zeros(3), c_prev)
    assert np.allclose(c, 0.5 * c_prev)
    assert np.allclose(h, 0.5 * np.tanh(c))


def test_lstm_scalar_trajectory_hand_computed():
    rng = random.Random(1)
    p = LSTMParams.init(1, 1, rng)
    x_seq = [0.5, -1.0, 0.25]
    h = np.array([0.1])
    c = np.array([-0.2])
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    eh, ec = 0.1, -0.2
    for x in x_seq:
        si = sig(p.W_i[0, 0] * x + p.U_i[0, 0] * eh)
        sf = sig(p.W_f[0, 0] * x + p.U_f[0, 0] * eh)
        so = sig(p.W_o[0, 0] * x + p.U_o[0, 0] * eh)
        th = math.tanh(p.W_h[0, 0] * x + p.U_h[0, 0] * eh)
        ec = ec * sf + si * th
        eh = so * math.tanh(ec)
        h, c = lstm_step(p, np.array([x]), h, c)
    assert h[0] == pytest.approx(eh) and c[0] == pytest.approx(ec)


def test_parameter_counts_grid():
    rng = random.Random(2)
    for m in range(1, 9):
        for n in range(1, 9):
            assert LSTMParams.init(m, n, rng).n_parameters == lstm_param_count(m, n) \
                == 4 * m * m + 4 * m * n
            assert GRUParams.init(m, n, rng).n_parameters == gru_param_count(m, n) \
                == 3 * m * m + 3 * m * n
            assert MGU2Params.init(m, n, rng).n_parameters == mgu2_param_count(m, n) \
                == 2 * m * m + m * n
            assert CubicCellParams.init(m, n, rng).n_parameters == \
                cubic_param_count(m, n) == m * m + 2 * m * n


STEPS = {
    "lstm": (LSTMParams, lstm_step),
    "gru": (GRUParams, gru_step),
    "mgu2": (MGU2Params, mgu2_step),
    "cubic": (CubicCellParams, cubic_cell_step),
}


@pytest.mark.parametrize("cell", STEPS)
def test_steps_refuse_vectors_of_the_wrong_dimension(cell):
    """x must have n entries and every state vector m (for the LSTM, h_prev
    and c_prev); lists are read as float vectors."""
    params, step = STEPS[cell]
    p = params.init(3, 2, zero=True)
    states = [[0.0] * 3] * (2 if cell == "lstm" else 1)
    step(p, [0.0] * 2, *states)
    for k in range(1 + len(states)):
        args = [[0.0] * 2] + states
        args[k] = args[k] + [0.0]
        with pytest.raises(ArchitectureError, match=f"^{step.__name__} dimension mismatch$"):
            step(p, *args)
        args[k] = np.zeros((1, len(args[k]) - 1))
        with pytest.raises(ArchitectureError):
            step(p, *args)


def test_gru_saturated_gate_reduces_to_tanh_update():
    m, n = 2, 2
    p = GRUParams.init(m, n, zero=True)
    p.U_z += 1e3 * np.eye(m)            # sigma_z ~ 1 for positive h
    p.W_x += np.array([[0.3, -0.2], [0.1, 0.4]])
    h_prev = np.array([5.0, 5.0])
    x = np.array([0.5, -0.5])
    got = gru_step(p, x, h_prev)
    want = np.tanh(p.W_x @ x + p.U_x @ (0.5 * h_prev))  # sigma_r = 1/2 (zero weights)
    assert np.allclose(got, want, atol=1e-6)


def test_mgu2_gate_ignores_input():
    rng = random.Random(3)
    p = MGU2Params.init(2, 3, rng)
    h_prev = np.array([0.2, -0.4])
    a = mgu2_step(p, np.zeros(3), h_prev)
    p2 = MGU2Params(2, 3, p.U_z, np.zeros_like(p.W_x), p.U_x)
    b = mgu2_step(p2, np.array([5.0, -2.0, 1.0]), h_prev)
    # gate value is the same; only the candidate's W x term differs
    sig = 1.0 / (1.0 + np.exp(-(p.U_z @ h_prev)))
    assert np.allclose(a, (1 - sig) * h_prev + sig * np.tanh(p.U_x @ (sig * h_prev)))
    assert np.allclose(b, (1 - sig) * h_prev + sig * np.tanh(p2.U_x @ (sig * h_prev)))


def test_cubic_cell_identity_regime_is_cube():
    p = CubicCellParams.init(2, 1, zero=True, activation="identity")
    p.alpha += np.eye(2)
    h_prev = np.array([0.5, -1.25])
    out = cubic_cell_step(p, np.zeros(1), h_prev)
    assert np.allclose(out, h_prev ** 3)


def test_cubic_cell_degree_three_on_lines():
    rng = random.Random(11)
    for _ in range(5):
        p = CubicCellParams.init(2, 2, rng)
        x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        base = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)])
        direction = np.array([rng.uniform(0.5, 1.0), rng.uniform(-1.0, -0.5)])
        ts = np.linspace(-0.4, 0.4, 9)
        ys = [cubic_cell_step(p, x, base + t * direction)[0] for t in ts]
        # in sigma space the coordinate map is literally z^3 + u z + v
        s0 = 1.0 / (1.0 + np.exp(-np.array([p.alpha[0] @ (base + t * direction) for t in ts])))
        u = np.tanh(p.U @ x)[0]
        v = np.tanh(p.V @ x)[0]
        fit = np.polyfit(s0, ys, 3)
        assert abs(fit[0] - 1.0) < 1e-6 and abs(fit[1]) < 1e-6 \
            and abs(fit[2] - u) < 1e-6 and abs(fit[3] - v) < 1e-6
        assert abs(fit[0]) > 1e-9  # genuinely degree three


# -- cusp -------------------------------------------------------------------------

def test_discriminant_classification():
    assert discriminant(0.0, 0.0)[0] == "boundary"
    assert discriminant(-1.0, 0.0)[0] == "three_real_roots"
    assert discriminant(-3.0, 2.0)[0] == "boundary"
    assert discriminant(1.0, 1.0)[0] == "one_real_root"


def test_cubic_roots_examples():
    assert cubic_roots(-1.0, 0.0) == pytest.approx([-1.0, 0.0, 1.0])
    assert cubic_roots(0.0, 1.0) == pytest.approx([-1.0])
    assert cubic_roots(-3.0, 2.0) == pytest.approx([-2.0, 1.0, 1.0])
    assert cubic_roots(0.0, 0.0) == [0.0, 0.0, 0.0]


def test_cubic_roots_residuals_and_count_agreement():
    rng = random.Random(8)
    for _ in range(2000):
        u = rng.uniform(-3, 3)
        v = rng.uniform(-3, 3)
        kind, delta = discriminant(u, v)
        roots = cubic_roots(u, v)
        for z in roots:
            assert cubic_residual(z, u, v) <= 1e-10
        if abs(delta) > 1e-9:
            assert len(roots) == (3 if kind == "three_real_roots" else 1)


def test_cusp_scan_rows():
    rows = cusp_scan(grid=5)
    assert len(rows) == 25
    for u, v, delta, count in rows:
        assert count in (1, 3)
        assert (delta < 0) == (count == 3) or abs(delta) <= 1e-9


# -- braid -----------------------------------------------------------------------

def test_braid_relation_and_center():
    report = braid_relation_check(default_braid_rep())
    assert report.relation_holds
    assert report.lhs == ((0, 1), (-1, 0))
    assert report.center_kind == "minus_identity"
    sixth = report.center_cube
    from sheafnet.dynamics import _mul2

    assert _mul2(sixth, sixth) == ((1, 0), (0, 1))  # (s1 s2)^6 = identity


def test_braid_degenerate_rep_fails():
    rep = BraidRep.of(((1, 1), (0, 1)), ((1, 0), (0, 1)))
    report = braid_relation_check(rep)
    assert not report.relation_holds


def test_braid_determinant_validated():
    with pytest.raises(ArchitectureError):
        BraidRep.of(((2, 0), (0, 1)), ((1, 0), (0, 1)))
