"""Unit tests for onnxlite kernels, graph execution, optimizer, and
serialization."""
import numpy as np
import pytest

from repro.onnxlite import Graph, InferenceSession, Node, load_graph, optimize, save_graph
from repro.onnxlite.optimizer import bind_inputs, eliminate_dead_nodes, fold_constants
from repro.onnxlite.ops import KERNELS


class TestKernels:
    @pytest.mark.parametrize(
        "op,ins,attrs,expected",
        [
            ("MatMul", [np.eye(2), np.array([[1.0, 2], [3, 4]])], {}, [[1, 2], [3, 4]]),
            ("Add", [np.array([1.0]), np.array([2.0])], {}, [3.0]),
            ("Sub", [np.array([5.0]), np.array([2.0])], {}, [3.0]),
            ("LessOrEqual", [np.array([np.nan, 1.0]), np.array([0.0, 1.0])], {}, [False, True]),
            ("Div", [np.array([8.0]), np.array([2.0])], {}, [4.0]),
            ("Div", [np.array([[2.0, 4.0]]), np.float64(2.0)], {}, [[1.0, 2.0]]),
            ("Relu", [np.array([-1.0, 2.0])], {}, [0.0, 2.0]),
            ("Reshape", [np.array([[1.0], [2.0]])], {"shape": [-1]}, [1.0, 2.0]),
            ("LessOrEqual", [np.array([2.0]), np.array([2.0])], {}, [True]),
            ("Gather", [np.eye(2), np.array([[1, 0]])], {}, [[[0.0, 1.0], [1.0, 0.0]]]),
            ("ReduceSum", [np.ones((3, 1, 2))], {"axis": 0}, [[3.0, 3.0]]),
            ("Identity", [np.array([7.0])], {}, [7.0]),
        ],
    )
    def test_simple_kernels(self, op, ins, attrs, expected):
        np.testing.assert_allclose(KERNELS[op](ins, attrs), expected)

    def test_gemm(self):
        X = np.array([[1.0, 2.0]])
        W = np.array([[1.0], [1.0]])
        b = np.array([10.0])
        np.testing.assert_allclose(KERNELS["Gemm"]([X, W, b], {}), [[13.0]])

    def test_sigmoid_stable(self):
        out = KERNELS["Sigmoid"]([np.array([-1e4, 0.0, 1e4])], {})
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_where(self):
        out = KERNELS["Where"](
            [np.array([True, False]), np.array([1.0, 1.0]), np.array([2.0, 2.0])], {}
        )
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_concat_axis1(self):
        a = np.ones((2, 1))
        b = np.zeros((2, 2))
        out = KERNELS["Concat"]([a, b], {"axis": 1})
        assert out.shape == (2, 3)

    def test_reshape(self):
        out = KERNELS["Reshape"]([np.zeros((2, 3))], {"shape": [6]})
        assert out.shape == (6,)

    def test_transpose(self):
        out = KERNELS["Transpose"]([np.zeros((2, 3))], {})
        assert out.shape == (3, 2)

    def test_gather_axis1(self):
        X = np.array([[1.0, 2.0, 3.0]])
        out = KERNELS["Gather"]([X, np.array([2, 0])], {"axis": 1})
        np.testing.assert_allclose(out, [[3.0, 1.0]])

    def test_gather_elements_axis1(self):
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        idx = np.array([[2, 0, 0, 1], [1, 1, 2, 0]])
        out = KERNELS["GatherElements"]([X, idx], {"axis": 1})
        np.testing.assert_array_equal(out, [[3, 1, 1, 2], [5, 5, 6, 4]])
        out0 = KERNELS["GatherElements"]([X, np.array([[1, 0, 1]])], {"axis": 0})
        np.testing.assert_array_equal(out0, [[4, 2, 6]])

    def test_onehot(self):
        out = KERNELS["OneHot"]([np.array([0, 2, -1])], {"depth": 3})
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 0, 0]])

    def test_reduce_sum_mean(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(KERNELS["ReduceSum"]([X], {"axis": 0}), [4.0, 6.0])
        # a mean, as the traversal graph takes it over trees: ReduceSum, then Div
        total = KERNELS["ReduceSum"]([X], {"axis": 1})
        np.testing.assert_allclose(KERNELS["Div"]([total, np.float64(2.0)], {}), [1.5, 3.5])


def _affine_graph() -> Graph:
    """y = relu(X @ W + b)"""
    return Graph(
        inputs=["X"],
        outputs=["y"],
        nodes=[
            Node("MatMul", ["X", "W"], "xw"),
            Node("Add", ["xw", "b"], "z"),
            Node("Relu", ["z"], "y"),
        ],
        initializers={"W": np.array([[1.0], [-1.0]]), "b": np.array([0.5])},
    )


class TestGraph:
    def test_run_affine(self):
        g = _affine_graph()
        out = g.run({"X": np.array([[1.0, 0.0], [0.0, 2.0]])})
        np.testing.assert_allclose(out["y"], [[1.5], [0.0]])

    def test_missing_input_raises(self):
        with pytest.raises(KeyError):
            _affine_graph().run({})

    def test_toposort_out_of_order_nodes(self):
        g = _affine_graph()
        g.nodes = list(reversed(g.nodes))
        out = g.run({"X": np.array([[1.0, 0.0]])})
        np.testing.assert_allclose(out["y"], [[1.5]])

    def test_cycle_detection(self):
        g = Graph(
            inputs=["X"],
            outputs=["a"],
            nodes=[Node("Add", ["X", "b"], "a"), Node("Add", ["a", "X"], "b")],
        )
        with pytest.raises(ValueError, match="cycle|undefined"):
            g.toposorted()

    def test_validate_duplicate_names(self):
        g = Graph(
            inputs=["X"],
            outputs=["X"],
            nodes=[Node("Identity", ["X"], "X")],
        )
        with pytest.raises(ValueError, match="duplicate"):
            g.validate()

    def test_validate_unknown_op(self):
        g = Graph(inputs=["X"], outputs=["y"], nodes=[Node("Nope", ["X"], "y")])
        with pytest.raises(ValueError, match="unknown op_type"):
            g.validate()

    def test_validate_undefined_output(self):
        g = Graph(inputs=["X"], outputs=["nope"], nodes=[])
        with pytest.raises(ValueError, match="undefined graph output"):
            g.validate()

    def test_pretty_contains_ops(self):
        assert "MatMul" in _affine_graph().pretty()


class TestOptimizer:
    def test_fold_constants(self):
        # c = a + b is computable statically; y = X + c is not
        g = Graph(
            inputs=["X"],
            outputs=["y"],
            nodes=[
                Node("Add", ["a", "b"], "c"),
                Node("Add", ["X", "c"], "y"),
            ],
            initializers={"a": np.array([1.0]), "b": np.array([2.0])},
        )
        f = fold_constants(g)
        assert f.n_ops() == 1
        np.testing.assert_allclose(f.initializers["c"], [3.0])
        np.testing.assert_allclose(f.run({"X": np.array([1.0])})["y"], [4.0])

    def test_fold_chain_to_fixpoint(self):
        g = Graph(
            inputs=["X"],
            outputs=["y"],
            nodes=[
                Node("Add", ["a", "a"], "b"),
                Node("Add", ["b", "b"], "c"),
                Node("Add", ["X", "c"], "y"),
            ],
            initializers={"a": np.array([1.0])},
        )
        f = fold_constants(g)
        assert f.n_ops() == 1
        np.testing.assert_allclose(f.initializers["c"], [4.0])

    def test_dead_node_elimination(self):
        g = Graph(
            inputs=["X", "unused_in"],
            outputs=["y"],
            nodes=[
                Node("Relu", ["X"], "y"),
                Node("Relu", ["unused_in"], "dead"),
            ],
            initializers={"never": np.array([0.0])},
        )
        e = eliminate_dead_nodes(g)
        assert e.n_ops() == 1
        assert e.inputs == ["X"]
        assert "never" not in e.initializers

    def test_bind_inputs_then_fold(self):
        g = _affine_graph()
        opt = optimize(g, bind={"X": np.array([[1.0, 0.0]])})
        # everything folds: no runtime ops remain
        assert opt.n_ops() == 0
        np.testing.assert_allclose(opt.run({})["y"], [[1.5]])

    def test_bind_unknown_input_raises(self):
        with pytest.raises(KeyError):
            bind_inputs(_affine_graph(), {"nope": np.array([0.0])})

    def test_optimize_preserves_semantics(self):
        g = _affine_graph()
        X = np.random.default_rng(0).standard_normal((8, 2))
        np.testing.assert_allclose(
            optimize(g).run({"X": X})["y"], g.run({"X": X})["y"]
        )


class TestSerializeAndSession:
    def test_roundtrip(self, tmp_path):
        g = _affine_graph()
        p = save_graph(g, str(tmp_path / "m"))
        g2 = load_graph(p)
        X = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(g2.run({"X": X})["y"], g.run({"X": X})["y"])
        assert g2.nodes[0].op_type == g.nodes[0].op_type

    def test_bad_version_raises(self, tmp_path):
        p = save_graph(_affine_graph(), str(tmp_path / "m"))
        import json, os

        meta = json.load(open(os.path.join(p, "graph.json")))
        meta["format_version"] = 99
        json.dump(meta, open(os.path.join(p, "graph.json"), "w"))
        with pytest.raises(ValueError, match="unsupported"):
            load_graph(p)

    def test_session_runs(self, tmp_path):
        p = save_graph(_affine_graph(), str(tmp_path / "m"))
        sess = InferenceSession(p)
        assert sess.input_names == ["X"]
        out = sess.run({"X": np.array([[1.0, 0.0]])})
        np.testing.assert_allclose(out["y"], [[1.5]])

    def test_session_cache_hit(self, tmp_path):
        from repro.onnxlite import clear_session_cache, get_cached_session

        clear_session_cache()
        p = save_graph(_affine_graph(), str(tmp_path / "m"))
        s1 = get_cached_session(p)
        s2 = get_cached_session(p)
        assert s1 is s2

    def test_session_cache_invalidated_on_resave(self, tmp_path):
        import os, time

        from repro.onnxlite import clear_session_cache, get_cached_session

        clear_session_cache()
        p = save_graph(_affine_graph(), str(tmp_path / "m"))
        s1 = get_cached_session(p)
        time.sleep(0.01)
        save_graph(_affine_graph(), p)
        os.utime(os.path.join(p, "graph.json"))
        s2 = get_cached_session(p)
        assert s1 is not s2
