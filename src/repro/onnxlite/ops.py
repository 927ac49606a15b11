"""Operator kernels for onnxlite graphs.

Each kernel is a pure function ``(inputs: list[np.ndarray], attrs:
dict) -> np.ndarray`` registered in ``KERNELS`` by op_type. The set
mirrors the slice of ONNX needed by the paper's translated models:
tree traversal (Gather/GatherElements/LessOrEqual/Where/ReduceSum),
linear models (MatMul/Add/Sigmoid), MLPs (Gemm/Relu), featurizers
(OneHot/Concat/Sub/Div), output shaping (Reshape/Transpose/Identity)
and output heads (ArgMax/Greater): exactly the ops that
``onnxlite.convert`` emits.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.miniml.linear import sigmoid

Kernel = Callable[[list[np.ndarray], dict], np.ndarray]

KERNELS: dict[str, Kernel] = {}


def register(op_type: str) -> Callable[[Kernel], Kernel]:
    def deco(fn: Kernel) -> Kernel:
        KERNELS[op_type] = fn
        return fn

    return deco


@register("MatMul")
def _matmul(ins, attrs):
    return ins[0] @ ins[1]


@register("Gemm")
def _gemm(ins, attrs):
    # Y = X @ W + b (no transpose attrs needed for our converters)
    return ins[0] @ ins[1] + ins[2]


@register("Add")
def _add(ins, attrs):
    return ins[0] + ins[1]


@register("Sub")
def _sub(ins, attrs):
    return ins[0] - ins[1]


@register("Div")
def _div(ins, attrs):
    return ins[0] / ins[1]


@register("Relu")
def _relu(ins, attrs):
    return np.maximum(ins[0], 0.0)


@register("Sigmoid")
def _sigmoid(ins, attrs):
    return sigmoid(ins[0])


@register("LessOrEqual")
def _lesseq(ins, attrs):
    return ins[0] <= ins[1]


@register("Greater")
def _greater(ins, attrs):
    return ins[0] > ins[1]


@register("Where")
def _where(ins, attrs):
    return np.where(ins[0], ins[1], ins[2])


@register("Concat")
def _concat(ins, attrs):
    return np.concatenate(ins, axis=attrs.get("axis", -1))


@register("Reshape")
def _reshape(ins, attrs):
    return ins[0].reshape(attrs["shape"])


@register("Transpose")
def _transpose(ins, attrs):
    return np.transpose(ins[0], attrs.get("perm"))


@register("Gather")
def _gather(ins, attrs):
    # take rows of ins[0] indexed by ins[1] along axis (default 0)
    return np.take(ins[0], ins[1].astype(np.int64, copy=False), axis=attrs.get("axis", 0))


@register("GatherElements")
def _gather_elements(ins, attrs):
    # out[i][j] = data[i][idx[i][j]] for axis=1 (ONNX GatherElements);
    # the output has the shape of the indices
    return np.take_along_axis(
        ins[0], ins[1].astype(np.int64, copy=False), axis=attrs.get("axis", 0)
    )


@register("OneHot")
def _onehot(ins, attrs):
    """Integer codes (B,) -> dense one-hot (B, depth); negative codes
    (unseen categories) produce an all-zero row."""
    codes = ins[0].astype(np.int64)
    depth = int(attrs["depth"])
    out = np.zeros((len(codes), depth))
    valid = (codes >= 0) & (codes < depth)
    out[np.nonzero(valid)[0], codes[valid]] = 1.0
    return out


@register("ArgMax")
def _argmax(ins, attrs):
    return np.argmax(ins[0], axis=attrs.get("axis", 0))


@register("ReduceSum")
def _reducesum(ins, attrs):
    return ins[0].sum(axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False))


@register("Identity")
def _identity(ins, attrs):
    return ins[0]
