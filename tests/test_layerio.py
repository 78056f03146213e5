"""The artifact files: their bytes are pinned, no other module of the
package spells a layer tensor name, and none but `layerio` imports from
`mft` or binds the MFT reader or writer."""

import ast
import hashlib
import inspect
from pathlib import Path

import moeforge
from moeforge import layerio
from moeforge.dense_ffn import DenseFfn
from moeforge.importance import synthetic_importance
from moeforge.moe import assemble_moe
from moeforge.partition import split_sharing_inter
from moeforge.tensor import Rng

PACKAGE = Path(moeforge.__file__).parent


def test_layer_and_partition_bytes_are_pinned(tmp_path):
    # a seeded sharing_inter split with a residual block and a random gate
    ffn = DenseFfn.random(8, 32, Rng(12))
    part = split_sharing_inter(synthetic_importance(ffn, 4, 12, 64), 8, 0.5)
    assert len(part.shared_residual) == 9
    layer, partition = tmp_path / "layer.mft", tmp_path / "partition.json"
    layerio.write_split(str(partition), str(layer), part,
                        assemble_moe(ffn, part, k=2, gate_init="random", seed=12))
    assert hashlib.sha256(layer.read_bytes()).hexdigest() == (
        "740ca1b5bc1601f8b3a10376d85111b43a2ab6bf2743960531893724f3e73af8")
    assert hashlib.sha256(partition.read_bytes()).hexdigest() == (
        "12def700ea57ace71a69182efb6dd21ed1e4c9191ca5ebb9301c75d12a81b44e")


def test_public_functions():
    public = sorted(
        name for name, fn in vars(layerio).items()
        if inspect.isfunction(fn) and fn.__module__ == layerio.__name__ and name[0] != "_"
    )
    assert public == ["read_ffn", "read_layer", "write_layer", "write_split"]


def test_only_layerio_spells_layer_tensor_names():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "layerio.py":
            continue
        found += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith(("gate.", "expert.", "residual."))
        ]
    assert not found, found


def imports_mft(node: ast.AST) -> bool:
    """`from .mft import ...`, `from . import mft` or `import moeforge.mft`."""
    if isinstance(node, ast.ImportFrom):
        return node.module in ("mft", "moeforge.mft") or any(
            alias.name == "mft" for alias in node.names)
    return isinstance(node, ast.Import) and any(
        alias.name == "moeforge.mft" for alias in node.names)


def test_only_mft_and_layerio_bind_the_mft_functions():
    # every other module reads and writes the artifact files through layerio,
    # and needs nothing else from mft: MftError is a ValueError
    mft_io = ("read_mft", "write_mft")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("mft.py", "layerio.py"):
            continue
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.alias) and node.name in mft_io
            or isinstance(node, ast.Attribute) and node.attr in mft_io
            or imports_mft(node)
        ]
    assert not found, found
