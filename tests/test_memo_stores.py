"""The inventory of module-level memo stores in src/zerosum, pinned.

ROADMAP item 15 plans to move every process-level memo into one query
context. This test keeps that list honest: a store added or removed
anywhere in the package fails it until the inventory below (and the
ROADMAP's list) is changed with it.

A module-level memo store is, read off the source with ast:
- a module-level function decorated with lru_cache, cache or _memoized;
- a module-level name bound to a call of one of those, or of _Memo;
- a module-level name bound to an empty dict, set or list, or to a call
  of dict, set, list, OrderedDict, defaultdict or WeakValueDictionary:
  a container that starts empty is filled at run time.
"""

import ast
from pathlib import Path

import zerosum

SOURCE = Path(zerosum.__file__).parent

MEMO_STORES = {
    "factorizations._MASKS",  # length masks of the factorization search, FIFO
    "gf2._UNIVERSE",  # one circuit table per rank, with its refuted set
    "groups._GROUPS",  # the shared Group per invariant-factor tuple, weak-valued
    "invariants._engine",  # the C_2^r row pipeline per rank
    "invariants._generic_rows",  # generic D_k rows per (group, budget)
    "invariants._orbit_map",  # orbit flags per (group, generators, depth)
    "invariants.davenport",
    "invariants.davenport_k",
    "invariants.s_le",
}

# filled once, at import, by the @_rule decorators; no query adds to it
REGISTRIES = {"bounds.RULES"}

CACHING_CALLS = {"lru_cache", "cache", "_memoized", "_Memo"}
EMPTY_CONTAINERS = {"dict", "set", "list", "OrderedDict", "defaultdict", "WeakValueDictionary"}


def _name(node):
    """The called name of a call chain: lru_cache(maxsize=64)(f) -> lru_cache."""
    while isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _starts_empty(value):
    if isinstance(value, (ast.Dict, ast.Set, ast.List)):
        return not (value.keys if isinstance(value, ast.Dict) else value.elts)
    return (
        isinstance(value, ast.Call)
        and _name(value) in EMPTY_CONTAINERS
        and not any(isinstance(arg, (ast.Dict, ast.List, ast.Set)) for arg in value.args)
    )


def module_level_stores(source=SOURCE):
    found = set()
    for path in sorted(source.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_name(d) in CACHING_CALLS for d in node.decorator_list):
                    found.add("%s.%s" % (module, node.name))
                continue
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _name(value) in CACHING_CALLS or _starts_empty(value):
                found.update(
                    "%s.%s" % (module, t.id) for t in targets if isinstance(t, ast.Name)
                )
    return found


def test_memo_store_inventory_is_pinned():
    assert module_level_stores() == MEMO_STORES | REGISTRIES


def test_detector_sees_each_kind_of_store(tmp_path):
    # the detector itself, on one store of each kind and one constant table
    (tmp_path / "probe.py").write_text(
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(x): return x\n"
        "@_memoized(maxsize=8)\n"
        "def b(x): return x\n"
        "c = lru_cache(maxsize=8)(len)\n"
        "d: dict = {}\n"
        "e = set()\n"
        "f = weakref.WeakValueDictionary()\n"
        "g = OrderedDict()\n"
        "TABLE = {2: 9, 3: 9}\n"
        "def plain(x): return x\n",
        encoding="utf-8",
    )
    assert module_level_stores(tmp_path) == {"probe.%s" % n for n in "abcdefg"}
