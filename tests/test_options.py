"""The inventory of defaulted parameters in src/zerosum, pinned.

Each defaulted parameter is an option a caller may set. One that no
caller sets does nothing but double the configurations to test, so this
test keeps the list honest: an option added or removed anywhere in the
package fails it until the inventory below is changed with it.

An option is, read off the source with ast, a positional or
keyword-only parameter with a default, of a module-level function or of
a method of a module-level class (nested classes included). Functions
nested in other functions are local helpers, not options.
"""

import ast
from pathlib import Path

import zerosum

SOURCE = Path(zerosum.__file__).parent

OPTIONS = {
    "bounds.best_recursion:d_prov",
    "bounds.best_recursion:s_prov",
    "bounds.dk_upper_bounds:d_prov",
    "bounds.dk_upper_bounds:prev_dk",
    "bounds.dk_upper_bounds:s_prov",
    "bounds.inductive_ub:D_quot",
    "bounds.inductive_ub:ell",
    "bounds.inductive_ub:quotient_dk",
    "bounds.inductive_ub:s_quot",
    "bounds.k_times_d:d_prov",
    "bounds.kd_upper:atoms_count",
    "bounds.kd_upper:d_minus",
    "bounds.kd_upper:delta_val",
    "bounds.kd_upper:eta_val",
    "bounds.remark_ub:d_prov",
    "bounds.remark_ub:s_prov",
    "bounds.report:note",
    "bounds.step_ub:dk_prov",
    "bounds.step_ub:s_prov",
    "bounds.ub_recursion:d_prov",
    "bounds.ub_recursion:s_prov",
    "cli._respond:code",
    "cli._respond:started",
    "cli._usage_errors:also",
    "cli._usage_errors:prefix",
    "cli.main:argv",
    "factorizations.BudgetExhausted.__init__:search",
    "factorizations.enumerate_factorizations:budget",
    "factorizations.length_set:atom_cap",
    "factorizations.length_set:budget",
    "factorizations.max_disjoint_zero_sums:budget",
    "factorizations.max_length:budget",
    "factorizations.minimal_divisors:budget",
    "factorizations.minimal_divisors:max_len",
    "factorizations.successive_distance_of:budget",
    "invariants.Certificate.from_evidence:notes",
    "invariants.certify_dk:budget",
    "invariants.davenport:budget",
    "invariants.davenport_k:budget",
    "invariants.eta:budget",
    "invariants.s_le:budget",
    "invariants.stabilization:budget",
    "invariants.verify_certificate:budget",
}


def _functions(body, prefix):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, prefix + node.name + ".")


def defaulted_parameters(source=SOURCE):
    found = set()
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, fn in _functions(tree.body, path.stem + "."):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found.update("%s:%s" % (name, a.arg) for a in defaulted)
    return found


def test_option_inventory_is_pinned():
    assert len(OPTIONS) == 43
    assert defaulted_parameters() == OPTIONS


def test_detector_sees_each_kind_of_option(tmp_path):
    # the detector itself: positional, keyword-only and method defaults
    # count; required parameters, a keyword-only one without a default and
    # the parameters of nested functions do not
    (tmp_path / "probe.py").write_text(
        "def a(x, y=1, *, z=2, w): pass\n"
        "def b(p, /, q=3): pass\n"
        "class C:\n"
        "    def m(self, v=None): pass\n"
        "    class D:\n"
        "        def n(self, *, u=0): pass\n"
        "def outer(x):\n"
        "    def inner(t=1): pass\n"
        "lam = lambda s=1: s\n",
        encoding="utf-8",
    )
    assert defaulted_parameters(tmp_path) == {
        "probe.a:y", "probe.a:z", "probe.b:q", "probe.C.m:v", "probe.C.D.n:u",
    }


def test_only_the_cli_reads_a_clock():
    # a sweep record carries no time; only `zs --timing` measures one
    importers = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {node.module}
            else:
                continue
            if "time" in modules:
                importers.add(path.stem)
    assert importers == {"cli"}
