"""Every function and method of the package has a caller in it, and
every option one defaults is set by one.

The library is what `speccalc run` reaches: a function that no module of
the package references is reachable only from tests, and is either
given a suite row or deleted.  That holds for the public functions and
for the private ones (a single leading underscore) alike; only dunder
methods, which Python calls itself, are left out.  The scan walks the
AST of every module and looks for references outside the
`if __name__ == "__main__":` blocks.  A module-level function counts as
referenced when its name appears as a name or an attribute; a method
only when it appears as an attribute (`obj.method`), so a local variable
that happens to share a method's name does not hide an orphan.  Names
are matched by spelling, so two methods of one name share their
references.

The same goes one level down for options: a defaulted parameter of a
function or method, public or private (dunder methods aside), must be
passed by some call in the package, by keyword, by position, or through
`*args` or `**kwargs`, otherwise it is a setting only tests can change
and is folded into its default.  A
`**name` argument counts as passing the parameters spelled by the string
keys of the dict literals in the calling module (where such a dict is
built), and a `*` argument every positional parameter from its place on.
Calls are matched to definitions by spelling, as above.

The same goes for stored values: every dataclass field of the package,
and every attribute an `__init__` sets on `self` (OperatorFamily's),
must be read as an attribute (`obj.field`, loaded) by package code,
otherwise it is carried to no report and goes.  Fields are matched by
spelling too, so a field shares its reads with every attribute of its
name: `NormResult.value` would pass on `Row.value`'s reads alone,
and such shared names are removed by hand, not found here.

Every name the benchmark worker (`perfbench/worker.py`) traces or
reads must still resolve, so a deletion fails here and not first in a
traced benchmark run.  The README's "Library quick start" block must
run as written and print what its comments say, so a changed signature
fails here and not first in a reader's session.

V diag(f) V^{-1} has one implementation: no function but
`rbound._eig_apply_stack` unpacks an eigenbasis (assigns it to a tuple,
indexes it or star-expands it), r_l2_bound's closed form aside.  And a
family has one form, its (K, r) table, read in one place: in `rbound`
and `operators` no function but those in FORM_READERS branches on
whether a family or an operator has an eigenbasis.
Likewise A^w on the eigenvalues has one implementation: no function but
those in EIGENVALUE_LOGS calls a `log` on an operator's eigenvalues (an
expression reading an `eigenvalues` attribute, or a name bound to one),
and the dense A^w has one: no function but `operators.fractional_power`
calls `logm`.

Last, scipy stays off the import path: no module imports it at its top
level, and only the functions named in SCIPY_IMPORTERS import it, in
their bodies, so a run that reaches none of them loads numpy only.  And
no function memoizes its results with functools' cache or lru_cache: a
value computed once is shared within the loop that uses it, and a cache
that outlives the loop holds its tables to the end of the process.
"""

import ast
import contextlib
import importlib
import io
import math
from pathlib import Path

import speccalc

PACKAGE = Path(speccalc.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"

# names kept without a caller in the package, and why
ALLOWED = {
    "main": "the console entry point named in pyproject.toml",
    "matrices": "OperatorFamily's (K, n, n) stack, whose bytes perfbench/worker.py counts",
}

# the functions that may take an eigenbasis apart: the one helper that
# applies it, and r_l2_bound's closed form, which reads V's columns as
# witness eigenvectors and V's nonzero pattern, and applies nothing
EIGENBASIS_OWNERS = {
    "rbound._eig_apply_stack",
    "rbound.r_l2_bound",
}

# the functions of rbound and operators that may branch on whether a
# family or an operator has an eigenbasis, and why
FORM_READERS = {
    "rbound._table_stack": "the helper: a row through the eigenbasis, or unflattened without one",
    "rbound._eig_apply_stack": "raises NotSectorialError without an eigenbasis",
    "rbound.OperatorFamily.__init__": "checks that a row fits the form: n entries on an "
                                      "n x n eigenbasis, n^2 without one",
    "operators._samples": "a core on the eigenvalues, or by dense matrix functions",
    "rbound.r_l2_bound": "the closed form of an eigenvalue table",
}

# the functions that may take the log of an operator's eigenvalues, and why
EIGENVALUE_LOGS = {
    "operators._powers": "the (K, n) table e^{w_k log lambda_j} of the powers A^{w_k}",
}

# the one function that may call logm: the dense A^w of an operator
# without a usable eigenbasis, for one exponent or a stack of them
LOGM_CALLERS = {"operators.fractional_power"}

# the functions that may import scipy, each in its body, and why
SCIPY_IMPORTERS = {
    "special._log_quad": "quad, the identities suite's kernel-integral and contour-shift rows",
    "operators.fractional_power": "expm and logm, the dense A^gamma of a defective operator",
    "operators._samples": "expm, the family samples of a defective operator",
}

# stored values no package code reads, kept for a reason
ALLOWED_FIELDS = {
    "RBoundEstimate.witness": "the tuple and vectors tests re-evaluate to certify the lower end",
    "RangeReduction.basis": "Q of the lift Q N Q^H that carries a core result back",
    "RangeReduction.original_dim": "the dimension of that lift",
    "RangeReduction.residual": "the compression residual, which tests hold near roundoff",
}

# defaulted parameters no package call passes, kept for a reason
ALLOWED_OPTIONS = {
    "main(argv)": "the console entry point: tests pass argv, the script passes none",
}


def _is_main_block(node) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


def _top_level():
    """(module stem, node) for every top-level node outside the
    `__main__` blocks of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not _is_main_block(node):
                yield path.stem, node


def _functions(stem, node):
    """(qualified name, node) for each function or method, public or not,
    a top-level node defines."""
    if isinstance(node, ast.ClassDef):
        members = [(f"{stem}.{node.name}.", item) for item in node.body]
    else:
        members = [(f"{stem}.", node)]
    for prefix, item in members:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + item.name, item


def _option_holders(stem, node):
    """(function node, is_method) for each function or method other than
    a dunder method that a top-level node defines."""
    for _, item in _functions(stem, node):
        if not item.name.startswith("__"):
            yield item, isinstance(node, ast.ClassDef)


def scan():
    """Functions other than dunder methods as {name: [(qualified name,
    is_method)]}, and the sets of names used as plain names and as
    attributes."""
    defined, names, attrs = {}, set(), set()
    for stem, node in _top_level():
        for qual, item in _functions(stem, node):
            if not item.name.startswith("__"):
                is_method = isinstance(node, ast.ClassDef)
                defined.setdefault(item.name, []).append((qual, is_method))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
    return defined, names, attrs


def unreferenced():
    """Qualified names of the functions no package code references."""
    defined, names, attrs = scan()
    return {
        qual
        for name, quals in defined.items()
        for qual, is_method in quals
        if name not in attrs and (is_method or name not in names)
    }


def test_every_function_has_a_package_caller():
    orphans = sorted(
        qual for qual in unreferenced() if qual.rsplit(".", 1)[1] not in ALLOWED
    )
    assert not orphans, "functions no package code references: " + ", ".join(orphans)


def test_the_caller_check_covers_private_functions():
    defined, _, _ = scan()
    private = [name for name in defined if name.startswith("_")]
    assert "_eig_apply_stack" in private and "_gram_factor" in private
    assert not any(name.startswith("__") for name in defined)


def test_allowlist_names_only_uncalled_functions():
    orphans = {qual.rsplit(".", 1)[1] for qual in unreferenced()}
    stale = sorted(name for name in ALLOWED if name not in orphans)
    assert not stale, "allowlist entries that are gone or now called: " + ", ".join(stale)


def test_benchmark_names_resolve(monkeypatch):
    """Every function the benchmark worker traces, and every package name
    it reads, still exists; a deleted one would otherwise surface only in
    a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")  # reads cli.SUITES on import
    missing = [
        f"{module}.{function}"
        for module, function, _, _ in worker.TRACED
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert not missing, "traced names the package no longer has: " + ", ".join(missing)
    assert isinstance(worker.speccalc.KERNEL_BACKEND, str)
    assert worker.cli.SUITES
    assert isinstance(worker.operators.SectorialOperator, type)


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    norm, mellin, average, bracket = out.getvalue().splitlines()
    assert math.isfinite(float(norm))
    assert float(mellin) < 1e-10  # "~1e-13"
    assert abs(float(average) / math.sqrt(math.pi) - 1.0) < 0.02  # "~sqrt(pi)"
    lower, upper = map(float, bracket.split())
    assert 1.0 <= lower <= upper and abs(upper - math.sqrt(2.0)) < 1e-12


def _defaulted(fn, is_method):
    """[(parameter, index among the positional arguments of a call or
    None)] for each parameter of fn that has a default."""
    offset = int(is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    ))
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    out += [
        (a.arg, None)
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if d is not None
    ]
    return out


def _passes(call, param, index, keys) -> bool:
    """Whether call passes param; keys are the dict-literal keys of the
    calling module, the names a `**name` argument can carry."""
    if any(k.arg == param or (k.arg is None and param in keys) for k in call.keywords):
        return True
    if index is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return i <= index
    return len(call.args) > index


def unpassed_options():
    """"name(param)" for each defaulted parameter of a function or method
    (dunders aside) that no package call passes."""
    defs, calls, keys = [], [], {}
    for stem, node in _top_level():
        for item, is_method in _option_holders(stem, node):
            defs.append((item.name, _defaulted(item, is_method)))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.append((name, stem, sub))
            elif isinstance(sub, ast.Dict):
                keys.setdefault(stem, set()).update(
                    k.value
                    for k in sub.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                )
    return {
        f"{name}({param})"
        for name, options in defs
        for param, index in options
        if not any(
            c == name and _passes(call, param, index, keys.get(stem, set()))
            for c, stem, call in calls
        )
    }


def test_every_option_is_set_by_a_package_call():
    unset = sorted(unpassed_options() - set(ALLOWED_OPTIONS))
    assert not unset, "defaulted parameters no package call passes: " + ", ".join(unset)


def test_the_option_check_covers_private_functions():
    holders = {item.name for stem, node in _top_level()
               for item, _ in _option_holders(stem, node)}
    assert {"_samples", "_unit_bumps", "family_samples"} <= holders
    assert not any(name.startswith("__") for name in holders)


def test_option_allowlist_names_only_unset_options():
    stale = sorted(set(ALLOWED_OPTIONS) - unpassed_options())
    assert not stale, "option allowlist entries that are gone or now set: " + ", ".join(stale)


def _is_dataclass(node) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
        for d in node.decorator_list
    )


def _self_stores(fn):
    """Attribute names fn assigns on `self`."""
    return {
        sub.attr
        for sub in ast.walk(fn)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Store)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "self"
    }


def stored_fields():
    """"Class.name" for each dataclass field and each attribute an
    `__init__` sets on self."""
    found = set()
    for _, node in _top_level():
        if not isinstance(node, ast.ClassDef):
            continue
        names = set()
        for item in node.body:
            if _is_dataclass(node) and isinstance(item, ast.AnnAssign):
                names.add(item.target.id)
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                names |= _self_stores(item)
        found |= {f"{node.name}.{name}" for name in names}
    return found


def unread_fields():
    """The stored fields whose name no package code loads as an attribute."""
    loaded = {
        sub.attr
        for _, node in _top_level()
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return {qual for qual in stored_fields() if qual.split(".")[1] not in loaded}


def test_every_field_is_read_by_package_code():
    unread = sorted(unread_fields() - set(ALLOWED_FIELDS))
    assert not unread, "fields no package code reads: " + ", ".join(unread)


def test_the_field_check_covers_dataclasses_and_init():
    fields = stored_fields()
    assert {"NormResult.value", "Row.passed", "Row.extra", "RBoundEstimate.lower"} <= fields
    assert {"OperatorFamily.weights", "OperatorFamily.symbols"} <= fields


def test_field_allowlist_names_only_unread_fields():
    stale = sorted(set(ALLOWED_FIELDS) - unread_fields())
    assert not stale, "field allowlist entries that are gone or now read: " + ", ".join(stale)


def _is_eigenbasis(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "eigenbasis") or (
        isinstance(node, ast.Attribute) and node.attr == "eigenbasis"
    )


def _takes_apart(node) -> bool:
    if isinstance(node, ast.Assign) and _is_eigenbasis(node.value):
        return any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)
    return isinstance(node, (ast.Subscript, ast.Starred)) and _is_eigenbasis(node.value)


def eigenbasis_readers():
    """Qualified names of the functions that unpack an eigenbasis."""
    return {
        qual
        for stem, node in _top_level()
        for qual, fn in _functions(stem, node)
        if any(_takes_apart(sub) for sub in ast.walk(fn))
    }


def test_only_the_helper_takes_an_eigenbasis_apart():
    extra = sorted(eigenbasis_readers() - EIGENBASIS_OWNERS)
    assert not extra, "V diag(f) V^-1 outside _eig_apply_stack: " + ", ".join(extra)
    assert EIGENBASIS_OWNERS <= eigenbasis_readers()


# what tells a family's or an operator's form: an eigenbasis, by name or
# as an attribute, the flags and tables that stood for one, and the keys
# of a samples dict in either form
FORM_ATTRIBUTES = {"eigenbasis", "diagonalizable", "symbols", "_stack"}
FORM_KEYS = {"symbols", "matrices"}


def _reads_form(node) -> bool:
    return any(
        (isinstance(sub, ast.Name) and sub.id == "eigenbasis")
        or (isinstance(sub, ast.Attribute) and sub.attr in FORM_ATTRIBUTES)
        or (isinstance(sub, ast.Constant) and sub.value in FORM_KEYS)
        for sub in ast.walk(node)
    )


def form_branches(modules):
    """Qualified names of the functions with an if, conditional
    expression or while whose test reads a form (_reads_form), among the
    (module stem, top-level node) pairs."""
    return {
        qual
        for stem, node in modules
        for qual, fn in _functions(stem, node)
        if any(
            isinstance(sub, (ast.If, ast.IfExp, ast.While)) and _reads_form(sub.test)
            for sub in ast.walk(fn)
        )
    }


def test_only_the_helper_reads_a_family_form():
    found = form_branches((s, n) for s, n in _top_level() if s in ("rbound", "operators"))
    extra = sorted(found - set(FORM_READERS))
    assert not extra, "branches on a family's form outside FORM_READERS: " + ", ".join(extra)
    stale = sorted(set(FORM_READERS) - found)
    assert not stale, "FORM_READERS entries that read no form: " + ", ".join(stale)


def test_the_form_check_sees_every_marker():
    tree = ast.parse(
        "def a(op):\n    return 1 if op.diagonalizable else 2\n"
        "def b(sample):\n    if 'symbols' in sample:\n        return 1\n"
        "class C:\n    def c(self):\n        while self._stack is None:\n            pass\n"
        "def d(eigenbasis):\n    if eigenbasis is None:\n        return 1\n"
        "def e(family):\n    return family.symbols.shape if family.eigenbasis else 0\n"
        "def f(op):\n    return op.eigenbasis\n"
    )
    found = form_branches(("m", node) for node in tree.body)
    assert found == {"m.a", "m.b", "m.C.c", "m.d", "m.e"}


def _reads_eigenvalues(node, names) -> bool:
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr == "eigenvalues")
        or (isinstance(sub, ast.Name) and sub.id in names)
        for sub in ast.walk(node)
    )


def _eigenvalue_names(fn) -> set:
    """The names fn assigns from an expression that reads eigenvalues,
    directly or through another such name."""
    bindings = [
        (target, sub.value)
        for sub in ast.walk(fn)
        if isinstance(sub, ast.Assign)
        for target in sub.targets
    ]
    names = set()
    while True:
        more = {
            leaf.id
            for target, value in bindings
            if _reads_eigenvalues(value, names)
            for leaf in ast.walk(target)
            if isinstance(leaf, ast.Name)
        } - names
        if not more:
            return names
        names |= more


def _callee(call) -> str:
    """The name a call calls, plain or as an attribute."""
    return getattr(call.func, "attr", None) or getattr(call.func, "id", None)


def eigenvalue_log_callers():
    """Qualified names of the functions that call a `log` on eigenvalues."""
    found = set()
    for stem, node in _top_level():
        for qual, fn in _functions(stem, node):
            names = _eigenvalue_names(fn)
            if any(
                isinstance(sub, ast.Call) and _callee(sub) == "log"
                and any(_reads_eigenvalues(arg, names) for arg in sub.args)
                for sub in ast.walk(fn)
            ):
                found.add(qual)
    return found


def test_only_the_power_table_takes_logs_of_eigenvalues():
    extra = sorted(eigenvalue_log_callers() - set(EIGENVALUE_LOGS))
    assert not extra, "log of the eigenvalues outside operators._powers: " + ", ".join(extra)
    stale = sorted(set(EIGENVALUE_LOGS) - eigenvalue_log_callers())
    assert not stale, "EIGENVALUE_LOGS entries that take no log: " + ", ".join(stale)


def logm_callers(modules):
    """Qualified names of the functions that call a `logm`, by name or
    as an attribute, among the (module stem, top-level node) pairs."""
    return {
        qual
        for stem, node in modules
        for qual, fn in _functions(stem, node)
        if any(isinstance(sub, ast.Call) and _callee(sub) == "logm" for sub in ast.walk(fn))
    }


def test_only_fractional_power_takes_a_matrix_log():
    assert logm_callers(_top_level()) == LOGM_CALLERS


def test_the_logm_check_sees_both_spellings():
    tree = ast.parse(
        "import scipy.linalg\nfrom scipy.linalg import logm\n"
        "def f(a):\n    return scipy.linalg.expm(scipy.linalg.logm(a))\n"
        "class C:\n    def g(self, a):\n        return logm(a)\n"
        "def h(a):\n    return a\n"
    )
    assert logm_callers(("m", node) for node in tree.body) == {"m.f", "m.C.g"}


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return (
        isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module or "").split(".")[0] == "scipy"
    )


def scipy_importers():
    """Qualified names of the functions that import scipy, and
    "<module> (top level)" for each module that imports it outside a
    function."""
    found = set()
    for stem, node in _top_level():
        in_functions = set()
        for qual, fn in _functions(stem, node):
            for sub in ast.walk(fn):
                if _imports_scipy(sub):
                    found.add(qual)
                    in_functions.add(id(sub))
        if any(_imports_scipy(sub) and id(sub) not in in_functions for sub in ast.walk(node)):
            found.add(f"{stem} (top level)")
    return found


def test_scipy_is_imported_only_where_it_is_used():
    extra = sorted(scipy_importers() - set(SCIPY_IMPORTERS))
    assert not extra, "scipy imported outside SCIPY_IMPORTERS: " + ", ".join(extra)
    stale = sorted(set(SCIPY_IMPORTERS) - scipy_importers())
    assert not stale, "SCIPY_IMPORTERS entries that import no scipy: " + ", ".join(stale)


MEMOIZERS = {"cache", "lru_cache"}


def memoizer_uses(modules):
    """"<module>: <name>" for each functools cache or lru_cache that one
    of the (module stem, top-level node) pairs imports or reads."""
    found = set()
    for stem, node in modules:
        for sub in ast.walk(node):
            if isinstance(sub, ast.ImportFrom) and sub.module == "functools":
                found |= {f"{stem}: {a.name}" for a in sub.names if a.name in MEMOIZERS}
            elif (
                isinstance(sub, ast.Attribute)
                and sub.attr in MEMOIZERS
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "functools"
            ):
                found.add(f"{stem}: functools.{sub.attr}")
    return found


def test_no_function_memoizes_its_results():
    found = sorted(memoizer_uses(_top_level()))
    assert not found, "memoized functions: " + ", ".join(found)


def test_the_memoizer_check_sees_both_spellings():
    tree = ast.parse(
        "import functools\nfrom functools import lru_cache\n"
        "@functools.cache\ndef f(x):\n    return x\n"
    )
    found = memoizer_uses(("m", node) for node in tree.body)
    assert found == {"m: lru_cache", "m: functools.cache"}
