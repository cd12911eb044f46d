"""Every public function and method of the package has a caller in it.

The library is what `speccalc run` reaches: a public function that no
module of the package references is reachable only from tests, and is
either given a suite row or deleted.  The scan walks the AST of every
module and looks for references outside the `if __name__ == "__main__":`
blocks.  A module-level function counts as referenced when its name
appears as a name or an attribute; a method only when it appears as an
attribute (`obj.method`), so a local variable that happens to share a
method's name does not hide an orphan.  Names are matched by spelling,
so two methods of one name share their references.
"""

import ast
from pathlib import Path

import speccalc

PACKAGE = Path(speccalc.__file__).resolve().parent

# public names kept without a caller in the package, and why
ALLOWED = {
    "fourier_at": "direct-summation oracle of the fourier_transform tests",
    "inverse_fourier_transform": "round-trip oracle of the fourier_transform tests",
    "family_value": "README quick start and acceptance check 06",
    "scaled": "SampledFunction.scaled (acceptance check 10) and "
    "MultiplierCorpus.scaled (the c1 scaling test)",
    "find_lower_bound_constants": "the certificate search ROADMAP item 1 rewrites",
    "main": "the console entry point named in pyproject.toml",
}


def _is_main_block(node) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


def scan():
    """Public functions as {name: [(qualified name, is_method)]}, and the
    sets of names used as plain names and as attributes."""
    defined, names, attrs = {}, set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if _is_main_block(node):
                continue
            if isinstance(node, ast.ClassDef):
                members = [(f"{path.stem}.{node.name}.", item, True) for item in node.body]
            else:
                members = [(f"{path.stem}.", node, False)]
            for prefix, item, is_method in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        defined.setdefault(item.name, []).append(
                            (prefix + item.name, is_method)
                        )
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    attrs.add(sub.attr)
    return defined, names, attrs


def unreferenced():
    """Qualified names of the public functions no package code references."""
    defined, names, attrs = scan()
    return {
        qual
        for name, quals in defined.items()
        for qual, is_method in quals
        if name not in attrs and (is_method or name not in names)
    }


def test_every_public_function_has_a_package_caller():
    orphans = sorted(
        qual for qual in unreferenced() if qual.rsplit(".", 1)[1] not in ALLOWED
    )
    assert not orphans, "public functions no package code references: " + ", ".join(orphans)


def test_allowlist_names_only_uncalled_functions():
    orphans = {qual.rsplit(".", 1)[1] for qual in unreferenced()}
    stale = sorted(name for name in ALLOWED if name not in orphans)
    assert not stale, "allowlist entries that are gone or now called: " + ", ".join(stale)
