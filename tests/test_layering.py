"""Static layering rules, read from the source with ``ast``; nothing here imports the program."""

import ast
from functools import cache
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acctoken"


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def source_of(path: Path, node: ast.ImportFrom) -> str:
    """The absolute name of the module that ``node``, in ``path``, imports from."""
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1] if node.level else []
    return ".".join(base + ([node.module] if node.module else []))


def imports(path: Path) -> set[str]:
    """Every module, and every name taken from a module, that ``path`` imports, as absolute dotted names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = source_of(path, node)
            found.add(source)
            found.update(f"{source}.{alias.name}" for alias in node.names)
    return found


def reaches(found: set[str], module: str) -> bool:
    return any(name == module or name.startswith(module + ".") for name in found)


SOURCES = sorted(PACKAGE.rglob("*.py"))


def source(relative: str) -> Path:
    return PACKAGE / relative


class TestContractLayer:
    """The contract never reads accumulator memory: it sees only its own words and the pure verifiers."""

    @pytest.mark.parametrize(
        "forbidden", ["acctoken.storage", "acctoken.erc20.client", "acctoken.accumulator.core", "acctoken.accumulator.tree"]
    )
    def test_contract_does_not_import(self, forbidden):
        assert not reaches(imports(source("erc20/contract.py")), forbidden)

    @pytest.mark.parametrize(
        "relative",
        ["erc20/contract.py", "erc20/client.py", "erc20/bundle.py", "storage.py", "accumulator/core.py", "accumulator/verify.py"],
    )
    def test_bundles_stay_bytes(self, relative):
        # a witness is its wire bytes from the trie walk to the verdict: core
        # writes them, storage serves them, a bundle entry holds them and the
        # verifiers read them in place; the parsed view is for tests
        found = imports(source(relative))
        for name in ("Witness", "encode_witness", "decode_witness"):
            assert not any(module.rsplit(".", 1)[-1] == name for module in found), (relative, name)


class TestPlanLayer:
    """The plans say which steps an op takes; ``bundle.py`` says how they travel."""

    @pytest.mark.parametrize("name", ["ProofBundle", "purpose", "is_update_purpose", "encode_bundle", "decode_bundle"])
    def test_plan_does_not_import_bundle_framing(self, name):
        found = imports(source("erc20/plan.py"))
        assert not any(module.rsplit(".", 1)[-1] == name for module in found)


def constructs(path: Path, name: str) -> bool:
    """Whether ``path`` calls ``name(...)``, by that name or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                return True
    return False


class TestOneRecordType:
    """A transaction's record is made where it happens: by the contract, or by the mapping token."""

    def test_records_are_made_by_the_tokens_alone(self):
        makers = {str(path.relative_to(PACKAGE)) for path in SOURCES if constructs(path, "TxRecord")}
        assert makers == {"erc20/contract.py", "baseline.py"}


class TestNoCollectorSettings:
    @pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(PACKAGE)))
    def test_no_module_imports_gc(self, path):
        assert not reaches(imports(path), "gc")


def test_rules_see_the_package():
    # the rules above would pass vacuously on an empty or misread tree
    assert len(SOURCES) > 20
    assert "acctoken.accumulator.verify.check_update" in imports(source("accumulator/__init__.py"))
    assert "acctoken.erc20.bundle.decode_bundle" in imports(source("erc20/contract.py"))
    assert "acctoken.erc20.bundle.OpTag" in imports(source("erc20/plan.py"))
    assert reaches(imports(source("storage.py")), "acctoken.accumulator.core")


# -- what the program runs ----------------------------------------------------------

MODULES = {module_name(path): path for path in SOURCES}


@cache
def parsed(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text(), str(MODULES[module]))


def defined(module: str) -> set[str]:
    """The public names ``module`` defines at top level."""
    names = set()
    for node in parsed(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def origin(module: str, name: str) -> tuple[str, str | None] | None:
    """Where ``name`` as bound in ``module`` comes from: ``(defining module,
    name)``, ``(submodule, None)`` for a submodule, or None outside the package."""
    if module not in MODULES:
        return None
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}", None
    if name in defined(module):
        return module, name
    for node in parsed(module).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return origin(source_of(MODULES[module], node), alias.name)
    return None


def global_loads(node: ast.AST, local: frozenset = frozenset()) -> set[str]:
    """The names ``node`` reads that a function's own arguments or
    assignments do not shadow: its reads of module-level names."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        local |= {name.id for name in ast.walk(node) if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        return {node.id}
    return set().union(*(global_loads(child, local) for child in ast.iter_child_nodes(node)))


def run_by_program() -> set[tuple[str, str]]:
    """Every ``(module, name)`` that a module of the package other than an
    ``__init__`` reads: by name in its own module, imported, or as an
    attribute of an imported module. A re-export is not a use."""
    used = set()
    for module, path in MODULES.items():
        if path.name == "__init__.py":
            continue
        modules = {}
        for node in ast.walk(parsed(module)):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    found = origin(source_of(path, node), alias.name)
                    if found and found[1] is None:
                        modules[alias.asname or alias.name] = found[0]
                    elif found:
                        used.add(found)
        used.update((module, name) for name in global_loads(parsed(module)))
        for node in ast.walk(parsed(module)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                found = origin(modules[node.value.id], node.attr)
                if found:
                    used.add(found)
    return used


#: The public names the program itself never reads, each with who needs it.
API = {
    "acctoken.accumulator.core.update": "paper API: the accumulator's update algorithm, one step as one epoch",
    "acctoken.accumulator.core.witness": "paper API: the accumulator's witness algorithm against the current memory",
    "acctoken.accumulator.tree.digest": "test checks: a node's digest recomputed from the layout this module defines",
    "acctoken.bench.workload.effective_allowances": "benchmark API: perfbench's final-state check against the oracle",
    "acctoken.bench.workload.effective_balances": "benchmark API: perfbench's final-state check against the oracle",
    "acctoken.gas.derive_base_rent": "paper rent model: the default base rent from cloud storage prices, checked by the acceptance gate",
}


class TestProgramRunsItsNames:
    """``src/`` holds what the program runs: a public top-level name is read
    by the program, or ``API`` lists it and says who needs it."""

    def test_every_public_name_is_run_or_listed(self):
        used = run_by_program()
        unused = {
            f"{module}.{name}"
            for module, path in MODULES.items()
            if path.name != "__init__.py"
            for name in defined(module)
            if (module, name) not in used
        }
        unlisted = sorted(unused - API.keys())
        assert not unlisted, f"run by nothing in src/ and not listed in API: {unlisted}"
        stale = sorted(API.keys() - unused)
        assert not stale, f"listed in API but run by src/, or gone: {stale}"
