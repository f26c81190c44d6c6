"""Static layering rules, read from the source with ``ast``; nothing here imports the program."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acctoken"


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports(path: Path) -> set[str]:
    """Every module, and every name taken from a module, that ``path`` imports, as absolute dotted names."""
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            source = ".".join(base + ([node.module] if node.module else []))
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
