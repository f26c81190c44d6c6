"""Static layering rules, read from the source with ``ast``; nothing here imports the program."""

import ast
import copy
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


ELEMENT_ENCODERS = {
    "balance_element",
    "allowance_element",
    "pair_element",
    "balance_column",
    "allowance_column",
    "pair_column",
}


def encodes_elements(path: Path) -> bool:
    """Whether ``path`` imports an element encoder or reads one as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.alias) and node.name in ELEMENT_ENCODERS:
            return True
        if isinstance(node, ast.Attribute) and node.attr in ELEMENT_ENCODERS:
            return True
    return False


class TestTransitionsLiveInPlans:
    """A state transition is written once, in ``erc20/plan.py``: outside the
    encoders' own module, only the plans encode the tuples an op writes, and
    the client the tuples it reads verified."""

    def test_only_plans_and_client_encode_elements(self):
        encoders = {str(path.relative_to(PACKAGE)) for path in SOURCES if encodes_elements(path)}
        assert encoders - {"erc20/elements.py"} == {"erc20/plan.py", "erc20/client.py"}


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


# -- one binding per name --------------------------------------------------------------

TESTS = Path(__file__).resolve().parent


def rebound_definitions(path: Path) -> list[str]:
    """Each ``def`` or ``class`` in ``path`` whose name its module, or its
    class, has bound by a ``def`` or ``class`` already: the later one hides
    the earlier, so pytest collects only the last test class of a name."""
    found = []
    scopes = [("", ast.parse(path.read_text(), str(path)).body)]
    for scope, body in scopes:
        seen = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    found.append(f"{scope}{node.name} (line {node.lineno})")
                seen.add(node.name)
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{scope}{node.name}.", node.body))
    return found


class TestOneDefinitionPerName:
    @pytest.mark.parametrize(
        "path", SOURCES + sorted(TESTS.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE.parent.parent))
    )
    def test_no_name_is_defined_twice(self, path):
        assert not rebound_definitions(path)

    def test_a_second_definition_is_caught(self, tmp_path):
        path = tmp_path / "twice.py"
        path.write_text("class A:\n    def f(self): ...\n    def f(self): ...\n\n\nclass A: ...\n")
        assert rebound_definitions(path) == ["A (line 6)", "A.f (line 3)"]


# -- what the program runs ----------------------------------------------------------

MODULES = {module_name(path): path for path in SOURCES}


@cache
def parsed(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text(), str(MODULES[module]))


def bindings(module: str) -> dict[str, ast.stmt]:
    """Each name ``module`` binds at top level by a definition or an
    assignment, with the statement that binds it."""
    found = {}
    for node in parsed(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = (name.id for name in ast.walk(target) if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))
                found.update((name, node) for name in names)
    return found


def origin(module: str, name: str) -> tuple[str, str | None] | None:
    """Where ``name`` as bound in ``module`` comes from: ``(defining module,
    name)``, ``(submodule, None)`` for a submodule, or None outside the package."""
    if module not in MODULES:
        return None
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}", None
    if name in bindings(module):
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


def reads(module: str, statement: ast.stmt) -> set[tuple[str, str]]:
    """Every ``(module, name)`` of the package that ``statement``, at top level
    in ``module``, reads: by name, imported inside it, or as an attribute of
    an imported module."""
    path = MODULES[module]
    modules = {}  # local name -> imported submodule
    for node in [*parsed(module).body, *ast.walk(statement)]:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                found = origin(source_of(path, node), alias.name)
                if found and found[1] is None:
                    modules[alias.asname or alias.name] = found[0]
    found = {origin(module, name) for name in global_loads(statement)}
    for node in ast.walk(statement):
        if isinstance(node, ast.ImportFrom):
            found.update(origin(source_of(path, node), alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.add(origin(modules[node.value.id], node.attr))
    return {name for name in found if name and name[1] is not None}


def public_methods(module: str) -> dict[str, ast.FunctionDef]:
    """The public methods of the classes ``module`` defines at top level, as
    ``Class.method``, each with its definition."""
    found = {}
    for node in parsed(module).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item
    return found


def without_public_methods(statement: ast.stmt) -> ast.stmt:
    """A class statement less its public methods, which are read on their
    own; any other statement as it is."""
    if not isinstance(statement, ast.ClassDef):
        return statement
    kept = copy.copy(statement)
    kept.body = [
        item
        for item in statement.body
        if not (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"))
    ]
    return kept


def attribute_names(node: ast.AST) -> set[str]:
    """The attribute names ``node`` reads; where it also looks an attribute
    up by a computed name (``getattr(system, kind)``), every string it holds
    that could be one."""
    found, strings, dispatches = set(), set(), False
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            found.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) and child.value.isidentifier():
            strings.add(child.value)
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "getattr":
            dispatches |= len(child.args) > 1 and not isinstance(child.args[1], ast.Constant)
    return found | strings if dispatches else found


ENTRY = ("", "")  # the node for what a module runs on import


def program_graph() -> tuple[dict, dict]:
    """What a module of the package other than an ``__init__`` runs on import
    (the reads of its top-level statements that bind no name, such as a
    ``__main__`` block: the edges of ``ENTRY``), what each of its top-level
    names reads, and what each public method of its classes reads, the
    method named ``(module, "Class.method")``. Returns each node's edges, and
    the attribute names each node reads. A re-export is not a use, and
    neither is an import until a read needs it."""
    edges, attributes = {ENTRY: set()}, {ENTRY: set()}
    for module, path in MODULES.items():
        if path.name == "__init__.py":
            continue
        bound = bindings(module)
        for statement in parsed(module).body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            names = [(module, name) for name, node in bound.items() if node is statement] or [ENTRY]
            own = without_public_methods(statement)
            for name in names:
                edges.setdefault(name, set()).update(reads(module, own))
                attributes.setdefault(name, set()).update(attribute_names(own))
        for name, method in public_methods(module).items():
            edges[module, name] = reads(module, method)
            attributes[module, name] = attribute_names(method)
    return edges, attributes


def class_attributes() -> dict[str, set[str]]:
    """Each class of the package, by name, with the attribute names it binds:
    its methods and properties, its class-level names (fields and
    ``__slots__`` included) and what its methods assign on ``self``."""
    found = {}
    for module in MODULES:
        for node in parsed(module).body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = found.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names.update(target.id for target in targets if isinstance(target, ast.Name))
                    if any(isinstance(target, ast.Name) and target.id == "__slots__" for target in targets):
                        names.update(ast.literal_eval(item.value))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    if getattr(sub.value, "id", None) == "self":
                        names.add(sub.attr)
    return found


def shared_names() -> set[str]:
    """The attribute names two or more classes of the package bind."""
    owners = {}
    for attrs in class_attributes().values():
        for name in attrs:
            owners[name] = owners.get(name, 0) + 1
    return {name for name, count in owners.items() if count > 1}


def reachable(roots, edges, attributes) -> set[tuple[str, str]]:
    """``roots`` and every name they read, and every name those read, to a
    fixpoint; a public method counts as read once its class is and some
    node reached reads an attribute of its name. Attributes are matched by
    name, as the program's types are not known statically, so a read of a
    name two classes bind (``shared_names``) does not say whose it is: a
    method of such a name counts only if ``SHARED`` lists its class."""
    seen, read, todo = set(), set(), list(roots)
    shared = shared_names()
    methods = set()
    for module, name in edges:
        if "." in name:
            owner, method = name.split(".")
            if method not in shared or owner in SHARED.get(method, ()):
                methods.add((module, name))
    while todo:
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                read |= attributes.get(name, set())
                todo.extend(edges.get(name, ()))
        todo = [
            (module, name)
            for module, name in methods - seen
            if (module, name.split(".")[0]) in seen and name.split(".")[1] in read
        ]
    return seen


def split_name(dotted: str) -> tuple[str, str]:
    """``(module, name)`` of a dotted name in the package; the name may be ``Class.method``."""
    module = max((module for module in MODULES if dotted.startswith(module + ".")), key=len)
    return module, dotted[len(module) + 1 :]


#: The public names, and public methods, the program itself never reads, each with who needs it.
API = {
    "acctoken.accumulator.core.update": "paper API: the accumulator's update algorithm, one step as one epoch",
    "acctoken.accumulator.core.witness": "paper API: the accumulator's witness algorithm against the current memory",
    "acctoken.bench.workload.effective_allowances": "benchmark API: perfbench's final-state check against the oracle",
    "acctoken.bench.workload.effective_balances": "benchmark API: perfbench's final-state check against the oracle",
    "acctoken.erc20.bundle.ProofBundle.purposes": "test checks: a bundle's entry purposes in order, against its plan's claims",
    "acctoken.gas.GasSchedule.scaled": "benchmark API: perfbench's growth tabulates under the flat schedule and this one",
    "acctoken.gas.derive_base_rent": "paper rent model: the default base rent from cloud storage prices, checked by the acceptance gate",
    "acctoken.storage.FaultPolicy.corrupt_bits": "fault API: the fault tests' policy for a corruption rate; configs name modes",
    "acctoken.storage.FaultPolicy.stale": "fault API: the fault tests' policy for a lag; configs name modes",
    "acctoken.storage.FaultPolicy.unavailable": "fault API: the fault tests' policy for a refusal probability; configs name modes",
}


#: The public method names that two or more classes of the package bind as
#: attributes, each with the classes whose method of that name the program
#: runs: a read of such a name does not say whose it is. A method whose
#: name another class binds too (a field, a slot, another method) is run
#: only if listed here; ``StorageNetwork.epoch``, a test-only method beside
#: the ``epoch`` of memories and batches, would not be.
SHARED = {
    "allowance": {"BaselineToken", "TokenClient", "TokenSystem"},
    "approve": {"AccTokenContract", "BaselineToken", "TokenSystem"},
    "balance_of": {"BaselineToken", "TokenClient", "TokenSystem"},
    "bootstrap": {"BaselineToken", "TokenSystem"},
    "changes": {"StorageNetwork"},
    "check_conservation": {"BaselineToken", "TokenSystem"},
    "prior": {"Announced", "_Lookups"},
    "sload": {"TxTrace", "_Untraced"},
    "spend": {"Announced", "_Lookups"},
    "sstore_new": {"TxTrace"},
    "sstore_update": {"TxTrace"},
    "state": {"TokenSystem"},
    "total_supply": {"AccTokenContract", "TokenSystem"},
    "transfer": {"AccTokenContract", "BaselineToken", "TokenSystem"},
    "transfer_from": {"AccTokenContract", "BaselineToken", "TokenSystem"},
}


def unrun_names() -> tuple[list[str], list[str]]:
    """The top-level names (public, and module-private ``_name`` ones) and
    public methods that nothing in ``src/`` runs and ``API`` does not list,
    and the ``API`` and ``SHARED`` entries that are stale: an ``API`` name
    that ``src/`` runs or that is gone, a ``SHARED`` name that fewer than two
    classes bind, or a class listed for a name it has no public method of."""
    edges, attributes = program_graph()
    run = reachable([ENTRY], edges, attributes)
    api = {split_name(name) for name in API}
    kept = reachable([ENTRY, *api], edges, attributes)
    names = {
        (module, name)
        for module, path in MODULES.items()
        if path.name != "__init__.py"
        for name in {*bindings(module), *public_methods(module)}
        if not name.startswith("__")
    }
    unlisted = sorted(".".join(name) for name in names - kept)
    stale = sorted(".".join(name) for name in api & run | api - names)
    methods = {name for module, name in names if "." in name}
    shared = shared_names()
    stale += sorted(
        f"SHARED {name}: {owner}"
        for name, owners in SHARED.items()
        for owner in owners
        if name not in shared or f"{owner}.{name}" not in methods
    )
    return unlisted, stale


class TestProgramRunsItsNames:
    """``src/`` holds what the program runs: a top-level name, public or
    module-private, and a public method of a class, is reached from what the
    program runs, or from a name ``API`` lists with who needs it. A name read
    only by names that nothing reaches is not run, so a chain of test-only
    names, or of helpers a deleted caller left behind, shows whole."""

    def test_every_public_name_is_run_or_listed(self):
        edges, _attributes = program_graph()
        assert edges[ENTRY], "nothing in src/ runs on its own: no __main__ block was read"
        unlisted, stale = unrun_names()
        assert not unlisted, f"run by nothing in src/ and not listed in API: {unlisted}"
        assert not stale, f"listed in API or SHARED but run by src/, or gone: {stale}"

    def test_methods_are_reached_through_their_class(self):
        # the rule would pass vacuously if no method were ever read
        edges, attributes = program_graph()
        run = reachable([ENTRY], edges, attributes)
        assert ("acctoken.storage", "StorageNetwork.commit") in run
        assert ("acctoken.erc20.system", "TokenSystem.transfer_from") in run  # read by ``getattr`` dispatch
        assert ("acctoken.storage", "FaultPolicy.stale") not in run

    def test_a_method_sharing_a_read_name_is_caught(self, monkeypatch):
        # plant a test-only ``StorageNetwork.epoch``: ``src/`` reads ``.epoch``
        # only on memories and batches, which is no call of it
        module = "acctoken.storage"
        tree = copy.deepcopy(parsed(module))
        (network,) = (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "StorageNetwork")
        network.body.append(ast.parse("def epoch(self, acc):\n    return self._entry(acc).memory.epoch").body[0])
        real = parsed
        monkeypatch.setitem(globals(), "parsed", lambda name: tree if name == module else real(name))
        assert "epoch" in shared_names()
        unlisted, _stale = unrun_names()
        assert unlisted == ["acctoken.storage.StorageNetwork.epoch"]
        # matched by name alone, as the rule did before, a read of ``.epoch`` hid it
        monkeypatch.setitem(SHARED, "epoch", {"StorageNetwork"})
        assert unrun_names()[0] == []

    def test_a_private_helper_nothing_reads_is_caught(self, monkeypatch):
        # plant two module-private helpers in ``tree``, one read only by the
        # other, which nothing reads: a caller deleted, its helpers left
        module = "acctoken.accumulator.tree"
        tree = copy.deepcopy(parsed(module))
        tree.body += ast.parse("def _flatten(node):\n    return _copy_node(node)\n\n\ndef _copy_node(node):\n    return _span(node, 0)\n").body
        real = parsed
        monkeypatch.setitem(globals(), "parsed", lambda name: tree if name == module else real(name))
        unlisted, _stale = unrun_names()
        assert unlisted == [f"{module}._copy_node", f"{module}._flatten"]
