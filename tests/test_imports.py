"""Every module of the package and its tests uses each name it imports,
every import of the package sits at module level, and every module's
``__all__`` lists exactly its public definitions."""
import ast
import importlib
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_unused_imports():
    unused = []
    for path in sorted([*ROOT.glob("src/edgediag/*.py"), *ROOT.glob("tests/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {  # names a module re-exports through __all__
            elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets) for elt in node.value.elts
        }
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_package_imports_sit_at_module_level():
    nested = []
    for path in sorted(ROOT.glob("src/edgediag/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        nested += [
            f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []


def test_all_lists_every_public_definition():
    wrong = []
    for path in sorted(ROOT.glob("src/edgediag/*.py")):
        module = importlib.import_module(f"edgediag.{path.stem}")
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        public = {
            name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        wrong += [f"{path.stem}: {name} not in __all__" for name in sorted(public - set(listed))]
        wrong += [f"{path.stem}: {name} listed but undefined" for name in listed
                  if not hasattr(module, name)]
    assert wrong == []
