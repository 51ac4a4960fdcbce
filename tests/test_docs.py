"""Documentation-coverage meta tests.

Every public module, class, and function in the library must carry a
docstring (deliverable (e): doc comments on every public item), and the
repo-level documents must exist and reference each other.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A backticked dotted path into the package, e.g. `repro.hv.mce`.
REPRO_PATH = re.compile(r"`(repro(?:\.\w+)+)`")
#: A backticked pytest id, e.g. `tests/test_mce.py::TestX::test_y`.
TEST_ID = re.compile(r"`(tests/\w+\.py)::(\w+)::(\w+)`")


def _resolves(path: str) -> bool:
    """True if *path* names an importable module or an attribute
    reachable from the longest importable prefix."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_items_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports are documented at their source
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    if mname.startswith("_") or not inspect.isfunction(member):
                        continue
                    if not (member.__doc__ and member.__doc__.strip()):
                        # Tiny accessors are self-describing; everything
                        # else needs words.
                        if len(inspect.getsource(member).splitlines()) > 6:
                            undocumented.append(f"{name}.{mname}")
        assert not undocumented, f"{module.__name__}: {undocumented}"


class TestRepoDocs:
    def test_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO_ROOT / name
            assert path.exists() and path.stat().st_size > 1000, name

    def test_readme_links_design_docs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "DESIGN.md" in readme and "EXPERIMENTS.md" in readme

    def test_design_names_the_paper(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        assert "Siloz" in design and "SOSP 2023" in design

    def test_experiments_covers_every_figure(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for artifact in (
            "Table 1",
            "Table 2",
            "Table 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "§8.3",
            "§4.1",
        ):
            assert artifact in experiments, artifact

    def test_every_bench_listed_in_readme(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for bench in (REPO_ROOT / "benchmarks").glob("bench_*.py"):
            assert bench.name in readme, bench.name

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_repro_paths_resolve(self, doc):
        # A deleted module or renamed attribute must not live on in prose.
        text = (REPO_ROOT / doc).read_text()
        missing = sorted(
            {path for path in REPRO_PATH.findall(text) if not _resolves(path)}
        )
        assert not missing, f"{doc} names unknown paths: {missing}"

    def test_cited_test_ids_exist(self):
        # EXPERIMENTS ties claims to tests by id; a renamed test must
        # take its citation with it.
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        cited = TEST_ID.findall(text)
        assert cited
        missing = []
        for path, cls, func in cited:
            tree = ast.parse((REPO_ROOT / path).read_text())
            methods = {
                item.name
                for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == cls
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            if func not in methods:
                missing.append(f"{path}::{cls}::{func}")
        assert not missing, missing
