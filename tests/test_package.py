"""The package surface: `import reglang` loads the front end only, and the
names of the analysis layers load their submodule on first access."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reglang as rl

SRC = str(Path(rl.__file__).resolve().parents[1])
LADDER = Path(__file__).resolve().parents[1] / "scripts" / "ladder.py"

# Every name `reglang/__init__.py` exported when it imported all its
# layers eagerly, by the submodule that defines it.
EXPORTS = {
    "automata": (
        "Dfa", "LabeledGraph", "Nfa", "Product", "combine", "complement", "determinize",
        "equivalent", "essential", "harmonize", "harmonize_all", "is_empty", "minimize",
        "product", "shortest_accepted", "trim",
    ),
    "counting": (
        "CountVectors", "block_count", "count_len", "count_upto", "residue_language",
        "trim_system",
    ),
    "errors": (
        "AlphabetError", "BudgetError", "ConvergenceError", "DuplicateLanguageError",
        "RegexSyntaxError", "ReglangError", "StateLimitError", "TrivialComponentError",
    ),
    "graphs": (
        "ComponentReport", "component_period", "is_primitive", "residue_period",
        "scc_decompose",
    ),
    "metrics": (
        "CesaroConfig", "DistanceResult", "cesaro_jaccard", "check_metric_axioms",
        "distance_result", "entropy_distance", "entropy_sum", "jaccard_cum_n",
        "jaccard_exact_n", "separating_bound", "separating_n",
    ),
    "regex": ("RegexAst", "compile_to_nfa", "literal_set", "parse_regex"),
    "spectral": (
        "SpectralReport", "entropies_equal", "language_entropy", "matrix_spectral_radius",
        "topological_entropy",
    ),
}
ANALYSIS = ("counting", "metrics", "spectral")


def _load(name):
    """reglang loaded afresh under the module name `name`, as the ladder
    loads a second checkout."""
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder.load(Path(SRC), name)


@pytest.fixture
def renamed():
    name = "reglang_renamed"
    yield _load(name)
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]


def test_every_exported_name_is_its_submodules_object():
    star = {}
    exec("from reglang import *", star)
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"reglang.{module}")
        assert getattr(rl, module) is star[module] is source
        for name in names:
            assert getattr(rl, name) is getattr(source, name), name
            scope = {}
            exec(f"from reglang import {name}", scope)
            assert scope[name] is star[name] is getattr(source, name), name


@pytest.mark.parametrize("access", ["attribute", "from_import"])
def test_a_package_loaded_under_another_name_resolves_each_name_on_first_access(
    access, renamed
):
    name = renamed.__name__
    loaded = {m for m in ANALYSIS if f"{name}.{m}" in sys.modules}
    assert loaded == set() and "__getattr__" in vars(renamed)
    listed = set(dir(renamed))
    assert {*EXPORTS, *(n for names in EXPORTS.values() for n in names)} <= listed
    for module, names in EXPORTS.items():
        for export in names:
            if access == "attribute":
                value = getattr(renamed, export)
            else:
                scope = {}
                exec(f"from {name} import {export}", scope)
                value = scope[export]
            assert value is getattr(sys.modules[f"{name}.{module}"], export), export
            assert export in vars(renamed)  # bound: the next access is plain
        assert getattr(renamed, module) is sys.modules[f"{name}.{module}"]
    assert renamed.CountVectors is not rl.CountVectors  # the other name's own classes
    # with every name bound, the interpreter may cache attribute loads again
    assert "__getattr__" not in vars(renamed)


def test_a_submodule_resolves_before_it_has_loaded(renamed):
    for module in ANALYSIS:
        assert f"{renamed.__name__}.{module}" not in sys.modules
    for module in ANALYSIS:
        assert getattr(renamed, module) is sys.modules[f"{renamed.__name__}.{module}"]


def test_an_unknown_name_raises_attribute_error(renamed):
    for package in (rl, renamed):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "oracle_counts")
    with pytest.raises(ImportError):
        exec(f"from {renamed.__name__} import no_such_name", {})


# Run as `python -c LOADED build pattern...` to build and harmonize the
# patterns' DFAs, or as `python -c LOADED args...` to run `reglang
# args...`; the last line of output lists the watched modules that were
# not loaded at start-up and are loaded at the end.
LOADED = """
import sys
watched = {"reglang.counting", "reglang.spectral", "reglang.metrics", "reglang.oracle",
           "fractions"} - set(sys.modules)
if sys.argv[1] == "build":
    import reglang
    reglang.harmonize_all([reglang.dfa_from_regex(p) for p in sys.argv[2:]])
    code = 0
else:
    from reglang.cli import main
    code = main(sys.argv[1:])
print(",".join(sorted(watched & set(sys.modules))))
sys.exit(code)
"""


def _loaded(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", LOADED, *args], env=env,
                         capture_output=True, text=True, check=True)
    *output, modules = run.stdout.splitlines()
    return output, set(filter(None, modules.split(",")))


@pytest.mark.parametrize(
    "args, layers",
    [
        (["build", "(a|b)*a(a|b){3}", "(a|bb)*", "a{0}b", "~"], set()),
        (["entropy", "(a|bb)*"], {"reglang.spectral"}),
        (["analyze", "(a|b)*a"], set()),
        (["analyze", "(a|b)*a", "--counts", "5"], {"reglang.counting"}),
        (["analyze", "(a|b)*a", "--verify"], {"reglang.counting", "reglang.oracle", "fractions"}),
        (["distance", "--metric", "h", "(a|b)*a", "(a|b)*b"],
         {"reglang.counting", "reglang.spectral", "reglang.metrics", "fractions"}),
    ],
)
def test_a_process_loads_only_the_layers_it_runs(args, layers):
    output, loaded = _loaded(*args)
    assert loaded == layers
    if "--verify" in args:
        assert '"verify": {"match": true, "max_length": 8}' in output[0]
