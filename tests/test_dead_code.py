"""Every function, class and method in src/ has a use in the program.

The program is src/ and perfbench/. A definition is used when live
code names it: code at module level, anything in perfbench/, or the
body of a definition that is itself used. A package `__init__.py`
re-export is not a use, and neither is a test. So a helper that only
dead code calls is dead too, and test-only code belongs in tests/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# kept without a caller today, each for a stated reason
ALLOWED = {
    "pairwise_distance_stats": "the planned `evaluate` subcommand reports sample diversity with it",
    "assign_modes": "the planned `evaluate` subcommand reports mode coverage with it",
    "js_divergence": "the planned `evaluate` subcommand compares label histograms with it",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(nodes) -> tuple[set[str], set[str]]:
    """(bare names, attribute names and string constants) used anywhere in nodes."""
    names, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.add(node.value)
    return names, attrs


def unused_definitions() -> list[str]:
    """"path:line name" of each definition in src/ that no live code uses."""
    live_names, live_attrs = set(ALLOWED), set(ALLOWED)
    definitions = []  # (where, name, is_method, names, attrs)

    def add(refs):
        live_names.update(refs[0])
        live_attrs.update(refs[1])

    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        add(_references([ast.parse(path.read_text())]))
    for path in sorted((ROOT / "src").rglob("*.py")):
        where = path.relative_to(ROOT)
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, FUNCTIONS):
                definitions.append((f"{where}:{stmt.lineno}", stmt.name, False, *_references([stmt])))
            elif isinstance(stmt, ast.ClassDef):
                # Python itself calls the dunder methods, so they live with their class
                methods = [s for s in stmt.body if isinstance(s, FUNCTIONS) and not _is_dunder(s.name)]
                own = [s for s in stmt.body if s not in methods] + stmt.bases + stmt.keywords + stmt.decorator_list
                definitions.append((f"{where}:{stmt.lineno}", stmt.name, False, *_references(own)))
                for m in methods:
                    definitions.append((f"{where}:{m.lineno}", f"{stmt.name}.{m.name}", True, *_references([m])))
            elif not (path.name == "__init__.py" and isinstance(stmt, ast.ImportFrom)):
                add(_references([stmt]))

    # a bare name may be a local variable, so a method is used only through an attribute or a string
    unused = list(definitions)
    changed = True
    while changed:
        changed = False
        for d in list(unused):
            _, name, is_method, names, attrs = d
            short = name.rsplit(".", 1)[-1]
            if short in live_attrs or (not is_method and short in live_names):
                unused.remove(d)
                add((names, attrs))
                changed = True
    return [f"{where} {name}" for where, name, *_ in unused]


def test_every_definition_in_src_is_used():
    unused = unused_definitions()
    assert not unused, "defined in src/ but used by no live code:\n" + "\n".join(unused)


def test_every_allowed_name_is_still_defined():
    defined = set()
    for path in (ROOT / "src").rglob("*.py"):
        defined.update(n.name for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, FUNCTIONS))
    assert set(ALLOWED) <= defined


def test_every_layer_and_activation_kind_is_built_by_a_network():
    # the check above counts a registry entry as a use, so an entry no network
    # builds goes unseen there: build every network the CLI can make instead
    from mocapsynth.classifier.network import HierarchicalClassifier, HierarchicalNetSpec
    from mocapsynth.gan import N_CONDITIONS, CriticSpec, GanTrainSpec, GeneratorSpec, build_critic, build_generator
    from mocapsynth.gan.training import KINDS
    from mocapsynth.nn.layers import _LAYER_TYPES, ACTIVATIONS, Activation, Model

    models = [HierarchicalClassifier(HierarchicalNetSpec(n_classes=2))]
    for kind in KINDS:
        spec = GanTrainSpec(kind=kind)
        cond = N_CONDITIONS if spec.conditional else 0
        models += [build_generator(GeneratorSpec(cond_dim=cond, batchnorm=bn)) for bn in (False, True)]
        models.append(build_critic(CriticSpec(cond_channels=cond, head="linear" if spec.wasserstein else "sigmoid")))

    def layers(model):
        for part in model.parts().values():
            yield from layers(part) if isinstance(part, Model) else [part]

    built = [layer for model in models for layer in layers(model)]
    assert {layer.name for layer in built} == set(_LAYER_TYPES)
    assert {layer.kind for layer in built if isinstance(layer, Activation)} == set(ACTIVATIONS)
