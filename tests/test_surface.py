"""Surface checks over the source tree: every option has a caller, every
annotation resolves, and the dimension is read from the data."""

import ast
import importlib
import inspect
import pkgutil
import re
import typing
from pathlib import Path

import potkit

ROOT = Path(__file__).resolve().parents[1]
TREES = (Path(potkit.__file__).parent, ROOT / "tests", ROOT / "perfbench")

# defaulted parameters that stay although no call sets them: the tolerance
# `--tol-scale` scales and the seeded probe stream are part of the contract
# every check shares, so these two keep them settable like their siblings
NEVER_SET_ALLOWED = {
    ("lower_bound_check", "tol"),
    ("lower_bound_check", "seed"),
}


def _signature(fn: ast.FunctionDef, method: bool):
    """(call-order positional names, names with a default) of a def."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    if method and "staticmethod" not in [ast.unparse(d) for d in fn.decorator_list]:
        positional = positional[1:]  # self or cls
    return positional, defaulted


def _record_fields(cls: ast.ClassDef):
    """(field names, defaulted field names) of a dataclass or NamedTuple body."""
    def deco_name(d):
        d = d.func if isinstance(d, ast.Call) else d
        return d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")

    record = any(deco_name(d) == "dataclass" for d in cls.decorator_list) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)
    if not record:
        return None
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
              and isinstance(s.target, ast.Name) and "ClassVar" not in ast.unparse(s.annotation)]
    return [f.target.id for f in fields], [f.target.id for f in fields if f.value is not None]


def _definitions(tree: ast.Module):
    """{callee name: [(qualified name, positional names, defaulted names)]}."""
    defs = {}

    def add(key, qual, positional, defaulted):
        defs.setdefault(key, []).append((qual, positional, defaulted))

    def visit(node, owner=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                record = _record_fields(child)
                if record:
                    add(child.name, child.name, *record)
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{owner.name}.{child.name}" if owner else child.name
                sig = _signature(child, owner is not None)
                # Cls(...) reaches Cls.__init__
                add(owner.name if child.name == "__init__" else child.name, qual, *sig)
                visit(child)
            else:
                visit(child, owner)

    visit(tree)
    return defs


def _calls(tree: ast.Module):
    """(callee names, positional args, keywords) of every call.

    Cls(...) and Cls.__init__(self, ...) name Cls, super().__init__(...) names
    the bases of the class it sits in.
    """
    def visit(node, bases=()):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, [b.id for b in child.bases if isinstance(b, ast.Name)])
                continue
            if isinstance(child, ast.Call):
                f, args = child.func, child.args
                if isinstance(f, ast.Name):
                    yield [f.id], args, child.keywords
                elif isinstance(f, ast.Attribute) and f.attr == "__init__":
                    if isinstance(f.value, ast.Name):
                        yield [f.value.id], args[1:], child.keywords
                    elif ast.unparse(f.value) == "super()":
                        yield bases, args, child.keywords
                elif isinstance(f, ast.Attribute):
                    yield [f.attr], args, child.keywords
            yield from visit(child, bases)

    return visit(tree)


def _unset_options(trees):
    """Defaulted parameters of potkit definitions that no call in `trees` passes.

    Calls match definitions by name only.  Positional arguments set the
    leading parameters, keywords set their own, and a call with *args or
    **kwargs sets every parameter of every definition it can name.
    """
    defs = {}
    for p in sorted(TREES[0].glob("*.py")):
        for key, found in _definitions(ast.parse(p.read_text())).items():
            defs.setdefault(key, []).extend((p.stem,) + f for f in found)
    passed = set()
    for tree in (ast.parse(p.read_text()) for t in trees for p in sorted(t.rglob("*.py"))):
        for names, args, keywords in _calls(tree):
            found = [f for name in names for f in defs.get(name, ())]
            spread = (any(isinstance(a, ast.Starred) for a in args)
                      or any(k.arg is None for k in keywords))
            for module, qual, positional, defaulted in found:
                if spread:
                    passed.update((module, qual, p) for p in positional + defaulted)
                    continue
                passed.update((module, qual, p) for p in positional[:len(args)])
                passed.update((module, qual, k.arg) for k in keywords)
    missing = set()
    for found in defs.values():
        for module, qual, _, defaulted in found:
            for p in defaulted:
                if ((module, qual, p) not in passed
                        and (qual.rsplit(".", 1)[-1], p) not in NEVER_SET_ALLOWED):
                    missing.add(f"{module}.{qual}({p})")
    return missing


def never_set_options():
    """Defaulted parameters of potkit definitions that no call in the tree passes."""
    return sorted(_unset_options(TREES))


def options_set_only_by_tests():
    """Defaulted parameters that tests set but no potkit or perfbench call does."""
    return sorted(_unset_options((TREES[0], ROOT / "perfbench")) - _unset_options(TREES))


# defaulted parameters that only tests set: each stays a parameter because a
# test drives a path or a size through it that no preset needs; a new one
# needs a reason here, or it is a constant
TEST_ONLY_ALLOWED = {
    # the layer solve at other resolutions, and an unreachable residual that
    # runs out its sweep budget
    "fields.harmonize_layer(cells)",
    "fields.harmonize_layer(residual_target)",
    # the kernel sum split into row blocks of another size than its default
    # 2^17 kernel values (1 MiB) against the dense reference; the block must
    # stay a parameter: perfbench/spans.py reads its default by signature to
    # size the blocks of its chunk_bytes_max counter
    "potentials._chunked_kernel_sum(block)",
    # the bound for mu - delta_o, the second form of the lower bound
    "potentials.lower_bound_check(o)",
    # two-part majorants: the presets use constant ones only
    "zeros.GrowthMajorant(M_minus)",
    "zeros.GrowthMajorant(mu_minus)",
    "zeros.GrowthMajorant(mu_plus)",
    # a zero subdivisor for [ZIII]
    "zeros.check_thm_hol(subdivisor)",
    # multiplicity recovery at other windows and tolerances
    "zeros.poincare_lelong_check(rel_tol)",
    "zeros.poincare_lelong_check(window)",
}


def test_every_option_has_a_caller():
    """A default no preset, CLI path, test or benchmark overrides is a constant."""
    assert never_set_options() == []


def test_options_only_tests_set_are_listed():
    """A default only tests override is kept for a reason TEST_ONLY_ALLOWED gives."""
    assert options_set_only_by_tests() == sorted(TEST_ONLY_ALLOWED)


# public definitions that no potkit code reaches yet: paper verdicts that only
# tests run, each waiting for a preset check that runs it
UNREFERENCED_ALLOWED = {
    # acceptance criterion 2 and the lower bound for mu - delta_o
    "potentials.asymptotic_check", "potentials.lower_bound_check",
    # acceptance criterion 8
    "zeros.poincare_lelong_check",
    # the SOR layer solve
    "fields.harmonize_layer",
    # the paper's rule for the Riesz measure under inversion
    "geometry.inversion", "geometry.kelvin_transform",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of every public module-level function and class and
    every public method, static method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _references(tree: ast.Module):
    """(name, ids of the enclosing definitions) of every name and attribute read.

    An attribute of an imported module (np.maximum, math.inf) names no potkit
    definition, so it is skipped.
    """
    modules = {a.asname or a.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, inside | {id(child)})
                continue
            if isinstance(child, ast.Name):
                yield child.id, inside
            elif isinstance(child, ast.Attribute):
                root = child
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in modules):
                    yield child.attr, inside
            yield from visit(child, inside)

    return visit(tree, frozenset())


def unreferenced_definitions():
    """Public potkit definitions whose name no potkit code reads outside the
    definition itself.  Names match by name only, as calls do in the option scan."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(TREES[0].glob("*.py"))}
    refs = {}
    for tree in trees.values():
        for name, inside in _references(tree):
            refs.setdefault(name, []).append(inside)
    return sorted(f"{stem}.{qual}" for stem, tree in trees.items()
                  for qual, node in _public_definitions(tree)
                  if all(id(node) in inside
                         for inside in refs.get(qual.rsplit(".", 1)[-1], ())))


def test_every_definition_has_a_caller():
    """A public definition that only tests reach is deleted, or listed with its reason."""
    assert unreferenced_definitions() == sorted(UNREFERENCED_ALLOWED)


# the only potkit definitions that take a dimension argument: each builds its
# object from the dimension alone, so there is no point, pole or charge to read
# it from
DIMENSION_ARGUMENT_ALLOWED = {
    # quadrature rules and direction sets on the unit sphere, ball and cell
    "quadrature._unit_directions", "quadrature.sphere_rule", "quadrature.ball_rule",
    "quadrature.gauss_legendre_cell",
    # kernel constants
    "kernels.sphere_surface_area", "kernels.riesz_normalizer",
    # a measure carries its dimension, so an empty one has one too
    "measures.Measure.__init__",
    # a mollifier is a bump in R^d before it meets a charge
    "measures.Mollifier",
    # the closed-form cell averages of a grid charge
    "potentials._cell_mean",
    # the harmonic polynomials of R^d
    "balayage._harmonic_polynomial_family",
}


def test_dimension_is_read_from_the_data():
    """No kernel config, and a dimension argument only where nothing carries d."""
    configs, dimension_args = [], set()
    for p in sorted(TREES[0].glob("*.py")):
        source = p.read_text()
        configs += [f"{p.stem}: {m}" for m in re.findall(r"\bKernelConfig\b|\bkernel_order\b",
                                                          source)]
        for found in _definitions(ast.parse(source)).values():
            for qual, positional, defaulted in found:
                params = set(positional) | set(defaulted)
                if "cfg" in params:
                    configs.append(f"{p.stem}.{qual}(cfg)")
                if params & {"d", "dimension", "ndim"}:
                    dimension_args.add(f"{p.stem}.{qual}")
    assert configs == []
    assert dimension_args == DIMENSION_ARGUMENT_ALLOWED


def test_integration_takes_no_seed():
    """Every quadrature rule is closed-form, so nothing that only integrates takes a seed."""
    from potkit import balayage, duality, measures

    fns = [measures.integrate, measures.integrate_many, balayage.check_linear,
           balayage.check_affine, duality.verify_poisson_jensen]
    kinds = [cls for _, cls in inspect.getmembers(measures, inspect.isclass)
             if cls.__module__ == measures.__name__ and hasattr(cls, "discretize")]
    assert {"Atoms", "SphereUniform", "BallUniform", "GridDensity"} <= {
        cls.__name__ for cls in kinds}
    fns += [cls.discretize for cls in kinds]
    assert [fn.__qualname__ for fn in fns if "seed" in inspect.signature(fn).parameters] == []


def _absolute_imports():
    """(module stem, imported name) for every absolute import in potkit."""
    imports = []
    for p in sorted(TREES[0].glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                imports += [(p.stem, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((p.stem, node.module))
    return imports


def test_runtime_is_numpy_alone():
    """No potkit module imports scipy, and numpy is the one runtime dependency;
    scipy stays a test-only reference (the `test` extra)."""
    imports = _absolute_imports()
    assert [(m, name) for m, name in imports if name.partition(".")[0] == "scipy"] == []
    assert ("geometry", "numpy") in imports
    pyproject = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert [re.split(r"[<>=!~ ]", dep)[0] for dep in re.findall(r'"([^"]+)"', block)] == \
        ["numpy"]


def test_memory_comes_from_numpy_alone():
    """Only potkit._blas reaches a C library (OpenBLAS's thread count) through
    ctypes, and no module maps memory of its own: every array is numpy's."""
    imports = _absolute_imports()
    assert [m for m, name in imports if name == "ctypes"] == ["_blas"]
    assert [m for m, name in imports if name == "mmap"] == []



# Imports sit at the top of a module, so the import graph reads from the
# module heads.  These three stay inside a function, each for its reason.
FUNCTION_LEVEL_IMPORTS = {
    # a deliberate lazy load: processes with only small kernel sums never
    # import the fast multipole module
    "potentials._chunked_kernel_sum -> _fmm",
    # cycles: green builds its Green models on fields' ScalarField, and fields
    # builds on geometry's domains
    "fields.glue_with_green -> green",
    "geometry.kelvin_transform -> fields",
}


def test_function_level_imports_are_listed():
    """The only imports inside a function are the three listed with their reasons,
    and a measure is certified in one place: of the functions that call
    check_linear, only balayage.certify raises CertificationError."""
    imports, certifying = set(), set()
    for p in sorted(TREES[0].glob("*.py")):
        for fn in ast.walk(ast.parse(p.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(fn))
            imports.update(f"{p.stem}.{fn.name} -> {n.module or a.name}"
                           for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))
                           for a in n.names)
            calls = {ast.unparse(n.func).rsplit(".", 1)[-1]
                     for n in nodes if isinstance(n, ast.Call)}
            if {"check_linear", "CertificationError"} <= calls:
                certifying.add(f"{p.stem}.{fn.name}")
    assert imports == FUNCTION_LEVEL_IMPORTS
    assert certifying == {"balayage.certify"}


# A stack of points takes its distances from geometry._distance(pts, c), which
# is bitwise np.linalg.norm(pts - c, axis=1) at a fraction of the cost.  A single point
# keeps np.linalg.norm(x): numpy takes its dot-product path there, which
# rounds the last bit differently from the row sum (on 15,728 of 200,000
# standard-normal 2-D vectors and 21,250 of 200,000 3-D ones, seed 0), and the
# scalar tests (Ball.contains, boundary_distance) accept sampled points by
# those bits.
def test_point_stack_norms_go_through_row_norm():
    """No np.linalg.norm call in potkit passes an `axis`."""
    found = []
    for p in sorted(TREES[0].glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.norm"
                    and any(k.arg == "axis" for k in node.keywords)):
                found.append(f"{p.stem}:{node.lineno}")
    assert found == []


# Atoms that come from one array form one `Atoms` cloud, so no code builds an
# `Atom` per node.
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_no_atom_is_built_per_node():
    """No `Atom(` call in potkit sits in a loop or a comprehension."""
    found = set()
    for p in sorted(TREES[0].glob("*.py")):
        for fn in ast.walk(ast.parse(p.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for loop in (n for n in ast.walk(fn) if isinstance(n, LOOPS)):
                    if any(isinstance(n, ast.Call) and ast.unparse(n.func) == "Atom"
                           for n in ast.walk(loop)):
                        found.add(f"{p.stem}.{fn.name}")
    assert sorted(found) == []


# _distance(pts, c) subtracts c axis by axis so that no (n, d) difference is
# built; a caller handing it `a - b` would build that stack all the same.
def test_distance_takes_no_difference():
    """No `_distance` call in potkit passes a subtraction as an argument."""
    calls, found = 0, []
    for p in sorted(TREES[0].glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_distance":
                calls += 1
                if any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Sub)
                       for a in node.args):
                    found.append(f"{p.stem}:{node.lineno}")
    assert calls >= 21 and found == []


def test_every_annotation_resolves():
    """typing.get_type_hints works on every function and method potkit defines."""
    failures = []
    for info in pkgutil.iter_modules(potkit.__path__):
        module = importlib.import_module(f"potkit.{info.name}")
        for _, obj in inspect.getmembers(module):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):  # methods, static and class methods unwrapped
                members = [getattr(m, "__func__", m) for m in vars(obj).values()]
            for fn in members:
                # generated functions, such as a NamedTuple's __new__, are not checked
                if not inspect.isfunction(fn) or fn.__code__.co_filename != module.__file__:
                    continue
                try:
                    typing.get_type_hints(fn)
                except NameError as exc:
                    failures.append(f"{module.__name__}.{fn.__qualname__}: {exc}")
    assert failures == []
