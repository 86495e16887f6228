"""Every name a rotkrein module imports is used in that module, no private
helper outlives its callers, every name an __all__ exports exists, every
function the benchmark tracer wraps exists, only the listed functions
branch on the dimension, a blade mesh takes only its dimension, radius and
resolution, no module mentions a harmonic norm, one function
conjugates the radial factors, one function factors a dense matrix, no
module uses threads, only the one-term sph_harm evaluates a spherical
harmonic by itself, only the listed 2D functions and the one-term specfun
functions call scipy's Bessel ufuncs, _radial roots and checks no energy
one by one in a loop and keeps one root routine, and the package imports from scipy only
scipy.special and scipy.linalg, so a fresh `import rotkrein.cli` loads
none of scipy.interpolate, optimize, sparse, spatial or fft.

No lint tool runs over the package, so these tests are the check.  The
package __init__ re-exports its imports and is skipped.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotkrein"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    src = "import math\nfrom os import path, sep\n\nprint(sep)\n"
    assert _unused_imports(src) == ["math (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _dead_private_names(sources: dict) -> list:
    """Module-level _names of the sources ({module: text}) that no other
    top-level statement of any of them references: a helper that outlived
    its callers.  Dunder names are exempt."""
    defined, refs = [], []
    for mod, text in sources.items():
        for i, node in enumerate(ast.parse(text).body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(mod, i, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            seen = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    seen.add(n.id)
                elif isinstance(n, ast.Attribute):
                    seen.add(n.attr)
                elif isinstance(n, ast.alias):
                    seen.add(n.name)
            refs.append((mod, i, seen))
    return sorted(f"{mod}.{name}" for mod, i, name in defined
                  if not any(name in seen for m, j, seen in refs if (m, j) != (mod, i)))


def test_finds_a_dead_private_name():
    sources = {
        "a": "_LIMIT = 3\n_A, _B = 1, 2\n\ndef _used():\n    return _LIMIT + _A\n\n"
             "def _self_only(n):\n    return _self_only(n - 1)\n\nclass _Gone:\n    pass\n",
        "b": "from a import _used\n\nprint(_used())\n",
    }
    assert _dead_private_names(sources) == ["a._B", "a._Gone", "a._self_only"]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _dead_private_names(sources) == []


def _export_problems(mod) -> list:
    """Names of mod.__all__ that are listed twice or do not resolve."""
    names = list(getattr(mod, "__all__", ()))
    twice = sorted({n for n in names if names.count(n) > 1})
    return [f"{n} (listed twice)" for n in twice] + [
        f"{n} (missing)" for n in names if not hasattr(mod, n)]


def test_finds_a_stale_export():
    mod = types.ModuleType("m")
    mod.kept = 1
    mod.__all__ = ["kept", "gone", "kept"]
    assert _export_problems(mod) == ["kept (listed twice)", "gone (missing)"]


@pytest.mark.parametrize("name", ["rotkrein"] + [f"rotkrein.{p.stem}" for p in MODULES])
def test_exports_resolve(name):
    assert _export_problems(importlib.import_module(name)) == []


def test_benchmark_tracer_names_exist():
    """perfbench/tracing.py wraps rotkrein functions by name; a refactor that
    deletes one would leave its layer silently untraced.  The file is only
    read: its LAYERS literal is parsed, nothing of it is run."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    missing = [f"{mod}.{name}" for mod, names in layers.values() for name in names
               if not callable(getattr(importlib.import_module(f"rotkrein.{mod}"), name, None))]
    assert len(layers) > 10
    assert missing == []


CHANNEL_CLASSES = {"ChannelIndex2", "ChannelIndex3"}
# Class facts that pick between two code paths, not values to compute with.
DIMENSION_FLAGS = {"capped_degrees"}


def _is_dim(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "dim") or (
        isinstance(node, ast.Attribute) and node.attr == "dim")


def _branches_on_dimension(node) -> bool:
    """A comparison of a dim with 2 or 3, isinstance on a channel class, or
    a read of a dimension flag."""
    if isinstance(node, ast.Attribute) and node.attr in DIMENSION_FLAGS:
        return True
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        consts = [c.value for s in sides for c in ast.walk(s) if isinstance(c, ast.Constant)]
        return any(map(_is_dim, sides)) and any(v in (2, 3) for v in consts)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        return any(isinstance(n, ast.Name) and n.id in CHANNEL_CLASSES
                   for n in ast.walk(node.args[1]))
    return False


def _sites(sources: dict, hit) -> list:
    """Qualified names of the functions of the sources ({module: text}) that
    hold a node for which hit(node) is true themselves (nested functions
    count apart)."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if hit(child):
                sites.add(".".join(scope))
            visit(child, scope)

    for mod, text in sources.items():
        visit(ast.parse(text), [mod])
    return sorted(sites)


def test_finds_dimension_branches():
    sources = {"a": (
        "def f(dim):\n    return 1 if dim == 2 else 0\n\n"
        "class C:\n    def g(self):\n        if self.dim != 3:\n            pass\n\n"
        "def h(ch, mesh):\n    def inner():\n        return mesh.dim in (2, 3)\n"
        "    return isinstance(ch, (int, ChannelIndex3))\n\n"
        "def k(dim, ch):\n    return dim - 2, isinstance(ch, int), dim == 4\n\n"
        "def p(cls):\n    return 1 if cls.capped_degrees else 0\n")}
    assert _sites(sources, _branches_on_dimension) == ["a.C.g", "a.f", "a.h", "a.h.inner",
                                                        "a.p"]


# Where a dimension branch may stay outside the channel classes (specfun)
# and the separable kernels (_radial): the blade meshes, free kernels and
# cells, the CLI parsing, the study defaults and the degree-tail completion
# of the kernel norms.
DIMENSION_SITES = [
    "blade.BladeMesh.__post_init__",
    "blade._assemble",
    "blade._radial_nodes",
    "blade.gamma_matrix",
    "cli._parse_point",
    "cli.cmd_gamma",
    "cli.run_study_config",
    "limits.blade_convergence_study",
    "rotframe._norm_sqs",
]


def test_dimension_branches_stay_where_they_are_allowed():
    """A ratchet: every other 2D/3D difference is a fact of the channel
    classes.  A new site fails here; a removed one is struck off the list."""
    sources = {p.stem: p.read_text() for p in MODULES if p.stem not in ("specfun", "_radial")}
    assert _sites(sources, _branches_on_dimension) == DIMENSION_SITES


def _init_fields(source: str, cls: str) -> list:
    """The fields of dataclass cls in source that its __init__ takes: every
    annotated class attribute but those declared field(init=False)."""
    node = next(n for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.ClassDef) and n.name == cls)

    def derived(value) -> bool:
        return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", True) is False
                        for k in value.keywords))

    return [a.target.id for a in node.body
            if isinstance(a, ast.AnnAssign) and not derived(a.value)]


def test_finds_init_fields():
    src = ("@dataclass\nclass M:\n    dim: int\n    a: float = 1.0\n"
           "    r: list = field(init=False)\n    w: list = field(default_factory=list)\n"
           "    n_per: int = field(init=True)\n\n    def f(self):\n        x: int = 0\n")
    assert _init_fields(src, "M") == ["dim", "a", "w", "n_per"]


def test_a_blade_mesh_is_its_dimension_radius_and_resolution():
    """A ratchet: BladeMesh takes dim, A and resolution, and derives its
    nodes, weights, cells and angles from them; a new constructor field
    fails here."""
    source = (SRC / "blade.py").read_text()
    assert _init_fields(source, "BladeMesh") == ["dim", "A", "resolution"]


# Where _radial tells the dimensions apart: the Bessel factors (order, 3D
# radial weight and its r = 0 limit) and the degree check of the kernels.
RADIAL_DIMENSION_SITES = ["_radial._factors", "_radial.separable_kernels"]


def test_radial_dimension_branches_stay_in_the_factors():
    """A ratchet: every 2D/3D difference of the radial kernels and of
    radial_apply is a fact of the factors.  A new site fails here."""
    sources = {"_radial": (SRC / "_radial.py").read_text()}
    assert _sites(sources, _branches_on_dimension) == RADIAL_DIMENSION_SITES


def _numpy_conjugate(node) -> bool:
    """A use of np.conj or np.conjugate (not a number's own conjugate())."""
    return (isinstance(node, ast.Attribute) and node.attr in ("conj", "conjugate")
            and getattr(node.value, "id", None) in ("np", "numpy"))


def test_finds_numpy_conjugates():
    sources = {"a": (
        "def f(g):\n    return np.conj(g)\n\n"
        "def g(z, out):\n    def inner():\n        numpy.conjugate(out, out=out)\n"
        "    return z.conjugate(), inner\n\n"
        "def h(a):\n    return a.conj(), np.real(a)\n")}
    assert _sites(sources, _numpy_conjugate) == ["a.f", "a.g.inner"]


def test_only_the_factors_conjugate():
    """A ratchet on g(z) = conj g(conj z): in _radial only _factors
    conjugates, the factors of every lower half-plane energy at once."""
    sources = {"_radial": (SRC / "_radial.py").read_text()}
    assert _sites(sources, _numpy_conjugate) == ["_radial._factors"]


def test_no_module_mentions_the_harmonic_norm():
    """Every channel harmonic is orthonormal (exp(i n theta)/sqrt(2 pi),
    Y_l^m), so no channel sum divides by a squared norm, and the class
    constant harmonic_norm_sq that carried the 2D 2 pi is gone for good."""
    assert [p.stem for p in SRC.glob("*.py") if "harmonic_norm_sq" in p.read_text()] == []


def _dense_solver_call(node) -> bool:
    """A linalg.solve or linalg.cond (numpy's or scipy's), or a use of lu_factor."""
    if isinstance(node, ast.Attribute) and node.attr in ("solve", "cond"):
        return getattr(node.value, "attr", None) == "linalg"
    return isinstance(node, ast.Name) and node.id == "lu_factor"


def test_finds_dense_solver_calls():
    sources = {"a": (
        "def f(M, b):\n    return np.linalg.solve(M, b), np.linalg.cond(M)\n\n"
        "def g(M):\n    return lu_factor(M), np.linalg.norm(M), scipy.linalg.solve(M, M)\n\n"
        "def h(M):\n    return np.linalg.eigvals(M)\n")}
    assert _sites(sources, _dense_solver_call) == ["a.f", "a.g"]


def test_one_dense_solver():
    """A ratchet on the one Lippmann-Schwinger solver: every dense system is
    factored once in blade._dense_solve, which checks its conditioning."""
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _sites(sources, _dense_solver_call) == ["blade._dense_solve"]


def _thread_modules(sources: dict) -> list:
    """Modules of the sources that import threading or concurrent.futures."""
    hits = set()
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n.split(".")[0] in ("threading", "concurrent") for n in names):
                hits.add(mod)
    return sorted(hits)


def test_finds_thread_modules():
    sources = {"a": "import threading\n", "b": "from concurrent.futures import Future\n",
               "c": "import concurrent.futures as cf\n", "d": "import numpy\n"}
    assert _thread_modules(sources) == ["a", "b", "c"]


def test_no_module_uses_threads():
    """Every computation runs on the calling thread: no module imports
    threading or concurrent."""
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _thread_modules(sources) == []


def _per_element_harmonic(node) -> bool:
    """A call of scipy's one-term sph_harm_y."""
    return isinstance(node, ast.Call) and (getattr(node.func, "attr", None) == "sph_harm_y"
                                           or getattr(node.func, "id", None) == "sph_harm_y")


def test_finds_per_element_harmonics():
    sources = {"a": (
        "def f(l, m):\n    return sp.sph_harm_y(l, m, 0.0, 0.0)\n\n"
        "def g(L, M, t):\n    return sp.sph_harm_y_all(L, M, t, 0.0), sph_harm_y\n\n"
        "def h(l):\n    return sph_harm_y(l, 0, 1.0, 0.0)\n")}
    assert _sites(sources, _per_element_harmonic) == ["a.f", "a.h"]


def test_per_element_harmonics_only_in_the_one_term_api():
    """A ratchet: window code reads its harmonics off sph_harm_y_all
    triangles (ChannelIndex3.harmonics); only the public one-term sph_harm
    evaluates one Y_l^m by itself."""
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _sites(sources, _per_element_harmonic) == ["specfun.sph_harm"]


BESSEL_UFUNCS = ("jv", "hankel1", "spherical_jn")


def _direct_bessel_call(node) -> bool:
    """A call of scipy's jv, hankel1 or spherical_jn by name (sp.jv(...),
    hankel1(...)); passing the ufunc on to another function is not a call."""
    return isinstance(node, ast.Call) and (getattr(node.func, "attr", None) in BESSEL_UFUNCS
                                           or getattr(node.func, "id", None) in BESSEL_UFUNCS)


def test_finds_direct_bessel_calls():
    sources = {"a": (
        "def f(nu, x):\n    return sp.jv(nu, x), apply(sp.hankel1, nu, x)\n\n"
        "def g(l, x):\n    def inner():\n        return scipy.special.spherical_jn(l, x)\n"
        "    return inner\n\n"
        "def h(x):\n    return hankel1(0, x), sp.hankel2(0, x), sp.jve(0, x)\n\n"
        "def k(f, nu, x):\n    return f(nu, x)\n")}
    assert _sites(sources, _direct_bessel_call) == ["a.f", "a.g.inner", "a.h"]


def test_bessel_calls_stay_at_their_sites():
    """A ratchet on the sites that call scipy's Bessel ufuncs: the 2D
    factors (_radial._jv and _factors), the blade's free 2D Hankel kernels
    (blade._free2_reg and _free_2d) and the one-term specfun functions.  No
    3D route is among them: its factors come from degree recurrences."""
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _sites(sources, _direct_bessel_call) == [
        "_radial._factors", "_radial._jv", "blade._free2_reg", "blade._free_2d",
        "specfun.bessel_j", "specfun.hankel1", "specfun.sph_bessel_j", "specfun.sph_hankel1"]


PER_ENERGY_CALLS = ("sqrt_upper", "require_resolvent_energy", "_root")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _per_energy_loop(node) -> bool:
    """A loop or comprehension that calls sqrt_upper,
    require_resolvent_energy or _root: one Python call per energy."""
    return isinstance(node, LOOPS) and any(
        isinstance(n, ast.Call) and (getattr(n.func, "id", None) in PER_ENERGY_CALLS
                                     or getattr(n.func, "attr", None) in PER_ENERGY_CALLS)
        for n in ast.walk(node))


def test_finds_per_energy_loops():
    sources = {"a": (
        "def f(zs):\n    return {e: _root(require_resolvent_energy(e)) for e in zs}\n\n"
        "def g(zs):\n    out = []\n    for z in zs:\n        out.append(specfun.sqrt_upper(z))\n"
        "    return out\n\n"
        "def h(z, zs):\n    w = _root(require_resolvent_energy(z))\n"
        "    return w, [abs(e) for e in zs]\n\n"
        "def k(zs):\n    while zs:\n        sqrt_upper(zs.pop())\n")}
    assert _sites(sources, _per_energy_loop) == ["a.f", "a.g", "a.k"]


def test_radial_roots_energies_in_array_passes():
    """A ratchet on _radial._roots: the energies of a kernel call are checked
    and rooted in one array pass, not one Python call per energy."""
    sources = {"_radial": (SRC / "_radial.py").read_text()}
    assert _sites(sources, _per_energy_loop) == []


def test_radial_has_one_root_routine():
    """A ratchet on the roots of the factors: _radial roots every energy in
    _roots' array pass, so it defines no one-energy _root, imports no
    sqrt_upper, and no function of it asks whether a root is an array."""
    tree = ast.parse((SRC / "_radial.py").read_text())
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    imported = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for a in n.names}
    calls = {getattr(n.func, "id", None) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert "_roots" in defined and "_root" not in defined
    assert "sqrt_upper" not in imported
    assert "isinstance" not in calls


SCIPY_ALLOWED = ("scipy.special", "scipy.linalg")
SCIPY_UNLOADED = ("scipy.interpolate", "scipy.optimize", "scipy.sparse", "scipy.spatial",
                  "scipy.fft")


def _scipy_imports(sources: dict) -> list:
    """"module: scipy.package" for each scipy package a module imports
    (import scipy.x, from scipy.x import y, from scipy import x)."""
    hits = set()
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                names = [f"scipy.{a.name}" for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits.update(f"{mod}: {'.'.join(n.split('.')[:2])}" for n in names
                        if n.split(".")[0] == "scipy")
    return sorted(hits)


def test_finds_scipy_imports():
    sources = {"a": "import scipy.special as sp\nimport numpy.linalg\n",
               "b": "from scipy.interpolate import CubicSpline\nfrom scipy import linalg\n",
               "c": "import scipy\n\ndef f():\n    from scipy.optimize._root import root\n"}
    assert _scipy_imports(sources) == [
        "a: scipy.special", "b: scipy.interpolate", "b: scipy.linalg", "c: scipy",
        "c: scipy.optimize"]


def test_scipy_imports_stay_special_and_linalg():
    """A ratchet on the import footprint: the package needs scipy.special
    and scipy.linalg only (the natural spline is _radial's own)."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert {hit.split(": ")[1] for hit in _scipy_imports(sources)} == set(SCIPY_ALLOWED)


def test_cli_import_loads_no_other_scipy_package():
    """A fresh interpreter that imports rotkrein.cli has loaded none of the
    scipy packages that the package does not use."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = ("import sys, rotkrein.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "scipy.special" in out and "scipy.linalg" in out
    assert sorted(m for m in out if m.startswith(SCIPY_UNLOADED)) == []
