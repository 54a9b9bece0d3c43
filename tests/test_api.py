"""The public API takes no tolerance arguments: the library reads its one
fixed `intervals.TOL`, and holds no float literal finer than it.  No function
takes a parameter it never reads, no object keeps a field nothing reads, the
gap walk has no fallback expansion factor, only the axiom front end runs the
expansion check, every function, class and method in src/ is run by a
command or by the benchmark (test oracles live in `tests/oracles.py`), and
every option has a caller in src/ or perfbench/ that sets it."""

import ast
import re
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import textwrap
from collections import Counter
from pathlib import Path

import cantorifs
from cantorifs.gapfinder import certify_cantor, find_gap, find_gap_core
from cantorifs.ifs import IFSPair
from cantorifs.intervals import TOL
from cantorifs.maps import MapSpec, Segment

REPO = Path(__file__).resolve().parents[1]

# Read by nothing in src/ or perfbench/, kept on purpose: constructors for
# library users, and `replay`, the README's way to check a certificate.
KEPT_FOR_LIBRARY_USERS = {"construct.base_pair", "gapfinder.replay", "maps.affine_spec",
                          "maps.identity_spec", "maps.symmetry_conjugate"}


def _public_callables():
    for name, obj in vars(cantorifs).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _package_functions():
    """Every function and method written in a cantorifs module (generated
    dataclass methods have no source and are left out)."""
    seen = {}
    for info in pkgutil.iter_modules(cantorifs.__path__):
        module = importlib.import_module(f"cantorifs.{info.name}")
        for obj in vars(module).values():
            members = [obj]
            if inspect.isclass(obj):
                members = list(vars(obj).values())
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                member = getattr(member, "func", member)  # cached_property
                if (inspect.isfunction(member)
                        and member.__module__.startswith("cantorifs.")
                        and member.__code__.co_filename == inspect.getfile(
                            importlib.import_module(member.__module__))):
                    seen[f"{member.__module__}.{member.__qualname__}"] = member
    return seen


def _unread_parameters(fn) -> list[str]:
    node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [a for a in names if a not in ("self", "cls") and a not in read]


def _declared_fields() -> set[str]:
    """`Class.name` for every dataclass or NamedTuple field and every
    `self.name` that `__init__` assigns, over the classes written in a
    cantorifs module."""
    out = set()
    for info in pkgutil.iter_modules(cantorifs.__path__):
        module = importlib.import_module(f"cantorifs.{info.name}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            names = ({f.name for f in dataclasses.fields(cls)}
                     if dataclasses.is_dataclass(cls) else set(getattr(cls, "_fields", ())))
            init = vars(cls).get("__init__")  # dataclass-made ones have no source
            if (inspect.isfunction(init)
                    and init.__code__.co_filename == inspect.getfile(module)):
                tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
                names |= {n.attr for n in ast.walk(tree)
                          if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                          and isinstance(n.value, ast.Name) and n.value.id == "self"}
            out |= {f"{cls.__name__}.{name}" for name in names}
    return out


def _attributes_read() -> set[str]:
    """Every attribute name loaded anywhere in src/, tests/ or perfbench/."""
    read = set()
    for root in ("src", "tests", "perfbench"):
        for path in (REPO / root).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= {n.attr for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return read


def test_no_tol_parameters():
    checked = dict(_public_callables())
    assert {"validate_class_a", "IFSPair.of", "MapSpec.inverse_eval"} <= checked.keys()
    offenders = [name for name, fn in checked.items()
                 if "tol" in inspect.signature(fn).parameters]
    assert offenders == []


def test_no_float_literal_below_the_tolerance():
    """A float literal finer than `TOL.eps_newton` is an ad-hoc tolerance:
    compare exactly or read `TOL`."""
    tiny = sorted((path.name, n.lineno, n.value)
                  for path in (REPO / "src" / "cantorifs").glob("*.py")
                  for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(n, ast.Constant) and isinstance(n.value, float)
                  and 0.0 < abs(n.value) < TOL.eps_newton)
    assert tiny == []


def test_no_except_turns_a_fault_into_a_verdict():
    """No `except` clause in src/ is bare or catches `Exception`,
    `BaseException`, `CantorIFSError` or `SpecError`, so a fault cannot pass
    for a verdict; the one in `cli.main`, which turns a fault into exit 2,
    is the exception."""
    broad = {"Exception", "BaseException", "CantorIFSError", "SpecError"}
    found = []
    for path in sorted((REPO / "src" / "cantorifs").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # ast.walk is breadth-first: the innermost function wins
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((n, fn.name) for n in ast.walk(fn))
        for h in ast.walk(tree):
            if not isinstance(h, ast.ExceptHandler):
                continue
            caught = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
            names = {getattr(c, "id", getattr(c, "attr", None)) for c in caught if c is not None}
            if h.type is None or names & broad:
                found.append(f"{path.stem}.{owner.get(h, '<module>')}")
    assert found == ["cli.main"]


def test_one_builder_of_the_order_error():
    """Only `intervals._disorder` writes the text of the SpecError for
    reversed ends: every other lo <= hi check in src/ (`Interval`, the map
    steps, the gap walk's carries) raises or holds the error it builds."""
    found = []
    for path in sorted((REPO / "src" / "cantorifs").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # ast.walk is breadth-first: the innermost function wins
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((n, fn.name) for n in ast.walk(fn))
        found += [f"{path.stem}.{owner.get(n, '<module>')}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and "interval needs lo <= hi" in n.value]
    assert found == ["intervals._disorder"]


def test_tol_is_not_a_pair_field():
    assert "tol" not in {f.name for f in dataclasses.fields(IFSPair)}


def test_no_unread_parameters():
    functions = _package_functions()
    assert {"cantorifs.axioms.check_ca", "cantorifs.construct.castrate",
            "cantorifs.maps.MapSpec.inverse_eval"} <= functions.keys()
    offenders = {name: unread for name, fn in functions.items()
                 if (unread := _unread_parameters(fn))}
    assert offenders == {}


def test_no_unread_fields():
    fields = _declared_fields()
    assert {"HolePair.h_f", "OrbitCloud.points", "ClassCBuilder.hole_ref",
            "IntervalSet.los", "EeCell.chain", "_Walked.verdicts"} <= fields
    read = _attributes_read()
    assert sorted(f for f in fields if f.rpartition(".")[2] not in read) == []


def test_map_keeps_one_table():
    """`MapSpec` builds its one table of segment facts with the map, so no
    class in `maps`, `Segment` included, keeps a lazily filled cache beside
    it."""
    classes = [cls for cls in vars(cantorifs.maps).values()
               if inspect.isclass(cls) and cls.__module__ == "cantorifs.maps"]
    assert {MapSpec, Segment} <= set(classes)
    assert [f"{cls.__name__}.{name}" for cls in classes for name, member in vars(cls).items()
            if isinstance(member, functools.cached_property)] == []


def test_no_unused_imports():
    """Each name a top-level import binds in a src/ module other than
    `__init__.py` (which re-exports) is read in that module; `from
    __future__` binds none."""
    unused = []
    for path in sorted((REPO / "src" / "cantorifs").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # `import a.b` binds `a`
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
                unused += [f"{path.stem}.{name}" for name in bound if name not in reads]
    assert unused == []


def test_gap_walk_has_no_default_mu():
    for fn in (find_gap_core, find_gap, certify_cantor):
        mu = inspect.signature(fn).parameters["mu"]
        assert mu.default is inspect.Parameter.empty, fn.__name__
        assert mu.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, fn.__name__


def test_one_expansion_front_end():
    """Only `run_axiom_checks` calls `check_ee`: every other caller reads
    the expansion verdict from the axiom report."""
    def calls_check_ee(fn) -> bool:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        return any(isinstance(n, ast.Call)
                   and "check_ee" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
                   for n in ast.walk(tree))

    callers = sorted(name for name, fn in _package_functions().items() if calls_check_ee(fn))
    assert callers == ["cantorifs.axioms.run_axiom_checks"]


def test_one_branch_table():
    """Only `axioms._oriented` reads the pair's jump sites (`ifs` defines
    them): every other use of an induced branch takes its maps, domain,
    codomain and sites from that one table."""
    def site_reads(tree: ast.AST) -> int:
        return sum(isinstance(n, ast.Attribute) and n.attr in ("jumps_F", "jumps_G")
                   for n in ast.walk(tree))

    def source(fn) -> ast.AST:
        return ast.parse(textwrap.dedent(inspect.getsource(fn)))

    functions = _package_functions()
    readers = sorted(name for name, fn in functions.items() if site_reads(source(fn)))
    assert readers == ["cantorifs.axioms._oriented"]
    # and no read outside a function body
    in_src = sum(site_reads(ast.parse(path.read_text(encoding="utf-8")))
                 for path in (REPO / "src" / "cantorifs").glob("*.py"))
    assert in_src == site_reads(source(functions["cantorifs.axioms._oriented"]))


def test_one_ladder_routine():
    """Only `IFSPair.ladder` reads the cached rungs f^n(1) and g^n(0), so
    only it grows them, and only F1 and G1 are built by the `Interval` view
    `fundamental_domain`: every other reader of a rung takes its float from
    the ladder."""
    def reads(tree: ast.AST) -> int:
        return sum(isinstance(n, ast.Attribute) and n.attr == "_ladders" for n in ast.walk(tree))

    def calls(tree: ast.AST) -> int:
        return sum(isinstance(n, ast.Call) and "fundamental_domain" in (
            getattr(n.func, "id", None), getattr(n.func, "attr", None)) for n in ast.walk(tree))

    trees = {name: ast.parse(textwrap.dedent(inspect.getsource(fn)))
             for name, fn in _package_functions().items()}
    assert sorted(name for name, tree in trees.items() if reads(tree)) == [
        "cantorifs.ifs.IFSPair.ladder"]
    assert sorted(name for name, tree in trees.items() if calls(tree)) == [
        "cantorifs.ifs.IFSPair.f1", "cantorifs.ifs.IFSPair.g1"]
    # and none outside a function body
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in (REPO / "src" / "cantorifs").glob("*.py")]
    assert (sum(map(reads, modules)), sum(map(calls, modules))) == (1, 2)


def _loads(tree: ast.AST) -> Counter:
    """Each name read in `tree`, as a Name or as an Attribute, with its count."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _library_definitions():
    """(`module.name` or `module.Class.method`, name, node) for each top-level
    function and class and each non-dunder method in src/cantorifs."""
    for path in sorted((REPO / "src" / "cantorifs").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("__"):
                        yield f"{path.stem}.{node.name}.{meth.name}", meth.name, meth


def _perfbench_reads() -> set[str]:
    """Names perfbench reads, including each part of a dotted string such as
    the tracer target "MapSpec.inverse_array"."""
    dotted = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
    read = set()
    for path in (REPO / "perfbench").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= set(_loads(tree))
        read |= {part for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)
                 and dotted.fullmatch(n.value) for part in n.value.split(".")}
    return read


def test_library_holds_only_what_runs():
    """Each definition is read in src/ (outside `__init__.py` and its own
    body) or by perfbench; test-only code belongs in `tests/oracles.py`.
    The few that only perfbench reads are pinned by name."""
    src_reads = Counter()
    for path in (REPO / "src" / "cantorifs").glob("*.py"):
        if path.name != "__init__.py":
            src_reads += _loads(ast.parse(path.read_text(encoding="utf-8")))
    bench_reads = _perfbench_reads()
    defs = list(_library_definitions())
    assert {"maps.MapSpec.inverse_array", "axioms.induced_deriv", "ifs.OrbitCloud.size",
            "gapfinder.classify"} <= {q for q, _, _ in defs}
    unread = {qual for qual, name, node in defs
              if src_reads[name] == _loads(node)[name] and name not in bench_reads}
    assert unread == KEPT_FOR_LIBRARY_USERS
    # Kept alive by perfbench's names alone; a new entry is a new shim.
    bench_only = {qual for qual, name, node in defs
                  if src_reads[name] == _loads(node)[name] and name in bench_reads}
    # `find_gap_core` is exported for library users; `find_gap` is its walk
    # with the entry pull-back, so src calls `_walk` rather than it.
    assert bench_only == {"axioms.induced_deriv", "maps.iterate",
                          "intervals.IntervalSet.difference", "gapfinder.find_gap_core"}


#: The private `gapfinder` names that `tests/oracles.py` may import.  Each
#: oracle that checks a walk rule carries its own copy of the rule; a name
#: added here shares that rule with the library, so its oracle checks the
#: code against itself.
ORACLE_SHARES: set[str] = set()

#: The private names `tests/oracles.py` imports from the other `cantorifs`
#: modules, by module: shared tools, not walk rules.
ORACLE_PRIVATE_IMPORTS = {"cantorifs.axioms": {"_inverse_orbit", "_oriented"},
                          "cantorifs.ifs": {"_dedup_sorted"}}


def test_oracles_share_only_the_pinned_private_walk_names():
    """`tests/oracles.py` imports from `cantorifs` modules by name, never a
    module (whose private names it could then reach); of those names the
    private ones are ORACLE_SHARES from `gapfinder` and
    ORACLE_PRIVATE_IMPORTS from the rest."""
    tree = ast.parse((REPO / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    modules = {path.stem for path in (REPO / "src" / "cantorifs").glob("*.py")}
    assert [a.name for n in imports for a in n.names
            if a.name.startswith("cantorifs") or a.name in modules] == []
    private: dict[str, set[str]] = {}
    for n in imports:
        if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("cantorifs"):
            private.setdefault(n.module, set()).update(
                a.name for a in n.names if a.name.startswith("_"))
    assert {"certify_by_windows", "walk_window"} <= {
        n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert private.pop("cantorifs.gapfinder") == ORACLE_SHARES
    assert {m: names for m, names in private.items() if names} == ORACLE_PRIVATE_IMPORTS


def test_every_enum_member_is_read():
    """Each member of an `Enum` in src/ is read in src/ outside its class
    body: a member nothing produces or tests for is dead."""
    reads, enums = Counter(), []
    for path in sorted((REPO / "src" / "cantorifs").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += _loads(tree)
        enums += [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
                  and any(ast.unparse(b).endswith("Enum") for b in n.bases)]
    assert {"CaseTag", "TerminalReason"} <= {e.name for e in enums}
    unread = [f"{e.name}.{t.id}" for e in enums for s in e.body if isinstance(s, ast.Assign)
              for t in s.targets if reads[t.id] == _loads(e)[t.id]]
    assert unread == []


def _defaulted_knobs():
    """(`module.function.param` or `module.Class.field`, definition, callee
    name, position) for each defaulted parameter of a top-level src function
    or method and each defaulted dataclass field.  A class is called by its
    name: `__init__` without `self`, or the dataclass fields in order.
    `ClassVar` annotations are not fields."""
    for path in sorted((REPO / "src" / "cantorifs").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            funcs = []
            if isinstance(node, ast.FunctionDef):
                funcs.append((f"{path.stem}.{node.name}", node.name, node))
            elif isinstance(node, ast.ClassDef):
                if any(ast.unparse(d).startswith(("dataclass", "dataclasses.dataclass"))
                       for d in node.decorator_list):
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                              and "ClassVar" not in ast.unparse(s.annotation)]
                    for i, s in enumerate(fields):
                        if s.value is not None:
                            yield (f"{path.stem}.{node.name}.{s.target.id}",
                                   f"{path.stem}.{node.name}", node.name, i)
                for meth in node.body:
                    if isinstance(meth, ast.FunctionDef):
                        callee = node.name if meth.name == "__init__" else meth.name
                        funcs.append((f"{path.stem}.{node.name}.{meth.name}", callee, meth))
            for qual, callee, fn in funcs:
                a = fn.args
                positional = a.posonlyargs + a.args
                if positional and positional[0].arg in ("self", "cls"):
                    positional = positional[1:]
                first_default = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first_default:], first_default):
                    yield f"{qual}.{arg.arg}", qual, callee, i
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield f"{qual}.{arg.arg}", qual, callee, None


def _calls():
    """(callee name, number of leading positional arguments, keyword names)
    for every call in src/ and perfbench/.  A `*` or `**` splat sets nothing
    the scan can name."""
    for root in ("src", "perfbench"):
        for path in (REPO / root).rglob("*.py"):
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(n, ast.Call):
                    continue
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                n_pos = next((i for i, a in enumerate(n.args) if isinstance(a, ast.Starred)),
                             len(n.args))
                yield name, n_pos, {k.arg for k in n.keywords if k.arg is not None}


def test_every_option_is_set_by_a_caller():
    """A defaulted parameter or field that no call in src/ or perfbench/
    sets is an option only tests reach: make it a constant instead.  Calls
    are matched by name, so a call to any same-named function counts."""
    set_by = {}
    for name, n_pos, keywords in _calls():
        set_by.setdefault(name, []).append((n_pos, keywords))
    knobs = list(_defaulted_knobs())
    assert {"construct.ConstructionParams.jp_width", "ifs.minimal_set_cover.seed",
            "maps.affine_spec.label"} <= {k for k, _, _, _ in knobs}
    unset = sorted(
        knob for knob, qual, callee, i in knobs
        if qual not in KEPT_FOR_LIBRARY_USERS
        and not any(knob.rpartition(".")[2] in kw or (i is not None and n_pos > i)
                    for n_pos, kw in set_by.get(callee, ())))
    assert unset == []


def test_benchmark_tracer_targets_resolve():
    """Each `_t(module, attr)` target in perfbench/metrics.py names a
    function of that module or a method defined on its class, as the
    tracer looks them up.  The benchmark's own tests are outside this suite,
    so a rename or deletion that breaks the tracer has to fail here."""
    tree = ast.parse((REPO / "perfbench" / "metrics.py").read_text(encoding="utf-8"))
    targets = [(n.args[0].value, n.args[1].value) for n in ast.walk(tree)
               if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_t"]
    assert ("ifs", "fundamental_domain") in targets and len(targets) > 30
    for module, attr in targets:
        owner = importlib.import_module(f"{cantorifs.__name__}.{module}")
        cls_name, _, name = attr.rpartition(".")
        fn = vars(getattr(owner, cls_name)).get(name) if cls_name else getattr(owner, name, None)
        assert callable(fn), f"perfbench traces {module}.{attr}, which does not resolve"
