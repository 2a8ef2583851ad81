"""Every definition in src/starpull has a caller, and each job there has
one home.

A module-level function or class is used when `starpull/__init__.py`
exports it or another top-level statement of the package names it; a
definition that only refers to itself is dead.  A non-dunder method is
used when code in src/, tests/ or demos/ outside its own body names it.

Each other rule pins one job to one place; its test's name states the
rule and the comment beside it says why.  The jobs: immutability
(`kernel.Frozen`), D's shape (`BaseDomain.__init__`), what T is
(`PullbackInstance.__init__` looks up `_T_KINDS`), membership
(`pullback._product_in` asks a module, `_x_order` asks a T kind, and
both decide integers), the T-part rule (`span_product_in`), memo tables
(`base_domain._memo_put`, README's memo-table sentence, no `functools`
cache), star operations (`star_ops._dpart_eval`; only `star_ops` closes
R-ideals), instance flags (derived from the inputs), `Poly`'s storage
(`kernel.py`), expression text (`exprlang._tokens`), products by X^j
(`shift`), printed terms (`kernel._terms_str`, from integers) and
scalars (coerced once, built without `fractions`).  The tests' own
strategies draw no dependent strategy: no file under tests/ calls
`.flatmap(`.

Each file is parsed once, into `_TREES`; `_find` looks a definition up
and `_FUNCTIONS` lists every function of the package with its qualname.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

from starpull.kernel import Poly
from starpull.pullback import _T_KINDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starpull"

# every file of the package and of tests/, read and parsed once: file name -> tree
_SOURCES = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
_TREES = {name: ast.parse(source) for name, source in _SOURCES.items()}
_TESTS = {path.name: ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py"))}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _find(module: str, name: str, owner: str | None = None):
    """The definition called name at the top level of a package file, or in
    its class owner; None when there is none."""
    body = _TREES[module].body if owner is None else _find(module, owner).body
    return next((node for node in body
                 if isinstance(node, (*_FUNCS, ast.ClassDef)) and node.name == name), None)


def _functions(tree, module: str):
    """(qualname, function) for every function in a tree, nested ones too:
    Class.name for a method, module.name for any other function."""
    for owner in ast.walk(tree):
        for func in ast.iter_child_nodes(owner):
            if isinstance(func, _FUNCS):
                prefix = owner.name if isinstance(owner, ast.ClassDef) else module
                yield f"{prefix}.{func.name}", func


# (file name, node) for every node, and (file name, qualname, function) for
# every function, of the package
_NODES = [(name, node) for name, tree in _TREES.items() for node in ast.walk(tree)]
_FUNCTIONS = [(name, qual, func) for name, tree in _TREES.items()
              for qual, func in _functions(tree, name.removesuffix(".py"))]


def _names(node):
    """How often each identifier is loaded or read as an attribute in a subtree."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_every_definition_has_a_caller():
    exported = {alias.asname or alias.name
                for stmt in _TREES["__init__.py"].body if isinstance(stmt, ast.ImportFrom)
                for alias in stmt.names}
    statements = [(name, i, _names(stmt))
                  for name, tree in _TREES.items() for i, stmt in enumerate(tree.body)]
    dead = [f"{name}:{stmt.lineno} {stmt.name}"
            for name, tree in _TREES.items() for i, stmt in enumerate(tree.body)
            if isinstance(stmt, (*_FUNCS, ast.ClassDef)) and stmt.name not in exported
            and not any(stmt.name in used for other, j, used in statements
                        if (other, j) != (name, i))]
    assert not dead, f"definitions with no caller in src/starpull: {dead}"


def test_every_method_has_a_caller():
    demos = [ast.parse(path.read_text()) for path in (ROOT / "demos").glob("*.py")]
    named = sum((_names(tree) for tree in [*_TREES.values(), *_TESTS.values(), *demos]), Counter())
    dead = [f"{name}:{method.lineno} {cls.name}.{method.name}"
            for name, tree in _TREES.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for method in cls.body
            if isinstance(method, _FUNCS)
            and not (method.name.startswith("__") and method.name.endswith("__"))
            and named[method.name] == _names(method)[method.name]]
    assert not dead, f"methods with no caller in src/, tests/ or demos/: {dead}"


def test_only_frozen_defines_setattr():
    guards = [(name, qual) for name, qual, func in _FUNCTIONS if func.name == "__setattr__"]
    assert guards == [("kernel.py", "Frozen.__setattr__")]


def test_only_base_domain_init_reduces_k_disc_mod_4():
    # every other reader takes D's shape from _disc and unit_module()
    readers = {qual for _, qual, func in _FUNCTIONS
               if any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                      and isinstance(node.right, ast.Constant) and node.right.value == 4
                      and _names(node.left)["k_disc"] for node in ast.walk(func))}
    assert readers == {"BaseDomain.__init__"}


def _contains_calls(node):
    return [sub for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "contains"]


def test_pullback_membership_is_one_test():
    # R, M, T and u*phi^-1(J) are all decided as h*g in phi^-1(J), and no
    # other code in the package asks a module for membership
    calls = {(name, node.lineno) for name, tree in _TREES.items() for node in _contains_calls(tree)}
    inside = {("pullback.py", node.lineno)
              for node in _contains_calls(_find("pullback.py", "_product_in"))}
    assert inside and calls == inside, f"module membership outside _product_in: {calls - inside}"
    assert not [stmt.name for stmt in _find("pullback.py", "PullbackInstance").body
                if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("member_")]


def _zero_module_uses(node):
    return {(sub.lineno, type(sub.ctx).__name__) for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == "_zero_module"}


def test_t_part_rule_is_one_test():
    # containment, colon certification and the pvmd confirmation all ask
    # whether a T-part t*T lands in M = phi^-1(0); span_product_in alone
    # answers, and PullbackInstance.__init__ alone stores M
    uses = {(name, *use) for name, tree in _TREES.items() for use in _zero_module_uses(tree)}
    span = _find("pullback.py", "span_product_in")
    init = _find("pullback.py", "__init__", "PullbackInstance")
    allowed = {("pullback.py", line, ctx) for line, ctx in _zero_module_uses(span) if ctx == "Load"}
    assert allowed, "span_product_in no longer reads the zero module"
    allowed |= {("pullback.py", line, ctx) for line, ctx in _zero_module_uses(init) if ctx == "Store"}
    assert uses == allowed, f"zero module read outside span_product_in: {sorted(uses - allowed)}"


def test_memo_tables_are_filled_in_one_place():
    # a module-level *_CACHE table is defined empty, read with .get and
    # written only by base_domain._memo_put, which holds the one cap
    stray, helpers = [], []
    for name, tree in _TREES.items():
        allowed = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.value, ast.Dict) \
                    and not stmt.value.keys:
                allowed.add(id(stmt.target))
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "_memo_put":
                helpers.append(name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "get":
                allowed.add(id(node.func.value))
            if isinstance(node.func, ast.Name) and node.func.id == "_memo_put" and node.args:
                allowed.add(id(node.args[0]))
        stray += [f"{name}:{node.lineno} {node.id}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id.endswith("_CACHE")
                  and id(node) not in allowed]
    assert helpers == ["base_domain.py"]
    assert not stray, f"*_CACHE tables used outside .get and _memo_put: {stray}"


def _cache_definitions():
    """(module, name) of every module-level *_CACHE table the package defines."""
    return [(name.removesuffix(".py"), stmt.target.id) for name, tree in _TREES.items()
            for stmt in tree.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id.endswith("_CACHE")]


def test_readme_names_every_memo_table():
    # README's memo-table sentence is the one list of the *_CACHE tables
    tables = {table for _, table in _cache_definitions()}
    readme = " ".join((ROOT / "README.md").read_text().split())
    start = readme.index("Every memo table in the library")
    sentence = readme[start:readme.index(". ", start)]
    named = set(re.findall(r"`(_[A-Z_]+_CACHE)`", sentence))
    assert len(tables) >= 7 and named == tables, (sorted(tables - named), sorted(named - tables))


def test_memoized_functions_stay_plain_functions():
    # perfbench's tracer wraps only plain functions and requires these three
    wanted = {"dmod_colon": "base_domain.py", "colon_R": "pullback.py",
              "invertibility_R": "class_groups.py"}
    for name, module in wanted.items():
        func = _find(module, name)
        assert isinstance(func, ast.FunctionDef), f"{module} defines no function {name}"
        assert not func.decorator_list, f"{module}:{func.lineno} {name} is decorated"


def test_instance_flags_are_derived_from_the_inputs():
    # a flag that is the same for every instance is a constant, not a fact
    # about the instance
    init = _find("pullback.py", "__init__", "PullbackInstance")
    literal = [node.lineno for node in ast.walk(init)
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               and isinstance(node.value, ast.Constant) and isinstance(node.value.value, bool)
               and any(isinstance(t, ast.Attribute) for t in ast.walk(node))]
    assert not literal, f"PullbackInstance.__init__ stores a bool literal at lines {literal}"


def test_only_kernel_reads_the_poly_storage():
    # other modules use Poly's methods, so a change to how a polynomial is
    # stored touches kernel.py alone
    names = set(Poly.__slots__)
    readers = [f"{name}:{node.lineno}" for name, node in _NODES if name != "kernel.py"
               and (isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.Constant) and node.value in names)]
    assert names and not readers, f"Poly's storage read outside kernel.py: {readers}"


def test_expression_text_is_scanned_once():
    # the tokenizer runs one regex over the text; no other function in
    # exprlang indexes the text or classifies its characters by hand
    patterns = [node.args[0].value for node in ast.walk(_TREES["exprlang.py"])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile"]
    assert len(patterns) == 1 and not patterns[0].startswith(r"\s"), patterns
    scanners = sorted(f"{func.name}:{node.lineno}" for name, _, func in _FUNCTIONS
                      if name == "exprlang.py" and func.name != "_tokens"
                      for node in ast.walk(func)
                      if isinstance(node, ast.Subscript) and _names(node.value)["text"]
                      or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("isspace", "isdigit", "isalnum"))
    assert not scanners, f"expression text scanned outside the tokenizer: {scanners}"


def test_t_kind_is_read_in_one_place():
    # every fact that depends on T (values at zero, canonical generators,
    # contents, names, the quasilocal flag) is read off inst.t
    naming, lookups, literals = set(), set(), set()
    for _, qual, func in _FUNCTIONS:
        if _names(func)["t_kind"]:
            naming.add(qual)
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and _names(node.value)["_T_KINDS"]:
                lookups.add(qual)
            if isinstance(node, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value in ("poly", "local")
                    for c in ast.walk(node)):
                literals.add(f"{qual}:{node.lineno}")
    assert naming == {"PullbackInstance.__init__", "pullback.make_instance"}, naming
    assert lookups == {"PullbackInstance.__init__"}, lookups
    assert not literals, f"T kinds compared by name outside _T_KINDS: {sorted(literals)}"


def _is_attr_call(node, owner: str, attr: str) -> bool:
    """Whether node is a call owner.attr(...), such as RatFunc.x_power(j)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr and isinstance(node.func.value, ast.Name)
            and node.func.value.id == owner)


def test_products_by_x_powers_are_shifts():
    # RatFunc.shift moves the coefficients directly; a product by
    # RatFunc.x_power(j) builds X^j and takes __mul__'s gcds
    products = [f"{name}:{node.lineno}" for name, node in _NODES
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(_is_attr_call(side, "RatFunc", "x_power") for side in (node.left, node.right))]
    assert not products, f"products by RatFunc.x_power(...) instead of shift: {products}"


def test_exprlang_prints_from_integers():
    # the printers read FieldElem.a/b/n/d and Poly.coeff_ints, with one gcd
    # per ratio; Fraction coordinates would build two Fractions per scalar
    tree = _TREES["exprlang.py"]
    printers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"elem_to_expr", "poly_to_expr", "pretty_elem", "pretty_value"} <= printers
    uses = sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _names(node.func)["Fraction"]
                  or isinstance(node, ast.Attribute) and node.attr in ("x", "y"))
    assert not uses, f"exprlang reads Fraction coordinates at lines {uses}"


_COEFF_READS = {"coeff_ints", "_coeff", "coeffs"}


def _term_printers(functions) -> set[str]:
    """The qualnames of the (qualname, function) pairs that read a
    polynomial's coefficients in a loop and print powers of X: the loops
    that turn a Poly into terms."""
    found = set()
    for qual, func in functions:
        loops = [node for node in ast.walk(func)
                 if isinstance(node, (ast.For, ast.GeneratorExp, ast.ListComp))]
        reads = any(_names(loop)[name] for loop in loops for name in _COEFF_READS)
        powers = any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and "X^" in node.value for node in ast.walk(func))
        if reads and powers:
            found.add(qual)
    return found


def test_polynomial_terms_are_printed_by_one_loop():
    # str(Poly) and exprlang's parseable form differ only in the degree
    # order and the coefficient atom, so both call kernel._terms_str
    printers = _term_printers((qual, func) for _, qual, func in _FUNCTIONS)
    assert printers == {"kernel._terms_str"}, printers
    # the rule sees the former expression printer
    old = ast.parse("def poly_to_expr(p):\n"
                    "    parts = []\n"
                    "    for i in range(p.degree + 1):\n"
                    "        a, b, n, d = p.coeff_ints(i)\n"
                    "        parts.append(f'{_coeff_to_expr(a, b, n, d)}*X^{i}')\n"
                    "    return ' + '.join(parts)\n")
    assert _term_printers(_functions(old, "exprlang")) == {"exprlang.poly_to_expr"}


def _double_coercions(tree) -> list[int]:
    """Lines that wrap Poly.const(...) in RatFunc.coerce(...)."""
    return sorted(node.lineno for node in ast.walk(tree) if _is_attr_call(node, "RatFunc", "coerce")
                  and any(_is_attr_call(arg, "Poly", "const") for arg in node.args))


def test_scalars_are_coerced_once():
    # RatFunc.__mul__ and member_R coerce a FieldElem themselves, so a
    # caller passes the scalar as it is
    found = [f"{name}:{line}" for name, tree in _TREES.items() for line in _double_coercions(tree)]
    assert not found, f"Poly.const inside RatFunc.coerce: {found}"
    # the rule sees the former lift
    old = ast.parse("lifts = [s.unit * RatFunc.coerce(Poly.const(c)) for c in basis]\n")
    assert _double_coercions(old) == [1]


def _fraction_uses(tree) -> list[int]:
    """Lines that import from `fractions` or name `Fraction`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "fractions"
                  or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
                  or isinstance(node, ast.Name) and node.id == "Fraction")


def test_harness_samples_in_integers():
    # the samplers keep each drawn (p, q) as integers and build one reduced
    # scalar; two Fractions and FieldElem.__init__ per coefficient were about
    # a sixth of a classes run
    uses = _fraction_uses(_TREES["harness.py"])
    assert not uses, f"harness uses fractions at lines {uses}"
    # the rule sees the former sampler
    old = ast.parse("from fractions import Fraction\n\n\n"
                    "def _sample_fraction(rng, height):\n"
                    "    return Fraction(rng.randint(-height, height), rng.randint(1, 3))\n")
    assert _fraction_uses(old) == [1, 5]


def test_pullback_builds_scalars_in_integers():
    # outside_D builds 1/2 and sqrt(d) with _make, as every other scalar
    # of the module is built
    uses = _fraction_uses(_TREES["pullback.py"])
    assert not uses, f"pullback uses fractions at lines {uses}"
    # the rule sees the former outside_D
    new = '_make(0, 1, 1, inst.k_disc) if inst.base.kind == "field" else _make(1, 0, 2, 1)'
    assert _SOURCES["pullback.py"].count(new) == 1
    old = ast.parse('FieldElem(0, 1, inst.k_disc) if inst.base.kind == "field" '
                    'else FieldElem(Fraction(1, 2))')
    assert _fraction_uses(old)


def test_empty_memos_covers_every_table(empty_memos):
    # the shared fixture finds the tables by scan, so a new *_CACHE table
    # is emptied without naming it anywhere
    tables = _cache_definitions()
    assert ("base_domain", "_PREDICATES_CACHE") in tables
    for module, name in tables:
        assert getattr(importlib.import_module(f"starpull.{module}"), name) == {}, (module, name)


_SCALAR_BUILDERS = {"_make", "FieldElem", "coerce", "next"}


def _scalar_builds(func) -> list[str]:
    """Calls in a function body to a scalar builder, a coercion or next()."""
    return sorted(f"{name}:{node.lineno}" for node in ast.walk(func) if isinstance(node, ast.Call)
                  for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
                  if name in _SCALAR_BUILDERS)


def test_membership_decides_integers():
    # phi(h*g) stays an unreduced integer quadruple from the value at zero
    # to the module's verdict: a scalar built per test was most of the
    # oracle workload's membership time
    kinds = {type(kind).__name__ for kind in _T_KINDS.values()}
    wanted = {("pullback.py", None, "_product_in"), ("pullback.py", None, "_at_zero"),
              ("pullback.py", None, "_x_order"), ("base_domain.py", "ExtDModule", "contains"),
              *(("pullback.py", kind, "x_free_divides") for kind in kinds)}
    found = {(module, owner, name): _scalar_builds(func) for module, owner, name in wanted
             for func in [_find(module, name, owner)] if func is not None}
    assert set(found) == wanted
    assert not any(found.values()), found
    # the rule sees the former bodies
    old = ast.parse("def at_zero(self, h, g):\n    return _make(*_times(h, g))\n"
                    "def contains(self, x):\n    x = FieldElem.coerce(x)\n"
                    "    return next(i for i in x)\n")
    assert [_scalar_builds(func) for func in old.body] == [["_make:2"], ["coerce:4", "next:5"]]


_CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _callee(node):
    """The name a call or a decorator refers to."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _calls(tree) -> set[str]:
    """The names that the calls in a subtree call."""
    return {_callee(node) for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_membership_in_t_is_one_rule():
    # whether h*g lies in T, and its X-order, are decided by _x_order for
    # every kind; a kind answers only whether one X-free part divides another
    for kind in _T_KINDS.values():
        assert not {"at_zero", "leading_term"} & set(dir(type(kind))), type(kind).__name__
    callers = {(name, func.name) for name, _, func in _FUNCTIONS
               if "x_free_divides" in _calls(func)}
    assert callers == {("pullback.py", "_x_order")}, callers
    # the rule sees a second caller
    old = ast.parse("def leading_term(self, h, g):\n"
                    "    return self.x_free_divides(h.den, 0, g.num, 0)\n")
    assert [qual for qual, func in _functions(old, "pullback")
            if "x_free_divides" in _calls(func)] == ["pullback.leading_term"]


def test_no_functools_caches():
    # the *_CACHE tables filled by _memo_put are the one home for caches
    found = [f"{name}:{node.lineno} {node.name}" for name, node in _NODES
             if isinstance(node, (*_FUNCS, ast.ClassDef))
             for dec in node.decorator_list if _callee(dec) in _CACHE_DECORATORS]
    found += [f"{name}:{node.lineno} import {alias.name}" for name, node in _NODES
              if isinstance(node, ast.ImportFrom) and node.module == "functools"
              for alias in node.names if alias.name in _CACHE_DECORATORS]
    assert not found, f"functools caches in src/starpull: {found}"
    # the rule sees the former kernel decorator
    old = ast.parse("from functools import lru_cache\n@lru_cache\ndef f(n):\n    return n\n")
    assert [_callee(dec) for dec in old.body[1].decorator_list] == ["lru_cache"]


def test_star_eval_is_one_dpart_recursion():
    # every operation acts on u*phi^-1(J) through J alone, so evaluation is
    # one map on D-parts that needs no instance and builds no closed form;
    # _star_eval builds the one closed form of its result
    tree = _TREES["star_ops.py"]
    funcs = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    assert "_eval" not in funcs and "_eval_structured" not in funcs
    recursion = funcs["_dpart_eval"]
    assert [arg.arg for arg in recursion.args.args] == ["op", "j"]
    pullback = {stmt.name for stmt in _TREES["pullback.py"].body
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    called = _calls(recursion)
    assert "_dpart_eval" in called and not called & pullback, sorted(called & pullback)
    callers = {name for name, func in funcs.items() if name != "_dpart_eval"
               and _names(func)["_dpart_eval"]}
    assert callers == {"_star_eval"}
    imported = {alias.name for stmt in tree.body if isinstance(stmt, ast.ImportFrom)
                for alias in stmt.names}
    assert "extend_to_T" not in imported


def test_r_ideals_are_closed_only_by_star_ops():
    # v and t on R are star_eval's; the oracles certify the one closure
    # that every caller runs
    imported = {alias.name for stmt in _TREES["pullback.py"].body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    assert "dmod_v" not in imported
    closing = [f"{name}:{func.lineno} {func.name}" for name, _, func in _FUNCTIONS
               if name != "star_ops.py" and _calls(func) >= {"dmod_v"}
               and _calls(func) & {"make_structured", "inverse_image_R"}]
    assert not closing, f"closed forms built from dmod_v outside star_ops: {closing}"
    defined = {node.name for _, node in _NODES if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"v_closure_R", "t_closure_R", "member_R_product", "beta"}
    # the rule sees the former closure
    old = ast.parse("def v_closure_R(ideal, inst):\n"
                    "    s = as_structured(ideal, inst)\n"
                    "    return make_structured(s.unit, dmod_v(s.dpart), inst)\n").body[0]
    assert _calls(old) >= {"dmod_v", "make_structured"}


def _flatmaps(tree) -> list[int]:
    """Lines that call .flatmap(...), which builds a strategy on every draw."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "flatmap")


def test_strategies_draw_no_dependent_strategy():
    # a one_of over branches built once draws what a flatmap drew, with no
    # strategy built per example; most of a kernel test's time went to it
    found = [f"{name}:{line}" for name, tree in _TESTS.items() for line in _flatmaps(tree)]
    assert not found, f"flatmap under tests/: {found}"
    # the rule sees the former tagged
    old = ast.parse("def tagged(strategy_of_tag):\n"
                    "    return st.sampled_from(TAGS).flatmap(\n"
                    "        lambda d: st.tuples(st.just(d), strategy_of_tag(d)))\n")
    assert _flatmaps(old) == [2]
