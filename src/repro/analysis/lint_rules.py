"""The built-in repo-specific lint rules (R001-R008; R003 is retired).

Each rule targets a defect class that a previous PR had to fix *after* a
runtime path exposed it; the rules make the next instance a static finding.
Rule ids are never reused: R003 (eager materialization in hot paths) was
retired when ``repro.nn`` became fully eager.  Importing this module
registers every rule with the plugin framework in :mod:`repro.analysis.rules`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import ERROR, WARNING, Finding
from .rules import (FileContext, LintRule, attr_chain, register_rule,
                    scope_statements)

__all__ = ["RngDisciplineRule", "SampleSiteNameRule", "SeedBeforeSamplingRule",
           "SizedVectorizedContextRule", "SilentExceptionSwallowRule",
           "AsyncBlockingCallRule", "BackendBypassRule"]

_NUMPY_ALIASES = ("np", "numpy")

#: legacy global-state samplers of ``np.random`` (module-level functions that
#: draw from the hidden global ``RandomState``, invisible to ``set_rng_seed``)
_LEGACY_SAMPLERS = frozenset({
    "seed", "rand", "randn", "random", "random_sample", "ranf", "sample",
    "normal", "uniform", "randint", "random_integers", "choice", "shuffle",
    "permutation", "standard_normal", "binomial", "poisson", "beta", "gamma",
    "exponential", "multivariate_normal", "laplace", "lognormal", "dirichlet",
})


@register_rule
class RngDisciplineRule(LintRule):
    """R001: stochastic code must draw from ``repro.ppl.rng.get_rng()``.

    A bare ``np.random.default_rng()`` (no seed argument) and any legacy
    ``np.random.<sampler>`` call draw entropy that silently escapes
    ``repro.ppl.rng.set_rng_seed`` — the exact defect class fixed for
    ``nn/init.py``, ``nn/tensor.py``, ``nn/functional.py`` and ``nn/data.py``
    in this PR.  Seeded ``np.random.default_rng(seed)`` construction stays
    legal (it is deterministic), and ``rng.py`` itself — the module that owns
    the global generator — is exempt.
    """

    rule_id = "R001"
    severity = ERROR
    autofixable = True  # mechanical rewrite to repro.ppl.rng.get_rng()
    description = ("stochastic fallback escapes set_rng_seed: use "
                   "repro.ppl.rng.get_rng(), not bare np.random.default_rng() "
                   "or legacy np.random.<sampler> calls")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.name == "rng.py":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if len(chain) != 3 or chain[0] not in _NUMPY_ALIASES or chain[1] != "random":
                continue
            if chain[2] == "default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "bare np.random.default_rng() draws fresh OS entropy that "
                    "set_rng_seed cannot govern; fall back to "
                    "repro.ppl.rng.get_rng() (or take a seeded generator)")
            elif chain[2] in _LEGACY_SAMPLERS:
                yield self.finding(
                    ctx, node,
                    f"legacy np.random.{chain[2]}() uses the hidden global "
                    "RandomState, invisible to repro.ppl.rng.set_rng_seed; "
                    "draw from repro.ppl.rng.get_rng() instead")


_SITE_PRIMITIVES = frozenset({"sample", "param", "deterministic"})


def _is_formatted_string(node: ast.AST) -> bool:
    """True for f-strings, ``%``/``+`` string composition and ``str.format``."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.Add)):
        return any(_is_string_literal(side) or _is_formatted_string(side)
                   for side in (node.left, node.right))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "format" and (_is_string_literal(node.func.value)
                                           or _is_formatted_string(node.func.value)):
            return True
    return False


def _is_string_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


@register_rule
class SampleSiteNameRule(LintRule):
    """R002: site names must be unique literals within one model function.

    Two ``sample``/``param`` statements with the same literal name inside one
    function collide in the trace (``Trace.add_node`` raises at runtime);
    dynamically-formatted names (f-strings, ``%``/``+`` composition,
    ``str.format``) defeat both this check and guide/site matching, so they
    are flagged too.  Plain variable names (e.g. a loop over
    ``param_dists.items()``) are deliberate framework idiom and stay legal.
    """

    rule_id = "R002"
    severity = ERROR
    description = ("duplicate or dynamically-formatted sample/param site name "
                   "within one model function")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        functions = [node for node in ast.walk(ctx.tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for fn in functions:
            seen: Dict[str, int] = {}
            for node in scope_statements(fn):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                chain = attr_chain(node.func)
                if not chain or chain[-1] not in _SITE_PRIMITIVES:
                    continue
                name_arg = node.args[0]
                if _is_string_literal(name_arg):
                    site = name_arg.value
                    if site in seen:
                        yield self.finding(
                            ctx, node,
                            f"site name {site!r} is used by more than one "
                            f"{chain[-1]} statement in {fn.name!r} (first use at "
                            f"line {seen[site]}); duplicate names collide in "
                            "the execution trace")
                    else:
                        seen[site] = node.lineno
                elif _is_formatted_string(name_arg):
                    yield self.finding(
                        ctx, node,
                        f"dynamically-formatted {chain[-1]} site name in "
                        f"{fn.name!r}: formatted names defeat static "
                        "duplicate/coverage checking — use a literal, or pass "
                        "a pre-built variable and suppress with "
                        "# repro: noqa[R002] where the formatting is deliberate")


def _module_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _is_register_decorator(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return attr_chain(node)[-1:] == ("register",)


def _calls_seed_all(fn: ast.AST) -> bool:
    for node in scope_statements(fn):
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain[-1:] == ("seed_all",):
                return True
    return False


def _called_module_functions(fn: ast.AST, functions: Dict[str, ast.FunctionDef]
                             ) -> Set[str]:
    # any Load of a module-level function name counts as a potential call —
    # runners dispatch through partial(...) tables, so direct Name calls alone
    # would miss the real call graph
    called: Set[str] = set()
    for node in scope_statements(fn):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in functions):
            called.add(node.id)
    return called


@register_rule
class SeedBeforeSamplingRule(LintRule):
    """R004: registered experiment runners must call ``config.seed_all()``.

    A runner registered with ``@register(...)`` that never reaches a
    ``seed_all()`` call (directly or through same-module helper functions)
    produces artifacts whose RNG stream depends on whatever ran before it —
    the registry's determinism contract is broken silently.  The check is the
    static approximation "``seed_all`` is reachable in the runner's
    same-module call graph"; cross-module delegation should go through a
    helper that seeds first.
    """

    rule_id = "R004"
    severity = ERROR
    description = ("experiment runner registered via @register never calls "
                   "config.seed_all() (directly or via same-module helpers)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        functions = _module_functions(ctx.tree)
        for fn in functions.values():
            if not any(_is_register_decorator(d) for d in fn.decorator_list):
                continue
            visited: Set[str] = set()
            frontier: List[str] = [fn.name]
            seeded = False
            while frontier and not seeded:
                name = frontier.pop()
                if name in visited:
                    continue
                visited.add(name)
                node = functions[name]
                if _calls_seed_all(node):
                    seeded = True
                    break
                frontier.extend(_called_module_functions(node, functions) - visited)
            if not seeded:
                yield self.finding(
                    ctx, fn,
                    f"registered runner {fn.name!r} never calls "
                    "config.seed_all(): its RNG stream (and artifact) depends "
                    "on whatever executed before it")


def _has_sizes(call: ast.Call) -> bool:
    if len(call.args) >= 2:
        return True
    for keyword in call.keywords:
        if keyword.arg == "sizes":
            return not (isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is None)
    return False


def _body_has_sample_call(body: List[ast.AST]) -> Optional[ast.Call]:
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call) and attr_chain(node.func)[-1:] == ("sample",):
            return node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return None


@register_rule
class SizedVectorizedContextRule(LintRule):
    """R005: ``vectorized_samples`` contexts with sampling must declare sizes.

    A ``sample`` statement executing inside a size-less
    ``vectorized_samples`` context draws *one* value silently shared by every
    particle — the PR-5 bug class.  Whenever the lexical body of the ``with``
    block contains a sample call, the context must declare its axis sizes
    (``vectorized_samples(1, sizes=(K,))``) so the runtime can stack one
    independent draw per particle.
    """

    rule_id = "R005"
    severity = ERROR
    description = ("vectorized_samples context whose body samples must declare "
                   "axis sizes (sizes=...) so draws stack per particle")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                call = item.context_expr
                if not isinstance(call, ast.Call):
                    continue
                if attr_chain(call.func)[-1:] != ("vectorized_samples",):
                    continue
                if _has_sizes(call):
                    continue
                sample_call = _body_has_sample_call(node.body)
                if sample_call is not None:
                    yield self.finding(
                        ctx, call,
                        "size-less vectorized_samples context contains a "
                        f"sample call (line {sample_call.lineno}): every "
                        "particle would share one draw — declare "
                        "sizes=(num_particles,) (or hoist the sampling out of "
                        "the context)")


_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _broad_handler_label(handler: ast.ExceptHandler) -> Optional[str]:
    """``"except:"``-style label when the handler catches (near-)everything."""
    if handler.type is None:
        return "bare except:"
    exceptions = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                  else [handler.type])
    for node in exceptions:
        name = attr_chain(node)[-1:]
        if name and name[0] in _BROAD_EXCEPTIONS:
            return f"except {name[0]}"
    return None


def _is_silent_body(body: List[ast.stmt]) -> bool:
    """True when the handler body does nothing with the exception."""
    return all(isinstance(stmt, (ast.Pass, ast.Continue))
               or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
               for stmt in body)


@register_rule
class SilentExceptionSwallowRule(LintRule):
    """R006: no silently-swallowing broad exception handlers in ``repro``.

    A ``bare except:`` / ``except Exception:`` / ``except BaseException:``
    whose body is only ``pass``/``continue``/a constant hides *every* failure
    mode at once — including the crash/timeout/corruption classes the
    execution engine exists to surface, classify and retry.  Exactly this
    pattern turns a worker's real defect into a silent wrong result.  Narrow
    handlers (``except FileNotFoundError: pass``) stay legal: they document
    the one expected failure.  Deliberate broad swallows (e.g. best-effort
    cleanup) must say so with ``# repro: noqa[R006]``.  Files outside the
    ``repro`` package are exempt.
    """

    rule_id = "R006"
    severity = ERROR
    description = ("bare/broad except handler silently swallows all failures "
                   "(pass/continue body); catch the specific exception or "
                   "handle it")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "repro" not in ctx.path.parts:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = _broad_handler_label(node)
            if label is None or not _is_silent_body(node.body):
                continue
            yield self.finding(
                ctx, node,
                f"{label} with a pass/continue body swallows every failure "
                "silently — crashes, timeouts and corruption included; catch "
                "the specific exception, or mark deliberate best-effort "
                "cleanup with # repro: noqa[R006]")


#: event-loop-blocking attribute calls: sync path/file I/O plus ``.numpy()``,
#: the hand-off point of tensor compute that belongs in the executor
_BLOCKING_METHODS = frozenset({"read_text", "write_text", "read_bytes",
                               "write_bytes", "numpy"})


def _in_serve_package(ctx: FileContext) -> bool:
    parts = ctx.path.parts
    for index, part in enumerate(parts):
        if part == "repro" and "serve" in parts[index + 1:]:
            return True
    return False


@register_rule
class AsyncBlockingCallRule(LintRule):
    """R007: no blocking calls inside ``async def`` bodies under ``repro/serve``.

    The serving layer coalesces requests on a single asyncio event loop; one
    blocking call inside an ``async def`` — ``time.sleep``, synchronous file
    I/O (``open``, ``Path.read_text``-family) or tensor work ending in
    ``.numpy()`` — stalls *every* in-flight request for its full duration,
    which is precisely the tail-latency defect the micro-batching benchmark
    gates against.  Sleep via ``await asyncio.sleep``, do file I/O before
    the loop starts (or in ``run_in_executor``), and run tensor compute in
    the batcher's executor.  Nested synchronous ``def`` helpers are exempt
    (they run wherever they are called from); deliberate cases take
    ``# repro: noqa[R007]``.  Files outside ``repro/serve`` are exempt.
    """

    rule_id = "R007"
    severity = ERROR
    description = ("blocking call (time.sleep / sync file I/O / .numpy()) "
                   "inside an async def under repro/serve stalls the event "
                   "loop for every in-flight request")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_serve_package(ctx):
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            for node in scope_statements(fn):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                if chain == ("time", "sleep"):
                    yield self.finding(
                        ctx, node,
                        f"time.sleep() inside async {fn.name!r} blocks the "
                        "event loop (and every coalesced request) — use "
                        "await asyncio.sleep()")
                elif chain == ("open",):
                    yield self.finding(
                        ctx, node,
                        f"synchronous open() inside async {fn.name!r} blocks "
                        "the event loop — load files before serving starts, "
                        "or run the I/O in an executor")
                elif (len(chain) >= 2 and chain[-1] in _BLOCKING_METHODS):
                    what = ("tensor work" if chain[-1] == "numpy"
                            else "synchronous file I/O")
                    yield self.finding(
                        ctx, node,
                        f".{chain[-1]}() inside async {fn.name!r} is {what} "
                        "on the event loop — every in-flight request stalls "
                        "behind it; move it to the batcher's executor (or "
                        "before the loop starts)")


#: numpy functions with a route through the backend kernel surface — the
#: elementwise table (ufuncs), the kernel entry points (matmul/reductions/
#: cumsum) and their common aliases.  Deliberately *not* listed: allocation
#: (np.empty/zeros), movement (np.transpose/reshape/flip), indexing helpers
#: (np.unravel_index, np.add.at) and dtype machinery — those have no backend
#: route and stay plain numpy under any substituted backend.
_BACKEND_KERNELS = frozenset({
    # linear algebra / scans
    "matmul", "einsum", "dot", "tensordot", "cumsum",
    # reductions
    "sum", "mean", "amax", "amin", "max", "min",
    # elementwise ufuncs mirrored by Backend.elementwise
    "add", "subtract", "multiply", "divide", "true_divide", "negative",
    "absolute", "exp", "log", "log1p", "sqrt", "tanh", "sin", "cos",
    "logaddexp", "maximum", "minimum", "power", "clip",
})


def _in_nn_outside_backends(ctx: FileContext) -> bool:
    parts = ctx.path.parts
    for index, part in enumerate(parts):
        if (part == "repro" and parts[index + 1:index + 2] == ("nn",)
                and "backends" not in parts[index + 2:]):
            return True
    return False


@register_rule
class BackendBypassRule(LintRule):
    """R008: kernel-shaped ``np.*`` calls in ``repro/nn`` bypass the backend.

    ``repro.nn`` dispatches every compute kernel — the elementwise table,
    matmul, im2col/pooling windowing, reductions, cumsum — through
    ``repro.nn.backends.get_backend()`` so a substituted backend (a counting
    test double, the profiler's timing backend) sees every kernel.  A direct
    ``np.exp(...)``/``np.matmul(...)``/``np.lib.stride_tricks.as_strided(...)``
    call inside ``repro/nn`` silently skips the seam: the numbers stay right,
    which is exactly why only a static rule catches it before a substituted
    backend undercounts the kernels.  The kernel implementations under
    ``repro/nn/backends/`` are exempt (they *are* the dispatch target), as is
    everything outside ``repro/nn``; scalar math belongs to ``math.*`` and
    deliberate escapes take ``# repro: noqa[R008]``.
    """

    rule_id = "R008"
    severity = WARNING
    description = ("direct np.* kernel call (ufunc compute / matmul / "
                   "reduction / cumsum / stride_tricks) inside repro/nn "
                   "bypasses the backend dispatch seam")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_nn_outside_backends(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if (len(chain) == 2 and chain[0] in _NUMPY_ALIASES
                    and chain[1] in _BACKEND_KERNELS):
                yield self.finding(
                    ctx, node,
                    f"np.{chain[1]}() is a compute kernel with a backend "
                    "route; dispatch through repro.nn.backends.get_backend() "
                    "so a substituted backend sees every kernel")
            elif (chain[-2:] == ("stride_tricks", "as_strided")
                  and chain[0] in _NUMPY_ALIASES) or chain == ("as_strided",):
                yield self.finding(
                    ctx, node,
                    "as_strided windowing is kernel layout work; use the "
                    "backend's im2col/pooling entry points so a substituted "
                    "backend sees every kernel")
