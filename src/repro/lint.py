"""Project-invariant AST linter: ``python -m repro.lint``.

The reproduction's determinism and certification guarantees rest on
conventions no general-purpose linter knows about.  This module walks
the AST of every file under ``src/repro`` and enforces them:

- **seeded randomness only** (``rng/stdlib-random``,
  ``rng/unseeded-numpy``): the stdlib ``random`` module may be imported
  only inside :mod:`repro.common.rng` (every other draw must derive from
  the package-wide seeding scheme), and ``numpy.random`` may be touched
  only through ``default_rng(seed)`` / ``Generator`` / ``SeedSequence``
  -- never the unseeded module-level API;
- **no wall-clock reads** (``time/wall-clock``): simulated time is the
  only clock; ``time.time``/``time.monotonic`` and ``datetime.now``
  kin would leak host time into supposedly deterministic runs
  (``time.perf_counter`` stays legal -- ``ConfigurationSearch`` measures
  its real ``elapsed_seconds`` on purpose, the scheduler cost Table 1
  reports);
- **frozen trace events** (``trace/unfrozen-dataclass``): every
  class in ``repro/trace/events.py`` must be a ``frozen=True``
  dataclass or a ``NamedTuple`` -- recorded events are shared, hashed
  and replayed, so mutation is corruption;
- **one content address** (``hash/content-address``): ``hashlib`` may
  be imported only by :mod:`repro.common.fingerprint` (every memo key)
  and :mod:`repro.common.rng` (seeded draws), so no third hashing scheme
  -- and no key digesting a convenient summary -- can creep back in;
- **one fault draw** (``rng/chaos-draw``): ``unit`` may be imported
  from :mod:`repro.common.rng` (or its ``repro.common`` re-export) only
  by :mod:`repro.common.chaos`, whose ``ChaosPlan`` is the one seeded
  fault draw, so no family can grow a draw with its own label scheme;
- **one phase runner per kind** (``sim/fresh-phase``): ``Simulator()``
  may be constructed only by the phase runners
  (:func:`repro.runtime.executor.run_phase`,
  :func:`repro.runtime.migration.run_transfers`), the engine itself and
  the planner service's long-lived clock, so every simulated phase
  attaches the trace and advances its base the same way;
- **no run-time knobs** (``config/env-read``): nothing under
  ``src/repro`` reads or writes the environment (``os.environ``,
  ``os.getenv``, ``os.putenv``), so behaviour is a function of the
  arguments alone and no cache can grow a second, switchable code path;
- **integer-exact capacity arithmetic** (``exact/float-arithmetic``):
  the capacity certification paths -- ``analysis/parametric.py`` (the
  certificates and the ``capacity`` pass that reads them),
  ``core/types.py`` (``TaskGraph.checkpoint_stash_bytes``, the host
  stash they sum) and ``virt/devices.py`` (the bound per-device
  capacity vector) -- must stay in integer arithmetic -- no
  true division, no ``float()`` -- so certificates are exact at any
  byte count instead of drifting past 2**53.  Formatting inside
  f-strings is exempt (messages may render GiB);
- **interpreter-independent float sums** (``float/builtin-sum``): in
  ``repro/core``, ``repro/trace``, ``repro/runtime``, ``repro/sim`` and
  ``repro/virt``, builtin ``sum`` may appear only in the reviewed integer
  sums of ``INTEGER_SUMS``.
  Python 3.12 compensates float ``sum``, moving pinned bits, so a float
  reduction folds with :func:`repro.common.ordered_sum` instead;
- **no unused imports** (``import/unused``): every name an import binds
  is read somewhere in its module or listed in ``__all__`` (the F401 of
  CI's ruff leg, which is absent locally; ``tests/test_lint.py`` holds
  ``tests`` to it as well).  An import kept for its side effect says so
  with ``# noqa: F401`` on its line.

Exit status is the number of findings (0 = clean), and each finding
prints as ``path:line: rule: message``.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

#: The one module allowed to import stdlib ``random``.
RNG_MODULE = Path("repro") / "common" / "rng.py"

#: The only modules allowed to import ``hashlib``.
HASHING_MODULES = (
    Path("repro") / "common" / "fingerprint.py",
    RNG_MODULE,
)

#: The only modules allowed to import the stateless draw ``unit``.
CHAOS_DRAW_MODULES = (
    Path("repro") / "common" / "chaos.py",
    RNG_MODULE,
    Path("repro") / "common" / "__init__.py",
)

#: The only modules allowed to construct a ``Simulator``.
SIMULATOR_MODULES = (
    Path("repro") / "runtime" / "executor.py",
    Path("repro") / "runtime" / "migration.py",
    Path("repro") / "sim" / "engine.py",
    Path("repro") / "service" / "daemon.py",
)

#: Files whose arithmetic must stay integer-exact.
INTEGER_EXACT = (
    Path("repro") / "analysis" / "parametric.py",
    Path("repro") / "core" / "types.py",
    Path("repro") / "virt" / "devices.py",
)

#: Packages whose float reductions must not depend on the interpreter.
FLOAT_SUM_PACKAGES = (Path("repro/core"), Path("repro/trace"), Path("repro/runtime"),
                      Path("repro/sim"), Path("repro/virt"))

#: The functions in those packages whose builtin ``sum`` adds only ints
#: (or bools), reviewed one by one: an int ``sum`` is exact everywhere.
INTEGER_SUMS = {
    Path("repro/core/profiler.py"): ("pack_memory_naive", "total_param_bytes"),
    Path("repro/core/taskgraph.py"): ("_task_groups",),
    Path("repro/core/types.py"): ("group_samples", "global_swap_bytes", "p2p_bytes",
                                  "checkpoint_stash_bytes"),
    Path("repro/core/waits.py"): ("mb_dependency",),
    Path("repro/runtime/executor.py"): ("_chunk_sizes", "_minibatch_of"),
    Path("repro/runtime/metrics.py"): ("global_swap_bytes", "global_p2p_bytes"),
    Path("repro/trace/export.py"): ("to_text_timeline",),
}

#: File whose classes must all be frozen dataclasses or NamedTuples.
FROZEN_DATACLASSES = Path("repro") / "trace" / "events.py"

#: Wall-clock reads on the stdlib ``time`` module (perf_counter is the
#: sanctioned way to measure real durations, so it is not listed).
_WALL_CLOCK_TIME = ("time", "time_ns", "monotonic", "monotonic_ns")
_WALL_CLOCK_DATETIME = ("now", "utcnow", "today")

#: The environment accessors of the ``os`` module.
_ENV_ACCESS = ("environ", "getenv", "putenv")

#: The only sanctioned entry points into numpy.random.
_NUMPY_RANDOM_OK = ("default_rng", "Generator", "SeedSequence", "BitGenerator")


@dataclass(frozen=True)
class Finding:
    path: Path
    line: int
    rule: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when not a plain name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class _Checker(ast.NodeVisitor):
    def __init__(self, rel_path: Path, source: str = ""):
        self.rel_path = rel_path
        self.lines = source.splitlines()
        #: Name bound by an import -> the import node, for ``import/unused``.
        self.imported: dict[str, ast.Import | ast.ImportFrom] = {}
        self.used: set[str] = set()
        self.findings: list[Finding] = []
        self.in_fstring = 0
        self.integer_exact = rel_path in INTEGER_EXACT
        self.allow_stdlib_random = rel_path == RNG_MODULE
        self.allow_hashlib = rel_path in HASHING_MODULES
        self.allow_unit = rel_path in CHAOS_DRAW_MODULES
        self.allow_simulator = rel_path in SIMULATOR_MODULES
        self.check_frozen = rel_path == FROZEN_DATACLASSES
        self.check_sums = any(p in rel_path.parents for p in FLOAT_SUM_PACKAGES)
        self.integer_sums = INTEGER_SUMS.get(rel_path, ())
        self.function = ""  # the innermost enclosing function

    def flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            self.rel_path, getattr(node, "lineno", 0), rule, message,
        ))

    # -- restricted imports: stdlib random, hashlib, the fault draw --------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_module(node, alias.name)
            self._bind(node, alias.asname or alias.name.split(".")[0])
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        self._check_module(node, module)
        if module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    self._bind(node, alias.asname or alias.name)
        if module == "os":
            for alias in node.names:
                if alias.name in _ENV_ACCESS:
                    self._flag_env(node, alias.name)
        if (
            module in ("repro.common.rng", "repro.common")
            and not self.allow_unit
            and any(alias.name == "unit" for alias in node.names)
        ):
            self.flag(
                node, "rng/chaos-draw",
                "unit imported outside repro.common.chaos; draw faults "
                "through repro.common.chaos.ChaosPlan",
            )
        if module in ("numpy.random", "np.random"):
            for alias in node.names:
                if alias.name not in _NUMPY_RANDOM_OK:
                    self.flag(
                        node, "rng/unseeded-numpy",
                        f"numpy.random.{alias.name} bypasses the seeded "
                        "Generator API; use default_rng(seed)",
                    )
        self.generic_visit(node)

    def _check_module(self, node: ast.AST, module: str) -> None:
        if module == "random" and not self.allow_stdlib_random:
            self.flag(
                node, "rng/stdlib-random",
                "stdlib random imported outside repro.common.rng; "
                "derive draws from repro.common.rng.seeded_rng",
            )
        if module == "hashlib" and not self.allow_hashlib:
            self.flag(
                node, "hash/content-address",
                "hashlib imported outside repro.common.fingerprint; key "
                "memos with repro.common.fingerprint.fingerprint",
            )

    # -- unused imports ----------------------------------------------------------

    def _bind(self, node: ast.Import | ast.ImportFrom, name: str) -> None:
        span = self.lines[node.lineno - 1:node.end_lineno or node.lineno]
        if not any("# noqa: F401" in line or line.rstrip().endswith("# noqa")
                   for line in span):
            self.imported.setdefault(name, node)

    def visit_Name(self, node: ast.Name) -> None:
        self.used.add(node.id)

    def _read_annotation(self, annotation: ast.AST | None) -> None:
        """A string annotation (``"LayerGraph"``) reads the names in it."""
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                self.used.update(name.id for name in ast.walk(expr)
                                 if isinstance(name, ast.Name))

    def visit_arg(self, node: ast.arg) -> None:
        self._read_annotation(node.annotation)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._read_annotation(node.annotation)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in node.targets) and isinstance(node.value, (ast.List, ast.Tuple)):
            self.used.update(elt.value for elt in node.value.elts
                             if isinstance(elt, ast.Constant))
        self.generic_visit(node)

    def finish(self) -> None:
        """Flag the imports nothing in the module read."""
        for name, node in self.imported.items():
            if name not in self.used:
                self.flag(node, "import/unused",
                          f"{name!r} is imported but unused; delete it (or "
                          "mark a side-effect import '# noqa: F401')")

    # -- calls: numpy.random, wall clocks, simulators, float() ------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain and chain[-1] == "Simulator" and not self.allow_simulator:
            self.flag(
                node, "sim/fresh-phase",
                "Simulator() constructed outside the phase runners; run "
                "the phase through repro.runtime.executor.run_phase or "
                "repro.runtime.migration.run_transfers",
            )
        if len(chain) >= 2 and chain[-2] == "random" and chain[0] in (
            "np", "numpy"
        ):
            name = chain[-1]
            if name not in _NUMPY_RANDOM_OK:
                self.flag(
                    node, "rng/unseeded-numpy",
                    f"numpy.random.{name}() draws from unseeded global "
                    "state; use default_rng(seed)",
                )
            elif name == "default_rng" and not (node.args or node.keywords):
                self.flag(
                    node, "rng/unseeded-numpy",
                    "default_rng() without a seed is entropy-seeded; "
                    "pass the run's seed",
                )
        if len(chain) == 2 and chain[0] == "time" and chain[1] in (
            _WALL_CLOCK_TIME
        ):
            self.flag(
                node, "time/wall-clock",
                f"time.{chain[1]}() reads the wall clock; simulated "
                "time is the only clock (perf_counter is allowed for "
                "measuring real durations)",
            )
        if chain and chain[-1] in _WALL_CLOCK_DATETIME and "datetime" in (
            chain[0], chain[-2] if len(chain) >= 2 else ""
        ):
            self.flag(
                node, "time/wall-clock",
                f"{'.'.join(chain)}() reads the wall clock; pass "
                "timestamps in explicitly",
            )
        if (
            self.check_sums
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and self.function not in self.integer_sums
        ):
            self.flag(
                node, "float/builtin-sum",
                f"builtin sum() in {self.function or 'module scope'}: 3.12 "
                "compensates float sums; fold with repro.common.ordered_sum "
                "or list a reviewed int sum in repro.lint.INTEGER_SUMS",
            )
        if (
            self.integer_exact
            and not self.in_fstring
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            self.flag(
                node, "exact/float-arithmetic",
                "float() in an integer-exact capacity path; certificates "
                "must not round past 2**53 bytes",
            )
        self.generic_visit(node)

    # -- enclosing functions, for the integer-sum allow-list ---------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._read_annotation(node.returns)
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- the environment ---------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name) and node.value.id == "os"
                and node.attr in _ENV_ACCESS):
            self._flag_env(node, node.attr)
        self.generic_visit(node)

    def _flag_env(self, node: ast.AST, name: str) -> None:
        self.flag(
            node, "config/env-read",
            f"os.{name} touches the environment; pass the setting in as an "
            "argument instead",
        )

    # -- integer-exact arithmetic ------------------------------------------------

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        self.in_fstring += 1
        self.generic_visit(node)
        self.in_fstring -= 1

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            self.integer_exact
            and not self.in_fstring
            and isinstance(node.op, ast.Div)
        ):
            self.flag(
                node, "exact/float-arithmetic",
                "true division in an integer-exact capacity path; use "
                "// (or format inside an f-string)",
            )
        self.generic_visit(node)

    # -- frozen trace events -----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.check_frozen and not self._is_immutable_record(node):
            self.flag(
                node, "trace/unfrozen-dataclass",
                f"class {node.name!r} in trace/events.py must be a "
                "frozen dataclass or a NamedTuple; recorded events are "
                "shared and replayed",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_immutable_record(node: ast.ClassDef) -> bool:
        if any(_attr_chain(base)[-1:] == ["NamedTuple"]
               for base in node.bases):
            return True
        return any(
            isinstance(decorator, ast.Call)
            and _attr_chain(decorator.func)[-1:] == ["dataclass"]
            and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in decorator.keywords)
            for decorator in node.decorator_list
        )


def lint_file(path: Path, root: Path) -> list[Finding]:
    rel = path.relative_to(root)
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(rel, exc.lineno or 0, "parse/syntax-error",
                        str(exc))]
    checker = _Checker(rel, source)
    checker.visit(tree)
    checker.finish()
    return checker.findings


def lint_tree(root: Path) -> Iterator[Finding]:
    """Lint every Python file under ``root`` (a ``src`` directory)."""
    for path in sorted(root.rglob("*.py")):
        yield from lint_file(path, root)


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    findings = list(lint_tree(root))
    for finding in findings:
        print(finding.describe())
    checked = len(list(root.rglob("*.py")))
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"repro.lint: {checked} file(s) under {root} -- {status}")
    return min(len(findings), 125)


if __name__ == "__main__":
    raise SystemExit(main())
