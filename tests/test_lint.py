"""The project-invariant linter: each rule fires on the bad idiom only."""

import ast
from pathlib import Path

import repro.lint as lint
from repro.lint import lint_file, lint_tree, main


def run(tmp_path, rel, source, unused=False):
    """The rules ``source`` trips at ``rel``.  The import rules' snippets
    import names they never read, so ``import/unused`` is left out unless
    ``unused`` asks for it."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return [f.rule for f in lint_file(path, tmp_path)
            if unused or f.rule != "import/unused"]


class TestStdlibRandom:
    def test_import_random_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/sim/thing.py", "import random\n")
        assert rules == ["rng/stdlib-random"]

    def test_from_random_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/sim/thing.py",
                    "from random import choice\n")
        assert rules == ["rng/stdlib-random"]

    def test_rng_module_is_exempt(self, tmp_path):
        rules = run(tmp_path, "repro/common/rng.py", "import random\n")
        assert rules == []


class TestContentAddress:
    def test_hashlib_outside_fingerprint_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/service/cache.py",
                    "import hashlib\n")
        assert rules == ["hash/content-address"]
        rules = run(tmp_path, "repro/virt/devices.py",
                    "from hashlib import sha256\n")
        assert rules == ["hash/content-address"]

    def test_fingerprint_and_rng_modules_are_exempt(self, tmp_path):
        for rel in ("repro/common/fingerprint.py", "repro/common/rng.py"):
            assert run(tmp_path, rel, "import hashlib\n") == []


class TestChaosDraw:
    def test_unit_import_outside_chaos_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/faults/plan.py",
                    "from repro.common.rng import unit\n")
        assert rules == ["rng/chaos-draw"]
        rules = run(tmp_path, "repro/service/chaos.py",
                    "from repro.common import fmt_bytes, unit\n")
        assert rules == ["rng/chaos-draw"]

    def test_other_rng_helpers_ok(self, tmp_path):
        rules = run(tmp_path, "repro/core/decomposer.py",
                    "from repro.common.rng import seeded_rng, spread\n")
        assert rules == []

    def test_chaos_rng_and_package_init_are_exempt(self, tmp_path):
        for rel in ("repro/common/chaos.py", "repro/common/rng.py",
                    "repro/common/__init__.py"):
            assert run(tmp_path, rel,
                       "from repro.common.rng import unit\n") == []


class TestFreshPhase:
    def test_simulator_outside_phase_runners_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/faults/runner.py",
                    "from repro.sim.engine import Simulator\n"
                    "sim = Simulator()\n")
        assert rules == ["sim/fresh-phase"]
        rules = run(tmp_path, "repro/cluster/runner.py",
                    "from repro.sim import engine\nsim = engine.Simulator()\n")
        assert rules == ["sim/fresh-phase"]

    def test_importing_the_type_ok(self, tmp_path):
        rules = run(tmp_path, "repro/cluster/fabric.py",
                    "from repro.sim.engine import Simulator\n"
                    "def f(sim: Simulator) -> None: ...\n")
        assert rules == []

    def test_phase_runners_engine_and_daemon_are_exempt(self, tmp_path):
        for rel in ("repro/runtime/executor.py", "repro/runtime/migration.py",
                    "repro/sim/engine.py", "repro/service/daemon.py"):
            assert run(tmp_path, rel, "sim = Simulator()\n") == []


class TestNumpyRandom:
    def test_unseeded_module_call_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/numeric/x.py",
                    "import numpy as np\nx = np.random.rand(3)\n")
        assert rules == ["rng/unseeded-numpy"]

    def test_entropy_seeded_default_rng_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/numeric/x.py",
                    "import numpy as np\nrng = np.random.default_rng()\n")
        assert rules == ["rng/unseeded-numpy"]

    def test_seeded_default_rng_ok(self, tmp_path):
        rules = run(tmp_path, "repro/numeric/x.py",
                    "import numpy as np\nrng = np.random.default_rng(7)\n")
        assert rules == []

    def test_generator_method_draws_are_ok(self, tmp_path):
        # rng.random() on a seeded Generator is the sanctioned idiom.
        rules = run(tmp_path, "repro/numeric/x.py",
                    "def f(rng):\n    return rng.random()\n")
        assert rules == []

    def test_from_numpy_random_import_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/numeric/x.py",
                    "from numpy.random import rand\n")
        assert rules == ["rng/unseeded-numpy"]


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/sim/x.py",
                    "import time\nt = time.time()\n")
        assert rules == ["time/wall-clock"]

    def test_monotonic_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/sim/x.py",
                    "import time\nt = time.monotonic()\n")
        assert rules == ["time/wall-clock"]

    def test_perf_counter_allowed(self, tmp_path):
        rules = run(tmp_path, "repro/core/x.py",
                    "import time\nt = time.perf_counter()\n")
        assert rules == []

    def test_datetime_now_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/sim/x.py",
                    "from datetime import datetime\nt = datetime.now()\n")
        assert rules == ["time/wall-clock"]


class TestEnvRead:
    def test_env_access_flagged(self, tmp_path):
        for source in ("import os\nx = os.environ.get('A', '')\n",
                       "import os\nx = os.environ['A']\n",
                       "import os\nx = os.getenv('A')\n",
                       "import os\nos.putenv('A', '1')\n",
                       "from os import environ\n",
                       "from os import getenv as ge\n"):
            assert run(tmp_path, "repro/core/x.py", source) == \
                ["config/env-read"], source

    def test_other_os_use_ok(self, tmp_path):
        source = ("import os\nfrom os import path\n"
                  "p = os.path.join('a', 'b')\nenviron = {}\n"
                  "x = environ.get('A')\n")
        assert run(tmp_path, "repro/core/x.py", source) == []


class TestFrozenTraceEvents:
    def test_unfrozen_dataclass_flagged(self, tmp_path):
        src = ("from dataclasses import dataclass\n"
               "@dataclass\n"
               "class E:\n    x: int\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == ["trace/unfrozen-dataclass"]

    def test_frozen_false_flagged(self, tmp_path):
        src = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=False)\n"
               "class E:\n    x: int\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == ["trace/unfrozen-dataclass"]

    def test_frozen_true_ok(self, tmp_path):
        src = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\n"
               "class E:\n    x: int\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == []

    def test_other_files_may_be_mutable(self, tmp_path):
        src = ("from dataclasses import dataclass\n"
               "@dataclass\n"
               "class E:\n    x: int\n")
        rules = run(tmp_path, "repro/runtime/metrics.py", src)
        assert rules == []

    def test_qualified_frozen_true_ok(self, tmp_path):
        src = ("import dataclasses\n"
               "@dataclasses.dataclass(frozen=True)\n"
               "class E:\n    x: int\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == []

    def test_qualified_bare_dataclass_flagged(self, tmp_path):
        src = ("import dataclasses\n"
               "@dataclasses.dataclass\n"
               "class E:\n    x: int\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == ["trace/unfrozen-dataclass"]

    def test_named_tuple_ok(self, tmp_path):
        src = ("from typing import NamedTuple\n"
               "class E(NamedTuple):\n    x: int\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == []

    def test_qualified_named_tuple_ok(self, tmp_path):
        src = ("import typing\n"
               "class E(typing.NamedTuple):\n    x: int\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == []

    def test_plain_class_flagged(self, tmp_path):
        src = "class E:\n    x = 0\n"
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == ["trace/unfrozen-dataclass"]

    def test_other_base_flagged(self, tmp_path):
        src = ("class Base:\n    pass\n"
               "class E(Base, tuple):\n    pass\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == ["trace/unfrozen-dataclass"] * 2

    def test_other_decorator_flagged(self, tmp_path):
        src = ("import functools\n"
               "@functools.total_ordering\n"
               "class E:\n    x = 0\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == ["trace/unfrozen-dataclass"]

    def test_nested_class_checked(self, tmp_path):
        src = ("from typing import NamedTuple\n"
               "class E(NamedTuple):\n"
               "    x: int\n"
               "    class Inner:\n        pass\n")
        rules = run(tmp_path, "repro/trace/events.py", src)
        assert rules == ["trace/unfrozen-dataclass"]

    def test_repo_events_module_is_clean(self):
        import repro.trace.events as events

        path = Path(events.__file__)
        root = path.parent.parent.parent
        assert lint_file(path, root) == []


class TestIntegerExact:
    def test_true_division_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/core/types.py",
                    "def f(a, b):\n    return a / b\n")
        assert rules == ["exact/float-arithmetic"]

    def test_float_call_flagged(self, tmp_path):
        rules = run(tmp_path, "repro/analysis/parametric.py",
                    "def f(a):\n    return float(a)\n")
        assert rules == ["exact/float-arithmetic"]

    def test_fstring_formatting_exempt(self, tmp_path):
        rules = run(tmp_path, "repro/core/types.py",
                    "def f(a):\n    return f'{a / 2**30:.1f} GiB'\n")
        assert rules == []

    def test_floor_division_ok(self, tmp_path):
        rules = run(tmp_path, "repro/analysis/parametric.py",
                    "def f(a, b):\n    return a // b\n")
        assert rules == []

    def test_other_modules_may_divide(self, tmp_path):
        rules = run(tmp_path, "repro/sim/engine.py",
                    "def f(a, b):\n    return a / b\n")
        assert rules == []


class TestFloatSum:
    def test_float_sum_flagged(self, tmp_path):
        src = "def busy(spans):\n    return sum(b - a for a, b in spans)\n"
        for rel in ("repro/trace/analytics.py", "repro/core/packing.py",
                    "repro/runtime/x.py"):
            assert run(tmp_path, rel, src) == ["float/builtin-sum"], rel

    def test_sim_and_virt_float_sums_flagged(self, tmp_path):
        # The scaled time model's microbatch fold, as it was written with
        # builtin ``sum`` before it moved to ``ordered_sum``.
        src = ("def task_compute_time(self, task):\n"
               "    return sum(self.microbatch_time(task, u)\n"
               "               for u in task.microbatches)\n")
        assert run(tmp_path, "repro/virt/timemodel.py", src) == \
            ["float/builtin-sum"]
        src = ("def path_latency(hops):\n"
               "    return sum(link.latency for link in hops)\n")
        assert run(tmp_path, "repro/sim/links.py", src) == \
            ["float/builtin-sum"]

    def test_module_scope_and_nested_sums_flagged(self, tmp_path):
        assert run(tmp_path, "repro/core/x.py", "t = sum([0.1] * 10)\n") == \
            ["float/builtin-sum"]
        # The innermost function is the one that must be allow-listed.
        src = ("def _chunk_sizes(xs):\n"
               "    def mean():\n        return sum(xs) / len(xs)\n"
               "    return mean()\n")
        assert run(tmp_path, "repro/runtime/executor.py", src) == \
            ["float/builtin-sum"]

    def test_allow_listed_integer_sum_ok(self, tmp_path):
        src = ("def checkpoint_stash_bytes(self):\n"
               "    return sum(m.nbytes for m in self.moves)\n")
        assert run(tmp_path, "repro/core/types.py", src) == []
        src = "def _chunk_sizes(mbs):\n    return sum(mbs)\n"
        assert run(tmp_path, "repro/runtime/executor.py", src) == []

    def test_allow_list_is_per_file(self, tmp_path):
        src = "def _chunk_sizes(mbs):\n    return sum(mbs)\n"
        assert run(tmp_path, "repro/runtime/links.py", src) == \
            ["float/builtin-sum"]

    def test_ordered_sum_and_other_packages_ok(self, tmp_path):
        src = ("from repro.common import ordered_sum\n"
               "def busy(spans):\n"
               "    return ordered_sum(b - a for a, b in spans)\n")
        assert run(tmp_path, "repro/trace/analytics.py", src) == []
        assert run(tmp_path, "repro/service/x.py",
                   "def f(xs):\n    return sum(xs)\n") == []

    def test_allow_list_names_real_sums(self):
        """Every allow-listed function exists and calls builtin ``sum``, so
        the list cannot go stale and shelter a future float sum."""
        src_root = Path(lint.__file__).resolve().parent.parent
        for rel, names in lint.INTEGER_SUMS.items():
            tree = ast.parse((src_root / rel).read_text())
            summing = {
                node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "sum"
                    for call in ast.walk(node)
                )
            }
            assert set(names) <= summing, (rel, set(names) - summing)


class TestUnusedImport:
    def test_unused_imports_flagged(self, tmp_path):
        src = ("import os\nimport numpy as np\nimport a.b.c\n"
               "from typing import Callable, Optional\n"
               "def f(x: Optional[int]):\n    return x\n")
        path = tmp_path / "repro" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text(src)
        findings = lint_file(path, tmp_path)
        assert [(f.rule, f.line) for f in findings] == [
            ("import/unused", 1), ("import/unused", 2), ("import/unused", 3),
            ("import/unused", 4)]
        assert ["'os'", "'np'", "'a'", "'Callable'"] == \
            [f.message.split()[0] for f in findings]

    def test_read_names_ok(self, tmp_path):
        src = ("from __future__ import annotations\n"
               "import os.path\nimport numpy as np\n"
               "from typing import TYPE_CHECKING, Sequence\n"
               "from x import Graph, Layer, Unit\n"
               "def f(g: 'Graph', xs: Sequence['Layer']) -> 'Unit':\n"
               "    return os.path.join(np.pi)\n"
               "if TYPE_CHECKING:\n    pass\n")
        assert run(tmp_path, "repro/core/x.py", src, unused=True) == []

    def test_all_and_annotated_assignments_read(self, tmp_path):
        src = ("from x import exported, Kind\n"
               "__all__ = ['exported']\n"
               "table: 'dict[str, Kind]' = {}\n")
        assert run(tmp_path, "repro/x/__init__.py", src, unused=True) == []

    def test_noqa_f401_honoured(self, tmp_path):
        """Pass modules imported for their registration side effect."""
        src = ("from repro.analysis import hb as _hb  # noqa: F401  isort:skip\n"
               "from repro.analysis import (  # noqa: F401\n"
               "    lifetime as _lifetime,\n)\n"
               "import json  # noqa: E501\n")
        assert run(tmp_path, "repro/analysis/analyzer.py", src,
                   unused=True) == ["import/unused"]

    def test_nested_import_flagged(self, tmp_path):
        src = "def f():\n    import json\n    return 1\n"
        assert run(tmp_path, "repro/x.py", src, unused=True) == \
            ["import/unused"]


class TestTreeAndMain:
    def test_shipping_tree_is_clean(self):
        src_root = Path(lint.__file__).resolve().parent.parent
        assert list(lint_tree(src_root)) == []

    def test_tests_import_only_what_they_use(self):
        """``python -m repro.lint`` scans ``src`` only; ``import/unused``
        also holds for the tests, which CI's ruff leg checks too.  The
        other rules guard ``src/repro``'s invariants, not the tests'."""
        tests_root = Path(__file__).resolve().parent
        unused = [f.describe() for f in lint_tree(tests_root)
                  if f.rule == "import/unused"]
        assert unused == []

    def test_main_reports_and_counts(self, tmp_path, capsys):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "bad.py").write_text(
            "import random\nrandom.seed(0)\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "rng/stdlib-random" in out
        assert "1 finding(s)" in out

    def test_main_clean_exits_zero(self, tmp_path, capsys):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "good.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_syntax_error_reported_not_raised(self, tmp_path):
        rules = run(tmp_path, "repro/broken.py", "def f(:\n")
        assert rules == ["parse/syntax-error"]
