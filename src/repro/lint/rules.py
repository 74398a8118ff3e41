"""The repo-specific invariant rules.

Each rule encodes a contract a past PR staked correctness on, so a
refactor that silently breaks the contract fails CI instead of failing
in a chaos drill (or in production) months later:

``raw-syscall``
    PR 7's fault-injection exhaustiveness: every syscall-adjacent
    operation in the durability/replication/serving stack must route
    through an injectable :class:`repro.faults.StorageIO`, with
    ``faults.py``/``io.py`` as the only blessed implementation sites.
``snapshot-completeness``
    PR 5's byte-identical recovery: a stateful class that serializes
    itself must serialize *every* ``__init__``-assigned attribute or
    declare it ``# lint: ephemeral`` — field drift is the classic way
    recovery silently diverges.
``epoch-bump``
    PR 2/3's memoization soundness: graph methods that mutate
    memo-backing structures must bump the mutation epoch on every
    mutating path, else stale cached tight-sets leak into selections.
``determinism``
    PR 4/9's equivalence suites: the engine core and WAL-replay path
    must be bit-deterministic — no wall clocks, unseeded RNGs, or
    environment reads (seeded ``random.Random(seed)`` is fine).
``blocking-in-async``
    PR 6's read-availability guarantee: nothing lexically inside an
    ``async def`` in the server/client may block the event loop.
``fault-site-coverage``
    PR 7's site catalog: every ``site=`` literal at an injection point
    must exist in :data:`repro.faults.FAULT_SITES`, and every cataloged
    site must be referenced — a typo'd site is silently uninjectable.
``hygiene-artifacts``
    Compiled artifacts (``__pycache__``/*.pyc) must never be committed
    under the source tree.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.framework import Finding, Rule, SourceUnit, call_name, scope_map

__all__ = [
    "BlockingInAsyncRule",
    "DeterminismRule",
    "EpochBumpRule",
    "FaultSiteCoverageRule",
    "HygieneArtifactsRule",
    "RawSyscallRule",
    "SnapshotCompletenessRule",
    "all_rules",
    "rule_ids",
]

_MUTATING_CONTAINER_METHODS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
}


def _self_attr(node: ast.AST) -> Optional[str]:
    """'x' when *node* is ``self.x`` (possibly behind a subscript)."""
    target = node
    if isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


# ---------------------------------------------------------------------------
# raw-syscall
# ---------------------------------------------------------------------------


class RawSyscallRule(Rule):
    id = "raw-syscall"
    title = "storage syscalls must route through StorageIO"
    rationale = (
        "Fault drills are exhaustive only if every WAL/checkpoint "
        "syscall goes through the injectable StorageIO shim (PR 7); a "
        "raw open/fsync/replace/truncate is invisible to fault plans."
    )
    paths = ("durability.py", "replication.py", "server.py", "tenant.py",
             "*/durability.py", "*/replication.py", "*/server.py",
             "*/tenant.py")
    blessed = ("faults.py", "io.py", "*/faults.py", "*/io.py")

    _OS_CALLS = {"open", "fdopen", "fsync", "fdatasync", "replace",
                 "truncate"}

    def check(self, unit: SourceUnit) -> Iterator[Finding]:
        scopes = scope_map(unit.tree)
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            flagged = None
            if name == "open":
                flagged = "open()"
            elif name.startswith("os.") and name[3:] in self._OS_CALLS:
                flagged = f"{name}()"
            elif name.endswith(".open") and not name.startswith("os."):
                flagged = f"{name}()"
            if flagged is None:
                continue
            yield Finding(
                rule=self.id,
                path=unit.path,
                line=node.lineno,
                scope=scopes.get(id(node), "<module>"),
                message=(
                    f"raw {flagged} bypasses the injectable StorageIO "
                    f"boundary; route it through repro.faults.StorageIO "
                    f"(blessed implementation sites: "
                    f"{', '.join(self.blessed[:2])})"
                ),
            )


# ---------------------------------------------------------------------------
# snapshot-completeness
# ---------------------------------------------------------------------------


class SnapshotCompletenessRule(Rule):
    id = "snapshot-completeness"
    title = "serialized classes must cover every __init__ attribute"
    rationale = (
        "Recovery is byte-identical only if every stateful field makes "
        "it into the snapshot (PR 5); an attribute added to __init__ "
        "but not to the serializer drifts silently until a restore "
        "diverges.  Derived or process-local fields are declared with "
        "'# lint: ephemeral'."
    )
    paths = ("*.py",)

    SERIALIZERS = ("state_dict", "snapshot_state", "_snapshot_extra")

    def check(self, unit: SourceUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            serializers = [
                methods[name] for name in self.SERIALIZERS if name in methods
            ]
            init = methods.get("__init__")
            if not serializers or init is None:
                continue
            covered: Set[str] = set()
            for serializer in serializers:
                for sub in ast.walk(serializer):
                    attr = _self_attr(sub)
                    if attr is not None:
                        covered.add(attr)
            for attr, line in self._init_attrs(init):
                if attr in covered:
                    continue
                if unit.is_ephemeral(line):
                    continue
                names = ", ".join(m.name for m in serializers)
                yield Finding(
                    rule=self.id,
                    path=unit.path,
                    line=line,
                    scope=f"{node.name}.__init__",
                    message=(
                        f"attribute self.{attr} is assigned in "
                        f"{node.name}.__init__ but never referenced by "
                        f"its serializer ({names}); serialize it or mark "
                        f"the assignment '# lint: ephemeral'"
                    ),
                )

    @staticmethod
    def _init_attrs(init: ast.FunctionDef) -> List[Tuple[str, int]]:
        """(attr, first assignment line) for every ``self.X = ...``."""
        seen: Dict[str, int] = {}
        for node in ast.walk(init):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                elts = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elts:
                    if (
                        isinstance(element, ast.Attribute)
                        and isinstance(element.value, ast.Name)
                        and element.value.id == "self"
                    ):
                        seen.setdefault(element.attr, element.lineno)
        return sorted(seen.items(), key=lambda item: (item[1], item[0]))


# ---------------------------------------------------------------------------
# epoch-bump
# ---------------------------------------------------------------------------

#: class name -> the memoization contract its mutators must honor.
EPOCH_CONTRACTS: Dict[str, Dict[str, object]] = {
    "ReducedGraph": {
        "bump_calls": {"_bump"},
        "bump_attrs": {"_epoch"},
        "memo_attrs": {
            "_active_bits", "_completed_bits", "_committed_bits", "_info",
        },
        "kernel_attr": "_closure",
        "kernel_mutators": {
            "add_node", "add_arc", "contract", "contract_recording",
            "uncontract", "remove_node_abort", "install_nodes",
            "extract_nodes",
        },
    },
    "BitClosureGraph": {
        "bump_calls": set(),
        "bump_attrs": {"_mutations"},
        "memo_attrs": {
            "_succ", "_pred", "_desc", "_anc", "_live", "_arc_count",
        },
        "kernel_attr": None,
        "kernel_mutators": set(),
    },
}


class EpochBumpRule(Rule):
    id = "epoch-bump"
    title = "memo-backing mutations must bump the mutation epoch"
    rationale = (
        "Tight-set queries and contraction records are memoized per "
        "mutation epoch (PRs 2-3); a mutating path that forgets to bump "
        "serves stale cached answers, which corrupts deletion decisions "
        "without any test failing locally."
    )
    paths = ("*.py",)

    def check(self, unit: SourceUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            contract = EPOCH_CONTRACTS.get(node.name)
            if contract is None:
                continue
            yield from self._check_class(unit, node, contract)

    def _check_class(
        self, unit: SourceUnit, cls: ast.ClassDef, contract: Dict[str, object]
    ) -> Iterator[Finding]:
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
        }
        mutates: Dict[str, str] = {}
        bumps: Dict[str, bool] = {}
        calls: Dict[str, Set[str]] = {}
        for name, method in methods.items():
            detail, bumped, callees = self._analyze(method, contract)
            if detail is not None:
                mutates[name] = detail
            bumps[name] = bumped
            calls[name] = callees
        callers: Dict[str, Set[str]] = {name: set() for name in methods}
        for name, callees in calls.items():
            for callee in callees:
                if callee in callers:
                    callers[callee].add(name)
        # A method is covered when it bumps itself, or when every
        # intra-class caller is covered (helpers inherit their callers'
        # bumps).  Fixpoint from "bumps directly".
        covered = {name: bumps[name] for name in methods}
        changed = True
        while changed:
            changed = False
            for name in methods:
                if covered[name]:
                    continue
                sources = callers[name]
                if sources and all(covered[c] for c in sources):
                    covered[name] = True
                    changed = True
        for name, detail in sorted(mutates.items()):
            if covered[name] or self._exempt(methods[name]):
                continue
            yield Finding(
                rule=self.id,
                path=unit.path,
                line=methods[name].lineno,
                scope=f"{cls.name}.{name}",
                message=(
                    f"{cls.name}.{name} mutates memo-backing state "
                    f"({detail}) without bumping the mutation epoch on "
                    f"that path (and no bumping caller covers it)"
                ),
            )

    @staticmethod
    def _exempt(method: ast.FunctionDef) -> bool:
        """Constructors build fresh unpublished objects; no bump needed."""
        if method.name == "__init__":
            return True
        for decorator in method.decorator_list:
            if isinstance(decorator, ast.Name) and decorator.id in (
                "classmethod", "staticmethod",
            ):
                return True
        return False

    @staticmethod
    def _analyze(
        method: ast.FunctionDef, contract: Dict[str, object]
    ) -> Tuple[Optional[str], bool, Set[str]]:
        memo_attrs: Set[str] = contract["memo_attrs"]  # type: ignore
        bump_calls: Set[str] = contract["bump_calls"]  # type: ignore
        bump_attrs: Set[str] = contract["bump_attrs"]  # type: ignore
        kernel_attr = contract["kernel_attr"]
        kernel_mutators: Set[str] = contract["kernel_mutators"]  # type: ignore
        detail: Optional[str] = None
        bumped = False
        callees: Set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    list(node.targets)
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    elts = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for element in elts:
                        attr = _self_attr(element)
                        if attr in bump_attrs:
                            bumped = True
                        elif attr in memo_attrs and detail is None:
                            detail = f"self.{attr}"
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr in memo_attrs and detail is None:
                        detail = f"del self.{attr}"
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                owner = func.value
                # self._bump()
                if (
                    isinstance(owner, ast.Name)
                    and owner.id == "self"
                    and func.attr in bump_calls
                ):
                    bumped = True
                    continue
                # self.helper(...) — intra-class call edge
                if isinstance(owner, ast.Name) and owner.id == "self":
                    callees.add(func.attr)
                    continue
                # self.<memo_attr>.pop(...) / self._closure.add_arc(...)
                owner_attr = _self_attr(owner)
                if owner_attr is None:
                    continue
                if (
                    owner_attr in memo_attrs
                    and func.attr in _MUTATING_CONTAINER_METHODS
                    and detail is None
                ):
                    detail = f"self.{owner_attr}.{func.attr}()"
                elif (
                    kernel_attr is not None
                    and owner_attr == kernel_attr
                    and func.attr in kernel_mutators
                    and detail is None
                ):
                    detail = f"self.{kernel_attr}.{func.attr}()"
        return detail, bumped, callees


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class DeterminismRule(Rule):
    id = "determinism"
    title = "no nondeterminism in the engine core or WAL-replay path"
    rationale = (
        "Shard-vs-monolith, crash-recovery, and replica lockstep suites "
        "all assert byte-identical state (PRs 4-9); a wall-clock read, "
        "unseeded RNG, or environment read in the core makes replicas "
        "diverge in ways no fixed-seed test can catch.  Seeded "
        "random.Random(seed) is allowed; deliberate out-of-band uses "
        "carry a '# lint: allow(determinism)' pragma."
    )
    paths = (
        "engine.py", "sharding.py", "tracking.py", "durability.py",
        "replication.py", "core/*.py", "graphs/*.py", "scheduler/*.py",
        "model/*.py",
        "*/engine.py", "*/sharding.py", "*/tracking.py", "*/durability.py",
        "*/replication.py", "*/core/*.py", "*/graphs/*.py",
        "*/scheduler/*.py", "*/model/*.py",
    )

    _TIME_CALLS = {
        "time", "monotonic", "perf_counter", "time_ns", "monotonic_ns",
        "perf_counter_ns",
    }
    _DATETIME_CALLS = {"now", "utcnow", "today"}

    def check(self, unit: SourceUnit) -> Iterator[Finding]:
        scopes = scope_map(unit.tree)
        for node in ast.walk(unit.tree):
            message = None
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name.startswith("time.") and name[5:] in self._TIME_CALLS:
                    message = (
                        f"wall-clock read {name}() in the deterministic "
                        f"core; derive ordering from step/WAL sequence "
                        f"numbers instead"
                    )
                elif name == "random.Random" and not (
                    node.args or node.keywords
                ):
                    message = (
                        "unseeded random.Random() in the deterministic "
                        "core; pass an explicit seed"
                    )
                elif name.startswith("random.") and name != "random.Random":
                    message = (
                        f"module-level RNG {name}() shares global state; "
                        f"use a seeded random.Random(seed) instance"
                    )
                elif name in ("os.urandom", "os.getenv"):
                    message = (
                        f"{name}() makes core behavior depend on the "
                        f"process environment"
                    )
                elif name.startswith(("uuid.", "secrets.")):
                    message = (
                        f"{name}() is nondeterministic; derive ids from "
                        f"the step stream"
                    )
                elif (
                    name.split(".")[-1] in self._DATETIME_CALLS
                    and "datetime" in name.split(".")
                ):
                    message = (
                        f"wall-clock read {name}() in the deterministic "
                        f"core"
                    )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                message = (
                    "os.environ read makes core behavior depend on the "
                    "process environment"
                )
            if message is None:
                continue
            yield Finding(
                rule=self.id,
                path=unit.path,
                line=node.lineno,
                scope=scopes.get(id(node), "<module>"),
                message=message,
            )


# ---------------------------------------------------------------------------
# blocking-in-async
# ---------------------------------------------------------------------------


class BlockingInAsyncRule(Rule):
    id = "blocking-in-async"
    title = "no blocking calls lexically inside async def"
    rationale = (
        "The serving layer promises reads keep answering while writers "
        "drain (PR 6); one time.sleep or synchronous file/socket call "
        "inside a coroutine stalls every tenant on the loop.  Blocking "
        "work belongs in run_in_executor."
    )
    paths = ("server.py", "client.py", "tenant.py",
             "*/server.py", "*/client.py", "*/tenant.py")

    _BLOCKING = {
        "time.sleep": "time.sleep() blocks the event loop; use "
                      "asyncio.sleep()",
        "os.fsync": "os.fsync() blocks the event loop; run it in an "
                    "executor",
        "os.fdatasync": "os.fdatasync() blocks the event loop; run it in "
                        "an executor",
        "open": "synchronous open() blocks the event loop; run file I/O "
                "in an executor",
        "os.open": "synchronous os.open() blocks the event loop; run "
                   "file I/O in an executor",
        "socket.socket": "raw blocking socket inside a coroutine; use "
                         "asyncio streams",
        "socket.create_connection": "blocking connect inside a "
                                    "coroutine; use asyncio.open_connection",
        "subprocess.run": "subprocess.run() blocks the event loop; use "
                          "asyncio.create_subprocess_exec",
        "subprocess.check_output": "blocking subprocess call inside a "
                                   "coroutine",
    }

    def check(self, unit: SourceUnit) -> Iterator[Finding]:
        scopes = scope_map(unit.tree)
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for sub in self._async_body(node):
                if not isinstance(sub, ast.Call):
                    continue
                name = call_name(sub)
                reason = self._BLOCKING.get(name)
                if reason is None and name.endswith(".open") and not (
                    name.startswith("os.")
                ):
                    reason = (
                        f"synchronous {name}() blocks the event loop; "
                        f"run file I/O in an executor"
                    )
                if reason is None:
                    continue
                yield Finding(
                    rule=self.id,
                    path=unit.path,
                    line=sub.lineno,
                    scope=scopes.get(id(sub), "<module>"),
                    message=reason,
                )

    @staticmethod
    def _async_body(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Walk the coroutine body, stopping at nested function scopes
        (nested defs/lambdas typically run in executors, and nested
        ``async def`` are visited on their own)."""
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# fault-site-coverage
# ---------------------------------------------------------------------------


class FaultSiteCoverageRule(Rule):
    id = "fault-site-coverage"
    title = "fault-site literals and the FAULT_SITES catalog must agree"
    rationale = (
        "A site string passed to check()/fire()/FaultSpec(site=...) "
        "that is not in repro.faults.FAULT_SITES is silently "
        "uninjectable (the plan counts occurrences of a site nothing "
        "ever reaches), and a cataloged site nothing references is dead "
        "coverage the chaos suite believes it has."
    )
    paths = ("*.py",)
    project_wide = True

    def check_project(
        self, units: List[SourceUnit], root: Optional[pathlib.Path]
    ) -> Iterator[Finding]:
        catalog: Dict[str, int] = {}
        catalog_unit: Optional[SourceUnit] = None
        for unit in units:
            if unit.path == "faults.py" or unit.path.endswith("/faults.py"):
                catalog = self._catalog(unit)
                catalog_unit = unit
                break
        if catalog_unit is None or not catalog:
            return
        referenced: Set[str] = set()
        for unit in units:
            scopes = scope_map(unit.tree)
            for node in ast.walk(unit.tree):
                if not isinstance(node, ast.Call):
                    continue
                for site, line in self._site_literals(node):
                    referenced.add(site)
                    if site not in catalog:
                        yield Finding(
                            rule=self.id,
                            path=unit.path,
                            line=line,
                            scope=scopes.get(id(node), "<module>"),
                            message=(
                                f"fault site {site!r} is not in the "
                                f"FAULT_SITES catalog; a typo'd site is "
                                f"silently uninjectable"
                            ),
                        )
        for site, line in sorted(catalog.items()):
            if site in referenced:
                continue
            yield Finding(
                rule=self.id,
                path=catalog_unit.path,
                line=line,
                scope="FAULT_SITES",
                message=(
                    f"cataloged fault site {site!r} is never referenced "
                    f"at any injection point (check()/fire()/"
                    f"FaultSpec(site=...)); dead catalog entries are "
                    f"coverage the chaos suite believes it has"
                ),
            )

    @staticmethod
    def _catalog(unit: SourceUnit) -> Dict[str, int]:
        """site -> line of its FAULT_SITES entry."""
        for node in ast.walk(unit.tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            if not any(
                isinstance(t, ast.Name) and t.id == "FAULT_SITES"
                for t in targets
            ):
                continue
            value = node.value
            if not isinstance(value, ast.Dict):
                continue
            catalog: Dict[str, int] = {}
            for key in value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    catalog[key.value] = key.lineno
            return catalog
        return {}

    @staticmethod
    def _site_literals(node: ast.Call) -> Iterator[Tuple[str, int]]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("check", "fire")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value, node.args[0].lineno
        for keyword in node.keywords:
            if (
                keyword.arg == "site"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
            ):
                yield keyword.value.value, keyword.value.lineno


# ---------------------------------------------------------------------------
# hygiene-artifacts
# ---------------------------------------------------------------------------


class HygieneArtifactsRule(Rule):
    id = "hygiene-artifacts"
    title = "no compiled artifacts committed under the source tree"
    rationale = (
        "Committed __pycache__/*.pyc files shadow source edits on "
        "mismatched interpreters and bloat every checkout; bytecode is "
        "a build artifact, never source."
    )
    paths = ()
    project_wide = True

    def check_project(
        self, units: List[SourceUnit], root: Optional[pathlib.Path]
    ) -> Iterator[Finding]:
        if root is None:
            return
        for rel in self._tracked(pathlib.Path(root)):
            posix = rel.replace("\\", "/")
            if posix.endswith(".pyc") or "__pycache__" in posix.split("/"):
                yield Finding(
                    rule=self.id,
                    path=posix,
                    line=1,
                    scope="<repo>",
                    message=(
                        "compiled artifact is tracked by git; remove it "
                        "and rely on the .gitignore __pycache__/ rule"
                    ),
                )

    @staticmethod
    def _tracked(root: pathlib.Path) -> List[str]:
        """Git-tracked paths under *root*; empty when git is unavailable
        (the rule is advisory outside a checkout)."""
        try:
            output = subprocess.run(
                ["git", "ls-files", "-z", "--", str(root)],
                cwd=str(root),
                capture_output=True,
                timeout=30,
                check=True,
            ).stdout
        except (OSError, subprocess.SubprocessError):
            return []
        return [
            entry.decode("utf-8", errors="replace")
            for entry in output.split(b"\0")
            if entry
        ]


def all_rules() -> List[Rule]:
    """Every rule, in stable id order (the registry the CLI exposes)."""
    rules = [
        RawSyscallRule(),
        SnapshotCompletenessRule(),
        EpochBumpRule(),
        DeterminismRule(),
        BlockingInAsyncRule(),
        FaultSiteCoverageRule(),
        HygieneArtifactsRule(),
    ]
    return sorted(rules, key=lambda rule: rule.id)


def rule_ids() -> List[str]:
    return [rule.id for rule in all_rules()]
