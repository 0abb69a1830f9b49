"""The problem registry: what it means to be a runnable problem.

The sleeping-model toolbox — LDT procedures, Transmission-Schedule blocks,
fragment broadcast/convergecast — is problem-agnostic, and so are the
orchestrator, the invariant-monitor plumbing, and the bench harness.  What
*is* problem-specific is the bundle of artifacts every layer needs to run
one problem end to end:

* the algorithm runners (``runner(graph, seed, **options) -> RunResult``)
  plus their canonical/alias names and diagnostic variants;
* a reference solver producing the ground-truth output on a graph;
* the invariant monitors that ``--monitors all`` should attach;
* the paper's awake-complexity bound, as prose.

A :class:`ProblemBundle` packages exactly that, and the module-level
registry (:func:`register_problem` / :func:`problem_bundle`) is the single
place drivers resolve a ``problem=`` axis — the CLI, ``JobSpec``, the
monitor spec resolver, and campaign grids all go through it, so
adding a problem (coloring, congested-clique MST, ...) is one new bundle
module, not a cross-layer surgery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

AlgorithmRunner = Callable[..., Any]

#: The problem every pre-bundle driver implicitly meant.  ``JobSpec``
#: payloads omit the ``problem`` key at this default, so MST-only specs
#: hash identically to before the problem axis existed.
DEFAULT_PROBLEM = "mst"


@dataclass(frozen=True)
class ProblemBundle:
    """Everything one problem contributes to the stack.

    Bundles are registered once at import time (:func:`register_problem`)
    and treated as immutable; the mappings they carry are shared with the
    legacy module-level tables in :mod:`repro.orchestrator.registry`, so
    the two views can never drift.
    """

    #: Registry key and the value of the ``problem=`` grid axis.
    name: str
    #: Human-readable problem name for tables and docs.
    title: str
    #: One-line description (shown by docs and the comparison table).
    description: str
    #: Canonical algorithm name -> runner.
    algorithms: Mapping[str, AlgorithmRunner]
    #: Lowercase CLI-style aliases -> canonical names.
    aliases: Mapping[str, str]
    #: The algorithm generic drivers default to.
    default_algorithm: str
    #: Label the CLI prints next to the output check
    #: (``"correct MST"``, ``"maximal independent set"``).
    check_label: str
    #: The paper's awake-complexity bound, as prose (``"O(log n)"``).
    awake_bound: str
    #: Runners resolvable by name but excluded from grids/tables
    #: (e.g. ``Crashing-MST`` for crash-isolation drills).
    diagnostic_algorithms: Mapping[str, AlgorithmRunner] = field(
        default_factory=dict
    )
    #: Ground-truth solver ``graph -> reference output`` (the unique MST
    #: edge set; *a* greedy MIS — reference outputs need not be unique).
    reference_solver: Optional[Callable[[Any], Any]] = None
    #: Monitor names ``--monitors all`` expands to for this problem (see
    #: :data:`repro.invariants.PROBLEM_MONITORS`, which mirrors this).
    monitors: Tuple[str, ...] = ()
    #: Names of this problem's benchmarks in :mod:`repro.bench.suites`.
    bench_names: Tuple[str, ...] = ()

    def resolve_algorithm(self, name: str) -> str:
        """Return the canonical name for ``name`` (alias or canonical).

        The error lists *every* resolvable name — the grid algorithms and
        the diagnostic ones — since both are accepted here.
        """
        canonical = self.aliases.get(name.lower(), name)
        if (
            canonical not in self.algorithms
            and canonical not in self.diagnostic_algorithms
        ):
            choices = sorted([*self.algorithms, *self.diagnostic_algorithms])
            raise ValueError(
                f"unknown algorithm {name!r} for problem {self.name!r}; "
                f"choose from {choices} or aliases {sorted(self.aliases)}"
            )
        return canonical

    def runner(self, name: str) -> AlgorithmRunner:
        """Return the runner for ``name`` (canonical or alias)."""
        canonical = self.resolve_algorithm(name)
        runner = self.algorithms.get(canonical)
        if runner is None:
            runner = self.diagnostic_algorithms[canonical]
        return runner


#: The registry.  Populated by the bundle modules at package import time;
#: iteration order is registration order (mst first).
PROBLEM_REGISTRY: Dict[str, ProblemBundle] = {}


def register_problem(bundle: ProblemBundle) -> ProblemBundle:
    """Register ``bundle``; re-registering the same name raises."""
    if bundle.name in PROBLEM_REGISTRY:
        raise ValueError(f"problem {bundle.name!r} is already registered")
    PROBLEM_REGISTRY[bundle.name] = bundle
    return bundle


def problem_names() -> Tuple[str, ...]:
    """The registered problem names, in registration order."""
    return tuple(PROBLEM_REGISTRY)


def resolve_problem(name: Optional[str]) -> str:
    """Validate a ``problem=`` value; ``None`` means :data:`DEFAULT_PROBLEM`."""
    if name is None:
        return DEFAULT_PROBLEM
    key = str(name).strip().lower()
    if not key:
        return DEFAULT_PROBLEM
    if key not in PROBLEM_REGISTRY:
        raise ValueError(
            f"unknown problem {name!r}; choose from {sorted(PROBLEM_REGISTRY)}"
        )
    return key


def problem_bundle(name: Optional[str] = None) -> ProblemBundle:
    """Return the bundle for ``name`` (default: :data:`DEFAULT_PROBLEM`)."""
    return PROBLEM_REGISTRY[resolve_problem(name)]
