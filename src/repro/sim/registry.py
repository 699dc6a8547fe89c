"""Decorator-based plugin registries for workloads and predictors.

Scenarios register themselves at import time instead of being hardwired
into central tuples::

    @register_workload(order=6)
    class PiWorkload(Workload):
        name = "pi"
        ...

    @register_predictor("tage-sc-l", baseline=True)
    class TageSCL(BranchPredictor):
        ...

All five of the package's registries — workloads, predictors, executors
(:mod:`repro.sim.executors`), analysis passes (:mod:`repro.analysis`)
and execution engines (:mod:`repro.engines`) — are instances of one
:class:`Registry` helper defined here, so they share the same
ergonomics: ``register_*`` raises on duplicate names (pass
``replace=True`` to override deliberately), ``get_*``/``*_names`` raise
and list with identical shapes, and every unknown-name error names the
registered alternatives.

This module is intentionally dependency-free (no imports from the rest of
:mod:`repro`) so any package — workloads, predictors, external plugins —
can import it without cycles.  The registries preserve a stable listing
order: entries registered with an explicit ``order`` come first (sorted by
it), later unordered registrations append in import order.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Tuple

#: Sentinel distinguishing "no default given" from an explicit ``None``.
_MISSING = object()

_bootstrapped = False


def _bootstrap() -> None:
    """Import the built-in workload and predictor packages once, so their
    ``@register_*`` decorators run before the first registry lookup."""
    global _bootstrapped
    if _bootstrapped:
        return
    _bootstrapped = True
    from .. import branch, workloads  # noqa: F401  (import side effect)


class Registry:
    """One name → entry registry, shared by all five plugin families.

    The mapping protocol mirrors a plain dict of ``name -> object``
    (``in``, ``len``, ``[...]``, iteration in listing order), so code
    written against the historical ``EXECUTORS``/``ANALYSES`` dicts
    keeps working unchanged.

    ``catalog`` is the phrase used to introduce the known names in
    unknown-name errors (``"available"``, ``"registered backends"``,
    ...), preserving each family's historical error text.
    """

    def __init__(
        self,
        kind: str,
        *,
        catalog: str = "available",
        bootstrap: Optional[Callable[[], None]] = None,
    ):
        self.kind = kind
        self.catalog = catalog
        self._bootstrap = bootstrap
        #: name -> (registered object, listing sort key).  Exposed to the
        #: domain modules (e.g. as ``_WORKLOADS``) for surgical cleanup
        #: in tests; everyday code goes through the methods.
        self.entries: Dict[str, Tuple[object, Tuple[int, int]]] = {}
        self._seq = 0

    def _boot(self) -> None:
        if self._bootstrap is not None:
            self._bootstrap()

    def register(
        self,
        name: str,
        obj,
        *,
        order: Optional[int] = None,
        replace: bool = False,
    ):
        """Add ``obj`` under ``name``.  Duplicate names raise unless
        ``replace=True`` — a silent latest-wins override is how two
        plugins end up fighting over one name without anyone noticing."""
        if not name or not isinstance(name, str):
            raise ValueError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        if not replace and name in self.entries:
            if self._same_definition(self.entries[name][0], obj):
                # The module was executed twice under different names —
                # ``python -m repro.sim.remote`` runs it both as itself
                # (via the package import) and as ``__main__``.  The
                # re-execution is idempotent: keep the first entry.
                return self.entries[name][0]
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                "pass replace=True to override it"
            )
        self._seq += 1
        sort_key = (0, order) if order is not None else (1, self._seq)
        self.entries[name] = (obj, sort_key)
        return obj

    @staticmethod
    def _same_definition(existing, candidate) -> bool:
        """Same qualified name defined in the same source file — the
        signature of one definition imported twice, not two plugins
        fighting over a name."""
        try:
            return (
                existing is not candidate
                and getattr(existing, "__qualname__", None)
                == getattr(candidate, "__qualname__", object())
                and inspect.getfile(existing) == inspect.getfile(candidate)
            )
        except TypeError:  # builtins / objects without source files
            return False

    def get(self, name: str):
        """The object registered under ``name`` (KeyError lists the rest)."""
        self._boot()
        try:
            return self.entries[name][0]
        except KeyError:
            known = ", ".join(self.names())
            raise KeyError(
                f"unknown {self.kind} {name!r}; {self.catalog}: {known}"
            ) from None

    def names(self) -> List[str]:
        """Registered names: explicit ``order`` first, then import order."""
        self._boot()
        return [
            name
            for name, (_, key) in sorted(
                self.entries.items(), key=lambda kv: kv[1][1]
            )
        ]

    # -- mapping protocol (drop-in for the historical plain dicts) ------
    def __getitem__(self, name: str):
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        self._boot()
        return name in self.entries

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        self._boot()
        return len(self.entries)

    def __delitem__(self, name: str) -> None:
        del self.entries[name]

    def pop(self, name: str, default=_MISSING):
        """Remove ``name``, returning the registered object (dict-style)."""
        entry = self.entries.pop(name, _MISSING)
        if entry is _MISSING:
            if default is _MISSING:
                raise KeyError(name)
            return default
        return entry[0]


def validate_options(kind: str, name: str, cls, options: Dict,
                     *, reserved: Tuple[str, ...] = ()) -> None:
    """Reject constructor ``options`` the backend does not accept.

    ``create_executor``/``create_engine`` forward ``**options`` to the
    registered class; without this check a typo (``worker=`` for
    ``workers=``) surfaces as a bare ``TypeError`` from ``__init__``
    naming no alternatives — or worse, lands in a ``**kwargs`` sink and
    is silently ignored.  ``reserved`` names arguments the factory fills
    in itself (e.g. ``processes``).
    """
    if cls.__init__ is object.__init__:
        # No constructor at all: object.__init__'s ``*args, **kwargs``
        # signature would read as "takes anything" when it takes nothing.
        parameters = {}
    else:
        try:
            parameters = inspect.signature(cls.__init__).parameters
        except (TypeError, ValueError):  # builtins without signatures
            return
        if any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        ):
            return  # the backend explicitly takes anything
    valid = sorted(
        parameter_name
        for parameter_name, parameter in parameters.items()
        if parameter_name != "self"
        and parameter_name not in reserved
        and parameter.kind is not inspect.Parameter.VAR_POSITIONAL
    )
    unknown = sorted(set(options) - set(valid))
    if unknown:
        accepted = ", ".join(valid) if valid else "none"
        raise TypeError(
            f"unknown option(s) {', '.join(unknown)} for {kind} {name!r}; "
            f"valid options: {accepted}"
        )


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
WORKLOADS = Registry("workload", bootstrap=_bootstrap)
#: Backing dict (name -> (class, sort key)) — kept under the historical
#: name so tests can surgically drop probe registrations.
_WORKLOADS = WORKLOADS.entries
_WORKLOAD_INSTANCES: Dict[str, object] = {}


def register_workload(
    cls: Optional[type] = None,
    *,
    order: Optional[int] = None,
    replace: bool = False,
):
    """Class decorator: add a :class:`~repro.workloads.base.Workload` to
    the global registry under its ``name`` attribute.

    ``order`` pins the position in :func:`workload_names` (the paper's
    Table II order); omitted, the workload lists after all ordered ones.
    Usable bare (``@register_workload``) or parameterized
    (``@register_workload(order=3)``).  Re-registering a name raises;
    a plugin that deliberately overrides a built-in passes
    ``replace=True``.
    """

    def decorate(workload_cls: type) -> type:
        name = getattr(workload_cls, "name", "")
        if not name:
            raise ValueError(
                f"workload class {workload_cls.__name__} needs a non-empty "
                "'name' attribute to be registered"
            )
        WORKLOADS.register(name, workload_cls, order=order, replace=replace)
        _WORKLOAD_INSTANCES.pop(name, None)
        return workload_cls

    if cls is not None:
        return decorate(cls)
    return decorate


def workload_names() -> List[str]:
    """All registered benchmark names, paper (Table II) order first."""
    return WORKLOADS.names()


def paper_workload_names() -> List[str]:
    """Only the paper's Table II benchmarks, in table order.

    Registered workloads with ``paper = None`` (ported kernels that join
    the differential/golden corpus but appear in no paper table) are
    excluded; the paper-figure experiments default to this list so their
    result shapes stay pinned to the paper's eight rows.
    """
    return [
        name
        for name in WORKLOADS.names()
        if getattr(get_workload(name), "paper", None) is not None
    ]


def workload_class(name: str) -> type:
    return WORKLOADS.get(name)


def get_workload(name: str):
    """The shared instance of workload ``name`` (instantiated lazily)."""
    if name not in _WORKLOAD_INSTANCES:
        _WORKLOAD_INSTANCES[name] = workload_class(name)()
    return _WORKLOAD_INSTANCES[name]


def all_workloads() -> List[object]:
    return [get_workload(name) for name in workload_names()]


# ----------------------------------------------------------------------
# Predictors.
# ----------------------------------------------------------------------
PREDICTORS = Registry("predictor", bootstrap=_bootstrap)
#: Backing dict (name -> ((factory, is_baseline), sort key)).
_PREDICTORS = PREDICTORS.entries


def register_predictor(
    name: str,
    *,
    baseline: bool = False,
    order: Optional[int] = None,
    replace: bool = False,
):
    """Decorator: register a zero-argument predictor factory under ``name``.

    ``baseline=True`` marks the paper's evaluated predictors (Section
    VI-B); experiments that do not name predictors explicitly run the
    baselines.  Applies to classes and plain factory callables alike.
    Duplicate names raise unless ``replace=True``.
    """

    def decorate(factory: Callable[[], object]) -> Callable[[], object]:
        PREDICTORS.register(
            name, (factory, baseline), order=order, replace=replace
        )
        return factory

    return decorate


def predictor_names(baseline_only: bool = False) -> List[str]:
    return [
        name
        for name in PREDICTORS.names()
        if not baseline_only or PREDICTORS.get(name)[1]
    ]


def baseline_predictors() -> Tuple[str, ...]:
    """The paper's evaluated predictor pair, in registration order."""
    return tuple(predictor_names(baseline_only=True))


def predictor_factory(name: str) -> Callable[[], object]:
    return PREDICTORS.get(name)[0]


def create_predictor(name: str):
    """Instantiate a fresh predictor by registry name."""
    return predictor_factory(name)()
