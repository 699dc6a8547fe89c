"""The engine contract and registry.

An engine builds *executors*: objects duck-typed like
:class:`repro.functional.Executor` — ``run(sink=None) -> MachineState``
plus ``state``/``retired``/``consumed_values`` — for one program.
Every engine runs every program under every attachment (PBS, sinks,
consumed-value recording); there is no tier to fall back to.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type, Union

from ..sim.registry import Registry, validate_options


class Engine:
    """One execution tier.

    Engines are cheap, reusable and stateless across runs except for
    per-call bookkeeping (:attr:`last_cache_hit`); a Session may build
    one per run or share one across a sweep.
    """

    #: Registry name (set by :func:`register_engine`).
    name: str = "?"
    #: True when the engine's most recent run was served from a warm
    #: artifact cache (e.g. compiled code already generated).
    last_cache_hit: bool = False

    def executor(
        self,
        program,
        *,
        seed: int = 0,
        pbs=None,
        record_consumed: bool = False,
    ):
        """An executor for ``program`` (duck-typed like
        :class:`repro.functional.Executor`)."""
        raise NotImplementedError


#: name -> Engine subclass (see :func:`register_engine`).
ENGINES = Registry("engine", catalog="registered engines")


def register_engine(name: str, *, replace: bool = False):
    """Class decorator registering an :class:`Engine` under ``name``.

    Duplicate names raise ``ValueError``; pass ``replace=True`` to
    deliberately override a built-in tier.
    """

    def decorator(cls: Type[Engine]) -> Type[Engine]:
        cls.name = name
        ENGINES.register(name, cls, replace=replace)
        return cls

    return decorator


def engine_names() -> List[str]:
    """Registered engine names, in registration order."""
    return list(ENGINES)


def get_engine(name: str) -> Type[Engine]:
    """The registered :class:`Engine` subclass for ``name``."""
    return ENGINES.get(name)


def list_engines() -> List[str]:
    """Uniform ``list_*`` alias for :func:`engine_names`."""
    return engine_names()


def create_engine(engine: Union[str, Engine], **options) -> Engine:
    """Resolve an engine argument to an instance.

    A string is looked up in the registry; an :class:`Engine` instance
    passes through untouched.  Options the engine does not accept raise
    ``TypeError`` naming the valid ones.
    """
    if isinstance(engine, Engine):
        return engine
    cls = ENGINES.get(engine)
    validate_options("engine", engine, cls, options)
    return cls(**options)


#: Process-wide default engine directive, set by the CLI's ``run
#: --engine`` so experiment modules pick up the tier without every
#: artefact function growing an ``engine`` parameter.
_DEFAULT: Optional[Tuple[str, Dict]] = None


def set_default_engine(name: Optional[str], **options) -> None:
    """Set (or clear, with ``None``) the process-wide default engine.

    Sessions without an explicit ``.engine(...)`` call use the default;
    ``None`` restores the direct interpreter path.
    """
    global _DEFAULT
    if name is None:
        _DEFAULT = None
    else:
        get_engine(name)  # fail fast on unknown names
        _DEFAULT = (name, dict(options))


def default_engine() -> Optional[Tuple[str, Dict]]:
    """The process-wide ``(name, options)`` default, or ``None``."""
    return _DEFAULT
