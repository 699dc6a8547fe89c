"""The engine contract and registry.

An engine builds *executors*: objects duck-typed like
:class:`repro.functional.Executor` — ``run(sink=None) -> MachineState``
plus ``state``/``retired``/``consumed_values`` — for one program.
Every engine runs every program under every attachment (PBS, sinks,
consumed-value recording); there is no tier to fall back to.
"""

from __future__ import annotations

from typing import List, Type, Union

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


#: The tier a run without an engine directive uses.  The interpreter
#: stays the readable reference every tier is checked against.
DEFAULT_ENGINE = "compiled"

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


def create_engine(engine: Union[str, Engine, None], **options) -> Engine:
    """Resolve an engine argument to an instance.

    A string is looked up in the registry, ``None`` names
    :data:`DEFAULT_ENGINE`; an :class:`Engine` instance passes through
    untouched.  Options the engine does not accept raise
    ``TypeError`` naming the valid ones.
    """
    if isinstance(engine, Engine):
        return engine
    if engine is None:
        engine = DEFAULT_ENGINE
    cls = ENGINES.get(engine)
    validate_options("engine", engine, cls, options)
    return cls(**options)
