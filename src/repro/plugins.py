"""Plugin registries: the extension mechanism behind :mod:`repro.api`.

One tiny, dependency-free module that every subsystem can import without
cycles.  A :class:`PluginRegistry` maps names to plugins (target programs,
emulator engines, hardening passes, speculation models) and enforces the
two contracts the facade's error messages rely on:

* registering a duplicate name raises :class:`DuplicatePluginError`, and
* looking up an unknown name raises :class:`UnknownPluginError` whose
  message lists every valid option.

The concrete registries live here too, but the *registrations* happen in
the subsystems that own the plugins (``repro.runtime.fastpath`` registers
the engines, ``repro.hardening.passes`` the mitigation strategies,
``repro.specmodels`` the speculation models, and each module under
``repro.targets`` its workload).  Third-party code extends the system with
the decorators re-exported by :mod:`repro.api`::

    from repro.api import TargetProgram, register_target

    @register_target
    def my_workload():
        return TargetProgram(name="mine", source=MINI_C, seeds=[b"hi"])

:class:`UnknownPluginError` subclasses both :class:`KeyError` and
:class:`ValueError` because the registries replaced ad-hoc tables that
raised one or the other; every pre-existing ``except`` clause keeps
working.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional


class PluginError(ValueError):
    """Base class for registry misuse (bad names, bad plugin types)."""


class DuplicatePluginError(PluginError):
    """Raised when a plugin name is registered twice without ``replace``."""


class UnknownPluginError(KeyError, ValueError):
    """An unknown plugin name; the message lists the valid options."""

    def __init__(self, kind: str, name: str, available: List[str]) -> None:
        options = ", ".join(available) if available else "(none registered)"
        self.kind = kind
        self.name = name
        self.available = list(available)
        super().__init__(f"unknown {kind} {name!r}; available: {options}")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class PluginRegistry:
    """A named plugin table with duplicate rejection and helpful lookups."""

    def __init__(self, kind: str) -> None:
        #: human-readable plugin kind, used in every error message.
        self.kind = kind
        self._plugins: Dict[str, object] = {}

    def register(self, name: str, plugin: object, replace: bool = False):
        """Register ``plugin`` under ``name``; returns the plugin.

        Raises:
            DuplicatePluginError: if the name is taken and not ``replace``.
            PluginError: if the name is not a non-empty string.
        """
        if not isinstance(name, str) or not name:
            raise PluginError(
                f"{self.kind} name must be a non-empty string, got {name!r}")
        if name in self._plugins and not replace:
            raise DuplicatePluginError(
                f"{self.kind} {name!r} already registered")
        self._plugins[name] = plugin
        return plugin

    def unregister(self, name: str) -> None:
        """Remove a plugin (tests, hot-reload); unknown names raise."""
        if name not in self._plugins:
            raise UnknownPluginError(self.kind, name, self.names())
        del self._plugins[name]

    def get(self, name: str):
        """Look up a plugin by name.

        Raises:
            UnknownPluginError: (a ``KeyError`` *and* ``ValueError``) whose
                message lists every registered name.
        """
        try:
            return self._plugins[name]
        except KeyError:
            raise UnknownPluginError(self.kind, name, self.names()) from None

    def names(self) -> List[str]:
        """Registered plugin names, sorted."""
        return sorted(self._plugins)

    def add(self, name: str, replace: bool = False) -> Callable:
        """Decorator form of :meth:`register`::

            @REGISTRY.add("fast")
            def resolver(): ...
        """
        def decorator(plugin):
            return self.register(name, plugin, replace=replace)
        return decorator

    def __contains__(self, name: object) -> bool:
        return name in self._plugins

    def __len__(self) -> int:
        return len(self._plugins)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"<PluginRegistry {self.kind}: {', '.join(self.names())}>"


# ---------------------------------------------------------------------------
# The concrete registries (populated by the owning subsystems at import time)
# ---------------------------------------------------------------------------

#: Emulator engines: name -> zero-arg resolver returning
#: ``(emulator class, speculation-controller class)``.  Populated by
#: :mod:`repro.runtime.fastpath`.
ENGINE_REGISTRY = PluginRegistry("emulator engine")

#: The engine every ``engine=`` knob and ``--engine`` flag defaults to.
#: Engines are result-invariant; the block-compiled ``jit`` engine is the
#: fastest on every layer of the instrumented fuzz loop.
DEFAULT_ENGINE = "jit"

#: Hardening strategies: name -> factory ``(sites) -> RewritePass``.
#: Populated by :mod:`repro.hardening.passes`.
PASS_REGISTRY = PluginRegistry("hardening strategy")

#: Speculation models: name -> zero-arg factory returning a fresh
#: :class:`repro.specmodels.base.SpeculationModel` instance.  Populated by
#: :mod:`repro.specmodels` (pht, btb, rsb, stl).
MODEL_REGISTRY = PluginRegistry("speculation model")


def target_registry():
    """The workload-target registry (importing it populates the built-ins)."""
    import repro.targets  # noqa: F401  (registers the paper's workloads)
    from repro.targets.base import REGISTRY

    return REGISTRY


# ---------------------------------------------------------------------------
# Registration decorators (the public ``@register_*`` surface)
# ---------------------------------------------------------------------------

def register_target(target=None, *, replace: bool = False):
    """Register a workload target.

    Works directly on a :class:`~repro.targets.base.TargetProgram`::

        register_target(TargetProgram(name="mine", source=SRC, seeds=[b""]))

    or as a decorator on a zero-argument factory, which is called once at
    decoration time (the decorated name is rebound to the produced
    target)::

        @register_target
        def my_workload():
            return TargetProgram(name="mine", source=SRC, seeds=[b""])
    """
    def _register(obj):
        from repro.targets.base import TargetProgram

        produced = obj
        if not isinstance(produced, TargetProgram) and callable(produced):
            produced = produced()
        if not isinstance(produced, TargetProgram):
            raise PluginError(
                "register_target expects a TargetProgram or a factory "
                f"returning one, got {type(produced).__name__}")
        target_registry().register(produced, replace=replace)
        return produced

    if target is None:
        return _register
    return _register(target)


def register_engine(name: str, resolver: Optional[Callable] = None,
                    replace: bool = False):
    """Register an emulator engine under ``name``.

    The plugin is a zero-argument resolver returning the engine's
    ``(emulator class, speculation-controller class)`` pair; resolution is
    deferred so engine modules can avoid import cycles::

        @register_engine("fast")
        def _fast():
            return FastEmulator, JournalingSpeculationController
    """
    def decorator(fn):
        return ENGINE_REGISTRY.register(name, fn, replace=replace)

    if resolver is None:
        return decorator
    return decorator(resolver)


def register_pass(name: str, factory: Optional[Callable] = None,
                  replace: bool = False):
    """Register a hardening strategy under ``name``.

    The plugin is a factory taking the gadget-site sequence and returning a
    :class:`~repro.rewriting.passes.RewritePass`; a pass class whose
    constructor takes ``(sites)`` can be decorated directly::

        @register_pass("fence")
        class FenceAtSitePass(RewritePass): ...
    """
    def decorator(fn):
        return PASS_REGISTRY.register(name, fn, replace=replace)

    if factory is None:
        return decorator
    return decorator(factory)


def register_model(name: str, factory: Optional[Callable] = None,
                   replace: bool = False):
    """Register a speculation model under ``name``.

    The plugin is a zero-argument factory returning a fresh (stateful)
    :class:`~repro.specmodels.base.SpeculationModel`; a model class whose
    constructor takes no required arguments can be decorated directly::

        @register_model("btb")
        class BtbModel(SpeculationModel): ...
    """
    def decorator(fn):
        return MODEL_REGISTRY.register(name, fn, replace=replace)

    if factory is None:
        return decorator
    return decorator(factory)


def engine_names() -> List[str]:
    """Registered emulator-engine names (import the runtime to populate)."""
    import repro.runtime.fastpath  # noqa: F401  (registers built-ins)

    return ENGINE_REGISTRY.names()


def strategy_names() -> List[str]:
    """Registered hardening-strategy names."""
    import repro.hardening.passes  # noqa: F401  (registers built-ins)

    return PASS_REGISTRY.names()


def model_names() -> List[str]:
    """Registered speculation-model names (import populates built-ins)."""
    import repro.specmodels  # noqa: F401  (registers pht/btb/rsb/stl)

    return MODEL_REGISTRY.names()


def target_names() -> List[str]:
    """Registered workload-target names."""
    return target_registry().names()
