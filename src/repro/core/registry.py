"""One pluggable registry protocol for every name→thing table in the tree.

Before this module each layer grew its own ad-hoc dict — ``cat.registry``
had ``_SOURCES`` + a hand-rolled ``normalise``, ``asm.isa`` had
``_ISA_REGISTRY``, ``tools.diy`` had ``_SHAPES``, ``compiler.profiles``
had ``_EPOCH_BUGS`` — each with different lookup errors, no alias story,
and process-global mutable state that multi-tenant callers (sessions
registering private models) would trample.  :class:`Registry` is the one
protocol they all speak now:

* **decorator or direct registration** — ``@reg.register("name")`` on a
  factory/class, or ``reg.register("name", value)``;
* **name normalisation** — a per-registry hook (case folding, suffix
  stripping) applied to every name at registration and lookup;
* **aliases** — alternate spellings resolving to a canonical entry
  (``x86-tso`` → ``x86tso``), listed in the entry's metadata;
* **did-you-mean errors** — unknown names raise the registry's own error
  class naming the closest matches;
* **per-session overlays** — ``reg.overlay()`` returns a child registry
  whose registrations shadow the parent without mutating it, so embedders
  can plug in private entries per :class:`repro.api.Session`.
"""

from __future__ import annotations

import difflib
import threading
from typing import (
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

T = TypeVar("T")


class RegistryError(KeyError):
    """An unknown name was looked up (default error class).

    Subclasses ``KeyError`` so registry lookups still behave like dict
    lookups to exception handlers, but carries a readable message (plain
    ``KeyError`` quotes its args, mangling multi-line suggestions).
    """

    def __str__(self) -> str:  # KeyError repr()s its message otherwise
        return self.args[0] if self.args else ""


def default_normalise(name: str) -> str:
    """Case-insensitive, whitespace-tolerant names."""
    return name.strip().lower()


class Registry(Generic[T]):
    """A named table of ``str → T`` with aliases, overlays and metadata.

    ``kind`` names what is being registered ("model", "shape", …) and
    shapes every error message.  ``error`` is the exception class raised
    for unknown names — layers keep their historical error types
    (``ModelError``, ``IsaError``…) by passing them here.
    """

    def __init__(
        self,
        kind: str,
        *,
        normalise: Callable[[str], str] = default_normalise,
        error: Type[Exception] = RegistryError,
        parent: Optional["Registry[T]"] = None,
    ) -> None:
        self.kind = kind
        self.error = error
        self._normalise = normalise
        self._parent = parent
        self._entries: Dict[str, T] = {}
        self._aliases: Dict[str, str] = {}
        self._meta: Dict[str, Dict[str, object]] = {}
        self._lock = threading.Lock()
        #: bumped by every :meth:`register` and :meth:`alias`, so a holder
        #: of a snapshot of this table (a forked worker process) can tell
        #: that it went stale
        self.generation = 0

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        value: Optional[T] = None,
        *,
        aliases: Tuple[str, ...] = (),
        **meta: object,
    ):
        """Register ``value`` under ``name`` (plus ``aliases``).

        With a value, registers immediately and returns the value (so
        ``ISA = reg.register("x86", X86())`` keeps working).  Without one
        it returns a decorator::

            @MODELS.register("rc11", doc="the repaired C11 model")
            def rc11_source() -> str: ...
        """
        if value is None:
            def decorator(obj: T) -> T:
                self.register(name, obj, aliases=aliases, **meta)
                return obj
            return decorator
        key = self._normalise(name)
        with self._lock:
            self._entries[key] = value
            self._meta[key] = dict(meta)
            for alias in aliases:
                self._aliases[self._normalise(alias)] = key
            self.generation += 1
        return value

    def alias(self, alias: str, target: str) -> None:
        """Make ``alias`` resolve to the (already resolvable) ``target``."""
        key = self.resolve(target)
        with self._lock:
            self._aliases[self._normalise(alias)] = key
            self.generation += 1

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def resolve(self, name: str) -> str:
        """The canonical key ``name`` refers to, or raise with suggestions."""
        key = self._try_resolve(name)
        if key is None:
            raise self.error(self._unknown_message(name))
        return key

    def _try_resolve(self, name: str) -> Optional[str]:
        key = self._normalise(name)
        registry: Optional[Registry[T]] = self
        while registry is not None:
            if key in registry._entries:
                return key
            if key in registry._aliases:
                # aliases may point at parent entries and vice versa, so
                # restart resolution from the overlay top
                target = registry._aliases[key]
                return self._try_resolve(target) if target != key else None
            registry = registry._parent
        return None

    def get(self, name: str) -> T:
        key = self.resolve(name)
        registry: Optional[Registry[T]] = self
        while registry is not None:
            if key in registry._entries:
                return registry._entries[key]
            registry = registry._parent
        raise self.error(self._unknown_message(name))  # pragma: no cover

    def __contains__(self, name: str) -> bool:
        return self._try_resolve(name) is not None

    def __getitem__(self, name: str) -> T:
        return self.get(name)

    def __len__(self) -> int:
        return len(self._all_keys())

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def names(self) -> List[str]:
        """All canonical names (parent chain included), sorted."""
        return sorted(self._all_keys())

    def items(self) -> List[Tuple[str, T]]:
        return [(name, self.get(name)) for name in self.names()]

    def is_local(self, name: str) -> bool:
        """Does ``name`` (under full alias resolution — including aliases
        a parent defines) refer to an entry registered on *this*
        registry, not a parent?"""
        key = self._try_resolve(name)
        return key is not None and key in self._entries

    def describe(self, name: str) -> Dict[str, object]:
        """Metadata for one entry: name, sorted aliases, any register() kwargs."""
        key = self.resolve(name)
        meta: Dict[str, object] = {"name": key}
        aliases = set()
        entry_meta: Optional[Dict[str, object]] = None
        registry: Optional[Registry[T]] = self
        while registry is not None:
            if entry_meta is None and key in registry._meta:
                entry_meta = registry._meta[key]
            # overlays can add aliases to parent entries; collect them all
            for alias, target in registry._aliases.items():
                if target == key:
                    aliases.add(alias)
            registry = registry._parent
        if entry_meta:
            meta.update(entry_meta)
        meta["name"] = key
        meta["aliases"] = sorted(aliases)
        return meta

    def metadata(self) -> List[Dict[str, object]]:
        """``describe`` every entry — the ``--json`` inventory listing."""
        return [self.describe(name) for name in self.names()]

    # ------------------------------------------------------------------ #
    # overlays
    # ------------------------------------------------------------------ #
    def overlay(self) -> "Registry[T]":
        """A child registry: local registrations shadow, parent shines through."""
        return Registry(
            self.kind, normalise=self._normalise, error=self.error, parent=self
        )

    # ------------------------------------------------------------------ #
    def _all_keys(self) -> Dict[str, None]:
        keys: Dict[str, None] = {}
        registry: Optional[Registry[T]] = self
        while registry is not None:
            for key in registry._entries:
                keys.setdefault(key)
            registry = registry._parent
        return keys

    def _candidate_names(self) -> List[str]:
        names = list(self._all_keys())
        registry: Optional[Registry[T]] = self
        while registry is not None:
            names.extend(registry._aliases)
            registry = registry._parent
        return names

    def _unknown_message(self, name: str) -> str:
        known = self.names()
        close = difflib.get_close_matches(
            self._normalise(name), self._candidate_names(), n=3, cutoff=0.6
        )
        message = f"unknown {self.kind} {name!r}"
        if close:
            message += f" — did you mean {', '.join(sorted(set(close)))}?"
        message += f"; available: {', '.join(known)}"
        return message
