"""Experiment catalog: a registry object instead of module-global state.

:class:`ExperimentCatalog` is an ordinary object holding ``name ->
factory`` entries, where a factory is a callable ``factory(quick,
**params)`` returning a JSON-serialisable result.  The default catalog
(the paper's registry) lives in
:func:`repro.experiments.runner.default_catalog`; campaigns may pass
their own catalog and never touch it.

Factories must be importable module-level callables (or
``functools.partial`` over them) so supervised and pooled runs can
dispatch them to worker processes.

:func:`resolve_selection` is the one name-resolver for experiment
selections (``CampaignSpec.expand``, :meth:`ExperimentCatalog.get`):
comma- and space-separated forms both work, and unknown names fail
with close-match suggestions.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def resolve_selection(
    selection,
    available: Iterable[str],
    what: str = "experiment",
) -> Optional[List[str]]:
    """Resolve a user-supplied name selection against ``available``.

    ``selection`` may be ``None`` (meaning "everything"; returns
    ``None``), a single string, or an iterable of strings; every
    string may itself be comma- or whitespace-separated
    (``"a,b"``, ``"a b"``, ``["a", "b,c"]`` are all accepted).  The
    result preserves first-mention order and drops duplicates.

    Unknown names raise ``ValueError`` listing close matches (and the
    full catalog), so a typo'd ``fig9_los`` says "did you mean
    'fig9_loss'?" instead of dumping a wall of names.
    """
    if selection is None:
        return None
    if isinstance(selection, str):
        selection = [selection]
    names: List[str] = []
    for item in selection:
        if not isinstance(item, str):
            raise ValueError(
                f"{what} selection entries must be strings, got {item!r}")
        for part in item.replace(",", " ").split():
            if part not in names:
                names.append(part)
    if not names:
        raise ValueError(f"empty {what} selection")
    available = list(available)
    unknown = [n for n in names if n not in available]
    if unknown:
        hints = []
        for n in unknown:
            close = difflib.get_close_matches(n, available, n=3, cutoff=0.5)
            if close:
                hints.append(f"{n!r} (did you mean "
                             f"{' or '.join(repr(c) for c in close)}?)")
            else:
                hints.append(repr(n))
        raise ValueError(
            f"unknown {what}(s): {', '.join(hints)}; "
            f"choose from {available}"
        )
    return names


class ExperimentCatalog:
    """An ordered mapping of experiment name -> factory.

    A factory is ``factory(quick, **params)``: ``quick`` scales
    durations, ``params`` are the campaign grid-cell keyword
    arguments (validated against the factory's signature at spec
    time).  Catalogs are plain objects — copy one, register into the
    copy, and the original (including the process-wide default) is
    untouched.

    A catalog also remembers what its experiments cost in this
    process: :meth:`note_wall` adds each landed run's wall time and
    :meth:`walls` gives the campaign engine what it judges a fork pool
    by, so a later campaign of a timed experiment need not time it
    again.
    """

    def __init__(self, entries: Optional[Dict[str, Callable]] = None):
        self._entries: Dict[str, Callable] = dict(entries or {})
        self._accepted: Dict[str, Tuple[frozenset, bool]] = {}
        #: name -> [first run's wall, walls after it, runs after it]
        self._walls: Dict[str, List] = {}

    # -- mutation ------------------------------------------------------

    def register(self, name: str, factory: Callable) -> None:
        """Add (or replace) ``name``; ``factory(quick, **params)``.

        Factories must be module-level callables so worker processes
        can run them.
        """
        if not callable(factory):
            raise ValueError(f"factory for {name!r} is not callable")
        self._entries[name] = factory
        self._accepted.pop(name, None)
        self._walls.pop(name, None)

    def unregister(self, name: str) -> None:
        """Remove an entry (idempotent)."""
        self._entries.pop(name, None)
        self._accepted.pop(name, None)
        self._walls.pop(name, None)

    def copy(self) -> "ExperimentCatalog":
        """An independent catalog with the same entries and no
        measured walls."""
        return ExperimentCatalog(self._entries)

    # -- measured cost -------------------------------------------------

    def note_wall(self, name: str, wall_s: float) -> None:
        """Add one run of ``name`` that took ``wall_s`` seconds."""
        entry = self._walls.get(name)
        if entry is None:
            self._walls[name] = [wall_s, 0.0, 0]
        else:
            entry[1] += wall_s
            entry[2] += 1

    def walls(self, name: str) -> Optional[Tuple[float, float, int]]:
        """``(first run's wall, walls after it, runs after it)`` of
        ``name``, or None before any run of it has landed."""
        entry = self._walls.get(name)
        return None if entry is None else tuple(entry)

    # -- lookup --------------------------------------------------------

    def names(self) -> List[str]:
        """Registration order."""
        return list(self._entries)

    def get(self, name: str) -> Callable:
        if name not in self._entries:
            # reuse the resolver purely for its error message
            resolve_selection([name], self._entries, what="experiment")
        return self._entries[name]

    def resolve(self, selection) -> Optional[List[str]]:
        """Shared-resolver front end scoped to this catalog."""
        return resolve_selection(selection, self._entries)

    def accepted_params(self, name: str) -> Tuple[frozenset, bool]:
        """``(keyword names, accepts_var_keyword)`` for ``name``.

        The first positional parameter (``quick``) is excluded; a
        factory wrapped in ``functools.partial`` is unwrapped so
        pre-bound arguments don't count as free parameters.  The
        signature is inspected once per registration of ``name``.
        """
        cached = self._accepted.get(name)
        if cached is None:
            cached = self._accepted[name] = self._inspect(self.get(name))
        return cached

    @staticmethod
    def _inspect(fn: Callable) -> Tuple[frozenset, bool]:
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            return frozenset(), True  # unintrospectable: trust the caller
        names = set()
        var_kw = False
        params = list(sig.parameters.values())
        # drop the leading `quick` positional unless partial() bound it
        if params and params[0].kind in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD):
            params = params[1:]
        for p in params:
            if p.kind is inspect.Parameter.VAR_KEYWORD:
                var_kw = True
            elif p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                            inspect.Parameter.KEYWORD_ONLY):
                names.add(p.name)
        return frozenset(names), var_kw

    # -- dunders -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"ExperimentCatalog({len(self._entries)} experiments)"
