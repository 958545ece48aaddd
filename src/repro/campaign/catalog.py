"""Experiment catalog: a registry object instead of module-global state.

:class:`ExperimentCatalog` is an ordinary object holding ``name ->
factory`` entries, where a factory is a callable ``factory(quick,
**params)`` returning a JSON-serialisable result.  The default catalog
(the paper's registry) lives in
:func:`repro.experiments.runner.default_catalog`; campaigns may pass
their own catalog and never touch it.

Factories are module-level callables (or ``functools.partial`` over
them).  Fan-out workers fork with the catalog in memory, so a job
reaches a worker as its index and no factory is pickled.

:func:`resolve_selection` is the one name-resolver for experiment
selections (``CampaignSpec.expand``, :meth:`ExperimentCatalog.get`):
comma- and space-separated forms both work, and unknown names fail
with close-match suggestions.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Callable, Dict, Iterable, List, Optional


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
    time).  Catalogs are plain objects built from a name -> factory
    mapping, fixed at construction: a campaign may pass its own and
    never touch the process-wide default.
    """

    def __init__(self, entries: Optional[Dict[str, Callable]] = None):
        self._entries: Dict[str, Callable] = dict(entries or {})
        self._accepted: Dict[str, frozenset] = {}

    # -- lookup --------------------------------------------------------

    def names(self) -> List[str]:
        """Registration order."""
        return list(self._entries)

    def get(self, name: str) -> Callable:
        if name not in self._entries:
            # reuse the resolver purely for its error message
            resolve_selection([name], self._entries, what="experiment")
        return self._entries[name]

    def accepted_params(self, name: str) -> frozenset:
        """The keyword names ``name``'s factory takes.

        The first positional parameter (``quick``) is excluded; a
        factory wrapped in ``functools.partial`` is unwrapped so
        pre-bound arguments don't count as free parameters.  The
        signature is inspected once per catalog.
        """
        cached = self._accepted.get(name)
        if cached is None:
            cached = self._accepted[name] = self._inspect(self.get(name))
        return cached

    @staticmethod
    def _inspect(fn: Callable) -> frozenset:
        params = list(inspect.signature(fn).parameters.values())
        # drop the leading `quick` positional unless partial() bound it
        if params and params[0].kind in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD):
            params = params[1:]
        return frozenset(p.name for p in params if p.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY))

    # -- dunders -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)
