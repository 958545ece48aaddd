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

:func:`close_match_hint` is the one did-you-mean helper: an unknown
experiment name (:meth:`ExperimentCatalog.get`) and a grid axis a
factory does not take (``CampaignSpec.expand``) both fail with it.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Callable, Dict, Iterable, List, Optional


def close_match_hint(name: str, available: Iterable[str]) -> str:
    """``name`` quoted, with up to three close matches among
    ``available`` as a did-you-mean hint: a typo'd ``fig9_los`` reads
    ``'fig9_los' (did you mean 'fig9_loss'?)``."""
    close = difflib.get_close_matches(name, available, n=3, cutoff=0.5)
    if not close:
        return repr(name)
    return f"{name!r} (did you mean {' or '.join(map(repr, close))}?)"


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
            raise ValueError(
                f"unknown experiment {close_match_hint(name, self._entries)}"
                f"; choose from {self.names()}")
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
