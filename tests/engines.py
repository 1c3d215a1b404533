"""Test-side access to the generic search engine on any target.

``CopySearch`` picks its engine from the target, so a chain-union target
always gets the chain engine.  The tests cross-check that engine against
the generic one, which handles any target.
"""

from posetsat.embed import CopySearch, _GenericEngine


def generic_search(masks, poset) -> CopySearch:
    """A ``CopySearch`` over the masks that runs the generic engine."""
    searcher = CopySearch(masks, poset)
    searcher._engine = _GenericEngine(searcher._engine.index, poset)
    return searcher
