"""Site references and index sequences.

A field variable is addressed by a :class:`SiteRef`: an opaque, hashable site
label plus a conjugation flag.  Ordered tuples of SiteRefs ("index sequences")
label moments, cumulants and Wick monomials.  Positions in a sequence are
distinct labels even when two positions reference the same site, so sequences
with repeated sites are meaningful (e.g. fourth moments at a single site).
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple


class SiteRef(NamedTuple):
    """A site label together with a conjugation flag."""

    site: Hashable
    conj: bool = False

    def conjugate(self) -> "SiteRef":
        return SiteRef(self.site, not self.conj)


IndexSequence = tuple  # tuple[SiteRef, ...]


#: SiteRef -> (site label object, sort key); see _sort_key
_SORT_KEYS: dict = {}


def _sort_key(ref: SiteRef):
    """(repr(site), conj), computed once per site reference.

    Site labels may be ints, strings or tuples; repr gives a stable total
    order across mixed label types.  Labels that compare equal may print
    differently (1, 1.0, True), so a cached key is used only for the very
    label object it was computed from.  The cache holds that object, so its
    id cannot be reused while the entry stands; it grows with the number of
    distinct site references a process uses.
    """
    entry = _SORT_KEYS.get(ref)
    if entry is None or entry[0] is not ref.site:
        entry = _SORT_KEYS[ref] = (ref.site, (repr(ref.site), ref.conj))
    return entry[1]


def canonical(sequence: Iterable[SiteRef]) -> IndexSequence:
    """Permutation-invariant canonical form, used as memoization key."""
    return tuple(sorted(sequence, key=_sort_key))


def seq_sort_key(sequence: Iterable[SiteRef]):
    return tuple(_sort_key(ref) for ref in sequence)


def subsequence(sequence: IndexSequence, positions: Iterable[int]) -> IndexSequence:
    return tuple(sequence[i] for i in positions)
