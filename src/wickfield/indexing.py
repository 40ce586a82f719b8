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


def site(label, conj: bool = False) -> SiteRef:
    return SiteRef(label, conj)


def _sort_key(ref: SiteRef):
    # Site labels may be ints, strings or tuples; repr gives a stable total
    # order across mixed label types.
    return (repr(ref.site), ref.conj)


def canonical(sequence: Iterable[SiteRef]) -> IndexSequence:
    """Permutation-invariant canonical form, used as memoization key."""
    return tuple(sorted(sequence, key=_sort_key))


def seq_sort_key(sequence: Iterable[SiteRef]):
    return tuple(_sort_key(ref) for ref in sequence)


def subsequence(sequence: IndexSequence, positions: Iterable[int]) -> IndexSequence:
    return tuple(sequence[i] for i in positions)
