"""Core domain types for genomes with duplicate genes.

A gene is a signed integer: the absolute value is its family, the sign its
orientation.  An ordered genome is a sequence of signed genes; an unordered
multichromosomal genome is a collection of gene-family sets.  All values are
immutable and every operation here is a pure function.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

# Family ids are positive 32-bit integers; 0 is reserved as a terminator in
# external formats.
MAX_FAMILY = 2**31 - 1


@dataclass(frozen=True)
class SeqGenome:
    """Ordered sequence of signed genes (one chromosome).

    The derived views (families, occurrences, duplicated) are built on first
    use and kept on the genome; they never change after that.
    """

    genes: tuple[int, ...]

    def __post_init__(self):
        genes = tuple(self.genes)
        for g in genes:
            if g == 0:
                raise ValueError("gene 0 is reserved and never a valid family")
            if abs(g) > MAX_FAMILY:
                raise ValueError(f"family {abs(g)} exceeds the 32-bit bound")
        object.__setattr__(self, "genes", genes)

    @classmethod
    def of(cls, *genes: int) -> "SeqGenome":
        return cls(tuple(genes))

    @classmethod
    def _trusted(cls, genes: tuple[int, ...]) -> "SeqGenome":
        """The genome of a tuple of genes a parser has already checked,
        built without checking them again."""
        genome = object.__new__(cls)
        object.__setattr__(genome, "genes", genes)
        return genome

    def __reduce__(self):
        # the views are rebuilt on first use, not pickled
        return type(self), (self.genes,)

    def __len__(self) -> int:
        return len(self.genes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.genes)

    def __getitem__(self, index):
        return self.genes[index]

    @cached_property
    def families(self) -> frozenset[int]:
        return frozenset(map(abs, self.genes))

    @cached_property
    def occurrences(self) -> Mapping[int, int]:
        """Read-only family -> occurrences, ignoring sign."""
        return MappingProxyType(Counter(map(abs, self.genes)))

    @cached_property
    def duplicated(self) -> frozenset[int]:
        """The families with more than one occurrence."""
        return frozenset(f for f, c in self.occurrences.items() if c > 1)


@dataclass(frozen=True, eq=False)
class SetGenome:
    """Chromosomes as unordered sets of gene families.

    Chromosome order is preserved as read but carries no meaning: equality and
    hashing compare the multiset of chromosomes.  The derived views (hosts,
    occurrences, ground_set, duplicated) are built on first use and kept on
    the genome; they never change after that, and every route reads the same
    ones.
    """

    chromosomes: tuple[frozenset[int], ...]

    def __post_init__(self):
        chroms = tuple(frozenset(c) for c in self.chromosomes)
        for c in chroms:
            for g in c:
                if g < 1 or g > MAX_FAMILY:
                    raise ValueError(f"invalid family id {g}")
        object.__setattr__(self, "chromosomes", chroms)

    @classmethod
    def of(cls, *chromosomes: Iterable[int]) -> "SetGenome":
        return cls(tuple(frozenset(c) for c in chromosomes))

    @classmethod
    def _trusted(cls, chromosomes: tuple[frozenset[int], ...]) -> "SetGenome":
        """The genome of a tuple of chromosomes whose families a parser has
        already checked, built without checking them again."""
        genome = object.__new__(cls)
        object.__setattr__(genome, "chromosomes", chromosomes)
        return genome

    def __reduce__(self):
        # the views are rebuilt on first use, not pickled
        return type(self), (self.chromosomes,)

    @cached_property
    def hosts(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only family -> indices of the chromosomes holding it, ascending."""
        hosts: dict[int, tuple[int, ...]] = {}
        for h, c in enumerate(self.chromosomes):
            one = (h,)
            for f in c:
                earlier = hosts.get(f)
                hosts[f] = one if earlier is None else earlier + one
        return MappingProxyType(hosts)

    @cached_property
    def occurrences(self) -> Mapping[int, int]:
        """Read-only family -> number of chromosomes holding it."""
        return MappingProxyType(Counter(chain.from_iterable(self.chromosomes)))

    @cached_property
    def ground_set(self) -> frozenset[int]:
        return frozenset(self.occurrences)

    @cached_property
    def duplicated(self) -> frozenset[int]:
        """The families held by more than one chromosome."""
        return frozenset(f for f, c in self.occurrences.items() if c > 1)

    def total_genes(self) -> int:
        """Gene count summed over chromosomes (duplicates across chromosomes count)."""
        return sum(len(c) for c in self.chromosomes)

    def __len__(self) -> int:
        return len(self.chromosomes)

    def _canonical(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(c)) for c in self.chromosomes))

    def __eq__(self, other):
        if not isinstance(other, SetGenome):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self._canonical())


@dataclass(frozen=True)
class Alphabet:
    """Split of the symbol universe into mandatory and optional families."""

    mandatory: frozenset[int]
    optional: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "mandatory", frozenset(self.mandatory))
        object.__setattr__(self, "optional", frozenset(self.optional))
        if self.mandatory & self.optional:
            raise ValueError("mandatory and optional symbol sets must be disjoint")

    @classmethod
    def from_mandatory(cls, mandatory: Iterable[int], observed: Iterable[int]) -> "Alphabet":
        """Alphabet with the given mandatory set; every other observed family is optional."""
        mand = frozenset(mandatory)
        return cls(mand, frozenset(observed) - mand)


Genome = Union[SeqGenome, SetGenome]


class InstanceClass(Enum):
    """Mutually exclusive instance categories, most restrictive first."""

    FAMILY_MISMATCH = "family-mismatch"
    BOTH_EXEMPLAR = "both-exemplar"
    ONE_SIDE_DUPLICATE_FREE = "one-side-duplicate-free"
    PER_GENE_SPECIAL = "per-gene-special"
    GENERAL = "general"


def occurrence_profile(genome: Genome) -> Counter:
    """Occurrences of each family across the whole genome, ignoring sign: a
    fresh Counter, which the caller may change."""
    return Counter(genome.occurrences)


def classify_instance(g1: Genome, g2: Genome) -> InstanceClass:
    """Classify a genome pair by its duplicate-gene distribution.

    A pair whose genomes do not hold the same families is FAMILY_MISMATCH:
    no common exemplar genome exists, and every solver answers it NO.  A pair
    in which each genome duplicates some family is PER_GENE_SPECIAL when no
    family is duplicated in both genomes, and GENERAL otherwise.
    """
    p1, p2 = g1.occurrences, g2.occurrences
    if p1.keys() != p2.keys():
        return InstanceClass.FAMILY_MISMATCH
    dup1, dup2 = g1.duplicated, g2.duplicated
    if not dup1 and not dup2:
        return InstanceClass.BOTH_EXEMPLAR
    if not dup1 or not dup2:
        return InstanceClass.ONE_SIDE_DUPLICATE_FREE
    if dup1.isdisjoint(dup2):
        return InstanceClass.PER_GENE_SPECIAL
    return InstanceClass.GENERAL


# Stable reason codes for certificate rejection.
DUPLICATE_FAMILY = "DuplicateFamily"
MISSING_FAMILY = "MissingFamily"
NOT_SUBSEQUENCE_OF_G1 = "NotSubsequenceOfG1"
NOT_SUBSEQUENCE_OF_G2 = "NotSubsequenceOfG2"
NOT_PARTITION = "NotPartition"
NO_EMBEDDING_IN_G1 = "NoEmbeddingInG1"
NO_EMBEDDING_IN_G2 = "NoEmbeddingInG2"


@dataclass(frozen=True)
class CertificateCheck:
    """Boolean verdict plus a machine-readable reason when rejected."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _subsequence_embeds(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Greedy left-to-right embedding test under exact signed equality."""
    it = iter(y)
    return all(g in it for g in x)


def verify_seq_certificate(g1: SeqGenome, g2: SeqGenome, cert: SeqGenome) -> CertificateCheck:
    """Check that cert is a common exemplar subsequence of g1 and g2.

    A valid certificate carries each family of the combined universe exactly
    once and embeds order-preservingly, with signs, into both genomes.
    """
    counts = Counter(abs(g) for g in cert.genes)
    if any(c > 1 for c in counts.values()):
        return CertificateCheck(False, DUPLICATE_FAMILY)
    universe = g1.families | g2.families
    if universe - counts.keys():
        return CertificateCheck(False, MISSING_FAMILY)
    if not _subsequence_embeds(cert.genes, g1.genes):
        return CertificateCheck(False, NOT_SUBSEQUENCE_OF_G1)
    if not _subsequence_embeds(cert.genes, g2.genes):
        return CertificateCheck(False, NOT_SUBSEQUENCE_OF_G2)
    return CertificateCheck(True)
