"""ASH correlation (Section III-C).

For every server the suspiciousness score accumulates over the enabled
secondary dimensions (eq. 9):

    S(Si) = sum_d  w_d(C^d_Si) * w_m(C^m_Si) * Phi(|C^d_Si ∩ C^m_Si|)

where ``C^m_Si`` / ``C^d_Si`` are the herds containing ``Si`` in the main
and secondary dimension, ``w`` is herd edge density, and

    Phi(x) = (1 + erf((x - mu) / sigma)) / 2

is the "S"-shaped normaliser (mu = 4, sigma = 5.5) that gives herds with
fewer than four common servers a low per-dimension score, forcing them to
accumulate evidence across several dimensions.

Servers scoring below ``thresh`` are removed from all ASHs; intersection
ASHs left with fewer than two servers are dropped.

The pipeline runs the interned core (:func:`correlate_ids`): herd
membership, overlaps and score keys are dense integer server ids, and
intersection densities are measured with the graph's ``density_of``
(no subgraph materialisation: on a CSR graph, one compiled gather over
the members' rows, plus the members' overlay rows for the main graph's
single-client edges); ids are decoded back to labels only at the
results boundary (``SmashPipeline.finish``).  The label-domain
:func:`correlate` wrapper keeps the original public signature for
callers outside the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from repro.config import CorrelationConfig
from repro.core.ashmining import MiningOutcome
from repro.core.interning import Interner
from repro.core.results import CandidateAsh


def phi(x: float, mu: float = 4.0, sigma: float = 5.5) -> float:
    """The paper's S-shaped normaliser; maps herd overlap size to (0, 1)."""
    return 0.5 * (1.0 + math.erf((x - mu) / sigma))


@dataclass(frozen=True)
class EncodedCorrelation:
    """Id-domain correlation outcome (server ids, not labels).

    ``candidate_ashes`` holds ``(main_index, dimension, secondary_index,
    frozenset-of-ids)`` tuples; the pipeline decodes them into
    :class:`~repro.core.results.CandidateAsh` at the results boundary.
    """

    scores: dict[int, float]
    contributions: dict[int, dict[str, float]]
    candidate_ashes: tuple[tuple[int, str, int, frozenset[int]], ...]


@dataclass(frozen=True)
class CorrelationOutcome:
    """Scores, per-dimension contributions, and surviving candidate ASHs."""

    scores: dict[str, float]
    contributions: dict[str, dict[str, float]]
    candidate_ashes: tuple[CandidateAsh, ...]

    @property
    def surviving_servers(self) -> frozenset[str]:
        servers: set[str] = set()
        for ash in self.candidate_ashes:
            servers |= ash.servers
        return frozenset(servers)


def correlate_ids(
    main: MiningOutcome,
    secondary: dict[str, MiningOutcome],
    interner: Interner,
    config: CorrelationConfig | None = None,
    thresh: float | None = None,
) -> EncodedCorrelation:
    """Correlate the main dimension's herds with every secondary dimension.

    ``thresh`` overrides ``config.thresh`` (used by the Appendix-C
    single-client track, which runs at a higher threshold).  All herd
    members must be known to *interner* (the pipeline interns the full
    post-preprocess namespace, which covers every mined herd).
    """
    config = config or CorrelationConfig()
    config.validate()
    threshold = config.thresh if thresh is None else thresh

    encode_set = interner.encode_set
    main_herds = [(herd.index, encode_set(herd.servers)) for herd in main.herds]
    secondary_data: dict[str, tuple[dict[int, frozenset[int]], dict[int, int]]] = {}
    for dimension, outcome in secondary.items():
        herd_ids: dict[int, frozenset[int]] = {}
        herd_of: dict[int, int] = {}
        for herd in outcome.herds:
            members = encode_set(herd.servers)
            herd_ids[herd.index] = members
            for server_id in members:
                herd_of[server_id] = herd.index
        secondary_data[dimension] = (herd_ids, herd_of)

    scores: dict[int, float] = {}
    contributions: dict[int, dict[str, float]] = {}
    # (main index, dimension, secondary index) -> intersection server ids.
    intersections: dict[tuple[int, str, int], set[int]] = {}
    # The density weights w_d and w_m of eq. 9 are measured on the *new*
    # ASH — the intersection — as seen by each dimension's similarity
    # graph.  Using the parent herds' densities instead would let
    # loosely-attached hangers-on in a big parent herd dilute the score of
    # a tight campaign core.  Cache per (main, dimension, secondary) key:
    # every server of one intersection shares the same weights.
    density_cache: dict[tuple[int, str, int], tuple[float, float]] = {}
    decode_set = interner.decode_set

    def intersection_densities(
        key: tuple[int, str, int], overlap: frozenset[int], dimension: str
    ) -> tuple[float, float]:
        cached = density_cache.get(key)
        if cached is None:
            if len(overlap) == 1:
                cached = (1.0, 1.0)
            else:
                members = decode_set(overlap)
                cached = (
                    secondary[dimension].graph.density_of(members),
                    main.graph.density_of(members),
                )
            density_cache[key] = cached
        return cached

    for main_index, main_members in main_herds:
        # Sorted member iteration keeps the scores/contributions dicts (and
        # the intersection accumulators) in an order derived from the data,
        # not from frozenset hash order.
        for server_id in sorted(main_members):
            per_dim: dict[str, float] = {}
            for dimension, (herd_ids, herd_of) in secondary_data.items():
                sec_index = herd_of.get(server_id)
                if sec_index is None:
                    continue
                overlap = main_members & herd_ids[sec_index]
                if not overlap:
                    continue
                key = (main_index, dimension, sec_index)
                sec_density, main_density = intersection_densities(
                    key, overlap, dimension
                )
                contribution = (
                    sec_density
                    * main_density
                    * phi(len(overlap), config.mu, config.sigma)
                )
                if contribution <= 0.0:
                    continue
                per_dim[dimension] = contribution
                intersections.setdefault(key, set()).update(overlap)
            if per_dim:
                scores[server_id] = sum(per_dim.values())
                contributions[server_id] = per_dim

    surviving = {
        server_id for server_id, score in scores.items() if score >= threshold
    }

    ashes: list[tuple[int, str, int, frozenset[int]]] = []
    for (main_index, dimension, secondary_index), members in sorted(
        intersections.items()
    ):
        kept = frozenset(members & surviving)
        # Groups left with a single server are removed: "that server can
        # not be associated with others" (Section III-C).
        if len(kept) >= 2:
            ashes.append((main_index, dimension, secondary_index, kept))
    return EncodedCorrelation(
        scores=scores,
        contributions=contributions,
        candidate_ashes=tuple(ashes),
    )


def correlate(
    main: MiningOutcome,
    secondary: dict[str, MiningOutcome],
    config: CorrelationConfig | None = None,
    thresh: float | None = None,
) -> CorrelationOutcome:
    """Label-domain wrapper over :func:`correlate_ids`.

    Interns the herd namespace, runs the id core, and decodes scores and
    candidate ASHs back to server labels — byte-identical to the original
    label-path implementation.
    """
    interner = Interner(
        chain(
            chain.from_iterable(herd.servers for herd in main.herds),
            chain.from_iterable(
                herd.servers
                for outcome in secondary.values()
                for herd in outcome.herds
            ),
        )
    )
    encoded = correlate_ids(main, secondary, interner, config, thresh=thresh)
    label_of = interner.label_of
    return CorrelationOutcome(
        scores={label_of(i): score for i, score in encoded.scores.items()},
        contributions={
            label_of(i): dict(per_dim)
            for i, per_dim in encoded.contributions.items()
        },
        candidate_ashes=tuple(
            CandidateAsh(
                main_index=main_index,
                secondary_dimension=dimension,
                secondary_index=secondary_index,
                servers=interner.decode_set(members),
            )
            for main_index, dimension, secondary_index, members in encoded.candidate_ashes
        ),
    )
