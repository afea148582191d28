"""Additional local distance measures (extensions beyond the paper's three).

The paper argues graph similarity is inherently multi-faceted; these
measures supply extra GCS dimensions for dimensionality experiments
and for users whose notion of similarity involves global
structure rather than exact substructures:

* :class:`JaccardEdgeDistance` — label-multiset Jaccard over edge
  "signatures" (endpoint labels + edge label); a cheap mcs-free proxy.
* :class:`DegreeSequenceDistance` — normalised L1 gap between sorted
  degree sequences; purely structural.
* :class:`WLKernelDistance` — distance induced by a Weisfeiler–Leman
  subtree kernel (label-refinement histograms).
* :class:`SpectralDistance` — L2 gap between adjacency spectra (padded);
  label-agnostic "shape" similarity.
"""

from __future__ import annotations

from collections import Counter

from repro.graph.canonical import label_key
from repro.graph.labeled_graph import LabeledGraph
from repro.measures.base import DistanceMeasure, PairContext, register_measure


def _edge_signature_multiset(graph: LabeledGraph) -> Counter:
    signatures = Counter()
    for u, v, label in graph.edges():
        endpoint_labels = sorted(
            (label_key(graph.vertex_label(u)), label_key(graph.vertex_label(v)))
        )
        signatures[(endpoint_labels[0], endpoint_labels[1], label_key(label))] += 1
    return signatures


class JaccardEdgeDistance(DistanceMeasure):
    """1 − Jaccard index of labeled-edge multisets.

    An edge's signature is (smaller endpoint label, larger endpoint label,
    edge label). Ignores connectivity, so it upper-bounds the agreement the
    mcs-based measures can find — and costs only a linear scan.
    """

    name = "jaccard-edges"
    normalized = True
    is_metric = True  # multiset Jaccard distance is a metric

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        s1, s2 = _edge_signature_multiset(g1), _edge_signature_multiset(g2)
        union = sum((s1 | s2).values())
        if union == 0:
            return 0.0
        return 1.0 - sum((s1 & s2).values()) / union


class DegreeSequenceDistance(DistanceMeasure):
    """Normalised L1 distance between sorted degree sequences.

    Sequences are compared descending, the shorter padded with zeros, and
    the gap divided by the total degree mass so values stay in [0, 1].
    """

    name = "degree-sequence"
    normalized = True
    is_metric = False  # normalisation by instance-dependent mass breaks it

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        d1 = sorted((g1.degree(v) for v in g1.vertices()), reverse=True)
        d2 = sorted((g2.degree(v) for v in g2.vertices()), reverse=True)
        length = max(len(d1), len(d2))
        d1 += [0] * (length - len(d1))
        d2 += [0] * (length - len(d2))
        mass = sum(d1) + sum(d2)
        if mass == 0:
            return 0.0
        return sum(abs(a - b) for a, b in zip(d1, d2)) / mass


class WLKernelDistance(DistanceMeasure):
    """Distance induced by a Weisfeiler–Leman subtree kernel.

    Builds per-round WL color histograms, takes the normalised kernel
    ``k(x, y) / sqrt(k(x, x) k(y, y))`` over concatenated histograms, and
    returns ``1 - k``. Captures neighborhood structure at multiple radii.
    """

    name = "wl-kernel"
    normalized = True
    is_metric = False  # kernel-induced dissimilarity; not a strict metric

    def __init__(self, rounds: int = 3) -> None:
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        self.rounds = rounds

    def _histogram(self, graph: LabeledGraph, palette: dict) -> Counter:
        """Colour counts of rounds ``0..rounds``; ``palette`` numbers the
        signatures of one comparison, so colours compare across it."""
        colors = {v: label_key(graph.vertex_label(v)) for v in graph.vertices()}
        histogram = Counter()
        for _ in range(self.rounds + 1):
            colors = {v: palette.setdefault(c, len(palette)) for v, c in colors.items()}
            histogram.update(colors.values())
            colors = {v: (colors[v], tuple(sorted(
                (label_key(graph.edge_label(v, n)), colors[n]) for n in graph.neighbors(v)
            ))) for v in colors}
        return histogram

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        palette: dict = {}
        h1, h2 = self._histogram(g1, palette), self._histogram(g2, palette)
        dot = sum(count * h2.get(key, 0) for key, count in h1.items())
        norm1 = sum(count * count for count in h1.values())
        norm2 = sum(count * count for count in h2.values())
        if norm1 == 0 or norm2 == 0:
            return 0.0 if norm1 == norm2 else 1.0
        return 1.0 - dot / (norm1 * norm2) ** 0.5


class SpectralDistance(DistanceMeasure):
    """L2 distance between adjacency-matrix spectra (label-agnostic).

    Eigenvalues are sorted descending and the shorter spectrum is padded
    with zeros. Isomorphic graphs are at distance 0; cospectral
    non-isomorphic graphs collide, which is acceptable for a *local*
    similarity facet.
    """

    name = "spectral"
    normalized = False
    is_metric = False  # pseudometric: cospectral graphs collide

    def distance(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        context: PairContext | None = None,
    ) -> float:
        import numpy

        def spectrum(graph: LabeledGraph) -> "numpy.ndarray":
            vertices = graph.vertices()
            index = {v: i for i, v in enumerate(vertices)}
            matrix = numpy.zeros((len(vertices), len(vertices)))
            for u, v, _ in graph.edges():
                matrix[index[u], index[v]] = 1.0
                matrix[index[v], index[u]] = 1.0
            if len(vertices) == 0:
                return numpy.zeros(0)
            return numpy.sort(numpy.linalg.eigvalsh(matrix))[::-1]

        s1, s2 = spectrum(g1), spectrum(g2)
        length = max(len(s1), len(s2))
        s1 = numpy.pad(s1, (0, length - len(s1)))
        s2 = numpy.pad(s2, (0, length - len(s2)))
        return float(numpy.linalg.norm(s1 - s2))


register_measure("jaccard-edges", JaccardEdgeDistance)
register_measure("degree-sequence", DegreeSequenceDistance)
register_measure("wl-kernel", WLKernelDistance)
register_measure("spectral", SpectralDistance)
