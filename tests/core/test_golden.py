"""Golden regression corpus: pinned top-20 ranked sequences.

``tests/data/golden_top20.json`` stores, for nine fixed graphs under the
four registry costs and both pipelines (direct enumeration and the
preprocessing pipeline of ``repro.preprocess``), the exact (cost, bag
set) sequence of the first 20 ranked answers.  Both graph kernels must reproduce every
sequence bit-for-bit, forever — any change to DP tie-breaking, pivot
order, heap layout, the kernels, the reduction rules, the atom
decomposition or the recomposition merge that reorders an output stream
fails here.  (The two pipelines agree on costs and answer sets but may
order equal-cost ties differently; each pipeline's order is pinned
separately — ``tests/property/test_preprocess_equivalence.py`` holds the
cross-pipeline equivalence.)

Regenerate (only when an *intentional* ordering change is made, with the
set-kernel reference)::

    PYTHONPATH=src python -m tests.core.test_golden

The writer refuses to run under pytest so the corpus cannot be clobbered
accidentally.  An explicit output path regenerates elsewhere::

    PYTHONPATH=src python -m tests.core.test_golden /tmp/golden.json

which is how CI's golden-drift job works: it regenerates into a temp
file and fails with a diff when the bytes do not match the checked-in
corpus — silent regeneration drift cannot land.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Session
from repro.graphs.generators import (
    bowtie_graph,
    connected_erdos_renyi,
    grid_graph,
    paper_example_graph,
    petersen_graph,
    ring_of_cycles,
    tree_of_cliques,
)
from repro.graphs.ordering import vertex_set_sort_key, vertex_sort_key

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_top20.json"
TOP_K = 20
#: Every registry cost: ``sum-exp-bags`` scans its child DPs with floors,
#: ``lex-width-fill`` (not monotone) without.
COST_SPECS = ("width", "fill", "lex-width-fill", "sum-exp-bags")
#: Pipelines: "direct" is the core Lawler-Murty enumerator, "preprocess"
#: routes through reductions + atoms + ranked recomposition.
MODES = ("direct", "preprocess")


#: name -> (graph factory, label decoder for the JSON round trip).
GRAPHS = {
    "gnp-n10-p0.35-a": (
        lambda: connected_erdos_renyi(10, 0.35, seed=0),
        lambda v: v,
    ),
    "gnp-n10-p0.35-b": (
        lambda: connected_erdos_renyi(10, 0.35, seed=100),
        lambda v: v,
    ),
    "gnp-n12-p0.25": (
        lambda: connected_erdos_renyi(12, 0.25, seed=200),
        lambda v: v,
    ),
    "grid-4x4": (lambda: grid_graph(4, 4), tuple),
    "pace100-petersen": (petersen_graph, lambda v: v),
    "paper-example": (paper_example_graph, lambda v: v),
    # Decomposable additions (ISSUE 4): the degenerate chordal cases
    # (constant-only recomposition) and a two-variable-atom product.
    "bowtie-k4": (lambda: bowtie_graph(4), lambda v: v),
    "tree-of-cliques": (lambda: tree_of_cliques(5, 4), lambda v: v),
    "ring-of-c5": (lambda: ring_of_cycles(2, 5), lambda v: v),
}


def serialize_sequence(results):
    """Canonical JSON form of a ranked prefix: [[cost, [sorted bags]]]."""
    out = []
    for r in results:
        bags = sorted(
            (sorted(bag, key=vertex_sort_key) for bag in r.triangulation.bags),
            key=vertex_set_sort_key,
        )
        out.append([r.cost, [list(b) for b in bags]])
    return out


def load_golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def _decode(case_expected, decoder):
    return [
        [cost, [sorted((decoder(v) for v in bag), key=vertex_sort_key) for bag in bags]]
        for cost, bags in case_expected
    ]


def _observed(name, cost, kernel, mode):
    factory, _decoder = GRAPHS[name]
    session = Session(kernel=kernel, preprocess=(mode == "preprocess"))
    response = session.top(factory(), cost, k=TOP_K)
    sequence = serialize_sequence(response.results)
    # Normalize label containers the same way the decoder does (tuples
    # survive in memory, lists in JSON).
    return [
        [c, [sorted(bag, key=vertex_sort_key) for bag in bags]]
        for c, bags in sequence
    ]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kernel", ["sets", "bitset"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_golden_top20(name, kernel, mode):
    golden = load_golden()
    _factory, decoder = GRAPHS[name]
    for cost in COST_SPECS:
        expected = _decode(golden[name][cost][mode], decoder)
        assert _observed(name, cost, kernel, mode) == expected, (
            f"{name} under cost {cost!r} diverged from the golden sequence "
            f"with kernel {kernel!r} and pipeline {mode!r}"
        )


def test_golden_corpus_shape():
    golden = load_golden()
    assert set(golden) == set(GRAPHS)
    for name, by_cost in golden.items():
        assert set(by_cost) == set(COST_SPECS)
        for cost, by_mode in by_cost.items():
            assert set(by_mode) == set(MODES)
            for mode, seq in by_mode.items():
                assert 1 <= len(seq) <= TOP_K
                costs = [c for c, _bags in seq]
                assert costs == sorted(costs), (
                    f"{name}/{cost}/{mode} not cost-ordered"
                )
            # The pipelines must agree on the cost sequence even though
            # tie order within a cost level may differ.
            assert [c for c, _b in by_mode["direct"]] == [
                c for c, _b in by_mode["preprocess"]
            ], f"{name}/{cost}: pipelines disagree on costs"


def _regenerate(path: Path = GOLDEN_PATH) -> None:
    golden = {}
    for name in sorted(GRAPHS):
        golden[name] = {}
        for cost in COST_SPECS:
            golden[name][cost] = {}
            for mode in MODES:
                seq = _observed(name, cost, "sets", mode)
                golden[name][cost][mode] = seq
                print(f"{name:>18} {cost:>6} {mode:>10}: {len(seq)} answers")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    _regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH)
