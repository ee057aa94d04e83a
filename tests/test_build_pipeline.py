"""Build parity: golden digests, and parallel construction ≡ serial.

The construction pipeline (shared ``BuildContext``, batched SPT forests with
distance limits, CSR-coarsened sparse covers, array-built next-hop tables)
is pinned to committed sha256 digests of what it builds — routes, space
accounting, headers and the compiled forwarding programs — for all six
schemes × three graph families × seeds.  The digests were generated with
the original per-node scalar constructors, which agreed on every entry.
The ``build_matrix`` worker-thread fan-out and the JIT toggle must be
bit-identical to serial, numpy builds.
"""

import numpy as np
import pytest

from repro.construction.context import BuildContext, SPTJob
from repro.covers.sparse_cover import build_sparse_cover
from repro.experiments.harness import build_matrix
from repro.experiments.workloads import make_workload
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.shortest_paths import DistanceOracle, shortest_path_tree
from repro.routing.simulator import RoutingSimulator

FAMILIES = [("erdos-renyi", 72), ("barabasi-albert", 72), ("grid", 64)]
SEEDS = [3, 11]


def _build(name, graph, oracle, seed, parallel=None):
    context = BuildContext(graph, oracle=oracle, seed=seed, parallel=parallel)
    return build_scheme(name, graph, k=2, seed=seed, oracle=oracle,
                        context=context)


def _assert_equivalent(graph, oracle, reference, candidate, pairs):
    for (u, v) in pairs:
        a = reference.route_by_index(u, v)
        b = candidate.route_by_index(u, v)
        assert a.path == b.path
        assert a.found == b.found
        assert a.strategy == b.strategy
        assert a.cost == pytest.approx(b.cost)
    assert reference.max_table_bits() == candidate.max_table_bits()
    assert reference.avg_table_bits() == pytest.approx(candidate.avg_table_bits())
    assert reference.header_bits() == candidate.header_bits()
    assert reference.table_breakdown() == candidate.table_breakdown()
    assert reference.compiled_forwarding().describe() == \
        candidate.compiled_forwarding().describe()
    spec_a = {k: v for k, v in reference.rebuild_spec().items() if k != "oracle"}
    spec_b = {k: v for k, v in candidate.rebuild_spec().items() if k != "oracle"}
    assert spec_a == spec_b
    # lockstep engine reports agree field for field across the two builds
    sim = RoutingSimulator(graph, oracle=oracle)
    rep_a = sim.evaluate(reference, pairs=pairs, engine="lockstep").as_dict()
    rep_b = sim.evaluate(candidate, pairs=pairs, engine="lockstep").as_dict()
    assert rep_a == rep_b


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_parallel_build_is_bit_identical_to_serial(scheme):
    graph = make_workload("barabasi-albert", 80, seed=5)
    oracle = DistanceOracle(graph)
    sim = RoutingSimulator(graph, oracle=oracle)
    pairs = sim.sample_pairs(40, seed=2)
    serial = _build(scheme, graph, oracle, 13, parallel=None)
    parallel = _build(scheme, graph, oracle, 13, parallel=3)
    _assert_equivalent(graph, oracle, serial, parallel, pairs)


def test_build_matrix_rows_and_instances():
    graphs = [("er", make_workload("erdos-renyi", 60, seed=3)),
              ("ba", make_workload("barabasi-albert", 60, seed=4))]
    serial = build_matrix("e11", ["cowen", "thorup-zwick"], graphs, ks=[2],
                          seed=9, keep_instances=True)
    fanned = build_matrix("e11", ["cowen", "thorup-zwick"], graphs, ks=[2],
                          seed=9, parallel=3, keep_instances=True)
    assert [row["scheme"] for row in serial.rows] == \
        [row["scheme"] for row in fanned.rows]
    for row_a, row_b in zip(serial.rows, fanned.rows):
        for key in ("graph", "scheme", "k", "n", "m", "max_table_bits",
                    "avg_table_bits", "header_bits"):
            assert row_a[key] == row_b[key]
        assert row_a["build_seconds"] > 0
    # the fanned-out instances route identically to the serial ones
    for key, scheme in serial.metadata["instances"].items():
        twin = fanned.metadata["instances"][key]
        graph = scheme.graph
        sim = RoutingSimulator(graph)
        for (u, v) in sim.sample_pairs(25, seed=6):
            assert scheme.route_by_index(u, v).path == \
                twin.route_by_index(u, v).path


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_jit_toggle_is_bit_identical(scheme, monkeypatch):
    """``REPRO_JIT=1`` builds ≡ ``REPRO_JIT=0`` builds.

    When numba is absent the JIT path falls back to the numpy kernels and
    the assertion is trivially about the fallback being wired correctly;
    the CI jit-parity job runs this same test with numba installed, where
    it pins the compiled kernels to the numpy semantics.
    """
    graph = make_workload("barabasi-albert", 72, seed=9)
    oracle = DistanceOracle(graph)
    sim = RoutingSimulator(graph, oracle=oracle)
    pairs = sim.sample_pairs(40, seed=3)
    monkeypatch.setenv("REPRO_JIT", "0")
    plain = _build(scheme, graph, oracle, 17)
    monkeypatch.setenv("REPRO_JIT", "1")
    jitted = _build(scheme, graph, oracle, 17)
    _assert_equivalent(graph, oracle, plain, jitted, pairs)


def test_membership_counts_is_ndarray_and_matches_clusters():
    graph = make_workload("erdos-renyi", 70, seed=2)
    oracle = DistanceOracle(graph)
    rho = 2.0 * oracle.min_positive_distance()
    cover = build_sparse_cover(graph, 2, rho, oracle=oracle)
    counts = cover.membership_counts(graph.n)
    assert isinstance(counts, np.ndarray)
    expected = np.zeros(graph.n, dtype=np.int64)
    for cluster in cover.clusters:
        for v in cluster.nodes:
            expected[v] += 1
    assert np.array_equal(counts, expected)
    assert cover.max_membership(graph.n) == int(expected.max())


def test_spt_forest_with_limits_matches_reference_trees():
    graph = make_workload("barabasi-albert", 90, seed=8)
    oracle = DistanceOracle(graph)
    context = BuildContext(graph, oracle=oracle)
    jobs = []
    references = []
    for root in [0, 5, 11, 40]:
        members = oracle.nearest(root, 12)
        limit = float(oracle.row(root)[members].max())
        jobs.append(SPTJob(root, members, limit))
        references.append(shortest_path_tree(graph, root, members=members))
    for tree, reference in zip(context.spt_trees(jobs), references):
        assert tree.root == reference.root
        assert tree.parent == reference.parent
        assert tree.edge_weight == reference.edge_weight


# --------------------------------------------------------------------- #
# golden digests: AGM builds pinned to committed sha256 values
# --------------------------------------------------------------------- #
#: (family, n, seed, names) -> sha256 of an AGM k=2 build; ``seed`` seeds
#: both the graph and the build.  The ``mixed`` graphs relabel the nodes with
#: strings, tuples and negative ints so the pinned Lemma 4 hash digits cover
#: every name type, not only the generator's random 60-bit integers.
GOLDEN_AGM = {
    ('barabasi-albert', 150, 3, 'plain'):
        '481c8b20e1b025cc295f7390b125673ad32066ab7ec1f722b5169dc4ef8b5a8b',
    ('barabasi-albert', 150, 11, 'mixed'):
        'd272393dc236f7b2815328188e23ecaa59e18dec9cd569fa2bcb0271447c46eb',
    ('erdos-renyi', 150, 3, 'plain'):
        '597f728e5a9417214000021e21b8d381fabac5f8f9cb6b52518d62f52ec0877c',
    ('erdos-renyi', 150, 11, 'mixed'):
        '889cadbef00638b4c568fbad6e69fd4d5e47b1d4a52c36b223a0a594f43915d1',
    ('grid', 144, 3, 'plain'):
        '28082c023ea8936e6f08aaf9ece10e949d38f16aa1fc162576878aee893f842b',
    ('grid', 144, 11, 'mixed'):
        '731d8ff226cd1ea1a88c7e2e74838786ddef5af069f36904641c78107bc9bca6',
}


def _mixed_names(n):
    return [f"host-{v}" if v % 3 == 0 else ("as", v) if v % 3 == 1 else -v - 1
            for v in range(n)]


def _golden_graph(family, n, seed, names):
    from repro.graphs.graph import WeightedGraph

    graph = make_workload(family, n, seed=seed)
    if names == "mixed":
        graph = WeightedGraph(graph.n, list(graph.edges()),
                              names=_mixed_names(graph.n))
    return graph


class _Digest:
    """sha256 over a stream of ``repr``-encoded records."""

    def __init__(self):
        import hashlib

        self._h = hashlib.sha256()

    def put(self, *items):
        self._h.update(repr(items).encode("utf-8"))
        self._h.update(b"\n")

    def put_array(self, tag, array):
        values = np.ascontiguousarray(np.asarray(array), dtype=np.int64)
        self.put(tag, values.shape)
        self._h.update(values.tobytes())

    def put_walks(self, scheme, walks, seed):
        rng = np.random.default_rng(seed)
        names = scheme.graph.names_view()
        for _ in range(walks):
            u, v = (int(x) for x in rng.integers(0, scheme.graph.n, size=2))
            result = scheme.route(u, names[v])
            self.put("walk", u, v, result.path, result.cost.hex(),
                     result.found, result.strategy)

    def hexdigest(self):
        return self._h.hexdigest()


def agm_build_digest(scheme, walks=200, seed=0):
    """sha256 over an AGM build's Lemma 4 tables, bounds, bits and walks.

    Covers, for every sparse-center Lemma 4 tree in center order and every
    tree node in node order: the hash digits, the primary name, the trie
    children and the dictionary, both in insertion order.  Then every search
    bound ``b(u, i)``, every node's table-bit breakdown, and ``walks``
    seeded scalar ``route()`` walks (path, cost, found, strategy).
    """
    digest = _Digest()
    put = digest.put
    sparse = scheme.sparse
    for c in sorted(sparse.trees):
        routing = sparse.trees[c]
        put("tree", c, routing.sigma, routing.max_digits)
        for v in routing.tree.nodes:
            put(v, routing.hash_digits[v], routing.primary_name[v],
                list(routing.trie_children[v].items()),
                list(routing.dictionary[v].items()))
    put("bounds", sorted(sparse.bound_of.items()))
    for u in range(scheme.graph.n):
        put("bits", u, sorted(scheme.tables[u].breakdown().items()))
    digest.put_walks(scheme, walks, seed)
    return digest.hexdigest()


def build_digest(scheme, walks=200, seed=0):
    """sha256 over everything a build determines, for any scheme.

    Covers every node's table-bit breakdown, the header bits, the max and
    average table bits, the compiled forwarding program (its ``describe()``
    summary plus the tree-bank slot arrays and every next-hop table's keys
    and next hops), ``rebuild_spec()`` without the oracle, and ``walks``
    seeded scalar ``route()`` walks (path, cost, found, strategy).
    """
    digest = _Digest()
    put = digest.put
    for u in range(scheme.graph.n):
        put("bits", u, sorted(scheme.tables[u].breakdown().items()))
    put("totals", sorted(scheme.table_breakdown().items()),
        scheme.header_bits(), scheme.max_table_bits(),
        scheme.avg_table_bits().hex())
    program = scheme.compiled_forwarding()
    put("program", sorted(program.describe().items()))
    bank = program.bank
    for tag in ("sizes", "offsets", "node_of_slot", "dfs_out", "parent_slot"):
        if bank.num_trees:
            digest.put_array(tag, getattr(bank, tag))
    for i, table in enumerate(program.tables):
        keys, hops = table.entries()
        digest.put_array(f"table{i}.keys", keys)
        digest.put_array(f"table{i}.next", hops)
    put("spec", sorted((k, repr(v)) for k, v in scheme.rebuild_spec().items()
                       if k != "oracle"))
    digest.put_walks(scheme, walks, seed)
    return digest.hexdigest()


# --------------------------------------------------------------------- #
# golden digests: every scheme's builds pinned to committed sha256 values
# --------------------------------------------------------------------- #
#: (scheme, family, n, seed) -> :func:`build_digest` of a k=2 build on
#: ``make_workload(family, n, seed=7)`` with build seed ``seed``, plus
#: ("agm-lf0.02", family, n, seed, k) for AGM with
#: ``AGMParams.experiment(landmark_count_factor=0.02)``, whose small nearby
#: landmark count forces the streamed top-``nearby`` membership sweep.
#: Generated with both the array-native and the original scalar
#: constructors, which agreed on every entry.
GOLDEN_BUILDS = {
    ('agm', 'barabasi-albert', 72, 3):
        '0d073ac5187101722e932687c2ddea7ac5c24225742e8f936e1cf76a9d0275aa',
    ('agm', 'barabasi-albert', 72, 11):
        '1abb59bf6b3c83badb20d45c03ab28f1b89d82665dcc22d331dabc0bdd79909a',
    ('agm', 'erdos-renyi', 72, 3):
        'a3a103ac59364cf1619c2af2499f26b9035281e9ee198cc9510ad6ff6ead6b88',
    ('agm', 'erdos-renyi', 72, 11):
        '7a21052c581a424d4806cbea59817e75af1ffc5c1e55136406fb848abce36e23',
    ('agm', 'grid', 64, 3):
        'b5c21864f102b5bd68b7e4566434ac8a8826c54f9cbf84ff3ac73caf8f001562',
    ('agm', 'grid', 64, 11):
        'a81887fa80b00e85341152241f81a7c21877dbc905a42c98d4f3e0b47aaa690c',
    ('agm-lf0.02', 'barabasi-albert', 72, 3, 2):
        '5d21bec662e46716d5169b6dc261f39505e5be10a4e382b4a220f0a229090c24',
    ('agm-lf0.02', 'barabasi-albert', 72, 3, 3):
        'b082490819cca512d0491dc89591eb11e60a4ed0f30dc52bae68ef411d2eeb07',
    ('agm-lf0.02', 'barabasi-albert', 72, 11, 2):
        '32d8d72bb123dcb35216c4f6d08cfd5aaab3b859c9ed4d3799c2fb2ca6dd1314',
    ('agm-lf0.02', 'barabasi-albert', 72, 11, 3):
        '39a24579d234dbc2c663b5f9dab01e5adbbb5eb9a3a7499b6f1d6d0ffd20a6fd',
    ('agm-lf0.02', 'erdos-renyi', 72, 3, 2):
        '84afabdad95e233a95bc58b425db65743e0d349aa4d93f1945c9de4ce071cad5',
    ('agm-lf0.02', 'erdos-renyi', 72, 3, 3):
        '55536c6beef6a88304f0309c7c8756e1fcd514c6e73ec7f6dd81b4d19af6b9a4',
    ('agm-lf0.02', 'erdos-renyi', 72, 11, 2):
        'fe93ec9be3a1dc240dbdfe2c98f75877bef829207ef16a4e0fd52b862bdcbe33',
    ('agm-lf0.02', 'erdos-renyi', 72, 11, 3):
        '6456536c5a083dad7052842454ba0f8cb87cb27dcc0267e588a5a3d419b6b798',
    ('agm-lf0.02', 'grid', 64, 3, 2):
        'ae9b0a64f2396cf10e15fed464fd426308271795993e1fd7c7c9778c665a3a51',
    ('agm-lf0.02', 'grid', 64, 3, 3):
        'a34cd7e3fb5a9e86daf7a1e03250af62ac5896a6520d46a7df4a05a9626b5955',
    ('agm-lf0.02', 'grid', 64, 11, 2):
        '940f92b3b6e70b3dde477764fd545c6a304caff027e06e17df097be2a0bf3ab2',
    ('agm-lf0.02', 'grid', 64, 11, 3):
        'cc2b77cbf8eb727e90ece11da21408bd54c28662673d7d1a35623c57d68b204c',
    ('awerbuch-peleg', 'barabasi-albert', 72, 3):
        'a3d753bf4e5e2a76795faba7fe619b26984cfa78685e42d451c4bfa336de0957',
    ('awerbuch-peleg', 'barabasi-albert', 72, 11):
        'f4c855d36733e853373b10a91aeffe0b10dc274c7cd3a8a51eeb9ed1fa55e02a',
    ('awerbuch-peleg', 'erdos-renyi', 72, 3):
        'c0f299be24e8de3fd90afede4a5fa2b84ab8c527bb7f490c92c72a10e6af0883',
    ('awerbuch-peleg', 'erdos-renyi', 72, 11):
        '629adc3fd2a94e393e97dbe7a0c1fee9144f685046ecf38454ea95304116937c',
    ('awerbuch-peleg', 'grid', 64, 3):
        '7fcc367d57e114cd531dedcbe095af8fd750ce5c46b7eabda8ac0beead649976',
    ('awerbuch-peleg', 'grid', 64, 11):
        '656eca817538102fe39c18461c157347703b9a641b11a1cedbd44485fd996c23',
    ('cowen', 'barabasi-albert', 72, 3):
        'afdd99581b38ee27725e9a7ffc19b3bdeb98ddf98bf71065dd70155ed22d9ba0',
    ('cowen', 'barabasi-albert', 72, 11):
        'a69d7f676139d11b9d91aff258240f664e401b3e08f9bb4a74b71af64c76dfbf',
    ('cowen', 'erdos-renyi', 72, 3):
        '8f29891ee642ef10128c11993af04397b4a6bdbacc6519eb96d39a48f951e853',
    ('cowen', 'erdos-renyi', 72, 11):
        '4dc8f13b495d7cb3f860a0b53670fd6b24183ab0e2f95b5289dd3de7ea70d9dc',
    ('cowen', 'grid', 64, 3):
        'fc0a3df707523ebb745f5148735e8cd4d5572d58abc288e6c2236b8cabd197f3',
    ('cowen', 'grid', 64, 11):
        'f6225c210948687a1669ad56c3b666cce5f38d3344a211f108b01561d2493c52',
    ('exponential', 'barabasi-albert', 72, 3):
        '4130d6aba5f46b38dbed7f14a52f8737016cd88274cfc3168bcbf423c9bcfb97',
    ('exponential', 'barabasi-albert', 72, 11):
        '2a6310449b3a3e6aa8b88a2048c808d3afbec427fdaa814850ef0d4ffc71a67c',
    ('exponential', 'erdos-renyi', 72, 3):
        '057cdda9d2264be895715cfba53ff77508bcaabae482b9910689b46dcbe1da41',
    ('exponential', 'erdos-renyi', 72, 11):
        '701362d4cbeaec01383bf0926e6a8a103e1ff86203b2bc1908c7b642da9255f4',
    ('exponential', 'grid', 64, 3):
        '2532509cc26bf6ebe4a72d421bb05a94d372c50b1a0db362d57535253ddc98ad',
    ('exponential', 'grid', 64, 11):
        '4e5e6d3058b84dd55c63088fa0a850861a0b91fade09ed185456746902e3114c',
    ('shortest-path', 'barabasi-albert', 72, 3):
        'deca8aa5e16f5b949b8bda6afb8a079b5ccf2d90a1518c23403b9e7c368df81e',
    ('shortest-path', 'barabasi-albert', 72, 11):
        'deca8aa5e16f5b949b8bda6afb8a079b5ccf2d90a1518c23403b9e7c368df81e',
    ('shortest-path', 'erdos-renyi', 72, 3):
        'dc23f7605ff0709a7c1f95076accc8ec119d13696280cac8e632ae6268c207c8',
    ('shortest-path', 'erdos-renyi', 72, 11):
        'dc23f7605ff0709a7c1f95076accc8ec119d13696280cac8e632ae6268c207c8',
    ('shortest-path', 'grid', 64, 3):
        '4777b7b8c5f8b6996c9c70212d57b87f2834a790550bb3c07d71fa19ffa99b26',
    ('shortest-path', 'grid', 64, 11):
        '4777b7b8c5f8b6996c9c70212d57b87f2834a790550bb3c07d71fa19ffa99b26',
    ('thorup-zwick', 'barabasi-albert', 72, 3):
        'f75b346f4e1142f37022ba5957ebe4c3621f673e78d2c785235784df4eeba4b2',
    ('thorup-zwick', 'barabasi-albert', 72, 11):
        '41ffb8c74052fdaa6008ef8b081deab20dc63467a63ba1e45a0306b8114c2200',
    ('thorup-zwick', 'erdos-renyi', 72, 3):
        '179b26538caf630acb029c5ab8c15dc77680de14cc8ca74b90fab30c5be609f5',
    ('thorup-zwick', 'erdos-renyi', 72, 11):
        'c6fdfabff9275ec85c2e9fa3de59e6a4aaca6c94fff2fee7428a67b4c5c2ffe9',
    ('thorup-zwick', 'grid', 64, 3):
        'ee998985ae74cffa1d19ae641bb3eac7be61e7819e8e8d798d65bc170076d594',
    ('thorup-zwick', 'grid', 64, 11):
        '50c8d974e6934f687ccc8e0aabb64e6349675191928e4f14a123f76f1ff9ea25',
}


def _golden_build(key):
    from repro.core.params import AGMParams

    name, family, n, seed = key[:4]
    graph = make_workload(family, n, seed=7)
    if name == "agm-lf0.02":
        params = AGMParams.experiment(landmark_count_factor=0.02)
        return build_scheme("agm", graph, k=key[4], seed=seed, params=params)
    return build_scheme(name, graph, k=2, seed=seed)


@pytest.mark.parametrize("key", sorted(GOLDEN_BUILDS), ids=repr)
def test_build_matches_golden_digest(key):
    """Every scheme's build hashes to its committed digest.

    Pins table bits, headers, the compiled forwarding program and scalar
    walks, so any change to what a build produces shows up here.
    """
    assert build_digest(_golden_build(key)) == GOLDEN_BUILDS[key]


@pytest.mark.parametrize("family,n,seed,names", sorted(GOLDEN_AGM))
def test_agm_build_matches_golden_digest(family, n, seed, names):
    """AGM builds hash to the committed digest.

    The digests were generated before the Lemma 4 layer became array-native,
    so any change to hash digits, trie or dictionary contents (including
    insertion order), search bounds, table bits or routes shows up here.
    """
    graph = _golden_graph(family, n, seed, names)
    scheme = build_scheme("agm", graph, k=2, seed=seed)
    assert agm_build_digest(scheme) == GOLDEN_AGM[(family, n, seed, names)]
