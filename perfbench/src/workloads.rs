//! The benchmark's three workloads and their seeded inputs.
//!
//! Each workload is one registry instance of the paper's Table 1 families
//! (`tsg_datagen::registry`, which fixes the synth parameters and seeds),
//! a support threshold for `taxogram mine`, and a serve request mix over
//! the same data. Every workload runs both surfaces, the CLI rotation and
//! the serve mix, so every end-to-end metric exists on every workload;
//! [`Workload::cli_share`] splits a run's time between them.
//!
//! **What the seed varies.** The seed permutes the instance's concept
//! ids, edge labels, graph order, vertex order and edge order, and sets
//! where the serve mix's deals start. The structure stays the registry's: re-drawing the
//! taxonomy and graphs per seed moved the pattern count of one instance
//! by 14–41% (coefficient of variation over ten seeds, on all three
//! shapes, and no smaller with four times the graphs), which would swamp
//! any regression bound. A permuted instance is the same mining problem
//! presented differently: canonical DFS codes, search order, emission
//! order and every output byte change with the seed, the work does not.

use tsg_datagen::registry::{self, DatasetId};
use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeLabel};
use tsg_taxonomy::TaxonomyBuilder;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// D1000 shape: GO-like taxonomy of 7,800 concepts, 1,000 graphs of
    /// at most 20 edges (density 0.26, 10 edge labels), θ = 0.2.
    ///
    /// Chosen because Step 2 is about 95% of the mine (gSpan search and
    /// occurrence-index build), Step 3 about 3%, and the SON passes make
    /// a sharded mine cost about 1.6× a serial one. It exercises taxonomy
    /// parse, gspan, oi and shard, and bypasses enumerate, bitset and
    /// render (144 patterns).
    GoD1000,
    /// TD10 shape: synthetic taxonomy of 1,000 concepts, depth 10, 2,000
    /// is-a links; 200 graphs of at most 40 edges; θ = 0.3.
    ///
    /// Chosen because Step 3 enumeration is most of the mine and it
    /// renders about 16k patterns, while taxonomy parse is small and
    /// sharding costs only a little over serial. It exercises enumerate,
    /// bitset, render and the parallel engines, and bypasses parse and
    /// most of the SON overhead.
    DeepTd10,
    /// D1000 shape at 300 graphs over a 2,340-concept GO-like taxonomy,
    /// resident behind a default-options daemon (2 workers, 8 cache
    /// entries), θ ∈ [0.10, 0.15].
    ///
    /// Chosen because it is the only workload where per-request overhead,
    /// queueing and the θ-keyed cache matter, using the mining layer
    /// resident and repeatedly. Two closed-loop clients spread requests
    /// over more `max_edges` cache keys than the cache holds, so misses
    /// (mine plus insert, the write path) keep running beside hits
    /// (filter plus render plus wire, the read path). A hit over a
    /// θ = 0.1 run filters 1,373 patterns and renders hundreds of them
    /// (586 and 36 KB at θ = 0.15), so program work, not loopback
    /// wake-ups, sets hit latency.
    ServeMix,
}

/// Closed-loop client connections of the serve mix: one per vCPU of the
/// 2-vCPU host the benchmark was built on.
pub const CLIENTS: usize = 2;

/// Cache keys each client cycles through. Nine keys of its own against
/// the daemon's eight cache entries mean that by the time a client comes
/// back to a key, its own eight other keys have pushed it out, whatever
/// the other client did meanwhile: the first request of every visit
/// misses and mines (the write path), by construction rather than by
/// luck, so the miss ratio and the throughput hold from run to run.
pub const KEYS_PER_CLIENT: usize = 9;

/// Requests of a visit after its first: filtered from the run the first
/// one cached, so they hit (the read path). Two follow-ups make the hit
/// ratio 2/3.
const FOLLOW_UPS: usize = 2;

/// `max_edges` values of the serve mix, one cache key each; client `c`
/// owns the `c`-th run of [`KEYS_PER_CLIENT`]. The keys differ only in
/// `max_edges`, not in `baseline`: baseline mines run 2–3× slower, and a
/// two-humped miss latency puts the median in the gap between humps,
/// where it jumps from run to run.
pub const MAX_EDGES_KEYS: [Option<usize>; CLIENTS * KEYS_PER_CLIENT] = [
    None,
    Some(3),
    Some(4),
    Some(5),
    Some(6),
    Some(7),
    Some(8),
    Some(9),
    Some(10),
    Some(11),
    Some(12),
    Some(13),
    Some(14),
    Some(15),
    Some(16),
    Some(17),
    Some(18),
    Some(19),
];

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::GoD1000, Workload::DeepTd10, Workload::ServeMix];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GoD1000 => "go-d1000",
            Workload::DeepTd10 => "deep-td10",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// The registry instance: dataset id and scale.
    fn dataset(self) -> (DatasetId, f64) {
        match self {
            Workload::GoD1000 => (DatasetId::D(1000), 1.0),
            Workload::DeepTd10 => (DatasetId::TD(10), 0.05),
            Workload::ServeMix => (DatasetId::D(1000), 0.3),
        }
    }

    /// Support threshold of the CLI rotation.
    pub fn theta(self) -> f64 {
        match self {
            Workload::GoD1000 => 0.2,
            Workload::DeepTd10 => 0.3,
            Workload::ServeMix => 0.1,
        }
    }

    /// The serve mix's θ values in hundredths. Serve-mix serves from 0.10
    /// to 0.15, so every hit filters a run of 586 to 1,373 patterns and
    /// renders hundreds of them; served up to 0.2 or beyond, a hit renders
    /// so little that its median came within 10× of a loopback ping.
    /// Go-d1000 serves from θ = 0.1 up for the same reason: at 0.2 a hit
    /// filters only 144 patterns and reads as a loopback round trip.
    /// Deep-td10 serves from θ = 0.5 up: at its CLI θ of 0.3 a miss takes
    /// over half a second, too few requests for a steady median and tail.
    /// Each grid stays small because the correctness gate mines every
    /// key × θ afresh.
    pub fn serve_thetas(self) -> Vec<u32> {
        match self {
            Workload::GoD1000 => vec![10, 15, 20],
            Workload::DeepTd10 => vec![50, 55, 60],
            Workload::ServeMix => (10..=15).collect(),
        }
    }

    /// Every query the serve mix can send.
    pub fn serve_grid(self) -> Vec<Query> {
        let thetas = self.serve_thetas();
        (0..MAX_EDGES_KEYS.len())
            .flat_map(|key| thetas.iter().map(move |&theta| Query { key, theta }))
            .collect()
    }

    /// Share of the measured seconds given to the CLI rotation; the rest
    /// goes to the serve mix. A deep-td10 rotation takes about two
    /// seconds, so it keeps more of the run to make enough reps; the
    /// go-d1000 rotation is fast, and its serve mix, whose hits are light,
    /// needs the samples more.
    pub fn cli_share(self) -> f64 {
        match self {
            Workload::GoD1000 => 0.45,
            Workload::DeepTd10 => 0.6,
            Workload::ServeMix => 0.25,
        }
    }
}

/// θ from hundredths, as the same `f64` the daemon parses from the frame.
pub fn theta_of(hundredths: u32) -> f64 {
    f64::from(hundredths) / 100.0
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend
/// only on the seed and on this file.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// A workload's inputs in the CLI's text formats.
pub struct Inputs {
    /// `c`/`p` taxonomy text.
    pub taxonomy: String,
    /// `t`/`v`/`e` database text.
    pub database: String,
}

fn label(i: usize) -> u32 {
    u32::try_from(i).expect("label ids fit in u32")
}

/// Generates the workload's inputs for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let (id, scale) = workload.dataset();
    let ds = registry::build(id, scale);
    let mut rng = Rng::new(seed, 1);

    let concepts = rng.permutation(ds.taxonomy.concept_count());
    let links = ds.taxonomy.edge_list();
    let order = rng.permutation(links.len());
    let mut builder = TaxonomyBuilder::with_concepts(concepts.len());
    for &i in &order {
        let (child, parent) = links[i];
        builder
            .is_a(
                NodeLabel(label(concepts[child.0 as usize])),
                NodeLabel(label(concepts[parent.0 as usize])),
            )
            .expect("a relabeled taxonomy keeps valid links");
    }
    let taxonomy = builder.build().expect("a relabeled taxonomy stays acyclic");

    let edge_labels = 1 + ds
        .database
        .graphs()
        .iter()
        .flat_map(|g| g.edges().iter().map(|e| e.label.0 as usize))
        .max()
        .unwrap_or(0);
    let edge_perm = rng.permutation(edge_labels);
    let graph_order = rng.permutation(ds.database.len());
    let mut graphs = Vec::with_capacity(graph_order.len());
    for &gi in &graph_order {
        let g = &ds.database.graphs()[gi];
        // new_of[old vertex] = new vertex.
        let new_of = rng.permutation(g.node_count());
        let mut labels = vec![NodeLabel(0); g.node_count()];
        for (old, &l) in g.labels().iter().enumerate() {
            labels[new_of[old]] = NodeLabel(label(concepts[l.0 as usize]));
        }
        let mut out = LabeledGraph::with_nodes(labels);
        for &ei in &rng.permutation(g.edge_count()) {
            let e = &g.edges()[ei];
            out.add_edge(
                new_of[e.u],
                new_of[e.v],
                EdgeLabel(label(edge_perm[e.label.0 as usize])),
            )
            .expect("a relabeled graph keeps valid edges");
        }
        graphs.push(out);
    }
    let database = GraphDatabase::from_graphs(graphs);
    Inputs {
        taxonomy: tsg_taxonomy::io::write_taxonomy(&taxonomy, None),
        database: tsg_graph::io::write_database(&database),
    }
}

/// One serve request of the mix: a cache key and a θ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    /// Index into [`MAX_EDGES_KEYS`].
    pub key: usize,
    /// θ in hundredths.
    pub theta: u32,
}

impl Query {
    /// The request frame.
    pub fn frame(&self, id: &str) -> String {
        let max_edges = match MAX_EDGES_KEYS[self.key] {
            Some(n) => format!(",\"max_edges\":{n}"),
            None => String::new(),
        };
        format!(
            "{{\"op\":\"mine\",\"id\":\"{id}\",\"theta\":{}{max_edges}}}\n",
            theta_of(self.theta)
        )
    }
}

/// Client `client`'s seeded request sequence: visits to its own keys in
/// a seeded cyclic order. A visit is a request at a first θ of the grid
/// followed by [`FOLLOW_UPS`] requests at grid θs at or above it. The θs
/// are dealt, not drawn: each key's visits step through every first θ in
/// turn, and the follow-ups after each first θ step through every
/// combination at or above it, from seeded starting points. A run's mix
/// of θs, and so its latency medians, then hold from seed to seed to
/// within one cycle of the deal.
pub struct Mix {
    keys: Vec<usize>,
    visits: usize,
    thetas: Vec<u32>,
    /// Seeded offset of the first θ of each visit.
    first_offset: usize,
    /// Per first θ: the next follow-up combination, counted from a seeded
    /// start; its digits in base (grid values at or above it) are the
    /// follow-ups.
    next_combo: Vec<usize>,
    pending: Vec<Query>,
}

impl Mix {
    /// The mix for one client (`client < CLIENTS`) of one workload and seed.
    pub fn new(workload: Workload, seed: u64, client: usize) -> Self {
        let mut rng = Rng::new(seed, 100 + client as u64);
        let keys = rng
            .permutation(KEYS_PER_CLIENT)
            .into_iter()
            .map(|k| client * KEYS_PER_CLIENT + k)
            .collect();
        let thetas = workload.serve_thetas();
        let n = thetas.len();
        let first_offset = rng.below(n);
        let next_combo = (0..n)
            .map(|first| rng.below((n - first).pow(FOLLOW_UPS as u32)))
            .collect();
        Mix {
            keys,
            visits: 0,
            thetas,
            first_offset,
            next_combo,
            pending: Vec::new(),
        }
    }

    /// The next query.
    pub fn next_query(&mut self) -> Query {
        if let Some(q) = self.pending.pop() {
            return q;
        }
        let slot = self.visits % self.keys.len();
        let round = self.visits / self.keys.len();
        self.visits += 1;
        let key = self.keys[slot];
        let first = (self.first_offset + slot + round) % self.thetas.len();
        let span = self.thetas.len() - first;
        let mut combo = self.next_combo[first];
        self.next_combo[first] += 1;
        for _ in 0..FOLLOW_UPS {
            self.pending.push(Query {
                key,
                theta: self.thetas[first + combo % span],
            });
            combo /= span;
        }
        Query {
            key,
            theta: self.thetas[first],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn permutations_are_seeded_bijections() {
        let p = Rng::new(7, 1).permutation(100);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
        assert_eq!(p, Rng::new(7, 1).permutation(100));
        assert_ne!(p, Rng::new(8, 1).permutation(100));
    }

    #[test]
    fn each_client_cycles_its_own_keys_in_visits() {
        let grid = Workload::ServeMix.serve_grid();
        let mut seen = Vec::new();
        for client in 0..CLIENTS {
            let mut mix = Mix::new(Workload::ServeMix, 3, client);
            let mut cycle = Vec::new();
            for _ in 0..2 * KEYS_PER_CLIENT {
                let first = mix.next_query();
                assert!(grid.contains(&first));
                for _ in 0..FOLLOW_UPS {
                    let q = mix.next_query();
                    assert_eq!(q.key, first.key);
                    assert!(
                        q.theta >= first.theta,
                        "a follow-up must hit the visit's run"
                    );
                }
                cycle.push(first.key);
            }
            // The same seeded order twice over, covering the client's keys.
            assert_eq!(cycle[..KEYS_PER_CLIENT], cycle[KEYS_PER_CLIENT..]);
            let mut keys = cycle[..KEYS_PER_CLIENT].to_vec();
            keys.sort_unstable();
            let own: Vec<usize> =
                (client * KEYS_PER_CLIENT..(client + 1) * KEYS_PER_CLIENT).collect();
            assert_eq!(keys, own);
            seen.extend(keys);
        }
        assert_eq!(seen.len(), MAX_EDGES_KEYS.len());
    }

    #[test]
    fn the_deal_covers_every_key_and_theta_combination_each_cycle() {
        for w in Workload::ALL {
            let n = w.serve_thetas().len();
            let mut mix = Mix::new(w, 5, 1);
            let mut firsts = std::collections::HashSet::new();
            // n rounds give every key every first θ once.
            for _ in 0..n * KEYS_PER_CLIENT {
                let first = mix.next_query();
                assert!(firsts.insert(first), "{first:?} dealt twice in a cycle");
                for _ in 0..FOLLOW_UPS {
                    mix.next_query();
                }
            }
            assert_eq!(firsts.len(), KEYS_PER_CLIENT * n);
            // After a first θ, successive visits deal distinct follow-ups
            // until every combination at or above it has come up.
            let mut mix = Mix::new(w, 5, 1);
            let mut after = std::collections::HashMap::<u32, Vec<Vec<u32>>>::new();
            for _ in 0..n * n.pow(FOLLOW_UPS as u32) * KEYS_PER_CLIENT {
                let first = mix.next_query().theta;
                let follow = (0..FOLLOW_UPS).map(|_| mix.next_query().theta).collect();
                after.entry(first).or_default().push(follow);
            }
            let thetas = w.serve_thetas();
            for (i, first) in thetas.iter().enumerate() {
                let combos = (n - i).pow(FOLLOW_UPS as u32);
                let dealt = &after[first];
                let distinct: std::collections::HashSet<_> = dealt[..combos].iter().collect();
                assert_eq!(distinct.len(), combos, "first θ {first}");
                assert!(dealt.iter().flatten().all(|t| t >= first));
            }
        }
    }

    #[test]
    fn frames_carry_the_theta_the_gate_mines_at() {
        let q = Query { key: 1, theta: 12 };
        assert_eq!(
            q.frame("c0-1"),
            "{\"op\":\"mine\",\"id\":\"c0-1\",\"theta\":0.12,\"max_edges\":3}\n"
        );
        let parsed = tsg_serve::parse_request(q.frame("x").trim_end()).unwrap();
        let tsg_serve::Request::Mine(m) = parsed else {
            panic!("not a mine request")
        };
        assert_eq!(m.theta, theta_of(12));
        assert_eq!(m.max_edges, Some(3));
    }
}
