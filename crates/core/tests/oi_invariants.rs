//! Structural invariants of occurrence indices on random inputs:
//!
//! * the entry root covers every occurrence of the class, with and
//!   without contraction;
//! * each child's occurrence set is a subset of its parent's (Lemma 2 at
//!   the index level — this is what makes the enumeration's intersections
//!   antitone);
//! * each label's occurrence set is exactly the set of occurrences whose
//!   original label at that position is a (reflexive) descendant of the
//!   label — verified directly against the embeddings, with and without
//!   the frequent-label mask (under the mask, exactly the frequent
//!   ancestors of the covered originals are present);
//! * one [`OiScratch`] reused across classes of two runs with different
//!   taxonomies, masks and ancestor tables builds the same indices as
//!   fresh scratch.
//!
//! That contraction driven by covered-original groups matches a
//! set-equality oracle is checked by the unit tests of `oi.rs`, where the
//! oracle lives.

use proptest::prelude::*;
use taxogram_core::oi::{AncestorTable, OccurrenceIndex, OiEntry, OiOptions, OiScratch};
use taxogram_core::relabel::relabel;
use tsg_bitset::BitSet;
use tsg_graph::{EdgeLabel, GraphDatabase, LabeledGraph, NodeLabel};
use tsg_gspan::{Embedding, GSpan, GSpanConfig, Grow, MinedPattern, PatternSink};
use tsg_taxonomy::{Taxonomy, TaxonomyBuilder};

fn arb_taxonomy(max_concepts: usize) -> impl Strategy<Value = Taxonomy> {
    (2..=max_concepts)
        .prop_flat_map(|n| {
            let parents: Vec<_> = (1..n)
                .map(|i| prop::collection::vec(0..i, 1..=2.min(i)))
                .collect();
            (Just(n), parents)
        })
        .prop_map(|(n, parents)| {
            let mut b = TaxonomyBuilder::with_concepts(n);
            for (i, ps) in parents.into_iter().enumerate() {
                let mut seen = vec![];
                for p in ps {
                    if !seen.contains(&p) {
                        seen.push(p);
                        b.is_a(NodeLabel((i + 1) as u32), NodeLabel(p as u32)).unwrap();
                    }
                }
            }
            b.build().unwrap()
        })
}

fn arb_db(concepts: usize) -> impl Strategy<Value = GraphDatabase> {
    prop::collection::vec(
        (
            prop::collection::vec(0..concepts, 2..5),
            prop::collection::vec(0..2u32, 1..4),
        ),
        2..5,
    )
    .prop_map(|graphs| {
        let mut db = GraphDatabase::new();
        for (labels, elabels) in graphs {
            let mut g = LabeledGraph::with_nodes(labels.iter().map(|&l| NodeLabel(l as u32)));
            for i in 1..labels.len() {
                let el = elabels[(i - 1) % elabels.len()];
                g.add_edge(i - 1, i, EdgeLabel(el)).unwrap();
            }
            db.push(g);
        }
        db
    })
}

struct Classes {
    items: Vec<(LabeledGraph, Vec<Embedding>)>,
}

impl PatternSink for Classes {
    fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
        self.items.push((p.graph.clone(), p.embeddings.to_vec()));
        Grow::Continue
    }
}

const UNCONTRACTED: OiOptions = OiOptions {
    contract_equal_sets: false,
    predescend_roots: false,
};

/// Every pattern class of the relabeled database at `min_support`.
fn mine_classes(
    rel: &taxogram_core::relabel::Relabeled,
    min_support: usize,
) -> Vec<(LabeledGraph, Vec<Embedding>)> {
    let mut classes = Classes { items: vec![] };
    GSpan::new(&rel.dmg, GSpanConfig { min_support, max_edges: Some(3) }).mine(&mut classes);
    classes.items
}

/// The concepts whose generalized support reaches `min_support`.
fn frequent_mask(
    rel: &taxogram_core::relabel::Relabeled,
    db: &GraphDatabase,
    min_support: usize,
) -> BitSet {
    let freqs = rel.taxonomy.generalized_label_frequencies(db);
    let mut mask = BitSet::new(rel.taxonomy.concept_count());
    for (i, &f) in freqs.iter().enumerate() {
        if f >= min_support {
            mask.insert(i);
        }
    }
    mask
}

/// An entry's full observable content: root label, then every live label
/// in interning order with its occurrences and its children's labels.
type EntryShape = (NodeLabel, Vec<(NodeLabel, Vec<usize>, Vec<NodeLabel>)>);

fn entry_shape(entry: &OiEntry) -> EntryShape {
    let live = entry
        .live_labels()
        .map(|l| {
            let id = entry.lookup(l).unwrap();
            let kids = entry.children(id).iter().map(|&c| entry.label_of(c)).collect();
            (l, entry.occs(id).iter().collect(), kids)
        })
        .collect();
    (entry.label_of(entry.root()), live)
}

fn index_shape(oi: &OccurrenceIndex) -> (usize, Vec<u32>, usize, Vec<EntryShape>) {
    (
        oi.universe,
        oi.occ_graph.clone(),
        oi.updates,
        oi.entries.iter().map(entry_shape).collect(),
    )
}

/// One run's inputs to index construction.
struct Run {
    rel: taxogram_core::relabel::Relabeled,
    table: AncestorTable,
    classes: Vec<(LabeledGraph, Vec<Embedding>)>,
}

fn run(taxonomy: &Taxonomy, db: &GraphDatabase, min_support: usize, masked: bool) -> Run {
    let rel = relabel(db, taxonomy).unwrap();
    let mask = masked.then(|| frequent_mask(&rel, db, min_support));
    let table = AncestorTable::for_database(&rel.taxonomy, mask, &rel.originals);
    let classes = mine_classes(&rel, min_support);
    Run { rel, table, classes }
}

fn arb_run_input() -> impl Strategy<Value = (Taxonomy, GraphDatabase)> {
    arb_taxonomy(7).prop_flat_map(|t| {
        let n = t.concept_count();
        (Just(t), arb_db(n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oi_invariants_hold((taxonomy, db) in arb_taxonomy(6).prop_flat_map(|t| {
        let n = t.concept_count();
        (Just(t), arb_db(n))
    })) {
        let rel = relabel(&db, &taxonomy).unwrap();
        let table = AncestorTable::for_database(&rel.taxonomy, None, &rel.originals);
        let contracted = OiOptions { contract_equal_sets: true, predescend_roots: true };
        for ((skeleton, embeddings), options) in mine_classes(&rel, 1)
            .iter()
            .flat_map(|class| [(class, UNCONTRACTED), (class, contracted)])
        {
            let oi = OccurrenceIndex::build(
                embeddings,
                &rel.originals,
                skeleton.labels(),
                &table,
                options,
            );
            prop_assert_eq!(oi.universe, embeddings.len());
            prop_assert_eq!(oi.entries.len(), skeleton.node_count());
            for (pos, entry) in oi.entries.iter().enumerate() {
                // Root covers everything.
                let root = entry.root();
                prop_assert_eq!(entry.occs(root).len(), oi.universe);
                // Every live label's set matches the embedding-level
                // definition exactly, and children's sets are subsets.
                for label in entry.live_labels() {
                    let id = entry.lookup(label).unwrap();
                    let got: Vec<usize> = entry.occs(id).iter().collect();
                    let want: Vec<usize> = embeddings
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| {
                            let original = rel.originals[e.gid][e.map[pos]];
                            rel.taxonomy.is_ancestor(label, original)
                        })
                        .map(|(i, _)| i)
                        .collect();
                    prop_assert_eq!(&got, &want, "label {} at position {}", label, pos);
                    prop_assert!(!got.is_empty(), "covered labels have occurrences");
                    for &child in entry.children(id) {
                        let cset: Vec<usize> = entry.occs(child).iter().collect();
                        prop_assert!(
                            cset.iter().all(|o| got.contains(o)),
                            "child set must be a subset of the parent's"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn frequent_mask_admits_exactly_the_frequent_ancestors(
        (taxonomy, db) in arb_run_input(),
        floor in 1usize..=3,
    ) {
        let min_support = floor.min(db.len());
        let rel = relabel(&db, &taxonomy).unwrap();
        let mask = frequent_mask(&rel, &db, min_support);
        let table = AncestorTable::for_database(&rel.taxonomy, Some(mask.clone()), &rel.originals);
        for (skeleton, embeddings) in &mine_classes(&rel, min_support) {
            let oi = OccurrenceIndex::build(
                embeddings,
                &rel.originals,
                skeleton.labels(),
                &table,
                UNCONTRACTED,
            );
            for (pos, entry) in oi.entries.iter().enumerate() {
                // Present labels: exactly the frequent ancestors of the
                // originals at this position.
                let mut want_labels: Vec<NodeLabel> = embeddings
                    .iter()
                    .flat_map(|e| rel.taxonomy.ancestors(rel.originals[e.gid][e.map[pos]]).labels().collect::<Vec<_>>())
                    .filter(|l| mask.contains(l.index()))
                    .collect();
                want_labels.sort_unstable();
                want_labels.dedup();
                let mut got_labels: Vec<NodeLabel> = entry.live_labels().collect();
                got_labels.sort_unstable();
                prop_assert_eq!(&got_labels, &want_labels, "labels at position {}", pos);
                for label in entry.live_labels() {
                    prop_assert!(mask.contains(label.index()), "infrequent label {} present", label);
                    let got: Vec<usize> = entry.occs(entry.lookup(label).unwrap()).iter().collect();
                    let want: Vec<usize> = embeddings
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| rel.taxonomy.is_ancestor(label, rel.originals[e.gid][e.map[pos]]))
                        .map(|(i, _)| i)
                        .collect();
                    prop_assert_eq!(&got, &want, "label {} at position {}", label, pos);
                }
            }
        }
    }

    #[test]
    fn reused_scratch_across_runs_matches_fresh_builds(
        (tax_a, db_a) in arb_run_input(),
        (tax_b, db_b) in arb_run_input(),
        contract_equal_sets in proptest::bool::ANY,
    ) {
        // Two runs with different taxonomies, masks and tables, their
        // classes interleaved through one scratch and revisited: a stale
        // slot, original or local id from the other run would show.
        let runs = [
            run(&tax_a, &db_a, 1, false),
            run(&tax_b, &db_b, 2.min(db_b.len()), true),
        ];
        let options = OiOptions { contract_equal_sets, predescend_roots: true };
        let mut scratch = OiScratch::new();
        let longest = runs.iter().map(|r| r.classes.len()).max().unwrap_or(0);
        for round in 0..2 {
            for i in 0..longest {
                for r in &runs {
                    let Some((skeleton, embeddings)) = r.classes.get((i + round) % longest) else {
                        continue;
                    };
                    let reused = OccurrenceIndex::build_with_scratch(
                        embeddings,
                        &r.rel.originals,
                        skeleton.labels(),
                        &r.table,
                        options,
                        &mut scratch,
                    );
                    let fresh = OccurrenceIndex::build(
                        embeddings,
                        &r.rel.originals,
                        skeleton.labels(),
                        &r.table,
                        options,
                    );
                    prop_assert_eq!(index_shape(&reused), index_shape(&fresh));
                }
            }
        }
    }

    #[test]
    fn contraction_preserves_mining_output((taxonomy, db) in arb_taxonomy(6).prop_flat_map(|t| {
        let n = t.concept_count();
        (Just(t), arb_db(n))
    })) {
        // Contraction only removes labels whose patterns would all be
        // over-generalized; outputs with and without it must agree.
        use taxogram_core::{Enhancements, Taxogram, TaxogramConfig};
        let mut with = TaxogramConfig::with_threshold(0.5).max_edges(3);
        with.enhancements = Enhancements { contract_equal_sets: true, ..Enhancements::all() };
        let mut without = with;
        without.enhancements.contract_equal_sets = false;
        without.enhancements.predescend_roots = false;
        let a = Taxogram::new(with).mine(&db, &taxonomy).unwrap();
        let b = Taxogram::new(without).mine(&db, &taxonomy).unwrap();
        prop_assert_eq!(a.patterns.len(), b.patterns.len());
        for p in &a.patterns {
            prop_assert!(
                b.patterns.iter().any(|q| q.support_count == p.support_count
                    && tsg_iso::is_isomorphic(&p.graph, &q.graph)),
                "pattern lost by contraction"
            );
        }
    }
}
