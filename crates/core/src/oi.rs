//! Taxonomy-projected occurrence indices (paper §3, Step 2).
//!
//! For a pattern class `P` (a frequent pattern of the relabeled database),
//! the occurrence index `OI(P)` holds one *occurrence index entry* (OIE)
//! per pattern node: a projection of the taxonomy onto the labels covered
//! by the pattern at that position (plus their ancestors), each label
//! carrying the set of occurrences observed under it. Occurrences are
//! gSpan embeddings, numbered densely per class; a map from occurrence to
//! database graph supports the paper's per-graph support counting.
//!
//! Three choices make construction cheap — the paper's Lemma 5 cost, one
//! update per `(occurrence, ancestor label)` pair, at a few nanoseconds
//! each:
//!
//! * **Ancestors are resolved once per run** ([`AncestorTable`]). Every
//!   label the database uses gets its reflexive ancestors, filtered by the
//!   frequent-label mask, in one flat read-only table that all workers
//!   share; each admitted ancestor also carries its admitted parents.
//!   Index construction never touches the taxonomy (nor its closure memo).
//! * **Each entry is built in one dense pass.** Occurrences are grouped
//!   by original label, labels are interned into dense local ids through
//!   slot-indexed arrays (no hashing), and each label's occurrence list is
//!   filled in ascending occurrence order, so every set is built straight
//!   from a sorted list ([`AdaptiveBitSet::from_sorted`]) with no sort or
//!   dedup. Interning order is fixed — originals in ascending label order,
//!   each original's ancestors ascending — because entry-children order,
//!   and with it emission order, follows it.
//! * **Contraction runs on counts, before any set exists.** Contraction
//!   (enhancements *c*/*d*) asks only whether a label's occurrence set
//!   equals a child's. Every occurrence has exactly one original label per
//!   position, so a label's set is the union of its covered originals'
//!   occurrences, and a child covers a subset of its parent's originals;
//!   equal sets are therefore equal occurrence counts, which interning
//!   already produces. No set is scanned or compared, and labels
//!   contracted away never get a set.
//!
//! Occurrence sets are adaptive ([`AdaptiveBitSet`]): most labels cover
//! few occurrences and store them as 2-byte sorted arrays, labels near the
//! root cover nearly everything and come out as run or bitmap containers —
//! storage stays proportional to content (the paper's Lemma 4 bound)
//! rather than `labels × occurrence-universe`. The enumerator's working
//! set stays a dense bitset — there is exactly one per recursion level.

// tsg-lint: allow(index) — occurrence-index rows and scratch arrays are indexed by dense slot, original, local and occurrence ids issued during construction of the same table and index

use tsg_bitset::{AdaptiveBitSet, BitSet};
use tsg_graph::{GraphId, NodeLabel};
use tsg_gspan::Embedding;
use tsg_taxonomy::Taxonomy;

/// Local (per-entry) label id.
pub type LocalId = u32;

/// The "absent" value of the dense slot, row and local-id tables.
const NONE: u32 = u32::MAX;

/// One taxonomy label's slot inside an OIE.
#[derive(Debug, Clone)]
pub struct OiNode {
    /// The occurrences of the class whose original label at this position
    /// is a (reflexive) descendant of this label; empty once contracted
    /// away.
    pub occs: AdaptiveBitSet,
    /// Children of this label *within the entry* (taxonomy children
    /// restricted to covered labels, possibly rewired by contraction), as
    /// local ids.
    pub children: Vec<LocalId>,
    /// `false` once removed by contraction.
    alive: bool,
}

/// The occurrence index entry of one pattern node: a sub-taxonomy rooted
/// at the node's most-general label, with labels interned to local ids.
#[derive(Debug, Clone)]
pub struct OiEntry {
    labels: Vec<NodeLabel>,
    nodes: Vec<OiNode>,
    root: LocalId,
}

impl OiEntry {
    /// The entry's root (the pattern node's most-general label, possibly
    /// replaced by an equal-occurrence child via enhancement *c*/*d*).
    pub fn root(&self) -> LocalId {
        self.root
    }

    /// The taxonomy label behind a local id.
    #[inline]
    pub fn label_of(&self, id: LocalId) -> NodeLabel {
        self.labels[id as usize]
    }

    /// The local id of a taxonomy label, if present (and alive). A linear
    /// scan: mining never asks, so the entry keeps no label index.
    pub fn lookup(&self, label: NodeLabel) -> Option<LocalId> {
        self.labels
            .iter()
            .position(|&l| l == label)
            .filter(|&id| self.nodes[id].alive)
            .map(|id| id as LocalId)
    }

    /// The occurrence set of a local id.
    #[inline]
    pub fn occs(&self, id: LocalId) -> &AdaptiveBitSet {
        &self.nodes[id as usize].occs
    }

    /// Children of a local id within the entry.
    #[inline]
    pub fn children(&self, id: LocalId) -> &[LocalId] {
        &self.nodes[id as usize].children
    }

    /// `true` iff `label` is present (and not contracted away).
    pub fn contains(&self, label: NodeLabel) -> bool {
        self.lookup(label).is_some()
    }

    /// Number of live labels in the entry.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// `true` iff the entry has no live labels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the live labels in interning order.
    pub fn live_labels(&self) -> impl Iterator<Item = NodeLabel> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| self.labels[i])
    }

    /// Approximate heap footprint, for the memory accounting the scaling
    /// experiments report.
    pub fn heap_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.occs.heap_bytes() + n.children.len() * std::mem::size_of::<LocalId>())
            .sum::<usize>()
            + self.labels.len() * std::mem::size_of::<NodeLabel>()
    }
}

/// The occurrence index of one pattern class.
#[derive(Debug, Clone)]
pub struct OccurrenceIndex {
    /// Number of occurrences (embeddings) of the class — the bitset
    /// universe.
    pub universe: usize,
    /// Occurrence id → database graph id.
    pub occ_graph: Vec<u32>,
    /// One entry per pattern node, indexed by DFS vertex id.
    pub entries: Vec<OiEntry>,
    /// Number of `(occurrence, ancestor-label)` insertions performed —
    /// the update count of the paper's Lemma 5 cost model.
    pub updates: usize,
}

/// Options controlling index construction. Which labels are materialized
/// at all (enhancement *b*) is fixed by the [`AncestorTable`]'s mask.
#[derive(Debug, Clone, Copy)]
pub struct OiOptions {
    /// Contract labels whose occurrence set equals their unique equal
    /// child's, anywhere in the entry (enhancement *d*).
    pub contract_equal_sets: bool,
    /// Contract at entry roots only (enhancement *c*); subsumed by
    /// `contract_equal_sets`.
    pub predescend_roots: bool,
}

/// Each database label's reflexive ancestors, resolved once per run.
///
/// Labels live in *slots*: one per database label and one per admitted
/// ancestor of one. A database label's slot holds its *row* — its
/// reflexive ancestors that pass the frequent-label mask (enhancement *b*
/// / Step 2 note (ii)), as slots, ascending by label — and every admitted
/// slot holds its admitted parents, in the taxonomy's parent order. The
/// mask is monotone upward, so an admitted label's admitted parents are
/// admitted ancestors of the same database label and always have slots.
///
/// Storage is one 4-byte slot id per concept plus the rows and parent
/// lists of the labels the database uses — never `concepts × depth`.
/// Built once per run and shared read-only by every worker; the
/// out-of-core engine [`extend`](Self::extend)s it as graphs stream in.
#[derive(Debug, Clone)]
pub struct AncestorTable {
    frequent: Option<BitSet>,
    /// Concept id → slot, `NONE` outside the table.
    slot_of: Vec<u32>,
    /// Slot → concept.
    labels: Vec<NodeLabel>,
    /// Slot → `(start, len)` of its row in `rows`; `start` is `NONE` for
    /// slots that are only ancestors.
    row: Vec<(u32, u32)>,
    rows: Vec<u32>,
    /// Slot → `(start, len)` of its admitted parents in `parents`;
    /// `start` is `NONE` for slots that are not admitted.
    parent: Vec<(u32, u32)>,
    parents: Vec<u32>,
}

impl AncestorTable {
    /// An empty table over `taxonomy`'s concepts. With `frequent`, only
    /// labels in the mask are admitted into rows.
    pub fn new(taxonomy: &Taxonomy, frequent: Option<BitSet>) -> AncestorTable {
        AncestorTable {
            frequent,
            slot_of: vec![NONE; taxonomy.concept_count()],
            labels: Vec::new(),
            row: Vec::new(),
            rows: Vec::new(),
            parent: Vec::new(),
            parents: Vec::new(),
        }
    }

    /// The table for every label of `originals` (one label list per
    /// database graph).
    pub fn for_database(
        taxonomy: &Taxonomy,
        frequent: Option<BitSet>,
        originals: &[Vec<NodeLabel>],
    ) -> AncestorTable {
        let mut table = AncestorTable::new(taxonomy, frequent);
        for labels in originals {
            table.extend(taxonomy, labels);
        }
        table
    }

    /// Adds the rows of `labels` not yet in the table. `taxonomy` must be
    /// the one the table was made for.
    pub fn extend(&mut self, taxonomy: &Taxonomy, labels: &[NodeLabel]) {
        for &label in labels {
            let slot = self.slot(label) as usize;
            if self.row[slot].0 != NONE {
                continue;
            }
            let start = self.rows.len();
            for a in taxonomy.ancestors(label).iter() {
                if self.admits(a) {
                    let a_slot = self.slot(NodeLabel(a as u32));
                    self.rows.push(a_slot);
                }
            }
            self.row[slot] = (start as u32, (self.rows.len() - start) as u32);
            // The whole admitted closure now has slots, so every admitted
            // parent of a row member resolves.
            for i in start..self.rows.len() {
                let a_slot = self.rows[i] as usize;
                if self.parent[a_slot].0 != NONE {
                    continue;
                }
                let p_start = self.parents.len();
                for &p in taxonomy.parents(self.labels[a_slot]) {
                    if self.admits(p.index()) {
                        debug_assert_ne!(self.slot_of[p.index()], NONE);
                        self.parents.push(self.slot_of[p.index()]);
                    }
                }
                self.parent[a_slot] = (p_start as u32, (self.parents.len() - p_start) as u32);
            }
        }
    }

    /// The slot of `label`, created (row-less, parent-less) if new.
    fn slot(&mut self, label: NodeLabel) -> u32 {
        let slot = &mut self.slot_of[label.index()];
        if *slot == NONE {
            *slot = self.labels.len() as u32;
            self.labels.push(label);
            self.row.push((NONE, 0));
            self.parent.push((NONE, 0));
        }
        *slot
    }

    fn admits(&self, concept: usize) -> bool {
        self.frequent.as_ref().is_none_or(|f| f.contains(concept))
    }

    /// Number of slots (database labels plus their admitted ancestors).
    fn slot_count(&self) -> usize {
        self.labels.len()
    }

    /// The admitted reflexive ancestors of a database label, ascending;
    /// `None` if the label has no row.
    #[cfg(test)]
    fn ancestors(&self, label: NodeLabel) -> Option<impl Iterator<Item = NodeLabel> + '_> {
        let slot = *self.slot_of.get(label.index())?;
        if slot == NONE || self.row[slot as usize].0 == NONE {
            return None;
        }
        Some(self.row_of(slot).iter().map(|&a| self.labels[a as usize]))
    }

    /// The row of a database label's slot.
    #[inline]
    fn row_of(&self, slot: u32) -> &[u32] {
        let (start, len) = self.row[slot as usize];
        debug_assert_ne!(start, NONE, "slot without a row");
        &self.rows[start as usize..(start + len) as usize]
    }

    /// The admitted parents of an admitted slot.
    #[inline]
    fn parents_of(&self, slot: u32) -> &[u32] {
        let (start, len) = self.parent[slot as usize];
        &self.parents[start as usize..(start + len) as usize]
    }
}

/// Reusable per-worker scratch for index construction: the class's
/// original slots, dense slot-indexed interning tables and the per-entry
/// grouping, interning and fill buffers. One `OiScratch` serves any
/// number of classes in sequence, from any number of runs: the
/// slot-indexed tables are reset after every entry and grow to the
/// largest [`AncestorTable`] seen.
#[derive(Debug, Default)]
pub struct OiScratch {
    /// Position-major: the table slot of each occurrence's original label
    /// at each pattern position, read in one pass over the embeddings.
    occ_slot: Vec<u32>,
    /// Table slot → local id in the entry being built (`NONE` otherwise).
    local_of_slot: Vec<u32>,
    /// Table slot → the entry's index of that original (`NONE` otherwise).
    original_of_slot: Vec<u32>,
    /// The entry's distinct originals, as slots, in first-seen order.
    originals: Vec<u32>,
    /// Occurrences per distinct original.
    original_occs: Vec<u32>,
    /// Per distinct original: its ancestors' local ids, as a
    /// `(start, len)` range of `original_locals`.
    original_range: Vec<(u32, u32)>,
    original_locals: Vec<LocalId>,
    /// `label << 32 | original`, sorted: the originals in label order.
    order: Vec<u64>,
    /// Per occurrence: its distinct original.
    occ_original: Vec<u32>,
    /// Per local id: its table slot.
    local_slot: Vec<u32>,
    /// Per local id: its occurrence count — the contraction key.
    count: Vec<u32>,
    /// Per local id: next write position in `fill`, then its end.
    cursor: Vec<u32>,
    /// The live labels' ascending occurrence lists, back to back.
    fill: Vec<usize>,
}

impl OiScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        OiScratch::default()
    }

    /// Reads every occurrence's original label at every position, as
    /// table slots, in one pass over the embeddings.
    fn load(
        &mut self,
        embeddings: &[Embedding],
        originals: &[Vec<NodeLabel>],
        positions: usize,
        table: &AncestorTable,
    ) {
        let universe = embeddings.len();
        self.occ_slot.clear();
        self.occ_slot.resize(universe * positions, NONE);
        for (occ, emb) in embeddings.iter().enumerate() {
            let labels = &originals[emb.gid];
            for (pos, &v) in emb.map.iter().enumerate() {
                self.occ_slot[pos * universe + occ] = table.slot_of[labels[v].index()];
            }
        }
        if self.local_of_slot.len() < table.slot_count() {
            self.local_of_slot.resize(table.slot_count(), NONE);
            self.original_of_slot.resize(table.slot_count(), NONE);
        }
    }

    /// Builds (and contracts, per `options`) the entry of pattern
    /// position `pos` from the slots [`load`](Self::load)ed for a class
    /// of `universe` occurrences. Returns the entry and its update count.
    fn build_entry(
        &mut self,
        universe: usize,
        pos: usize,
        mg: NodeLabel,
        table: &AncestorTable,
        options: OiOptions,
    ) -> (OiEntry, usize) {
        // Group occurrences by original label: originals repeat heavily
        // across a class's occurrences, so all per-label work below runs
        // once per (distinct original, ancestor).
        self.originals.clear();
        self.original_occs.clear();
        self.occ_original.clear();
        for &slot in &self.occ_slot[pos * universe..(pos + 1) * universe] {
            let mut d = self.original_of_slot[slot as usize];
            if d == NONE {
                d = self.originals.len() as u32;
                self.original_of_slot[slot as usize] = d;
                self.originals.push(slot);
                self.original_occs.push(0);
            }
            self.original_occs[d as usize] += 1;
            self.occ_original.push(d);
        }
        self.order.clear();
        self.order.extend(
            self.originals
                .iter()
                .enumerate()
                .map(|(d, &slot)| u64::from(table.labels[slot as usize].0) << 32 | d as u64),
        );
        self.order.sort_unstable();

        // Intern in ascending label order of originals, each original's
        // ancestors ascending, counting every label's occurrences.
        let mut labels: Vec<NodeLabel> = Vec::new();
        let mut updates = 0usize;
        self.local_slot.clear();
        self.count.clear();
        self.original_range.clear();
        self.original_range.resize(self.originals.len(), (0, 0));
        self.original_locals.clear();
        for &key in &self.order {
            let d = key as u32 as usize;
            let occs = self.original_occs[d];
            let start = self.original_locals.len() as u32;
            let row = table.row_of(self.originals[d]);
            for &a in row {
                let mut local = self.local_of_slot[a as usize];
                if local == NONE {
                    local = labels.len() as LocalId;
                    self.local_of_slot[a as usize] = local;
                    labels.push(table.labels[a as usize]);
                    self.local_slot.push(a);
                    self.count.push(0);
                }
                self.count[local as usize] += occs;
                self.original_locals.push(local);
            }
            self.original_range[d] = (start, row.len() as u32);
            updates += occs as usize * row.len();
        }

        // Wire children within the entry through each label's admitted
        // parents (typically one or two on real ontologies) rather than
        // its taxonomy children (hundreds for top-level concepts in wide
        // taxonomies). Children lists come out in ascending local id.
        let mut nodes: Vec<OiNode> = (0..labels.len())
            .map(|_| OiNode {
                occs: AdaptiveBitSet::new(),
                children: Vec::new(),
                alive: true,
            })
            .collect();
        for (id, &slot) in self.local_slot.iter().enumerate() {
            for &p in table.parents_of(slot) {
                let pid = self.local_of_slot[p as usize];
                if pid != NONE {
                    nodes[pid as usize].children.push(id as LocalId);
                }
            }
        }
        let root = self.local_of_slot[table.slot_of[mg.index()] as usize];
        assert_ne!(
            root, NONE,
            "the most-general label is an ancestor of every original, so it is covered"
        );
        for &slot in &self.local_slot {
            self.local_of_slot[slot as usize] = NONE;
        }
        for &slot in &self.originals {
            self.original_of_slot[slot as usize] = NONE;
        }
        let mut entry = OiEntry {
            labels,
            nodes,
            root,
        };

        // Contraction needs only set equality between a label and its
        // children, and a child's set is always a subset of its parent's
        // (every original under the child is under the parent, before and
        // after rewiring) — so equal sets ⇔ equal counts, and contraction
        // runs before any set exists.
        if options.contract_equal_sets {
            contract(&mut entry, false, &self.count);
        } else if options.predescend_roots {
            contract(&mut entry, true, &self.count);
        }

        // Fill the live labels' lists in one ascending pass over the
        // occurrences: `cursor` holds each live list's next write position
        // (`NONE` for contracted labels) and ends at each list's end.
        self.cursor.clear();
        let mut filled = 0u32;
        for (node, &count) in entry.nodes.iter().zip(&self.count) {
            if node.alive {
                self.cursor.push(filled);
                filled += count;
            } else {
                self.cursor.push(NONE);
            }
        }
        self.fill.clear();
        self.fill.resize(filled as usize, 0);
        for (occ, &d) in self.occ_original.iter().enumerate() {
            let (start, len) = self.original_range[d as usize];
            for &local in &self.original_locals[start as usize..(start + len) as usize] {
                let at = &mut self.cursor[local as usize];
                if *at != NONE {
                    self.fill[*at as usize] = occ;
                    *at += 1;
                }
            }
        }
        for ((node, &end), &count) in entry.nodes.iter_mut().zip(&self.cursor).zip(&self.count) {
            if end != NONE {
                node.occs = AdaptiveBitSet::from_sorted(&self.fill[(end - count) as usize..end as usize]);
            }
        }
        (entry, updates)
    }
}

impl OccurrenceIndex {
    /// Builds the index for a pattern class from gSpan's embeddings.
    ///
    /// `mg_labels` are the class's most-general labels per pattern node;
    /// `originals[gid][v]` gives pre-relabeling vertex labels, and
    /// `ancestors` must have a row for every original the embeddings
    /// reach.
    pub fn build(
        embeddings: &[Embedding],
        originals: &[Vec<NodeLabel>],
        mg_labels: &[NodeLabel],
        ancestors: &AncestorTable,
        options: OiOptions,
    ) -> OccurrenceIndex {
        let mut scratch = OiScratch::new();
        OccurrenceIndex::build_with_scratch(
            embeddings,
            originals,
            mg_labels,
            ancestors,
            options,
            &mut scratch,
        )
    }

    /// Like [`OccurrenceIndex::build`], reusing a caller-owned
    /// [`OiScratch`] across classes (every engine holds one per worker).
    pub fn build_with_scratch(
        embeddings: &[Embedding],
        originals: &[Vec<NodeLabel>],
        mg_labels: &[NodeLabel],
        ancestors: &AncestorTable,
        options: OiOptions,
        scratch: &mut OiScratch,
    ) -> OccurrenceIndex {
        let universe = embeddings.len();
        scratch.load(embeddings, originals, mg_labels.len(), ancestors);
        let mut updates = 0usize;
        let entries = mg_labels
            .iter()
            .enumerate()
            .map(|(pos, &mg)| {
                let (entry, n) = scratch.build_entry(universe, pos, mg, ancestors, options);
                updates += n;
                entry
            })
            .collect();
        OccurrenceIndex {
            universe,
            occ_graph: embeddings.iter().map(|e| e.gid as u32).collect(),
            entries,
            updates,
        }
    }

    /// The full occurrence set of the class (every bit set).
    pub fn full_set(&self) -> BitSet {
        BitSet::full(self.universe)
    }

    /// The number of distinct graphs among all occurrences. Walks the
    /// occurrence→graph projection directly — the full occurrence set is
    /// by definition all-ones, so materializing it buys nothing.
    pub fn graph_support(&self, db_len: usize) -> usize {
        let mut scratch = BitSet::new(db_len);
        let mut n = 0;
        for &g in &self.occ_graph {
            if scratch.insert(g as usize) {
                n += 1;
            }
        }
        n
    }

    /// Approximate heap footprint of all entries.
    pub fn heap_bytes(&self) -> usize {
        self.entries.iter().map(OiEntry::heap_bytes).sum::<usize>()
            + self.occ_graph.len() * std::mem::size_of::<u32>()
    }
}

/// Contracts labels whose occurrence set equals exactly one child's set:
/// the label is removed and the child rewired to its parents (enhancement
/// *d*; with `roots_only`, applied only while the entry root qualifies —
/// enhancement *c*). Any pattern using a removed label is necessarily
/// over-generalized: replacing it by the equal child preserves the
/// occurrence set, hence the support, of every pattern in the class.
///
/// `key` decides set equality between a label and its child: equal keys
/// ⇔ equal occurrence sets, for every parent/child pair the contraction
/// meets. Index construction passes occurrence counts (children's sets
/// are subsets of their parents'); any equal-set partition (group ids)
/// works too. Occurrence sets never change during contraction (only the
/// DAG structure does), so every equality question is a key comparison.
/// Equal sets are the *common* case here (that is why enhancements
/// (c)/(d) exist).
fn contract(entry: &mut OiEntry, roots_only: bool, key: &[u32]) {
    let n = entry.nodes.len();
    // Reverse (parent) adjacency, maintained across contractions.
    let mut parents: Vec<Vec<LocalId>> = vec![Vec::new(); n];
    for (id, node) in entry.nodes.iter().enumerate() {
        for &c in &node.children {
            parents[c as usize].push(id as LocalId);
        }
    }
    let mut queue: Vec<LocalId> = if roots_only {
        vec![entry.root]
    } else {
        (0..n as LocalId).collect()
    };
    while let Some(parent) = queue.pop() {
        if roots_only && parent != entry.root {
            continue;
        }
        if !entry.nodes[parent as usize].alive {
            continue;
        }
        let Some(child) = equal_unique_child(entry, parent, key) else {
            continue;
        };
        entry.nodes[parent as usize].alive = false;
        // Rewire: everything that listed `parent` as a child now lists
        // `child` (deduplicated) — and becomes a candidate itself.
        let parent_parents = std::mem::take(&mut parents[parent as usize]);
        for gp in parent_parents {
            if !entry.nodes[gp as usize].alive {
                continue;
            }
            let node = &mut entry.nodes[gp as usize];
            if let Some(i) = node.children.iter().position(|&c| c == parent) {
                node.children.remove(i);
                if !node.children.contains(&child) {
                    node.children.push(child);
                    parents[child as usize].push(gp);
                }
                queue.push(gp);
            }
        }
        // `parent`'s other children were siblings of `child`; they remain
        // reachable below `child` (their sets are subsets of `parent`'s
        // = `child`'s, so the generalization order is preserved).
        let orphans: Vec<LocalId> = entry.nodes[parent as usize]
            .children
            .iter()
            .copied()
            .filter(|&c| c != child)
            .collect();
        for c in orphans {
            if !entry.nodes[child as usize].children.contains(&c) {
                entry.nodes[child as usize].children.push(c);
                parents[c as usize].push(child);
            }
        }
        if entry.root == parent {
            entry.root = child;
            queue.push(child);
        }
    }
}

/// An order-sensitive fingerprint of a sorted occurrence set; equal sets
/// always collide, unequal ones almost never do.
#[cfg(test)]
fn set_fingerprint(set: &AdaptiveBitSet) -> u64 {
    let mut h = set.len() as u64;
    set.for_each(|o| {
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(o as u64 + 1);
    });
    h
}

/// The set-equality oracle for the covered-original groups: partitions
/// the entry's labels into equal-occurrence-set groups by comparing the
/// sets themselves. Fingerprints bucket the labels; within a bucket each
/// label is verified element-wise against its subgroup's representative,
/// so correctness never rests on hash quality.
#[cfg(test)]
fn equal_set_groups(entry: &OiEntry) -> Vec<u32> {
    let mut buckets: std::collections::HashMap<(usize, u64), Vec<LocalId>> =
        std::collections::HashMap::new();
    for (id, node) in entry.nodes.iter().enumerate() {
        buckets
            .entry((node.occs.len(), set_fingerprint(&node.occs)))
            .or_default()
            .push(id as LocalId);
    }
    let mut group_of = vec![0u32; entry.nodes.len()];
    let mut next_group = 0u32;
    for (_, members) in buckets {
        let mut reps: Vec<(LocalId, u32)> = Vec::new();
        for l in members {
            let set = &entry.nodes[l as usize].occs;
            match reps
                .iter()
                .find(|(r, _)| entry.nodes[*r as usize].occs == *set)
            {
                Some(&(_, g)) => group_of[l as usize] = g,
                None => {
                    reps.push((l, next_group));
                    group_of[l as usize] = next_group;
                    next_group += 1;
                }
            }
        }
    }
    group_of
}

/// If exactly one child of `l` has an occurrence set equal to `l`'s,
/// returns it.
fn equal_unique_child(entry: &OiEntry, l: LocalId, key: &[u32]) -> Option<LocalId> {
    let node = &entry.nodes[l as usize];
    let own = key[l as usize];
    let mut equal = None;
    for &c in &node.children {
        if key[c as usize] == own {
            if equal.is_some() {
                return None; // ambiguous — skip contraction for safety
            }
            equal = Some(c);
        }
    }
    equal
}

/// Convenience for tests and examples: the graph ids (sorted,
/// deduplicated) covered by an occurrence set (any iterable of occurrence
/// ids).
pub fn occ_set_graphs(set: impl IntoIterator<Item = usize>, occ_graph: &[u32]) -> Vec<GraphId> {
    let mut gids: Vec<GraphId> = set.into_iter().map(|o| occ_graph[o] as GraphId).collect();
    gids.sort_unstable();
    gids.dedup();
    gids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tsg_taxonomy::samples;

    /// Grabs the 1-edge (`a—a`) pattern class of the relabeled Figure 1.4
    /// database: its embeddings and most-general labels.
    fn grab_edge_class(
        rel: &crate::relabel::Relabeled,
    ) -> (Vec<tsg_gspan::Embedding>, Vec<NodeLabel>) {
        struct Grab {
            embs: Vec<tsg_gspan::Embedding>,
            labels: Vec<NodeLabel>,
        }
        impl tsg_gspan::PatternSink for Grab {
            fn report(&mut self, p: &tsg_gspan::MinedPattern<'_>) -> tsg_gspan::Grow {
                if p.graph.edge_count() == 1 && self.embs.is_empty() {
                    self.embs = p.embeddings.to_vec();
                    self.labels = p.graph.labels().to_vec();
                }
                tsg_gspan::Grow::Continue
            }
        }
        let mut grab = Grab {
            embs: vec![],
            labels: vec![],
        };
        tsg_gspan::GSpan::new(
            &rel.dmg,
            tsg_gspan::GSpanConfig {
                min_support: 2,
                max_edges: None,
            },
        )
        .mine(&mut grab);
        assert!(!grab.embs.is_empty(), "the a—a class is frequent");
        (grab.embs, grab.labels)
    }

    /// Builds the paper's Figure 3.2 scenario: pattern class `a—a` over
    /// the Figure 1.4 database.
    fn figure_3_2_index() -> (samples::SampleConcepts, OccurrenceIndex) {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let rel = crate::relabel::relabel(&db, &t).unwrap();
        let (embs, labels) = grab_edge_class(&rel);
        let table = AncestorTable::for_database(&rel.taxonomy, None, &rel.originals);
        let oi = OccurrenceIndex::build(
            &embs,
            &rel.originals,
            &labels,
            &table,
            OiOptions {
                contract_equal_sets: false,
                predescend_roots: false,
            },
        );
        (c, oi)
    }

    #[test]
    fn figure_3_2_entry_structure() {
        let (c, oi) = figure_3_2_index();
        assert_eq!(oi.entries.len(), 2, "one OIE per pattern node");
        // Paper: a—a has 4 subgraph occurrences (1.1, 2.1, 2.2, 3.1); each
        // is found in both vertex orders by gSpan, so 8 embeddings.
        assert_eq!(oi.universe, 8);
        for entry in &oi.entries {
            assert_eq!(entry.label_of(entry.root()), c.a);
            // Root covers every occurrence.
            assert_eq!(entry.occs(entry.root()).len(), 8);
            // b and c are covered (as ancestors of d/b resp. f/g/w/c).
            assert!(entry.contains(c.b));
            assert!(entry.contains(c.c));
            // Deep unrelated labels are not.
            assert!(!entry.contains(c.k));
            let root_children: Vec<NodeLabel> = entry
                .children(entry.root())
                .iter()
                .map(|&id| entry.label_of(id))
                .collect();
            assert!(root_children.contains(&c.b));
            assert!(root_children.contains(&c.c));
        }
        // Each occurrence of graph 0 (d—b) has a b-descendant original at
        // some position, so OcS(b) covers graph 0.
        let e0 = &oi.entries[0];
        let b_id = e0.lookup(c.b).unwrap();
        let graphs_of_b = occ_set_graphs(e0.occs(b_id).iter(), &oi.occ_graph);
        assert!(graphs_of_b.contains(&0));
        assert_eq!(oi.graph_support(3), 3);
    }

    #[test]
    fn frequency_filter_drops_labels() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let rel = crate::relabel::relabel(&db, &t).unwrap();
        let (embs, labels) = grab_edge_class(&rel);
        // Admit only a and b into the index.
        let mut frequent = BitSet::new(rel.taxonomy.concept_count());
        frequent.insert(c.a.index());
        frequent.insert(c.b.index());
        let table = AncestorTable::for_database(&rel.taxonomy, Some(frequent), &rel.originals);
        let oi = OccurrenceIndex::build(
            &embs,
            &rel.originals,
            &labels,
            &table,
            OiOptions {
                contract_equal_sets: false,
                predescend_roots: false,
            },
        );
        for e in &oi.entries {
            assert!(e.contains(c.a));
            assert!(e.contains(c.b));
            assert!(!e.contains(c.c), "c filtered out");
            assert!(!e.contains(c.d), "d filtered out");
        }
    }

    /// Hand-builds an entry from `(label, occurrences, children)` rows.
    fn make_entry(rows: &[(u32, &[usize], &[u32])], root: u32) -> OiEntry {
        let mut labels = Vec::new();
        let mut nodes = Vec::new();
        for (label, occs, children) in rows {
            labels.push(NodeLabel(*label));
            nodes.push(OiNode {
                occs: AdaptiveBitSet::from_members(occs.to_vec()),
                children: children.to_vec(),
                alive: true,
            });
        }
        OiEntry {
            labels,
            nodes,
            root,
        }
    }

    /// Contracts a hand-built entry using the set-equality oracle's groups.
    fn contract_by_sets(entry: &mut OiEntry, roots_only: bool) {
        let groups = equal_set_groups(entry);
        contract(entry, roots_only, &groups);
    }

    #[test]
    fn contraction_removes_equal_parent() {
        // root r (occs {0,1}) → x (occs {0,1}) → y (occs {0}):
        // contraction removes r, x becomes root.
        let mut entry = make_entry(
            &[(0, &[0, 1], &[1]), (1, &[0, 1], &[2]), (2, &[0], &[])],
            0,
        );
        contract_by_sets(&mut entry, false);
        assert!(!entry.contains(NodeLabel(0)));
        assert_eq!(entry.label_of(entry.root()), NodeLabel(1));
        assert_eq!(entry.children(entry.root()), &[2]);
        assert_eq!(entry.len(), 2);
    }

    #[test]
    fn ambiguous_equal_children_are_not_contracted() {
        let mut entry = make_entry(
            &[(0, &[0, 1], &[1, 2]), (1, &[0, 1], &[]), (2, &[0, 1], &[])],
            0,
        );
        contract_by_sets(&mut entry, false);
        assert!(entry.contains(NodeLabel(0)), "two equal children: skipped");
        assert_eq!(entry.len(), 3);
    }

    #[test]
    fn roots_only_contraction_stops_below_root() {
        // r(={0,1}) → {x(={0}), w(={1})}, x → x2(={0}): the non-root pair
        // (x, x2) is only contracted in full mode.
        let rows: &[(u32, &[usize], &[u32])] = &[
            (0, &[0, 1], &[1, 2]),
            (1, &[0], &[3]),
            (2, &[1], &[]),
            (3, &[0], &[]),
        ];
        let mut roots_only_entry = make_entry(rows, 0);
        contract_by_sets(&mut roots_only_entry, true);
        assert!(
            roots_only_entry.contains(NodeLabel(1)),
            "non-root pair untouched"
        );
        assert_eq!(roots_only_entry.len(), 4);
        let mut full_entry = make_entry(rows, 0);
        contract_by_sets(&mut full_entry, false);
        assert!(!full_entry.contains(NodeLabel(1)), "full mode removes x");
        let root_children: Vec<NodeLabel> = full_entry
            .children(full_entry.root())
            .iter()
            .map(|&id| full_entry.label_of(id))
            .collect();
        assert!(root_children.contains(&NodeLabel(2)));
        assert!(root_children.contains(&NodeLabel(3)));
    }

    #[test]
    fn contraction_chain_collapses_fully() {
        // r = x = y (all {0,1}), y → z ({0}): r and x both contract down
        // to y; z stays.
        let mut entry = make_entry(
            &[
                (0, &[0, 1], &[1]),
                (1, &[0, 1], &[2]),
                (2, &[0, 1], &[3]),
                (3, &[0], &[]),
            ],
            0,
        );
        contract_by_sets(&mut entry, false);
        assert_eq!(entry.len(), 2);
        assert_eq!(entry.label_of(entry.root()), NodeLabel(2));
    }

    /// Every class of a small mined database, with its embeddings.
    fn mined_classes(
        rel: &crate::relabel::Relabeled,
    ) -> Vec<(tsg_graph::LabeledGraph, Vec<tsg_gspan::Embedding>)> {
        struct All(Vec<(tsg_graph::LabeledGraph, Vec<tsg_gspan::Embedding>)>);
        impl tsg_gspan::PatternSink for All {
            fn report(&mut self, p: &tsg_gspan::MinedPattern<'_>) -> tsg_gspan::Grow {
                self.0.push((p.graph.clone(), p.embeddings.to_vec()));
                tsg_gspan::Grow::Continue
            }
        }
        let mut all = All(Vec::new());
        tsg_gspan::GSpan::new(
            &rel.dmg,
            tsg_gspan::GSpanConfig {
                min_support: 1,
                max_edges: Some(3),
            },
        )
        .mine(&mut all);
        all.0
    }

    /// The contraction-visible shape of an entry: root label, and each
    /// live label with its live children's labels.
    fn shape(entry: &OiEntry) -> (NodeLabel, Vec<(NodeLabel, Vec<NodeLabel>)>) {
        let live = entry
            .live_labels()
            .map(|l| {
                let id = entry.lookup(l).unwrap();
                let kids = entry.children(id).iter().map(|&c| entry.label_of(c)).collect();
                (l, kids)
            })
            .collect();
        (entry.label_of(entry.root()), live)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Occurrence counts decide set equality between every label and
        /// its children, and contraction driven by them gives the same
        /// live labels, root and children as contraction driven by the
        /// set-equality oracle, in both contraction modes.
        #[test]
        fn count_keys_match_set_equality(
            (taxonomy, db) in tsg_testkit::gen::arb_dag_taxonomy(7).prop_flat_map(|t| {
                let n = t.concept_count();
                (Just(t), tsg_testkit::gen::arb_db(n, 2, 4, 4))
            })
        ) {
            let rel = crate::relabel::relabel(&db, &taxonomy).unwrap();
            let table = AncestorTable::for_database(&rel.taxonomy, None, &rel.originals);
            let mut scratch = OiScratch::new();
            let uncontracted = OiOptions { contract_equal_sets: false, predescend_roots: false };
            for (skeleton, embeddings) in mined_classes(&rel) {
                let mg_labels = skeleton.labels();
                scratch.load(&embeddings, &rel.originals, mg_labels.len(), &table);
                for (pos, &mg) in mg_labels.iter().enumerate() {
                    let (entry, _) =
                        scratch.build_entry(embeddings.len(), pos, mg, &table, uncontracted);
                    let counts = scratch.count.clone();
                    let oracle = equal_set_groups(&entry);
                    for (id, node) in entry.nodes.iter().enumerate() {
                        for &c in &node.children {
                            prop_assert_eq!(
                                counts[id] == counts[c as usize],
                                oracle[id] == oracle[c as usize]
                            );
                        }
                    }
                    for roots_only in [false, true] {
                        let mut by_counts = entry.clone();
                        contract(&mut by_counts, roots_only, &counts);
                        let mut by_sets = entry.clone();
                        contract(&mut by_sets, roots_only, &oracle);
                        prop_assert_eq!(shape(&by_counts), shape(&by_sets));
                    }
                }
            }
        }
    }

    #[test]
    fn ancestor_table_rows_follow_the_mask() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let rel = crate::relabel::relabel(&db, &t).unwrap();
        let mut frequent = BitSet::new(rel.taxonomy.concept_count());
        frequent.insert(c.a.index());
        frequent.insert(c.b.index());
        let masked = AncestorTable::for_database(&rel.taxonomy, Some(frequent), &rel.originals);
        let full = AncestorTable::for_database(&rel.taxonomy, None, &rel.originals);
        let d_row: Vec<NodeLabel> = masked.ancestors(c.d).unwrap().collect();
        assert_eq!(d_row, vec![c.a, c.b], "d's admitted ancestors, ascending");
        let d_all: Vec<NodeLabel> = full.ancestors(c.d).unwrap().collect();
        let want: Vec<NodeLabel> = rel.taxonomy.ancestors(c.d).labels().collect();
        assert_eq!(d_all, want);
        assert!(full.ancestors(c.k).is_none(), "k is not a database label");
    }

    #[test]
    fn equal_set_groups_verified() {
        let entry = make_entry(
            &[
                (0, &[0, 1], &[]),
                (1, &[0, 1], &[]),
                (2, &[0], &[]),
                (3, &[1], &[]),
            ],
            0,
        );
        let g = equal_set_groups(&entry);
        assert_eq!(g[0], g[1], "equal sets share a group");
        assert_ne!(g[0], g[2]);
        assert_ne!(g[2], g[3], "different singletons differ");
    }
}
