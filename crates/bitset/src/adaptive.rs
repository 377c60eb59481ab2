//! A Roaring-style adaptive set of `usize` values.
//!
//! [`AdaptiveBitSet`] replaces the old two-representation scheme (dense
//! [`BitSet`] everywhere + a sorted-vec sparse set for occurrence
//! storage) with one growable set type: values are partitioned into
//! 2¹⁶-value chunks, and each chunk picks the container encoding its
//! cardinality warrants (see [`container`](crate::container)). Sparse
//! occurrence sets stay 2-bytes-per-member arrays, dense ones collapse
//! into flat bitmaps with word-parallel kernels, and contiguous ones can
//! be squeezed into run intervals — so the set stays near the
//! best-of-both-worlds point across the whole cardinality spectrum
//! without the caller choosing a representation up front.
//!
//! The dense fixed-universe [`BitSet`] remains the right type for
//! bounded, mostly-full working sets (Step 3's per-class recursion
//! state, scratch marking areas, taxonomy closures); the fused
//! `*_dense` kernels here are the bridge between the two worlds, and
//! chunk bitmaps AND directly against the dense set's words (a chunk's
//! 1024 words are exactly block-aligned with `BitSet`'s layout).

// tsg-lint: allow(index) — chunk vectors are indexed by positions from this file's own binary searches and merge cursors

use crate::container::{self, Container, BITMAP_WORDS};
use crate::BitSet;

const CHUNK_BITS: usize = 16;

#[inline]
fn split(v: usize) -> (u32, u16) {
    ((v >> CHUNK_BITS) as u32, (v & 0xFFFF) as u16)
}

/// One chunk: the high bits shared by its members, the cached
/// cardinality, and the container holding the low 16 bits.
#[derive(Clone)]
struct Chunk {
    key: u32,
    card: u32,
    container: Container,
}

/// An adaptive chunked set of `usize` members (no fixed universe).
///
/// Containers promote/demote in place as mutation moves a chunk's
/// cardinality across the array/bitmap boundary; cardinalities are
/// cached per chunk, so [`len`](AdaptiveBitSet::len) is O(#chunks) —
/// cheap enough that candidate orderings read it directly.
#[derive(Clone, Default)]
pub struct AdaptiveBitSet {
    chunks: Vec<Chunk>,
}

impl AdaptiveBitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        AdaptiveBitSet { chunks: Vec::new() }
    }

    /// Builds a set from arbitrary (unsorted, possibly duplicated)
    /// members. Each chunk gets its byte-cheapest encoding directly
    /// (the [`optimize`](Self::optimize) rule, decided before
    /// allocating), so bulk construction never needs a separate
    /// re-encoding pass.
    pub fn from_members(mut items: Vec<usize>) -> Self {
        Self::from_scratch(&mut items)
    }

    /// [`from_members`](Self::from_members) reading out of a caller-owned
    /// scratch buffer: sorts and deduplicates in place, builds the set,
    /// and leaves the buffer cleared (allocation intact) for reuse. Bulk
    /// builders constructing many sets — occurrence indexing — pool the
    /// buffer so per-set construction costs only the container
    /// allocations themselves.
    pub fn from_scratch(items: &mut Vec<usize>) -> Self {
        items.sort_unstable();
        items.dedup();
        let set = Self::from_sorted(items);
        items.clear();
        set
    }

    /// Builds a set from members that are already strictly ascending —
    /// no sort, no dedup. Occurrence indexing fills each label's member
    /// list in ascending occurrence order, so this is its build path.
    pub fn from_sorted(items: &[usize]) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "from_sorted needs strictly ascending members"
        );
        let mut chunks = Vec::new();
        let mut i = 0;
        while i < items.len() {
            let (key, _) = split(items[i]);
            let start = i;
            while i < items.len() && split(items[i]).0 == key {
                i += 1;
            }
            let span = &items[start..i];
            chunks.push(Chunk {
                key,
                card: span.len() as u32,
                container: Container::from_sorted_span(span),
            });
        }
        AdaptiveBitSet { chunks }
    }

    /// Number of members, summed from per-chunk cached cardinalities.
    #[inline]
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.card as usize).sum()
    }

    /// `true` iff the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    #[inline]
    fn chunk_idx(&self, key: u32) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&key, |c| c.key)
    }

    /// Inserts a member; returns `true` if it was not already present.
    pub fn insert(&mut self, v: usize) -> bool {
        let (key, low) = split(v);
        match self.chunk_idx(key) {
            Ok(i) => {
                let c = &mut self.chunks[i];
                let fresh = c.container.insert(low);
                c.card += u32::from(fresh);
                fresh
            }
            Err(i) => {
                let mut container = Container::empty();
                container.insert(low);
                self.chunks.insert(
                    i,
                    Chunk {
                        key,
                        card: 1,
                        container,
                    },
                );
                true
            }
        }
    }

    /// Removes a member; returns `true` if it was present. Bitmap chunks
    /// falling below the array threshold demote in place; emptied chunks
    /// are dropped.
    pub fn remove(&mut self, v: usize) -> bool {
        let (key, low) = split(v);
        let Ok(i) = self.chunk_idx(key) else {
            return false;
        };
        let c = &mut self.chunks[i];
        let present = c.container.remove(low, c.card as usize);
        if present {
            c.card -= 1;
            if c.card == 0 {
                self.chunks.remove(i);
            }
        }
        present
    }

    /// Appends a member known to be `>` every current member (amortized
    /// O(1)). Occurrence ids are assigned ascending during index
    /// construction, so this is the common build path.
    ///
    /// # Panics
    /// Panics in debug builds if the ordering precondition is violated.
    pub fn push_ascending(&mut self, v: usize) {
        let (key, low) = split(v);
        match self.chunks.last_mut() {
            Some(c) if c.key == key => {
                c.container.push_max(low);
                c.card += 1;
            }
            last => {
                debug_assert!(last.as_ref().is_none_or(|c| c.key < key));
                let mut container = Container::empty();
                container.insert(low);
                self.chunks.push(Chunk {
                    key,
                    card: 1,
                    container,
                });
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, v: usize) -> bool {
        let (key, low) = split(v);
        self.chunk_idx(key)
            .is_ok_and(|i| self.chunks[i].container.contains(low))
    }

    /// Re-encodes every chunk as its byte-cheapest representation
    /// (typically pulling contiguous occurrence ranges into run
    /// containers). Call after bulk construction; mutation afterwards
    /// keeps runs as runs.
    pub fn optimize(&mut self) {
        for c in &mut self.chunks {
            c.container.optimize();
        }
    }

    /// Members in ascending order.
    pub fn iter(&self) -> Members<'_> {
        Members {
            set: self,
            chunk: 0,
            buf: Vec::new(),
            buf_pos: 0,
        }
    }

    /// Calls `f` for each member in ascending order (no allocation).
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        for c in &self.chunks {
            let base = (c.key as usize) << CHUNK_BITS;
            c.container.for_each(|low| f(base | low as usize));
        }
    }

    /// `self ∩ other` as a new set.
    pub fn intersection(&self, other: &AdaptiveBitSet) -> AdaptiveBitSet {
        let mut out = AdaptiveBitSet::new();
        self.for_each_chunk_pair(other, |key, a, b| {
            let mut lows = Vec::new();
            container::for_each_in_intersection(a, b, &mut |v| lows.push(v));
            if !lows.is_empty() {
                out.chunks.push(Chunk {
                    key,
                    card: lows.len() as u32,
                    container: Container::from_sorted(&lows),
                });
            }
        });
        out
    }

    /// `|self ∩ other|` without materializing — the hot Step-3 kernel,
    /// dispatched per chunk pair to the encoding-specialized kernels.
    pub fn intersection_count(&self, other: &AdaptiveBitSet) -> usize {
        let mut n = 0;
        self.for_each_chunk_pair(other, |_, a, b| n += container::intersection_count(a, b));
        n
    }

    /// `|self ∩ other|` forcing the linear merge on array×array chunk
    /// pairs (other pairs use the normal dispatch). Calibration entry
    /// point for the [`GALLOP_RATIO`](crate::GALLOP_RATIO) crossover
    /// sweeps.
    pub fn intersection_count_merge(&self, other: &AdaptiveBitSet) -> usize {
        let mut n = 0;
        self.for_each_chunk_pair(other, |_, a, b| {
            n += match (a, b) {
                (Container::Array(x), Container::Array(y)) => {
                    container::array_intersect_count_merge(x, y)
                }
                _ => container::intersection_count(a, b),
            };
        });
        n
    }

    /// `|self ∩ other|` forcing the galloping kernel on array×array
    /// chunk pairs (see
    /// [`intersection_count_merge`](Self::intersection_count_merge)).
    pub fn intersection_count_gallop(&self, other: &AdaptiveBitSet) -> usize {
        let mut n = 0;
        self.for_each_chunk_pair(other, |_, a, b| {
            n += match (a, b) {
                (Container::Array(x), Container::Array(y)) => {
                    container::array_intersect_count_gallop(x, y)
                }
                _ => container::intersection_count(a, b),
            };
        });
        n
    }

    /// Calls `f` on each member of `self ∩ other`, ascending.
    pub fn for_each_in_intersection(&self, other: &AdaptiveBitSet, mut f: impl FnMut(usize)) {
        self.for_each_chunk_pair(other, |key, a, b| {
            let base = (key as usize) << CHUNK_BITS;
            container::for_each_in_intersection(a, b, &mut |low| f(base | low as usize));
        });
    }

    /// In-place `self ∪= other`.
    pub fn union_with(&mut self, other: &AdaptiveBitSet) {
        let mut merged = Vec::with_capacity(self.chunks.len().max(other.chunks.len()));
        let mut ours = std::mem::take(&mut self.chunks).into_iter().peekable();
        let mut theirs = other.chunks.iter().peekable();
        loop {
            match (ours.peek(), theirs.peek()) {
                (Some(a), Some(b)) if a.key == b.key => {
                    let a = ours.next().expect("peeked"); // tsg-lint: allow(panic) — peek() returned Some in this arm
                    let b = theirs.next().expect("peeked"); // tsg-lint: allow(panic) — peek() returned Some in this arm
                    let container = container::union_into(a.container, &b.container);
                    merged.push(Chunk {
                        key: a.key,
                        card: container.card() as u32,
                        container,
                    });
                }
                (Some(a), Some(b)) if a.key < b.key => merged.push(ours.next().expect("peeked")), // tsg-lint: allow(panic) — peek() returned Some in this arm
                (Some(_), Some(_)) | (None, Some(_)) => {
                    let b = theirs.next().expect("peeked"); // tsg-lint: allow(panic) — peek() returned Some in this arm
                    merged.push(b.clone());
                }
                (Some(_), None) => merged.push(ours.next().expect("peeked")), // tsg-lint: allow(panic) — peek() returned Some in this arm
                (None, None) => break,
            }
        }
        self.chunks = merged;
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &AdaptiveBitSet) -> AdaptiveBitSet {
        let mut out = AdaptiveBitSet::new();
        for c in &self.chunks {
            match other.chunk_idx(c.key) {
                Err(_) => out.chunks.push(c.clone()),
                Ok(j) => {
                    if let Some(container) =
                        container::difference(&c.container, &other.chunks[j].container)
                    {
                        out.chunks.push(Chunk {
                            key: c.key,
                            card: container.card() as u32,
                            container,
                        });
                    }
                }
            }
        }
        out
    }

    /// `true` iff `self ⊆ other`.
    pub fn is_subset(&self, other: &AdaptiveBitSet) -> bool {
        self.chunks.iter().all(|c| match other.chunk_idx(c.key) {
            Err(_) => c.card == 0,
            Ok(j) => {
                c.card <= other.chunks[j].card
                    && container::is_subset(&c.container, &other.chunks[j].container)
            }
        })
    }

    /// `true` iff the sets share at least one member.
    pub fn intersects(&self, other: &AdaptiveBitSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            match self.chunks[i].key.cmp(&other.chunks[j].key) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if container::intersects(&self.chunks[i].container, &other.chunks[j].container)
                    {
                        return true;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        false
    }

    /// Walks aligned chunk pairs (both sets holding the key) in key
    /// order.
    fn for_each_chunk_pair(
        &self,
        other: &AdaptiveBitSet,
        mut f: impl FnMut(u32, &Container, &Container),
    ) {
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            match self.chunks[i].key.cmp(&other.chunks[j].key) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    f(
                        self.chunks[i].key,
                        &self.chunks[i].container,
                        &other.chunks[j].container,
                    );
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    // -- fused dense-interop kernels ------------------------------------

    /// `|self ∩ dense|`: bitmap chunks AND word-parallel against the
    /// dense set's blocks; array/run chunks probe per member. Members of
    /// `self` outside `dense`'s universe count as absent, so an adaptive
    /// set may safely be probed against a (smaller) working-set universe.
    pub fn intersection_count_dense(&self, dense: &BitSet) -> usize {
        let blocks = &dense.blocks;
        let mut n = 0;
        for c in &self.chunks {
            let word_base = c.key as usize * BITMAP_WORDS;
            if word_base >= blocks.len() {
                break;
            }
            match &c.container {
                Container::Bitmap(bm) => {
                    let window = &blocks[word_base..blocks.len().min(word_base + BITMAP_WORDS)];
                    n += bm
                        .words
                        .iter()
                        .zip(window)
                        .map(|(a, b)| (a & b).count_ones() as usize)
                        .sum::<usize>();
                }
                Container::Array(items) => {
                    // Branchless word probes against the clipped window;
                    // items are sorted, so the first out-of-universe
                    // member ends the chunk.
                    let window = &blocks[word_base..blocks.len().min(word_base + BITMAP_WORDS)];
                    for &low in items {
                        let wi = (low >> 6) as usize;
                        if wi >= window.len() {
                            break;
                        }
                        n += ((window[wi] >> (low & 63)) & 1) as usize;
                    }
                }
                Container::Runs(runs) => {
                    // A run is a contiguous bit range of the dense
                    // operand: masked popcounts, not per-member probes.
                    let base = (c.key as usize) << CHUNK_BITS;
                    let nbits = blocks.len() << 6;
                    for r in runs {
                        let lo = base | r.start as usize;
                        if lo >= nbits {
                            break;
                        }
                        let hi = (base | r.last as usize).min(nbits - 1);
                        n += count_dense_range(blocks, lo, hi);
                    }
                }
            }
        }
        n
    }

    /// Calls `f` on each member of `self ∩ dense`, ascending, without
    /// materializing either side.
    pub fn for_each_in_intersection_dense(&self, dense: &BitSet, mut f: impl FnMut(usize)) {
        let blocks = &dense.blocks;
        for c in &self.chunks {
            let word_base = c.key as usize * BITMAP_WORDS;
            if word_base >= blocks.len() {
                break;
            }
            let base = (c.key as usize) << CHUNK_BITS;
            match &c.container {
                Container::Bitmap(bm) => {
                    let window = &blocks[word_base..blocks.len().min(word_base + BITMAP_WORDS)];
                    for (wi, (a, b)) in bm.words.iter().zip(window).enumerate() {
                        let mut w = a & b;
                        while w != 0 {
                            f(base | (wi * 64 + w.trailing_zeros() as usize));
                            w &= w - 1;
                        }
                    }
                }
                Container::Array(items) => {
                    let window = &blocks[word_base..blocks.len().min(word_base + BITMAP_WORDS)];
                    for &low in items {
                        let wi = (low >> 6) as usize;
                        if wi >= window.len() {
                            break;
                        }
                        if (window[wi] >> (low & 63)) & 1 != 0 {
                            f(base | low as usize);
                        }
                    }
                }
                Container::Runs(runs) => {
                    let nbits = blocks.len() << 6;
                    for r in runs {
                        let lo = base | r.start as usize;
                        if lo >= nbits {
                            break;
                        }
                        let hi = (base | r.last as usize).min(nbits - 1);
                        for_each_dense_range(blocks, lo, hi, &mut f);
                    }
                }
            }
        }
    }

    /// Writes `self ∩ dense` into `out`, reusing `out`'s allocation
    /// (`out` is reset to `dense`'s universe first). Returns the
    /// intersection cardinality. With a pooled `out`, the hot descent
    /// loop allocates nothing.
    pub fn intersect_into_dense(&self, dense: &BitSet, out: &mut BitSet) -> usize {
        out.reset(dense.universe());
        let mut n = 0;
        for c in &self.chunks {
            let word_base = c.key as usize * BITMAP_WORDS;
            if word_base >= dense.blocks.len() {
                break;
            }
            match &c.container {
                Container::Bitmap(bm) => {
                    let end = dense.blocks.len().min(word_base + BITMAP_WORDS);
                    for (wi, word) in (word_base..end).zip(bm.words.iter()) {
                        let and = word & dense.blocks[wi];
                        out.blocks[wi] = and;
                        n += and.count_ones() as usize;
                    }
                }
                Container::Array(items) => {
                    let end = dense.blocks.len().min(word_base + BITMAP_WORDS);
                    for &low in items {
                        let wi = word_base + (low >> 6) as usize;
                        if wi >= end {
                            break;
                        }
                        let bit = 1u64 << (low & 63);
                        if dense.blocks[wi] & bit != 0 {
                            out.blocks[wi] |= bit;
                            n += 1;
                        }
                    }
                }
                Container::Runs(runs) => {
                    let base = (c.key as usize) << CHUNK_BITS;
                    let nbits = dense.blocks.len() << 6;
                    for r in runs {
                        let lo = base | r.start as usize;
                        if lo >= nbits {
                            break;
                        }
                        let hi = (base | r.last as usize).min(nbits - 1);
                        let (ws, we) = (lo >> 6, hi >> 6);
                        let head = !0u64 << (lo & 63);
                        let tail = !0u64 >> (63 - (hi & 63));
                        for wi in ws..=we {
                            let mut w = dense.blocks[wi];
                            if wi == ws {
                                w &= head;
                            }
                            if wi == we {
                                w &= tail;
                            }
                            out.blocks[wi] |= w;
                            n += w.count_ones() as usize;
                        }
                    }
                }
            }
        }
        n
    }

    /// Converts to a dense [`BitSet`] over the given universe.
    ///
    /// # Panics
    /// Panics if some member is `>= universe` (dense sets are
    /// fixed-universe).
    pub fn to_dense(&self, universe: usize) -> BitSet {
        let mut out = BitSet::new(universe);
        self.for_each(|v| {
            out.insert(v);
        });
        out
    }

    /// Approximate heap footprint in bytes (for the memory-budget
    /// accounting used to reproduce the paper's out-of-memory
    /// observations): container payloads plus the chunk directory.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<Chunk>()
            + self
                .chunks
                .iter()
                .map(|c| c.container.heap_bytes())
                .sum::<usize>()
    }

    /// Collects the members into a vector (mostly for tests/display).
    pub fn to_vec(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|v| out.push(v));
        out
    }
}

impl PartialEq for AdaptiveBitSet {
    fn eq(&self, other: &Self) -> bool {
        self.chunks.len() == other.chunks.len()
            && self.chunks.iter().zip(&other.chunks).all(|(a, b)| {
                a.key == b.key && a.card == b.card && a.container.semantic_eq(&b.container)
            })
    }
}

impl Eq for AdaptiveBitSet {}

impl std::hash::Hash for AdaptiveBitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for c in &self.chunks {
            c.key.hash(state);
            c.card.hash(state);
        }
        self.for_each(|v| v.hash(state));
    }
}

/// Population of the global bit range `lo..=hi` of a dense block slice.
/// Callers clamp `hi` below `blocks.len() * 64`; the run-container fused
/// kernels use this so a contiguous run costs masked popcounts instead
/// of per-member probes.
#[inline]
fn count_dense_range(blocks: &[u64], lo: usize, hi: usize) -> usize {
    let (ws, we) = (lo >> 6, hi >> 6);
    let head = !0u64 << (lo & 63);
    let tail = !0u64 >> (63 - (hi & 63));
    if ws == we {
        return (blocks[ws] & head & tail).count_ones() as usize;
    }
    let mut n = (blocks[ws] & head).count_ones() as usize;
    for w in &blocks[ws + 1..we] {
        n += w.count_ones() as usize;
    }
    n + (blocks[we] & tail).count_ones() as usize
}

/// Calls `f` on each set bit of `blocks` within the global bit range
/// `lo..=hi`, ascending. Same clamping contract as [`count_dense_range`].
#[inline]
fn for_each_dense_range(blocks: &[u64], lo: usize, hi: usize, f: &mut impl FnMut(usize)) {
    let (ws, we) = (lo >> 6, hi >> 6);
    let head = !0u64 << (lo & 63);
    let tail = !0u64 >> (63 - (hi & 63));
    for (wi, &word) in blocks.iter().enumerate().take(we + 1).skip(ws) {
        let mut w = word;
        if wi == ws {
            w &= head;
        }
        if wi == we {
            w &= tail;
        }
        while w != 0 {
            f((wi << 6) | w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

impl std::fmt::Debug for AdaptiveBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for AdaptiveBitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        AdaptiveBitSet::from_members(iter.into_iter().collect())
    }
}

impl Extend<usize> for AdaptiveBitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// Ascending member iterator. Decodes one chunk at a time into a small
/// buffer; the mining hot paths use the `for_each`-style visitors
/// instead, so the buffering only costs tests and diagnostics.
pub struct Members<'a> {
    set: &'a AdaptiveBitSet,
    chunk: usize,
    buf: Vec<usize>,
    buf_pos: usize,
}

impl Iterator for Members<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.buf_pos < self.buf.len() {
                let v = self.buf[self.buf_pos];
                self.buf_pos += 1;
                return Some(v);
            }
            let c = self.set.chunks.get(self.chunk)?;
            self.chunk += 1;
            self.buf.clear();
            self.buf_pos = 0;
            let base = (c.key as usize) << CHUNK_BITS;
            c.container.for_each(|low| self.buf.push(base | low as usize));
        }
    }
}

impl<'a> IntoIterator for &'a AdaptiveBitSet {
    type Item = usize;
    type IntoIter = Members<'a>;
    fn into_iter(self) -> Members<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip_across_chunks() {
        let members = vec![0usize, 1, 65535, 65536, 65537, 1 << 20];
        let mut s = AdaptiveBitSet::from_members(members.clone());
        assert_eq!(s.len(), members.len());
        assert_eq!(s.to_vec(), members);
        for &m in &members {
            assert!(s.contains(m));
        }
        assert!(!s.contains(2));
        assert!(!s.contains(70000));
        assert!(s.remove(65536));
        assert!(!s.remove(65536));
        assert!(!s.contains(65536));
        assert_eq!(s.len(), members.len() - 1);
        assert!(s.insert(65536));
        assert_eq!(s.to_vec(), members);
    }

    #[test]
    fn push_ascending_matches_from_members() {
        let vals: Vec<usize> = (0..200_000).step_by(7).collect();
        let mut pushed = AdaptiveBitSet::new();
        for &v in &vals {
            pushed.push_ascending(v);
        }
        assert_eq!(pushed, AdaptiveBitSet::from_members(vals));
    }

    #[test]
    fn promotion_and_demotion_at_chunk_boundary() {
        // 4095 scattered members in chunk 0 (contiguous ones would
        // canonicalize to runs at construction): array. The 4096th
        // promotes.
        let mut s = AdaptiveBitSet::from_members((0..4095).map(|i| i * 2).collect());
        assert!(matches!(s.chunks[0].container, Container::Array(_)));
        s.insert(60_000);
        assert!(matches!(s.chunks[0].container, Container::Bitmap(_)));
        assert_eq!(s.len(), 4096);
        s.remove(60_000);
        assert!(matches!(s.chunks[0].container, Container::Array(_)));
        assert_eq!(s.len(), 4095);
    }

    #[test]
    fn empty_chunks_are_dropped() {
        let mut s = AdaptiveBitSet::from_members(vec![70_000]);
        assert_eq!(s.chunks.len(), 1);
        assert!(s.remove(70_000));
        assert!(s.is_empty());
        assert_eq!(s.chunks.len(), 0);
        assert!(!s.intersects(&AdaptiveBitSet::from_members(vec![70_000])));
    }

    #[test]
    fn set_algebra_across_chunks() {
        let a = AdaptiveBitSet::from_members(vec![1, 65536, 65540, 200_000]);
        let b = AdaptiveBitSet::from_members(vec![65536, 200_000, 300_000]);
        assert_eq!(a.intersection(&b).to_vec(), vec![65536, 200_000]);
        assert_eq!(a.intersection_count(&b), 2);
        assert!(a.intersects(&b));
        assert_eq!(a.difference(&b).to_vec(), vec![1, 65540]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 65536, 65540, 200_000, 300_000]);
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(u.difference(&a).is_subset(&b));
    }

    #[test]
    fn dense_interop_kernels_agree() {
        let sparse = AdaptiveBitSet::from_members(vec![0, 63, 64, 65, 127, 128, 199, 70_000]);
        let dense = BitSet::from_iter_with_universe(200, [63, 64, 100, 199]);
        assert_eq!(sparse.intersection_count_dense(&dense), 3);
        let mut got = Vec::new();
        sparse.for_each_in_intersection_dense(&dense, |v| got.push(v));
        assert_eq!(got, vec![63, 64, 199]);
        let mut out = BitSet::new(0);
        assert_eq!(sparse.intersect_into_dense(&dense, &mut out), 3);
        assert_eq!(out.universe(), 200);
        assert_eq!(out.to_vec(), vec![63, 64, 199]);
    }

    #[test]
    fn dense_interop_uses_word_paths_on_bitmap_chunks() {
        // A bitmap chunk (card >= 4096) against a dense universe that
        // ends mid-chunk: the word-aligned path must clamp correctly.
        let sparse = AdaptiveBitSet::from_members((0..5000).map(|v| v * 2).collect());
        assert!(matches!(sparse.chunks[0].container, Container::Bitmap(_)));
        let dense = BitSet::from_iter_with_universe(7000, (0..7000).filter(|v| v % 3 == 0));
        let want = (0..3500).filter(|v| (v * 2) % 3 == 0).count();
        assert_eq!(sparse.intersection_count_dense(&dense), want);
        let mut out = BitSet::new(0);
        assert_eq!(sparse.intersect_into_dense(&dense, &mut out), want);
        assert_eq!(out.count_ones(), want);
        let d2 = sparse.to_dense(10_000);
        assert_eq!(d2.count_ones(), 5000);
    }

    #[test]
    fn forced_kernels_match_dispatch() {
        let a = AdaptiveBitSet::from_members((0..3000).map(|v| v * 3).collect());
        let b = AdaptiveBitSet::from_members((0..150).map(|v| v * 31).collect());
        let want = a.intersection_count(&b);
        assert_eq!(a.intersection_count_merge(&b), want);
        assert_eq!(a.intersection_count_gallop(&b), want);
    }

    #[test]
    fn optimize_preserves_contents() {
        let vals: Vec<usize> = (1000..9000).chain(100_000..100_010).collect();
        let mut s = AdaptiveBitSet::from_members(vals.clone());
        s.optimize();
        assert_eq!(s.to_vec(), vals);
        assert!(
            matches!(s.chunks[0].container, Container::Runs(_)),
            "contiguous chunk should run-encode"
        );
        // Mutation on run containers keeps them correct.
        assert!(s.remove(5000));
        assert!(s.insert(5000));
        assert_eq!(s.to_vec(), vals);
    }

    #[test]
    fn heap_bytes_tracks_representation() {
        // Scattered members (no runs worth encoding): array and bitmap.
        let arr = AdaptiveBitSet::from_members((0..100).map(|i| i * 2).collect());
        let bm = AdaptiveBitSet::from_members((0..5000).map(|i| i * 2).collect());
        // Contiguous members canonicalize to runs at construction.
        let run = AdaptiveBitSet::from_members((0..5000).collect());
        assert!(arr.heap_bytes() < bm.heap_bytes());
        assert!(run.heap_bytes() < bm.heap_bytes());
    }

    #[test]
    fn eq_and_hash_are_semantic() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = AdaptiveBitSet::from_members((0..5000).collect());
        let mut b = a.clone();
        b.optimize(); // run-encoded, same contents
        assert_eq!(a, b);
        let h = |s: &AdaptiveBitSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&a), h(&b));
        let mut c = a.clone();
        c.remove(17);
        assert_ne!(a, c);
    }
}
