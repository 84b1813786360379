#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Streaming frequency-descending prefix trees: the CPS-tree (Tanbeer et
//! al.), used as the baseline for MacroBase's M-CPS-tree (Appendix B/D).
//!
//! A CPS-tree is an FP-tree maintained incrementally over a stream: every
//! arriving transaction is inserted along the current frequency-descending
//! item order, and at window boundaries the tree is *restructured* (branch
//! re-sorted) so that the item order again reflects current frequencies. In
//! an exponentially damped model the CPS-tree keeps at least one node for
//! every item ever observed, which is exactly the scalability problem the
//! M-CPS-tree (see [`crate::mcps`]) fixes by only admitting currently
//! frequent items.
//!
//! Both trees *record* their first window rather than descend it: until the
//! first decay every node count is a whole number of rows, so the rows are
//! kept as they arrive (each already in its frequency order) and the tree is
//! built once, sorted, at the boundary — pruned, when the boundary prunes —
//! with every count and every read bit for bit what descending each row
//! would have given. A read in the middle of the window sorts the record.

use crate::fptree::FpTree;
use crate::{FrequentItemset, Item};
use mb_sketch::key_order::KeyOrderSet;
use std::cmp::Ordering;

/// "No node" in every link and "empty" in every table slot: the root is
/// nobody's child and nobody's sibling, so its index is free to mean that.
const NONE: u32 = 0;
const ROOT: u32 = 0;

/// The rank of an item that [`StreamingPrefixTree::frequency_ranks`] left out.
const DROPPED: u32 = u32::MAX;

/// Sibling-list steps [`StreamingPrefixTree::link_child`] takes from the
/// head before it also asks the edge table for the predecessor.
const WALK_BEFORE_PROBING: usize = 8;

/// Rows a [`Record`] holds before it is built into the arena: one default
/// 100K-row window whole, and a bound on what any window keeps unbuilt.
const RECORD_ROWS: usize = 1 << 17;

/// Low bits of a [`Record::sorted`] key that hold the row's index.
const ROW_BITS: u32 = RECORD_ROWS.trailing_zeros();

/// `index` as the `u32` the arena's links and tables store.
#[expect(
    clippy::expect_used,
    reason = "node and item ids are 32-bit by design; 2^32 nodes is out of memory first"
)]
fn arena_index(index: usize) -> u32 {
    u32::try_from(index).expect("a prefix tree numbers its nodes and items in 32 bits")
}

/// An integer that sorts ascending where `count` sorts descending under
/// [`f64::total_cmp`] (whose own bit trick this is, complemented).
fn descending_key(count: f64) -> i64 {
    let bits = count.to_bits() as i64;
    !(bits ^ ((((bits >> 63) as u64) >> 1) as i64))
}

/// Open-addressed `(parent, item) → value` table: linear probing, a fixed
/// multiplicative hash, values non-zero. A slot holds the item and the
/// value; the parent half of the key is read from whatever the value
/// indexes (`parent_of`), so a slot is 8 bytes and a table twice the size of
/// its contents stays in cache beside the arrays it points into.
///
/// An item table is the same table with every parent the root.
#[derive(Debug, Clone)]
pub(crate) struct EdgeTable {
    slots: Vec<(Item, u32)>,
    len: usize,
}

impl EdgeTable {
    /// A table that holds `entries` entries before it first grows.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        EdgeTable {
            slots: vec![(0, NONE); (entries * 2).next_power_of_two().max(16)],
            len: 0,
        }
    }

    /// The slot holding `(parent, item)`, or the empty one it would go in.
    fn slot_of(&self, parent: u32, item: Item, parent_of: impl Fn(u32) -> u32) -> usize {
        let key = (u64::from(parent) << 32) | u64::from(item);
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let (slot_item, value) = self.slots[slot];
            if value == NONE || (slot_item == item && parent_of(value) == parent) {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The value stored for `(parent, item)`, [`NONE`] if there is none.
    fn get(&self, parent: u32, item: Item, parent_of: impl Fn(u32) -> u32) -> u32 {
        self.slots[self.slot_of(parent, item, parent_of)].1
    }

    /// Fill the empty slot [`slot_of`](Self::slot_of) returned, then double
    /// the table if that left it more than half full — so there is always an
    /// empty slot to return, and looking a key up never allocates.
    fn fill(&mut self, slot: usize, item: Item, value: u32, parent_of: impl Fn(u32) -> u32) {
        debug_assert!(self.slots[slot].1 == NONE && value != NONE);
        self.slots[slot] = (item, value);
        self.len += 1;
        if self.len * 2 <= self.slots.len() {
            return;
        }
        let doubled = vec![(0, NONE); self.slots.len() * 2];
        for (item, value) in std::mem::replace(&mut self.slots, doubled) {
            if value != NONE {
                let slot = self.slot_of(parent_of(value), item, &parent_of);
                self.slots[slot] = (item, value);
            }
        }
    }

    /// As an item table: the value stored for `item`, 0 if there is none.
    fn item(&self, item: Item) -> u32 {
        self.get(ROOT, item, |_| ROOT)
    }

    /// As an item table: whether `item` is in it.
    pub(crate) fn has_item(&self, item: Item) -> bool {
        self.item(item) != NONE
    }

    /// As an item table: store the non-zero `value` for an `item` not in it.
    pub(crate) fn add_item(&mut self, item: Item, value: u32) {
        let slot = self.slot_of(ROOT, item, |_| ROOT);
        self.fill(slot, item, value, |_| ROOT);
    }
}

/// A node's place in the tree; its count is kept apart, in
/// `StreamingPrefixTree::counts`.
#[derive(Debug, Clone, Copy)]
struct Links {
    item: Item,
    parent: u32,
    /// The child with the largest item id.
    first_child: u32,
    /// The sibling with the next smaller item id.
    next_sibling: u32,
}

/// A tree's first window before it has nodes: the rows
/// [`StreamingPrefixTree::record`] ordered, end to end, each in the order
/// [`insert`](StreamingPrefixTree::insert) would have descended it.
///
/// Every row weighs 1, so a node's count is the number of rows through it —
/// an integer, exact whatever order it is added in — until the first
/// `decay`, whose factors are kept here and applied to that integer as the
/// arena applies them to its counts. So the tree a record stands for can be
/// read, or built, bit for bit from the rows sorted by item sequence.
#[derive(Debug, Clone, Default)]
struct Record {
    items: Vec<Item>,
    /// Where each row ends in `items`.
    ends: Vec<u32>,
    /// The factors of every `decay` since the first row, in order.
    decays: Vec<f64>,
}

/// How [`Record::sorted`] packs a row into a `u128` key: its first `slots`
/// items, each as `item + 1` in `width` bits, the bits the largest item
/// needs (0 past the row's end); a flag set when the row has more items;
/// and the row's index in the low [`ROW_BITS`]. Keys alone order every row
/// that fits, and a row whose flag is set carries its other items in the
/// record.
#[derive(Debug, Clone, Copy)]
struct RowKeys {
    width: u32,
    slots: usize,
}

impl RowKeys {
    fn key(self, row: &[Item], index: usize) -> u128 {
        let mut key = 0u128;
        for &item in &row[..row.len().min(self.slots)] {
            key = (key << self.width) | (u128::from(item) + 1);
        }
        key <<= self.width as usize * self.slots.saturating_sub(row.len());
        let overflow = row.len() > self.slots;
        (((key << 1) | u128::from(overflow)) << ROW_BITS) | index as u128
    }

    fn index(key: u128) -> usize {
        (key & ((1 << ROW_BITS) - 1)) as usize
    }

    /// The row `key` stands for, into `row`: unpacked from the key when it
    /// fits, read from `record` when it does not.
    fn items(self, key: u128, record: &Record, row: &mut Vec<Item>) {
        row.clear();
        if (key >> ROW_BITS) & 1 == 1 {
            row.extend_from_slice(record.row(Self::index(key)));
            return;
        }
        let mask = (1u128 << self.width) - 1;
        let top = ROW_BITS + 1 + self.width * self.slots as u32;
        for slot in 1..=self.slots as u32 {
            match (key >> (top - slot * self.width)) & mask {
                0 => break,
                // An item plus one, in at most 33 bits.
                item => row.push((item - 1) as Item),
            }
        }
    }
}

/// One node of a [`Record`]'s tree, as [`Record::preorder`] lists it.
#[derive(Debug, Clone, Copy)]
struct RecordedNode {
    item: Item,
    /// Items on the path above it.
    depth: u32,
    /// Its decayed count, or its own weight (the count less its children's).
    weight: f64,
}

impl Record {
    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn row(&self, row: usize) -> &[Item] {
        let start = row.checked_sub(1).map_or(0, |before| self.ends[before] as usize);
        &self.items[start..self.ends[row] as usize]
    }

    /// What a node that `rows` rows passed through counts now.
    fn count(&self, rows: usize) -> f64 {
        let mut count = rows as f64;
        for &factor in &self.decays {
            count *= factor;
        }
        count
    }

    /// Every row as a [`RowKeys`] key, sorted by the row's item sequence,
    /// a row before the rows it is a prefix of.
    fn sorted(&self) -> (RowKeys, Vec<u128>) {
        let largest = self.items.iter().copied().max().unwrap_or(0);
        let width = u64::BITS - (u64::from(largest) + 1).leading_zeros();
        let layout = RowKeys {
            width,
            slots: ((u128::BITS - 1 - ROW_BITS) / width) as usize,
        };
        let mut overflows = false;
        let mut keys: Vec<u128> = (0..self.ends.len())
            .map(|index| {
                let row = self.row(index);
                overflows |= row.len() > layout.slots;
                layout.key(row, index)
            })
            .collect();
        if overflows {
            let rest = |key: &u128| &self.row(RowKeys::index(*key))[layout.slots..];
            keys.sort_unstable_by(|a, b| {
                let (fitted, other) = (a >> ROW_BITS, b >> ROW_BITS);
                fitted.cmp(&other).then_with(|| match fitted & 1 {
                    1 => rest(a).cmp(rest(b)),
                    _ => Ordering::Equal,
                })
            });
        } else {
            keys.sort_unstable();
        }
        (layout, keys)
    }

    /// The nodes of the tree the rows stand for, in the order
    /// [`StreamingPrefixTree::for_each_path`] enters them: a node at its
    /// first row in sorted order, siblings in ascending item id. Each
    /// carries its decayed count, or with `own` its own weight — its count
    /// less its children's counts summed in ascending id, as the arena's
    /// walk takes it.
    fn preorder(&self, own: bool) -> Vec<RecordedNode> {
        let (layout, sorted) = self.sorted();
        // At most one node an item; the pages past the last node are never
        // touched.
        let mut nodes: Vec<RecordedNode> = Vec::with_capacity(self.items.len());
        // The current row's path: each node's index in `nodes`, the
        // position of its first row, and its closed children's counts.
        let mut open: Vec<(usize, usize, f64)> = Vec::new();
        // Children close before their parent, siblings in ascending id.
        let close = |nodes: &mut Vec<RecordedNode>,
                     open: &mut Vec<(usize, usize, f64)>,
                     depth: usize,
                     position: usize| {
            while open.len() > depth {
                let Some((index, first, below)) = open.pop() else {
                    break;
                };
                let count = self.count(position - first);
                nodes[index].weight = if own { count - below } else { count };
                if let Some((_, _, parent_below)) = open.last_mut() {
                    *parent_below += count;
                }
            }
        };
        let (mut row, mut previous) = (Vec::new(), Vec::new());
        for (position, &key) in sorted.iter().enumerate() {
            std::mem::swap(&mut row, &mut previous);
            layout.items(key, self, &mut row);
            let shared = previous.iter().zip(&row).take_while(|(a, b)| a == b).count();
            close(&mut nodes, &mut open, shared, position);
            for (depth, &item) in row.iter().enumerate().skip(shared) {
                open.push((nodes.len(), position, 0.0));
                nodes.push(RecordedNode {
                    item,
                    depth: arena_index(depth),
                    weight: 0.0,
                });
            }
        }
        close(&mut nodes, &mut open, 0, sorted.len());
        nodes
    }
}

/// [`StreamingPrefixTree::walk`] over a [`Record::preorder`] list of own
/// weights.
fn walk_recorded<T>(
    nodes: &[RecordedNode],
    mut label: impl FnMut(Item) -> T,
    mut visit: impl FnMut(&[T], f64),
) {
    let mut path: Vec<T> = Vec::new();
    for node in nodes {
        path.truncate(node.depth as usize);
        path.push(label(node.item));
        if node.weight > 1e-12 {
            visit(&path, node.weight);
        }
    }
}

/// An incrementally maintained, weighted, frequency-descending prefix tree.
///
/// This is the structural core shared by the CPS-tree and M-CPS-tree; it
/// stores transactions compactly along shared prefixes and supports decay,
/// restructuring, item removal, and FPGrowth mining (by exporting its
/// contents as weighted transactions).
///
/// The nodes are a flat arena, index 0 the root: counts in one vector, links
/// in another, and one open-addressed table from `(parent, item)` to the
/// child, so a step down the tree is one probe whatever the fan-out and no
/// node owns heap memory. Siblings are chained by item id, so that
/// `for_each_path` visits them in ascending id without sorting — the order
/// every float sum downstream of it depends on. Item
/// frequencies sit in dense vectors behind an item table of the same kind.
///
/// The CPS- and M-CPS-trees record their first window instead: its rows are
/// kept in order, read by sorting them, and built into the arena once —
/// pruned, by `retain_items` or `restructure`, or whole, by the next
/// [`insert`](Self::insert) or when the record reaches 2^17 rows.
#[derive(Debug, Clone)]
pub struct StreamingPrefixTree {
    counts: Vec<f64>,
    links: Vec<Links>,
    edges: EdgeTable,
    /// `item → index + 1` into `item_ids` / `item_counts`.
    item_index: EdgeTable,
    item_ids: Vec<Item>,
    item_counts: Vec<f64>,
    /// Scratch of [`insert`](Self::insert): the transaction as
    /// `(descending_key(item count), item)` sort keys.
    keys: Vec<(i64, Item)>,
    /// The window recorded so far; while it is not empty the arena has no
    /// nodes.
    record: Record,
}

impl Default for StreamingPrefixTree {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingPrefixTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An empty tree with room for `nodes` nodes over `items` items.
    fn with_capacity(nodes: usize, items: usize) -> Self {
        let mut counts = Vec::with_capacity(nodes + 1);
        let mut links = Vec::with_capacity(nodes + 1);
        counts.push(0.0);
        links.push(Links {
            item: 0,
            parent: ROOT,
            first_child: NONE,
            next_sibling: NONE,
        });
        StreamingPrefixTree {
            counts,
            links,
            edges: EdgeTable::with_capacity(nodes),
            item_index: EdgeTable::with_capacity(items),
            item_ids: Vec::with_capacity(items),
            item_counts: Vec::with_capacity(items),
            keys: Vec::new(),
            record: Record::default(),
        }
    }

    /// Number of nodes excluding the root. A recorded window is sorted to
    /// count them.
    pub fn node_count(&self) -> usize {
        if self.record.is_empty() {
            self.counts.len() - 1
        } else {
            self.record.preorder(false).len()
        }
    }

    /// Number of distinct items currently present in the tree.
    #[cfg(test)]
    pub(crate) fn distinct_items(&self) -> usize {
        self.item_ids.len()
    }

    /// Current per-item decayed frequency.
    pub(crate) fn item_count(&self, item: Item) -> f64 {
        match self.item_index.item(item) {
            NONE => 0.0,
            index => self.item_counts[index as usize - 1],
        }
    }

    /// Add `weight` to `item`'s frequency and return the new frequency.
    fn add_item_count(&mut self, item: Item, weight: f64) -> f64 {
        let mut index = self.item_index.item(item);
        if index == NONE {
            self.item_ids.push(item);
            self.item_counts.push(0.0);
            index = arena_index(self.item_ids.len());
            self.item_index.add_item(item, index);
        }
        let count = &mut self.item_counts[index as usize - 1];
        *count += weight;
        *count
    }

    /// Insert a transaction with the given weight. Items are deduplicated and
    /// inserted in the tree's current frequency-descending order.
    ///
    /// Allocates only to grow: a transaction whose path exists writes the
    /// scratch buffer, its items' counts and the nodes along the path.
    pub fn insert(&mut self, items: &[Item], weight: f64) {
        assert!(weight > 0.0, "transaction weight must be positive");
        self.build_record();
        let keys = self.count_and_order(items, weight);
        let mut current = ROOT;
        for &(_, item) in &keys {
            current = self.descend(current, item, weight);
        }
        self.keys = keys;
    }

    /// [`insert`](Self::insert) with weight 1 into a tree that has no nodes
    /// yet: the row's items are counted and ordered as `insert` does, then
    /// appended to the record instead of descended. A tree with nodes, or
    /// whose record has been decayed, inserts.
    pub(crate) fn record(&mut self, items: &[Item]) {
        if self.counts.len() > 1 || !self.record.decays.is_empty() {
            self.insert(items, 1.0);
            return;
        }
        let keys = self.count_and_order(items, 1.0);
        if !keys.is_empty() {
            let record = &mut self.record;
            if record.is_empty() {
                // Room for a window of 8-item rows up front, so recording
                // one allocates only past that.
                record.ends.reserve(RECORD_ROWS);
                record.items.reserve(RECORD_ROWS * 8);
            }
            record.items.extend(keys.iter().map(|&(_, item)| item));
            record.ends.push(arena_index(record.items.len()));
            if record.ends.len() == RECORD_ROWS {
                self.build_record();
            }
        }
        self.keys = keys;
    }

    /// Add `weight` to each distinct item's count, and
    /// return the distinct items (in the scratch buffer) in the order the
    /// transaction descends: frequency descending, ties by item id.
    fn count_and_order(&mut self, items: &[Item], weight: f64) -> Vec<(i64, Item)> {
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        keys.extend(items.iter().map(|&item| (0, item)));
        keys.sort_unstable_by_key(|&(_, item)| item);
        keys.dedup_by_key(|&mut (_, item)| item);
        // Each count is read here, once, as it is incremented; the sort
        // compares integers.
        for (key, item) in keys.iter_mut() {
            *key = descending_key(self.add_item_count(*item, weight));
        }
        // Frequency descending, ties by item id: a deterministic order.
        keys.sort_unstable();
        keys
    }

    /// Build the recorded window, if any, into the arena: the nodes
    /// `insert` would have made, with the same counts.
    fn build_record(&mut self) {
        if self.record.is_empty() {
            return;
        }
        let nodes = std::mem::take(&mut self.record).preorder(false);
        self.counts.reserve(nodes.len());
        self.links.reserve(nodes.len());
        self.edges = EdgeTable::with_capacity(nodes.len());
        // The path to the current node; each new node is its parent's
        // largest child so far, so linking it is one step.
        let mut path: Vec<u32> = Vec::new();
        for node in nodes {
            path.truncate(node.depth as usize);
            let parent = path.last().copied().unwrap_or(ROOT);
            path.push(self.descend(parent, node.item, node.weight));
        }
    }

    /// Walk from `parent` to its `item` child (adding `weight`), creating
    /// the child if absent.
    fn descend(&mut self, parent: u32, item: Item, weight: f64) -> u32 {
        let links = &self.links;
        let slot = self
            .edges
            .slot_of(parent, item, |node| links[node as usize].parent);
        let found = self.edges.slots[slot].1;
        if found != NONE {
            self.counts[found as usize] += weight;
            return found;
        }
        let child = arena_index(self.counts.len());
        self.counts.push(weight);
        self.links.push(Links {
            item,
            parent,
            first_child: NONE,
            next_sibling: NONE,
        });
        let links = &self.links;
        self.edges
            .fill(slot, item, child, |node| links[node as usize].parent);
        self.link_child(parent, child);
        child
    }

    /// Chain the new node `child` into `parent`'s sibling list, which stays
    /// in descending item id.
    ///
    /// Its place is looked for from the head. Under a wide parent that alone
    /// is a long walk, so after a few steps the edge table is also asked for
    /// `item + 1`, `item + 2`, … — the first hit is the node to go after. A
    /// wide parent's children are close together in id (ids are dense to
    /// begin with), so the search ends in about `min(position, gap)` steps.
    fn link_child(&mut self, parent: u32, child: u32) {
        let item = self.links[child as usize].item;
        let mut before = NONE;
        let mut after = self.links[parent as usize].first_child;
        let mut probe = item;
        let mut walked = 0;
        while after != NONE && self.links[after as usize].item > item {
            before = after;
            after = self.links[after as usize].next_sibling;
            walked += 1;
            if walked > WALK_BEFORE_PROBING {
                // `before` holds a larger id, so this stops at or below it.
                probe += 1;
                let links = &self.links;
                let hit = self
                    .edges
                    .get(parent, probe, |node| links[node as usize].parent);
                if hit != NONE {
                    before = hit;
                    after = self.links[hit as usize].next_sibling;
                    break;
                }
            }
        }
        self.links[child as usize].next_sibling = after;
        if before == NONE {
            self.links[parent as usize].first_child = child;
        } else {
            self.links[before as usize].next_sibling = child;
        }
    }

    /// Multiply every node count and item count by
    /// `factor` (exponential damping at a window boundary).
    pub(crate) fn decay(&mut self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "decay factor must be in [0, 1]"
        );
        if !self.record.is_empty() {
            self.record.decays.push(factor);
        }
        for count in self.counts[1..].iter_mut().chain(&mut self.item_counts) {
            *count *= factor;
        }
    }

    /// Visit every stored transaction as `(root path, weight)`: one DFS from
    /// the root over a reused path buffer, where a node's own weight is its
    /// count minus its children's counts — the part of the count that stopped
    /// at that node. Nothing is allocated per node, and this is the only
    /// traversal of the tree: export, rebuild and the explainers'
    /// counting passes all read the tree through it.
    pub(crate) fn for_each_path(&self, visit: impl FnMut(&[Item], f64)) {
        self.walk(|item| item, visit);
    }

    /// [`for_each_path`](Self::for_each_path) with every item on the path
    /// replaced by `label(item)`, taken once as the walk enters the node. A
    /// recorded window is sorted into its nodes first.
    fn walk<T>(&self, label: impl FnMut(Item) -> T, visit: impl FnMut(&[T], f64)) {
        if self.record.is_empty() {
            self.walk_arena(label, visit);
        } else {
            walk_recorded(&self.record.preorder(true), label, visit);
        }
    }

    /// [`walk`](Self::walk) over the arena.
    fn walk_arena<T>(&self, mut label: impl FnMut(Item) -> T, mut visit: impl FnMut(&[T], f64)) {
        let mut path: Vec<T> = Vec::new();
        // Nodes to enter, each with the length of the path above it. Pushing
        // a sibling chain (descending ids) makes it pop in ascending ids.
        let mut stack: Vec<(u32, usize)> = Vec::new();
        let push_children = |stack: &mut Vec<(u32, usize)>, parent: u32, depth: usize| {
            let mut child = self.links[parent as usize].first_child;
            while child != NONE {
                stack.push((child, depth));
                child = self.links[child as usize].next_sibling;
            }
        };
        push_children(&mut stack, ROOT, 0);
        while let Some((node, depth)) = stack.pop() {
            path.truncate(depth);
            path.push(label(self.links[node as usize].item));
            let pushed = stack.len();
            push_children(&mut stack, node, depth + 1);
            // Summed in ascending id, as the children are visited.
            let mut below = 0.0;
            for &(child, _) in stack[pushed..].iter().rev() {
                below += self.counts[child as usize];
            }
            let own = self.counts[node as usize] - below;
            if own > 1e-12 {
                visit(&path, own);
            }
        }
    }

    /// Export the tree's contents as weighted transactions.
    pub(crate) fn to_weighted_transactions(&self) -> Vec<(Vec<Item>, f64)> {
        let mut out = Vec::new();
        self.for_each_path(|path, weight| out.push((path.to_vec(), weight)));
        out
    }

    /// Rebuild the tree so every branch is sorted by current (decayed)
    /// frequency — the CPS-tree's branch-sorting step at a window boundary.
    pub(crate) fn restructure(&mut self) {
        self.rebuild(|_| true);
    }

    /// Remove every item not contained in `keep`, then restructure.
    pub(crate) fn retain_items(&mut self, keep: &KeyOrderSet<Item>) {
        self.rebuild(|item| keep.contains(&item));
    }

    /// Re-insert every stored path, restricted to the items `keep` accepts,
    /// along the current frequency order. Each path is walked as the ranks
    /// of its items, so sorting those ranks puts it in that order with no
    /// count looked up.
    ///
    /// Paths arrive in walk order, so neighbours share long prefixes. The
    /// last re-inserted path is kept as `(rank, node)` pairs, and a path
    /// adds its weight to the nodes of the prefix it shares with that one
    /// — what [`descend`](Self::descend) would add to them, in the same
    /// order — and descends only below it.
    ///
    /// A recorded window is sorted into its nodes once and dropped, and the
    /// new tree is built straight from them: the unpruned tree is never
    /// built.
    fn rebuild(&mut self, keep: impl Fn(Item) -> bool) {
        let (rank_of, by_rank) = self.frequency_ranks(keep);
        let recorded =
            (!self.record.is_empty()).then(|| std::mem::take(&mut self.record).preorder(true));
        let nodes = recorded.as_ref().map_or(self.node_count(), Vec::len);
        let mut rebuilt = StreamingPrefixTree::with_capacity(nodes, by_rank.len());
        for &item in &by_rank {
            rebuilt.add_item_count(item, self.item_count(item));
        }
        let mut ranks: Vec<u32> = Vec::new();
        let mut last: Vec<(u32, u32)> = Vec::new();
        let label = |item| rank_of[self.item_index.item(item) as usize - 1];
        let reinsert = |path: &[u32], weight| {
            ranks.clear();
            ranks.extend(path.iter().copied().filter(|&rank| rank != DROPPED));
            ranks.sort_unstable();
            let shared = last
                .iter()
                .zip(&ranks)
                .take_while(|(&(a, _), &b)| a == b)
                .count();
            last.truncate(shared);
            for &(_, node) in &last {
                rebuilt.counts[node as usize] += weight;
            }
            let mut current = last.last().map_or(ROOT, |&(_, node)| node);
            for &rank in &ranks[shared..] {
                current = rebuilt.descend(current, by_rank[rank as usize], weight);
                last.push((rank, current));
            }
        };
        match &recorded {
            Some(nodes) => walk_recorded(nodes, label, reinsert),
            None => self.walk_arena(label, reinsert),
        }
        *self = rebuilt;
    }

    /// Rank the items `keep` accepts once, most frequent first, ties by item
    /// id — the order [`insert`](Self::insert) sorts one transaction into.
    /// Returns each item's rank by its index into `item_ids` ([`DROPPED`] if
    /// `keep` refused it), and the items by rank.
    fn frequency_ranks(&self, keep: impl Fn(Item) -> bool) -> (Vec<u32>, Vec<Item>) {
        let items = self.item_ids.iter().zip(&self.item_counts).enumerate();
        let mut order: Vec<(i64, Item, usize)> = items
            .filter(|&(_, (&item, _))| keep(item))
            .map(|(index, (&item, &count))| (descending_key(count), item, index))
            .collect();
        order.sort_unstable();
        let mut rank_of = vec![DROPPED; self.item_ids.len()];
        for (rank, &(_, _, index)) in order.iter().enumerate() {
            rank_of[index] = arena_index(rank);
        }
        (rank_of, order.iter().map(|&(_, item, _)| item).collect())
    }

    /// Mine frequent itemsets from the current tree contents via FPGrowth.
    pub(crate) fn mine(&self, min_support: f64, max_size: usize) -> Vec<FrequentItemset> {
        let transactions = self.to_weighted_transactions();
        let tree = FpTree::from_weighted_transactions(&transactions, min_support);
        tree.mine(min_support, max_size)
    }
}

/// The CPS-tree: a [`StreamingPrefixTree`] with window-boundary decay and
/// restructuring, admitting **every** observed item (the Appendix D
/// baseline).
#[derive(Debug, Clone)]
pub struct CpsTree {
    tree: StreamingPrefixTree,
    decay_rate: f64,
}

impl CpsTree {
    /// Create a CPS-tree with the given per-window decay rate.
    pub fn new(decay_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&decay_rate),
            "decay rate must be in [0, 1)"
        );
        CpsTree {
            tree: StreamingPrefixTree::new(),
            decay_rate,
        }
    }

    /// Insert one transaction (a point's attribute items) with unit weight.
    /// The first window is recorded, as the M-CPS-tree's is.
    pub fn insert(&mut self, items: &[Item]) {
        self.tree.record(items);
    }

    /// Close the current window: decay all counts and restructure branches
    /// into frequency-descending order.
    pub fn on_window_boundary(&mut self) {
        self.tree.decay(1.0 - self.decay_rate);
        self.tree.restructure();
    }

    /// Access the underlying prefix tree (for size comparisons in benches).
    pub fn tree(&self) -> &StreamingPrefixTree {
        &self.tree
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test code: the old layout's oracle keeps its item counts in a HashMap"
)]
mod tests {
    use super::*;
    use crate::sort_canonical;

    #[test]
    fn descending_key_orders_like_total_cmp_reversed() {
        let values = [
            f64::NEG_INFINITY,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            1.0 / 3.0,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    descending_key(a).cmp(&descending_key(b)),
                    b.total_cmp(&a),
                    "{a} against {b}"
                );
            }
        }
    }

    #[test]
    fn insert_and_counts() {
        let mut tree = StreamingPrefixTree::new();
        tree.insert(&[1, 2], 1.0);
        tree.insert(&[1, 3], 1.0);
        tree.insert(&[1, 2, 3], 1.0);
        assert_eq!(tree.distinct_items(), 3);
        assert!((tree.item_count(1) - 3.0).abs() < 1e-12);
        assert!((tree.item_count(2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_transaction_is_ignored() {
        let mut tree = StreamingPrefixTree::new();
        tree.insert(&[], 1.0);
        assert_eq!(tree.node_count(), 0);
    }

    #[test]
    fn decay_scales_everything() {
        let mut tree = StreamingPrefixTree::new();
        tree.insert(&[1, 2], 4.0);
        tree.decay(0.25);
        assert!((tree.item_count(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn export_round_trips_weight() {
        let mut tree = StreamingPrefixTree::new();
        tree.insert(&[1, 2, 3], 1.0);
        tree.insert(&[1, 2], 2.0);
        tree.insert(&[4], 0.5);
        let exported = tree.to_weighted_transactions();
        let total: f64 = exported.iter().map(|(_, w)| w).sum();
        assert!((total - 3.5).abs() < 1e-9);
    }

    #[test]
    fn mining_matches_batch_fpgrowth() {
        use crate::fptree::FpTree;
        let transactions = vec![
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ];
        let mut stream_tree = StreamingPrefixTree::new();
        for t in &transactions {
            stream_tree.insert(t, 1.0);
        }
        let mut streamed = stream_tree.mine(2.0, usize::MAX);
        let batch = FpTree::from_transactions(&transactions, 2.0);
        let mut batched = batch.mine(2.0, usize::MAX);
        sort_canonical(&mut streamed);
        sort_canonical(&mut batched);
        assert_eq!(streamed.len(), batched.len());
        for (s, b) in streamed.iter().zip(batched.iter()) {
            assert_eq!(s.items, b.items);
            assert!((s.support - b.support).abs() < 1e-9);
        }
    }

    #[test]
    fn restructure_preserves_mining_results() {
        let mut tree = StreamingPrefixTree::new();
        // Insert in an order that makes early frequency order "wrong".
        for _ in 0..5 {
            tree.insert(&[9, 1], 1.0);
        }
        for _ in 0..50 {
            tree.insert(&[1, 2], 1.0);
        }
        let mut before = tree.mine(3.0, usize::MAX);
        tree.restructure();
        let mut after = tree.mine(3.0, usize::MAX);
        sort_canonical(&mut before);
        sort_canonical(&mut after);
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(after.iter()) {
            assert_eq!(b.items, a.items);
            assert!((b.support - a.support).abs() < 1e-9);
        }
        // Restructuring never grows the tree.
        assert!(tree.node_count() <= 4 + 2);
    }

    #[test]
    fn retain_items_drops_pruned_items() {
        let mut tree = StreamingPrefixTree::new();
        tree.insert(&[1, 2], 5.0);
        tree.insert(&[1, 3], 1.0);
        tree.insert(&[4], 2.0);
        let keep: KeyOrderSet<Item> = [1, 2].into_iter().collect();
        tree.retain_items(&keep);
        assert_eq!(tree.item_count(3), 0.0);
        assert_eq!(tree.item_count(4), 0.0);
        assert!(tree.item_count(1) > 0.0);
        let mined = tree.mine(1.0, usize::MAX);
        assert!(mined.iter().all(|r| !r.items.contains(&3)));
    }

    mod walk_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The tree's contract, kept the slow way: every inserted transaction
        /// as a sorted item set with its weight.
        #[derive(Default)]
        struct Model {
            transactions: BTreeMap<Vec<Item>, f64>,
        }

        impl Model {
            fn insert(&mut self, items: &[Item], weight: f64) {
                let mut set = items.to_vec();
                set.sort_unstable();
                set.dedup();
                if !set.is_empty() {
                    *self.transactions.entry(set).or_insert(0.0) += weight;
                }
            }

            fn item_count(&self, item: Item) -> f64 {
                self.transactions
                    .iter()
                    .filter(|(set, _)| set.contains(&item))
                    .map(|(_, w)| w)
                    .sum()
            }
        }

        fn walked(tree: &StreamingPrefixTree) -> BTreeMap<Vec<Item>, f64> {
            let mut out: BTreeMap<Vec<Item>, f64> = BTreeMap::new();
            tree.for_each_path(|path, weight| {
                let mut set = path.to_vec();
                set.sort_unstable();
                assert!(set.windows(2).all(|w| w[0] != w[1]), "path repeats an item");
                *out.entry(set).or_insert(0.0) += weight;
            });
            out
        }

        fn agree(tree: &StreamingPrefixTree, model: &Model) -> Result<(), String> {
            let walked = walked(tree);
            prop_assert_eq!(
                walked.keys().collect::<Vec<_>>(),
                model.transactions.keys().collect::<Vec<_>>()
            );
            for (set, weight) in &model.transactions {
                prop_assert!((walked[set] - weight).abs() < 1e-9, "weight of {set:?}");
            }
            // The export is the walk, collected.
            let exported = tree.to_weighted_transactions();
            prop_assert_eq!(exported.len(), {
                let mut n = 0;
                tree.for_each_path(|_, _| n += 1);
                n
            });
            for item in 0..8 {
                prop_assert!((tree.item_count(item) - model.item_count(item)).abs() < 1e-9);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // Inserts, decay, item pruning and branch re-sorting in any order:
            // the walk always yields exactly the transaction multiset a
            // plain map of the same operations holds.
            #[test]
            fn walk_yields_the_stored_multiset(
                kinds in prop::collection::vec(0u8..9, 30..31),
                item_sets in prop::collection::vec(prop::collection::vec(0u32..8, 0..5), 30..31),
            ) {
                let mut tree = StreamingPrefixTree::new();
                let mut model = Model::default();
                for (op, items) in kinds.iter().zip(&item_sets) {
                    match op {
                        0..=5 => {
                            tree.insert(items, 1.0 + *op as f64 * 0.5);
                            model.insert(items, 1.0 + *op as f64 * 0.5);
                        }
                        6 => {
                            tree.decay(0.75);
                            model.transactions.values_mut().for_each(|w| *w *= 0.75);
                        }
                        7 => {
                            let keep: KeyOrderSet<Item> = items.iter().copied().collect();
                            tree.retain_items(&keep);
                            let old = std::mem::take(&mut model.transactions);
                            for (set, weight) in old {
                                let kept: Vec<Item> =
                                    set.into_iter().filter(|i| keep.contains(i)).collect();
                                if !kept.is_empty() {
                                    *model.transactions.entry(kept).or_insert(0.0) += weight;
                                }
                            }
                        }
                        _ => tree.restructure(),
                    }
                    agree(&tree, &model)?;
                }
            }
        }
    }

    /// The node layout [`StreamingPrefixTree`] had before its flat arena: a
    /// `Vec` of nodes each owning a sorted `Vec<(Item, usize)>` of children,
    /// item counts in a `HashMap`, every path sorted through a comparator that
    /// looks both counts up. Slow, and plainly right; `against_the_old_layout`
    /// holds the arena to it bit for bit.
    mod oracle {
        use crate::fptree::FpTree;
        use crate::{FrequentItemset, Item};
        use mb_sketch::key_order::KeyOrderSet;
        use std::collections::HashMap;

        /// An incrementally maintained, weighted, frequency-descending prefix tree.
        ///
        /// This is the structural core shared by the CPS-tree and M-CPS-tree; it
        /// stores transactions compactly along shared prefixes and supports decay,
        /// restructuring, item removal, and FPGrowth mining (by exporting its
        /// contents as weighted transactions).
        #[derive(Debug, Clone)]
        pub struct OraclePrefixTree {
            nodes: Vec<PrefixNode>,
            item_counts: HashMap<Item, f64>,
            total_weight: f64,
        }

        /// Children are a vector of `(item, node index)` pairs sorted by item id
        /// and binary-searched: one heap allocation a node and two dependent
        /// cache misses a level, which is why the tree no longer looks like this.
        #[derive(Debug, Clone)]
        struct PrefixNode {
            count: f64,
            children: Vec<(Item, usize)>,
        }

        const ROOT: usize = 0;

        impl Default for OraclePrefixTree {
            fn default() -> Self {
                Self::new()
            }
        }

        impl OraclePrefixTree {
            /// Create an empty tree.
            pub fn new() -> Self {
                OraclePrefixTree {
                    nodes: vec![PrefixNode {
                        count: 0.0,
                        children: Vec::new(),
                    }],
                    item_counts: HashMap::new(),
                    total_weight: 0.0,
                }
            }

            /// Number of nodes excluding the root.
            pub fn node_count(&self) -> usize {
                self.nodes.len() - 1
            }

            /// Number of distinct items currently present in the tree.
            pub fn distinct_items(&self) -> usize {
                self.item_counts.len()
            }

            /// Total decayed weight of inserted transactions.
            pub fn total_weight(&self) -> f64 {
                self.total_weight
            }

            /// Current per-item decayed frequency.
            pub fn item_count(&self, item: Item) -> f64 {
                self.item_counts.get(&item).copied().unwrap_or(0.0)
            }

            /// Insert a transaction with the given weight. Items are deduplicated and
            /// inserted in the tree's current frequency-descending order.
            pub fn insert(&mut self, items: &[Item], weight: f64) {
                assert!(weight > 0.0, "transaction weight must be positive");
                let mut unique: Vec<Item> = items.to_vec();
                unique.sort_unstable();
                unique.dedup();
                if unique.is_empty() {
                    return;
                }
                for &item in &unique {
                    *self.item_counts.entry(item).or_insert(0.0) += weight;
                }
                self.total_weight += weight;
                self.insert_path(&mut unique, weight);
            }

            /// Walk from `current` to its `item` child (adding `weight`), creating
            /// the child if absent. Children stay sorted by item id.
            fn descend(&mut self, current: usize, item: Item, weight: f64) -> usize {
                match self.nodes[current]
                    .children
                    .binary_search_by_key(&item, |&(i, _)| i)
                {
                    Ok(pos) => {
                        let child = self.nodes[current].children[pos].1;
                        self.nodes[child].count += weight;
                        child
                    }
                    Err(pos) => {
                        let idx = self.nodes.len();
                        self.nodes.push(PrefixNode {
                            count: weight,
                            children: Vec::new(),
                        });
                        self.nodes[current].children.insert(pos, (item, idx));
                        idx
                    }
                }
            }

            /// Multiply every node count, item count, and the total weight by
            /// `factor` (exponential damping at a window boundary).
            pub fn decay(&mut self, factor: f64) {
                assert!(
                    (0.0..=1.0).contains(&factor),
                    "decay factor must be in [0, 1]"
                );
                for node in self.nodes.iter_mut().skip(1) {
                    node.count *= factor;
                }
                    for count in self.item_counts.values_mut() {
                    *count *= factor;
                }
                self.total_weight *= factor;
            }

            /// Visit every stored transaction as `(root path, weight)`: one DFS from
            /// the root over a reused path buffer, where a node's own weight is its
            /// count minus its children's counts — the part of the count that stopped
            /// at that node. Nothing is allocated per node, and this is the only
            /// traversal of the tree: export, rebuild and the explainers'
            /// counting passes all read the tree through it.
            pub fn for_each_path(&self, mut visit: impl FnMut(&[Item], f64)) {
                let mut path: Vec<Item> = Vec::new();
                // (node, index of its next unvisited child)
                let mut stack: Vec<(usize, usize)> = vec![(ROOT, 0)];
                while let Some((node, next)) = stack.last_mut() {
                    let Some(&(item, child)) = self.nodes[*node].children.get(*next) else {
                        stack.pop();
                        path.pop();
                        continue;
                    };
                    *next += 1;
                    path.push(item);
                    let below: f64 = self.nodes[child]
                        .children
                        .iter()
                        .map(|&(_, c)| self.nodes[c].count)
                        .sum();
                    let own = self.nodes[child].count - below;
                    if own > 1e-12 {
                        visit(&path, own);
                    }
                    stack.push((child, 0));
                }
            }

            /// Export the tree's contents as weighted transactions.
            pub fn to_weighted_transactions(&self) -> Vec<(Vec<Item>, f64)> {
                let mut out = Vec::new();
                self.for_each_path(|path, weight| out.push((path.to_vec(), weight)));
                out
            }

            /// Rebuild the tree so every branch is sorted by current (decayed)
            /// frequency — the CPS-tree's branch-sorting step at a window boundary.
            pub fn restructure(&mut self) {
                self.rebuild(|_| true);
            }

            /// Remove every item not contained in `keep`, then restructure. The
            /// total weight is untouched (transactions whose items were all pruned
            /// still count), so support fractions stay meaningful.
            pub fn retain_items(&mut self, keep: &KeyOrderSet<Item>) {
                self.rebuild(|item| keep.contains(&item));
            }

            /// Re-insert every stored path, restricted to the items `keep` accepts,
            /// along the current frequency order.
            fn rebuild(&mut self, keep: impl Fn(Item) -> bool) {
                let mut old = std::mem::take(self);
                self.total_weight = old.total_weight;
                self.item_counts = std::mem::take(&mut old.item_counts);
                self.item_counts.retain(|&item, _| keep(item));
                let mut kept: Vec<Item> = Vec::new();
                old.for_each_path(|path, weight| {
                    kept.clear();
                    kept.extend(path.iter().copied().filter(|&item| keep(item)));
                    self.insert_path(&mut kept, weight);
                });
            }

            /// Insert deduplicated items along the current frequency order
            /// (descending, ties by item id so the order is deterministic), updating
            /// only node counts — not item counts or the total weight.
            fn insert_path(&mut self, items: &mut [Item], weight: f64) {
                let counts = &self.item_counts;
                let count = |item: &Item| counts.get(item).copied().unwrap_or(0.0);
                items.sort_unstable_by(|a, b| count(b).total_cmp(&count(a)).then_with(|| a.cmp(b)));
                let mut current = ROOT;
                for &item in items.iter() {
                    current = self.descend(current, item, weight);
                }
            }

            /// Mine frequent itemsets from the current tree contents via FPGrowth.
            pub fn mine(&self, min_support: f64, max_size: usize) -> Vec<FrequentItemset> {
                let transactions = self.to_weighted_transactions();
                let tree = FpTree::from_weighted_transactions(&transactions, min_support);
                tree.mine(min_support, max_size)
            }
        }
    }

    /// The arena against the layout it replaced ([`oracle`]):
    /// the same operations on both, and everything either can be asked must
    /// come back the same — float results bit for bit.
    mod against_the_old_layout {
        use super::*;
        use super::oracle::OraclePrefixTree;
        use mb_stats::rand_ext::{SplitMix64, Zipf};

        /// The arena and the oracle, kept in step.
        #[derive(Default)]
        struct Pair {
            arena: StreamingPrefixTree,
            oracle: OraclePrefixTree,
        }

        impl Pair {
            fn insert(&mut self, items: &[Item], weight: f64) {
                self.arena.insert(items, weight);
                self.oracle.insert(items, weight);
            }

            fn assert_same(&self, alphabet: usize) {
                let (arena, oracle) = (&self.arena, &self.oracle);
                let bits = |transactions: Vec<(Vec<Item>, f64)>| -> Vec<(Vec<Item>, u64)> {
                    transactions
                        .into_iter()
                        .map(|(path, weight)| (path, weight.to_bits()))
                        .collect()
                };
                assert_eq!(
                    bits(arena.to_weighted_transactions()),
                    bits(oracle.to_weighted_transactions())
                );
                assert_eq!(arena.node_count(), oracle.node_count());
                assert_eq!(arena.distinct_items(), oracle.distinct_items());
                for item in 0..alphabet as Item {
                    assert_eq!(
                        arena.item_count(item).to_bits(),
                        oracle.item_count(item).to_bits(),
                        "count of item {item}"
                    );
                }
                let support = oracle.total_weight() * 0.05;
                let (mined, expected) = (arena.mine(support, 3), oracle.mine(support, 3));
                assert_eq!(mined.len(), expected.len());
                for (m, e) in mined.iter().zip(&expected) {
                    assert_eq!(m.items, e.items);
                    assert_eq!(m.support.to_bits(), e.support.to_bits());
                }
            }
        }

        /// 1–8 items over `alphabet` ids, Zipf or uniform, with a repeated
        /// item in about one row of four.
        fn row(rng: &mut SplitMix64, zipf: Option<&Zipf>, alphabet: usize) -> Vec<Item> {
            let mut items: Vec<Item> = (0..1 + rng.next_below(8))
                .map(|_| match zipf {
                    Some(zipf) => zipf.sample(rng) as Item,
                    None => rng.next_below(alphabet) as Item,
                })
                .collect();
            if rng.next_below(4) == 0 {
                items.push(items[rng.next_below(items.len())]);
            }
            items
        }

        const WEIGHTS: [f64; 5] = [1.0, 1.0, 0.5, 2.25, 1.0 / 3.0];

        fn run(seed: u64, skewed: bool, alphabet: usize, steps: usize) {
            let mut rng = SplitMix64::new(seed);
            let zipf = skewed.then(|| Zipf::new(alphabet, 1.1));
            let mut pair = Pair::default();
            for step in 0..steps {
                match rng.next_below(100) {
                    0..=2 => {
                        let factor = [0.99, 0.5, 0.0][rng.next_below(3)];
                        pair.arena.decay(factor);
                        pair.oracle.decay(factor);
                    }
                    3..=4 => {
                        pair.arena.restructure();
                        pair.oracle.restructure();
                    }
                    5..=6 => {
                        let keep: KeyOrderSet<Item> = (0..alphabet as Item)
                            .filter(|_| rng.next_below(10) < 8)
                            .collect();
                        pair.arena.retain_items(&keep);
                        pair.oracle.retain_items(&keep);
                    }
                    _ => {
                        let items = row(&mut rng, zipf.as_ref(), alphabet);
                        pair.insert(&items, WEIGHTS[rng.next_below(WEIGHTS.len())]);
                        if step % 64 != 0 {
                            continue;
                        }
                    }
                }
                pair.assert_same(alphabet);
            }
            pair.assert_same(alphabet);
        }

        #[test]
        fn generated_streams_agree_bit_for_bit() {
            for seed in 0..6 {
                run(seed, true, 40, 1_500);
                run(100 + seed, false, 12, 1_500);
                run(200 + seed, true, 600, 1_500);
            }
        }

        #[test]
        fn agreement_survives_table_growth() {
            // 30K rows over 3K ids leave some 100K nodes: the edge table
            // doubles a dozen times from its first 16 slots, the item table
            // eight.
            let mut rng = SplitMix64::new(77);
            let mut pair = Pair::default();
            for _ in 0..30_000 {
                let items = row(&mut rng, None, 3_000);
                pair.insert(&items, 1.0);
            }
            assert!(pair.arena.node_count() > 50_000);
            assert!(pair.arena.edges.slots.len() >= 2 * pair.arena.node_count());
            pair.assert_same(3_000);
            pair.arena.decay(0.9);
            pair.oracle.decay(0.9);
            pair.arena.restructure();
            pair.oracle.restructure();
            pair.assert_same(3_000);
        }

        #[test]
        fn wide_parents_keep_their_children_in_id_order() {
            // One parent, thousands of children arriving in no order: dense
            // ids (the table probe finds the predecessor), then ids a thousand
            // apart (only the walk from the head can).
            for stride in [1, 1_000] {
                let mut rng = SplitMix64::new(5);
                let mut pair = Pair::default();
                pair.insert(&[0], 1e9);
                for _ in 0..6_000 {
                    let child = 1 + (rng.next_below(3_000) as Item) * stride;
                    pair.insert(&[0, child], 1.0);
                }
                let children: Vec<Item> = pair
                    .arena
                    .to_weighted_transactions()
                    .iter()
                    .filter(|(path, _)| path.len() == 2)
                    .map(|(path, _)| path[1])
                    .collect();
                assert!(children.len() > 2_000);
                assert!(children.windows(2).all(|ids| ids[0] < ids[1]));
                pair.assert_same(0);
            }
        }
    }

    /// A recorded window against the same rows descended: the same
    /// operations on both, and every read bit for bit the same.
    mod recorded_against_descended {
        use super::*;
        use mb_stats::rand_ext::{SplitMix64, Zipf};

        /// The tree that records and the tree that descends, kept in step,
        /// and every item either has seen.
        #[derive(Default)]
        struct Pair {
            recorded: StreamingPrefixTree,
            descended: StreamingPrefixTree,
            seen: std::collections::BTreeSet<Item>,
        }

        impl Pair {
            fn add(&mut self, items: &[Item]) {
                self.recorded.record(items);
                self.descended.insert(items, 1.0);
                self.seen.extend(items);
            }

            fn both(&mut self, op: impl Fn(&mut StreamingPrefixTree)) {
                op(&mut self.recorded);
                op(&mut self.descended);
            }

            fn assert_same(&self) {
                let (recorded, descended) = (&self.recorded, &self.descended);
                let bits = |tree: &StreamingPrefixTree| -> Vec<(Vec<Item>, u64)> {
                    tree.to_weighted_transactions()
                        .into_iter()
                        .map(|(path, weight)| (path, weight.to_bits()))
                        .collect()
                };
                assert_eq!(bits(recorded), bits(descended));
                assert_eq!(recorded.node_count(), descended.node_count());
                assert_eq!(recorded.distinct_items(), descended.distinct_items());
                for &item in &self.seen {
                    assert_eq!(
                        recorded.item_count(item).to_bits(),
                        descended.item_count(item).to_bits(),
                        "count of item {item}"
                    );
                }
            }
        }

        /// 1–8 items over `alphabet` ids from `first` on, Zipf or uniform,
        /// with a repeated item in about one row of four.
        fn row(rng: &mut SplitMix64, zipf: Option<&Zipf>, alphabet: usize, first: Item) -> Vec<Item> {
            let mut items: Vec<Item> = (0..1 + rng.next_below(8))
                .map(|_| match zipf {
                    Some(zipf) => zipf.sample(rng),
                    None => rng.next_below(alphabet),
                })
                .map(|id| first + id as Item)
                .collect();
            if rng.next_below(4) == 0 {
                items.push(items[rng.next_below(items.len())]);
            }
            items
        }

        /// One window of `rows` rows read every `read_every` rows, perhaps
        /// decayed partway, then a few windows of boundaries and rows.
        fn run(seed: u64, skewed: bool, alphabet: usize, first: Item, rows: usize) {
            let mut rng = SplitMix64::new(seed);
            let zipf = skewed.then(|| Zipf::new(alphabet, 1.1));
            let mut pair = Pair::default();
            let decay_at = (rng.next_below(3) == 0).then(|| rng.next_below(rows));
            for at in 0..rows {
                if decay_at == Some(at) {
                    pair.both(|tree| tree.decay(0.5));
                }
                pair.add(&row(&mut rng, zipf.as_ref(), alphabet, first));
                if at % 97 == 0 {
                    pair.assert_same();
                }
            }
            assert!(decay_at.is_some() || !pair.recorded.record.is_empty());
            pair.assert_same();
            for window in 0..3 {
                pair.both(|tree| tree.decay(0.99));
                pair.assert_same();
                if window % 2 == 0 {
                    let keep: KeyOrderSet<Item> =
                        pair.seen.iter().copied().filter(|_| rng.next_below(10) < 7).collect();
                    pair.both(|tree| tree.retain_items(&keep));
                } else {
                    pair.both(StreamingPrefixTree::restructure);
                }
                assert!(pair.recorded.record.is_empty());
                pair.assert_same();
                for _ in 0..rows / 4 {
                    pair.add(&row(&mut rng, zipf.as_ref(), alphabet, first));
                }
                pair.assert_same();
            }
        }

        #[test]
        fn generated_windows_agree_bit_for_bit() {
            for seed in 0..6 {
                run(seed, true, 40, 0, 800);
                run(100 + seed, false, 12, 0, 800);
                run(200 + seed, true, 600, 0, 1_500);
                // Ids past 2^21, and near the top of the id space, where a
                // sort key holds fewer items than a row.
                run(300 + seed, true, 600, (1 << 21) - 100, 1_500);
                run(400 + seed, false, 3_000, Item::MAX - 3_000, 1_500);
            }
        }

        #[test]
        fn a_record_that_reaches_the_cap_is_built_and_the_window_descends_on() {
            let mut rng = SplitMix64::new(9);
            let zipf = Zipf::new(2_000, 1.05);
            let mut pair = Pair::default();
            for _ in 0..RECORD_ROWS - 1 {
                let items = row(&mut rng, Some(&zipf), 2_000, 0);
                pair.add(&items[..items.len().min(2)]);
            }
            assert_eq!(pair.recorded.record.ends.len(), RECORD_ROWS - 1);
            assert_eq!(pair.recorded.counts.len(), 1);
            pair.assert_same();
            pair.add(&[7, 3]);
            assert!(pair.recorded.record.is_empty());
            assert_eq!(pair.recorded.counts.len(), pair.descended.counts.len());
            pair.assert_same();
            for _ in 0..1_000 {
                pair.add(&row(&mut rng, Some(&zipf), 2_000, 0));
            }
            pair.assert_same();
            pair.both(|tree| tree.decay(0.99));
            pair.both(StreamingPrefixTree::restructure);
            pair.assert_same();
        }

        #[test]
        fn a_decayed_record_is_built_before_the_next_row() {
            let mut pair = Pair::default();
            for items in [[1, 2], [1, 3], [2, 3], [1, 2]] {
                pair.add(&items);
            }
            pair.both(|tree| tree.decay(0.75));
            pair.both(|tree| tree.decay(1.0 / 3.0));
            assert_eq!(pair.recorded.record.decays, [0.75, 1.0 / 3.0]);
            pair.assert_same();
            pair.add(&[3, 1]);
            assert!(pair.recorded.record.is_empty());
            pair.assert_same();
        }
    }

    #[test]
    fn cps_tree_window_lifecycle() {
        let mut cps = CpsTree::new(0.5);
        for _ in 0..100 {
            cps.insert(&[1, 2]);
        }
        cps.on_window_boundary();
        for _ in 0..10 {
            cps.insert(&[3, 4]);
        }
        let mined = cps.tree().mine(5.0, 2);
        // Old pattern decayed to 50 (still above), new pattern at 10.
        assert!(mined.iter().any(|r| r.items == vec![1, 2]));
        assert!(mined.iter().any(|r| r.items == vec![3, 4]));
        // CPS keeps every item ever seen.
        assert_eq!(cps.tree().distinct_items(), 4);
    }

    #[test]
    #[should_panic(expected = "decay rate must be in [0, 1)")]
    fn cps_rejects_bad_decay() {
        let _ = CpsTree::new(1.0);
    }
}
