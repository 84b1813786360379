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

use crate::fptree::FpTree;
use crate::{FrequentItemset, Item};
use mb_sketch::Mergeable;
use std::collections::{HashMap, HashSet};

/// An incrementally maintained, weighted, frequency-descending prefix tree.
///
/// This is the structural core shared by the CPS-tree and M-CPS-tree; it
/// stores transactions compactly along shared prefixes and supports decay,
/// restructuring, item removal, and FPGrowth mining (by exporting its
/// contents as weighted transactions).
#[derive(Debug, Clone)]
pub struct StreamingPrefixTree {
    nodes: Vec<PrefixNode>,
    item_counts: HashMap<Item, f64>,
    total_weight: f64,
}

/// Children are a vector of `(item, node index)` pairs sorted by item id
/// (binary search), matching the batch [`FpTree`]'s arena layout: streaming
/// sibling fan-out is small, so the flat sorted vector is both faster to
/// probe and denser in cache than a per-node `HashMap`.
#[derive(Debug, Clone)]
struct PrefixNode {
    count: f64,
    children: Vec<(Item, usize)>,
}

const ROOT: usize = 0;

impl Default for StreamingPrefixTree {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingPrefixTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        StreamingPrefixTree {
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
        // mb-lint: allow(hashmap-order-hazard) -- order-insensitive scaling: each count shrinks independently
        for count in self.item_counts.values_mut() {
            *count *= factor;
        }
        self.total_weight *= factor;
    }

    /// Visit every stored transaction as `(root path, weight)`: one DFS from
    /// the root over a reused path buffer, where a node's own weight is its
    /// count minus its children's counts — the part of the count that stopped
    /// at that node. Nothing is allocated per node, and this is the only
    /// traversal of the tree: export, rebuild, merge and the explainers'
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
    pub fn retain_items(&mut self, keep: &HashSet<Item>) {
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

impl Mergeable for StreamingPrefixTree {
    /// Merge another prefix tree into this one: item frequencies add, and
    /// the other tree's transactions are re-inserted ordered by the
    /// *combined* frequencies (count addition along shared prefixes). The
    /// merged tree stores exactly the union of both trees' weighted
    /// transaction multisets, so mining it equals mining the concatenated
    /// streams; total weight (including fully-pruned transactions) adds.
    fn merge(&mut self, other: Self) {
        let other_weight = other.total_weight;
        // mb-lint: allow(hashmap-order-hazard) -- order-insensitive fold: each item's count accumulates independently
        for (item, count) in &other.item_counts {
            *self.item_counts.entry(*item).or_insert(0.0) += count;
        }
        let mut path_buf: Vec<Item> = Vec::new();
        other.for_each_path(|path, weight| {
            path_buf.clear();
            path_buf.extend_from_slice(path);
            self.insert_path(&mut path_buf, weight);
        });
        self.total_weight += other_weight;
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
    pub fn insert(&mut self, items: &[Item]) {
        if !items.is_empty() {
            self.tree.insert(items, 1.0);
        }
    }

    /// Close the current window: decay all counts and restructure branches
    /// into frequency-descending order.
    pub fn on_window_boundary(&mut self) {
        self.tree.decay(1.0 - self.decay_rate);
        self.tree.restructure();
    }

    /// Mine itemsets with at least `min_support` (decayed count).
    pub fn mine(&self, min_support: f64, max_size: usize) -> Vec<FrequentItemset> {
        self.tree.mine(min_support, max_size)
    }

    /// Access the underlying prefix tree (for size comparisons in benches).
    pub fn tree(&self) -> &StreamingPrefixTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort_canonical;

    #[test]
    fn insert_and_counts() {
        let mut tree = StreamingPrefixTree::new();
        tree.insert(&[1, 2], 1.0);
        tree.insert(&[1, 3], 1.0);
        tree.insert(&[1, 2, 3], 1.0);
        assert_eq!(tree.distinct_items(), 3);
        assert!((tree.item_count(1) - 3.0).abs() < 1e-12);
        assert!((tree.item_count(2) - 2.0).abs() < 1e-12);
        assert!((tree.total_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_transaction_is_ignored() {
        let mut tree = StreamingPrefixTree::new();
        tree.insert(&[], 1.0);
        assert_eq!(tree.node_count(), 0);
        assert_eq!(tree.total_weight(), 0.0);
    }

    #[test]
    fn decay_scales_everything() {
        let mut tree = StreamingPrefixTree::new();
        tree.insert(&[1, 2], 4.0);
        tree.decay(0.25);
        assert!((tree.item_count(1) - 1.0).abs() < 1e-12);
        assert!((tree.total_weight() - 1.0).abs() < 1e-12);
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
        let keep: HashSet<Item> = [1, 2].into_iter().collect();
        tree.retain_items(&keep);
        assert_eq!(tree.item_count(3), 0.0);
        assert!(tree.item_count(1) > 0.0);
        let mined = tree.mine(1.0, usize::MAX);
        assert!(mined.iter().all(|r| !r.items.contains(&3)));
        // Total weight still reflects all observed transactions.
        assert!((tree.total_weight() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn merged_prefix_trees_mine_like_one_stream() {
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
        let mut whole = StreamingPrefixTree::new();
        let mut left = StreamingPrefixTree::new();
        let mut right = StreamingPrefixTree::new();
        for (i, t) in transactions.iter().enumerate() {
            whole.insert(t, 1.0);
            if i % 2 == 0 {
                left.insert(t, 1.0);
            } else {
                right.insert(t, 1.0);
            }
        }
        left.merge(right);
        assert!((left.total_weight() - whole.total_weight()).abs() < 1e-12);
        assert_eq!(left.distinct_items(), whole.distinct_items());
        for item in [1, 2, 3, 4, 5] {
            assert!((left.item_count(item) - whole.item_count(item)).abs() < 1e-12);
        }
        let mut merged_mined = left.mine(2.0, usize::MAX);
        let mut whole_mined = whole.mine(2.0, usize::MAX);
        sort_canonical(&mut merged_mined);
        sort_canonical(&mut whole_mined);
        assert_eq!(merged_mined.len(), whole_mined.len());
        for (m, w) in merged_mined.iter().zip(whole_mined.iter()) {
            assert_eq!(m.items, w.items);
            assert!((m.support - w.support).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_accounts_pruned_transaction_weight() {
        let mut a = StreamingPrefixTree::new();
        a.insert(&[1, 2], 5.0);
        let mut b = StreamingPrefixTree::new();
        b.insert(&[3], 1.0);
        b.insert(&[4], 2.0);
        let keep: HashSet<Item> = [3].into_iter().collect();
        b.retain_items(&keep); // drops item 4's path but keeps its weight
        a.merge(b);
        assert!((a.total_weight() - 8.0).abs() < 1e-9);
        assert!((a.item_count(3) - 1.0).abs() < 1e-9);
        assert_eq!(a.item_count(4), 0.0);
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
            total: f64,
        }

        impl Model {
            fn insert(&mut self, items: &[Item], weight: f64) {
                let mut set = items.to_vec();
                set.sort_unstable();
                set.dedup();
                if !set.is_empty() {
                    *self.transactions.entry(set).or_insert(0.0) += weight;
                    self.total += weight;
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
            prop_assert!((tree.total_weight() - model.total).abs() < 1e-9);
            for item in 0..8 {
                prop_assert!((tree.item_count(item) - model.item_count(item)).abs() < 1e-9);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // Inserts, decay, item pruning, branch re-sorting and merges in any
            // order: the walk always yields exactly the transaction multiset a
            // plain map of the same operations holds.
            #[test]
            fn walk_yields_the_stored_multiset(
                kinds in prop::collection::vec(0u8..10, 30..31),
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
                            model.total *= 0.75;
                        }
                        7 => {
                            let keep: HashSet<Item> = items.iter().copied().collect();
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
                        8 => tree.restructure(),
                        _ => {
                            let mut other = StreamingPrefixTree::new();
                            for shift in 0..3 {
                                let shifted: Vec<Item> =
                                    items.iter().map(|i| (i + shift) % 8).collect();
                                if !shifted.is_empty() {
                                    other.insert(&shifted, 2.0);
                                    model.insert(&shifted, 2.0);
                                }
                            }
                            tree.merge(other);
                        }
                    }
                    agree(&tree, &model)?;
                }
            }
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
        let mined = cps.mine(5.0, 2);
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
