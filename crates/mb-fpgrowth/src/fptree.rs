//! FP-tree construction and FPGrowth mining (Han et al.), the itemset miner
//! behind MacroBase's batch explanation (Section 5.2).
//!
//! The tree is arena-allocated (`Vec<Node>` with index links) so construction
//! does no per-node boxing and mining can walk parent links cheaply.
//! Transactions may carry fractional weights, which is what lets the same
//! code mine decayed streaming prefix trees (the M-CPS-tree exports its
//! contents as weighted transactions).

use crate::{FrequentItemset, Item};
use std::collections::HashMap;

/// One node of the FP-tree.
///
/// Children are kept as a vector of `(item, node index)` pairs sorted by
/// item id and located by binary search. Sibling fan-out in attribute
/// transactions is small (bounded by the number of attribute columns times
/// their surviving cardinality at that depth), so the sorted vector beats a
/// per-node `HashMap` on both lookup cost and memory locality.
#[derive(Debug, Clone)]
struct Node {
    item: Item,
    count: f64,
    parent: usize,
    children: Vec<(Item, usize)>,
    /// Next node holding the same item (header-table chain).
    next_same_item: Option<usize>,
}

/// A weighted FP-tree over `u32` items.
#[derive(Debug, Clone)]
pub struct FpTree {
    nodes: Vec<Node>,
    /// First node per item for header-table traversal.
    header: HashMap<Item, usize>,
    /// Total item frequencies (used to order transactions).
    item_counts: HashMap<Item, f64>,
}

const ROOT: usize = 0;

impl Default for FpTree {
    fn default() -> Self {
        Self::new()
    }
}

impl FpTree {
    /// Create an empty tree.
    pub(crate) fn new() -> Self {
        FpTree {
            nodes: vec![Node {
                item: Item::MAX,
                count: 0.0,
                parent: usize::MAX,
                children: Vec::new(),
                next_same_item: None,
            }],
            header: HashMap::new(),
            item_counts: HashMap::new(),
        }
    }

    /// Build a tree from unweighted transactions, ordering items by global
    /// frequency (descending) as FPGrowth prescribes. Items occurring fewer
    /// than `min_support` times in total are dropped up front.
    pub fn from_transactions(transactions: &[Vec<Item>], min_support: f64) -> Self {
        let weighted: Vec<(Vec<Item>, f64)> =
            transactions.iter().map(|t| (t.clone(), 1.0)).collect();
        Self::from_weighted_transactions(&weighted, min_support)
    }

    /// Build a tree from weighted transactions.
    pub fn from_weighted_transactions(
        transactions: &[(Vec<Item>, f64)],
        min_support: f64,
    ) -> Self {
        let mut counts: HashMap<Item, f64> = HashMap::new();
        for (items, weight) in transactions {
            for &item in items {
                *counts.entry(item).or_insert(0.0) += weight;
            }
        }
        let mut tree = FpTree::new();
        tree.item_counts = counts;
        for (items, weight) in transactions {
            let ordered = tree.order_and_filter(items, min_support);
            tree.insert_ordered(&ordered, *weight);
        }
        tree
    }

    /// Number of nodes (excluding the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Order a transaction's items by global frequency (descending, ties by
    /// item id for determinism), dropping items below `min_support` and
    /// duplicates.
    fn order_and_filter(&self, items: &[Item], min_support: f64) -> Vec<Item> {
        let mut filtered: Vec<Item> = items
            .iter()
            .copied()
            .filter(|item| {
                self.item_counts
                    .get(item)
                    .map(|&c| c >= min_support)
                    .unwrap_or(false)
            })
            .collect();
        filtered.sort_unstable();
        filtered.dedup();
        filtered.sort_by(|a, b| {
            let ca = self.item_counts.get(a).copied().unwrap_or(0.0);
            let cb = self.item_counts.get(b).copied().unwrap_or(0.0);
            cb.total_cmp(&ca).then_with(|| a.cmp(b))
        });
        filtered
    }

    /// Insert an already ordered, deduplicated transaction with a weight.
    fn insert_ordered(&mut self, items: &[Item], weight: f64) {
        let mut current = ROOT;
        for &item in items {
            current = match self.nodes[current]
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
                    self.nodes.push(Node {
                        item,
                        count: weight,
                        parent: current,
                        children: Vec::new(),
                        next_same_item: self.header.get(&item).copied(),
                    });
                    self.header.insert(item, idx);
                    self.nodes[current].children.insert(pos, (item, idx));
                    idx
                }
            };
        }
    }

    /// Collect, for each node holding `item`, the path of items from its
    /// parent up to the root together with the node's count — the
    /// "conditional pattern base" of FPGrowth.
    fn conditional_pattern_base(&self, item: Item) -> Vec<(Vec<Item>, f64)> {
        let mut out = Vec::new();
        let mut cursor = self.header.get(&item).copied();
        while let Some(idx) = cursor {
            let node = &self.nodes[idx];
            let mut path = Vec::new();
            let mut up = node.parent;
            while up != ROOT && up != usize::MAX {
                path.push(self.nodes[up].item);
                up = self.nodes[up].parent;
            }
            if !path.is_empty() {
                out.push((path, node.count));
            }
            cursor = node.next_same_item;
        }
        out
    }

    /// Total count of an item across the tree.
    fn item_total(&self, item: Item) -> f64 {
        let mut total = 0.0;
        let mut cursor = self.header.get(&item).copied();
        while let Some(idx) = cursor {
            total += self.nodes[idx].count;
            cursor = self.nodes[idx].next_same_item;
        }
        total
    }

    /// Mine all itemsets with support at least `min_support` via FPGrowth.
    ///
    /// `max_size` bounds the size of returned combinations (the paper's
    /// default pipeline typically looks at combinations of up to 3 or so
    /// attributes); pass `usize::MAX` for no bound.
    pub fn mine(&self, min_support: f64, max_size: usize) -> Vec<FrequentItemset> {
        self.mine_with_bound(min_support, max_size, |_| true)
    }

    /// [`mine`](FpTree::mine) with an additional *support-monotone* bound:
    /// an item whose total support `t` fails `bound(t)` is neither reported
    /// nor descended into. Because an itemset's support never exceeds the
    /// support of any of its items (in any conditional context), a bound of
    /// the form `f(t) >= threshold` with `f` nondecreasing prunes only
    /// itemsets that every extension would also fail — the output equals
    /// `mine(min_support, max_size)` filtered by `bound(support)`, computed
    /// without building the doomed conditional trees. MacroBase uses this to
    /// skip itemsets whose *maximum attainable risk ratio* (all support
    /// concentrated among outliers) cannot clear the reporting threshold.
    pub fn mine_with_bound<F>(
        &self,
        min_support: f64,
        max_size: usize,
        bound: F,
    ) -> Vec<FrequentItemset>
    where
        F: Fn(f64) -> bool,
    {
        let mut results = Vec::new();
        if max_size == 0 {
            return results;
        }
        let mut suffix = Vec::new();
        self.mine_recursive(min_support, max_size, &bound, &mut suffix, &mut results);
        results
    }

    fn mine_recursive<F>(
        &self,
        min_support: f64,
        max_size: usize,
        bound: &F,
        suffix: &mut Vec<Item>,
        results: &mut Vec<FrequentItemset>,
    ) where
        F: Fn(f64) -> bool,
    {
        // Items in this (conditional) tree, with totals.
        let mut items: Vec<(Item, f64)> = self
            .header
            .keys() // mb-lint: allow(hashmap-order-hazard) -- collected keys are sorted canonically just below
            .map(|&item| (item, self.item_total(item)))
            .filter(|&(_, total)| total >= min_support && bound(total))
            .collect();
        // Process in ascending frequency order (classic FPGrowth recursion order).
        items.sort_by(|a, b| {
            a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0))
        });
        for (item, total) in items {
            let mut itemset = suffix.clone();
            itemset.push(item);
            results.push(FrequentItemset::new(itemset.clone(), total));
            if itemset.len() >= max_size {
                continue;
            }
            let base = self.conditional_pattern_base(item);
            if base.is_empty() {
                continue;
            }
            let conditional = FpTree::from_weighted_transactions(&base, min_support);
            if conditional.node_count() == 0 {
                continue;
            }
            suffix.push(item);
            conditional.mine_recursive(min_support, max_size, bound, suffix, results);
            suffix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force_frequent_itemsets, sort_canonical};
    use proptest::prelude::*;

    fn classic_transactions() -> Vec<Vec<Item>> {
        // The textbook FPGrowth example (Han et al.).
        vec![
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ]
    }

    #[test]
    fn empty_tree_mines_nothing() {
        let tree = FpTree::new();
        assert!(tree.mine(1.0, usize::MAX).is_empty());
        assert_eq!(tree.node_count(), 0);
    }

    #[test]
    fn single_transaction_tree() {
        let tree = FpTree::from_transactions(&[vec![1, 2, 3]], 1.0);
        assert_eq!(tree.node_count(), 3);
        let mut result = tree.mine(1.0, usize::MAX);
        sort_canonical(&mut result);
        // All 7 non-empty subsets of {1,2,3} have support 1.
        assert_eq!(result.len(), 7);
        assert!(result.iter().all(|r| (r.support - 1.0).abs() < 1e-12));
    }

    #[test]
    fn matches_brute_force_on_classic_example() {
        let transactions = classic_transactions();
        for min_support in [1.0, 2.0, 3.0, 4.0] {
            let tree = FpTree::from_transactions(&transactions, min_support);
            let mut mined = tree.mine(min_support, usize::MAX);
            let mut oracle = brute_force_frequent_itemsets(&transactions, min_support);
            sort_canonical(&mut mined);
            sort_canonical(&mut oracle);
            assert_eq!(mined.len(), oracle.len(), "min_support = {min_support}");
            for (m, o) in mined.iter().zip(oracle.iter()) {
                assert_eq!(m.items, o.items, "min_support = {min_support}");
                assert!((m.support - o.support).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn max_size_limits_combination_length() {
        let transactions = classic_transactions();
        let tree = FpTree::from_transactions(&transactions, 1.0);
        let result = tree.mine(1.0, 2);
        assert!(result.iter().all(|r| r.len() <= 2));
        assert!(result.iter().any(|r| r.len() == 2));
        let singles_only = tree.mine(1.0, 1);
        assert!(singles_only.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn duplicate_items_in_transaction_count_once() {
        let tree = FpTree::from_transactions(&[vec![1, 1, 2], vec![1, 2, 2]], 1.0);
        let result = tree.mine(2.0, usize::MAX);
        let pair = result.iter().find(|r| r.items == vec![1, 2]).unwrap();
        assert!((pair.support - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_transactions_accumulate() {
        let weighted = vec![(vec![1, 2], 0.5), (vec![1, 2], 1.5), (vec![1], 2.0)];
        let tree = FpTree::from_weighted_transactions(&weighted, 0.0);
        let result = tree.mine(1.9, usize::MAX);
        let one = result.iter().find(|r| r.items == vec![1]).unwrap();
        let pair = result.iter().find(|r| r.items == vec![1, 2]).unwrap();
        assert!((one.support - 4.0).abs() < 1e-12);
        assert!((pair.support - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_support_prunes_rare_items_from_tree() {
        let mut transactions = vec![vec![1, 2]; 100];
        transactions.push(vec![1, 99]); // item 99 appears once
        transactions.push(vec![98]); // every item of this one is dropped
        let tree = FpTree::from_transactions(&transactions, 10.0);
        let result = tree.mine(10.0, usize::MAX);
        assert!(result.iter().all(|r| !r.items.contains(&99)));
    }

    #[test]
    fn shared_prefixes_are_compressed() {
        // 1000 identical transactions must create only 3 nodes.
        let transactions = vec![vec![1, 2, 3]; 1000];
        let tree = FpTree::from_transactions(&transactions, 1.0);
        assert_eq!(tree.node_count(), 3);
    }

    #[test]
    fn trivial_bound_is_exactly_mine() {
        let tree = FpTree::from_transactions(&classic_transactions(), 1.0);
        let a = tree.mine(1.0, usize::MAX);
        let b = tree.mine_with_bound(1.0, usize::MAX, |_| true);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.items, y.items);
            assert!((x.support - y.support).abs() < 1e-12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // A support-monotone bound prunes exactly the itemsets whose final
        // support fails it: bounded mining equals unbounded mining filtered
        // after the fact.
        #[test]
        fn bounded_mining_equals_filtered_unbounded(
            transactions in prop::collection::vec(
                prop::collection::vec(0u32..8, 0..6), 0..30),
            min_support in 1usize..4,
            threshold in 1usize..6,
        ) {
            let tree = FpTree::from_transactions(&transactions, min_support as f64);
            let cut = threshold as f64;
            let mut bounded =
                tree.mine_with_bound(min_support as f64, usize::MAX, |t| t >= cut);
            let mut filtered: Vec<FrequentItemset> = tree
                .mine(min_support as f64, usize::MAX)
                .into_iter()
                .filter(|r| r.support >= cut)
                .collect();
            sort_canonical(&mut bounded);
            sort_canonical(&mut filtered);
            prop_assert_eq!(bounded.len(), filtered.len());
            for (m, o) in bounded.iter().zip(filtered.iter()) {
                prop_assert_eq!(&m.items, &o.items);
                prop_assert!((m.support - o.support).abs() < 1e-9);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn fpgrowth_matches_brute_force(
            transactions in prop::collection::vec(
                prop::collection::vec(0u32..8, 0..6), 0..30),
            min_support in 1usize..5,
        ) {
            let tree = FpTree::from_transactions(&transactions, min_support as f64);
            let mut mined = tree.mine(min_support as f64, usize::MAX);
            let mut oracle = brute_force_frequent_itemsets(&transactions, min_support as f64);
            sort_canonical(&mut mined);
            sort_canonical(&mut oracle);
            prop_assert_eq!(mined.len(), oracle.len());
            for (m, o) in mined.iter().zip(oracle.iter()) {
                prop_assert_eq!(&m.items, &o.items);
                prop_assert!((m.support - o.support).abs() < 1e-9);
            }
        }
    }
}
