//! Frequent-itemset mining for MacroBase-RS.
//!
//! MacroBase's explanation operator reports *combinations* of attribute
//! values that are common among outliers (Section 5.2). The batch path mines
//! an FP-tree over the outlier transactions ([`fptree`]); the streaming path
//! maintains a decayed prefix tree — the M-CPS-tree — restricted to items the
//! AMC sketch currently considers frequent ([`mcps`]), with the original
//! CPS-tree as the baseline it is compared against in Appendix D ([`cps`]).
//! An Apriori miner ([`apriori`]) is included as the classic baseline used in
//! the Table 5 runtime comparison.
//!
//! Items are dense `u32` identifiers; the explanation layer maps attribute
//! values (strings) to item ids before mining.
//!
//! ## Example
//!
//! Mine frequent itemsets from a batch of transactions with FPGrowth:
//!
//! ```
//! use mb_fpgrowth::fptree::FpTree;
//!
//! let transactions = vec![vec![1, 2], vec![1, 2, 3], vec![1, 3]];
//! let tree = FpTree::from_transactions(&transactions, 2.0);
//! let frequent = tree.mine(2.0, usize::MAX);
//! assert!(frequent
//!     .iter()
//!     .any(|f| f.items == vec![1, 2] && f.support == 2.0));
//! ```

#![warn(missing_docs)]

pub mod apriori;
pub mod cps;
pub mod fptree;
pub mod mcps;

/// An attribute-value identifier. The explanation layer maintains the
/// mapping from (attribute name, value) pairs to dense item ids.
pub type Item = u32;

/// A mined frequent itemset with its (possibly weighted/decayed) support count.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequentItemset {
    /// The items in the set, sorted ascending.
    pub items: Vec<Item>,
    /// Total weight of transactions containing the set.
    pub support: f64,
}

impl FrequentItemset {
    /// Create a new itemset result, normalizing item order.
    pub fn new(mut items: Vec<Item>, support: f64) -> Self {
        items.sort_unstable();
        FrequentItemset { items, support }
    }

    /// Number of items in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the itemset is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Sort itemset results canonically (by descending support, then items) so
/// different miners can be compared in tests.
#[cfg(test)]
pub(crate) fn sort_canonical(itemsets: &mut [FrequentItemset]) {
    itemsets.sort_by(|a, b| {
        b.support
            .total_cmp(&a.support)
            .then_with(|| a.items.cmp(&b.items))
    });
}

/// Brute-force frequent itemset miner used as a test oracle: enumerates every
/// subset of observed items (only feasible for tiny alphabets).
#[cfg(test)]
pub(crate) fn brute_force_frequent_itemsets(
    transactions: &[Vec<Item>],
    min_support: f64,
) -> Vec<FrequentItemset> {
    use std::collections::BTreeSet;
    let alphabet: BTreeSet<Item> = transactions.iter().flatten().copied().collect();
    let alphabet: Vec<Item> = alphabet.into_iter().collect();
    assert!(
        alphabet.len() <= 20,
        "brute force oracle is only for tiny alphabets"
    );
    let mut out = Vec::new();
    for mask in 1u32..(1 << alphabet.len()) {
        let subset: Vec<Item> = alphabet
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &item)| item)
            .collect();
        let count = transactions
            .iter()
            .filter(|t| subset.iter().all(|item| t.contains(item)))
            .count() as f64;
        if count >= min_support {
            out.push(FrequentItemset::new(subset, count));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itemset_normalizes_order() {
        let a = FrequentItemset::new(vec![3, 1, 2], 5.0);
        assert_eq!(a.items, vec![1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn brute_force_on_tiny_example() {
        let transactions = vec![vec![1, 2], vec![1, 2, 3], vec![1, 3], vec![1]];
        let result = brute_force_frequent_itemsets(&transactions, 2.0);
        // {1}: 4, {2}: 2, {3}: 2, {1,2}: 2, {1,3}: 2
        assert_eq!(result.len(), 5);
        let get = |items: &[Item]| {
            result
                .iter()
                .find(|r| r.items == items)
                .map(|r| r.support)
        };
        assert_eq!(get(&[1]), Some(4.0));
        assert_eq!(get(&[1, 2]), Some(2.0));
        assert_eq!(get(&[2, 3]), None);
    }

    #[test]
    fn sort_canonical_orders_by_support() {
        let mut sets = vec![
            FrequentItemset::new(vec![2], 1.0),
            FrequentItemset::new(vec![1], 5.0),
            FrequentItemset::new(vec![3], 3.0),
        ];
        sort_canonical(&mut sets);
        assert_eq!(sets[0].items, vec![1]);
        assert_eq!(sets[1].items, vec![3]);
        assert_eq!(sets[2].items, vec![2]);
    }
}
