//! Apriori frequent-itemset mining — the classic candidate-generation
//! baseline ("AP" in Table 5).
//!
//! Apriori makes one pass over the transactions per itemset size, generating
//! candidate `k+1`-itemsets from frequent `k`-itemsets and counting them. Its
//! repeated scans are what make it markedly slower than FPGrowth (and than
//! MacroBase's cardinality-aware strategy) on the paper's workloads — the
//! Table 5 harness reproduces exactly that gap.

use crate::{FrequentItemset, Item};
use mb_sketch::key_order::{KeyOrderMap, KeyOrderSet};

/// Mine all itemsets with support at least `min_support` (absolute count)
/// using the Apriori algorithm, with combination size bounded by `max_size`.
pub fn apriori(
    transactions: &[Vec<Item>],
    min_support: f64,
    max_size: usize,
) -> Vec<FrequentItemset> {
    if max_size == 0 || transactions.is_empty() {
        return Vec::new();
    }
    // Deduplicate items within each transaction up front.
    let cleaned: Vec<Vec<Item>> = transactions
        .iter()
        .map(|t| {
            let mut items = t.clone();
            items.sort_unstable();
            items.dedup();
            items
        })
        .collect();

    let mut results: Vec<FrequentItemset> = Vec::new();

    // Level 1: single-item counts.
    let mut counts: KeyOrderMap<Vec<Item>, f64> = KeyOrderMap::default();
    for t in &cleaned {
        for &item in t {
            *counts.entry(vec![item]).or_insert(0.0) += 1.0;
        }
    }
    let mut frequent = keep_frequent(&counts, min_support, &mut results);

    let mut k = 1;
    while !frequent.is_empty() && k < max_size {
        k += 1;
        // Candidate generation: join frequent (k-1)-itemsets sharing a prefix.
        let frequent_set: KeyOrderSet<Vec<Item>> = frequent.iter().cloned().collect();
        let mut candidates: KeyOrderSet<Vec<Item>> = KeyOrderSet::default();
        for (i, a) in frequent.iter().enumerate() {
            for b in frequent.iter().skip(i + 1) {
                if a[..k - 2] == b[..k - 2] {
                    let mut candidate = a.clone();
                    candidate.push(b[k - 2]);
                    candidate.sort_unstable();
                    candidate.dedup();
                    if candidate.len() != k {
                        continue;
                    }
                    // Prune: every (k-1)-subset must be frequent.
                    let all_subsets_frequent = (0..k).all(|drop| {
                        let mut subset = candidate.clone();
                        subset.remove(drop);
                        frequent_set.contains(&subset)
                    });
                    if all_subsets_frequent {
                        candidates.insert(candidate);
                    }
                }
            }
        }
        let candidates = candidates.into_sorted();
        if candidates.is_empty() {
            break;
        }
        // Count candidates with one pass over the (sorted) transactions.
        let mut level_counts: KeyOrderMap<Vec<Item>, f64> = KeyOrderMap::default();
        for t in &cleaned {
            if t.len() < k {
                continue;
            }
            for candidate in &candidates {
                if candidate.iter().all(|item| t.binary_search(item).is_ok()) {
                    *level_counts.entry(candidate.clone()).or_insert(0.0) += 1.0;
                }
            }
        }
        frequent = keep_frequent(&level_counts, min_support, &mut results);
    }
    results
}

/// The itemsets of `counts` with support at least `min_support`, in key
/// order, each also pushed onto `results` with its support.
fn keep_frequent(
    counts: &KeyOrderMap<Vec<Item>, f64>,
    min_support: f64,
    results: &mut Vec<FrequentItemset>,
) -> Vec<Vec<Item>> {
    let mut frequent = Vec::new();
    for (items, &count) in counts.sorted() {
        if count >= min_support {
            results.push(FrequentItemset::new(items.clone(), count));
            frequent.push(items.clone());
        }
    }
    frequent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fptree::FpTree;
    use crate::{brute_force_frequent_itemsets, sort_canonical};
    use proptest::prelude::*;

    #[test]
    fn empty_input_returns_nothing() {
        assert!(apriori(&[], 1.0, usize::MAX).is_empty());
        assert!(apriori(&[vec![1, 2]], 1.0, 0).is_empty());
    }

    #[test]
    fn matches_brute_force_on_small_example() {
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
        for min_support in [2.0, 3.0] {
            let mut mined = apriori(&transactions, min_support, usize::MAX);
            let mut oracle = brute_force_frequent_itemsets(&transactions, min_support);
            sort_canonical(&mut mined);
            sort_canonical(&mut oracle);
            assert_eq!(mined.len(), oracle.len());
            for (m, o) in mined.iter().zip(oracle.iter()) {
                assert_eq!(m.items, o.items);
                assert!((m.support - o.support).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn max_size_bounds_results() {
        let transactions = vec![vec![1, 2, 3, 4]; 10];
        let result = apriori(&transactions, 5.0, 2);
        assert!(result.iter().all(|r| r.len() <= 2));
        assert_eq!(result.iter().filter(|r| r.len() == 2).count(), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn apriori_matches_fpgrowth(
            transactions in prop::collection::vec(
                prop::collection::vec(0u32..6, 0..5), 0..25),
            min_support in 1usize..4,
        ) {
            let mut a = apriori(&transactions, min_support as f64, usize::MAX);
            let tree = FpTree::from_transactions(&transactions, min_support as f64);
            let mut f = tree.mine(min_support as f64, usize::MAX);
            sort_canonical(&mut a);
            sort_canonical(&mut f);
            prop_assert_eq!(a.len(), f.len());
            for (x, y) in a.iter().zip(f.iter()) {
                prop_assert_eq!(&x.items, &y.items);
                prop_assert!((x.support - y.support).abs() < 1e-9);
            }
        }
    }
}
