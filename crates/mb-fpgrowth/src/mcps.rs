//! The M-CPS-tree: MacroBase's streaming itemset structure (Appendix B).
//!
//! In an exponentially damped model, the plain CPS-tree stores at least one
//! node for every item ever observed — infeasible for streams whose attribute
//! cardinality runs into the hundreds of thousands. The M-CPS-tree only
//! stores items that are currently *frequent* according to the AMC sketch:
//!
//! * On insertion, a point's attributes are first recorded in the AMC; only
//!   the attributes in the current frequent set are inserted into the tree.
//!   Until the first boundary there is no frequent set yet and every item is
//!   admitted; that window is recorded, not descended, and the first
//!   boundary builds the pruned tree from it directly (see [`crate::cps`]),
//!   so the unpruned bootstrap tree is never built.
//! * At each window boundary, the AMC and tree counts are decayed, the
//!   frequent set is recomputed from the AMC — an item is frequent when its
//!   estimate reaches the support fraction of the decayed number of
//!   *transactions*, the unit [`McpsTree::mine`] thresholds in too — items
//!   that fell out of it are removed from the tree, and branches are
//!   re-sorted into frequency-descending order.
//! * The outlier side of an explanation is produced by running FPGrowth over
//!   the tree ([`McpsTree::mine`]); the inlier side never mines — it reads
//!   single counts off the AMC ([`McpsTree::item_estimate`],
//!   [`McpsTree::items_above`]) and counts chosen combinations in one walk
//!   over the stored paths ([`McpsTree::for_each_path`]).

use crate::cps::{EdgeTable, StreamingPrefixTree};
use crate::{FrequentItemset, Item};
use mb_sketch::amc::{AmcSketch, MaintenancePolicy};
use mb_sketch::HeavyHitterSketch;
use std::collections::HashSet;

/// Configuration for the M-CPS-tree.
#[derive(Debug, Clone)]
pub struct McpsConfig {
    /// Minimum support as a fraction of the (decayed) stream weight for an
    /// item to be admitted into the tree.
    pub min_support_fraction: f64,
    /// Per-window decay rate (`counts *= 1 - decay_rate` at each boundary).
    pub decay_rate: f64,
    /// Stable size of the backing AMC sketch.
    pub amc_stable_size: usize,
    /// AMC maintenance period (observations between prunes).
    pub amc_maintenance_period: u64,
}

impl Default for McpsConfig {
    fn default() -> Self {
        McpsConfig {
            // Paper default: minimum outlier support of 0.1%.
            min_support_fraction: 0.001,
            decay_rate: 0.01,
            amc_stable_size: 10_000,
            amc_maintenance_period: 10_000,
        }
    }
}

/// The M-CPS-tree streaming frequent-itemset summarizer.
#[derive(Debug, Clone)]
pub struct McpsTree {
    config: McpsConfig,
    tree: StreamingPrefixTree,
    amc: AmcSketch<Item>,
    frequent: HashSet<Item>,
    /// `frequent` again, as the item table [`insert`](McpsTree::insert)
    /// filters every point through.
    admits: EdgeTable,
    /// Scratch of [`insert`](McpsTree::insert): the point's admitted items.
    admitted: Vec<Item>,
    /// Decayed number of transactions observed. Every support threshold —
    /// admission at a boundary, [`mine`](McpsTree::mine) — is a fraction of
    /// this, never of the AMC's total, which counts item observations (one
    /// per attribute of every transaction).
    transactions: f64,
    /// Whether at least one window boundary has elapsed; before that the
    /// frequent set is still being bootstrapped and every item is admitted
    /// (it will be pruned at the first boundary if insufficiently supported),
    /// into a tree that records the window.
    bootstrapping: bool,
}

impl McpsTree {
    /// Create an M-CPS-tree from a configuration.
    pub fn new(config: McpsConfig) -> Self {
        assert!(
            config.min_support_fraction > 0.0 && config.min_support_fraction < 1.0,
            "support fraction must be in (0, 1)"
        );
        assert!(
            (0.0..1.0).contains(&config.decay_rate),
            "decay rate must be in [0, 1)"
        );
        let amc = AmcSketch::with_policy(
            config.amc_stable_size,
            MaintenancePolicy::EveryNObservations(config.amc_maintenance_period),
        );
        McpsTree {
            config,
            tree: StreamingPrefixTree::new(),
            amc,
            frequent: HashSet::new(),
            admits: EdgeTable::with_capacity(0),
            admitted: Vec::new(),
            transactions: 0.0,
            bootstrapping: true,
        }
    }

    /// Create an M-CPS-tree with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(McpsConfig::default())
    }

    /// Observe one point's attribute items.
    pub fn insert(&mut self, items: &[Item]) {
        self.transactions += 1.0;
        for &item in items {
            self.amc.observe(item);
        }
        if self.bootstrapping {
            self.tree.record(items);
        } else {
            let admits = &self.admits;
            self.admitted.clear();
            self.admitted
                .extend(items.iter().filter(|&&item| admits.has_item(item)));
            self.tree.insert(&self.admitted, 1.0);
        }
    }

    /// Admit exactly `items` from the next insertion on.
    fn set_frequent(&mut self, items: Vec<Item>) {
        self.admits = EdgeTable::with_capacity(items.len());
        for &item in &items {
            self.admits.add_item(item, 1);
        }
        self.frequent = items.into_iter().collect();
    }

    /// Close the current window: decay, recompute the frequent item set from
    /// the AMC, prune items that fell below support, and re-sort the tree.
    pub fn on_window_boundary(&mut self) {
        let keep_factor = 1.0 - self.config.decay_rate;
        self.amc.decay(keep_factor);
        self.tree.decay(keep_factor);
        self.transactions *= keep_factor;

        let threshold = self.config.min_support_fraction * self.transactions;
        let supported = self.amc.items_above(threshold);
        self.set_frequent(supported.into_iter().map(|(item, _)| item).collect());
        self.tree.retain_items(&self.frequent);
        self.bootstrapping = false;
    }

    /// Mine itemsets whose decayed support fraction is at least the
    /// configured minimum, bounded to combinations of `max_size` items.
    pub fn mine(&self, max_size: usize) -> Vec<FrequentItemset> {
        let min_count = self.config.min_support_fraction * self.transactions;
        self.tree.mine(min_count, max_size)
    }

    /// Mine with an explicit absolute support count.
    pub fn mine_with_support(&self, min_support: f64, max_size: usize) -> Vec<FrequentItemset> {
        self.tree.mine(min_support, max_size)
    }

    /// The current frequent item set (empty until the first window boundary).
    #[cfg(test)]
    pub(crate) fn frequent_items(&self) -> &HashSet<Item> {
        &self.frequent
    }

    /// Number of distinct items currently stored in the tree.
    #[cfg(test)]
    pub(crate) fn distinct_items(&self) -> usize {
        self.tree.distinct_items()
    }

    /// Number of tree nodes (size comparison against the CPS-tree).
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Visit every transaction stored in the tree as `(root path, weight)`
    /// without exporting it (see `StreamingPrefixTree::for_each_path`).
    pub fn for_each_path(&self, visit: impl FnMut(&[Item], f64)) {
        self.tree.for_each_path(visit)
    }

    /// Decayed estimate of a single item's count from the AMC.
    pub fn item_estimate(&self, item: Item) -> f64 {
        self.amc.estimate(&item)
    }

    /// Items whose decayed AMC estimate is at least `threshold`, by
    /// decreasing estimate.
    pub fn items_above(&self, threshold: f64) -> Vec<(Item, f64)> {
        self.amc.items_above(threshold)
    }

    /// Decayed number of transactions observed.
    pub fn total_weight(&self) -> f64 {
        self.transactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cps::CpsTree;
    use mb_stats::rand_ext::{SplitMix64, Zipf};

    fn config(support: f64, decay: f64) -> McpsConfig {
        McpsConfig {
            min_support_fraction: support,
            decay_rate: decay,
            amc_stable_size: 1000,
            amc_maintenance_period: 1000,
        }
    }

    #[test]
    fn bootstrap_window_admits_everything_then_prunes() {
        let mut mcps = McpsTree::new(config(0.1, 0.0));
        for _ in 0..99 {
            mcps.insert(&[1, 2]);
        }
        mcps.insert(&[3, 4]); // rare items
        assert_eq!(mcps.distinct_items(), 4);
        mcps.on_window_boundary();
        // 3 and 4 have 1% support < 10% threshold -> pruned from the tree.
        assert_eq!(mcps.distinct_items(), 2);
        assert!(mcps.frequent_items().contains(&1));
        assert!(!mcps.frequent_items().contains(&3));
    }

    #[test]
    fn post_bootstrap_insertions_filter_to_frequent_items() {
        let mut mcps = McpsTree::new(config(0.05, 0.0));
        for _ in 0..100 {
            mcps.insert(&[1, 2]);
        }
        mcps.on_window_boundary();
        // Item 7 is new: it is counted by the AMC but not admitted into the
        // tree until it becomes frequent at a boundary.
        for _ in 0..3 {
            mcps.insert(&[1, 7]);
        }
        assert_eq!(mcps.distinct_items(), 2);
        assert!(mcps.item_estimate(7) > 0.0);
        // After enough occurrences and a boundary, 7 is admitted.
        for _ in 0..50 {
            mcps.insert(&[1, 7]);
        }
        mcps.on_window_boundary();
        assert!(mcps.frequent_items().contains(&7));
        for _ in 0..10 {
            mcps.insert(&[1, 7]);
        }
        let mined = mcps.mine_with_support(5.0, 2);
        assert!(mined.iter().any(|r| r.items == vec![1, 7]));
    }

    #[test]
    fn admission_threshold_counts_rows_not_item_observations() {
        // An item in 0.2% of the rows clears a 0.1% support fraction however
        // many attributes a row has; measured against the AMC's total (one
        // observation per attribute) it stopped clearing it at three.
        for attributes in [1usize, 3, 6] {
            let mut mcps = McpsTree::new(config(0.001, 0.0));
            let row = |i: usize, first: Item| -> Vec<Item> {
                std::iter::once(first)
                    .chain((1..attributes).map(|a| (100 * a + i % 5) as Item))
                    .collect()
            };
            for i in 0..5_000 {
                mcps.insert(&row(i, (i % 5) as Item));
            }
            mcps.on_window_boundary();
            for i in 0..5_000 {
                let first = if i % 250 == 0 { 77 } else { (i % 5) as Item };
                mcps.insert(&row(i, first));
            }
            mcps.on_window_boundary();
            assert!((mcps.total_weight() - 10_000.0).abs() < 1e-9);
            assert!((mcps.item_estimate(77) - 20.0).abs() < 1e-9);
            assert!(
                mcps.frequent_items().contains(&77),
                "not admitted with {attributes} attributes per row"
            );
        }
    }

    #[test]
    fn mining_finds_frequent_combination() {
        let mut mcps = McpsTree::new(config(0.01, 0.0));
        for _ in 0..500 {
            mcps.insert(&[10, 20]);
        }
        for i in 0..100 {
            mcps.insert(&[30, 40 + (i % 5)]);
        }
        mcps.on_window_boundary();
        for _ in 0..500 {
            mcps.insert(&[10, 20]);
        }
        let mined = mcps.mine(3);
        let pair = mined.iter().find(|r| r.items == vec![10, 20]);
        assert!(pair.is_some(), "mined = {mined:?}");
        assert!(pair.unwrap().support >= 500.0);
    }

    #[test]
    fn decay_ages_out_stale_patterns() {
        let mut mcps = McpsTree::new(config(0.05, 0.5));
        for _ in 0..1000 {
            mcps.insert(&[1, 2]);
        }
        // Several boundaries with no new occurrences: support halves each time.
        for _ in 0..6 {
            mcps.on_window_boundary();
        }
        for _ in 0..200 {
            mcps.insert(&[3, 4]);
        }
        mcps.on_window_boundary();
        // Items 3 and 4 are now in the frequent set; subsequent insertions
        // build up their pattern in the tree while the old pattern keeps
        // decaying toward zero.
        for _ in 0..200 {
            mcps.insert(&[3, 4]);
        }
        let mined = mcps.mine_with_support(50.0, 2);
        assert!(mined.iter().any(|r| r.items == vec![3, 4]));
        assert!(!mined.iter().any(|r| r.items == vec![1, 2]));
    }

    #[test]
    fn stays_much_smaller_than_cps_on_high_cardinality_stream() {
        // Appendix D: the CPS-tree stores every item ever observed, the
        // M-CPS-tree only currently frequent ones.
        let mut rng = SplitMix64::new(3);
        let zipf = Zipf::new(20_000, 1.05);
        let mut mcps = McpsTree::new(config(0.001, 0.01));
        let mut cps = CpsTree::new(0.01);
        for i in 0..50_000 {
            let a = zipf.sample(&mut rng) as Item;
            let b = 20_000 + zipf.sample(&mut rng) as Item;
            mcps.insert(&[a, b]);
            cps.insert(&[a, b]);
            if i % 10_000 == 9_999 {
                mcps.on_window_boundary();
                cps.on_window_boundary();
            }
        }
        assert!(
            mcps.node_count() * 2 < cps.tree().node_count(),
            "M-CPS nodes = {}, CPS nodes = {}",
            mcps.node_count(),
            cps.tree().node_count()
        );
        assert!(mcps.distinct_items() < cps.tree().distinct_items());
    }

    #[test]
    #[should_panic(expected = "support fraction must be in (0, 1)")]
    fn rejects_bad_support() {
        let _ = McpsTree::new(config(0.0, 0.1));
    }
}
