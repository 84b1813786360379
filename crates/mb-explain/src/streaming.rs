//! Streaming explanation (Section 5.3, right half of Figure 2).
//!
//! The streaming explainer maintains, for each class (outlier / inlier), one
//! **M-CPS-tree** of attribute combinations restricted to currently frequent
//! items, and reads single attribute-value frequencies from the **AMC
//! sketch** that tree carries (the sketch is what decides admission, so there
//! is one per class, not one here and one there).
//!
//! When a labeled point arrives, its attribute items are inserted into the
//! tree of its class. At each window boundary all counts are decayed and the
//! trees are pruned/re-sorted. Explanations are produced *on demand* (the
//! operator acts as a streaming view maintainer), in Algorithm 2's order:
//!
//! 1. supported single values come from the outlier AMC and are scored
//!    against the inlier AMC; only values whose own risk ratio passes go on;
//! 2. the outlier tree (small: outliers are ~1% of the stream) is mined
//!    restricted to those values, with the risk-ratio ceiling inside
//!    FP-growth;
//! 3. the inlier tree is never mined. It is walked once, each stored path
//!    adding its weight to exactly the combinations of step 2 it contains —
//!    and not walked at all when step 2 produced none.
//!
//! Steps 2 and 3 are [`crate::batch`]'s stages 2 and 3, the same function. A
//! snapshot therefore costs what the outliers cost plus one pass over the
//! inlier tree's nodes, not what mining the inliers would cost.

use crate::batch::explain_combinations;
use crate::risk_ratio::{Explanation, ExplanationStats};
use crate::ExplanationConfig;
use mb_fpgrowth::mcps::{McpsConfig, McpsTree};
use mb_fpgrowth::Item;

/// Configuration for the streaming explainer.
#[derive(Debug, Clone)]
pub struct StreamingExplainerConfig {
    /// Thresholds shared with the batch explainer.
    pub explanation: ExplanationConfig,
    /// Per-window decay rate applied to all sketches and trees.
    pub decay_rate: f64,
    /// Stable size of the AMC sketches (paper default 10K).
    pub amc_stable_size: usize,
    /// AMC maintenance period in observations.
    pub amc_maintenance_period: u64,
}

impl Default for StreamingExplainerConfig {
    fn default() -> Self {
        StreamingExplainerConfig {
            explanation: ExplanationConfig::default(),
            decay_rate: 0.01,
            amc_stable_size: 10_000,
            amc_maintenance_period: 10_000,
        }
    }
}

/// The MDP streaming explanation operator.
#[derive(Debug, Clone)]
pub struct StreamingExplainer {
    config: StreamingExplainerConfig,
    outlier_tree: McpsTree,
    inlier_tree: McpsTree,
}

impl StreamingExplainer {
    /// Create a streaming explainer.
    pub fn new(config: StreamingExplainerConfig) -> Self {
        let tree_config = McpsConfig {
            min_support_fraction: config.explanation.min_support,
            decay_rate: config.decay_rate,
            amc_stable_size: config.amc_stable_size,
            amc_maintenance_period: config.amc_maintenance_period,
        };
        StreamingExplainer {
            outlier_tree: McpsTree::new(tree_config.clone()),
            inlier_tree: McpsTree::new(tree_config),
            config,
        }
    }

    /// Create a streaming explainer with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(StreamingExplainerConfig::default())
    }

    /// Observe one labeled point's attribute items.
    pub fn observe(&mut self, items: &[Item], is_outlier: bool) {
        if is_outlier {
            self.outlier_tree.insert(items);
        } else {
            self.inlier_tree.insert(items);
        }
    }

    /// Close the current window: decay every sketch/tree and prune the trees
    /// to currently frequent items.
    pub fn on_window_boundary(&mut self) {
        self.outlier_tree.on_window_boundary();
        self.inlier_tree.on_window_boundary();
    }

    /// Current decayed number of outlier points observed.
    pub fn outlier_count(&self) -> f64 {
        self.outlier_tree.total_weight()
    }

    /// Current decayed number of inlier points observed.
    pub(crate) fn inlier_count(&self) -> f64 {
        self.inlier_tree.total_weight()
    }

    /// Produce the current explanations on demand, in Algorithm 2's order.
    ///
    /// Single attribute values are explained directly from the AMC sketches
    /// (which adapt immediately to newly frequent items). Only the values
    /// whose own risk ratio passes go on: the outlier M-CPS-tree — whose item
    /// set lags by one window boundary by design (Appendix B) — is mined
    /// restricted to them, and the inlier tree is asked for the counts of the
    /// combinations that produced, nothing else.
    pub fn explain(&self) -> Vec<Explanation> {
        self.explain_over(|visit| self.inlier_tree.for_each_path(visit))
    }

    /// [`explain`](Self::explain) with the inlier tree's walk passed in, so
    /// tests can see whether (and how often) it is asked for.
    fn explain_over(
        &self,
        inlier_paths: impl FnOnce(&mut dyn FnMut(&[Item], f64)),
    ) -> Vec<Explanation> {
        let (total_outliers, total_inliers) = (self.outlier_count(), self.inlier_count());
        if total_outliers <= 0.0 {
            return Vec::new();
        }
        let config = &self.config.explanation;
        let min_outlier_count = config.min_outlier_count(total_outliers);

        // Stage 1: supported singles from the outlier AMC, scored against the
        // inlier AMC.
        let mut explanations = Vec::new();
        for (item, count) in self.outlier_tree.items_above(min_outlier_count) {
            let inlier_count = self.inlier_tree.item_estimate(item);
            let stats =
                ExplanationStats::from_counts(count, inlier_count, total_outliers, total_inliers);
            if stats.risk_ratio >= config.min_risk_ratio {
                explanations.push(Explanation::new(vec![item], stats));
            }
        }
        let surviving: Vec<Item> = explanations.iter().map(|e| e.items[0]).collect();

        // Stages 2 and 3, shared with the batch explainer. The tree's own
        // single counts lag the AMC's, so its singles are not reported.
        explanations.extend(explain_combinations(
            config,
            &surviving,
            (total_outliers, total_inliers),
            true,
            |visit| self.outlier_tree.for_each_path(visit),
            inlier_paths,
            |_| None,
        ));
        explanations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::risk_ratio::rank_explanations;
    use mb_stats::rand_ext::{SplitMix64, Zipf};

    fn config(min_support: f64, min_risk_ratio: f64, decay: f64) -> StreamingExplainerConfig {
        StreamingExplainerConfig {
            explanation: ExplanationConfig::new(min_support, min_risk_ratio),
            decay_rate: decay,
            amc_stable_size: 1_000,
            amc_maintenance_period: 1_000,
        }
    }

    impl StreamingExplainer {
        /// The read path this module had before it counted instead of mined:
        /// every supported combination of the outlier tree, whatever its
        /// members' own risk ratios; FP-growth over the whole inlier tree at
        /// zero support; a linear join of the two. Kept as the reference.
        fn oracle_explain(&self) -> Vec<Explanation> {
            if self.outlier_count() <= 0.0 {
                return Vec::new();
            }
            let config = &self.config.explanation;
            let min_outlier_count = config.min_outlier_count(self.outlier_count());
            let mut mined: Vec<mb_fpgrowth::FrequentItemset> = self
                .outlier_tree
                .items_above(min_outlier_count)
                .into_iter()
                .map(|(item, count)| mb_fpgrowth::FrequentItemset::new(vec![item], count))
                .collect();
            mined.extend(
                self.outlier_tree
                    .mine_with_support(min_outlier_count, config.max_combination_size)
                    .into_iter()
                    .filter(|m| m.len() >= 2),
            );
            let inlier_itemsets = self.inlier_tree.mine_with_support(1e-9, usize::MAX);
            let mut explanations = Vec::new();
            for itemset in &mined {
                let ai = if itemset.len() == 1 {
                    self.inlier_tree.item_estimate(itemset.items[0])
                } else {
                    inlier_itemsets
                        .iter()
                        .find(|i| i.items == itemset.items)
                        .map_or(0.0, |i| i.support)
                };
                let stats = ExplanationStats::from_counts(
                    itemset.support,
                    ai,
                    self.outlier_count(),
                    self.inlier_count(),
                );
                if stats.risk_ratio >= config.min_risk_ratio {
                    explanations.push(Explanation::new(itemset.items.clone(), stats));
                }
            }
            explanations
        }
    }

    /// What Algorithm 2's order keeps of the reference's answer: every single,
    /// and the combinations all of whose members are reported singles.
    fn with_passing_members(reference: Vec<Explanation>) -> Vec<Explanation> {
        let singles: Vec<Item> = reference
            .iter()
            .filter(|e| e.items.len() == 1)
            .map(|e| e.items[0])
            .collect();
        reference
            .into_iter()
            .filter(|e| e.items.iter().all(|item| singles.contains(item)))
            .collect()
    }

    /// Same explanations as sets, every statistic within 1e-9.
    fn assert_same_explanations(mut a: Vec<Explanation>, mut b: Vec<Explanation>) {
        a.sort_by(|x, y| x.items.cmp(&y.items));
        b.sort_by(|x, y| x.items.cmp(&y.items));
        let items = |v: &[Explanation]| v.iter().map(|e| e.items.clone()).collect::<Vec<_>>();
        assert_eq!(items(&a), items(&b));
        let close = |x: f64, y: f64| (x - y).abs() < 1e-9 || x == y;
        for (x, y) in a.iter().zip(&b) {
            assert!(
                close(x.stats.outlier_count, y.stats.outlier_count)
                    && close(x.stats.inlier_count, y.stats.inlier_count)
                    && close(x.stats.outlier_support, y.stats.outlier_support)
                    && close(x.stats.risk_ratio, y.stats.risk_ratio),
                "statistics differ: {x:?} vs {y:?}"
            );
        }
    }

    /// A labeled stream: `attributes` columns (item = 1000·column + value),
    /// values Zipf- or uniformly distributed, outliers drawn six times as
    /// often as inliers to value 0 of each column, so single values and
    /// combinations of them stand out without being absent from the inliers.
    fn generated_stream(
        seed: u64,
        rows: usize,
        attributes: usize,
        zipf: bool,
        outlier_rate: f64,
    ) -> Vec<(Vec<Item>, bool)> {
        let mut rng = SplitMix64::new(seed);
        let skewed = Zipf::new(40, 1.1);
        (0..rows)
            .map(|_| {
                let is_outlier = rng.next_f64() < outlier_rate;
                let items = (0..attributes)
                    .map(|column| {
                        let value = if rng.next_f64() < if is_outlier { 0.6 } else { 0.1 } {
                            0
                        } else if zipf {
                            skewed.sample(&mut rng)
                        } else {
                            rng.next_below(40)
                        };
                        (1000 * column + value) as Item
                    })
                    .collect();
                (items, is_outlier)
            })
            .collect()
    }

    /// Feed `stream` with `boundaries` evenly spaced window boundaries.
    fn feed(explainer: &mut StreamingExplainer, stream: &[(Vec<Item>, bool)], boundaries: usize) {
        let window = stream.len() / (boundaries + 1);
        for (i, (items, is_outlier)) in stream.iter().enumerate() {
            explainer.observe(items, *is_outlier);
            if boundaries > 0 && (i + 1) % window == 0 && (i + 1) / window <= boundaries {
                explainer.on_window_boundary();
            }
        }
    }

    mod read_path_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            // Mining only the surviving outlier values and counting their
            // combinations in the inlier tree returns what mining both whole
            // trees and joining returned, less the combinations with a member
            // whose own risk ratio fails.
            #[test]
            fn explanations_equal_the_mined_ones_with_passing_members(
                seed in 0u64..u64::MAX,
                attributes in 1usize..7,
                shape in 0usize..2,
                outlier_pct in 0usize..6,
                boundaries in 0usize..4,
                decay_choice in 0usize..3,
            ) {
                let decay = [0.0, 0.01, 0.5][decay_choice];
                let outlier_rate = outlier_pct as f64 / 100.0;
                let stream = generated_stream(seed, 2_000, attributes, shape == 0, outlier_rate);
                let mut explainer = StreamingExplainer::new(config(0.02, 2.0, decay));
                feed(&mut explainer, &stream, boundaries);
                assert_same_explanations(
                    explainer.explain(),
                    with_passing_members(explainer.oracle_explain()),
                );
            }
        }
    }

    #[test]
    fn the_trees_sketches_hold_what_a_separate_pair_held() {
        // The explainer used to keep an AMC per class beside the one inside
        // each class's tree. Rebuilt here, that pair — fed and decayed
        // alongside — agrees with the trees' own sketches on every item.
        use mb_sketch::amc::{AmcSketch, MaintenancePolicy};
        use mb_sketch::HeavyHitterSketch;
        type Pair = [AmcSketch<Item>; 2];
        let cfg = config(0.02, 2.0, 0.25);
        let pair = || -> Pair {
            [(); 2].map(|()| {
                AmcSketch::with_policy(
                    cfg.amc_stable_size,
                    MaintenancePolicy::EveryNObservations(cfg.amc_maintenance_period),
                )
            })
        };
        let stream = generated_stream(9, 6_000, 5, true, 0.04);
        let run = |rows: &[(Vec<Item>, bool)]| -> (StreamingExplainer, Pair) {
            let mut explainer = StreamingExplainer::new(cfg.clone());
            let mut amcs = pair();
            for (i, (items, is_outlier)) in rows.iter().enumerate() {
                explainer.observe(items, *is_outlier);
                for &item in items {
                    amcs[usize::from(!*is_outlier)].observe(item);
                }
                if (i + 1) % 1_000 == 0 {
                    explainer.on_window_boundary();
                    amcs.iter_mut().for_each(|amc| amc.decay(1.0 - cfg.decay_rate));
                }
            }
            (explainer, amcs)
        };
        let (explainer, [outlier_amc, inlier_amc]) = run(&stream);

        for (tree, amc) in [
            (&explainer.outlier_tree, &outlier_amc),
            (&explainer.inlier_tree, &inlier_amc),
        ] {
            assert!(amc.tracked_items() > 100);
            for (item, count) in amc.entries() {
                assert_eq!(tree.item_estimate(item), count);
            }
            let sorted = |mut v: Vec<(Item, f64)>| {
                v.sort_by_key(|&(item, _)| item);
                v
            };
            assert_eq!(sorted(tree.items_above(3.0)), sorted(amc.items_above(3.0)));
        }
    }

    #[test]
    fn one_undecayed_window_explains_like_the_batch_explainer() {
        // No boundary: the trees still admit everything; AMCs under their
        // stable size: exact counts. Unit weights, so even the sums are exact.
        for (seed, attributes, zipf) in [(1, 3, true), (2, 6, true), (3, 4, false)] {
            let stream = generated_stream(seed, 4_000, attributes, zipf, 0.03);
            let mut streaming = StreamingExplainer::new(config(0.02, 2.0, 0.0));
            feed(&mut streaming, &stream, 0);
            let rows = |outlier: bool| -> Vec<Vec<Item>> {
                stream
                    .iter()
                    .filter(|(_, is_outlier)| *is_outlier == outlier)
                    .map(|(items, _)| items.clone())
                    .collect()
            };
            let batch = crate::batch::BatchExplainer::new(ExplanationConfig::new(0.02, 2.0))
                .explain(&rows(true), &rows(false));
            assert!(batch.iter().any(|e| e.items.len() >= 2));
            let by_items = |mut v: Vec<Explanation>| {
                v.sort_by(|x, y| x.items.cmp(&y.items));
                v
            };
            assert_eq!(by_items(streaming.explain()), by_items(batch));
        }
    }

    #[test]
    fn inlier_tree_is_walked_only_for_combinations() {
        let walks = |explainer: &StreamingExplainer| {
            let mut walks = 0;
            let explanations = explainer.explain_over(|visit| {
                walks += 1;
                explainer.inlier_tree.for_each_path(visit);
            });
            assert_same_explanations(explanations, explainer.explain());
            walks
        };
        // No outliers at all.
        let mut explainer = StreamingExplainer::new(config(0.05, 3.0, 0.0));
        for i in 0..500 {
            explainer.observe(&[i % 7, 1000 + i % 3], false);
        }
        assert_eq!(walks(&explainer), 0);
        // One attribute per row: singles only, nothing to combine.
        let mut explainer = StreamingExplainer::new(config(0.05, 3.0, 0.0));
        for (items, is_outlier) in generated_stream(5, 2_000, 1, true, 0.05) {
            explainer.observe(&items, is_outlier);
        }
        assert!(!explainer.explain().is_empty());
        assert_eq!(walks(&explainer), 0);
        // Outliers whose values never repeat: no combination has support.
        let mut explainer = StreamingExplainer::new(config(0.2, 3.0, 0.0));
        for i in 0..1_000 {
            explainer.observe(&[i, 10_000 + i], i % 50 == 0);
        }
        assert_eq!(walks(&explainer), 0);
        // And once, not once per combination, when there are some.
        let mut explainer = StreamingExplainer::new(config(0.02, 2.0, 0.0));
        for (items, is_outlier) in generated_stream(6, 3_000, 4, true, 0.05) {
            explainer.observe(&items, is_outlier);
        }
        assert!(explainer.explain().iter().any(|e| e.items.len() >= 2));
        assert_eq!(walks(&explainer), 1);
    }

    #[test]
    fn no_outliers_no_explanations() {
        let mut explainer = StreamingExplainer::with_defaults();
        for _ in 0..100 {
            explainer.observe(&[1, 2], false);
        }
        assert!(explainer.explain().is_empty());
    }

    #[test]
    fn finds_streaming_planted_combination() {
        let mut explainer = StreamingExplainer::new(config(0.05, 3.0, 0.0));
        let mut rng = SplitMix64::new(1);
        for i in 0..20_000 {
            if i % 100 == 0 {
                // 1% outliers, 80% of which carry the planted pair (1, 2).
                if rng.next_f64() < 0.8 {
                    explainer.observe(&[1, 2, 100 + ((i / 100) % 10) as Item], true);
                } else {
                    explainer.observe(&[50, 60, 100 + ((i / 100) % 10) as Item], true);
                }
            } else {
                explainer.observe(
                    &[
                        10 + (rng.next_below(5)) as Item,
                        20 + (rng.next_below(7)) as Item,
                        100 + (i % 10) as Item,
                    ],
                    false,
                );
            }
            if i % 5_000 == 4_999 {
                explainer.on_window_boundary();
            }
        }
        let mut explanations = explainer.explain();
        rank_explanations(&mut explanations);
        assert!(explanations.iter().any(|e| e.items == vec![1]));
        assert!(explanations.iter().any(|e| e.items == vec![2]));
        assert!(
            explanations.iter().any(|e| e.items == vec![1, 2]),
            "pair missing from {explanations:?}"
        );
        // Attributes shared by both classes must not be reported.
        assert!(explanations
            .iter()
            .all(|e| e.items.iter().all(|&i| i < 100)));
    }

    #[test]
    fn common_attributes_have_low_risk_ratio_and_are_filtered() {
        let mut explainer = StreamingExplainer::new(config(0.01, 3.0, 0.0));
        for i in 0..10_000 {
            let shared = 7;
            if i % 100 == 0 {
                explainer.observe(&[shared, 1], true);
            } else {
                explainer.observe(&[shared, 2], false);
            }
        }
        let explanations = explainer.explain();
        assert!(explanations.iter().any(|e| e.items == vec![1]));
        assert!(!explanations.iter().any(|e| e.items == vec![7]));
    }

    #[test]
    fn decay_ages_out_old_explanations() {
        let mut explainer = StreamingExplainer::new(config(0.05, 3.0, 0.5));
        // Old behaviour: outliers carry item 1.
        for _ in 0..1_000 {
            explainer.observe(&[1], true);
            for _ in 0..10 {
                explainer.observe(&[30], false);
            }
        }
        // Many boundaries with new behaviour: outliers now carry item 2.
        for _ in 0..8 {
            explainer.on_window_boundary();
            for _ in 0..200 {
                explainer.observe(&[2], true);
                for _ in 0..10 {
                    explainer.observe(&[30], false);
                }
            }
        }
        let explanations = explainer.explain();
        let support_of = |items: &[Item]| {
            explanations
                .iter()
                .find(|e| e.items == items)
                .map(|e| e.stats.outlier_count)
                .unwrap_or(0.0)
        };
        assert!(
            support_of(&[2]) > support_of(&[1]),
            "new explanation should dominate: {explanations:?}"
        );
    }

    #[test]
    fn counts_decay_at_boundaries() {
        let mut explainer = StreamingExplainer::new(config(0.01, 3.0, 0.5));
        for _ in 0..100 {
            explainer.observe(&[1], true);
            explainer.observe(&[2], false);
        }
        assert!((explainer.outlier_count() - 100.0).abs() < 1e-9);
        explainer.on_window_boundary();
        assert!((explainer.outlier_count() - 50.0).abs() < 1e-9);
        assert!((explainer.inlier_count() - 50.0).abs() < 1e-9);
    }
}
