#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Minimum Covariance Determinant estimation via FastMCD (Section 4.1,
//! Appendix A) and Mahalanobis-distance scoring for multivariate metrics.
//!
//! The exact MCD — the `h`-point subset whose covariance matrix has minimum
//! determinant — is combinatorial, so MacroBase adopts the FastMCD iterative
//! approximation [Rousseeuw & Van Driessen 1999]: from an elemental start
//! (`d + 1` random rows), repeatedly apply *C-steps* (re-fit location and
//! scatter on the `h` rows with the smallest Mahalanobis distance under the
//! current fit); the determinant never increases, so the iteration converges.
//!
//! What makes FastMCD fast is where those C-steps run, and training follows
//! the same schedule:
//!
//! 1. **Starts converge on a nested subsample.** When the sample is larger
//!    than about 1,500 rows, every one of the `FastMcdConfig::num_starts`
//!    elemental starts iterates on every `stride`-th row only (a
//!    deterministic strided pick — no RNG). Starts share nothing, so they
//!    scatter as tasks on [`mb_pool`], each with an RNG split from the seed
//!    by start index (`SplitMix64::split`).
//! 2. **One finalist is polished on the full sample.** Starts are ranked by
//!    covariance log-determinant on the subsample (ties to the lowest start
//!    index) and the best is carried to all `n` rows and iterated to
//!    convergence there. A finalist that fails on the full sample falls
//!    through to the next-ranked one. A sample small enough to be its own
//!    subsample skips this: its best start already converged on every row.
//!
//! A C-step is one Mahalanobis pass, one selection of the `h` smallest
//! `(d², row)` pairs, one walk in row order collecting the chosen rows, and
//! one covariance fit with exactly one O(d³) factorization (`SpdFactors`),
//! from which the next inverse and the log-determinant both derive:
//!
//! - **The distance pass** is the crate's one distance kernel (chunks of
//!   rows on the pool). It scores four rows per step, one per lane, and each
//!   lane keeps the row-at-a-time operation order, so a distance has the
//!   same bits whichever rows share its step. Scoring
//!   ([`Estimator::score_batch_flat`] and
//!   `McdEstimator::squared_mahalanobis`) runs the same kernel.
//! - **The selection** maps each `d²` to a `u64` whose integer order is
//!   `f64::total_cmp`'s and runs `select_nth_unstable` on those keys — O(n),
//!   not a sort. The row-order walk takes every row keyed below the cut,
//!   then the lowest rows keyed at it, so ties go to the lowest rows.
//! - **The covariance fit** sums fixed-size chunks of the subset on the
//!   pool, partial sums merged in chunk order, four rows per step into each
//!   sum in row order.
//!
//! Once a C-step loop's scratch (distances, keys, the selected subset) has
//! grown to the sample, a step allocates nothing of the sample's size: the
//! subset buffers are swapped, not rebuilt. A C-step loop stops when the
//! log-determinant moves by less than `FastMcdConfig::tolerance` or —
//! FastMCD's exact criterion — when a step selects the subset the previous
//! step selected, a fixed point.
//!
//! Everything reads the sample as one row-major `&[f64]`, the only layout
//! [`Estimator::train_flat`] takes. Per-row arithmetic, the subsample, the selection, the
//! covariance chunking and the ranking are all independent of the schedule,
//! so a fit is a pure function of `(rows, config)`: bit-identical at any
//! thread count and pool size.

use crate::matrix::{center_block, covariance_of_rows, Matrix, SpdFactors, LANES};
use crate::rand_ext::SplitMix64;
use crate::{Estimator, Result, StatsError};
use mb_pool::Pool;

/// Minimum rows per task when the distance pass fans out on the shared
/// work-stealing pool. Below this (per chunk) the arithmetic is cheaper
/// than the queue round-trip, so the pass runs inline on the caller.
const DISTANCE_GRAIN: usize = 2048;

/// Rows in the nested subsample the starts converge on — the size FastMCD
/// merges its subsets to before any candidate sees the full data.
const NESTED_ROWS: usize = 1_500;

/// The subsample widens to this many rows per fitted parameter of a row
/// (`d + 1`), so its `h`-subset at the default support fraction holds at
/// least five rows per parameter — FastMCD's `n > 5d` rule of thumb. It
/// binds only above 149 dimensions.
const NESTED_ROWS_PER_PARAMETER: usize = 10;

/// A sample as a row-major buffer of `dim`-length rows.
#[derive(Clone, Copy)]
struct Rows<'a> {
    flat: &'a [f64],
    dim: usize,
}

impl<'a> Rows<'a> {
    fn len(&self) -> usize {
        self.flat.len() / self.dim
    }

    fn row(&self, index: usize) -> &'a [f64] {
        &self.flat[index * self.dim..(index + 1) * self.dim]
    }
}

/// Squared Mahalanobis distances under `(mean, inv)` of the rows
/// `row_at(first..first + out.len())`, into `out`: the one distance kernel,
/// behind the C-step pass, [`Estimator::score_batch_flat`] and
/// [`McdEstimator::squared_mahalanobis`].
///
/// It scores [`LANES`] rows per step, each in a lane of its own that keeps
/// the row-at-a-time order to the operation: `c[j] = r[j] - m[j]`; for each
/// `i`, `t` folds `inv[i][j] * c[j]` in `j` order from `-0.0` (where
/// `f64: Sum` starts); `total` folds `c[i] * t` from `0.0`. No lane reads
/// another, so every distance has the bits of scoring its row alone. A last
/// block short of `LANES` rows is padded with zero lanes whose results are
/// dropped. `centered` is scratch the caller reuses across calls.
fn squared_distances<'a>(
    inv: &Matrix,
    mean: &[f64],
    row_at: impl Fn(usize) -> &'a [f64],
    first: usize,
    out: &mut [f64],
    centered: &mut Vec<[f64; LANES]>,
) {
    for (block, slots) in out.chunks_mut(LANES).enumerate() {
        center_block(centered, mean, &row_at, first + block * LANES, slots.len());
        let mut total = [0.0; LANES];
        for (i, ci) in centered.iter().enumerate() {
            let mut t = [-0.0; LANES];
            for (a, cj) in inv.row(i).iter().zip(centered.iter()) {
                for lane in 0..LANES {
                    t[lane] += a * cj[lane];
                }
            }
            for lane in 0..LANES {
                total[lane] += ci[lane] * t[lane];
            }
        }
        for (slot, d2) in slots.iter_mut().zip(total) {
            *slot = d2;
        }
    }
}

/// Fill `distances[i]` with the squared distance of `row_at(i)` under
/// `(mean, inv)`, scattering chunks onto `pool` when there are enough rows
/// to amortize submission. Scratch is per *chunk*, not per row, and every
/// distance is bit-identical to scoring its row alone, so the results do
/// not depend on the thread count.
fn distance_pass<'a>(
    pool: &Pool,
    mean: &[f64],
    inv: &Matrix,
    row_at: impl Fn(usize) -> &'a [f64] + Sync,
    distances: &mut [f64],
) {
    pool.parallel_for(distances, DISTANCE_GRAIN, |start, chunk| {
        squared_distances(inv, mean, &row_at, start, chunk, &mut Vec::new());
    });
}

/// `d2` as a `u64` whose integer order is `f64::total_cmp`'s order: the
/// bit transform `total_cmp` makes, with the sign bit flipped so negative
/// values sort below positive ones unsigned. `-0.0` keys below `+0.0`.
fn selection_key(d2: f64) -> u64 {
    let bits = d2.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// The `h` rows with the smallest `(d², row index)` into `subset`, in
/// ascending row order. `select_nth_unstable` over the integer keys of
/// `distances` (a copy in `keys`) finds the cut in O(n); one walk in row
/// order then takes every row keyed below the cut and the first rows keyed
/// at it until `h` are taken — so ties at the cut go to the lowest rows,
/// the set a stable sort by `d²` would put first, and the subset comes out
/// in the order the covariance reads memory. `keys` and `subset` are
/// reused: nothing is allocated once they have grown to the sample.
fn select_smallest(distances: &[f64], h: usize, keys: &mut Vec<u64>, subset: &mut Vec<usize>) {
    debug_assert!((1..=distances.len()).contains(&h));
    keys.clear();
    keys.extend(distances.iter().map(|&d2| selection_key(d2)));
    let (lower, &mut cut, _) = keys.select_nth_unstable(h - 1);
    let mut ties = h - lower.iter().filter(|&&key| key < cut).count();
    subset.clear();
    for (row, &d2) in distances.iter().enumerate() {
        let key = selection_key(d2);
        if key < cut || (key == cut && ties > 0) {
            ties -= usize::from(key == cut);
            subset.push(row);
        }
    }
    debug_assert_eq!(subset.len(), h);
}

/// Configuration for the FastMCD estimator.
#[derive(Debug, Clone)]
pub(crate) struct FastMcdConfig {
    /// Fraction of the sample used for the robust subset `h` (`0.5..=1.0`).
    /// The paper (and the reference implementation) default to `0.5`, the
    /// maximum-breakdown choice.
    pub support_fraction: f64,
    /// Number of random elemental starts. More starts improve the chance of
    /// escaping a bad initial subset; FastMCD's authors recommend a handful.
    pub num_starts: usize,
    /// Maximum number of C-steps per C-step loop (each start, and the
    /// full-sample polish).
    pub max_iterations: usize,
    /// Convergence threshold on the decrease of the covariance log-determinant.
    pub tolerance: f64,
    /// Seed for the internal subset-selection RNG (deterministic training).
    pub seed: u64,
}

impl Default for FastMcdConfig {
    fn default() -> Self {
        FastMcdConfig {
            support_fraction: 0.5,
            num_starts: 4,
            max_iterations: 50,
            tolerance: 1e-7,
            seed: 0xC0FFEE,
        }
    }
}

/// FastMCD robust multivariate location/scatter estimator with
/// Mahalanobis-distance scoring.
#[derive(Debug, Clone)]
pub struct McdEstimator {
    config: FastMcdConfig,
    mean: Vec<f64>,
    covariance: Option<Matrix>,
    inverse_covariance: Option<Matrix>,
}

impl Default for McdEstimator {
    fn default() -> Self {
        Self::new(FastMcdConfig::default())
    }
}

/// A location/scatter fit of some subset: the covariance (ridged if it had
/// to be), its factors, and the log-determinant those factors give.
struct Fit {
    logdet: f64,
    mean: Vec<f64>,
    cov: Matrix,
    factors: SpdFactors,
}

/// Scratch one C-step loop reuses across its steps: the distances, their
/// selection keys, and the subset a step selects.
#[derive(Default)]
struct Scratch {
    distances: Vec<f64>,
    keys: Vec<u64>,
    selected: Vec<usize>,
}

/// `count` distinct indices below `n`, drawn by a partial Fisher–Yates
/// shuffle over a *virtual* `0..n`: only the displaced positions are
/// stored, so a draw costs O(count²) whatever `n` is (`count` is `d + 1`).
fn elemental_start(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<usize> {
    let mut displaced: Vec<(usize, usize)> = Vec::with_capacity(count);
    let value_at = |displaced: &[(usize, usize)], position: usize| {
        displaced
            .iter()
            .rev()
            .find(|&&(p, _)| p == position)
            .map_or(position, |&(_, value)| value)
    };
    (0..count)
        .map(|i| {
            let j = i + rng.next_below(n - i);
            let (at_i, at_j) = (value_at(&displaced, i), value_at(&displaced, j));
            // Swap positions i and j; i is never read again.
            displaced.push((j, at_i));
            at_j
        })
        .collect()
}

/// Size of the robust subset for `n` rows of `dim` dimensions.
fn support_size(n: usize, dim: usize, support_fraction: f64) -> usize {
    ((n as f64 * support_fraction).ceil() as usize)
        .max(dim + 1)
        .min(n)
}

impl McdEstimator {
    /// Create an untrained estimator with the given configuration.
    pub(crate) fn new(config: FastMcdConfig) -> Self {
        McdEstimator {
            config,
            mean: Vec::new(),
            covariance: None,
            inverse_covariance: None,
        }
    }

    /// Create an untrained estimator with default configuration.
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The robust location estimate, if trained.
    pub fn location(&self) -> Option<&[f64]> {
        self.covariance.as_ref().map(|_| self.mean.as_slice())
    }

    /// The inverse scatter matrix, if trained (used by scoring).
    pub fn inverse_scatter(&self) -> Option<&Matrix> {
        self.inverse_covariance.as_ref()
    }

    /// Squared Mahalanobis distance of `x` from the fitted distribution.
    pub(crate) fn squared_mahalanobis(&self, x: &[f64]) -> Result<f64> {
        let inv = self
            .inverse_covariance
            .as_ref()
            .ok_or(StatsError::NotTrained)?;
        if x.len() != self.mean.len() {
            return Err(StatsError::DimensionMismatch {
                expected: self.mean.len(),
                actual: x.len(),
            });
        }
        let mut d2 = 0.0;
        squared_distances(
            inv,
            &self.mean,
            |_| x,
            0,
            std::slice::from_mut(&mut d2),
            &mut Vec::new(),
        );
        Ok(d2.max(0.0))
    }

    /// Mahalanobis distance (square root of [`squared_mahalanobis`]).
    ///
    /// [`squared_mahalanobis`]: McdEstimator::squared_mahalanobis
    pub(crate) fn mahalanobis(&self, x: &[f64]) -> Result<f64> {
        Ok(self.squared_mahalanobis(x)?.sqrt())
    }

    /// Fit mean, covariance and covariance factors to the rows selected by
    /// `indices`, visited in that order and read in place, ridge-
    /// regularizing the covariance until it factors. The factors are the
    /// *only* decomposition a C-step performs: the caller derives both the
    /// inverse and the log-determinant from them.
    fn fit_subset(pool: &Pool, rows: Rows<'_>, indices: &[usize]) -> Result<Fit> {
        let (mean, mut cov) =
            covariance_of_rows(pool, rows.dim, indices.len(), |k| rows.row(indices[k]))?;
        // Ridge-regularize until factorable; degenerate subsets (e.g.
        // repeated points) otherwise break the C-step.
        let mut ridge = 1e-9;
        loop {
            match SpdFactors::factor(&cov) {
                Ok(factors) => {
                    return Ok(Fit {
                        logdet: factors.log_abs_determinant(),
                        mean,
                        cov,
                        factors,
                    })
                }
                Err(e) if ridge >= 1e3 => return Err(e),
                Err(_) => {
                    cov.add_diagonal(ridge);
                    ridge *= 10.0;
                }
            }
        }
    }

    /// One C-step: given a fit's inverse scatter, select the `h` rows with
    /// the smallest Mahalanobis distances under it into `scratch.selected`,
    /// in ascending row order. The distance pass fans out across `pool` for
    /// large samples. A NaN distance (a numerically destroyed fit) fails the
    /// step: NaNs have no place in the selection order.
    fn c_step(
        pool: &Pool,
        rows: Rows<'_>,
        mean: &[f64],
        inv: &Matrix,
        h: usize,
        scratch: &mut Scratch,
    ) -> Result<()> {
        scratch.distances.resize(rows.len(), 0.0);
        distance_pass(pool, mean, inv, |i| rows.row(i), &mut scratch.distances);
        if scratch.distances.iter().any(|d2| d2.is_nan()) {
            return Err(StatsError::NonFinite);
        }
        select_smallest(
            &scratch.distances,
            h,
            &mut scratch.keys,
            &mut scratch.selected,
        );
        Ok(())
    }

    /// Iterate C-steps over `rows` from `fit` until the log-determinant
    /// moves by less than the tolerance, a step re-selects the previous
    /// step's subset (a fixed point: the fit cannot change again), or
    /// `max_iterations` is spent. `fit` may come from anywhere — an
    /// elemental subset, or another sample — so its log-determinant is not
    /// comparable and the first step is never the last by tolerance. Any
    /// failure (NaN distances, a subset unfactorable after maximal
    /// ridging) fails the loop.
    fn converge(config: &FastMcdConfig, pool: &Pool, rows: Rows<'_>, mut fit: Fit) -> Result<Fit> {
        let h = support_size(rows.len(), rows.dim, config.support_fraction);
        let mut scratch = Scratch::default();
        let mut subset: Vec<usize> = Vec::new();
        let mut previous_logdet = f64::INFINITY;
        for _ in 0..config.max_iterations {
            let inv = fit.factors.inverse();
            Self::c_step(pool, rows, &fit.mean, &inv, h, &mut scratch)?;
            if scratch.selected == subset {
                break;
            }
            fit = Self::fit_subset(pool, rows, &scratch.selected)?;
            std::mem::swap(&mut subset, &mut scratch.selected);
            if (previous_logdet - fit.logdet).abs() < config.tolerance {
                break;
            }
            previous_logdet = fit.logdet;
        }
        Ok(fit)
    }

    /// One FastMCD start: draw an elemental subset (`d + 1` distinct rows,
    /// 2 when the sample is tiny) with the start-local RNG, fit it, and
    /// iterate C-steps over `rows` to convergence. A failure fails *this
    /// start only*; the caller skips it.
    fn run_start(
        config: &FastMcdConfig,
        pool: &Pool,
        rows: Rows<'_>,
        start_index: usize,
    ) -> Result<Fit> {
        let n = rows.len();
        let mut rng = SplitMix64::new(config.seed).split(start_index as u64);
        let elemental = elemental_start(&mut rng, n, (rows.dim + 1).min(n).max(2));
        let fit = Self::fit_subset(pool, rows, &elemental)?;
        Self::converge(config, pool, rows, fit)
    }

    /// The first of `ranked` that survives `polish`, or the first error met
    /// (`earlier` — a failed start — takes precedence) when none does.
    fn first_viable(
        ranked: Vec<Fit>,
        mut earlier: Option<StatsError>,
        polish: impl Fn(Fit) -> Result<Fit>,
    ) -> Result<Fit> {
        for finalist in ranked {
            match polish(finalist) {
                Ok(fit) => return Ok(fit),
                Err(e) => {
                    earlier.get_or_insert(e);
                }
            }
        }
        Err(earlier.unwrap_or(StatsError::SingularMatrix))
    }

    /// The whole training schedule over a validated sample (module docs):
    /// starts on the nested subsample, scattered on `pool`; a stable rank by
    /// log-determinant; the best start polished on the full sample.
    fn fit(&mut self, pool: &Pool, rows: Rows<'_>) -> Result<()> {
        let (n, dim) = (rows.len(), rows.dim);
        // Need enough points for a non-degenerate covariance of a subset.
        let min_required = (dim + 2).max(4);
        if n < min_required {
            return Err(StatsError::InsufficientData {
                required: min_required,
                provided: n,
            });
        }
        if !(0.5..=1.0).contains(&self.config.support_fraction) {
            return Err(StatsError::InvalidParameter(format!(
                "support_fraction must be in [0.5, 1.0], got {}",
                self.config.support_fraction
            )));
        }
        let config = &self.config;

        // Every `stride`-th row: the rule `BatchClassifier::fit_flat` uses
        // for `training_sample_size`.
        let stride = n.div_ceil(NESTED_ROWS.max(NESTED_ROWS_PER_PARAMETER * (dim + 1)));
        let picked = rows.flat.chunks_exact(dim).step_by(stride);
        let nested: Vec<f64> = picked.flatten().copied().collect();
        let subsample = Rows { flat: &nested, dim };

        let starts: Vec<usize> = (0..config.num_starts.max(1)).collect();
        let mut first_error: Option<StatsError> = None;
        let mut ranked: Vec<Fit> = Vec::with_capacity(starts.len());
        for result in pool.map_vec(starts, |start| Self::run_start(config, pool, subsample, start)) {
            match result {
                Ok(fit) => ranked.push(fit),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        // Stable, so equal log-determinants keep start order: the merge is
        // lowest log-determinant, then lowest start index.
        ranked.sort_by(|a, b| a.logdet.total_cmp(&b.logdet));

        let fit = Self::first_viable(ranked, first_error, |finalist| {
            if stride > 1 {
                Self::converge(config, pool, rows, finalist)
            } else {
                // The starts already converged on the full sample.
                Ok(finalist)
            }
        })?;

        // The winning fit's factors are already the factors of its
        // (ridged-if-needed) covariance: the scoring inverse reuses them
        // instead of decomposing again.
        self.mean = fit.mean;
        self.inverse_covariance = Some(fit.factors.inverse());
        self.covariance = Some(fit.cov);
        Ok(())
    }

    /// [`Estimator::train_flat`] on an explicit pool instead of the
    /// process-wide one. Starts scatter as pool tasks and the full-sample
    /// distance passes fan out on the same pool; the merge is by lowest
    /// covariance log-determinant with ties broken by start index, so the
    /// fit is a pure function of `(sample, config)` — bit-identical at any
    /// thread count, including `Pool::new(1)`.
    ///
    /// A failed start (degenerate beyond ridging, NaN distances) is
    /// skipped, and so is a finalist that fails on the full sample;
    /// training errors only when nothing survives.
    pub(crate) fn train_on_pool(&mut self, pool: &Pool, flat: &[f64], dim: usize) -> Result<()> {
        crate::validate_sample(flat, dim)?;
        self.fit(pool, Rows { flat, dim })
    }
}

impl Estimator for McdEstimator {
    // Every pass of training indexes the row-major buffer in place: no
    // `Vec` per row.
    fn train_flat(&mut self, flat: &[f64], dim: usize) -> Result<()> {
        self.train_on_pool(mb_pool::global(), flat, dim)
    }

    fn score(&self, metrics: &[f64]) -> Result<f64> {
        self.mahalanobis(metrics)
    }

    fn score_batch_flat(&self, flat: &[f64], dim: usize) -> Result<Vec<f64>> {
        // The distance pass over the contiguous row-major buffer, then the
        // same clamp-and-sqrt as `score`: bit-identical to scoring row by
        // row, regardless of layout or threads.
        let inv = self
            .inverse_covariance
            .as_ref()
            .ok_or(StatsError::NotTrained)?;
        if dim != self.mean.len() || flat.len() % self.mean.len() != 0 {
            return Err(StatsError::DimensionMismatch {
                expected: self.mean.len(),
                actual: if dim != self.mean.len() {
                    dim
                } else {
                    flat.len() % self.mean.len()
                },
            });
        }
        let mut scores = vec![0.0; flat.len() / dim];
        let row_at = |i: usize| &flat[i * dim..(i + 1) * dim];
        distance_pass(mb_pool::global(), &self.mean, inv, row_at, &mut scores);
        scores.iter_mut().for_each(|d| *d = d.max(0.0).sqrt());
        Ok(scores)
    }

    fn dimension(&self) -> Option<usize> {
        self.covariance.as_ref().map(|_| self.mean.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_ext::{normal, SplitMix64};

    /// `n` rows around `center`, row-major.
    fn gaussian_cloud(rng: &mut SplitMix64, n: usize, center: &[f64], std_dev: f64) -> Vec<f64> {
        (0..n)
            .flat_map(|_| center.iter().map(|&c| normal(rng, c, std_dev)).collect::<Vec<_>>())
            .collect()
    }

    /// The row-at-a-time distance the lane-wise kernel must reproduce bit
    /// for bit: `inv · c` row by row through `f64: Sum`, then `c · (inv c)`.
    fn squared_distance(inv: &Matrix, mean: &[f64], row: &[f64], centered: &mut [f64]) -> f64 {
        for ((c, r), m) in centered.iter_mut().zip(row.iter()).zip(mean.iter()) {
            *c = r - m;
        }
        let mut total = 0.0;
        for (i, &ci) in centered.iter().enumerate() {
            let row_i = inv.row(i);
            let transformed: f64 = row_i
                .iter()
                .zip(centered.iter())
                .map(|(a, b)| a * b)
                .sum();
            total += ci * transformed;
        }
        total
    }

    /// [`select_smallest`] as a value.
    fn smallest_rows(distances: &[f64], h: usize, keys: &mut Vec<u64>) -> Vec<usize> {
        let mut subset = Vec::new();
        select_smallest(distances, h, keys, &mut subset);
        subset
    }

    /// The selection the integer keys replaced: `select_nth_unstable_by`
    /// over `(d², row)` pairs under `total_cmp`, then every row at or below
    /// the cut pair.
    fn smallest_rows_oracle(distances: &[f64], h: usize) -> Vec<usize> {
        let order =
            |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1));
        let mut keyed: Vec<(f64, usize)> = distances.iter().copied().zip(0..).collect();
        let cut = *keyed.select_nth_unstable_by(h - 1, order).1;
        (0..distances.len())
            .filter(|&row| order(&(distances[row], row), &cut).is_le())
            .collect()
    }

    /// A value drawn mostly from the edges of `f64`: signed zeros,
    /// subnormals, ±1e300 (whose products overflow), and ordinary values.
    fn edgy_value(rng: &mut SplitMix64) -> f64 {
        const EDGES: [f64; 8] = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0, -3.25];
        match rng.next_below(4) {
            0 => EDGES[rng.next_below(EDGES.len())],
            _ => normal(rng, 0.0, 2.0),
        }
    }

    /// An estimator holding an arbitrary `(mean, inv)`: the scoring entry
    /// points read nothing else, so `inv` need not be positive definite.
    fn fitted(mean: Vec<f64>, inv: Matrix) -> McdEstimator {
        McdEstimator {
            config: FastMcdConfig::default(),
            covariance: Some(inv.clone()),
            inverse_covariance: Some(inv),
            mean,
        }
    }

    #[test]
    fn untrained_estimator_errors() {
        let est = McdEstimator::with_defaults();
        assert_eq!(est.score(&[1.0, 2.0]), Err(StatsError::NotTrained));
        assert!(!est.is_trained());
    }

    #[test]
    fn insufficient_data_is_rejected() {
        let mut est = McdEstimator::with_defaults();
        assert!(matches!(
            est.train_flat(&[1.0, 2.0, 3.0, 4.0], 2),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn invalid_support_fraction_rejected() {
        let cfg = FastMcdConfig {
            support_fraction: 0.3,
            ..FastMcdConfig::default()
        };
        let mut est = McdEstimator::new(cfg);
        let mut rng = SplitMix64::new(1);
        let sample = gaussian_cloud(&mut rng, 100, &[0.0, 0.0], 1.0);
        assert!(matches!(
            est.train_flat(&sample, 2),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn recovers_gaussian_center() {
        let mut rng = SplitMix64::new(11);
        let sample = gaussian_cloud(&mut rng, 2000, &[5.0, -3.0], 2.0);
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 2).unwrap();
        let loc = est.location().unwrap();
        assert!((loc[0] - 5.0).abs() < 0.5, "location[0] = {}", loc[0]);
        assert!((loc[1] + 3.0).abs() < 0.5, "location[1] = {}", loc[1]);
    }

    #[test]
    fn outliers_score_higher_than_inliers() {
        let mut rng = SplitMix64::new(21);
        let sample = gaussian_cloud(&mut rng, 1000, &[0.0, 0.0, 0.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 3).unwrap();
        let inlier_score = est.score(&[0.5, -0.5, 0.2]).unwrap();
        let outlier_score = est.score(&[20.0, 20.0, 20.0]).unwrap();
        assert!(outlier_score > 10.0 * inlier_score);
    }

    #[test]
    fn robust_to_forty_percent_contamination() {
        // The defining property of MCD (Figure 3): a 40% cluster of extreme
        // points must not drag the fitted center toward itself — fitted
        // directly (1,000 rows) and through the nested subsample (5,000).
        for n in [1_000usize, 5_000] {
            let mut rng = SplitMix64::new(31);
            let mut sample = gaussian_cloud(&mut rng, n * 6 / 10, &[0.0, 0.0], 1.0);
            sample.extend(gaussian_cloud(&mut rng, n * 4 / 10, &[1000.0, 1000.0], 1.0));
            let mut est = McdEstimator::with_defaults();
            est.train_flat(&sample, 2).unwrap();
            let loc = est.location().unwrap();
            assert!(loc[0].abs() < 5.0, "{n} rows: location dragged to {loc:?}");
            assert!(loc[1].abs() < 5.0, "{n} rows: location dragged to {loc:?}");
            // And the contaminating cluster still scores as extremely outlying.
            assert!(est.score(&[1000.0, 1000.0]).unwrap() > 50.0);
        }
    }

    #[test]
    fn mahalanobis_of_center_is_zero() {
        let mut rng = SplitMix64::new(41);
        let sample = gaussian_cloud(&mut rng, 500, &[2.0, 2.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 2).unwrap();
        let loc: Vec<f64> = est.location().unwrap().to_vec();
        assert!(est.score(&loc).unwrap() < 1e-6);
    }

    #[test]
    fn score_batch_flat_is_bit_identical_to_row_scoring() {
        let mut rng = SplitMix64::new(61);
        let sample = gaussian_cloud(&mut rng, 400, &[1.0, -2.0, 0.5], 1.5);
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 3).unwrap();
        let flat = gaussian_cloud(&mut rng, 257, &[0.0, 0.0, 0.0], 3.0);
        let flat_scores = est.score_batch_flat(&flat, 3).unwrap();
        let serial: Vec<f64> = flat.chunks_exact(3).map(|q| est.score(q).unwrap()).collect();
        assert_eq!(serial, flat_scores);
        assert!(matches!(
            est.score_batch_flat(&flat, 4),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_on_score() {
        let mut rng = SplitMix64::new(51);
        let sample = gaussian_cloud(&mut rng, 100, &[0.0, 0.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 2).unwrap();
        assert!(matches!(
            est.score(&[1.0, 2.0, 3.0]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn handles_degenerate_dimension_via_regularization() {
        // Third dimension is constant -> covariance singular without ridging.
        let mut rng = SplitMix64::new(61);
        let sample: Vec<f64> = (0..500)
            .flat_map(|_| [normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0), 7.0])
            .collect();
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 3).unwrap();
        assert!(est.score(&[0.0, 0.0, 7.0]).unwrap().is_finite());
        assert!(est.score(&[10.0, 10.0, 7.0]).unwrap() > 1.0);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let mut rng = SplitMix64::new(71);
        let sample = gaussian_cloud(&mut rng, 300, &[1.0, 2.0], 1.5);
        let mut a = McdEstimator::with_defaults();
        let mut b = McdEstimator::with_defaults();
        a.train_flat(&sample, 2).unwrap();
        b.train_flat(&sample, 2).unwrap();
        assert_eq!(a.location().unwrap(), b.location().unwrap());
        assert_eq!(
            a.score(&[3.0, 3.0]).unwrap(),
            b.score(&[3.0, 3.0]).unwrap()
        );
    }

    #[test]
    fn batch_distances_match_single_point_scoring() {
        // The batch pass must agree with per-point scoring even when the
        // sample is large enough for the parallel path to engage.
        let mut rng = SplitMix64::new(91);
        let sample = gaussian_cloud(&mut rng, 1_000, &[1.0, -1.0, 0.5], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 3).unwrap();
        let rows = gaussian_cloud(&mut rng, 10_000, &[1.0, -1.0, 0.5], 3.0);
        let batch = est.score_batch_flat(&rows, 3).unwrap();
        assert_eq!(batch.len(), 10_000);
        for (row, &score) in rows.chunks_exact(3).zip(batch.iter()) {
            assert_eq!(score, est.squared_mahalanobis(row).unwrap().sqrt());
        }
    }

    #[test]
    fn batch_distances_validate_training_and_dimensions() {
        let untrained = McdEstimator::with_defaults();
        assert_eq!(
            untrained.score_batch_flat(&[0.0], 1),
            Err(StatsError::NotTrained)
        );
        let mut rng = SplitMix64::new(92);
        let sample = gaussian_cloud(&mut rng, 200, &[0.0, 0.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 2).unwrap();
        assert_eq!(
            est.score_batch_flat(&[1.0, 2.0, 3.0], 3),
            Err(StatsError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        );
        assert_eq!(
            est.score_batch_flat(&[1.0, 2.0, 3.0], 2),
            Err(StatsError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn training_is_identical_above_the_parallel_threshold() {
        // 6_000 rows puts every C-step's distance pass on the pool; the fit
        // must be bit-identical to what the serial path produced (same
        // arithmetic per row, same sort input).
        let mut rng = SplitMix64::new(93);
        let sample = gaussian_cloud(&mut rng, 6_000, &[3.0, -2.0], 1.5);
        let mut a = McdEstimator::with_defaults();
        let mut b = McdEstimator::with_defaults();
        a.train_flat(&sample, 2).unwrap();
        b.train_flat(&sample, 2).unwrap();
        assert_eq!(a.location().unwrap(), b.location().unwrap());
        assert_eq!(a.score(&[5.0, 5.0]).unwrap(), b.score(&[5.0, 5.0]).unwrap());
    }

    #[test]
    fn trains_on_small_scaled_data() {
        // Covariance entries of 1e-7-unit data are ~1e-14: the old absolute
        // pivot threshold misreported them as singular, so the ridge loop
        // swamped the real covariance with a 1e-9 ridge and scores went
        // flat. With the scale-relative threshold the fit is correct and a
        // 10-sigma point scores like one.
        let mut rng = SplitMix64::new(101);
        let sample: Vec<f64> = (0..500)
            .flat_map(|_| [normal(&mut rng, 0.0, 1e-7), normal(&mut rng, 0.0, 1e-7)])
            .collect();
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 2).unwrap();
        let center: Vec<f64> = est.location().unwrap().to_vec();
        assert!(est.score(&center).unwrap() < 1e-3);
        let ten_sigma = est.score(&[1e-6, -1e-6]).unwrap();
        assert!(ten_sigma > 5.0, "10-sigma point scored only {ten_sigma}");
    }

    #[test]
    fn c_step_rejects_nan_distances() {
        // A NaN in the inverse scatter poisons every distance; the C-step
        // must surface that as an error instead of selecting among NaNs.
        let pool = mb_pool::Pool::new(1);
        let rows = Rows {
            flat: &[0.0, 1.0, 2.0, 3.0],
            dim: 1,
        };
        let inv = Matrix::from_vec(1, 1, vec![f64::NAN]);
        let mut scratch = Scratch::default();
        assert_eq!(
            McdEstimator::c_step(&pool, rows, &[0.0], &inv, 2, &mut scratch),
            Err(StatsError::NonFinite)
        );
        // One NaN metric in the last, padded block of an otherwise sound
        // sample, inline and past the parallel grain: its distance alone
        // is NaN, and that still fails the step.
        let pool = mb_pool::Pool::new(2);
        for n in [7usize, DISTANCE_GRAIN + 3] {
            let mut flat: Vec<f64> = (0..n * 3).map(|i| (i % 17) as f64).collect();
            flat[n * 3 - 2] = f64::NAN;
            let rows = Rows {
                flat: &flat,
                dim: 3,
            };
            let inv = Matrix::identity(3);
            assert_eq!(
                McdEstimator::c_step(&pool, rows, &[1.0, 2.0, 3.0], &inv, n / 2, &mut scratch),
                Err(StatsError::NonFinite)
            );
        }
    }

    #[test]
    fn every_distance_entry_point_is_bit_identical_to_the_scalar_kernel() {
        // Dimensions with and without a lane-sized remainder, 0-9 rows (a
        // padded last block and none) plus a count past the parallel grain
        // that is not a multiple of LANES, inputs and inverses full of
        // signed zeros, subnormals and overflowing values, and two inverse
        // shapes: a general one (negative forms included) and a sound one.
        let pool = mb_pool::Pool::new(2);
        let dims = (1..=12).chain([16, 32, 64, 128]);
        for dim in dims {
            let mut rng = SplitMix64::new(dim as u64);
            for n in (0..10).chain([DISTANCE_GRAIN + 3]) {
                for sound in [false, true] {
                    let mut inv = Matrix::identity(dim);
                    if !sound {
                        inv = Matrix::from_vec(
                            dim,
                            dim,
                            (0..dim * dim).map(|_| edgy_value(&mut rng)).collect(),
                        );
                    }
                    let mean: Vec<f64> = (0..dim).map(|_| edgy_value(&mut rng)).collect();
                    let flat: Vec<f64> = (0..n * dim).map(|_| edgy_value(&mut rng)).collect();
                    let mut centered = vec![0.0; dim];
                    let oracle: Vec<u64> = flat
                        .chunks_exact(dim)
                        .map(|row| squared_distance(&inv, &mean, row, &mut centered).to_bits())
                        .collect();
                    let clamped: Vec<u64> = oracle
                        .iter()
                        .map(|&d2| f64::from_bits(d2).max(0.0).to_bits())
                        .collect();
                    let label = format!("dim {dim}, {n} rows, sound inverse {sound}");

                    let mut pass = vec![0.0; n];
                    let sample = Rows { flat: &flat, dim };
                    distance_pass(&pool, &mean, &inv, |i| sample.row(i), &mut pass);
                    let pass: Vec<u64> = pass.iter().map(|d2| d2.to_bits()).collect();
                    assert_eq!(pass, oracle, "C-step pass, {label}");

                    let est = fitted(mean.clone(), inv.clone());
                    let single: Vec<u64> = flat
                        .chunks_exact(dim)
                        .map(|row| est.squared_mahalanobis(row).unwrap().to_bits())
                        .collect();
                    assert_eq!(single, clamped, "squared_mahalanobis, {label}");
                    let scores = est.score_batch_flat(&flat, dim).unwrap();
                    let scores: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                    let roots: Vec<u64> = clamped
                        .iter()
                        .map(|&d2| f64::from_bits(d2).sqrt().to_bits())
                        .collect();
                    assert_eq!(scores, roots, "score_batch_flat, {label}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // The integer-key selection against the pair selection it replaced,
        // on distances drawn from a small palette (so ties at the cut are
        // the rule) holding both zeros, both infinities, subnormals and
        // the negative values a non-PD inverse gives, at h = 1, n / 2 and
        // n; the scratch is reused across the three.
        #[test]
        fn key_selection_equals_the_pair_selection(
            seed in 0u64..1_000_000,
            n in 1usize..300,
            palette in 1usize..11,
        ) {
            const PALETTE: [f64; 10] = [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.5,
                -2.0,
                5e-324,
                -5e-324,
                1e300,
                -1e300,
            ];
            let mut rng = SplitMix64::new(seed);
            let distances: Vec<f64> = (0..n)
                .map(|_| match rng.next_below(8) {
                    0 => rng.next_f64() * 4.0 - 2.0,
                    _ => PALETTE[rng.next_below(palette)],
                })
                .collect();
            let (mut keys, mut subset) = (Vec::new(), Vec::new());
            for h in [1, (n / 2).max(1), n] {
                select_smallest(&distances, h, &mut keys, &mut subset);
                proptest::prop_assert_eq!(&subset, &smallest_rows_oracle(&distances, h));
            }
        }
    }

    #[test]
    fn selection_breaks_ties_toward_the_lowest_rows() {
        // All distances tie: the total `(d², row)` order must choose the
        // first h rows — what the stable sort this replaced chose — and
        // return them ascending.
        let mut keyed = Vec::new();
        assert_eq!(smallest_rows(&[1.0; 10], 4, &mut keyed), vec![0, 1, 2, 3]);
        assert_eq!(smallest_rows(&[1.0; 10], 10, &mut keyed), (0..10).collect::<Vec<_>>());
        // A tie straddling the cut: rows 1, 3, 4 and 6 tie at 2.0 and only
        // two of them fit beside rows 2 and 5.
        let distances = [9.0, 2.0, 0.5, 2.0, 2.0, 1.0, 2.0, 7.0];
        assert_eq!(smallest_rows(&distances, 4, &mut keyed), vec![1, 2, 3, 5]);
        // -0.0 orders below +0.0 under `total_cmp`, as it did in the sort.
        assert_eq!(smallest_rows(&[0.0, -0.0, 0.0], 1, &mut keyed), vec![1]);
    }

    #[test]
    fn elemental_start_is_the_partial_shuffle_it_replaced() {
        // Same RNG draws, same picks as shuffling a materialized `0..n`.
        for (seed, n, count) in [(1u64, 10usize, 10usize), (2, 50, 9), (3, 3, 2), (4, 100_000, 33)] {
            let mut rng = SplitMix64::new(seed);
            let mut indices: Vec<usize> = (0..n).collect();
            for i in 0..count {
                let j = i + rng.next_below(n - i);
                indices.swap(i, j);
            }
            let mut rng = SplitMix64::new(seed);
            assert_eq!(elemental_start(&mut rng, n, count), indices[..count]);
        }
    }

    #[test]
    fn failed_starts_are_skipped_not_fatal() {
        // 40% of the sample sits at ±1e160: any elemental start touching
        // one of those points overflows its covariance to infinity and the
        // start fails. Training must skip such starts and fit from the
        // clean ones.
        let mut rng = SplitMix64::new(77);
        let mut sample = gaussian_cloud(&mut rng, 120, &[0.0], 1.0);
        for i in 0..80 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            sample.push(sign * 1e160);
        }
        let config = FastMcdConfig {
            num_starts: 8,
            ..FastMcdConfig::default()
        };
        // Pin the mixed outcome this sample is built to produce: some
        // starts fail (their elemental subset hits an overflow point),
        // some succeed — exercising the skip-and-rank path for real.
        let rows = Rows {
            flat: &sample,
            dim: 1,
        };
        let pool = mb_pool::Pool::new(2);
        let outcomes: Vec<bool> = (0..config.num_starts)
            .map(|start| McdEstimator::run_start(&config, &pool, rows, start).is_ok())
            .collect();
        assert!(
            outcomes.iter().any(|&ok| ok) && outcomes.iter().any(|&ok| !ok),
            "sample should produce both failed and successful starts, got {outcomes:?}"
        );
        let mut est = McdEstimator::new(config);
        est.train_flat(&sample, 1).unwrap();
        let loc = est.location().unwrap();
        assert!(loc[0].abs() < 2.0, "location dragged to {loc:?}");
    }

    #[test]
    fn a_finalist_that_fails_on_the_full_sample_falls_through() {
        // The best-ranked finalist carries a NaN location, so its first
        // full-sample distance pass is all NaN and its polish fails; the
        // next-ranked one must be polished and returned instead.
        let mut rng = SplitMix64::new(79);
        let flat = gaussian_cloud(&mut rng, 400, &[3.0, -1.0], 1.0);
        let rows = Rows { flat: &flat, dim: 2 };
        let config = FastMcdConfig::default();
        let pool = mb_pool::Pool::new(1);
        let all: Vec<usize> = (0..rows.len()).collect();
        let sound = || McdEstimator::fit_subset(&pool, rows, &all).unwrap();
        let broken = || Fit {
            mean: vec![f64::NAN, 0.0],
            ..sound()
        };
        let polish = |fit| McdEstimator::converge(&config, &pool, rows, fit);

        let fit = McdEstimator::first_viable(vec![broken(), sound()], None, polish).unwrap();
        assert!((fit.mean[0] - 3.0).abs() < 0.5 && (fit.mean[1] + 1.0).abs() < 0.5);
        let alone = polish(sound()).unwrap();
        assert_eq!(fit.mean, alone.mean);
        assert_eq!(fit.cov, alone.cov);

        // Nothing viable: the first error met is surfaced, a failed start's
        // ahead of a failed finalist's.
        let none = McdEstimator::first_viable(vec![broken(), broken()], None, polish);
        assert_eq!(none.err(), Some(StatsError::NonFinite));
        let earlier = Some(StatsError::SingularMatrix);
        let none = McdEstimator::first_viable(vec![broken()], earlier, polish);
        assert_eq!(none.err(), Some(StatsError::SingularMatrix));
    }

    #[test]
    fn training_errors_only_when_every_restart_fails() {
        // Every pair of these points is ~1e160 apart, so every subset's
        // covariance overflows to infinity, every restart fails, and the
        // first restart error is surfaced.
        let sample: Vec<f64> = (0..40).map(|i| (i + 1) as f64 * 1e160).collect();
        let mut est = McdEstimator::with_defaults();
        assert_eq!(est.train_flat(&sample, 1), Err(StatsError::SingularMatrix));
        assert!(!est.is_trained());
    }

    #[test]
    fn score_batch_matches_per_row_scoring_exactly() {
        let mut rng = SplitMix64::new(83);
        let sample = gaussian_cloud(&mut rng, 800, &[0.0, 1.0], 1.0);
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 2).unwrap();
        let rows = gaussian_cloud(&mut rng, 3_000, &[0.0, 1.0], 2.0);
        let batch = est.score_batch_flat(&rows, 2).unwrap();
        assert_eq!(batch.len(), 3_000);
        for (row, &s) in rows.chunks_exact(2).zip(batch.iter()) {
            assert_eq!(s, est.score(row).unwrap());
        }
    }

    #[test]
    fn explicit_pools_reproduce_global_pool_training_bitwise() {
        // 6_000 and 60_000 rows both take the nested path and put every
        // full-sample distance pass over the parallel grain; starts also
        // scatter. The fit must be a pure function of (sample, config): any
        // pool size and the global pool agree to the bit.
        for (n, seed) in [(6_000usize, 97u64), (60_000, 98)] {
            let mut rng = SplitMix64::new(seed);
            let sample = gaussian_cloud(&mut rng, n, &[3.0, -2.0, 0.5], 1.5);
            let mut global = McdEstimator::with_defaults();
            global.train_flat(&sample, 3).unwrap();
            let probe = [5.0, 5.0, 5.0];
            for threads in [1usize, 2, 3, 8] {
                let mut est = McdEstimator::with_defaults();
                est.train_on_pool(&mb_pool::Pool::new(threads), &sample, 3)
                    .unwrap();
                assert_eq!(est.location(), global.location(), "{n} rows, {threads} threads");
                assert_eq!(est.covariance, global.covariance, "{n} rows, {threads} threads");
                assert_eq!(est.score(&probe), global.score(&probe));
            }
        }
    }

    #[test]
    fn train_flat_rejects_malformed_input_and_stays_untrained() {
        let mut est = McdEstimator::with_defaults();
        assert_eq!(est.train_flat(&[], 2), Err(StatsError::EmptyInput));
        assert_eq!(est.train_flat(&[1.0], 0), Err(StatsError::EmptyInput));
        assert!(matches!(
            est.train_flat(&[1.0, 2.0, 3.0], 2),
            Err(StatsError::DimensionMismatch { .. })
        ));
        assert_eq!(
            est.train_flat(&[1.0, f64::NAN, 3.0, 4.0], 2),
            Err(StatsError::NonFinite)
        );
        assert!(matches!(
            est.train_flat(&[1.0, 2.0, 3.0, 4.0], 2),
            Err(StatsError::InsufficientData { .. })
        ));
        assert!(!est.is_trained());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        // Parallel-restart training is bit-identical to serial for any
        // seed and dimension: location, scatter, and scores all match
        // between a one-worker pool and a multi-worker pool.
        #[test]
        fn parallel_restart_training_is_bit_identical_to_serial(
            seed in 0u64..1_000,
            dim in 1usize..4,
        ) {
            let mut rng = SplitMix64::new(seed.wrapping_add(0x5EED));
            let center: Vec<f64> = (0..dim).map(|i| i as f64 - 1.0).collect();
            let sample = gaussian_cloud(&mut rng, 150, &center, 1.5);
            let mut serial = McdEstimator::with_defaults();
            let mut parallel = McdEstimator::with_defaults();
            serial.train_on_pool(&mb_pool::Pool::new(1), &sample, dim).unwrap();
            parallel.train_on_pool(&mb_pool::Pool::new(3), &sample, dim).unwrap();
            proptest::prop_assert_eq!(serial.location().unwrap(), parallel.location().unwrap());
            proptest::prop_assert_eq!(&serial.covariance, &parallel.covariance);
            let probe: Vec<f64> = vec![2.5; dim];
            proptest::prop_assert_eq!(
                serial.score(&probe).unwrap(),
                parallel.score(&probe).unwrap()
            );
        }
    }

    /// The training loop this module replaced, kept as the reference the
    /// new schedule is judged against: every start iterates C-steps over
    /// *all* rows, each step a full stable sort of the distances with the
    /// subset fitted in distance order. Returns `(logdet, location)` of
    /// every start that survived, in start order; the old merge took the
    /// lowest log-determinant, ties to the lowest start.
    fn oracle_starts(config: &FastMcdConfig, sample: &[f64], dim: usize) -> Vec<(f64, Vec<f64>)> {
        let n = crate::validate_sample(sample, dim).unwrap();
        let row = |i: usize| &sample[i * dim..(i + 1) * dim];
        let h = support_size(n, dim, config.support_fraction);
        let fit_subset = |indices: &[usize]| -> Result<(Vec<f64>, SpdFactors)> {
            let (mean, mut cov) =
                covariance_of_rows(mb_pool::global(), dim, indices.len(), |k| row(indices[k]))?;
            let mut ridge = 1e-9;
            loop {
                match SpdFactors::factor(&cov) {
                    Ok(factors) => return Ok((mean, factors)),
                    Err(e) if ridge >= 1e3 => return Err(e),
                    Err(_) => {
                        cov.add_diagonal(ridge);
                        ridge *= 10.0;
                    }
                }
            }
        };
        let restart = |start_index: usize| -> Result<(f64, Vec<f64>)> {
            let mut rng = SplitMix64::new(config.seed).split(start_index as u64);
            let init_size = (dim + 1).min(n).max(2);
            let mut indices: Vec<usize> = (0..n).collect();
            for i in 0..init_size {
                let j = i + rng.next_below(n - i);
                indices.swap(i, j);
            }
            let (mut mean, mut factors) = fit_subset(&indices[..init_size])?;
            let mut logdet = factors.log_abs_determinant();
            let mut centered = vec![0.0; dim];
            for _ in 0..config.max_iterations {
                let inv = factors.inverse();
                let mut distances: Vec<(f64, usize)> = sample
                    .chunks_exact(dim)
                    .enumerate()
                    .map(|(i, row)| (squared_distance(&inv, &mean, row, &mut centered), i))
                    .collect();
                if distances.iter().any(|(d2, _)| d2.is_nan()) {
                    return Err(StatsError::NonFinite);
                }
                distances.sort_by(|a, b| a.0.total_cmp(&b.0));
                let subset: Vec<usize> = distances.iter().take(h).map(|&(_, i)| i).collect();
                (mean, factors) = fit_subset(&subset)?;
                let new_logdet = factors.log_abs_determinant();
                let converged = (logdet - new_logdet).abs() < config.tolerance;
                logdet = new_logdet;
                if converged {
                    break;
                }
            }
            Ok((logdet, mean))
        };
        (0..config.num_starts.max(1))
            .filter_map(|start| restart(start).ok())
            .collect()
    }

    /// A generated training set: a Gaussian bulk around a seeded center, a
    /// tight far-away cluster holding `contamination` of the rows, every
    /// `duplicate_every`-th row a copy of its predecessor (so many squared
    /// distances tie exactly), and optionally a constant last column (a
    /// singular covariance only the ridge can factor). Contaminated rows
    /// are interleaved with clean ones, not appended, so the strided
    /// subsample sees the same mixture the full sample has.
    fn generated_sample(
        seed: u64,
        n: usize,
        dim: usize,
        contamination: f64,
        duplicate_every: usize,
        constant_column: bool,
    ) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let center: Vec<f64> = (0..dim).map(|_| normal(&mut rng, 0.0, 5.0)).collect();
        let far: Vec<f64> = center.iter().map(|c| c + 60.0).collect();
        let mut sample: Vec<f64> = Vec::with_capacity(n * dim);
        for i in 0..n {
            if duplicate_every > 0 && i % duplicate_every == duplicate_every - 1 {
                sample.extend_from_within((i - 1) * dim..i * dim);
                continue;
            }
            let mut row: Vec<f64> = if rng.next_f64() < contamination {
                far.iter().map(|&c| normal(&mut rng, c, 0.5)).collect()
            } else {
                center.iter().map(|&c| normal(&mut rng, c, 2.0)).collect()
            };
            if constant_column {
                row[dim - 1] = 7.0;
            }
            sample.extend(row);
        }
        sample
    }

    /// Train the new schedule and the oracle on one sample and hold the new
    /// fit to what the old loop establishes about that sample. Returns the
    /// new log-determinant minus the oracle winner's.
    ///
    /// With four starts, which *basin* a fit ends in is a draw: a tight 20%
    /// cluster gives FastMCD a second, far worse fixed point (the
    /// log-determinants are 1.4-5 apart) that any start whose elemental
    /// subset touches the cluster falls into. The oracle's starts and the
    /// subsample's are different draws, so either side may win that one;
    /// everything else is held to the oracle.
    fn judge_against_the_oracle(sample: &[f64], dim: usize, label: &str) -> f64 {
        let config = FastMcdConfig::default();
        let starts = oracle_starts(&config, sample, dim);
        let (best_logdet, best_location) = starts
            .iter()
            .fold(None::<&(f64, Vec<f64>)>, |best, fit| match best {
                Some(b) if b.0 <= fit.0 => Some(b),
                _ => Some(fit),
            })
            .unwrap();
        let worst_logdet = starts.iter().map(|fit| fit.0).fold(f64::MIN, f64::max);

        let mut est = McdEstimator::new(config.clone());
        est.train_flat(sample, dim).unwrap();
        let logdet = SpdFactors::factor(est.covariance.as_ref().unwrap())
            .unwrap()
            .log_abs_determinant();

        // Converged on the *full* sample: one more C-step over all rows
        // leaves the log-determinant where it is.
        let rows = Rows { flat: sample, dim };
        let h = support_size(rows.len(), dim, config.support_fraction);
        let pool = mb_pool::Pool::new(1);
        let mut scratch = Scratch::default();
        McdEstimator::c_step(
            &pool,
            rows,
            est.location().unwrap(),
            est.inverse_scatter().unwrap(),
            h,
            &mut scratch,
        )
        .unwrap();
        let again = McdEstimator::fit_subset(&pool, rows, &scratch.selected)
            .unwrap()
            .logdet;
        assert!(
            (again - logdet).abs() < config.tolerance,
            "{label}: a further C-step moves logdet {logdet} to {again}"
        );

        // Two fixed points in one basin differ by C-step noise: up to 2e-3
        // per dimension in log-determinant (0.2% of a variance) on the
        // smallest subsamples, 1e-6 at 60K rows.
        let noise = 2e-3 * dim as f64;
        let gap = logdet - best_logdet;
        assert!(
            logdet <= worst_logdet + noise,
            "{label}: logdet {logdet} is above every oracle start (worst {worst_logdet})"
        );
        assert!(
            gap.abs() <= noise || gap.abs() > 0.5,
            "{label}: logdet {logdet} vs the oracle's {best_logdet} is neither noise nor a basin"
        );
        if gap.abs() <= noise {
            // Same basin as the oracle's winner: the two locations sit
            // within two of the standard errors a mean of `h` rows has
            // anyway (duplicated rows halve the effective `h`).
            let apart = est.score(best_location).unwrap();
            let standard_error = (dim as f64 / h as f64).sqrt();
            assert!(
                apart < 2.0 * standard_error,
                "{label}: location is {apart} sigma from the oracle's, standard error {standard_error}"
            );
        }
        gap
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        // The nested schedule against the loop it replaced, over sizes on
        // both sides of the subsample threshold, 1-8 dimensions, 0-40%
        // clustered contamination, exact distance ties and ridged fits.
        #[test]
        fn nested_schedule_agrees_with_the_loop_it_replaced(
            seed in 0u64..10_000,
            n in 0usize..6,
            dim in 1usize..9,
            contamination in 0.0f64..0.4,
            duplicate_every in 0usize..6,
            constant_column in 0usize..4,
        ) {
            let n = [450, 700, 1_400, 1_600, 3_100, 5_000][n];
            let duplicate_every = if duplicate_every < 2 { 0 } else { duplicate_every };
            let constant_column = constant_column == 0 && dim > 1;
            let sample =
                generated_sample(seed, n, dim, contamination, duplicate_every, constant_column);
            let label = format!(
                "seed {seed}, {n}x{dim}, contamination {contamination:.2}, \
                 duplicates every {duplicate_every}, constant column {constant_column}"
            );
            judge_against_the_oracle(&sample, dim, &label);
        }
    }

    #[test]
    fn nested_schedule_agrees_with_the_oracle_at_twenty_thousand_rows_and_at_32_dimensions() {
        let sample = generated_sample(5, 20_000, 4, 0.25, 3, false);
        judge_against_the_oracle(&sample, 4, "20_000x4");
        let sample = generated_sample(6, 3_000, 32, 0.2, 0, false);
        judge_against_the_oracle(&sample, 32, "3_000x32");
    }

    #[test]
    fn univariate_mcd_works() {
        let mut rng = SplitMix64::new(81);
        let sample: Vec<f64> = (0..400).map(|_| normal(&mut rng, 10.0, 2.0)).collect();
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 1).unwrap();
        assert!(est.score(&[10.0]).unwrap() < est.score(&[40.0]).unwrap());
    }
}
