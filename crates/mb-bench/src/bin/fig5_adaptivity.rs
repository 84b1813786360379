//! Figure 5: adaptivity of the ADR versus a uniform reservoir and a
//! per-tuple exponentially biased reservoir on the scripted 400-second
//! stream (distribution shifts plus an arrival-rate spike).
//!
//! Reports, per 10-second interval: the mean value held by each reservoir
//! (Figure 5b) and the risk ratio MDP-style accounting assigns to device D0
//! using each sampler's notion of "recent typical value" (Figure 5a, here
//! summarized as whether D0's readings look outlying relative to the
//! reservoir contents).

use mb_bench::emit_json;
use mb_ingest::synthetic::adaptivity_stream;
use mb_sketch::adr::{AdaptableDampedReservoir, DecayPolicy};
use mb_sketch::biased::PerTupleBiasedReservoir;
use mb_sketch::reservoir::UniformReservoir;
use mb_sketch::StreamSampler;
use mb_stats::mad::MadEstimator;

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Score D0's recent readings against a MAD model trained on the reservoir,
/// returning the fraction that look outlying (score > 3) — a proxy for the
/// risk ratio D0 would receive in Figure 5a.
fn d0_outlier_fraction(reservoir_sample: &[f64], recent_d0: &[f64]) -> f64 {
    if reservoir_sample.len() < 10 || recent_d0.is_empty() {
        return 0.0;
    }
    let mut mad = MadEstimator::new();
    if mad.train_univariate(reservoir_sample).is_err() {
        return 0.0;
    }
    let outlying = recent_d0
        .iter()
        .filter(|&&v| mad.score_value(v).map(|s| s > 3.0).unwrap_or(false))
        .count();
    outlying as f64 / recent_d0.len() as f64
}

fn main() {
    let base_rate = mb_bench::arg_usize("--rate", 500);
    let stream = adaptivity_stream(base_rate, 17);

    let capacity = 1_000;
    let mut uniform = UniformReservoir::new(capacity, 1);
    let mut per_tuple = PerTupleBiasedReservoir::new(capacity, 0.001, 1);
    let mut adr = AdaptableDampedReservoir::new(capacity, 0.5, DecayPolicy::Manual, 1);

    println!(
        "Figure 5: reservoir means and D0 outlier fraction per 10 s interval (base rate {base_rate}/s)"
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} | {:>9} {:>9} {:>9} {:>12}",
        "time(s)", "uniform", "per-tuple", "ADR", "D0:unif", "D0:tuple", "D0:ADR", "arrivals/s"
    );

    let mut interval_start = 0.0;
    let mut recent_d0: Vec<f64> = Vec::new();
    let mut interval_count = 0usize;
    // Decay the ADR once per simulated second (time-based decay policy).
    let mut last_decay_second = 0u64;

    for reading in &stream {
        let second = reading.time_seconds as u64;
        if second > last_decay_second {
            for _ in last_decay_second..second {
                adr.decay();
            }
            last_decay_second = second;
        }
        uniform.observe(reading.value);
        per_tuple.observe(reading.value);
        adr.observe(reading.value);
        interval_count += 1;
        if reading.device == "D0" {
            recent_d0.push(reading.value);
        }

        if reading.time_seconds - interval_start >= 10.0 {
            let row = (
                interval_start,
                mean(uniform.sample()),
                mean(per_tuple.sample()),
                mean(adr.sample()),
                d0_outlier_fraction(uniform.sample(), &recent_d0),
                d0_outlier_fraction(per_tuple.sample(), &recent_d0),
                d0_outlier_fraction(adr.sample(), &recent_d0),
                interval_count as f64 / 10.0,
            );
            println!(
                "{:>8.0} {:>10.2} {:>10.2} {:>10.2} | {:>9.2} {:>9.2} {:>9.2} {:>12.0}",
                row.0, row.1, row.2, row.3, row.4, row.5, row.6, row.7
            );
            emit_json(
                "fig5",
                serde_json::json!({
                    "interval_start": row.0,
                    "uniform_mean": row.1,
                    "per_tuple_mean": row.2,
                    "adr_mean": row.3,
                    "d0_outlier_fraction_uniform": row.4,
                    "d0_outlier_fraction_per_tuple": row.5,
                    "d0_outlier_fraction_adr": row.6,
                    "arrival_rate": row.7,
                }),
            );
            interval_start = reading.time_seconds;
            recent_d0.clear();
            interval_count = 0;
        }
    }

    println!(
        "\nExpected shape (paper): all three samplers flag D0 during 50-100 s; after the global\n\
         shift at 150 s only the adaptive samplers track the new mean (the uniform reservoir\n\
         lags); during the 320 s arrival-rate spike the per-tuple reservoir absorbs the noisy\n\
         burst (its mean jumps toward 85) and would falsely suspect D0, while the ADR's mean\n\
         rises only slightly."
    );
}
