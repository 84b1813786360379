//! Video-surveillance pipeline (Section 6.4, third case study).
//!
//! The paper computes per-frame average optical-flow velocity with OpenCV and
//! lets an unmodified MDP find time intervals with abnormal motion (a fight
//! in the CAVIAR dataset). Here the video is synthetic — a lobby scene where
//! one or two "people" (bright blobs) drift slowly, except for a three-second
//! burst of rapid motion — and the optical flow is a pure-Rust block-matching
//! estimate, but the pipeline shape is identical: frame pair → mean flow
//! magnitude metric → MAD classifier → explanation over time-interval
//! attributes.
//!
//! ```sh
//! cargo run --release --example video_surveillance
//! ```

use macrobase::prelude::*;
use macrobase::stats::rand_ext::SplitMix64;
use macrobase::transform::flow::{flow_series, FlowConfig, Frame};

fn main() {
    let mut rng = SplitMix64::new(99);
    let fps = 10usize;
    let duration_seconds = 120usize;
    let total_frames = fps * duration_seconds;
    let (width, height) = (96usize, 64usize);

    // Two actors wander slowly; between t=60s and t=63s they move violently.
    let mut frames = Vec::with_capacity(total_frames);
    let (mut ax, mut ay) = (10.0f64, 20.0f64);
    let (mut bx, mut by) = (70.0f64, 40.0f64);
    for frame_idx in 0..total_frames {
        let second = frame_idx / fps;
        let fight = (60..63).contains(&second);
        let step = if fight { 6.0 } else { 0.4 };
        ax = (ax + step * (rng.next_f64() - 0.5) * 2.0).clamp(0.0, (width - 8) as f64);
        ay = (ay + step * (rng.next_f64() - 0.5) * 2.0).clamp(0.0, (height - 8) as f64);
        bx = (bx + step * (rng.next_f64() - 0.5) * 2.0).clamp(0.0, (width - 8) as f64);
        by = (by + step * (rng.next_f64() - 0.5) * 2.0).clamp(0.0, (height - 8) as f64);
        let mut frame = Frame::black(width, height).expect("frame");
        frame.draw_square(ax as usize, ay as usize, 8, 1.0);
        frame.draw_square(bx as usize, by as usize, 8, 0.8);
        frames.push(frame);
    }

    // Feature transform: mean optical-flow magnitude per frame pair.
    #[expect(
        clippy::disallowed_methods,
        reason = "demo prints wall-clock throughput"
    )]
    let transform_start = std::time::Instant::now();
    let flows = flow_series(&frames, &FlowConfig::default()).expect("flow failed");
    let transform_elapsed = transform_start.elapsed();

    // Each transformed frame is tagged with its 5-second time interval.
    let points: Vec<Point> = flows
        .iter()
        .enumerate()
        .map(|(i, &magnitude)| {
            let second = i / fps;
            Point::new(
                vec![magnitude],
                vec![format!("t{:03}-{:03}s", (second / 5) * 5, (second / 5) * 5 + 5)],
            )
        })
        .collect();

    let mut query = MdpQuery::builder()
        .estimator(EstimatorKind::Mad)
        .explanation(ExplanationConfig::new(0.05, 3.0))
        .attribute_names(vec!["interval".to_string()])
        .build()
        .expect("query construction failed");
    #[expect(
        clippy::disallowed_methods,
        reason = "demo prints wall-clock throughput"
    )]
    let mdp_start = std::time::Instant::now();
    let report = query
        .execute(&Executor::OneShot, &points)
        .expect("MDP failed");
    let mdp_elapsed = mdp_start.elapsed();

    println!("{}", render_report(&report, 5));
    println!(
        "feature transform (optical flow) took {:.2?}, MDP took {:.2?} — as in the paper, \
         the domain transform dominates the runtime",
        transform_elapsed, mdp_elapsed
    );
    let found = report
        .explanations
        .iter()
        .any(|e| e.attributes.iter().any(|a| a.contains("t060-065s")));
    println!(
        "fight interval (60–65 s) {}",
        if found { "RECOVERED" } else { "NOT FOUND" }
    );
}
