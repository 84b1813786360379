//! The benchmark's own input generator.
//!
//! Deliberately independent of `mb_ingest::datasets` and `mb_stats::rand_ext`:
//! an edit to either must not shift the load the benchmark applies. One wide
//! table (7 metrics + 6 Zipf attributes = 13 columns) is generated from the
//! seed; each workload projects the leading columns it queries, so every
//! workload sees the same planted anomaly.

use macrobase_core::types::Point;
use std::io::{self, Write};

/// Metric columns in the wide table.
const METRICS: usize = 7;
/// Attribute columns in the wide table.
const ATTRS: usize = 6;
/// Distinct values per attribute column (the Disburse-like FC shape).
const CARDINALITIES: [usize; ATTRS] = [2766, 2000, 50, 12, 400, 30];
const ZIPF_SKEW: f64 = 1.1;
/// Share of rows whose metrics are shifted.
const ANOMALY_RATE: f64 = 0.01;
/// Share of anomalous rows that carry the planted value, per planted column.
const PLANT_RATE: f64 = 0.8;
/// Columns 0 and 1 carry a planted value, so a one-attribute projection
/// still sees one and a wider one sees the pair.
const PLANTED_COLUMNS: usize = 2;
const PLANTED: u32 = u32::MAX;

/// SplitMix64: tiny, seedable, and good enough to shape a workload.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Box–Muller; one draw per call keeps the stream position predictable.
    fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        mean + sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Inverse-CDF Zipf sampler over `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32
    }
}

/// One row of the wide table; attribute values stay as indices until a
/// consumer needs their strings.
pub struct Row {
    pub metrics: [f64; METRICS],
    attrs: [u32; ATTRS],
}

impl Row {
    fn attribute(&self, col: usize) -> String {
        attribute_name(col, self.attrs[col])
    }

    /// Project the leading `shape.metrics` metrics and `shape.attrs` attributes.
    pub fn to_point(&self, shape: Shape) -> Point {
        Point::new(
            self.metrics[..shape.metrics].to_vec(),
            (0..shape.attrs).map(|c| self.attribute(c)).collect(),
        )
    }
}

fn attribute_name(col: usize, value: u32) -> String {
    if value == PLANTED {
        planted_value(col)
    } else {
        format!("a{col}_v{value}")
    }
}

/// The string planted in column `col` of most anomalous rows.
pub fn planted_value(col: usize) -> String {
    format!("planted_{col}")
}

/// Which leading columns of the wide table a workload queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub metrics: usize,
    pub attrs: usize,
}

/// Every column of the table.
pub const WIDE: Shape = Shape {
    metrics: METRICS,
    attrs: ATTRS,
};

impl Shape {
    pub fn metric_columns(&self) -> Vec<String> {
        (0..self.metrics).map(|m| format!("m{m}")).collect()
    }

    pub fn attribute_columns(&self) -> Vec<String> {
        (0..self.attrs).map(|a| format!("a{a}")).collect()
    }
}

/// Seeded row source. Every row draws all 13 columns whatever the
/// projection, so two workloads on one seed read the same table.
pub struct RowGen {
    rng: Rng,
    zipfs: Vec<Zipf>,
}

impl RowGen {
    pub fn new(seed: u64) -> Self {
        RowGen {
            rng: Rng::new(seed),
            zipfs: CARDINALITIES
                .iter()
                .map(|&c| Zipf::new(c, ZIPF_SKEW))
                .collect(),
        }
    }

    pub fn next_row(&mut self) -> Row {
        let anomalous = self.rng.next_f64() < ANOMALY_RATE;
        let mut metrics = [0.0; METRICS];
        for (m, value) in metrics.iter_mut().enumerate() {
            let base = 50.0 + 10.0 * m as f64;
            let mean = if anomalous { base + 80.0 } else { base };
            *value = self.rng.normal(mean, 10.0);
        }
        let mut attrs = [0u32; ATTRS];
        for (col, value) in attrs.iter_mut().enumerate() {
            let background = self.zipfs[col].sample(&mut self.rng);
            let plant = self.rng.next_f64() < PLANT_RATE;
            *value = if anomalous && col < PLANTED_COLUMNS && plant {
                PLANTED
            } else {
                background
            };
        }
        Row { metrics, attrs }
    }

    pub fn points(&mut self, rows: usize, shape: Shape) -> Vec<Point> {
        (0..rows).map(|_| self.next_row().to_point(shape)).collect()
    }
}

/// FNV-1a, 64 bit: the checksum printed as `input_fnv` / `report_fnv`.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Checksum of in-memory points: metric bits, then attribute bytes, with
/// separators so column boundaries cannot alias.
pub fn points_fnv(points: &[Point]) -> u64 {
    let mut fnv = Fnv::new();
    for p in points {
        for m in &p.metrics {
            fnv.write(&m.to_bits().to_le_bytes());
        }
        for a in &p.attributes {
            fnv.write(a.as_bytes());
            fnv.write(b",");
        }
        fnv.write(b"\n");
    }
    fnv.finish()
}

/// Write `rows` rows of the wide table as CSV (header `m0..m6,a0..a5`) and
/// return the checksum of the bytes written. Metrics print in Rust's
/// shortest round-trip form, so parsing the file yields the generated bits.
pub fn write_csv<W: Write>(gen: &mut RowGen, rows: usize, out: &mut W) -> io::Result<u64> {
    let mut fnv = Fnv::new();
    let mut line = WIDE.metric_columns();
    line.extend(WIDE.attribute_columns());
    let mut text = line.join(",");
    text.push('\n');
    fnv.write(text.as_bytes());
    out.write_all(text.as_bytes())?;
    for _ in 0..rows {
        use std::fmt::Write as _;
        let row = gen.next_row();
        text.clear();
        for m in &row.metrics {
            // Writing to a String cannot fail.
            let _ = write!(text, "{m},");
        }
        for col in 0..ATTRS {
            text.push_str(&row.attribute(col));
            text.push(if col + 1 == ATTRS { '\n' } else { ',' });
        }
        fnv.write(text.as_bytes());
        out.write_all(text.as_bytes())?;
    }
    Ok(fnv.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_and_projections_agree() {
        let wide = WIDE;
        let narrow = Shape {
            metrics: 1,
            attrs: 1,
        };
        let a = RowGen::new(7).points(500, wide);
        let b = RowGen::new(7).points(500, wide);
        assert_eq!(a, b);
        assert_ne!(
            points_fnv(&a),
            points_fnv(&RowGen::new(8).points(500, wide))
        );
        let c = RowGen::new(7).points(500, narrow);
        for (w, n) in a.iter().zip(&c) {
            assert_eq!(w.metrics[0], n.metrics[0]);
            assert_eq!(w.attributes[0], n.attributes[0]);
        }
    }

    #[test]
    fn anomalies_are_rare_shifted_and_planted() {
        let mut gen = RowGen::new(13);
        let rows: Vec<Row> = (0..50_000).map(|_| gen.next_row()).collect();
        let anomalous: Vec<&Row> = rows.iter().filter(|r| r.metrics[0] > 100.0).collect();
        let share = anomalous.len() as f64 / rows.len() as f64;
        assert!((0.005..0.02).contains(&share), "share = {share}");
        let planted = anomalous.iter().filter(|r| r.attrs[0] == PLANTED).count();
        assert!(planted as f64 > 0.7 * anomalous.len() as f64);
        assert!(rows
            .iter()
            .filter(|r| r.metrics[0] < 90.0)
            .all(|r| r.attrs[0] != PLANTED));
    }

    #[test]
    fn csv_round_trips_the_generated_bits() {
        let mut bytes = Vec::new();
        let fnv = write_csv(&mut RowGen::new(3), 50, &mut bytes).unwrap();
        let mut whole = Fnv::new();
        whole.write(&bytes);
        assert_eq!(fnv, whole.finish());
        let text = String::from_utf8(bytes).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "m0,m1,m2,m3,m4,m5,m6,a0,a1,a2,a3,a4,a5"
        );
        let mut gen = RowGen::new(3);
        for line in lines {
            let row = gen.next_row();
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), METRICS + ATTRS);
            assert_eq!(
                cells[0].parse::<f64>().unwrap().to_bits(),
                row.metrics[0].to_bits()
            );
            assert_eq!(cells[METRICS], row.attribute(0));
        }
    }
}
