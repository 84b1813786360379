//! The typed operator interfaces of Table 1 that a query takes from its
//! user, and the columnar input the engines run on.
//!
//! The paper types every pipeline as `Ingestor → Transformer* → Classifier
//! → Explainer`. A user plugs in the first two stages: an [`Ingestor`]
//! produces batches of [`Point`]s (or, through
//! [`Ingestor::next_encoded_batch`], columns), and a chain of
//! [`Transformer`]s rewrites them. Classification and explanation are query
//! configuration (estimator, rule, percentile and explanation thresholds on
//! [`crate::query::MdpQuery`]), not user types: every
//! [`crate::query::Executor`] backend runs them itself over a
//! [`ColumnarInput`]. Closure adapters are provided so quick
//! domain-specific transforms don't require a new type.

use crate::executor::{encoder_for, leading_dimension, pool_snapshot};
use crate::parallel::resolve_num_partitions;
use crate::query::{AnalysisConfig, Executor};
use crate::types::Point;
use mb_explain::encoder::{encode_rows_parallel, ShardDictionary, ShardEncoder};
use mb_explain::{AttributeEncoder, ItemBatch};
use mb_ingest::csv::{CsvError, CsvQuery, CsvReader, RowSink, BLOCK_BYTES};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// One ingested batch in columnar form: a contiguous row-major metric
/// buffer plus the rows' attributes already dictionary-encoded into an
/// [`ItemBatch`]. Attribute strings never leave the ingestor — they are
/// interned into the encoder the caller supplied and flow on as dense item
/// ids.
#[derive(Debug, Clone, Default)]
pub struct EncodedBatch {
    /// Row-major metric values, [`dim`](EncodedBatch::dim) per row.
    pub metrics: Vec<f64>,
    /// Metric dimensionality shared by every row in this batch.
    pub dim: usize,
    /// The rows' encoded attribute items, one row per ingested point.
    pub items: ItemBatch,
}

impl EncodedBatch {
    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Append all of `other`'s rows after this batch's rows; an empty batch
    /// adopts `other`'s buffers instead of copying them, and an empty
    /// `other` changes nothing. Errors if the metric dimensionalities of two
    /// non-empty batches disagree (a malformed source).
    pub(crate) fn append(&mut self, other: EncodedBatch) -> crate::Result<()> {
        // An empty batch's `dim` is whatever its source defaulted to.
        if other.is_empty() {
            return Ok(());
        }
        if self.is_empty() {
            *self = other;
        } else if other.dim != self.dim {
            return Err(crate::PipelineError::InconsistentDimensions {
                expected: self.dim,
                actual: other.dim,
            });
        } else {
            self.metrics.extend_from_slice(&other.metrics);
            self.items.append(&other.items);
        }
        Ok(())
    }
}

/// Reject a columnar batch the one-shot engine cannot run: the row-form
/// [`check_dimensions`](crate::executor::check_dimensions) errors for no
/// rows and for rows without metrics, and a metric buffer that does not hold
/// `dim` values per row.
pub(crate) fn check_columns(batch: &EncodedBatch) -> crate::Result<()> {
    if batch.is_empty() {
        return Err(crate::PipelineError::EmptyInput);
    }
    if batch.dim == 0 {
        return Err(crate::PipelineError::InvalidConfiguration(
            "points must have at least one metric".to_string(),
        ));
    }
    if batch.metrics.len() != batch.len() * batch.dim {
        return Err(crate::PipelineError::InvalidConfiguration(format!(
            "{} metric values for {} rows of {}",
            batch.metrics.len(),
            batch.len(),
            batch.dim
        )));
    }
    Ok(())
}

/// A one-shot query's input in columns — metrics flat, attributes interned
/// into the query's dictionary — plus the trace its construction was timed
/// on. An ingestor or a wire decoder fills [`ColumnarInput::new`] in place;
/// [`ColumnarInput::from_points`] is the adaptor for rows already in memory.
#[derive(Debug)]
pub struct ColumnarInput {
    /// The rows: metrics and encoded attribute items.
    pub batch: EncodedBatch,
    /// The dictionary the batch's items were interned into.
    pub encoder: AttributeEncoder,
    pub(crate) trace: mb_obs::TraceBuilder,
    pub(crate) pool_before: Option<mb_pool::WorkerStats>,
}

impl ColumnarInput {
    /// An empty input for a query `executor` will run over `analysis`: its
    /// attribute dictionary, and a trace carrying the executor's name,
    /// started now, so the work that fills the input is part of the query.
    pub fn new(analysis: &AnalysisConfig, executor: &Executor) -> Self {
        let trace = mb_obs::TraceBuilder::new(analysis.obs, executor.name());
        ColumnarInput {
            batch: EncodedBatch::default(),
            encoder: encoder_for(analysis),
            pool_before: pool_snapshot(&trace),
            trace,
        }
    }

    /// Flatten and dictionary-encode stored points in one walk sharded over
    /// the pool, with the ids a serial pass assigns. A query that skips
    /// explanation never reads the items, so its rows are only counted.
    /// Fails as the one-shot engine does on an empty, zero-metric, or ragged
    /// batch.
    pub fn from_points(
        analysis: &AnalysisConfig,
        executor: &Executor,
        points: &[Point],
    ) -> crate::Result<Self> {
        let mut input = ColumnarInput::new(analysis, executor);
        input.fill(analysis, points)?;
        Ok(input)
    }

    /// Flatten and encode `points` into this empty input, as
    /// [`ColumnarInput::from_points`] does: each encode shard copies its
    /// rows' metrics into its own run of the flat buffer in the walk that
    /// encodes their attributes. A ragged row fails with the error
    /// [`check_dimensions`](crate::executor::check_dimensions) gives, the
    /// first in row order.
    pub(crate) fn fill(
        &mut self,
        analysis: &AnalysisConfig,
        points: &[Point],
    ) -> crate::Result<()> {
        let dim = leading_dimension(points)?;
        let attributes: fn(&Point) -> &[String] = if analysis.skip_explanation {
            |_| &[]
        } else {
            |p| &p.attributes
        };
        let shards = resolve_num_partitions(0);
        let mut metrics = vec![0.0; points.len() * dim];
        let mut rest = metrics.as_mut_slice();
        let timer = self.trace.start();
        let (items, runs) = encode_rows_parallel(
            &mut self.encoder,
            mb_pool::global(),
            points,
            shards,
            attributes,
            |range| {
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * dim);
                rest = tail;
                (run.chunks_exact_mut(dim), None)
            },
            |(rows, ragged), p| match rows.next() {
                Some(row) if p.dimension() == dim => row.copy_from_slice(&p.metrics),
                _ => *ragged = ragged.or(Some(p.dimension())),
            },
        );
        self.trace.finish_stage(
            timer,
            mb_obs::stage::ENCODE,
            points.len(),
            points.len(),
            shards,
        );
        if let Some(actual) = runs.into_iter().find_map(|(_, ragged)| ragged) {
            return Err(crate::PipelineError::InconsistentDimensions {
                expected: dim,
                actual,
            });
        }
        self.batch = EncodedBatch {
            metrics,
            dim,
            items,
        };
        Ok(())
    }
}

/// An ingestor produces the initial stream of points from an external source
/// (`external data source(s) → stream<Point>`).
pub trait Ingestor {
    /// Produce the next batch of points; `Ok(None)` when the source is
    /// exhausted. A mid-stream source failure is an error, so
    /// [`MdpQuery::execute_ingest`](crate::query::MdpQuery::execute_ingest)
    /// fails loudly instead of silently reporting over truncated data.
    fn next_batch(&mut self) -> crate::Result<Option<Vec<Point>>>;

    /// Produce the next batch in columnar, pre-encoded form: metrics in one
    /// flat buffer, attributes interned into `encoder` as an [`ItemBatch`].
    ///
    /// The default adapts [`next_batch`](Ingestor::next_batch), so every
    /// ingestor gets the columnar surface; sources that can encode straight
    /// from their wire format ([`CsvIngestor`]) override it to skip
    /// materializing `Point`s entirely. Encoding order must equal point
    /// order so dictionary ids match a serial `encode_point` pass.
    fn next_encoded_batch(
        &mut self,
        encoder: &mut AttributeEncoder,
    ) -> crate::Result<Option<EncodedBatch>> {
        let Some(points) = self.next_batch()? else {
            return Ok(None);
        };
        let (dim, attributes) = points
            .first()
            .map_or((0, 0), |p| (p.dimension(), p.attributes.len()));
        let mut batch = EncodedBatch {
            metrics: Vec::with_capacity(points.len() * dim),
            dim,
            items: ItemBatch::with_capacity(points.len(), attributes),
        };
        let mut scratch = Vec::new();
        for p in &points {
            if p.dimension() != dim {
                return Err(crate::PipelineError::InconsistentDimensions {
                    expected: dim,
                    actual: p.dimension(),
                });
            }
            batch.metrics.extend_from_slice(&p.metrics);
            encoder.encode_point_into(&p.attributes, &mut scratch);
            batch.items.push_row(&scratch);
        }
        Ok(Some(batch))
    }
}

/// A transformer rewrites points without changing the stream type
/// (`stream<Point> → stream<Point>`), e.g. normalization, STFT features,
/// optical-flow extraction.
pub trait Transformer {
    /// Transform a batch of points.
    fn transform(&mut self, points: Vec<Point>) -> Vec<Point>;
}

/// An ingestor over an in-memory vector of points (batch execution is
/// "streaming over stored data", Section 3.2).
#[derive(Debug, Clone)]
pub struct VecIngestor {
    points: Vec<Point>,
    batch_size: usize,
    cursor: usize,
}

impl VecIngestor {
    /// Create an ingestor that yields `points` in batches of `batch_size`.
    pub fn new(points: Vec<Point>, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        VecIngestor {
            points,
            batch_size,
            cursor: 0,
        }
    }
}

impl Ingestor for VecIngestor {
    fn next_batch(&mut self) -> crate::Result<Option<Vec<Point>>> {
        if self.cursor >= self.points.len() {
            return Ok(None);
        }
        let end = (self.cursor + self.batch_size).min(self.points.len());
        let batch = self.points[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(Some(batch))
    }
}

/// Adapter turning a closure over a single point into a [`Transformer`].
pub struct MapTransformer<F: FnMut(Point) -> Point> {
    f: F,
}

impl<F: FnMut(Point) -> Point> MapTransformer<F> {
    /// Wrap a per-point closure.
    pub fn new(f: F) -> Self {
        MapTransformer { f }
    }
}

impl<F: FnMut(Point) -> Point> Transformer for MapTransformer<F> {
    fn transform(&mut self, points: Vec<Point>) -> Vec<Point> {
        points.into_iter().map(&mut self.f).collect()
    }
}

/// A batching [`Ingestor`] over a CSV source, so an MDP query can run
/// end-to-end from a file without pre-materializing it.
/// [`next_batch`](Ingestor::next_batch) yields [`Point`]s record by record
/// through [`mb_ingest::csv::CsvReader`];
/// [`next_encoded_batch`](Ingestor::next_encoded_batch) reads the same
/// reader by block and never builds a record.
///
/// Rows whose metric cells fail to parse are skipped and counted
/// ([`CsvIngestor::skipped_rows`]); a mid-stream I/O failure is an error
/// ([`PipelineError::Ingest`](crate::PipelineError::Ingest)) that fails the
/// whole query.
pub struct CsvIngestor<R: BufRead> {
    reader: CsvReader<R>,
    batch_size: usize,
    /// Metric columns per row.
    dim: usize,
    /// Attribute columns per row.
    attributes: usize,
    /// One per pool thread, for [`CsvIngestor::encode_block`].
    chunks: Vec<ChunkRows>,
}

impl CsvIngestor<BufReader<File>> {
    /// Open a CSV file and ingest it according to `query` in batches of
    /// `batch_size` points.
    pub fn from_path(
        path: impl AsRef<Path>,
        query: &CsvQuery,
        batch_size: usize,
    ) -> Result<Self, CsvError> {
        // Blocks are borrowed from this buffer, so it is what bounds them.
        let reader = BufReader::with_capacity(BLOCK_BYTES, File::open(path)?);
        Self::new(reader, query, batch_size)
    }
}

/// What parsing one chunk of a CSV block leaves behind: row-major metrics,
/// items whose ids are provisional for values the query's dictionary did
/// not hold when the block was cut, and those values. Owned by the ingestor
/// and reused from block to block (see [`CsvIngestor::encode_block`] for
/// why). Aligned apart: the pool threads filling neighbouring slots write
/// their vectors' lengths on every push.
#[repr(align(128))]
struct ChunkRows {
    metrics: Vec<f64>,
    items: ItemBatch,
    minted: ShardDictionary,
}

/// Parses one chunk into its [`ChunkRows`].
struct ChunkEncode<'a> {
    rows: &'a mut ChunkRows,
    shard: ShardEncoder<'a>,
}

impl RowSink for ChunkEncode<'_> {
    fn row(&mut self, metrics: &[f64]) {
        self.rows.metrics.extend_from_slice(metrics);
    }

    fn attribute(&mut self, slot: usize, value: &str) {
        self.rows.items.push_item(self.shard.encode(slot, value));
    }

    fn end_row(&mut self) {
        self.rows.items.finish_row();
    }
}

impl<R: BufRead> CsvIngestor<R> {
    /// Ingest CSV text from any buffered reader according to `query` in
    /// batches of `batch_size` points. Reads and validates the header
    /// eagerly, so unknown columns fail here rather than mid-stream.
    pub fn new(reader: R, query: &CsvQuery, batch_size: usize) -> Result<Self, CsvError> {
        assert!(batch_size > 0, "batch size must be positive");
        Ok(CsvIngestor {
            reader: CsvReader::new(reader, query)?,
            batch_size,
            dim: query.metric_columns.len(),
            attributes: query.attribute_columns.len(),
            chunks: Vec::new(),
        })
    }

    /// Number of data rows skipped so far because a metric failed to parse
    /// or a column was missing.
    pub fn skipped_rows(&self) -> usize {
        self.reader.skipped_rows()
    }

    /// The reader's next block with any rows in it, as one batch: cut at
    /// line ends into a chunk per pool thread, parsed chunk by chunk on
    /// `pool`, and stitched serially in input order — which is the order a
    /// record-by-record pass meets new attribute values in, so the
    /// dictionary ids (and the reader's skip count, line numbers and first
    /// error) do not depend on how the block was cut or scheduled.
    fn encode_block(
        &mut self,
        pool: &mb_pool::Pool,
        encoder: &mut AttributeEncoder,
    ) -> crate::Result<Option<EncodedBatch>> {
        // Pool threads only write into buffers allocated here, by the
        // caller, once. The allocator keeps an arena per thread; a buffer
        // grows in the arena it was first allocated in, and a small block
        // one thread allocates and another frees is handed out again to
        // the one that freed it. So whatever a pool thread allocated and
        // left for the caller to free seeded the caller's next query-sized
        // vectors, which then grew in the pool thread's arena: +6 MB peak
        // RSS per pool thread on a 250K-row query, in half the runs.
        // (Any capacity will do to start from: growth stays in the arena.)
        const ROWS: usize = 1024;
        let (dim, attributes) = (self.dim, self.attributes);
        let threads = pool.num_threads();
        self.chunks.resize_with(threads, || ChunkRows {
            metrics: Vec::with_capacity(ROWS * dim),
            items: ItemBatch::with_capacity(ROWS, attributes),
            minted: ShardDictionary::with_capacity(ROWS / 16, ROWS),
        });
        loop {
            let frozen = &*encoder;
            let chunks = &mut self.chunks;
            let scanned = self.reader.scan_block(|block| {
                let work = block.chunks(threads).into_iter().zip(chunks.iter_mut());
                let tallies = pool.map_vec(work.collect(), |(chunk, rows)| {
                    rows.metrics.clear();
                    rows.items.clear();
                    let mut sink = ChunkEncode {
                        rows,
                        shard: ShardEncoder::new(frozen),
                    };
                    let tally = block.scan(chunk, &mut sink);
                    sink.shard.finish(&mut sink.rows.minted);
                    tally
                });
                (tallies.len(), tallies)
            });
            let parsed = match scanned {
                Ok(Some(parsed)) => &mut self.chunks[..parsed],
                Ok(None) => return Ok(None),
                Err(e) => return Err(crate::PipelineError::Ingest(Box::new(e))),
            };
            let rows = parsed.iter().map(|chunk| chunk.items.len()).sum();
            if rows == 0 {
                continue;
            }
            let mut batch = EncodedBatch {
                metrics: Vec::with_capacity(rows * dim),
                dim,
                items: ItemBatch::with_capacity(rows, attributes),
            };
            for chunk in parsed {
                let remap = chunk.minted.intern(encoder);
                remap.apply(chunk.items.items_mut());
                batch.metrics.extend_from_slice(&chunk.metrics);
                batch.items.append(&chunk.items);
            }
            return Ok(Some(batch));
        }
    }
}

impl<R: BufRead> Ingestor for CsvIngestor<R> {
    fn next_batch(&mut self) -> crate::Result<Option<Vec<Point>>> {
        let mut batch = Vec::with_capacity(self.batch_size);
        while batch.len() < self.batch_size {
            match self.reader.next_record() {
                Ok(Some(record)) => batch.push(Point::new(record.metrics, record.attributes)),
                Ok(None) => break,
                Err(e) => return Err(crate::PipelineError::Ingest(Box::new(e))),
            }
        }
        if batch.is_empty() {
            Ok(None)
        } else {
            Ok(Some(batch))
        }
    }

    /// CSV cells encode straight from the bytes the reader buffered — no
    /// `Record`, no `Point`, no owned attribute string except a value's
    /// first. Batches follow the reader's blocks rather than `batch_size`,
    /// which no report can observe.
    fn next_encoded_batch(
        &mut self,
        encoder: &mut AttributeEncoder,
    ) -> crate::Result<Option<EncodedBatch>> {
        self.encode_block(mb_pool::global(), encoder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` rows of `dim` metrics over three attribute columns whose values
    /// recur, arrive late and repeat across columns.
    fn stored_rows(n: usize, dim: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let metrics = (0..dim).map(|d| (i * 7 + d) as f64 * 0.5).collect();
                let attributes = vec![
                    format!("device_{}", i % 37),
                    format!("fw_{}", i / 90),
                    format!("device_{}", i % 5),
                ];
                Point::new(metrics, attributes)
            })
            .collect()
    }

    /// What `from_points` did before the metric copy rode the encode walk:
    /// a serial flatten, then a serial `encode_point` loop (or, skipping
    /// explanation, only the row count).
    fn flatten_then_encode(
        analysis: &AnalysisConfig,
        points: &[Point],
    ) -> (EncodedBatch, AttributeEncoder) {
        let dim = crate::executor::check_dimensions(points).unwrap();
        let mut encoder = encoder_for(analysis);
        let items = points
            .iter()
            .map(|p| match analysis.skip_explanation {
                true => Vec::new(),
                false => encoder.encode_point(&p.attributes),
            })
            .collect();
        let metrics = crate::executor::flatten_metrics(points, dim);
        (EncodedBatch { metrics, dim, items }, encoder)
    }

    #[test]
    fn from_points_equals_a_serial_flatten_and_encode_loop() {
        let named = AnalysisConfig {
            attribute_names: vec!["device".to_string(), "fw".to_string()],
            ..AnalysisConfig::default()
        };
        let skipping = AnalysisConfig {
            skip_explanation: true,
            ..AnalysisConfig::default()
        };
        for analysis in [AnalysisConfig::default(), named, skipping] {
            for (n, dim) in [(1, 1), (2, 3), (7, 2), (1_000, 1), (5_003, 4)] {
                let points = stored_rows(n, dim);
                let input =
                    ColumnarInput::from_points(&analysis, &Executor::OneShot, &points).unwrap();
                let (batch, encoder) = flatten_then_encode(&analysis, &points);
                assert_eq!(input.batch.metrics, batch.metrics, "{n} rows of {dim}");
                assert_eq!(input.batch.dim, dim);
                assert_eq!(input.batch.items, batch.items, "{n} rows of {dim}");
                assert_eq!(input.encoder.cardinality(), encoder.cardinality());
                assert_eq!(input.encoder.column_names(), encoder.column_names());
                for item in 0..encoder.cardinality() as mb_fpgrowth::Item {
                    assert_eq!(input.encoder.decode(item), encoder.decode(item));
                }
                if analysis.skip_explanation {
                    assert_eq!((input.batch.len(), input.batch.items.num_items()), (n, 0));
                }
            }
        }
    }

    #[test]
    fn from_points_fails_as_the_row_checks_do() {
        let analysis = AnalysisConfig::default();
        let error = |points: &[Point]| {
            let fused =
                ColumnarInput::from_points(&analysis, &Executor::OneShot, points).unwrap_err();
            let checked = crate::executor::check_dimensions(points).unwrap_err();
            assert_eq!(format!("{fused:?}"), format!("{checked:?}"));
            fused
        };
        assert!(matches!(error(&[]), crate::PipelineError::EmptyInput));
        let mut points = stored_rows(4_000, 2);
        points[0].metrics.clear();
        assert!(matches!(
            error(&points),
            crate::PipelineError::InvalidConfiguration(_)
        ));

        // The last row is in the last shard at any pool width, and with two
        // or more pool threads rows 1 and 3,999 are in different shards: the
        // first ragged row in row order is reported, whichever shard holds
        // it.
        let mut points = stored_rows(4_000, 2);
        points[3_999].metrics.push(1.0);
        assert!(matches!(
            error(&points),
            crate::PipelineError::InconsistentDimensions { expected: 2, actual: 3 }
        ));
        points[1].metrics.clear();
        assert!(matches!(
            error(&points),
            crate::PipelineError::InconsistentDimensions { expected: 2, actual: 0 }
        ));
        points[0].metrics.push(1.0);
        assert!(matches!(
            error(&points),
            crate::PipelineError::InconsistentDimensions { expected: 3, actual: 0 }
        ));
    }

    #[test]
    fn vec_ingestor_batches_everything_once() {
        let points: Vec<Point> = (0..10).map(|i| Point::simple(i as f64, "a")).collect();
        let mut ingestor = VecIngestor::new(points, 3);
        let mut total = 0;
        let mut batches = 0;
        while let Some(batch) = ingestor.next_batch().unwrap() {
            total += batch.len();
            batches += 1;
        }
        assert_eq!(total, 10);
        assert_eq!(batches, 4);
        assert!(ingestor.next_batch().unwrap().is_none());
    }

    #[test]
    fn map_transformer_applies_per_point() {
        let mut t = MapTransformer::new(|mut p: Point| {
            p.metrics[0] *= 2.0;
            p
        });
        let out = t.transform(vec![Point::simple(2.0, "x"), Point::simple(3.0, "y")]);
        assert_eq!(out[0].metrics[0], 4.0);
        assert_eq!(out[1].metrics[0], 6.0);
    }

    #[test]
    fn csv_ingestor_streams_batches_of_points() {
        let csv = "power,device\n1.0,a\n2.0,b\nbad,c\n3.0,d\n";
        let query = CsvQuery::new(vec!["power".to_string()], vec!["device".to_string()]);
        let mut ingestor =
            CsvIngestor::new(std::io::Cursor::new(csv), &query, 2).unwrap();
        let first = ingestor.next_batch().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].metrics, vec![1.0]);
        assert_eq!(first[1].attributes, vec!["b".to_string()]);
        let second = ingestor.next_batch().unwrap().unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].metrics, vec![3.0]);
        assert!(ingestor.next_batch().unwrap().is_none());
        assert_eq!(ingestor.skipped_rows(), 1);
    }

    #[test]
    fn strict_csv_ingest_errors_carry_line_and_column_context() {
        // Malformed row mid-file: header is line 1, the bad metric sits on
        // line 4. The surfaced PipelineError::Ingest message must say so.
        let csv = "power,device\n1.0,a\n2.0,b\nbad,c\n3.0,d\n";
        let query =
            CsvQuery::new(vec!["power".to_string()], vec!["device".to_string()]).strict();
        let mut ingestor = CsvIngestor::new(std::io::Cursor::new(csv), &query, 16).unwrap();
        let err = ingestor.next_batch().unwrap_err();
        assert!(matches!(err, crate::PipelineError::Ingest(_)));
        let message = err.to_string();
        assert!(message.contains("line 4"), "no position in: {message}");
        assert!(message.contains("power"), "no column in: {message}");
        assert!(message.contains("bad"), "no offending value in: {message}");
    }

    #[test]
    fn csv_ingestor_rejects_unknown_columns_eagerly() {
        let query = CsvQuery::new(vec!["nope".to_string()], vec![]);
        assert!(CsvIngestor::new(std::io::Cursor::new("a,b\n1,2\n"), &query, 8).is_err());
    }

    /// Rows whose attribute values recur, arrive late, and need unescaping;
    /// malformed rows and blank lines every few lines, so that at some
    /// buffer size each is the first or the last line of a chunk.
    fn ragged_csv(rows: usize) -> String {
        let mut csv = String::from("power,device,unused,\"site\"\n");
        for i in 0..rows {
            match i % 11 {
                3 => csv.push_str("not_a_number,d0,,s0\n"),
                5 => csv.push_str("\n  \n"),
                8 => csv.push_str("7.5,short\r\n"),
                _ => {}
            }
            csv.push_str(&format!(
                "{}.25, d{} ,{},\"s{}, \"\"{}\"\"\"\n",
                i % 97,
                (i * i) % 23 + i / 150,
                "x".repeat(i % 40),
                i % 5,
                i / 300,
            ));
        }
        csv.push_str("1.0,last,,no final newline");
        csv
    }

    fn ragged_query() -> CsvQuery {
        CsvQuery::new(
            vec!["power".to_string()],
            vec!["device".to_string(), "site".to_string()],
        )
    }

    /// The serial pass the chunked path must reproduce: record by record,
    /// each encoded as it arrives.
    fn record_by_record(csv: &str, query: &CsvQuery) -> (EncodedBatch, AttributeEncoder, usize) {
        let mut reader = CsvReader::new(csv.as_bytes(), query).unwrap();
        let mut encoder = AttributeEncoder::new();
        let mut batch = EncodedBatch {
            dim: query.metric_columns.len(),
            ..EncodedBatch::default()
        };
        let mut scratch = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            batch.metrics.extend_from_slice(&record.metrics);
            encoder.encode_point_into(&record.attributes, &mut scratch);
            batch.items.push_row(&scratch);
        }
        (batch, encoder, reader.skipped_rows())
    }

    fn by_block(
        csv: &str,
        query: &CsvQuery,
        capacity: usize,
        pool: &mb_pool::Pool,
    ) -> crate::Result<(EncodedBatch, AttributeEncoder, usize)> {
        let reader = BufReader::with_capacity(capacity, csv.as_bytes());
        let mut ingestor = CsvIngestor::new(reader, query, 1).unwrap();
        let mut encoder = AttributeEncoder::new();
        let mut all = EncodedBatch::default();
        while let Some(batch) = ingestor.encode_block(pool, &mut encoder)? {
            assert!(!batch.is_empty());
            all.append(batch)?;
        }
        Ok((all, encoder, ingestor.skipped_rows()))
    }

    #[test]
    fn chunked_ingest_equals_the_record_by_record_pass() {
        let csv = ragged_csv(700);
        let query = ragged_query();
        let (batch, encoder, skipped) = record_by_record(&csv, &query);
        assert!(batch.len() > 600 && skipped > 100 && encoder.cardinality() > 30);
        for threads in [1, 2, 3, 8] {
            let pool = mb_pool::Pool::new(threads);
            // Every buffer size in a stretch longer than the longest row
            // puts a block boundary at every offset into a row; the large
            // ones give blocks of many rows to cut.
            for capacity in (64..160).chain([1 << 10, 1 << 12, 1 << 20]) {
                let (chunked, chunked_encoder, chunked_skipped) =
                    by_block(&csv, &query, capacity, &pool).unwrap();
                let context = format!("{threads} threads, {capacity}-byte buffer");
                assert_eq!(chunked.dim, 1, "{context}");
                assert_eq!(chunked.metrics, batch.metrics, "{context}");
                assert_eq!(chunked.items, batch.items, "{context}");
                assert_eq!(chunked_skipped, skipped, "{context}");
                assert_eq!(chunked_encoder.cardinality(), encoder.cardinality(), "{context}");
                for item in 0..encoder.cardinality() as u32 {
                    assert_eq!(chunked_encoder.decode(item), encoder.decode(item), "{context}");
                }
            }
        }
    }

    #[test]
    fn chunked_strict_errors_name_the_line_the_record_pass_names() {
        // Cut anywhere, the first malformed row (line 5) is the error.
        let csv = ragged_csv(40);
        let query = ragged_query().strict();
        let mut reader = CsvReader::new(csv.as_bytes(), &query).unwrap();
        let expected = loop {
            match reader.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("no malformed row"),
                Err(e) => break e.to_string(),
            }
        };
        assert!(expected.contains("line 5") && expected.contains("not_a_number"), "{expected}");
        for threads in [1, 2, 3, 8] {
            let pool = mb_pool::Pool::new(threads);
            for capacity in [64, 100, 256, 1 << 12] {
                let Err(error) = by_block(&csv, &query, capacity, &pool) else {
                    panic!("strict ingest passed a malformed row");
                };
                assert!(matches!(error, crate::PipelineError::Ingest(_)));
                assert!(error.to_string().contains(&expected), "{error} vs {expected}");
            }
        }
        // With that kind made valid the first is a short row on line 13,
        // after two blank lines, which count.
        let csv = ragged_csv(40).replace("not_a_number", "0");
        let mut reader = CsvReader::new(csv.as_bytes(), &query).unwrap();
        let expected = loop {
            if let Err(e) = reader.next_record() {
                break e.to_string();
            }
        };
        assert!(expected.contains("line 13") && expected.contains("missing"), "{expected}");
        let pool = mb_pool::Pool::new(3);
        for capacity in 64..200 {
            let error = by_block(&csv, &query, capacity, &pool).err().unwrap();
            assert!(error.to_string().contains(&expected), "{error} vs {expected}");
        }
    }

    #[test]
    fn encoded_batches_append_by_adoption_then_by_copy() {
        let batch = |metrics: Vec<f64>, dim| EncodedBatch {
            items: metrics.chunks(dim).map(|_| vec![7]).collect(),
            metrics,
            dim,
        };
        let mut all = EncodedBatch::default();
        let first = batch(vec![1.0, 2.0], 1);
        let buffer = first.metrics.as_ptr();
        all.append(first).unwrap();
        assert_eq!(all.metrics.as_ptr(), buffer, "the first batch is adopted, not copied");
        all.append(batch(vec![3.0], 1)).unwrap();
        assert_eq!((all.metrics.as_slice(), all.len()), (&[1.0, 2.0, 3.0][..], 3));
        assert!(matches!(
            all.append(batch(vec![4.0, 5.0], 2)),
            Err(crate::PipelineError::InconsistentDimensions { expected: 1, actual: 2 })
        ));
    }

    #[test]
    fn default_encoded_batches_size_from_the_first_point() {
        let points: Vec<Point> = (0..4)
            .map(|i| Point::new(vec![i as f64], vec!["a".into(), "b".into(), format!("c{i}")]))
            .collect();
        let mut encoder = AttributeEncoder::new();
        let batch = VecIngestor::new(points, 8)
            .next_encoded_batch(&mut encoder)
            .unwrap()
            .unwrap();
        assert_eq!((batch.len(), batch.dim, batch.items.num_items()), (4, 1, 12));
        assert_eq!(batch.items.row(3), &[0, 1, 5]);
    }
}
