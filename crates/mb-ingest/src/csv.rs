#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Minimal CSV ingestion.
//!
//! MacroBase's reference implementation ingests from JDBC/CSV sources; this
//! module provides the CSV path. The reader handles the common cases the
//! evaluation data needs — headers, configurable delimiter, quoted fields —
//! and maps named columns onto metrics and attributes, skipping rows whose
//! metric cells fail to parse (with a count of how many were skipped). In
//! [strict mode](CsvQuery::strict) a malformed row is instead an error that
//! carries its line number and the offending column.
//!
//! There is one parser, and it works on bytes where the `BufRead` buffered
//! them: lines end at `\n`, cells are found by a word-at-a-time search for
//! `"` and the delimiter that stops at the last column the query names, and
//! only those columns' cells are checked for UTF-8, unescaped, trimmed and
//! parsed. [`CsvReader::next_record`] wraps it one owned [`Record`] at a
//! time; [`CsvReader::scan_block`] hands out whole [`Block`]s whose chunks
//! can be parsed independently into a [`RowSink`].

use crate::Record;
use std::io::BufRead;

/// Errors produced by CSV ingestion.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input had no header row.
    MissingHeader,
    /// A requested column name was not present in the header.
    UnknownColumn(String),
    /// A data row could not be parsed ([strict mode](CsvQuery::strict) only;
    /// by default malformed rows are skipped and counted).
    MalformedRow {
        /// 1-based line number in the input (the header is line 1).
        line: usize,
        /// Name of the column that failed.
        column: String,
        /// The offending cell text, or `None` when the field was missing
        /// from the row entirely.
        value: Option<String>,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::MissingHeader => write!(f, "CSV input has no header row"),
            CsvError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            CsvError::MalformedRow {
                line,
                column,
                value: Some(value),
            } => write!(
                f,
                "line {line}: metric column {column:?} has unparseable value {value:?}"
            ),
            CsvError::MalformedRow {
                line,
                column,
                value: None,
            } => write!(f, "line {line}: row is missing column {column:?}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Configuration of a CSV ingestion query: which columns are metrics and
/// which are attributes.
#[derive(Debug, Clone)]
pub struct CsvQuery {
    /// Names of the metric columns (parsed as `f64`).
    pub metric_columns: Vec<String>,
    /// Names of the attribute columns (kept as strings).
    pub attribute_columns: Vec<String>,
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Fail on the first malformed data row instead of skipping it
    /// (default `false`). The resulting [`CsvError::MalformedRow`] carries
    /// the 1-based line number and the column that failed.
    pub strict: bool,
}

impl CsvQuery {
    /// Create a query over the given metric and attribute column names.
    pub fn new(metric_columns: Vec<String>, attribute_columns: Vec<String>) -> Self {
        CsvQuery {
            metric_columns,
            attribute_columns,
            delimiter: ',',
            strict: false,
        }
    }

    /// Turn malformed data rows into positioned errors instead of skips.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }
}

/// Most bytes [`CsvReader::scan_block`] hands out at once. Blocks are
/// borrowed from the `BufRead`'s own buffer, so a reader that wants blocks
/// this large must buffer this much (`CsvIngestor::from_path` does); what a
/// block costs beyond that buffer is its parsed rows, about a tenth of it.
pub const BLOCK_BYTES: usize = 1 << 20;

/// Receives the projected cells of each well-formed row, in input order.
///
/// One row is one [`row`](RowSink::row) call, then one
/// [`attribute`](RowSink::attribute) call per attribute column in query
/// order, then [`end_row`](RowSink::end_row). Malformed and blank rows never
/// reach the sink. A scan that ends in a failure may stop between those
/// calls, so the sink of a failed scan holds a partial row and must be
/// dropped.
pub trait RowSink {
    /// Start a row with its metric values, in query order.
    fn row(&mut self, metrics: &[f64]);
    /// The row's value for attribute column `slot`: unquoted, trimmed, and
    /// borrowed from the input unless the cell had to be unescaped.
    fn attribute(&mut self, slot: usize, value: &str);
    /// The row is complete.
    fn end_row(&mut self);
}

impl RowSink for Record {
    fn row(&mut self, metrics: &[f64]) {
        self.metrics.extend_from_slice(metrics);
    }

    fn attribute(&mut self, _slot: usize, value: &str) {
        self.attributes.push(value.to_owned());
    }

    fn end_row(&mut self) {}
}

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Each needle repeated in all eight bytes of a word.
fn splat<const N: usize>(needles: [u8; N]) -> [u64; N] {
    needles.map(|b| LO * u64::from(b))
}

/// Flag (in their high bits) the bytes of `word` that equal a needle.
/// `(x - LO) & !x & HI` flags the zero bytes of `x`; a borrow can falsely
/// flag a byte *above* a true zero, never below one, so the lowest flag is
/// exact — also across the OR of the needles — and any other must be
/// checked against the byte it names.
#[inline]
fn flag_bytes<const N: usize>(word: [u8; 8], needles: [u64; N]) -> u64 {
    let word = u64::from_le_bytes(word);
    needles.iter().fold(0, |flags, needle| {
        let x = word ^ needle;
        flags | (x.wrapping_sub(LO) & !x & HI)
    })
}

/// First index at or after `from` that holds one of `needles`, eight bytes
/// per step.
#[inline]
fn find_byte<const N: usize>(hay: &[u8], from: usize, needles: [u8; N]) -> Option<usize> {
    let splat = splat(needles);
    let mut i = from;
    while i + 8 <= hay.len() {
        let mut word = [0u8; 8];
        word.copy_from_slice(&hay[i..i + 8]);
        let flags = flag_bytes(word, splat);
        if flags != 0 {
            return Some(i + (flags.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    let tail = hay.get(i..)?;
    tail.iter().position(|b| needles.contains(b)).map(|p| i + p)
}

/// Strip one trailing `\r`, as `BufRead::lines` does after the `\n`.
fn strip_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// Whether `str::trim` would leave nothing of the line. Only a line that
/// starts with white space or a non-ASCII character is looked at past its
/// first byte; bytes that are not UTF-8 are not white space.
fn is_blank(line: &[u8]) -> bool {
    match line
        .iter()
        .position(|&b| !matches!(b, b'\t'..=b'\r' | b' '))
    {
        None => true,
        Some(p) if line[p].is_ascii() => false,
        Some(p) => std::str::from_utf8(&line[p..]).is_ok_and(|s| s.trim_start().is_empty()),
    }
}

/// Where one cell sits in its line, quotes and padding included.
#[derive(Debug, Clone, Copy)]
struct Cell {
    start: usize,
    end: usize,
    /// The cell contains a `"`, so its text must be unescaped.
    quoted: bool,
}

/// Hand `on_cell` the cells of one line, left to right, until it returns
/// `false`. A `"` toggles quoting wherever it stands (`""` toggles twice,
/// which is why finding delimiters needs no look-ahead); a delimiter inside
/// quotes is text. The delimiter is matched as a byte string, which for
/// UTF-8 input is matching it as a character.
///
/// Eight bytes per step; every flag of a word is read, so each is checked.
#[inline]
fn walk_cells(line: &[u8], delimiter: &[u8], mut on_cell: impl FnMut(Cell) -> bool) {
    let needles = splat([b'"', delimiter[0]]);
    let (mut start, mut in_quotes, mut quoted) = (0, false, false);
    let mut at = 0;
    while at < line.len() {
        let rest = &line[at..];
        let mut word = [0u8; 8];
        let taken = match rest.get(..8) {
            Some(full) => {
                word.copy_from_slice(full);
                8
            }
            None => {
                word[..rest.len()].copy_from_slice(rest);
                rest.len()
            }
        };
        let mut hits = flag_bytes(word, needles);
        // Zero padding past the line's end must not flag (a NUL delimiter).
        hits &= u64::MAX >> (64 - 8 * taken);
        while hits != 0 {
            let p = at + (hits.trailing_zeros() / 8) as usize;
            hits &= hits - 1;
            let byte = line[p];
            if byte == b'"' {
                in_quotes = !in_quotes;
                quoted = true;
            } else if !in_quotes
                && byte == delimiter[0]
                && (delimiter.len() == 1 || line[p..].starts_with(delimiter))
            {
                if !on_cell(Cell {
                    start,
                    end: p,
                    quoted,
                }) {
                    return;
                }
                start = p + delimiter.len();
                quoted = false;
            }
        }
        at += taken;
    }
    on_cell(Cell {
        start,
        end: line.len(),
        quoted,
    });
}

/// Drop a cell's quoting: outside quotes a `"` opens them, inside `""` is a
/// literal quote and a lone `"` closes them.
fn unescape(raw: &str, out: &mut String) {
    out.clear();
    let mut in_quotes = false;
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '"' {
            out.push(c);
        } else if in_quotes && chars.peek() == Some(&'"') {
            out.push('"');
            chars.next();
        } else {
            in_quotes = !in_quotes;
        }
    }
}

/// A cell's text: validated, unescaped when it holds a quote, trimmed.
fn cell_text<'a>(
    line: &'a [u8],
    cell: Cell,
    unescaped: &'a mut String,
) -> Result<&'a str, std::str::Utf8Error> {
    let raw = std::str::from_utf8(&line[cell.start..cell.end])?;
    if cell.quoted {
        unescape(raw, unescaped);
        Ok(unescaped.trim())
    } else {
        Ok(raw.trim())
    }
}

/// Why a line produced no row.
#[derive(Debug)]
enum Failure {
    /// A projected column is missing from the row (`value: None`) or a
    /// metric cell is not a finite number.
    Malformed {
        /// Position in the query's metric or attribute list.
        slot: usize,
        is_metric: bool,
        value: Option<String>,
    },
    /// A projected cell is not UTF-8.
    InvalidUtf8,
}

/// What one line turned out to be.
enum Line {
    Blank,
    Row,
    /// Malformed, and the query is not strict.
    Skipped,
    Failed(Failure),
}

/// Buffers one scan reuses from line to line.
#[derive(Default)]
struct Scratch {
    /// The projected cells found in the current line, in column order.
    cells: Vec<Cell>,
    metrics: Vec<f64>,
    unescaped: String,
}

/// A [`CsvQuery`] resolved against one file's header: which columns to keep
/// and where each metric and attribute slot reads from.
#[derive(Debug)]
struct RowScanner {
    /// The delimiter's UTF-8 bytes.
    delimiter: Vec<u8>,
    strict: bool,
    /// Header indices of the projected columns, ascending, each once.
    wanted: Vec<usize>,
    /// Per metric slot, the position in `wanted` of the column it reads.
    metric_cells: Vec<usize>,
    /// Per attribute slot, likewise.
    attribute_cells: Vec<usize>,
}

impl RowScanner {
    fn new(query: &CsvQuery, metric_idx: &[usize], attribute_idx: &[usize]) -> Self {
        let mut wanted: Vec<usize> = metric_idx.iter().chain(attribute_idx).copied().collect();
        wanted.sort_unstable();
        wanted.dedup();
        let cell_of = |idx: &[usize]| -> Vec<usize> {
            idx.iter()
                .map(|column| wanted.partition_point(|w| w < column))
                .collect()
        };
        RowScanner {
            delimiter: query.delimiter.to_string().into_bytes(),
            strict: query.strict,
            metric_cells: cell_of(metric_idx),
            attribute_cells: cell_of(attribute_idx),
            wanted,
        }
    }

    /// Parse one line (its line ending already removed) and hand a
    /// well-formed row to `sink`. Scanning stops at the last projected
    /// column, and only projected cells are validated, trimmed and parsed.
    fn scan_line<S: RowSink>(&self, line: &[u8], scratch: &mut Scratch, sink: &mut S) -> Line {
        if is_blank(line) {
            return Line::Blank;
        }
        scratch.cells.clear();
        if !self.wanted.is_empty() {
            let cells = &mut scratch.cells;
            let (mut column, mut next) = (0, 0);
            walk_cells(line, &self.delimiter, |cell| {
                if column == self.wanted[next] {
                    cells.push(cell);
                    next += 1;
                }
                column += 1;
                next < self.wanted.len()
            });
        }

        // Metrics first, then attributes, each in query order: the first
        // column that fails is the one a strict error names.
        scratch.metrics.clear();
        let mut bad = None;
        for (slot, &at) in self.metric_cells.iter().enumerate() {
            let mut value = None;
            if let Some(&cell) = scratch.cells.get(at) {
                let Ok(text) = cell_text(line, cell, &mut scratch.unescaped) else {
                    return Line::Failed(Failure::InvalidUtf8);
                };
                match text.parse::<f64>() {
                    Ok(v) if v.is_finite() => {
                        scratch.metrics.push(v);
                        continue;
                    }
                    _ => value = Some(text.to_owned()),
                }
            }
            bad = Some(Failure::Malformed {
                slot,
                is_metric: true,
                value,
            });
            break;
        }
        if bad.is_none() {
            let found = scratch.cells.len();
            bad = self
                .attribute_cells
                .iter()
                .position(|&at| at >= found)
                .map(|slot| Failure::Malformed {
                    slot,
                    is_metric: false,
                    value: None,
                });
        }
        if let Some(bad) = bad {
            // A line that is not UTF-8 has always been an I/O error before
            // anything else about it was looked at.
            let invalid = |cell: &Cell| std::str::from_utf8(&line[cell.start..cell.end]).is_err();
            return if scratch.cells.iter().any(invalid) {
                Line::Failed(Failure::InvalidUtf8)
            } else if self.strict {
                Line::Failed(bad)
            } else {
                Line::Skipped
            };
        }

        sink.row(&scratch.metrics);
        for (slot, &at) in self.attribute_cells.iter().enumerate() {
            match cell_text(line, scratch.cells[at], &mut scratch.unescaped) {
                Ok(text) => sink.attribute(slot, text),
                Err(_) => return Line::Failed(Failure::InvalidUtf8),
            }
        }
        sink.end_row();
        Line::Row
    }

    /// Parse every line of `chunk` (whole lines; only the input's last may
    /// lack its `\n`). Lines end at every `\n`, quoted or not. Stops at the
    /// first failure.
    fn scan<S: RowSink>(&self, chunk: &[u8], sink: &mut S) -> ChunkTally {
        let mut scratch = Scratch::default();
        let mut tally = ChunkTally::default();
        let mut pos = 0;
        while pos < chunk.len() {
            let end = find_byte(chunk, pos, [b'\n']).unwrap_or(chunk.len());
            tally.lines += 1;
            match self.scan_line(strip_cr(&chunk[pos..end]), &mut scratch, sink) {
                Line::Blank | Line::Row => {}
                Line::Skipped => tally.skipped += 1,
                Line::Failed(failure) => {
                    tally.failure = Some(failure);
                    break;
                }
            }
            pos = end + 1;
        }
        tally
    }
}

/// What scanning one chunk of a [`Block`] found, to be handed back to
/// [`CsvReader::scan_block`] in input order.
#[derive(Debug, Default)]
pub struct ChunkTally {
    /// Lines read, the failing one included.
    lines: usize,
    skipped: usize,
    failure: Option<Failure>,
}

/// A run of whole lines borrowed from the reader, with the query to scan
/// them by. Chunks of one block share nothing, so they can be scanned in
/// any order or at once.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    bytes: &'a [u8],
    scanner: &'a RowScanner,
}

impl<'a> Block<'a> {
    /// Cut the block after line ends into at most `n` chunks of about equal
    /// size, in input order.
    pub fn chunks(&self, n: usize) -> Vec<&'a [u8]> {
        let bytes = self.bytes;
        let target = bytes.len().div_ceil(n.max(1)).max(1);
        let mut chunks = Vec::with_capacity(n);
        let mut start = 0;
        while start < bytes.len() {
            let end = find_byte(bytes, start + target - 1, [b'\n']).map_or(bytes.len(), |p| p + 1);
            chunks.push(&bytes[start..end]);
            start = end;
        }
        chunks
    }

    /// Parse one of [`chunks`](Block::chunks) into `sink`.
    pub fn scan<S: RowSink>(&self, chunk: &[u8], sink: &mut S) -> ChunkTally {
        self.scanner.scan(chunk, sink)
    }
}

/// Where the reader's next whole lines are.
enum Span {
    /// The first `n` bytes of the reader's buffer.
    Buffered(usize),
    /// One line, already taken out of the reader into `carry`.
    Carried,
    End,
}

impl Span {
    /// The lines themselves; `None` at the end of input.
    fn bytes<'a, R: BufRead>(
        &self,
        reader: &'a mut R,
        carry: &'a [u8],
    ) -> std::io::Result<Option<&'a [u8]>> {
        Ok(match *self {
            Span::Buffered(n) => Some(&reader.fill_buf()?[..n]),
            Span::Carried => Some(carry),
            Span::End => None,
        })
    }

    /// Done with the lines: the next [`locate`] finds the ones after them.
    fn release<R: BufRead>(self, reader: &mut R, carry: &mut Vec<u8>) {
        match self {
            Span::Buffered(n) => reader.consume(n),
            Span::Carried | Span::End => carry.clear(),
        }
    }
}

/// A streaming CSV reader: parses the header eagerly (so unknown columns
/// fail at construction), then yields [`Record`]s one at a time without
/// materializing the file. Batch ingestion into a running query goes
/// through
/// `macrobase_core::operator::CsvIngestor`, which reads by
/// [block](CsvReader::scan_block) instead.
///
/// Lines are parsed where the `BufRead` buffered them; only a line that
/// straddles two fills of that buffer is copied.
pub struct CsvReader<R: BufRead> {
    reader: R,
    /// The start of a line whose end the reader has not buffered yet.
    carry: Vec<u8>,
    scanner: RowScanner,
    scratch: Scratch,
    /// Column names by slot, kept for error context (read only when a row
    /// is malformed, never on the hot path).
    metric_names: Vec<String>,
    attribute_names: Vec<String>,
    skipped_rows: usize,
    /// 1-based line number of the most recently read line (the header is
    /// line 1).
    line_number: usize,
}

/// Find the next whole lines of `reader`: all the buffer holds (up to
/// [`BLOCK_BYTES`]) when `block`, else one. A line the buffer holds only the
/// start of is completed in `carry` and comes out alone.
fn locate<R: BufRead>(reader: &mut R, carry: &mut Vec<u8>, block: bool) -> std::io::Result<Span> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            // The input's last line may lack its `\n`.
            return Ok(if carry.is_empty() {
                Span::End
            } else {
                Span::Carried
            });
        }
        let window = &buf[..buf.len().min(BLOCK_BYTES)];
        let line_end = if block && carry.is_empty() {
            window.iter().rposition(|&b| b == b'\n')
        } else {
            find_byte(window, 0, [b'\n'])
        };
        let taken = match line_end {
            Some(p) if carry.is_empty() => return Ok(Span::Buffered(p + 1)),
            Some(p) => p + 1,
            None => window.len(),
        };
        carry.extend_from_slice(&window[..taken]);
        reader.consume(taken);
        if line_end.is_some() {
            return Ok(Span::Carried);
        }
    }
}

/// Strip the line ending `BufRead::lines` would: one `\n`, plus a preceding
/// `\r` if present — nothing else.
fn strip_line_ending(line: &[u8]) -> &[u8] {
    strip_cr(line.strip_suffix(b"\n").unwrap_or(line))
}

fn invalid_utf8() -> CsvError {
    CsvError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

impl<R: BufRead> CsvReader<R> {
    /// Read and validate the header, resolving `query`'s column names to
    /// field indices. A UTF-8 byte-order mark before the header is dropped.
    pub fn new(mut reader: R, query: &CsvQuery) -> Result<Self, CsvError> {
        let mut carry = Vec::new();
        let span = locate(&mut reader, &mut carry, false)?;
        let Some(line) = span.bytes(&mut reader, &carry)? else {
            return Err(CsvError::MissingHeader);
        };
        let line = strip_line_ending(line);
        let line = line.strip_prefix(b"\xEF\xBB\xBF").unwrap_or(line);
        let delimiter = query.delimiter.to_string();
        let mut unescaped = String::new();
        let mut header = Vec::new();
        let mut cells = Vec::new();
        walk_cells(line, delimiter.as_bytes(), |cell| {
            cells.push(cell);
            true
        });
        for cell in cells {
            match cell_text(line, cell, &mut unescaped) {
                Ok(name) => header.push(name.to_owned()),
                Err(_) => return Err(invalid_utf8()),
            }
        }
        span.release(&mut reader, &mut carry);
        let find = |name: &String| -> Result<usize, CsvError> {
            header
                .iter()
                .position(|h| h == name)
                .ok_or_else(|| CsvError::UnknownColumn(name.clone()))
        };
        let metric_idx: Vec<usize> = query
            .metric_columns
            .iter()
            .map(find)
            .collect::<Result<_, _>>()?;
        let attribute_idx: Vec<usize> = query
            .attribute_columns
            .iter()
            .map(find)
            .collect::<Result<_, _>>()?;
        Ok(CsvReader {
            reader,
            carry,
            scanner: RowScanner::new(query, &metric_idx, &attribute_idx),
            scratch: Scratch::default(),
            metric_names: query.metric_columns.clone(),
            attribute_names: query.attribute_columns.clone(),
            skipped_rows: 0,
            line_number: 1,
        })
    }

    /// Number of data rows skipped so far because a metric failed to parse
    /// or a column was missing.
    pub fn skipped_rows(&self) -> usize {
        self.skipped_rows
    }

    /// The error for a failure on the line `line_number` now names.
    fn failed(&self, failure: Failure) -> CsvError {
        match failure {
            Failure::InvalidUtf8 => invalid_utf8(),
            Failure::Malformed {
                slot,
                is_metric,
                value,
            } => {
                let names = if is_metric {
                    &self.metric_names
                } else {
                    &self.attribute_names
                };
                CsvError::MalformedRow {
                    line: self.line_number,
                    column: names[slot].clone(),
                    value,
                }
            }
        }
    }

    /// The next successfully parsed record; `Ok(None)` at end of input.
    /// Unparseable rows are skipped (and counted) — or, in
    /// [strict mode](CsvQuery::strict), returned as
    /// [`CsvError::MalformedRow`] with line and column context. I/O
    /// failures are always errors, and so is a projected cell that is not
    /// UTF-8; cells outside the query are not inspected.
    pub fn next_record(&mut self) -> Result<Option<Record>, CsvError> {
        loop {
            let span = locate(&mut self.reader, &mut self.carry, false)?;
            let Some(line) = span.bytes(&mut self.reader, &self.carry)? else {
                return Ok(None);
            };
            let mut record = Record::new(Vec::new(), Vec::new());
            let outcome =
                self.scanner
                    .scan_line(strip_line_ending(line), &mut self.scratch, &mut record);
            span.release(&mut self.reader, &mut self.carry);
            self.line_number += 1;
            match outcome {
                Line::Blank => {}
                Line::Row => return Ok(Some(record)),
                Line::Skipped => self.skipped_rows += 1,
                Line::Failed(failure) => return Err(self.failed(failure)),
            }
        }
    }

    /// Hand the next [`Block`] of whole lines to `scan` — at most
    /// [`BLOCK_BYTES`], and no more than the `BufRead` buffers at once — and
    /// return what it made of them; `Ok(None)` at end of input.
    ///
    /// `scan` cuts the block into [`chunks`](Block::chunks), parses each
    /// with [`Block::scan`] (on whatever threads it likes) and returns the
    /// chunks' tallies in input order. Those are folded in here, so
    /// [`skipped_rows`](CsvReader::skipped_rows), line numbers and the
    /// first error are the ones [`next_record`](CsvReader::next_record)
    /// would have produced, however the block was cut. On an error the
    /// block is spent and `scan`'s output dropped.
    pub fn scan_block<T>(
        &mut self,
        scan: impl FnOnce(Block<'_>) -> (T, Vec<ChunkTally>),
    ) -> Result<Option<T>, CsvError> {
        let span = locate(&mut self.reader, &mut self.carry, true)?;
        let Some(bytes) = span.bytes(&mut self.reader, &self.carry)? else {
            return Ok(None);
        };
        let (out, tallies) = scan(Block {
            bytes,
            scanner: &self.scanner,
        });
        span.release(&mut self.reader, &mut self.carry);
        for tally in tallies {
            self.line_number += tally.lines;
            self.skipped_rows += tally.skipped;
            if let Some(failure) = tally.failure {
                return Err(self.failed(failure));
            }
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every record of a CSV source, and how many rows were skipped.
    #[derive(Debug)]
    struct CsvIngestResult {
        records: Vec<Record>,
        skipped_rows: usize,
    }

    /// Read `reader` to the end through [`CsvReader::next_record`].
    fn ingest_csv<R: BufRead>(reader: R, query: &CsvQuery) -> Result<CsvIngestResult, CsvError> {
        let mut reader = CsvReader::new(reader, query)?;
        let mut records = Vec::new();
        while let Some(record) = reader.next_record()? {
            records.push(record);
        }
        Ok(CsvIngestResult {
            records,
            skipped_rows: reader.skipped_rows(),
        })
    }

    fn ingest_csv_str(data: &str, query: &CsvQuery) -> Result<CsvIngestResult, CsvError> {
        ingest_csv(std::io::Cursor::new(data), query)
    }

    const SAMPLE: &str = "\
device_id,app_version,power_drain,trip_time
B264,2.26.3,85.5,1200
B101,2.26.3,12.0,900
B264,2.25.0,13.5,1100
";

    fn query() -> CsvQuery {
        CsvQuery::new(
            vec!["power_drain".to_string()],
            vec!["device_id".to_string(), "app_version".to_string()],
        )
    }

    #[test]
    fn parses_basic_file() {
        let result = ingest_csv_str(SAMPLE, &query()).unwrap();
        assert_eq!(result.records.len(), 3);
        assert_eq!(result.skipped_rows, 0);
        assert_eq!(result.records[0].metrics, vec![85.5]);
        assert_eq!(
            result.records[0].attributes,
            vec!["B264".to_string(), "2.26.3".to_string()]
        );
    }

    #[test]
    fn unknown_column_is_an_error() {
        let bad = CsvQuery::new(vec!["nonexistent".to_string()], vec![]);
        assert!(matches!(
            ingest_csv_str(SAMPLE, &bad),
            Err(CsvError::UnknownColumn(_))
        ));
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(matches!(
            ingest_csv_str("", &query()),
            Err(CsvError::MissingHeader)
        ));
    }

    #[test]
    fn unparseable_metrics_are_skipped_and_counted() {
        let data = "\
device_id,app_version,power_drain,trip_time
B264,2.26.3,not_a_number,1200
B101,2.26.3,12.0,900
B102,2.26.3,NaN,900
";
        let result = ingest_csv_str(data, &query()).unwrap();
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.skipped_rows, 2);
    }

    #[test]
    fn strict_mode_reports_line_and_column_of_a_malformed_row() {
        // The bad row is mid-file: line 1 is the header, line 2 parses,
        // line 3 is malformed, line 4 would parse.
        let data = "\
device_id,app_version,power_drain,trip_time
B264,2.26.3,85.5,1200
B101,2.26.3,not_a_number,900
B264,2.25.0,13.5,1100
";
        let mut reader = CsvReader::new(std::io::Cursor::new(data), &query().strict()).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        let err = reader.next_record().unwrap_err();
        match &err {
            CsvError::MalformedRow {
                line,
                column,
                value,
            } => {
                assert_eq!(*line, 3);
                assert_eq!(column, "power_drain");
                assert_eq!(value.as_deref(), Some("not_a_number"));
            }
            other => panic!("expected MalformedRow, got {other:?}"),
        }
        let message = err.to_string();
        assert!(message.contains("line 3"), "no position in: {message}");
        assert!(message.contains("power_drain"), "no column in: {message}");
    }

    #[test]
    fn strict_mode_reports_a_row_too_short_for_its_columns() {
        let data = "\
device_id,app_version,power_drain,trip_time
B264,2.26.3
";
        let mut reader = CsvReader::new(std::io::Cursor::new(data), &query().strict()).unwrap();
        let err = reader.next_record().unwrap_err();
        assert!(matches!(
            err,
            CsvError::MalformedRow {
                line: 2,
                value: None,
                ..
            }
        ));
        assert!(err.to_string().contains("missing column"));
    }

    #[test]
    fn default_mode_still_skips_the_rows_strict_mode_rejects() {
        let data = "\
device_id,app_version,power_drain,trip_time
B264,2.26.3,85.5,1200
B101,2.26.3,not_a_number,900
B264,2.25.0
";
        let result = ingest_csv_str(data, &query()).unwrap();
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.skipped_rows, 2);
    }

    #[test]
    fn quoted_fields_with_delimiters() {
        let data = "\
name,amount
\"Smith, John\",100.5
\"He said \"\"hi\"\"\",3.0
";
        let q = CsvQuery::new(vec!["amount".to_string()], vec!["name".to_string()]);
        let result = ingest_csv_str(data, &q).unwrap();
        assert_eq!(result.records.len(), 2);
        assert_eq!(result.records[0].attributes[0], "Smith, John");
        assert_eq!(result.records[1].attributes[0], "He said \"hi\"");
    }

    #[test]
    fn blank_lines_are_ignored() {
        let data = "a,b\n1.0,x\n\n2.0,y\n";
        let q = CsvQuery::new(vec!["a".to_string()], vec!["b".to_string()]);
        let result = ingest_csv_str(data, &q).unwrap();
        assert_eq!(result.records.len(), 2);
    }

    #[test]
    fn streaming_reader_yields_records_lazily() {
        let mut reader = CsvReader::new(std::io::Cursor::new(SAMPLE), &query()).unwrap();
        let first = reader.next_record().unwrap().unwrap();
        assert_eq!(first.metrics, vec![85.5]);
        assert_eq!(first.attributes[0], "B264");
        assert!(reader.next_record().unwrap().is_some());
        assert!(reader.next_record().unwrap().is_some());
        assert!(reader.next_record().unwrap().is_none());
        assert_eq!(reader.skipped_rows(), 0);
    }

    #[test]
    fn custom_delimiter() {
        let data = "a|b\n1.5|x\n";
        let mut q = CsvQuery::new(vec!["a".to_string()], vec!["b".to_string()]);
        q.delimiter = '|';
        let result = ingest_csv_str(data, &q).unwrap();
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.records[0].metrics, vec![1.5]);
    }

    #[test]
    fn byte_order_mark_before_the_header_is_dropped() {
        let data = "\u{feff}device_id,app_version,power_drain\nB264,2.26.3,85.5\n";
        let result = ingest_csv_str(data, &query()).unwrap();
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.records[0].attributes[0], "B264");
        // Only there: a mark at the start of a data line is cell text.
        let data = "a,b\n\u{feff}1.0,x\n";
        let q = CsvQuery::new(vec!["a".to_string()], vec![]);
        assert_eq!(ingest_csv_str(data, &q).unwrap().skipped_rows, 1);
    }

    #[test]
    fn only_projected_cells_are_checked_for_utf8() {
        let q = CsvQuery::new(vec!["m".to_string()], vec!["a".to_string()]);
        let invalid_data = |e: CsvError| match e {
            CsvError::Io(e) => e.kind() == std::io::ErrorKind::InvalidData,
            _ => false,
        };
        // The one intended difference from the reader this replaced, which
        // validated whole lines: a cell no column of the query reads.
        let unprojected = b"m,u,a\n1.5,\xff\xfe,x\n2.5,ok,y\n";
        assert!(invalid_data(oracle::ingest(unprojected, &q).unwrap_err()));
        let result = ingest_csv(&unprojected[..], &q).unwrap();
        assert_eq!(result.records.len(), 2);
        assert_eq!(result.records[0].attributes[0], "x");
        // Past the last projected column nothing is read at all.
        let q_first = CsvQuery::new(vec!["m".to_string()], vec![]);
        assert_eq!(ingest_csv(&b"m,u\n1.5,\"\xff\n"[..], &q_first).unwrap().records.len(), 1);

        // Projected cells are as before: an I/O error of kind InvalidData,
        // for the row only, and before anything else about the row.
        for line in [&b"\xff,u,x\n"[..], b"1.5,u,\xc3\n", b"\"\xc3\"\xa9,u,x\n", b"bad,u,\xff\n"] {
            let data = [b"m,u,a\n", line, b"2.5,u,y\n"].concat();
            for query in [q.clone(), q.clone().strict()] {
                let mut reader = CsvReader::new(&data[..], &query).unwrap();
                assert!(invalid_data(reader.next_record().unwrap_err()));
                assert_eq!(reader.next_record().unwrap().unwrap().metrics, vec![2.5]);
                assert!(reader.next_record().unwrap().is_none());
                assert_eq!(reader.skipped_rows(), 0);
            }
        }
        // A malformed row is only that, whatever its other cells hold.
        assert_eq!(ingest_csv(&b"m,u,a\nbad,\xff\n"[..], &q).unwrap().skipped_rows, 1);
    }

    /// The reader this module's scanner replaced, kept as the oracle the
    /// differential tests compare against: `read_line` (which validates the
    /// whole line), then a char-by-char split into owned fields.
    mod oracle {
        use super::super::{CsvError, CsvQuery};
        use super::CsvIngestResult;
        use crate::Record;
        use std::io::BufRead;

        fn split_line(line: &str, delimiter: char) -> Vec<String> {
            let mut fields = vec![String::new()];
            let mut in_quotes = false;
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                let field = fields.last_mut().unwrap();
                if in_quotes {
                    if c == '"' {
                        if chars.peek() == Some(&'"') {
                            field.push('"');
                            chars.next();
                        } else {
                            in_quotes = false;
                        }
                    } else {
                        field.push(c);
                    }
                } else if c == '"' {
                    in_quotes = true;
                } else if c == delimiter {
                    fields.push(String::new());
                } else {
                    field.push(c);
                }
            }
            fields
        }

        fn strip_line_ending(line: &str) -> &str {
            let line = line.strip_suffix('\n').unwrap_or(line);
            line.strip_suffix('\r').unwrap_or(line)
        }

        /// Every record up to the end of input or the first error.
        pub fn ingest(data: &[u8], query: &CsvQuery) -> Result<CsvIngestResult, CsvError> {
            let mut reader = data;
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(CsvError::MissingHeader);
            }
            let header: Vec<String> = split_line(strip_line_ending(&line), query.delimiter)
                .into_iter()
                .map(|h| h.trim().to_string())
                .collect();
            let find = |name: &String| {
                header
                    .iter()
                    .position(|h| h == name)
                    .ok_or_else(|| CsvError::UnknownColumn(name.clone()))
            };
            let metric_idx: Vec<usize> =
                query.metric_columns.iter().map(find).collect::<Result<_, _>>()?;
            let attribute_idx: Vec<usize> =
                query.attribute_columns.iter().map(find).collect::<Result<_, _>>()?;
            let mut result = CsvIngestResult {
                records: Vec::new(),
                skipped_rows: 0,
            };
            let mut line_number = 1;
            'lines: loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Ok(result);
                }
                line_number += 1;
                let text = strip_line_ending(&line);
                if text.trim().is_empty() {
                    continue;
                }
                let fields = split_line(text, query.delimiter);
                let malformed = |column: &String, value: Option<String>| CsvError::MalformedRow {
                    line: line_number,
                    column: column.clone(),
                    value,
                };
                let mut record = Record::new(Vec::new(), Vec::new());
                let mut bad = None;
                for (column, &idx) in query.metric_columns.iter().zip(&metric_idx) {
                    match fields.get(idx).map(|cell| (cell.trim(), cell.trim().parse::<f64>())) {
                        Some((_, Ok(v))) if v.is_finite() => record.metrics.push(v),
                        Some((cell, _)) => bad = Some(malformed(column, Some(cell.to_string()))),
                        None => bad = Some(malformed(column, None)),
                    }
                    if bad.is_some() {
                        break;
                    }
                }
                for (column, &idx) in query.attribute_columns.iter().zip(&attribute_idx) {
                    if bad.is_some() {
                        break;
                    }
                    match fields.get(idx) {
                        Some(cell) => record.attributes.push(cell.trim().to_string()),
                        None => bad = Some(malformed(column, None)),
                    }
                }
                match bad {
                    None => result.records.push(record),
                    Some(error) if query.strict => return Err(error),
                    Some(_) => {
                        result.skipped_rows += 1;
                        continue 'lines;
                    }
                }
            }
        }
    }

    /// What a pass over a whole input came to: its records and skip count,
    /// or how it failed — for a malformed row its (line, column, value).
    type Outcome = Result<(Vec<Record>, usize), String>;

    fn outcome(result: Result<CsvIngestResult, CsvError>) -> Outcome {
        match result {
            Ok(r) => Ok((r.records, r.skipped_rows)),
            Err(CsvError::MalformedRow {
                line,
                column,
                value,
            }) => Err(format!("{line} {column:?} {value:?}")),
            Err(other) => Err(other.to_string()),
        }
    }

    /// `next_record` to the end, reading through a buffer of `capacity`
    /// bytes (1: every line straddles fills of the buffer).
    fn by_record(data: &[u8], query: &CsvQuery, capacity: usize) -> Outcome {
        outcome(ingest_csv(
            std::io::BufReader::with_capacity(capacity, data),
            query,
        ))
    }

    impl RowSink for Vec<Record> {
        fn row(&mut self, metrics: &[f64]) {
            self.push(Record::new(metrics.to_vec(), Vec::new()));
        }

        fn attribute(&mut self, slot: usize, value: &str) {
            let record = self.last_mut().unwrap();
            assert_eq!(record.attributes.len(), slot);
            record.attributes.push(value.to_owned());
        }

        fn end_row(&mut self) {}
    }

    /// `scan_block` to the end, every block cut into up to `chunks` chunks,
    /// reading through a buffer of `capacity` bytes (which bounds a block).
    fn by_block(data: &[u8], query: &CsvQuery, capacity: usize, chunks: usize) -> Outcome {
        let run = || -> Result<CsvIngestResult, CsvError> {
            let mut reader =
                CsvReader::new(std::io::BufReader::with_capacity(capacity, data), query)?;
            let mut records = Vec::new();
            while let Some(block) = reader.scan_block(|block| {
                let mut parsed = Vec::new();
                let tallies = block
                    .chunks(chunks)
                    .into_iter()
                    .map(|chunk| {
                        let mut sink: Vec<Record> = Vec::new();
                        let tally = block.scan(chunk, &mut sink);
                        parsed.push(sink);
                        tally
                    })
                    .collect();
                (parsed, tallies)
            })? {
                records.extend(block.into_iter().flatten());
            }
            Ok(CsvIngestResult {
                records,
                skipped_rows: reader.skipped_rows(),
            })
        };
        outcome(run())
    }

    /// Pieces of CSV text that between them reach every branch of the
    /// scanner; the delimiter piece stands for whichever delimiter is used.
    const DELIMITER: &str = "<delimiter>";
    const PIECES: &[&str] = &[
        DELIMITER, DELIMITER, DELIMITER, DELIMITER, "\n", "\n", "\n", "\r\n", "\r", "\"", "\"",
        "\"\"", " ", "\t", "\u{a0}", "\u{2003}", "a", "b", "x y", "é", "7", "1.5", "-3e2", ".", "NaN",
        "inf", "1e999", "0x10", "",
    ];

    fn text_of(pieces: &[usize], delimiter: char) -> String {
        let mut text = String::new();
        for &piece in pieces {
            match PIECES[piece] {
                DELIMITER => text.push(delimiter),
                other => text.push_str(other),
            }
        }
        text
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn scanner_agrees_with_the_reader_it_replaced(
            pieces in prop::collection::vec(0usize..PIECES.len(), 0..160),
            final_newline in 0u8..2,
        ) {
            for delimiter in [',', '→'] {
                let mut text = format!("m{delimiter} a {delimiter}u{delimiter}\"b\"\n");
                text.push_str(&text_of(&pieces, delimiter));
                if final_newline == 1 {
                    text.push('\n');
                }
                let data = text.as_bytes();
                let columns = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
                for (metrics, attributes) in [
                    (vec!["m"], vec!["a", "b"]),
                    // Stops after the second of four columns.
                    (vec!["m"], vec!["a"]),
                    // A column read twice, and out of header order.
                    (vec!["u", "m"], vec!["m"]),
                    (vec![], vec![]),
                ] {
                    let mut query = CsvQuery::new(columns(&metrics), columns(&attributes));
                    query.delimiter = delimiter;
                    for query in [query.clone(), query.strict()] {
                        let expected = outcome(oracle::ingest(data, &query));
                        for capacity in [1, 7, 64, 4096] {
                            prop_assert_eq!(by_record(data, &query, capacity), expected.clone());
                        }
                        for (capacity, chunks) in [(16, 1), (64, 2), (64, 3), (4096, 2), (4096, 8)] {
                            prop_assert_eq!(by_block(data, &query, capacity, chunks), expected.clone());
                        }
                    }
                }
            }
        }

        #[test]
        fn arbitrary_bytes_give_typed_results_and_terminate(
            picks in prop::collection::vec(0usize..400, 0..300),
        ) {
            // Mostly bytes that mean something to the scanner or to UTF-8,
            // some of everything else.
            const PALETTE: &[u8] = b",,\"\n\n\r1.9e-a \0\xff\xc3\xa9\xe2\x80\x83\xf0";
            let mut data = b"m,a,u\n".to_vec();
            data.extend(picks.iter().map(|&pick| match PALETTE.get(pick / 8) {
                Some(&byte) => byte,
                None => pick as u8,
            }));
            let lines = data.iter().filter(|&&b| b == b'\n').count() + 1;
            let query = CsvQuery::new(vec!["m".to_string()], vec!["a".to_string()]);
            for query in [query.clone(), query.strict()] {
                // One call per line at most: an error spends its line.
                let mut reader = CsvReader::new(&data[..], &query).unwrap();
                let mut calls = 0;
                while !matches!(reader.next_record(), Ok(None)) {
                    calls += 1;
                    prop_assert!(calls <= lines, "next_record does not advance");
                }
                prop_assert!(reader.line_number <= lines);
                // And one per block: an error spends its block.
                let mut reader =
                    CsvReader::new(std::io::BufReader::with_capacity(32, &data[..]), &query).unwrap();
                let mut calls = 0;
                while !matches!(
                    reader.scan_block(|block| {
                        let mut sink: Vec<Record> = Vec::new();
                        let tallies = block.chunks(3).into_iter().map(|c| block.scan(c, &mut sink));
                        ((), tallies.collect())
                    }),
                    Ok(None)
                ) {
                    calls += 1;
                    prop_assert!(calls <= data.len(), "scan_block does not advance");
                }
                prop_assert!(reader.line_number <= lines);
            }
        }
    }
}
