#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Dictionary encoding of attribute values.
//!
//! MacroBase points carry categorical attributes as strings (device ID,
//! firmware version, ...). The itemset miners work over dense `u32` item
//! ids, so the explanation layer interns each distinct (attribute column,
//! value) pair once and translates back when rendering explanations to users.
//!
//! For large batches, [`encode_batch_parallel`] shards the encode pass
//! across the work-stealing pool: a serial pass lays out the row offsets,
//! each shard writes its ids straight into its own run of the batch's one
//! items array and interns misses into a private local dictionary
//! ([`ShardEncoder`]), and the locals are interned into the shared
//! [`AttributeEncoder`] in input order, so each value is met at its first
//! occurrence in the input and the assigned item ids (and therefore every
//! downstream count, tree, and explanation) are *identical* to what a serial
//! [`AttributeEncoder::encode_point`] loop would have produced.
//! [`encode_rows_parallel`] is the same sharded encode over any row type,
//! with a second per-row job riding the walk (the in-memory query copies
//! each row's metrics there). CSV ingestion stitches its parsed chunks through
//! the same three types.
//!
//! Every path in — in-memory batches, CSV chunks, served points, streaming
//! — hashes a (column, value) key once, with one word-at-a-time
//! folded-multiply hash. Ids are assigned by first occurrence, never by hash
//! value, so the hash decides only how long a probe is. It is unkeyed:
//! values crafted to collide lengthen probes, and cannot change an id,
//! because every probe compares the full key.

use crate::items::{end_offset, ItemBatch};
use mb_fpgrowth::Item;

/// A decoded attribute: which column it came from and its string value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttributeValue {
    /// Index of the attribute column in the point schema.
    pub column: usize,
    /// The attribute's categorical value.
    pub value: String,
}

impl std::fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "attr{}={}", self.column, self.value)
    }
}

/// The fractional digits of π. Fixed, so the hash is a pure function of the
/// key and two encoders built from the same stream are identical, thread
/// count notwithstanding.
const HASH_KEYS: [u64; 2] = [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344];

/// The 128-bit product of `a` and `b`, its halves folded together by xor.
fn fold_mul(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The little-endian `N`-byte word at `bytes[at..]`, zero-extended; the
/// caller has checked that it lies inside `bytes`.
fn word<const N: usize>(bytes: &[u8], at: usize) -> u64 {
    let mut le = [0; 8];
    le[..N].copy_from_slice(&bytes[at..at + N]);
    u64::from_le_bytes(le)
}

/// The dictionary's key hash, a word at a time: the column and the length
/// are mixed into one seed word; a value of up to 16 bytes is read as two
/// (possibly overlapping) words, a longer one in 16-byte blocks folded into
/// the seed and then its last 16 bytes; one folded multiply finishes.
fn key_hash(column: usize, value: &str) -> u64 {
    let [k0, k1] = HASH_KEYS;
    let bytes = value.as_bytes();
    let len = bytes.len();
    let mut seed = k0 ^ (column as u64).rotate_left(32) ^ len as u64;
    let (a, b) = match len {
        0 => (0, 0),
        1..=3 => {
            let (first, middle, last) = (bytes[0], bytes[len / 2], bytes[len - 1]);
            let packed = u64::from(first) << 16 | u64::from(middle) << 8 | u64::from(last);
            (packed, 0)
        }
        4..=7 => (word::<4>(bytes, 0), word::<4>(bytes, len - 4)),
        8..=16 => (word::<8>(bytes, 0), word::<8>(bytes, len - 8)),
        _ => {
            let mut at = 0;
            while len - at > 16 {
                seed = fold_mul(word::<8>(bytes, at) ^ k1, word::<8>(bytes, at + 8) ^ seed);
                at += 16;
            }
            (word::<8>(bytes, len - 16), word::<8>(bytes, len - 8))
        }
    };
    fold_mul(a ^ k1, b ^ seed)
}

/// Open-addressing index from key hash to item id, resolved against the
/// encoder's `reverse` table. Keys are *not* stored here — the interned
/// `AttributeValue` in `reverse` is the single allocation per distinct
/// value, and probes compare the cached hash before touching the strings.
#[derive(Debug, Clone, Default)]
struct IndexTable {
    /// `(hash, item)` slots; `Item::MAX` marks an empty slot. Capacity is a
    /// power of two (zero when empty).
    slots: Vec<(u64, Item)>,
    len: usize,
}

const EMPTY_SLOT: Item = Item::MAX;

impl IndexTable {
    fn find(&self, hash: u64, mut eq: impl FnMut(Item) -> bool) -> Option<Item> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (h, item) = self.slots[i];
            if item == EMPTY_SLOT {
                return None;
            }
            if h == hash && eq(item) {
                return Some(item);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert a hash/item pair known to be absent, growing at 7/8 load.
    fn insert(&mut self, hash: u64, item: Item) {
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.slots[i].1 != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, item);
        self.len += 1;
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY_SLOT); new_cap]);
        let mask = new_cap - 1;
        for (h, item) in old {
            if item != EMPTY_SLOT {
                let mut i = (h as usize) & mask;
                while self.slots[i].1 != EMPTY_SLOT {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (h, item);
            }
        }
    }
}

/// Bidirectional mapping between attribute values and dense item ids.
///
/// The forward direction is an open-addressing hash index resolved against
/// the `reverse` table, so the hot path — encoding a value already in the
/// dictionary — allocates nothing and never builds a temporary key: it
/// hashes the borrowed `&str`, probes, and compares in place. Each distinct
/// value is allocated exactly once, when first interned.
#[derive(Debug, Clone, Default)]
pub struct AttributeEncoder {
    index: IndexTable,
    reverse: Vec<AttributeValue>,
    /// Optional human-readable column names for display.
    column_names: Vec<String>,
}

impl AttributeEncoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an encoder with named columns (used when rendering).
    pub fn with_column_names(names: Vec<String>) -> Self {
        AttributeEncoder {
            column_names: names,
            ..Self::default()
        }
    }

    /// Intern one (column, value) pair, returning its item id.
    pub fn encode(&mut self, column: usize, value: &str) -> Item {
        self.encode_hashed(key_hash(column, value), column, value)
    }

    /// [`encode`](AttributeEncoder::encode) with the key's hash already taken.
    fn encode_hashed(&mut self, hash: u64, column: usize, value: &str) -> Item {
        if let Some(item) = self.find(hash, column, value) {
            return item;
        }
        let item = self.reverse.len() as Item;
        self.reverse.push(AttributeValue {
            column,
            value: value.to_owned(),
        });
        self.index.insert(hash, item);
        item
    }

    /// Encode all attributes of one point (one value per column, in order).
    pub fn encode_point(&mut self, attributes: &[String]) -> Vec<Item> {
        attributes
            .iter()
            .enumerate()
            .map(|(column, value)| self.encode(column, value))
            .collect()
    }

    /// Encode one point's attributes into a caller-owned scratch buffer
    /// (cleared first), so per-point streaming paths reuse one allocation.
    pub fn encode_point_into(&mut self, attributes: &[String], out: &mut Vec<Item>) {
        out.clear();
        out.extend(
            attributes
                .iter()
                .enumerate()
                .map(|(column, value)| self.encode(column, value)),
        );
    }

    fn find(&self, hash: u64, column: usize, value: &str) -> Option<Item> {
        self.index.find(hash, |item| {
            let av = &self.reverse[item as usize];
            av.column == column && av.value == value
        })
    }

    /// Decode an item id back to its attribute value.
    pub fn decode(&self, item: Item) -> Option<&AttributeValue> {
        self.reverse.get(item as usize)
    }

    /// Decode a whole itemset into human-readable `column=value` strings.
    pub fn describe(&self, items: &[Item]) -> Vec<String> {
        items
            .iter()
            .map(|&item| match self.decode(item) {
                Some(av) => {
                    let column_name = self
                        .column_names
                        .get(av.column)
                        .cloned()
                        .unwrap_or_else(|| format!("attr{}", av.column));
                    format!("{}={}", column_name, av.value)
                }
                None => format!("<unknown item {item}>"),
            })
            .collect()
    }

    /// Number of distinct attribute values interned so far.
    pub fn cardinality(&self) -> usize {
        self.reverse.len()
    }

    /// The configured column names (may be empty).
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }
}

/// One shard's view of a scatter that encodes against a shared dictionary:
/// values the frozen [`AttributeEncoder`] already knows keep their ids
/// (read lock-free through a shared reference), and misses get provisional
/// ids from a private dictionary, numbered from the frozen cardinality up so
/// that "provisional" is recognizable as `id >= base`.
///
/// Shards must cover consecutive runs of the input. Interning their
/// [`ShardDictionary`]s in input order then discovers new values in exactly
/// the order a serial [`AttributeEncoder::encode`] pass would — a value's
/// first occurrence lies in the earliest shard holding it, at its first
/// occurrence there — so the final ids are those of the serial pass at any
/// shard count and any thread interleaving.
#[derive(Debug)]
pub struct ShardEncoder<'a> {
    frozen: &'a AttributeEncoder,
    local: AttributeEncoder,
}

impl<'a> ShardEncoder<'a> {
    /// Start a shard against `frozen`, which must not change until every
    /// shard of the scatter has [finished](ShardEncoder::finish).
    pub fn new(frozen: &'a AttributeEncoder) -> Self {
        ShardEncoder {
            frozen,
            local: AttributeEncoder::new(),
        }
    }

    /// The value's id: final if `frozen` knows it, provisional otherwise.
    pub fn encode(&mut self, column: usize, value: &str) -> Item {
        let hash = key_hash(column, value);
        match self.frozen.find(hash, column, value) {
            Some(item) => item,
            None => {
                self.frozen.cardinality() as Item + self.local.encode_hashed(hash, column, value)
            }
        }
    }

    /// Release the frozen dictionary and write what this shard minted over
    /// `minted`'s previous content. The shard's own allocations end here, on
    /// the thread that made them: a caller that brings its own (reused)
    /// `minted` takes nothing away that a pool thread allocated.
    pub fn finish(self, minted: &mut ShardDictionary) {
        minted.base = self.frozen.cardinality() as Item;
        minted.text.clear();
        minted.entries.clear();
        // The local dictionary's reverse table is exactly the minted values
        // in provisional-id order.
        for key in &self.local.reverse {
            minted.text.push_str(&key.value);
            minted.entries.push((key.column, minted.text.len()));
        }
    }
}

/// The values one [`ShardEncoder`] minted, in first-occurrence order.
#[derive(Debug, Default)]
pub struct ShardDictionary {
    base: Item,
    /// The values, end to end.
    text: String,
    /// Per value, its column and where it ends in `text`.
    entries: Vec<(usize, usize)>,
}

impl ShardDictionary {
    /// An empty dictionary with room for `values` values of `bytes` bytes
    /// in all before it reallocates.
    pub fn with_capacity(values: usize, bytes: usize) -> Self {
        ShardDictionary {
            base: 0,
            text: String::with_capacity(bytes),
            entries: Vec::with_capacity(values),
        }
    }

    /// Intern the minted values into `encoder` — the dictionary the shard
    /// was frozen against, with only the earlier shards of the same scatter
    /// interned since — and return the provisional → final id table.
    pub fn intern(&self, encoder: &mut AttributeEncoder) -> ShardRemap {
        let mut start = 0;
        ShardRemap {
            base: self.base,
            ids: self
                .entries
                .iter()
                .map(|&(column, end)| {
                    let item = encoder.encode(column, &self.text[start..end]);
                    start = end;
                    item
                })
                .collect(),
        }
    }
}

/// Provisional → final item ids of one shard.
#[derive(Debug)]
pub struct ShardRemap {
    base: Item,
    ids: Vec<Item>,
}

impl ShardRemap {
    /// Rewrite the shard's provisional ids in `items` to their final ids.
    pub fn apply(&self, items: &mut [Item]) {
        // A shard that minted nothing wrote no provisional id.
        if self.ids.is_empty() {
            return;
        }
        for item in items {
            if *item >= self.base {
                *item = self.ids[(*item - self.base) as usize];
            }
        }
    }
}

/// Encode `rows` into one columnar [`ItemBatch`] in parallel shards on
/// `pool`, interning any new attribute values into `encoder`: the batch and
/// the dictionary a serial [`AttributeEncoder::encode_point`] loop over
/// `rows` gives, for any shard count and any thread interleaving. See
/// [`encode_rows_parallel`] for how.
pub fn encode_batch_parallel<R>(
    encoder: &mut AttributeEncoder,
    pool: &mb_pool::Pool,
    rows: &[R],
    num_shards: usize,
) -> ItemBatch
where
    R: AsRef<[String]> + Sync,
{
    let (batch, _) =
        encode_rows_parallel(encoder, pool, rows, num_shards, R::as_ref, |_| (), |_, _| ());
    batch
}

/// [`encode_batch_parallel`] over rows of any type, whose attribute values
/// `attributes` reads, with a second job done in the same walk: each shard
/// gets a state from `split`, called in shard order with the shard's row
/// range, and `each` is called on that state with every row of the shard,
/// in row order, as the row is encoded. Returns the batch and the states in
/// shard order.
///
/// A serial pass first lays out the row offsets, so the batch's one items
/// array is allocated here and each shard writes its ids straight into its
/// own run of it through a [`ShardEncoder`]. The shard dictionaries are then
/// interned in shard (= row) order, which makes the id assignment — and
/// hence the returned batch — byte-identical to a serial encode loop, and
/// finally each shard's provisional ids are rewritten to their merged ids in
/// place, again in parallel.
pub fn encode_rows_parallel<R, S>(
    encoder: &mut AttributeEncoder,
    pool: &mb_pool::Pool,
    rows: &[R],
    num_shards: usize,
    attributes: impl Fn(&R) -> &[String] + Sync,
    mut split: impl FnMut(std::ops::Range<usize>) -> S,
    each: impl Fn(&mut S, &R) + Sync,
) -> (ItemBatch, Vec<S>)
where
    R: Sync,
    S: Send,
{
    let num_shards = num_shards.clamp(1, rows.len().max(1));
    let shard_size = rows.len().div_ceil(num_shards).max(1);

    let mut offsets = Vec::with_capacity(rows.len() + 1);
    offsets.push(0);
    let mut end = 0;
    offsets.extend(rows.iter().map(|row| {
        end += attributes(row).len();
        end_offset(end)
    }));
    // The pool threads write only what is allocated here: the items and the
    // shard dictionaries (ARCHITECTURE, "Ingest: block → chunk → stitch",
    // memory bound; a dictionary grows in the arena it started in).
    let mut items = vec![0; end];
    let mut work = Vec::with_capacity(num_shards);
    let mut rest = items.as_mut_slice();
    for (shard, shard_rows) in rows.chunks(shard_size).enumerate() {
        let first = shard * shard_size;
        let len = offsets[first + shard_rows.len()] - offsets[first];
        let (out, tail) = std::mem::take(&mut rest).split_at_mut(len as usize);
        rest = tail;
        let state = split(first..first + shard_rows.len());
        work.push((shard_rows, out, ShardDictionary::with_capacity(64, 1024), state));
    }

    let frozen = &*encoder;
    let written = pool.map_vec(work, |(shard_rows, out, mut minted, mut state)| {
        let mut shard = ShardEncoder::new(frozen);
        let mut slots = out.iter_mut();
        for row in shard_rows {
            for ((column, value), slot) in attributes(row).iter().enumerate().zip(&mut slots) {
                *slot = shard.encode(column, value);
            }
            each(&mut state, row);
        }
        shard.finish(&mut minted);
        (out, minted, state)
    });

    let mut states = Vec::with_capacity(written.len());
    let remaps: Vec<(&mut [Item], ShardRemap)> = written
        .into_iter()
        .map(|(out, minted, state)| {
            states.push(state);
            (out, minted.intern(encoder))
        })
        .collect();
    pool.map_vec(remaps, |(out, remap)| remap.apply(out));
    (ItemBatch::from_parts(items, offsets), states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut enc = AttributeEncoder::new();
        let a = enc.encode(0, "iPhone6");
        let b = enc.encode(0, "iPhone6");
        assert_eq!(a, b);
        assert_eq!(enc.cardinality(), 1);
    }

    #[test]
    fn same_value_different_columns_are_distinct() {
        let mut enc = AttributeEncoder::new();
        let a = enc.encode(0, "42");
        let b = enc.encode(1, "42");
        assert_ne!(a, b);
        assert_eq!(enc.cardinality(), 2);
    }

    #[test]
    fn round_trip_decode() {
        let mut enc = AttributeEncoder::new();
        let item = enc.encode(2, "v2.26.3");
        let decoded = enc.decode(item).unwrap();
        assert_eq!(decoded.column, 2);
        assert_eq!(decoded.value, "v2.26.3");
        assert_eq!(enc.decode(999), None);
    }

    #[test]
    fn encode_point_assigns_columns_in_order() {
        let mut enc = AttributeEncoder::new();
        let items = enc.encode_point(&["B264".to_string(), "2.26.3".to_string()]);
        assert_eq!(items.len(), 2);
        assert_eq!(enc.decode(items[0]).unwrap().column, 0);
        assert_eq!(enc.decode(items[1]).unwrap().column, 1);
    }

    #[test]
    fn describe_uses_column_names() {
        let mut enc = AttributeEncoder::with_column_names(vec![
            "device_type".to_string(),
            "app_version".to_string(),
        ]);
        let items = enc.encode_point(&["B264".to_string(), "2.26.3".to_string()]);
        let described = enc.describe(&items);
        assert_eq!(described, vec!["device_type=B264", "app_version=2.26.3"]);
    }

    #[test]
    fn describe_falls_back_without_names() {
        let mut enc = AttributeEncoder::new();
        let item = enc.encode(3, "x");
        assert_eq!(enc.describe(&[item]), vec!["attr3=x"]);
        assert_eq!(enc.describe(&[57]), vec!["<unknown item 57>"]);
    }

    #[test]
    fn lookup_does_not_intern() {
        let enc = AttributeEncoder::new();
        assert_eq!(enc.find(key_hash(0, "nope"), 0, "nope"), None);
        assert_eq!(enc.cardinality(), 0);
    }

    /// A mixed-cardinality workload where most values recur across shard
    /// boundaries and some are unique to one shard.
    fn attribute_rows(n: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                vec![
                    format!("device_{}", i % 37),
                    format!("version_{}", i % 5),
                    format!("row_tag_{}", i / 50),
                ]
            })
            .collect()
    }

    fn serial_reference(rows: &[Vec<String>]) -> (AttributeEncoder, Vec<Vec<Item>>) {
        let mut enc = AttributeEncoder::new();
        let txns = rows.iter().map(|row| enc.encode_point(row)).collect();
        (enc, txns)
    }

    #[test]
    fn parallel_encode_reproduces_serial_ids_exactly() {
        let rows = attribute_rows(2_000);
        let (serial_enc, serial_txns) = serial_reference(&rows);
        let pool = mb_pool::Pool::new(4);
        for shards in [1usize, 2, 3, 7, 16] {
            let mut enc = AttributeEncoder::new();
            let txns = encode_batch_parallel(&mut enc, &pool, &rows, shards).to_rows();
            assert_eq!(txns, serial_txns, "transactions diverged at {shards} shards");
            assert_eq!(enc.cardinality(), serial_enc.cardinality());
            for item in 0..enc.cardinality() as Item {
                assert_eq!(
                    enc.decode(item),
                    serial_enc.decode(item),
                    "dictionary diverged at item {item} with {shards} shards"
                );
            }
        }
    }

    #[test]
    fn parallel_encode_respects_preexisting_entries() {
        let rows = attribute_rows(500);
        // Pre-intern a few values (as the streaming path may have done);
        // their ids must survive and the serial/parallel tails must agree.
        let mut serial_enc = AttributeEncoder::new();
        serial_enc.encode(0, "device_3");
        serial_enc.encode(2, "row_tag_0");
        let mut parallel_enc = serial_enc.clone();
        let serial_txns: Vec<Vec<Item>> =
            rows.iter().map(|row| serial_enc.encode_point(row)).collect();
        let pool = mb_pool::Pool::new(3);
        let parallel_txns = encode_batch_parallel(&mut parallel_enc, &pool, &rows, 5).to_rows();
        assert_eq!(parallel_txns, serial_txns);
        assert_eq!(parallel_enc.cardinality(), serial_enc.cardinality());
        assert_eq!(
            parallel_enc.find(key_hash(0, "device_3"), 0, "device_3"),
            Some(0)
        );
    }

    #[test]
    fn shards_stitched_in_order_mint_the_serial_ids() {
        let mut encoder = AttributeEncoder::new();
        encoder.encode(0, "known");
        // Two consecutive shards; both meet "late" and each a value of its
        // own, in the order a serial pass would: late, first, (late), second.
        let mut minted = [ShardDictionary::default(), ShardDictionary::with_capacity(4, 32)];
        let mut items = [Vec::new(), Vec::new()];
        let rows: [&[(usize, &str)]; 2] = [
            &[(0, "known"), (1, "late"), (0, "first")],
            &[(1, "late"), (0, "second"), (0, "known")],
        ];
        for ((rows, minted), items) in rows.iter().zip(&mut minted).zip(&mut items) {
            let mut shard = ShardEncoder::new(&encoder);
            items.extend(rows.iter().map(|&(column, value)| shard.encode(column, value)));
            shard.finish(minted);
        }
        assert_eq!(items, [vec![0, 1, 2], vec![1, 2, 0]], "provisional ids");
        for (minted, items) in minted.iter().zip(&mut items) {
            minted.intern(&mut encoder).apply(items);
        }
        assert_eq!(items, [vec![0, 1, 2], vec![1, 3, 0]]);
        assert_eq!(encoder.decode(3), Some(&AttributeValue {
                column: 0,
                value: "second".to_string()
            }));
        assert_eq!(encoder.cardinality(), 4);

        // A reused dictionary holds only its latest shard.
        let shard = ShardEncoder::new(&encoder);
        shard.finish(&mut minted[1]);
        let mut untouched = vec![0, 3];
        minted[1].intern(&mut encoder).apply(&mut untouched);
        assert_eq!((untouched, encoder.cardinality()), (vec![0, 3], 4));
    }

    #[test]
    fn parallel_encode_handles_empty_and_tiny_inputs() {
        let pool = mb_pool::Pool::new(2);
        let mut enc = AttributeEncoder::new();
        let empty: Vec<Vec<String>> = Vec::new();
        assert!(encode_batch_parallel(&mut enc, &pool, &empty, 8).is_empty());
        assert_eq!(enc.cardinality(), 0);

        let one = vec![vec!["a".to_string(), "b".to_string()]];
        let txns = encode_batch_parallel(&mut enc, &pool, &one, 8).to_rows();
        assert_eq!(txns, vec![vec![0, 1]]);
        assert_eq!(enc.cardinality(), 2);
    }

    /// Values that reach every branch of the key hash and every way two keys
    /// can nearly collide: a value of each length 0..=40, the same value with
    /// one byte changed at each position, NUL padding, and multi-byte UTF-8
    /// on both sides of 16 bytes.
    fn tricky_values() -> Vec<String> {
        let letters: String = ('a'..='z').chain('A'..='Z').collect();
        let mut values = Vec::new();
        for len in 0..=40 {
            let value = &letters[..len];
            values.push(value.to_string());
            for at in 0..len {
                let mut changed = value.to_string();
                changed.replace_range(at..at + 1, "#");
                values.push(changed);
            }
        }
        for value in ["\0", "\0\0", "a\0", "é", "日本語", "🦀"] {
            values.push(value.to_string());
        }
        values.push("ß🦀".repeat(4) + "ß");
        values.push("ü".repeat(9));
        values.push("日本語".repeat(4));
        values
    }

    /// One generated case for the differential test: ragged rows over
    /// [`tricky_values`], a shard count (1–16, more than the rows in the
    /// small cases), and the values interned before the encode (none for a
    /// fresh encoder). Every fourth case sweeps all the values, then all of
    /// them again one column over; the others draw skewed from a slice of
    /// them, so values recur within and across shards.
    fn generated_case(case: u64) -> (Vec<Vec<String>>, usize, Vec<(usize, String)>) {
        use mb_stats::rand_ext::SplitMix64;
        let mut rng = SplitMix64::new(0xE2C0 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let values = tricky_values();
        let columns = 1 + rng.next_below(6);
        let mut rows = Vec::new();
        if case % 4 == 0 {
            for shift in 0..2 {
                for chunk in values.chunks(columns) {
                    let mut row = vec![values[1].clone(); shift];
                    row.extend_from_slice(chunk);
                    rows.push(row);
                }
            }
        } else {
            let palette = &values[rng.next_below(values.len())..];
            let count = rng.next_below(if case % 4 == 1 { 4 } else { 400 });
            for _ in 0..count {
                let len = rng.next_below(columns + 1);
                rows.push(
                    (0..len)
                        .map(|_| {
                            let skew = 1 + rng.next_below(palette.len());
                            palette[rng.next_below(skew)].clone()
                        })
                        .collect(),
                );
            }
        }
        let shards = 1 + (case as usize) % 16;
        let mut preinterned = Vec::new();
        if case % 3 != 0 {
            for _ in 0..rng.next_below(50) {
                let value = values[rng.next_below(values.len())].clone();
                preinterned.push((rng.next_below(columns + 1), value));
            }
        }
        (rows, shards, preinterned)
    }

    #[test]
    fn key_hash_reads_every_byte_the_column_and_the_length() {
        let values = tricky_values();
        let mut hashes: Vec<u64> = (0..3)
            .flat_map(|column| values.iter().map(move |value| key_hash(column, value)))
            .collect();
        let keys = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), keys, "two of {keys} keys share a hash");
    }

    #[test]
    fn sharded_encode_equals_a_serial_encode_point_loop() {
        let pool = mb_pool::Pool::new(4);
        for case in 0..240 {
            let (rows, shards, preinterned) = generated_case(case);
            let mut serial = AttributeEncoder::new();
            for (column, value) in &preinterned {
                serial.encode(*column, value);
            }
            let mut sharded = serial.clone();
            let expected: ItemBatch = rows.iter().map(|row| serial.encode_point(row)).collect();
            // The side walk meets every row once, in row order, in the shard
            // whose range holds it.
            let (batch, walked) = encode_rows_parallel(
                &mut sharded,
                &pool,
                &rows,
                shards,
                Vec::as_slice,
                |range| (range, Vec::new()),
                |(_, met), row| met.push(row.clone()),
            );
            assert_eq!(batch, expected, "case {case}: {shards} shards");
            let mut next = 0;
            for (range, met) in &walked {
                assert_eq!((range.start, met.as_slice()), (next, &rows[range.clone()]));
                next = range.end;
            }
            assert_eq!(next, rows.len(), "case {case}");
            assert_eq!(sharded.cardinality(), serial.cardinality(), "case {case}");
            for item in 0..serial.cardinality() as Item {
                let (got, want) = (sharded.decode(item), serial.decode(item));
                assert_eq!(got, want, "case {case}: id {item}");
            }
            for (r, row) in rows.iter().enumerate() {
                for (column, (value, &item)) in row.iter().zip(batch.row(r)).enumerate() {
                    let want = AttributeValue {
                        column,
                        value: value.clone(),
                    };
                    assert_eq!(sharded.decode(item), Some(&want), "case {case}: row {r}");
                }
            }
        }
    }

    #[test]
    fn parallel_encode_keeps_column_names() {
        let pool = mb_pool::Pool::new(2);
        let mut enc = AttributeEncoder::with_column_names(vec![
            "device_type".to_string(),
            "app_version".to_string(),
        ]);
        let rows = vec![
            vec!["B264".to_string(), "2.26.3".to_string()],
            vec!["B101".to_string(), "2.26.3".to_string()],
        ];
        let txns = encode_batch_parallel(&mut enc, &pool, &rows, 2).to_rows();
        assert_eq!(
            enc.describe(&txns[0]),
            vec!["device_type=B264", "app_version=2.26.3"]
        );
    }
}
