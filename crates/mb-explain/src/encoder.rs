//! Dictionary encoding of attribute values.
//!
//! MacroBase points carry categorical attributes as strings (device ID,
//! firmware version, ...). The itemset miners work over dense `u32` item
//! ids, so the explanation layer interns each distinct (attribute column,
//! value) pair once and translates back when rendering explanations to users.
//!
//! For large batches, [`encode_batch_parallel`] shards the encode pass
//! across the work-stealing pool: each shard interns misses into a private
//! local dictionary ([`ShardEncoder`]), and the locals merge into the shared
//! [`AttributeEncoder`] the same way the sketches merge — except the merge
//! is ordered by each value's first occurrence in the input, so the assigned
//! item ids (and therefore every downstream count, tree, and explanation)
//! are *identical* to what a serial [`AttributeEncoder::encode_point`] loop
//! would have produced. CSV ingestion stitches its parsed chunks through
//! the same three types.

use crate::items::ItemBatch;
use mb_fpgrowth::Item;

/// A decoded attribute: which column it came from and its string value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttributeValue {
    /// Index of the attribute column in the point schema.
    pub column: usize,
    /// The attribute's categorical value.
    pub value: String,
}

impl AttributeValue {
    /// Create an attribute value.
    pub fn new(column: usize, value: impl Into<String>) -> Self {
        AttributeValue {
            column,
            value: value.into(),
        }
    }
}

impl std::fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "attr{}={}", self.column, self.value)
    }
}

/// FNV-1a over the column index and the value bytes. Fixed constants — the
/// hash is a pure function of the key, so two encoders built from the same
/// stream are identical, thread count notwithstanding.
fn key_hash(column: usize, value: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (column as u64).to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in value.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
        let hash = key_hash(column, value);
        let reverse = &self.reverse;
        if let Some(item) = self.index.find(hash, |item| {
            let av = &reverse[item as usize];
            av.column == column && av.value == value
        }) {
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

    /// Look up an item id without interning; `None` if never seen.
    pub fn lookup(&self, column: usize, value: &str) -> Option<Item> {
        let hash = key_hash(column, value);
        let reverse = &self.reverse;
        self.index.find(hash, |item| {
            let av = &reverse[item as usize];
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
        match self.frozen.lookup(column, value) {
            Some(item) => item,
            None => self.frozen.cardinality() as Item + self.local.encode(column, value),
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
/// `pool`, interning any new attribute values into `encoder`.
///
/// Each shard encodes through a [`ShardEncoder`]; the shard dictionaries
/// are then interned in shard (= row) order, which makes the id assignment
/// — and hence the returned batch — byte-identical to a serial
/// [`AttributeEncoder::encode_point`] loop over `rows`, for any shard count
/// and any thread interleaving. Finally the provisional ids are rewritten
/// to their merged ids, again in parallel, over the flat item arrays.
pub fn encode_batch_parallel<R>(
    encoder: &mut AttributeEncoder,
    pool: &mb_pool::Pool,
    rows: &[R],
    num_shards: usize,
) -> ItemBatch
where
    R: AsRef<[String]> + Sync,
{
    let num_shards = num_shards.clamp(1, rows.len().max(1));
    let shard_size = rows.len().div_ceil(num_shards).max(1);

    let frozen = &*encoder;
    let shards: Vec<(ItemBatch, ShardDictionary)> =
        pool.map_vec(rows.chunks(shard_size).collect(), |shard_rows: &[R]| {
            let mut shard = ShardEncoder::new(frozen);
            let columns = shard_rows.first().map_or(0, |r| r.as_ref().len());
            let mut batch = ItemBatch::with_capacity(shard_rows.len(), columns);
            for row in shard_rows {
                for (column, value) in row.as_ref().iter().enumerate() {
                    batch.push_item(shard.encode(column, value));
                }
                batch.finish_row();
            }
            let mut minted = ShardDictionary::default();
            shard.finish(&mut minted);
            (batch, minted)
        });

    let work: Vec<(ItemBatch, ShardRemap)> = shards
        .into_iter()
        .map(|(batch, minted)| (batch, minted.intern(encoder)))
        .collect();
    let rewritten: Vec<ItemBatch> = pool.map_vec(work, |(mut batch, remap)| {
        remap.apply(batch.items_mut());
        batch
    });
    let mut out = ItemBatch::with_capacity(
        rows.len(),
        rewritten.iter().map(ItemBatch::num_items).sum::<usize>() / rows.len().max(1) + 1,
    );
    for shard in &rewritten {
        out.append(shard);
    }
    out
}

/// [`encode_batch_parallel`] materialized into the row-major
/// `Vec<Vec<Item>>` layout, for callers that still need per-row vectors.
pub fn encode_rows_parallel<R>(
    encoder: &mut AttributeEncoder,
    pool: &mb_pool::Pool,
    rows: &[R],
    num_shards: usize,
) -> Vec<Vec<Item>>
where
    R: AsRef<[String]> + Sync,
{
    encode_batch_parallel(encoder, pool, rows, num_shards).to_rows()
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
        assert_eq!(enc.lookup(0, "nope"), None);
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
            let txns = encode_rows_parallel(&mut enc, &pool, &rows, shards);
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
        let parallel_txns = encode_rows_parallel(&mut parallel_enc, &pool, &rows, 5);
        assert_eq!(parallel_txns, serial_txns);
        assert_eq!(parallel_enc.cardinality(), serial_enc.cardinality());
        assert_eq!(parallel_enc.lookup(0, "device_3"), Some(0));
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
        assert_eq!(encoder.decode(3), Some(&AttributeValue::new(0, "second")));
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
        assert!(encode_rows_parallel(&mut enc, &pool, &empty, 8).is_empty());
        assert_eq!(enc.cardinality(), 0);

        let one = vec![vec!["a".to_string(), "b".to_string()]];
        let txns = encode_rows_parallel(&mut enc, &pool, &one, 8);
        assert_eq!(txns, vec![vec![0, 1]]);
        assert_eq!(enc.cardinality(), 2);
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
        let txns = encode_rows_parallel(&mut enc, &pool, &rows, 2);
        assert_eq!(
            enc.describe(&txns[0]),
            vec!["device_type=B264", "app_version=2.26.3"]
        );
    }
}
