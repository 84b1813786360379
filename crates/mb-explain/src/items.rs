//! Columnar item transactions: the struct-of-arrays batch the encode pass
//! produces and the explainers consume.
//!
//! A row's attributes become a contiguous run of item ids in one flat
//! `Vec<Item>`, delimited by a row-offset table — the classic CSR layout.
//! Compared to `Vec<Vec<Item>>` this removes one heap allocation and one
//! pointer indirection per row, which is most of what the encode→mine hot
//! path used to spend its time on: after ingestion, attribute strings stop
//! flowing through the pipeline entirely and every pass (outlier counting,
//! inlier counting, FP-tree construction) walks dense arrays.

use mb_fpgrowth::Item;

/// The offset of a row ending `len` items into a batch. Offsets are `u32`,
/// so a batch of more than `u32::MAX` items panics here, in every build,
/// rather than wrap and silently splice rows together.
pub(crate) fn end_offset(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("ItemBatch overflow: more than u32::MAX items"))
}

/// A batch of item transactions in struct-of-arrays (CSR) form: a flat item
/// array plus a row-offset table (`offsets.len() == rows + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemBatch {
    items: Vec<Item>,
    /// `offsets[r]..offsets[r + 1]` delimits row `r` in `items`. Always
    /// non-empty; a fresh batch holds the single sentinel `0`.
    offsets: Vec<u32>,
}

impl ItemBatch {
    /// Create an empty batch.
    pub(crate) fn new() -> Self {
        ItemBatch {
            items: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Create an empty batch with preallocated capacity for `rows` rows of
    /// about `items_per_row` items each.
    pub fn with_capacity(rows: usize, items_per_row: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        ItemBatch {
            items: Vec::with_capacity(rows * items_per_row),
            offsets,
        }
    }

    /// A batch of `items` delimited by `offsets`, which the caller built to
    /// the invariant on the field: a leading `0`, non-decreasing, ending at
    /// `items.len()`.
    pub(crate) fn from_parts(items: Vec<Item>, offsets: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(items.len()));
        ItemBatch { items, offsets }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total number of item occurrences across all rows.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// The items of row `r`.
    pub fn row(&self, r: usize) -> &[Item] {
        &self.items[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Iterate over rows as item slices.
    pub fn iter(&self) -> impl Iterator<Item = &[Item]> + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.items[w[0] as usize..w[1] as usize])
    }

    /// Append one item to the row currently being built (close it with
    /// [`finish_row`](ItemBatch::finish_row)).
    pub fn push_item(&mut self, item: Item) {
        self.items.push(item);
    }

    /// Close the row currently being built (possibly empty).
    pub fn finish_row(&mut self) {
        self.offsets.push(end_offset(self.items.len()));
    }

    /// Append a whole row at once.
    pub fn push_row(&mut self, row: &[Item]) {
        self.items.extend_from_slice(row);
        self.finish_row();
    }

    /// Append all of `other`'s rows after this batch's rows.
    pub fn append(&mut self, other: &ItemBatch) {
        let base = self.items.len();
        self.items.extend_from_slice(&other.items);
        for &o in &other.offsets[1..] {
            self.offsets.push(end_offset(base + o as usize));
        }
    }

    /// Drop every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.items.clear();
        self.offsets.truncate(1);
    }

    /// Mutable access to the flat item array (id remapping passes).
    pub fn items_mut(&mut self) -> &mut [Item] {
        &mut self.items
    }

    /// Copy into the row-major `Vec<Vec<Item>>` layout.
    pub fn to_rows(&self) -> Vec<Vec<Item>> {
        self.iter().map(|row| row.to_vec()).collect()
    }
}

impl Default for ItemBatch {
    // Not derived: the offsets table must hold its `0` sentinel even in an
    // empty batch.
    fn default() -> Self {
        ItemBatch::new()
    }
}

impl FromIterator<Vec<Item>> for ItemBatch {
    fn from_iter<T: IntoIterator<Item = Vec<Item>>>(rows: T) -> Self {
        let mut batch = ItemBatch::new();
        for row in rows {
            batch.push_row(&row);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_back_rows() {
        let mut batch = ItemBatch::new();
        batch.push_row(&[1, 2, 3]);
        batch.push_row(&[]);
        batch.push_item(7);
        batch.finish_row();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.num_items(), 4);
        assert_eq!(batch.row(0), &[1, 2, 3]);
        assert_eq!(batch.row(1), &[] as &[Item]);
        assert_eq!(batch.row(2), &[7]);
        assert_eq!(batch.to_rows(), vec![vec![1, 2, 3], vec![], vec![7]]);
    }

    #[test]
    fn empty_batch() {
        let batch = ItemBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.iter().count(), 0);
        // Default must uphold the sentinel invariant too.
        assert_eq!(ItemBatch::default(), batch);
        assert_eq!(ItemBatch::default().len(), 0);
    }

    #[test]
    fn append_concatenates_in_row_order() {
        let a: ItemBatch = vec![vec![1, 2], vec![3]].into_iter().collect();
        let b: ItemBatch = vec![vec![], vec![4, 5]].into_iter().collect();
        let mut joined = a.clone();
        joined.append(&b);
        assert_eq!(joined.len(), 4);
        assert_eq!(
            joined.to_rows(),
            vec![vec![1, 2], vec![3], vec![], vec![4, 5]]
        );
    }

    #[test]
    #[should_panic(expected = "ItemBatch overflow: more than u32::MAX items")]
    fn offsets_reach_u32_max_and_no_further() {
        assert_eq!(end_offset(u32::MAX as usize), u32::MAX);
        end_offset(u32::MAX as usize + 1);
    }

    #[test]
    fn clear_leaves_an_empty_batch_that_fills_again() {
        let mut batch: ItemBatch = vec![vec![1, 2], vec![3]].into_iter().collect();
        batch.clear();
        assert_eq!(batch, ItemBatch::new());
        batch.push_row(&[4]);
        assert_eq!(batch.to_rows(), vec![vec![4]]);
    }

    #[test]
    fn iter_matches_indexed_rows() {
        let batch: ItemBatch = vec![vec![9], vec![8, 7], vec![6]].into_iter().collect();
        let via_iter: Vec<&[Item]> = batch.iter().collect();
        for (r, row) in via_iter.iter().enumerate() {
            assert_eq!(*row, batch.row(r));
        }
    }
}
