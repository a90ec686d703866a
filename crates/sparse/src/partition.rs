//! Contiguous row-block partitions.
//!
//! The block-asynchronous method decomposes the linear system "into blocks
//! of rows, and the computations for each block are assigned to one thread
//! block on the GPU" (paper §3.3). On multi-GPU systems the same is done at
//! the device level first (§3.4). A [`RowPartition`] records such a
//! decomposition; nesting a partition inside another gives the device →
//! thread-block hierarchy.

use crate::{Result, SparseError};

/// A half-open range of rows `[start, end)` handled as one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBlock {
    /// First row of the block.
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

impl RowBlock {
    /// Number of rows in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` for an empty block (never produced by the constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// `true` if `row` lies in the block.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        row >= self.start && row < self.end
    }
}

/// A partition of `0..n` into contiguous, non-empty row blocks.
///
/// # Examples
///
/// ```
/// use abr_sparse::RowPartition;
///
/// let p = RowPartition::uniform(1000, 448).unwrap();
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.block(2).len(), 104);
/// assert_eq!(p.block_of(447), 0);
/// assert_eq!(p.block_of(448), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    n: usize,
    blocks: Vec<RowBlock>,
}

impl RowPartition {
    /// Splits `0..n` into blocks of `block_size` rows (last block may be
    /// smaller). This mirrors the paper's fixed thread-block size (448 for
    /// the main experiments, 128 for the non-determinism study).
    pub fn uniform(n: usize, block_size: usize) -> Result<Self> {
        if block_size == 0 {
            return Err(SparseError::Generator("block_size must be positive".into()));
        }
        if n == 0 {
            return Err(SparseError::Generator("cannot partition an empty system".into()));
        }
        let mut blocks = Vec::with_capacity(n.div_ceil(block_size));
        let mut start = 0;
        while start < n {
            let end = (start + block_size).min(n);
            blocks.push(RowBlock { start, end });
            start = end;
        }
        Ok(RowPartition { n, blocks })
    }

    /// Splits `0..n` into exactly `k` near-equal contiguous blocks
    /// (used for the per-device split on multi-GPU systems).
    pub fn equal_count(n: usize, k: usize) -> Result<Self> {
        if k == 0 || k > n {
            return Err(SparseError::Generator(format!(
                "cannot split {n} rows into {k} blocks"
            )));
        }
        let base = n / k;
        let extra = n % k;
        let mut blocks = Vec::with_capacity(k);
        let mut start = 0;
        for i in 0..k {
            let len = base + usize::from(i < extra);
            blocks.push(RowBlock { start, end: start + len });
            start += len;
        }
        Ok(RowPartition { n, blocks })
    }

    /// Builds from explicit block boundaries `[0, b1, b2, ..., n]`.
    pub fn from_offsets(offsets: &[usize]) -> Result<Self> {
        if offsets.len() < 2 || offsets[0] != 0 {
            return Err(SparseError::Generator("offsets must start at 0 and have >= 2 entries".into()));
        }
        for w in offsets.windows(2) {
            if w[0] >= w[1] {
                return Err(SparseError::Generator("offsets must be strictly increasing".into()));
            }
        }
        let n = *offsets.last().unwrap();
        let blocks = offsets
            .windows(2)
            .map(|w| RowBlock { start: w[0], end: w[1] })
            .collect();
        Ok(RowPartition { n, blocks })
    }

    /// Total number of rows covered.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if there are no blocks (cannot happen via constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The blocks in row order.
    #[inline]
    pub fn blocks(&self) -> &[RowBlock] {
        &self.blocks
    }

    /// The block with index `i`.
    #[inline]
    pub fn block(&self, i: usize) -> RowBlock {
        self.blocks[i]
    }

    /// Index of the block containing `row`. Most partitions are uniform,
    /// so the first guess is `row` over the first block's length; when
    /// that block does not hold `row`, a binary search finds the owner.
    #[inline]
    pub fn block_of(&self, row: usize) -> usize {
        debug_assert!(row < self.n);
        let guess = row / self.blocks.first().map_or(1, RowBlock::len);
        match self.blocks.get(guess) {
            Some(b) if b.contains(row) => guess,
            _ => self.blocks.partition_point(|b| b.end <= row),
        }
    }

    /// Splits each block of `self` by a target sub-block size, producing the
    /// nested thread-block partition inside a device partition.
    pub fn refine(&self, sub_block_size: usize) -> Result<RowPartition> {
        if sub_block_size == 0 {
            return Err(SparseError::Generator("sub_block_size must be positive".into()));
        }
        let mut blocks = Vec::new();
        for b in &self.blocks {
            let mut start = b.start;
            while start < b.end {
                let end = (start + sub_block_size).min(b.end);
                blocks.push(RowBlock { start, end });
                start = end;
            }
        }
        Ok(RowPartition { n: self.n, blocks })
    }

    /// Checks the partition invariant: blocks tile `0..n` exactly.
    pub fn validate(&self) -> Result<()> {
        let mut expect = 0;
        for b in &self.blocks {
            if b.start != expect || b.is_empty() {
                return Err(SparseError::Generator(format!(
                    "partition gap/overlap at row {expect}"
                )));
            }
            expect = b.end;
        }
        if expect != self.n {
            return Err(SparseError::Generator("partition does not cover all rows".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_exactly() {
        let p = RowPartition::uniform(100, 32).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.block(0), RowBlock { start: 0, end: 32 });
        assert_eq!(p.block(3), RowBlock { start: 96, end: 100 });
        p.validate().unwrap();
    }

    #[test]
    fn uniform_exact_multiple() {
        let p = RowPartition::uniform(96, 32).unwrap();
        assert_eq!(p.len(), 3);
        assert!(p.blocks().iter().all(|b| b.len() == 32));
    }

    #[test]
    fn uniform_block_bigger_than_n() {
        let p = RowPartition::uniform(10, 1000).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.block(0).len(), 10);
    }

    #[test]
    fn uniform_rejects_zero() {
        assert!(RowPartition::uniform(10, 0).is_err());
        assert!(RowPartition::uniform(0, 4).is_err());
    }

    #[test]
    fn equal_count_distributes_remainder() {
        let p = RowPartition::equal_count(10, 3).unwrap();
        let lens: Vec<usize> = p.blocks().iter().map(|b| b.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        p.validate().unwrap();
    }

    #[test]
    fn equal_count_rejects_bad_k() {
        assert!(RowPartition::equal_count(3, 0).is_err());
        assert!(RowPartition::equal_count(3, 4).is_err());
    }

    #[test]
    fn block_of_finds_owner() {
        let p = RowPartition::uniform(100, 30).unwrap();
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(29), 0);
        assert_eq!(p.block_of(30), 1);
        assert_eq!(p.block_of(99), 3);
        for row in 0..100 {
            assert!(p.block(p.block_of(row)).contains(row));
        }
    }

    #[test]
    fn block_of_agrees_with_the_binary_search() {
        let uniform = RowPartition::uniform(1000, 37).unwrap();
        let parts = [
            RowPartition::uniform(1000, 1).unwrap(),
            RowPartition::uniform(1000, 448).unwrap(),
            RowPartition::equal_count(1000, 7).unwrap(),
            RowPartition::equal_count(1000, 1000).unwrap(),
            RowPartition::equal_count(1000, 3).unwrap().refine(64).unwrap(),
            uniform.refine(8).unwrap(),
            uniform.clone(),
        ];
        for p in &parts {
            for row in 0..p.n() {
                let owner = p.blocks().partition_point(|b| b.end <= row);
                assert_eq!(p.block_of(row), owner, "row {row} of a {}-block partition", p.len());
            }
        }
    }

    #[test]
    fn refine_nests() {
        let devices = RowPartition::equal_count(100, 2).unwrap();
        let tb = devices.refine(16).unwrap();
        tb.validate().unwrap();
        // No thread block crosses a device boundary.
        for b in tb.blocks() {
            let d0 = devices.block_of(b.start);
            let d1 = devices.block_of(b.end - 1);
            assert_eq!(d0, d1);
        }
    }

    #[test]
    fn from_offsets_roundtrip() {
        let p = RowPartition::from_offsets(&[0, 5, 9, 20]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.n(), 20);
        p.validate().unwrap();
        assert!(RowPartition::from_offsets(&[0, 5, 5]).is_err());
        assert!(RowPartition::from_offsets(&[1, 5]).is_err());
        assert!(RowPartition::from_offsets(&[0]).is_err());
    }
}
