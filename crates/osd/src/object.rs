//! Byte-accessible storage objects.
//!
//! An [`Object`] is the paper's fundamental container: "not only can you
//! read bytes from the object, but you can insert bytes into the middle of
//! objects, remove bytes from the middle, etc." (§3).
//!
//! Each object is represented exactly as §3.4 describes: a B-tree whose
//! keys are logical file offsets and whose values are disk addresses and
//! lengths ([`ExtentValue`]), with the object metadata stored under a
//! reserved "NULL" key. Insert and range-truncate are metadata operations
//! on the extent map (plus at most one bounded data copy at each affected
//! extent boundary), which is what makes them cheap compared to the
//! read-modify-rewrite a conventional file system needs — experiment E3
//! measures precisely this difference.

use hfad_btree::BTree;
use hfad_storage::Extent;

use crate::error::{OsdError, Result};
use crate::meta::{unix_now, ObjectMeta};
use crate::oid::ObjectId;

/// Reserved key holding the object metadata (the paper's "NULL key").
const META_KEY: [u8; 1] = [0x00];
/// Prefix byte for extent-map keys.
const EXTENT_PREFIX: u8 = 0x01;

/// Default maximum number of bytes covered by one extent.
pub const DEFAULT_MAX_EXTENT_BYTES: u64 = 256 * 1024;

/// A value in the extent map: where an extent's bytes live on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentValue {
    /// First device block of the extent's storage.
    pub start_block: u64,
    /// Blocks reserved by the allocator (freed as one unit).
    pub alloc_blocks: u64,
    /// Bytes of object data stored in the extent.
    pub byte_len: u64,
}

impl ExtentValue {
    /// Encoded length in bytes.
    pub const ENCODED_LEN: usize = 24;

    /// Serialises the value.
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[0..8].copy_from_slice(&self.start_block.to_le_bytes());
        out[8..16].copy_from_slice(&self.alloc_blocks.to_le_bytes());
        out[16..24].copy_from_slice(&self.byte_len.to_le_bytes());
        out
    }

    /// Deserialises a value written by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < Self::ENCODED_LEN {
            return Err(OsdError::Corrupt("extent value too short".to_string()));
        }
        Ok(ExtentValue {
            start_block: u64::from_le_bytes(buf[0..8].try_into().expect("u64")),
            alloc_blocks: u64::from_le_bytes(buf[8..16].try_into().expect("u64")),
            byte_len: u64::from_le_bytes(buf[16..24].try_into().expect("u64")),
        })
    }
}

/// Encodes the extent-map key for a logical offset.
fn extent_key(offset: u64) -> [u8; 9] {
    let mut key = [0u8; 9];
    key[0] = EXTENT_PREFIX;
    key[1..9].copy_from_slice(&offset.to_be_bytes());
    key
}

/// Decodes a logical offset from an extent-map key.
fn parse_extent_key(key: &[u8]) -> Option<u64> {
    if key.len() != 9 || key[0] != EXTENT_PREFIX {
        return None;
    }
    Some(u64::from_be_bytes(key[1..9].try_into().ok()?))
}

/// Summary statistics for one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObjectStats {
    /// Logical size in bytes.
    pub size: u64,
    /// Number of extents in the map.
    pub extents: u64,
    /// Device blocks reserved for the object's data.
    pub allocated_blocks: u64,
}

/// An open, byte-accessible object.
///
/// Obtained from [`ObjectStore`](crate::store::ObjectStore); all mutating
/// operations update the object metadata (size and modification time) and
/// persist it to the object's B-tree.
pub struct Object {
    oid: ObjectId,
    tree: BTree,
    meta: ObjectMeta,
    block_size: usize,
    max_extent_bytes: u64,
}

impl Object {
    /// Wraps an existing extent-map tree. Used by the store.
    pub(crate) fn from_parts(
        oid: ObjectId,
        tree: BTree,
        meta: ObjectMeta,
        max_extent_bytes: u64,
    ) -> Self {
        let block_size = tree.context().device.block_size();
        Object {
            oid,
            tree,
            meta,
            block_size,
            max_extent_bytes,
        }
    }

    /// Creates a brand-new object backed by a fresh B-tree.
    pub(crate) fn create(
        oid: ObjectId,
        ctx: hfad_btree::TreeContext,
        meta: ObjectMeta,
        max_extent_bytes: u64,
    ) -> Result<Self> {
        let mut tree = BTree::create(ctx)?;
        tree.insert(&META_KEY, &meta.encode())?;
        Ok(Object::from_parts(oid, tree, meta, max_extent_bytes))
    }

    /// This object's identifier.
    pub fn oid(&self) -> ObjectId {
        self.oid
    }

    /// Current metadata (cached copy; always in sync with the tree).
    pub fn meta(&self) -> ObjectMeta {
        self.meta
    }

    /// Logical size in bytes.
    pub fn len(&self) -> u64 {
        self.meta.size
    }

    /// Returns `true` if the object holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.meta.size == 0
    }

    /// Root page of the extent-map tree (persisted by the store).
    pub fn root_page(&self) -> u64 {
        self.tree.root_page()
    }

    /// Replaces the security attributes and flags (size and times are
    /// managed by the data operations).
    pub fn set_meta(&mut self, meta: ObjectMeta) -> Result<()> {
        self.meta.security = meta.security;
        self.meta.flags = meta.flags;
        self.write_meta()
    }

    fn write_meta(&mut self) -> Result<()> {
        self.tree.insert(&META_KEY, &self.meta.encode())?;
        Ok(())
    }

    fn touch_modified(&mut self) {
        self.meta.modified = unix_now();
    }

    /// Collects `(logical_start, value)` for every extent overlapping
    /// `[lo, hi)`. Because extents never exceed `max_extent_bytes`, the scan
    /// can start a bounded distance before `lo`.
    fn find_extents(&self, lo: u64, hi: u64) -> Result<Vec<(u64, ExtentValue)>> {
        if hi <= lo {
            return Ok(Vec::new());
        }
        let scan_from = lo.saturating_sub(self.max_extent_bytes);
        let lower = extent_key(scan_from);
        let upper = extent_key(hi);
        let mut out = Vec::new();
        for entry in self.tree.range(&lower, Some(&upper))? {
            let (key, value) = entry?;
            let Some(start) = parse_extent_key(&key) else {
                continue;
            };
            let value = ExtentValue::decode(&value)?;
            if start + value.byte_len > lo && start < hi {
                out.push((start, value));
            }
        }
        Ok(out)
    }

    /// Collects every extent at or after logical offset `from`.
    fn extents_from(&self, from: u64) -> Result<Vec<(u64, ExtentValue)>> {
        let lower = extent_key(from);
        let mut out = Vec::new();
        for entry in self.tree.range(&lower, None)? {
            let (key, value) = entry?;
            if let Some(start) = parse_extent_key(&key) {
                out.push((start, ExtentValue::decode(&value)?));
            }
        }
        Ok(out)
    }

    /// Every extent in the map, in logical order.
    pub(crate) fn all_extents(&self) -> Result<Vec<(u64, ExtentValue)>> {
        self.extents_from(0)
    }

    /// Summary statistics.
    pub fn stats(&self) -> Result<ObjectStats> {
        let extents = self.all_extents()?;
        Ok(ObjectStats {
            size: self.meta.size,
            extents: extents.len() as u64,
            allocated_blocks: extents.iter().map(|(_, v)| v.alloc_blocks).sum(),
        })
    }

    fn alloc_extent(&self, byte_len: u64) -> Result<ExtentValue> {
        let blocks = byte_len.div_ceil(self.block_size as u64).max(1);
        let granted = self.tree.context().allocator.allocate(blocks)?;
        Ok(ExtentValue {
            start_block: granted.start,
            alloc_blocks: granted.len,
            byte_len,
        })
    }

    fn free_extent(&self, value: &ExtentValue) -> Result<()> {
        self.tree
            .context()
            .allocator
            .free(Extent::new(value.start_block, value.alloc_blocks))?;
        Ok(())
    }

    /// Reads `len` bytes of an extent's stored data starting `from` bytes
    /// into the extent.
    fn read_extent_data(&self, value: &ExtentValue, from: u64, len: u64) -> Result<Vec<u8>> {
        debug_assert!(from + len <= value.byte_len);
        let device = &self.tree.context().device;
        let bs = self.block_size as u64;
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = from;
        let mut block_buf = vec![0u8; self.block_size];
        while (pos - from) < len {
            let block = value.start_block + pos / bs;
            let in_block = (pos % bs) as usize;
            let chunk = ((len - (pos - from)) as usize).min(self.block_size - in_block);
            device.read_block(block, &mut block_buf)?;
            out.extend_from_slice(&block_buf[in_block..in_block + chunk]);
            pos += chunk as u64;
        }
        Ok(out)
    }

    /// Writes `data` into an extent's storage starting `from` bytes into the
    /// extent. Partial blocks at the edges are read-modified-written, except
    /// in a `fresh` (just allocated) extent: it holds no data yet, so its
    /// partial tail block is zero-filled instead of read back.
    fn write_extent_data(
        &self,
        value: &ExtentValue,
        from: u64,
        data: &[u8],
        fresh: bool,
    ) -> Result<()> {
        debug_assert!(from + data.len() as u64 <= value.alloc_blocks * self.block_size as u64);
        let device = &self.tree.context().device;
        let bs = self.block_size as u64;
        let mut pos = from;
        let mut written = 0usize;
        let mut block_buf = vec![0u8; self.block_size];
        while written < data.len() {
            let block = value.start_block + pos / bs;
            let in_block = (pos % bs) as usize;
            let chunk = (data.len() - written).min(self.block_size - in_block);
            if !fresh && (in_block != 0 || chunk != self.block_size) {
                device.read_block(block, &mut block_buf)?;
            } else {
                block_buf.iter_mut().for_each(|b| *b = 0);
            }
            block_buf[in_block..in_block + chunk].copy_from_slice(&data[written..written + chunk]);
            device.write_block(block, &block_buf)?;
            written += chunk;
            pos += chunk as u64;
        }
        Ok(())
    }

    /// Appends fresh extents holding `data` with logical start `offset`.
    fn add_data_extents(&mut self, mut offset: u64, data: &[u8]) -> Result<()> {
        let mut remaining = data;
        while !remaining.is_empty() {
            let chunk_len = (remaining.len() as u64).min(self.max_extent_bytes);
            let value = self.alloc_extent(chunk_len)?;
            self.write_extent_data(&value, 0, &remaining[..chunk_len as usize], true)?;
            self.tree.insert(&extent_key(offset), &value.encode())?;
            offset += chunk_len;
            remaining = &remaining[chunk_len as usize..];
        }
        Ok(())
    }

    /// Splits the extent starting at `start` so that the first `split_off`
    /// bytes stay in place and the remainder becomes a separate extent (with
    /// its data copied to a fresh allocation) keyed at `start + split_off`.
    fn split_extent_at(&mut self, start: u64, value: ExtentValue, split_off: u64) -> Result<()> {
        debug_assert!(split_off > 0 && split_off < value.byte_len);
        let tail_len = value.byte_len - split_off;
        let tail_data = self.read_extent_data(&value, split_off, tail_len)?;
        // Shrink the original in place; its allocation is kept whole and
        // freed when the extent is eventually removed.
        let mut head = value;
        head.byte_len = split_off;
        self.tree.insert(&extent_key(start), &head.encode())?;
        let tail = self.alloc_extent(tail_len)?;
        self.write_extent_data(&tail, 0, &tail_data, true)?;
        self.tree
            .insert(&extent_key(start + split_off), &tail.encode())?;
        Ok(())
    }

    /// Reads up to `len` bytes starting at `offset`. Reads past the end of
    /// the object are truncated; holes read as zeros.
    pub fn read(&mut self, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.meta.accessed = unix_now();
        if offset >= self.meta.size {
            return Ok(Vec::new());
        }
        let len = len.min(self.meta.size - offset);
        let mut out = vec![0u8; len as usize];
        for (start, value) in self.find_extents(offset, offset + len)? {
            let ext_lo = start.max(offset);
            let ext_hi = (start + value.byte_len).min(offset + len);
            if ext_hi <= ext_lo {
                continue;
            }
            let data = self.read_extent_data(&value, ext_lo - start, ext_hi - ext_lo)?;
            let dst = (ext_lo - offset) as usize;
            out[dst..dst + data.len()].copy_from_slice(&data);
        }
        Ok(out)
    }

    /// Writes `data` at `offset`, overwriting existing bytes and extending
    /// the object if the write reaches past its end. Writing past the end
    /// leaves a hole that reads as zeros.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let end = offset + data.len() as u64;
        // Overwrite the parts covered by existing extents.
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for (start, value) in self.find_extents(offset, end)? {
            let lo = start.max(offset);
            let hi = (start + value.byte_len).min(end);
            if hi <= lo {
                continue;
            }
            self.write_extent_data(
                &value,
                lo - start,
                &data[(lo - offset) as usize..(hi - offset) as usize],
                false,
            )?;
            covered.push((lo, hi));
        }
        covered.sort_unstable();
        // Allocate new extents for the uncovered gaps.
        let mut cursor = offset;
        for (lo, hi) in &covered {
            if *lo > cursor {
                self.add_data_extents(
                    cursor,
                    &data[(cursor - offset) as usize..(lo - offset) as usize],
                )?;
            }
            cursor = cursor.max(*hi);
        }
        if cursor < end {
            self.add_data_extents(cursor, &data[(cursor - offset) as usize..])?;
        }
        self.meta.size = self.meta.size.max(end);
        self.touch_modified();
        self.write_meta()
    }

    /// Appends `data` to the end of the object.
    pub fn append(&mut self, data: &[u8]) -> Result<()> {
        self.write(self.meta.size, data)
    }

    /// Inserts `data` at `offset`, shifting every byte at or after `offset`
    /// towards the end of the object (§3.1.2's `insert` call).
    ///
    /// `offset` must be at most the current size.
    pub fn insert(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        if offset > self.meta.size {
            return Err(OsdError::OutOfBounds {
                size: self.meta.size,
                offset,
                len: data.len() as u64,
            });
        }
        if data.is_empty() {
            return Ok(());
        }
        // Split the extent containing the insertion point, if any, so every
        // extent lies entirely before or entirely at/after `offset`.
        for (start, value) in self.find_extents(offset.saturating_sub(1), offset + 1)? {
            if start < offset && start + value.byte_len > offset {
                self.split_extent_at(start, value, offset - start)?;
            }
        }
        // Shift every extent at or after the insertion point. Processing in
        // descending key order avoids transient key collisions.
        let shift = data.len() as u64;
        let mut to_shift = self.extents_from(offset)?;
        to_shift.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        for (start, value) in to_shift {
            self.tree.delete(&extent_key(start))?;
            self.tree
                .insert(&extent_key(start + shift), &value.encode())?;
        }
        // Store the new bytes.
        self.add_data_extents(offset, data)?;
        self.meta.size += shift;
        self.touch_modified();
        self.write_meta()
    }

    /// Removes `len` bytes starting at `offset`, shifting the remainder of
    /// the object towards the start (§3.1.2's extended `truncate` call,
    /// which "takes two off_t's, an offset and length").
    ///
    /// The range is clamped to the current size; truncating a range that
    /// starts at or past the end is a no-op.
    pub fn truncate_range(&mut self, offset: u64, len: u64) -> Result<()> {
        if offset >= self.meta.size || len == 0 {
            return Ok(());
        }
        let len = len.min(self.meta.size - offset);
        let end = offset + len;
        // Split boundary extents so every extent is fully inside or fully
        // outside the removal range.
        for (start, value) in self.find_extents(offset.saturating_sub(1), offset + 1)? {
            if start < offset && start + value.byte_len > offset {
                self.split_extent_at(start, value, offset - start)?;
            }
        }
        for (start, value) in self.find_extents(end.saturating_sub(1), end + 1)? {
            if start < end && start + value.byte_len > end {
                self.split_extent_at(start, value, end - start)?;
            }
        }
        // Drop every extent fully inside the range and free its blocks.
        for (start, value) in self.find_extents(offset, end)? {
            debug_assert!(start >= offset && start + value.byte_len <= end);
            self.tree.delete(&extent_key(start))?;
            self.free_extent(&value)?;
        }
        // Shift everything after the range towards the start, in ascending
        // order so shifted keys never collide with not-yet-moved ones.
        let mut to_shift = self.extents_from(end)?;
        to_shift.sort_unstable_by_key(|(start, _)| *start);
        for (start, value) in to_shift {
            self.tree.delete(&extent_key(start))?;
            self.tree
                .insert(&extent_key(start - len), &value.encode())?;
        }
        self.meta.size -= len;
        self.touch_modified();
        self.write_meta()
    }

    /// POSIX-style truncate to an absolute size: shrinking removes the tail,
    /// growing leaves a hole.
    pub fn truncate(&mut self, new_size: u64) -> Result<()> {
        if new_size < self.meta.size {
            self.truncate_range(new_size, self.meta.size - new_size)
        } else {
            self.meta.size = new_size;
            self.touch_modified();
            self.write_meta()
        }
    }

    /// Frees all data extents and destroys the extent-map tree. Consumes the
    /// object; used by [`ObjectStore::delete`](crate::store::ObjectStore::delete).
    pub(crate) fn destroy(self) -> Result<()> {
        for (_, value) in self.all_extents()? {
            self.free_extent(&value)?;
        }
        self.tree.destroy()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hfad_btree::TreeContext;
    use hfad_storage::{Allocator, BlockDevice, BuddyAllocator, MemDevice};

    use super::*;

    fn new_object(max_extent: u64) -> Object {
        let device = Arc::new(MemDevice::new(16384, 512));
        let allocator = Arc::new(BuddyAllocator::new(1, 16383));
        let ctx = TreeContext::new(device, allocator);
        Object::create(
            ObjectId(1),
            ctx,
            ObjectMeta::new(0, 0, 0o644, 1),
            max_extent,
        )
        .unwrap()
    }

    #[test]
    fn fresh_extent_tail_is_zero_filled_without_a_device_read() {
        let device = Arc::new(MemDevice::new(16384, 512));
        let allocator = Arc::new(BuddyAllocator::new(1, 16383));
        let ctx = TreeContext::new(
            Arc::clone(&device) as Arc<dyn BlockDevice>,
            Arc::clone(&allocator) as Arc<dyn Allocator>,
        )
        .with_node_cache(64);
        let mut obj =
            Object::create(ObjectId(1), ctx, ObjectMeta::new(0, 0, 0o644, 1), 4096).unwrap();
        // Leave stale bytes in a block, then free it for reuse.
        let stale = allocator.allocate(1).unwrap();
        device.write_block(stale.start, &[0xEE; 512]).unwrap();
        allocator.free(stale).unwrap();

        let before = device.counters();
        obj.write(0, &[0x42; 100]).unwrap();
        let extents = obj.all_extents().unwrap();
        assert_eq!(extents.len(), 1);
        assert_eq!(extents[0].1.start_block, stale.start, "freed block reused");
        assert_eq!(
            device.counters().delta_since(&before).reads,
            0,
            "a fresh extent's tail must not be read back"
        );
        let mut block = vec![0u8; 512];
        device.read_block(stale.start, &mut block).unwrap();
        assert!(block[..100].iter().all(|&b| b == 0x42));
        assert!(block[100..].iter().all(|&b| b == 0), "stale tail zeroed");
    }

    #[test]
    fn new_object_is_empty() {
        let mut obj = new_object(4096);
        assert!(obj.is_empty());
        assert_eq!(obj.len(), 0);
        assert_eq!(obj.read(0, 100).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut obj = new_object(4096);
        let data = b"hello object storage device".to_vec();
        obj.write(0, &data).unwrap();
        assert_eq!(obj.len(), data.len() as u64);
        assert_eq!(obj.read(0, data.len() as u64).unwrap(), data);
        assert_eq!(obj.read(6, 6).unwrap(), b"object".to_vec());
    }

    #[test]
    fn overwrite_in_place() {
        let mut obj = new_object(4096);
        obj.write(0, b"aaaaaaaaaa").unwrap();
        obj.write(3, b"BBB").unwrap();
        assert_eq!(obj.read(0, 10).unwrap(), b"aaaBBBaaaa".to_vec());
        assert_eq!(obj.len(), 10);
    }

    #[test]
    fn write_spanning_multiple_extents() {
        let mut obj = new_object(100);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        obj.write(0, &data).unwrap();
        assert_eq!(obj.read(0, 1000).unwrap(), data);
        let stats = obj.stats().unwrap();
        assert!(stats.extents >= 10, "expected many small extents");
    }

    #[test]
    fn sparse_write_leaves_zero_hole() {
        let mut obj = new_object(4096);
        obj.write(0, b"head").unwrap();
        obj.write(100, b"tail").unwrap();
        assert_eq!(obj.len(), 104);
        let hole = obj.read(4, 96).unwrap();
        assert!(hole.iter().all(|&b| b == 0));
        assert_eq!(obj.read(100, 4).unwrap(), b"tail".to_vec());
    }

    #[test]
    fn append_grows_object() {
        let mut obj = new_object(64);
        for i in 0..20u8 {
            obj.append(&[i; 10]).unwrap();
        }
        assert_eq!(obj.len(), 200);
        assert_eq!(obj.read(150, 10).unwrap(), vec![15u8; 10]);
    }

    #[test]
    fn insert_in_middle_shifts_tail() {
        let mut obj = new_object(4096);
        obj.write(0, b"hello world").unwrap();
        obj.insert(5, b", tagged").unwrap();
        assert_eq!(obj.len(), 19);
        assert_eq!(obj.read(0, 19).unwrap(), b"hello, tagged world".to_vec());
    }

    #[test]
    fn insert_at_start_and_end() {
        let mut obj = new_object(4096);
        obj.write(0, b"middle").unwrap();
        obj.insert(0, b"start-").unwrap();
        obj.insert(obj.len(), b"-end").unwrap();
        assert_eq!(
            obj.read(0, obj.len()).unwrap(),
            b"start-middle-end".to_vec()
        );
    }

    #[test]
    fn insert_beyond_end_rejected() {
        let mut obj = new_object(4096);
        obj.write(0, b"abc").unwrap();
        let err = obj.insert(10, b"x").unwrap_err();
        assert!(matches!(err, OsdError::OutOfBounds { .. }));
    }

    #[test]
    fn insert_into_multi_extent_object() {
        let mut obj = new_object(128);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        obj.write(0, &data).unwrap();
        obj.insert(500, b"INSERTED").unwrap();
        let mut expected = data.clone();
        expected.splice(500..500, b"INSERTED".iter().copied());
        assert_eq!(obj.read(0, obj.len()).unwrap(), expected);
    }

    #[test]
    fn truncate_range_middle() {
        let mut obj = new_object(4096);
        obj.write(0, b"hello cruel world").unwrap();
        obj.truncate_range(5, 6).unwrap();
        assert_eq!(obj.read(0, obj.len()).unwrap(), b"hello world".to_vec());
        assert_eq!(obj.len(), 11);
    }

    #[test]
    fn truncate_range_across_extents_frees_blocks() {
        let mut obj = new_object(128);
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        obj.write(0, &data).unwrap();
        let before_blocks = obj.stats().unwrap().allocated_blocks;
        obj.truncate_range(100, 1500).unwrap();
        let mut expected = data.clone();
        expected.drain(100..1600);
        assert_eq!(obj.len(), 500);
        assert_eq!(obj.read(0, obj.len()).unwrap(), expected);
        assert!(obj.stats().unwrap().allocated_blocks < before_blocks);
    }

    #[test]
    fn truncate_range_clamps_to_size() {
        let mut obj = new_object(4096);
        obj.write(0, b"0123456789").unwrap();
        obj.truncate_range(5, 1000).unwrap();
        assert_eq!(obj.read(0, obj.len()).unwrap(), b"01234".to_vec());
        // A range past the end is a no-op.
        obj.truncate_range(100, 5).unwrap();
        assert_eq!(obj.len(), 5);
    }

    #[test]
    fn posix_truncate_shrink_and_grow() {
        let mut obj = new_object(4096);
        obj.write(0, b"abcdefghij").unwrap();
        obj.truncate(4).unwrap();
        assert_eq!(obj.read(0, 10).unwrap(), b"abcd".to_vec());
        obj.truncate(8).unwrap();
        assert_eq!(obj.len(), 8);
        assert_eq!(obj.read(4, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn metadata_tracks_size_and_times() {
        let mut obj = new_object(4096);
        assert_eq!(obj.meta().size, 0);
        obj.write(0, b"xyz").unwrap();
        assert_eq!(obj.meta().size, 3);
        assert!(obj.meta().modified >= obj.meta().created);
    }

    #[test]
    fn destroy_returns_all_storage() {
        let device = Arc::new(MemDevice::new(16384, 512));
        let allocator = Arc::new(BuddyAllocator::new(1, 16383));
        let free_before = allocator.stats().free_blocks;
        let ctx = TreeContext::new(
            device,
            Arc::clone(&allocator) as Arc<dyn hfad_storage::Allocator>,
        );
        let mut obj =
            Object::create(ObjectId(9), ctx, ObjectMeta::new(0, 0, 0o644, 1), 256).unwrap();
        obj.write(0, &vec![7u8; 5000]).unwrap();
        assert!(allocator.stats().free_blocks < free_before);
        obj.destroy().unwrap();
        assert_eq!(allocator.stats().free_blocks, free_before);
    }

    #[test]
    fn extent_value_round_trip() {
        let v = ExtentValue {
            start_block: 77,
            alloc_blocks: 8,
            byte_len: 3000,
        };
        assert_eq!(ExtentValue::decode(&v.encode()).unwrap(), v);
        assert!(ExtentValue::decode(&[0u8; 5]).is_err());
    }

    #[test]
    fn extent_key_round_trip_and_order() {
        assert!(extent_key(5) < extent_key(6));
        assert!(extent_key(255) < extent_key(256));
        assert_eq!(parse_extent_key(&extent_key(12345)), Some(12345));
        assert_eq!(parse_extent_key(&META_KEY), None);
    }
}
