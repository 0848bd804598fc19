//! Byte-addressed memory: the loaded image plus a sparse overlay.
//!
//! Loaded blocks are kept whole and read-only; every byte written, or
//! materialised by a read of unmapped memory, lives in a sparse
//! overlay that shadows the image. Loading is therefore O(blocks)
//! rather than O(bytes), and [`Mem::delta`] — what a run changed
//! relative to the image — costs O(overlay) instead of a walk over the
//! whole image.

use std::collections::BTreeMap;
use std::sync::Arc;

/// What a read of a never-written address yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPolicy {
    /// Unmapped bytes read as zero.
    Zero,
    /// Unmapped bytes read as a deterministic pseudo-random function of
    /// their address (materialised on first read, so subsequent reads
    /// agree). Used by the validator to model arbitrary-but-fixed
    /// memory contents.
    Hash(u64),
}

/// One loaded block: a non-empty run of image bytes that does not wrap
/// past `u64::MAX`.
#[derive(Debug, Clone)]
struct Block {
    start: u64,
    bytes: Arc<[u8]>,
}

impl Block {
    /// Address of the block's last byte.
    fn last(&self) -> u64 {
        self.start + (self.bytes.len() as u64 - 1)
    }
}

/// A sparse, byte-granular, little-endian memory.
///
/// Observably it is one map from address to byte: [`Mem::entries`],
/// [`Mem::len`] and `==` see every materialised byte (loaded, written,
/// or filled by a read), whichever layer holds it.
#[derive(Debug, Clone)]
pub struct Mem {
    /// Loaded blocks, sorted by start address and pairwise disjoint.
    image: Vec<Block>,
    /// Bytes written or materialised since (or without) a load; they
    /// shadow the image.
    overlay: BTreeMap<u64, u8>,
    fill: FillPolicy,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Default for Mem {
    fn default() -> Mem {
        Mem::new(FillPolicy::Zero)
    }
}

impl PartialEq for Mem {
    fn eq(&self, other: &Mem) -> bool {
        self.fill == other.fill && self.entries().eq(other.entries())
    }
}

impl Eq for Mem {}

impl Mem {
    /// Empty memory with the given fill policy.
    pub fn new(fill: FillPolicy) -> Mem {
        Mem { image: Vec::new(), overlay: BTreeMap::new(), fill }
    }

    /// The loaded byte at `addr`, ignoring the overlay.
    fn image_byte(&self, addr: u64) -> Option<u8> {
        let i = self.image.partition_point(|b| b.start <= addr).checked_sub(1)?;
        let b = &self.image[i];
        usize::try_from(addr - b.start).ok().and_then(|off| b.bytes.get(off).copied())
    }

    /// Read one byte (materialising fill bytes).
    pub fn read_u8(&mut self, addr: u64) -> u8 {
        if let Some(b) = self.overlay.get(&addr) {
            return *b;
        }
        if let Some(b) = self.image_byte(addr) {
            return b;
        }
        let v = match self.fill {
            FillPolicy::Zero => 0,
            FillPolicy::Hash(seed) => (splitmix64(addr ^ seed) & 0xff) as u8,
        };
        self.overlay.insert(addr, v);
        v
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.overlay.insert(addr, v);
    }

    /// Iterate every materialised byte in address order. Differential
    /// validators diff two memories modulo an instrumentation region by
    /// walking these entries rather than requiring whole-map equality.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        let mut image = self
            .image
            .iter()
            .flat_map(|b| b.bytes.iter().enumerate().map(|(i, v)| (b.start + i as u64, *v)))
            .peekable();
        let mut overlay = self.overlay.iter().map(|(a, v)| (*a, *v)).peekable();
        std::iter::from_fn(move || match (image.peek(), overlay.peek()) {
            (Some(&(i, _)), Some(&(o, _))) if i < o => image.next(),
            (Some(&(i, _)), Some(&(o, _))) => {
                if i == o {
                    image.next();
                }
                overlay.next()
            }
            (Some(_), None) => image.next(),
            (None, _) => overlay.next(),
        })
    }

    /// Iterate, in address order, the materialised bytes whose value
    /// differs from the loaded image: every written byte that changed
    /// a loaded byte, and every byte outside the image that was written
    /// or materialised by a read. Bytes written back to their loaded
    /// value are not part of the delta.
    pub fn delta(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.overlay
            .iter()
            .filter(|(a, v)| self.image_byte(**a) != Some(**v))
            .map(|(a, v)| (*a, *v))
    }

    /// Read `size` bytes little-endian (size ≤ 8).
    pub fn read(&mut self, addr: u64, size: u8) -> u64 {
        let mut v = 0u64;
        for i in 0..size {
            v |= (self.read_u8(addr.wrapping_add(i as u64)) as u64) << (8 * i);
        }
        v
    }

    /// Write the low `size` bytes of `v` little-endian.
    pub fn write(&mut self, addr: u64, size: u8, v: u64) {
        for i in 0..size {
            self.write_u8(addr.wrapping_add(i as u64), (v >> (8 * i)) as u8);
        }
    }

    /// Load a block of bytes at `addr`, replacing whatever was
    /// materialised there. Like [`Mem::write`], a block that runs past
    /// `u64::MAX` wraps around to address 0.
    pub fn load(&mut self, addr: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let room = u64::MAX - addr; // bytes after `addr` before the wrap
        let (head, tail) = match usize::try_from(room) {
            Ok(room) if room < data.len() - 1 => data.split_at(room + 1),
            _ => (data, &[][..]),
        };
        self.load_block(addr, head);
        if !tail.is_empty() {
            self.load_block(0, tail);
        }
    }

    /// Load a non-empty block that does not wrap.
    fn load_block(&mut self, start: u64, data: &[u8]) {
        let last = start + (data.len() as u64 - 1);
        let shadowed: Vec<u64> = self.overlay.range(start..=last).map(|(a, _)| *a).collect();
        for a in shadowed {
            self.overlay.remove(&a);
        }
        let mut image = Vec::with_capacity(self.image.len() + 2);
        for b in std::mem::take(&mut self.image) {
            if b.last() < start || b.start > last {
                image.push(b);
                continue;
            }
            // Keep the parts of an older block the new one does not cover.
            if b.start < start {
                let keep = (start - b.start) as usize;
                image.push(Block { start: b.start, bytes: b.bytes[..keep].into() });
            }
            if b.last() > last {
                let skip = (last + 1 - b.start) as usize;
                image.push(Block { start: last + 1, bytes: b.bytes[skip..].into() });
            }
        }
        image.push(Block { start, bytes: data.into() });
        image.sort_by_key(|b| b.start);
        self.image = image;
    }

    /// Number of materialised bytes.
    pub fn len(&self) -> usize {
        let loaded: usize = self.image.iter().map(|b| b.bytes.len()).sum();
        loaded + self.overlay.keys().filter(|a| self.image_byte(**a).is_none()).count()
    }

    /// True if no bytes are materialised.
    pub fn is_empty(&self) -> bool {
        self.image.is_empty() && self.overlay.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_roundtrip() {
        let mut m = Mem::default();
        m.write(0x1000, 8, 0x0102_0304_0506_0708);
        assert_eq!(m.read(0x1000, 8), 0x0102_0304_0506_0708);
        assert_eq!(m.read(0x1000, 4), 0x0506_0708);
        assert_eq!(m.read_u8(0x1007), 0x01);
    }

    #[test]
    fn hash_fill_is_consistent() {
        let mut m = Mem::new(FillPolicy::Hash(42));
        let a = m.read(0x5000, 8);
        let b = m.read(0x5000, 8);
        assert_eq!(a, b);
        let mut m2 = Mem::new(FillPolicy::Hash(42));
        assert_eq!(m2.read(0x5000, 8), a, "same seed, same contents");
        let mut m3 = Mem::new(FillPolicy::Hash(43));
        assert_ne!(m3.read(0x5000, 8), a, "different seed, different contents");
    }

    #[test]
    fn zero_fill() {
        let mut m = Mem::default();
        assert_eq!(m.read(0xffff_ffff_0000, 8), 0);
    }

    #[test]
    fn wrapping_addresses() {
        let mut m = Mem::default();
        m.write(u64::MAX, 2, 0xbeef);
        assert_eq!(m.read_u8(u64::MAX), 0xef);
        assert_eq!(m.read_u8(0), 0xbe);
    }

    #[test]
    fn wrapping_load() {
        let mut m = Mem::default();
        m.load(u64::MAX - 1, &[1, 2, 3, 4]);
        assert_eq!(m.read(u64::MAX - 1, 4), 0x0403_0201);
        assert_eq!(m.read_u8(1), 4);
        assert_eq!(m.len(), 4);
        let entries: Vec<(u64, u8)> = m.entries().collect();
        assert_eq!(entries, vec![(0, 3), (1, 4), (u64::MAX - 1, 1), (u64::MAX, 2)]);
        assert_eq!(m.delta().count(), 0);
    }

    #[test]
    fn delta_is_relative_to_the_image() {
        let mut m = Mem::default();
        m.load(0x1000, &[0xaa; 8]);
        m.write_u8(0x1000, 0xaa); // same as loaded: not a change
        m.write_u8(0x1001, 0x55);
        assert_eq!(m.read_u8(0x2000), 0); // materialised by the read
        let delta: Vec<(u64, u8)> = m.delta().collect();
        assert_eq!(delta, vec![(0x1001, 0x55), (0x2000, 0)]);
        assert_eq!(m.len(), 9);
        // A later load replaces overlay bytes and trims older blocks.
        m.load(0x1001, &[0x11, 0x22]);
        assert_eq!(m.delta().collect::<Vec<_>>(), vec![(0x2000, 0)]);
        assert_eq!(m.read(0x1000, 4), 0xaa22_11aa);
        assert_eq!(m.len(), 9);
    }
}
