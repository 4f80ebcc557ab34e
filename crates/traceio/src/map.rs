//! Address-to-cache-block mapping.
//!
//! External traces speak byte addresses; the engines speak abstract
//! cache-block identifiers. [`BlockMap`] is the bridge: a configurable
//! block size (any positive number of bytes, 64 by default) plus an
//! optional set-hash that scatters block ids through a splitmix64
//! finalizer — useful when a trace's physical layout would otherwise
//! alias heavily in a set-indexed simulation. An access of `size` bytes
//! at `addr` touches every block overlapping `[addr, addr + size)`, so
//! one wide store can legitimately become several records.

/// How byte addresses become cache-block identifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMap {
    /// Bytes per cache block; 1 means addresses already *are* block ids.
    pub block_bytes: u64,
    /// Scatter block ids through a splitmix64 finalizer after mapping.
    pub set_hash: bool,
}

impl Default for BlockMap {
    fn default() -> Self {
        BlockMap {
            block_bytes: 64,
            set_hash: false,
        }
    }
}

impl BlockMap {
    /// The identity mapping: addresses are block ids, no hashing.
    pub fn identity() -> Self {
        BlockMap {
            block_bytes: 1,
            set_hash: false,
        }
    }

    /// Block id of the block containing `addr` (before hashing). At one
    /// byte per block — every pre-mapped binary trace — the address is
    /// the id and the runtime division is skipped.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        if self.block_bytes == 1 {
            addr
        } else {
            addr / self.block_bytes
        }
    }

    /// Applies the optional set-hash to a block id.
    #[inline]
    pub fn finish(&self, block: u64) -> u64 {
        if self.set_hash {
            cps_obs::splitmix64(block)
        } else {
            block
        }
    }

    /// The inclusive block-id range touched by an access of `size`
    /// (clamped to at least 1) bytes at `addr`, before hashing.
    #[inline]
    pub fn span(&self, addr: u64, size: u64) -> (u64, u64) {
        let last_byte = addr.saturating_add(size.max(1) - 1);
        (self.block_of(addr), self.block_of(last_byte))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_64_byte_blocks() {
        let m = BlockMap::default();
        assert_eq!(m.block_of(0), 0);
        assert_eq!(m.block_of(63), 0);
        assert_eq!(m.block_of(64), 1);
        assert_eq!(m.finish(5), 5);
    }

    #[test]
    fn span_covers_straddling_accesses() {
        let m = BlockMap::default();
        assert_eq!(m.span(60, 8), (0, 1)); // crosses one boundary
        assert_eq!(m.span(0, 64), (0, 0));
        assert_eq!(m.span(0, 65), (0, 1));
        assert_eq!(m.span(128, 1), (2, 2));
        assert_eq!(m.span(10, 0), (0, 0)); // size 0 clamps to 1 byte
        assert_eq!(m.span(u64::MAX, 16).1, u64::MAX / 64); // no overflow
    }

    #[test]
    fn identity_mapping_is_transparent() {
        let m = BlockMap::identity();
        assert_eq!(m.span(1234, 1), (1234, 1234));
        assert_eq!(m.finish(1234), 1234);
    }

    #[test]
    fn set_hash_scatters_deterministically() {
        let m = BlockMap {
            block_bytes: 64,
            set_hash: true,
        };
        assert_eq!(m.finish(7), m.finish(7));
        assert_ne!(m.finish(7), m.finish(8));
        assert_ne!(m.finish(7), 7, "hash must actually scatter");
    }
}
