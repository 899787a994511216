//! The shard map: the cluster's routing authority.
//!
//! A [`ShardMap`] names, for every global shard, the worker that owns
//! it, and stamps the assignment with a monotonically increasing
//! *epoch*. The coordinator owns the map; everyone else (routers,
//! workers, clients) holds a copy and treats the epoch as the version
//! of the world — a frame carrying an older epoch is stale and must be
//! ignored.
//!
//! The partition function lives here too, so every layer that needs
//! "which shard owns this hash" — the in-process router
//! (`punct_exec::shard_of_hash`), the cluster coordinator, migration
//! rehashing — agrees on one definition. It uses the *high* 32 bits of
//! the join hash, deliberately decorrelated from `spillstore`'s bucket
//! modulus (which consumes the low bits), so shard and bucket selection
//! stay independent.

use crate::wire::{put_u32, put_u64, WireError, WireReader};

/// Upper bound on a shard count: a punctuation's target shards are a
/// `u64` bitmask (`punct_exec::Route::mask`, the aligners, a cluster
/// worker's owned set), so a 65th shard would shift out of the word.
pub const MAX_SHARDS: usize = 64;

/// Which shard (of `shards`) owns join hash `hash`.
///
/// `None` (unjoinable keys: null join attributes) deterministically maps
/// to shard 0 so such tuples still land somewhere consistent.
pub fn partition(hash: Option<u64>, shards: usize) -> usize {
    debug_assert!(shards > 0, "partition over zero shards");
    match hash {
        Some(h) => ((h >> 32) % shards as u64) as usize,
        None => 0,
    }
}

/// A versioned shard→worker assignment.
///
/// `assignment[shard]` is the worker index owning that global shard.
/// The number of global shards is `assignment.len()`; it changes across
/// repartitions, which is why routing must consult the map rather than
/// a fixed `hash % N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Version of this assignment. Strictly increases with every
    /// repartition; frames stamped with an older epoch are stale.
    pub epoch: u64,
    /// `assignment[shard] == worker` owning that shard.
    pub assignment: Vec<u32>,
}

impl ShardMap {
    /// A fresh epoch-`epoch` map distributing `shards` shards
    /// round-robin over `workers` workers.
    pub fn round_robin(epoch: u64, shards: usize, workers: usize) -> ShardMap {
        assert!(workers > 0, "round_robin over zero workers");
        ShardMap {
            epoch,
            assignment: (0..shards).map(|s| (s % workers) as u32).collect(),
        }
    }

    /// Number of global shards.
    pub fn shards(&self) -> usize {
        self.assignment.len()
    }

    /// The worker owning `shard`.
    pub fn worker_of(&self, shard: usize) -> u32 {
        self.assignment[shard]
    }

    /// The worker owning join hash `hash` under this map.
    pub fn worker_of_hash(&self, hash: Option<u64>) -> u32 {
        self.assignment[partition(hash, self.shards())]
    }

    /// Number of distinct workers referenced by the assignment.
    pub fn workers(&self) -> usize {
        self.assignment.iter().map(|&w| w as usize + 1).max().unwrap_or(0)
    }

    /// Appends the wire encoding: epoch, shard count, then one u32 per
    /// shard.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.epoch);
        put_u32(buf, self.assignment.len() as u32);
        for &w in &self.assignment {
            put_u32(buf, w);
        }
    }

    /// Decodes a map written by [`encode_into`](ShardMap::encode_into).
    /// A shard count outside `1..=MAX_SHARDS` is an error: zero shards
    /// would divide by zero in [`partition`], and more than
    /// [`MAX_SHARDS`] would not fit a shard bitmask.
    pub fn decode(r: &mut WireReader) -> Result<ShardMap, WireError> {
        let epoch = r.u64("shardmap epoch")?;
        let count = r.count("shardmap count", 4)?;
        if !(1..=MAX_SHARDS).contains(&count) {
            return Err(WireError::OutOfRange {
                what: "shardmap count",
                value: count as u64,
                min: 1,
                max: MAX_SHARDS as u64,
            });
        }
        let mut assignment = Vec::with_capacity(count);
        for _ in 0..count {
            assignment.push(r.u32("shardmap worker")?);
        }
        Ok(ShardMap { epoch, assignment })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_uses_high_bits() {
        // Low-bit changes must not move the shard (bucket decorrelation).
        let h = 0x1234_5678_0000_0000u64;
        for low in [0u64, 1, 0xFFFF_FFFF] {
            assert_eq!(partition(Some(h | low), 8), partition(Some(h), 8));
        }
        assert_eq!(partition(None, 8), 0);
        // All shards reachable.
        let mut seen = [false; 4];
        for i in 0..64u64 {
            seen[partition(Some(i << 32), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn round_robin_covers_all_workers() {
        let map = ShardMap::round_robin(1, 5, 2);
        assert_eq!(map.assignment, vec![0, 1, 0, 1, 0]);
        assert_eq!(map.workers(), 2);
        assert_eq!(map.shards(), 5);
    }

    #[test]
    fn wire_round_trip() {
        let map = ShardMap { epoch: 42, assignment: vec![0, 1, 2, 1] };
        let mut buf = Vec::new();
        map.encode_into(&mut buf);
        let mut r = WireReader::new(&buf);
        let back = ShardMap::decode(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(back, map);
    }

    #[test]
    fn decode_rejects_shard_counts_outside_one_to_max() {
        for shards in [0, MAX_SHARDS + 1] {
            let mut buf = Vec::new();
            ShardMap { epoch: 1, assignment: vec![0; shards] }.encode_into(&mut buf);
            let err = ShardMap::decode(&mut WireReader::new(&buf)).expect_err("out of range");
            assert!(matches!(err, WireError::OutOfRange { value, .. } if value == shards as u64));
        }
        let mut buf = Vec::new();
        ShardMap::round_robin(1, MAX_SHARDS, 3).encode_into(&mut buf);
        assert_eq!(ShardMap::decode(&mut WireReader::new(&buf)).expect("64 shards").shards(), 64);
    }
}
