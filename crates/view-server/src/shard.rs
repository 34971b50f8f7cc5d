//! The sharded container registry.
//!
//! A single `RwLock<HashMap>` serializes registration against every
//! concurrent query's lookup; with hundreds of containers and many query
//! threads that lock becomes the daemon's hot spot. The registry is
//! therefore split into `N` independent shards keyed by a multiplicative
//! hash of the [`CgroupId`], so lookups for different containers contend
//! only when they land on the same shard. Each entry pairs the
//! container's live [`NsCell`] with its [`RenderCache`].

use arv_cgroups::CgroupId;
use arv_resview::NsCell;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, RwLock};

use crate::cache::RenderCache;

/// One registered container: its view cell plus its render cache.
#[derive(Debug)]
pub struct ContainerEntry {
    /// The live namespace cell (shared with the updater).
    pub cell: Arc<NsCell>,
    /// Rendered-image cache for this container.
    pub cache: RenderCache,
    /// Last staleness-clock tick at which a degraded-fallback decision
    /// was traced for this container, deduplicating the provenance
    /// record to one event pair per container per tick no matter how
    /// many queries hit the degraded path. `u64::MAX` = never.
    pub degraded_tick: AtomicU64,
}

type Shard = RwLock<HashMap<CgroupId, Arc<ContainerEntry>>>;

/// Registry of containers, sharded by `CgroupId` hash.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Box<[Shard]>,
    mask: u64,
}

impl ShardedRegistry {
    /// A registry with `shards` shards, rounded up to a power of two (so
    /// shard selection is a mask, not a division).
    pub fn new(shards: usize) -> ShardedRegistry {
        let n = shards.max(1).next_power_of_two();
        ShardedRegistry {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            mask: n as u64 - 1,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, id: CgroupId) -> &Shard {
        // Fibonacci (multiplicative) hashing spreads sequential ids —
        // the common case, since the cgroup manager hands them out in
        // order — across shards instead of clustering them.
        let h = (u64::from(id.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h & self.mask) as usize]
    }

    /// Insert a container. Panics if it is already present (registration
    /// is owned by one control path, as in the kernel).
    pub fn insert(&self, id: CgroupId, cell: Arc<NsCell>) {
        let entry = Arc::new(ContainerEntry {
            cell,
            cache: RenderCache::new(),
            degraded_tick: AtomicU64::new(u64::MAX),
        });
        let prev = self
            .shard_for(id)
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, entry);
        assert!(prev.is_none(), "container {id:?} already in registry");
    }

    /// Remove a container's entry, returning it if present.
    pub fn remove(&self, id: CgroupId) -> Option<Arc<ContainerEntry>> {
        self.shard_for(id)
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id)
    }

    /// Look up a container (read-locks only that container's shard).
    pub fn get(&self, id: CgroupId) -> Option<Arc<ContainerEntry>> {
        self.shard_for(id)
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned()
    }

    /// Total containers across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether no container is registered.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.read().unwrap_or_else(|e| e.into_inner()).is_empty())
    }

    /// All registered ids (unordered; for iteration by updaters/tools).
    pub fn ids(&self) -> Vec<CgroupId> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap_or_else(|e| e.into_inner())
                    .keys()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_cgroups::Bytes;
    use arv_resview::{
        CpuBounds, EffectiveCpu, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig,
    };
    use arv_telemetry::Tracer;

    fn mk_cell(id: CgroupId) -> Arc<NsCell> {
        Arc::new(NsCell::new(
            id,
            EffectiveCpu::new(
                CpuBounds { lower: 2, upper: 8 },
                EffectiveCpuConfig::default(),
            ),
            EffectiveMemory::new(
                Bytes::from_mib(500),
                Bytes::from_gib(1),
                Bytes::from_mib(64),
                Bytes::from_mib(128),
                EffectiveMemoryConfig::default(),
            ),
            Tracer::disabled(),
        ))
    }

    #[test]
    fn insert_get_remove() {
        let reg = ShardedRegistry::new(8);
        for i in 0..50 {
            reg.insert(CgroupId(i), mk_cell(CgroupId(i)));
        }
        assert_eq!(reg.len(), 50);
        assert_eq!(reg.ids().len(), 50);
        assert!(reg.get(CgroupId(17)).is_some());
        assert!(reg.get(CgroupId(99)).is_none());
        assert!(reg.remove(CgroupId(17)).is_some());
        assert!(reg.get(CgroupId(17)).is_none());
        assert_eq!(reg.len(), 49);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedRegistry::new(0).shard_count(), 1);
        assert_eq!(ShardedRegistry::new(5).shard_count(), 8);
        assert_eq!(ShardedRegistry::new(16).shard_count(), 16);
    }

    #[test]
    fn sequential_ids_spread_over_shards() {
        let reg = ShardedRegistry::new(8);
        for i in 0..64 {
            reg.insert(CgroupId(i), mk_cell(CgroupId(i)));
        }
        let occupied = reg
            .shards
            .iter()
            .filter(|s| !s.read().unwrap().is_empty())
            .count();
        assert!(occupied >= 6, "ids clustered on {occupied} of 8 shards");
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let reg = ShardedRegistry::new(4);
        reg.insert(CgroupId(1), mk_cell(CgroupId(1)));
        reg.insert(CgroupId(1), mk_cell(CgroupId(1)));
    }
}
