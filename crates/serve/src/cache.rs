//! Content-addressed result cache.
//!
//! A timing result depends only on the circuit and the model — not on the
//! net's label, the deck's whitespace, its node names, or how its values
//! were spelled. The cache therefore keys on the **canonical deck** (see
//! [`RlcTree::canonical_deck`](rlc_tree::RlcTree::canonical_deck)) plus
//! the [`TimingModel`](rlc_engine::TimingModel) id, addressed through a
//! 64-bit FNV-1a hash. The full key string is stored alongside each entry
//! and compared on lookup, so a hash collision degrades to a miss instead
//! of serving the wrong circuit's timing.
//!
//! Eviction is LRU with an optional TTL; both [`get`](ResultCache::get)
//! and [`insert`](ResultCache::insert) take the clock reading as an
//! explicit `now` so policy is testable without sleeping. A capacity of
//! zero disables the cache entirely (every lookup is a miss, inserts are
//! dropped).

// audit:allow(A101, reason="cache is addressed by fnv1a hash by design; eviction tie-breaks on (last_used, hash) so iteration order never reaches any output")
use std::collections::HashMap;
use std::time::{Duration, Instant};

use rlc_engine::NetTiming;
use rlc_tree::RlcTree;

/// 64-bit FNV-1a: tiny, dependency-free, and good enough for a cache
/// address when the full key is verified on every hit.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Sizing and expiry policy for a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident entries; `0` disables the cache.
    pub capacity: usize,
    /// Entries older than this (since insertion) expire on lookup;
    /// `None` means results never go stale.
    pub ttl: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 128,
            ttl: None,
        }
    }
}

/// Monotonic cache counters, reported by probes and the final stats line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries displaced by LRU pressure.
    pub evictions: u64,
    /// Entries dropped because their TTL had lapsed.
    pub expired: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Entry<T> {
    /// Full key (`model id` + canonical deck) — the collision guard.
    key: String,
    timing: T,
    inserted: Instant,
    last_used: Instant,
}

/// An LRU + TTL cache from canonical circuit to a timing verdict.
///
/// Generic over the cached value so the same policy machinery serves both
/// single-net results ([`NetTiming`], the default) and coupled-group
/// results (`rlc_couple::GroupTiming`); the value type never influences
/// the key, so the two uses must live in *separate* cache instances.
pub struct ResultCache<T = NetTiming> {
    config: CacheConfig,
    entries: HashMap<u64, Entry<T>>,
    hits: u64,
    misses: u64,
    evictions: u64,
    expired: u64,
}

impl ResultCache {
    /// Builds the full cache key for a circuit under a model. Lives on the
    /// default instantiation so call sites need no turbofish; the key
    /// layout is shared by every value type.
    pub fn key(model_id: &str, canonical_deck: &str) -> String {
        format!("{model_id}\n{canonical_deck}")
    }

    /// [`key`](Self::key) for `tree`'s canonical deck, written into one
    /// buffer: the same bytes as
    /// `ResultCache::key(model_id, &tree.canonical_deck())` without the
    /// intermediate deck string.
    pub fn tree_key(model_id: &str, tree: &RlcTree) -> String {
        let mut key = String::from(model_id);
        key.push('\n');
        tree.write_canonical_deck(&mut key);
        key
    }
}

impl<T: Clone> ResultCache<T> {
    /// An empty cache under `config`.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            expired: 0,
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            expired: self.expired,
            entries: self.entries.len(),
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up at time `now`, refreshing its LRU position on a hit.
    pub fn get(&mut self, key: &str, now: Instant) -> Option<T> {
        if self.config.capacity == 0 {
            self.misses += 1;
            rlc_obs::counter!("serve.cache.miss");
            return None;
        }
        let hash = fnv1a_64(key.as_bytes());
        let hit = match self.entries.get_mut(&hash) {
            Some(entry) if entry.key == key => {
                let lapsed = self
                    .config
                    .ttl
                    .is_some_and(|ttl| now.duration_since(entry.inserted) > ttl);
                if lapsed {
                    None
                } else {
                    entry.last_used = now;
                    Some(entry.timing.clone())
                }
            }
            // Absent, or a different key landed on this hash: miss either
            // way — never serve another circuit's timing.
            _ => None,
        };
        match hit {
            Some(timing) => {
                self.hits += 1;
                rlc_obs::counter!("serve.cache.hit");
                Some(timing)
            }
            None => {
                if self
                    .entries
                    .get(&hash)
                    .is_some_and(|entry| entry.key == key)
                {
                    // The entry existed but its TTL lapsed: drop it now so
                    // stale results don't linger until LRU pressure.
                    self.entries.remove(&hash);
                    self.expired += 1;
                    rlc_obs::counter!("serve.cache.expired");
                }
                self.misses += 1;
                rlc_obs::counter!("serve.cache.miss");
                None
            }
        }
    }

    /// Inserts (or refreshes) `key` at time `now`, evicting the least
    /// recently used entry if the cache is full.
    pub fn insert(&mut self, key: String, timing: T, now: Instant) {
        if self.config.capacity == 0 {
            return;
        }
        let hash = fnv1a_64(key.as_bytes());
        if !self.entries.contains_key(&hash) && self.entries.len() >= self.config.capacity {
            // Tie-break equal `last_used` stamps (routine under logical
            // time) by hash so the victim never depends on map iteration
            // order.
            if let Some((&victim, _)) = self
                .entries
                .iter()
                .min_by_key(|(&hash, entry)| (entry.last_used, hash))
            {
                self.entries.remove(&victim);
                self.evictions += 1;
                rlc_obs::counter!("serve.cache.eviction");
            }
        }
        self.entries.insert(
            hash,
            Entry {
                key,
                timing,
                inserted: now,
                last_used: now,
            },
        );
        rlc_obs::value!("serve.cache.entries", self.entries.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(name: &str) -> NetTiming {
        NetTiming {
            name: name.to_owned(),
            sections: 1,
            sinks: Vec::new(),
        }
    }

    fn config(capacity: usize, ttl: Option<Duration>) -> CacheConfig {
        CacheConfig { capacity, ttl }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hit_after_insert_and_counted_miss_before() {
        let mut cache = ResultCache::new(config(4, None));
        let now = Instant::now();
        assert!(cache.get("k", now).is_none());
        cache.insert("k".into(), timing("a"), now);
        let hit = cache.get("k", now).expect("inserted key hits");
        assert_eq!(hit.name, "a");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                expired: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ResultCache::new(config(2, None));
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(1);
        let t2 = t0 + Duration::from_millis(2);
        let t3 = t0 + Duration::from_millis(3);
        cache.insert("a".into(), timing("a"), t0);
        cache.insert("b".into(), timing("b"), t1);
        assert!(cache.get("a", t2).is_some()); // refresh "a"; "b" is now LRU
        cache.insert("c".into(), timing("c"), t3);
        assert!(cache.get("a", t3).is_some());
        assert!(cache.get("b", t3).is_none(), "LRU entry was evicted");
        assert!(cache.get("c", t3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn ttl_expires_on_lookup() {
        let mut cache = ResultCache::new(config(4, Some(Duration::from_millis(10))));
        let t0 = Instant::now();
        cache.insert("k".into(), timing("a"), t0);
        assert!(cache.get("k", t0 + Duration::from_millis(10)).is_some());
        assert!(cache.get("k", t0 + Duration::from_millis(11)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.entries, 0, "expired entry is dropped eagerly");
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = ResultCache::new(config(0, None));
        let now = Instant::now();
        cache.insert("k".into(), timing("a"), now);
        assert!(cache.get("k", now).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn key_layout_separates_model_and_deck() {
        assert_ne!(
            ResultCache::key("eed", "deck"),
            ResultCache::key("elmore", "deck")
        );
        assert_ne!(ResultCache::key("eed", "a"), ResultCache::key("eed", "b"));
    }

    #[test]
    fn tree_key_matches_the_key_of_the_canonical_deck() {
        use rlc_tree::netlist::Netlist;
        use rlc_tree::{topology, RlcSection};

        let mut trees = vec![topology::balanced_tree(2, 2, RlcSection::zero())];
        for deck in [
            ".input src\nR1 src a 25\nL2 a b 1n\nC1 b 0 1p\nR3 a c 0.1k\nC3 c 0 2f\n",
            "* header\nR1 in a 1e-3\nC1 a 0 1e-18\nL1 a b 1.5u\nC2 b 0 3p\n",
        ] {
            trees.push(Netlist::parse(deck).unwrap().into_tree());
        }
        let line = Netlist::parse(&rlc_tree::netlist::write(&trees[1])).unwrap();
        trees.push(line.into_tree());
        for tree in &trees {
            for model in ["eed", "elmore", ""] {
                assert_eq!(
                    ResultCache::tree_key(model, tree),
                    ResultCache::key(model, &tree.canonical_deck())
                );
            }
        }
    }
}
