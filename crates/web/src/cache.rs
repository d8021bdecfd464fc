//! Server-side plan/result cache for the JSON API.
//!
//! The 1996 CGI scripts recompiled a design from scratch on every
//! request; the modern engine compiles once and replays, so the web
//! layer keeps a small LRU of compiled plans keyed by the design's
//! identity — `(user, name, rev)` for a stored design, a 64-bit FNV-1a
//! hash of the canonical JSON for an unsaved body — plus the library
//! registry's generation counter. Repeated v1 `play`, `sweep` and
//! `sensitivities` requests for an unchanged design skip compilation
//! entirely, and derived resources that are pure in the key (`analyze`,
//! imported-library detail) keep their serialized body beside the plan.
//!
//! Hit/miss/eviction counters and a size gauge are exported under
//! `powerplay_web_plan_cache_*` on `/metrics`.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use powerplay_sheet::CompiledSheet;
use powerplay_telemetry::{Counter, Gauge};

/// 64-bit FNV-1a over a byte stream — tiny, dependency-free, and good
/// enough for cache keying (an accidental collision serves a stale
/// report for a *different* design; at 2^-64 per pair that is accepted
/// the same way HTTP caches accept strong-ETag collisions).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash from a previous state, for keying over
/// several fields without concatenating them.
fn fnv1a_continue(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    size: Gauge,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = powerplay_telemetry::global();
        CacheMetrics {
            hits: g.counter(
                "powerplay_web_plan_cache_hits_total",
                "API requests that reused a cached compiled plan",
            ),
            misses: g.counter(
                "powerplay_web_plan_cache_misses_total",
                "API requests that had to compile a design",
            ),
            evictions: g.counter(
                "powerplay_web_plan_cache_evictions_total",
                "Cache entries dropped to stay within capacity",
            ),
            size: g.gauge(
                "powerplay_web_plan_cache_size",
                "Compiled plans currently cached",
            ),
        }
    })
}

struct Entry {
    /// The compiled plan; `None` for body-only entries (resources like
    /// the imported-library detail view cache a serialized body keyed
    /// by `(rev, generation)` without ever compiling a sheet).
    plan: Option<Arc<CompiledSheet>>,
    /// The serialized body of a pure-in-`(rev, generation)` derived
    /// resource (`/analyze`, library detail) — one per cached entry
    /// suffices because the inputs are immutable at a given key.
    analysis: Option<Arc<String>>,
    /// Last-touch tick for LRU eviction.
    tick: u64,
}

struct Inner {
    entries: BTreeMap<u64, Entry>,
    tick: u64,
}

/// A bounded LRU of compiled evaluation plans (and derived-resource
/// bodies), keyed by design identity and registry generation.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> PlanCache {
        assert!(capacity > 0, "cache capacity must be positive");
        PlanCache {
            capacity,
            inner: Mutex::new(Inner {
                entries: BTreeMap::new(),
                tick: 0,
            }),
        }
    }

    /// The cache key for a design's canonical JSON under a registry
    /// generation. Any edit to the design or the library changes it.
    #[must_use]
    pub fn key(design_json: &str, generation: u64) -> u64 {
        fnv1a_continue(fnv1a(design_json.as_bytes()), &generation.to_le_bytes())
    }

    /// The cache key for a *stored* design at a known store revision.
    /// Identity comes from `(user, name, rev)` plus the registry
    /// generation — no JSON serialization or content hashing per
    /// request (the design store guarantees a revision's content never
    /// changes).
    #[must_use]
    pub fn rev_key(user: &str, name: &str, rev: u64, generation: u64) -> u64 {
        let mut hash = fnv1a(user.as_bytes());
        hash = fnv1a_continue(hash, &[0]);
        hash = fnv1a_continue(hash, name.as_bytes());
        hash = fnv1a_continue(hash, &rev.to_le_bytes());
        fnv1a_continue(hash, &generation.to_le_bytes())
    }

    /// Returns the cached plan for `key`, or compiles one with `compile`
    /// and caches it. The second element reports whether it was a hit.
    /// Compilation runs outside the cache lock, so a slow compile never
    /// blocks hits for other designs; racing misses both compile and the
    /// later insert wins (plans for one key are interchangeable).
    pub fn plan_for(
        &self,
        key: u64,
        compile: impl FnOnce() -> CompiledSheet,
    ) -> (Arc<CompiledSheet>, bool) {
        let metrics = cache_metrics();
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.tick = tick;
                if let Some(plan) = &entry.plan {
                    metrics.hits.inc();
                    return (Arc::clone(plan), true);
                }
            }
        }
        metrics.misses.inc();
        let plan = Arc::new(compile());
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.entry(key).or_insert(Entry {
            plan: None,
            analysis: None,
            tick,
        });
        entry.tick = tick;
        // A body-only entry may exist already; fill in the plan. Racing
        // misses both compile and the later insert wins (plans for one
        // key are interchangeable).
        entry.plan = Some(Arc::clone(&plan));
        Self::evict(&mut inner, self.capacity);
        metrics.size.set(inner.entries.len() as i64);
        (plan, false)
    }

    /// The cached plan for `key`, if any, without counting a hit or a
    /// miss and without touching its LRU position: what a compile
    /// reuses rows from.
    #[must_use]
    pub fn peek(&self, key: u64) -> Option<Arc<CompiledSheet>> {
        self.inner.lock().entries.get(&key)?.plan.clone()
    }

    /// The cached derived-resource body for `key`, if one was stored
    /// since the entry was created. Counts as a cache hit when present;
    /// a miss is counted by [`Self::plan_for`] if the caller then needs
    /// to compile.
    #[must_use]
    pub fn cached_analysis(&self, key: u64) -> Option<Arc<String>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&key)?;
        entry.tick = tick;
        let analysis = entry.analysis.clone();
        if analysis.is_some() {
            cache_metrics().hits.inc();
        }
        analysis
    }

    /// Stores a derived-resource body for `key`, creating a body-only
    /// entry (no compiled plan) if the key is not cached yet — resources
    /// like the library detail view never compile a sheet but still
    /// want per-`(rev, generation)` body caching.
    pub fn store_analysis(&self, key: u64, body: Arc<String>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.entry(key).or_insert(Entry {
            plan: None,
            analysis: None,
            tick,
        });
        entry.tick = tick;
        entry.analysis = Some(body);
        Self::evict(&mut inner, self.capacity);
        cache_metrics().size.set(inner.entries.len() as i64);
    }

    fn evict(inner: &mut Inner, capacity: usize) {
        while inner.entries.len() > capacity {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k)
                .expect("nonempty over capacity");
            inner.entries.remove(&oldest);
            cache_metrics().evictions.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;
    use powerplay_sheet::Sheet;

    fn plan() -> CompiledSheet {
        let mut s = Sheet::new("s");
        s.set_global("vdd", "1.5").unwrap();
        s.set_global("f", "2e6").unwrap();
        CompiledSheet::compile(&s, &ucb_library())
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_depends_on_content_and_generation() {
        assert_eq!(PlanCache::key("{}", 1), PlanCache::key("{}", 1));
        assert_ne!(PlanCache::key("{}", 1), PlanCache::key("{}", 2));
        assert_ne!(PlanCache::key("{}", 1), PlanCache::key("[]", 1));
    }

    #[test]
    fn rev_key_depends_on_every_field() {
        let base = PlanCache::rev_key("a", "d", 1, 1);
        assert_eq!(PlanCache::rev_key("a", "d", 1, 1), base);
        assert_ne!(PlanCache::rev_key("b", "d", 1, 1), base);
        assert_ne!(PlanCache::rev_key("a", "e", 1, 1), base);
        assert_ne!(PlanCache::rev_key("a", "d", 2, 1), base);
        assert_ne!(PlanCache::rev_key("a", "d", 1, 2), base);
        // The separator keeps (user, name) unambiguous.
        assert_ne!(
            PlanCache::rev_key("ab", "c", 1, 1),
            PlanCache::rev_key("a", "bc", 1, 1)
        );
    }

    #[test]
    fn second_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new(4);
        let (first, hit) = cache.plan_for(7, plan);
        assert!(!hit);
        let (second, hit) = cache.plan_for(7, || panic!("must not recompile"));
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn peek_neither_counts_nor_refreshes() {
        let cache = PlanCache::new(2);
        assert!(cache.peek(1).is_none());
        let (first, _) = cache.plan_for(1, plan);
        cache.plan_for(2, plan);
        let metrics = cache_metrics();
        let (hits, misses) = (metrics.hits.get(), metrics.misses.get());
        assert!(Arc::ptr_eq(&cache.peek(1).unwrap(), &first));
        assert_eq!((metrics.hits.get(), metrics.misses.get()), (hits, misses));
        cache.plan_for(3, plan); // 1 is still the coldest: peeking kept its place
        assert!(cache.peek(1).is_none());
        assert!(cache.peek(2).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        cache.plan_for(1, plan);
        cache.plan_for(2, plan);
        cache.plan_for(1, || panic!("1 is cached")); // touch 1 → 2 is coldest
        cache.plan_for(3, plan); // evicts 2
        cache.plan_for(1, || panic!("1 must survive"));
        let (_, hit) = cache.plan_for(2, plan);
        assert!(!hit, "2 was evicted");
    }

    #[test]
    fn body_rides_along_and_dies_with_the_entry() {
        let cache = PlanCache::new(1);
        cache.plan_for(1, plan);
        assert!(cache.cached_analysis(1).is_none());
        cache.store_analysis(1, Arc::new("{\"bounds\":1}".to_owned()));
        assert_eq!(
            cache.cached_analysis(1).as_deref().map(String::as_str),
            Some("{\"bounds\":1}")
        );
        let (_, hit) = cache.plan_for(1, || panic!("storing a body keeps the plan"));
        assert!(hit);
        cache.plan_for(2, plan); // capacity 1 → evicts 1 with its body
        assert!(cache.cached_analysis(1).is_none());
    }

    #[test]
    fn body_only_entry_caches_without_a_plan() {
        let cache = PlanCache::new(2);
        cache.store_analysis(9, Arc::new("{\"detail\":1}".to_owned()));
        assert_eq!(
            cache.cached_analysis(9).as_deref().map(String::as_str),
            Some("{\"detail\":1}")
        );
        // A later plan_for on the same key compiles once, keeps the body,
        // and subsequent lookups hit.
        let (_, hit) = cache.plan_for(9, plan);
        assert!(!hit, "no plan existed yet");
        let (_, hit) = cache.plan_for(9, || panic!("plan now cached"));
        assert!(hit);
        assert!(cache.cached_analysis(9).is_some());
        // Body-only entries are subject to LRU eviction like any other.
        cache.store_analysis(10, Arc::new("a".to_owned()));
        cache.store_analysis(11, Arc::new("b".to_owned()));
        assert!(cache.cached_analysis(9).is_none(), "9 was the coldest");
    }
}
