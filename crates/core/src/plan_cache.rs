//! The plan cache: an exact LRU of built RIGs (the per-query "plans" of
//! this engine), the rule that drops plans a commit may have changed, and
//! every cache counter. A plain data structure: the session keeps it
//! under its state lock, so lookups, inserts, the commit sweep and
//! [`PlanCache::stats`] each see one consistent state.

use std::sync::Arc;

use rig_graph::{CommitImpact, Label};
use rig_index::{Rig, RigOptions};
use rig_query::{EdgeKind, PatternEdge, PatternQuery};

/// Number of cached RIGs per session.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// What a plan is cached under: the canonical reduced query and the RIG
/// options it was built with.
#[derive(PartialEq, Eq)]
pub(crate) struct CacheKey {
    labels: Vec<Label>,
    edges: Vec<PatternEdge>,
    opts: RigOptions,
}

impl CacheKey {
    pub(crate) fn new(query: &PatternQuery, opts: &RigOptions) -> CacheKey {
        CacheKey { labels: query.labels().to_vec(), edges: query.edges().to_vec(), opts: *opts }
    }

    /// True when the query has a reachability edge: such plans depend on
    /// paths through nodes of *any* label.
    pub(crate) fn has_reach(&self) -> bool {
        self.edges.iter().any(|e| e.kind == EdgeKind::Reachability)
    }
}

struct CacheEntry {
    key: CacheKey,
    rig: Arc<Rig>,
}

/// Tiny exact-LRU over a vec: entries ordered most- to least-recently
/// used. Capacities are small (default 64), so the linear scan is cheaper
/// than a linked-hash structure and keeps the code dependency-free.
pub(crate) struct PlanCache {
    capacity: usize,
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidated: u64,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> PlanCache {
        PlanCache { capacity, entries: vec![], hits: 0, misses: 0, evictions: 0, invalidated: 0 }
    }

    /// Looks `key` up and counts a hit or a miss; a hit becomes the most
    /// recently used entry.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<Arc<Rig>> {
        let Some(pos) = self.entries.iter().position(|e| e.key == *key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let entry = self.entries.remove(pos);
        let rig = Arc::clone(&entry.rig);
        self.entries.insert(0, entry);
        Some(rig)
    }

    /// Caches `rig` as the most recently used plan, evicting the least
    /// recently used ones beyond capacity.
    pub(crate) fn insert(&mut self, key: CacheKey, rig: Arc<Rig>) {
        if let Some(pos) = self.entries.iter().position(|e| e.key == key) {
            self.entries.remove(pos);
        }
        self.entries.insert(0, CacheEntry { key, rig });
        while self.entries.len() > self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
    }

    /// Drops every plan a commit with `impact` may have changed and
    /// returns `(dropped, retained)`. A plan goes when it has a
    /// reachability edge and the commit changed any edge, or when the
    /// commit touched one of its labels.
    pub(crate) fn invalidate(&mut self, impact: &CommitImpact) -> (u64, u64) {
        let before = self.entries.len();
        self.entries.retain(|e| {
            let stale = (impact.structural && e.key.has_reach())
                || e.key.labels.iter().any(|l| impact.touched.contains(l));
            !stale
        });
        let dropped = (before - self.entries.len()) as u64;
        self.invalidated += dropped;
        (dropped, self.entries.len() as u64)
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            invalidated: self.invalidated,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// Plan-cache counters (see [`Session::cache_stats`](crate::Session::cache_stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Executions served from a cached RIG.
    pub hits: u64,
    /// Cache lookups that missed and built their RIG (`no_cache` bypass
    /// runs count neither here nor as hits).
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Plans dropped by commit label-set invalidation (witnesses that a
    /// commit hit a plan's labels — or its reachability edges).
    pub invalidated: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// Maximum resident plans.
    pub capacity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::GraphBuilder;
    use rig_index::build_rig;
    use rig_reach::BflIndex;
    use rig_sim::SimContext;

    /// A built RIG to cache: its content never matters to the cache.
    fn rig() -> Arc<Rig> {
        let g = GraphBuilder::new().build();
        let bfl = BflIndex::new(&g);
        let q = PatternQuery::new(vec![0]);
        Arc::new(build_rig(&SimContext::new(&g, &q, &bfl), &RigOptions::default()))
    }

    fn key(labels: Vec<Label>, kind: Option<EdgeKind>) -> CacheKey {
        let mut q = PatternQuery::new(labels);
        if let Some(kind) = kind {
            q.add_edge(0, 1, kind);
        }
        CacheKey::new(&q, &RigOptions::default())
    }

    fn impact(touched: &[Label], structural: bool) -> CommitImpact {
        CommitImpact {
            touched: touched.iter().copied().collect(),
            structural,
            ..Default::default()
        }
    }

    /// Looks `k` up and inserts it on a miss, as a cached session run does.
    fn run(cache: &mut PlanCache, k: CacheKey, rig: &Arc<Rig>) {
        if cache.get(&k).is_none() {
            cache.insert(k, Arc::clone(rig));
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let rig = rig();
        let mut cache = PlanCache::new(2);
        let a = || key(vec![0, 1], Some(EdgeKind::Direct));
        let b = || key(vec![1, 2], Some(EdgeKind::Reachability));
        let c = || key(vec![0, 2], Some(EdgeKind::Reachability));
        run(&mut cache, a(), &rig); // cache: [a]
        run(&mut cache, b(), &rig); // cache: [b, a]
        run(&mut cache, a(), &rig); // hit; cache: [a, b]
        run(&mut cache, c(), &rig); // evicts b; cache: [c, a]
        run(&mut cache, b(), &rig); // miss again
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
    }

    /// A commit touching label 65 drops the plan over label 65 and keeps
    /// the one over label 1.
    #[test]
    fn mask_collisions_are_confirmed_on_the_label_list() {
        let rig = rig();
        let mut cache = PlanCache::new(DEFAULT_CACHE_CAPACITY);
        cache.insert(key(vec![1], None), Arc::clone(&rig));
        cache.insert(key(vec![65], None), Arc::clone(&rig));
        assert_eq!(cache.invalidate(&impact(&[65], true)), (1, 1));
        assert!(cache.get(&key(vec![1], None)).is_some(), "the label-1 plan survived");
        assert!(cache.get(&key(vec![65], None)).is_none(), "the label-65 plan went");
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn reach_plans_survive_only_non_structural_commits() {
        let rig = rig();
        let mut cache = PlanCache::new(DEFAULT_CACHE_CAPACITY);
        let reach = || key(vec![0, 1], Some(EdgeKind::Reachability));
        let direct = || key(vec![0, 1], Some(EdgeKind::Direct));
        cache.insert(reach(), Arc::clone(&rig));
        cache.insert(direct(), Arc::clone(&rig));
        // label 5 is in neither plan
        assert_eq!(cache.invalidate(&impact(&[5], false)), (0, 2));
        assert_eq!(cache.invalidate(&impact(&[5], true)), (1, 1));
        assert!(cache.get(&reach()).is_none());
        assert!(cache.get(&direct()).is_some());
    }
}
