//! Per-request page-access planning.
//!
//! Given a benchmark's [`InitAccess`] model and the page counts of its
//! segments, [`RequestAccess::plan`] decides which pages one request
//! touches. The plans reproduce the access-scan shapes of the paper's
//! Figures 6 (BERT: a stable hot core plus input-dependent extras), 8
//! (runtime pages barely recalled after the first request) and 9 (Web:
//! Pareto-popular cached pages).
//!
//! A plan is a prefix plus runs per segment ([`AccessSet`]), never a list
//! of every touched page, and an [`AccessPlanner`] reuses one plan's
//! buffers across requests.

use faasmem_sim::SimRng;

#[cfg(test)]
mod reference;

/// How requests touch a function's init segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitAccess {
    /// The same leading fraction of init pages is touched every request
    /// (imports, model weights).
    FixedHot {
        /// Fraction of init pages in the always-hot prefix, `[0, 1]`.
        hot_fraction: f64,
    },
    /// A fixed hot prefix plus a per-request random sample of the rest —
    /// BERT's "different requests access different nodes" behaviour.
    HotPlusRandom {
        /// Fraction of init pages in the always-hot prefix.
        hot_fraction: f64,
        /// Fraction of init pages drawn uniformly at random per request.
        random_fraction: f64,
    },
    /// Pages are selected by Pareto popularity: a few pages are touched
    /// by almost every request, most almost never (fine-grained caches).
    ParetoPages {
        /// Pareto shape; smaller = heavier tail.
        alpha: f64,
        /// Fraction of init pages touched per request.
        per_request_fraction: f64,
    },
    /// The init segment is a cache of `objects` equally sized objects
    /// (rendered HTML pages); each request touches `per_request` whole
    /// objects chosen by Pareto popularity. This is Web's Fig 9 pattern:
    /// every scan column shows several contiguous bars, and rarely
    /// requested objects keep surfacing for many requests — which is why
    /// Web needs a large request window (§5.2).
    ParetoObjects {
        /// Pareto shape; smaller = heavier tail (more distinct objects).
        alpha: f64,
        /// Number of cached objects the init segment holds.
        objects: u32,
        /// Objects touched per request.
        per_request: u32,
    },
    /// Every request walks the whole init segment (Graph's BFS).
    FullTraversal,
}

/// A set of segment-relative page indexes: the prefix `[0, prefix)` plus
/// sorted, disjoint runs `[start, end)` above it.
///
/// Every [`InitAccess`] model plans into this shape — a hot core is the
/// prefix, sampled pages and cached objects are the runs — so a plan
/// costs memory per run, not per page. The form is canonical: runs are
/// non-empty, no run touches the prefix or its neighbour, so `==` is set
/// equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSet {
    prefix: u32,
    runs: Vec<(u32, u32)>,
}

impl AccessSet {
    /// An empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The prefix `[0, end)`.
    pub fn up_to(end: u32) -> Self {
        AccessSet {
            prefix: end,
            runs: Vec::new(),
        }
    }

    /// End of the prefix `[0, prefix)`.
    pub fn prefix(&self) -> u32 {
        self.prefix
    }

    /// The runs above the prefix, as ascending `[start, end)` pairs.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// One past the highest index in the set (0 when empty).
    pub fn end(&self) -> u32 {
        self.runs.last().map_or(self.prefix, |&(_, end)| end)
    }

    /// Appends `[start, end)`, merging it into an adjacent prefix or run.
    ///
    /// # Panics
    ///
    /// Panics if `start` lies below [`AccessSet::end`]: runs are pushed
    /// in ascending order.
    pub fn push_run(&mut self, start: u32, end: u32) {
        assert!(start >= self.end(), "run {start}..{end} is out of order");
        if start >= end {
            return;
        }
        match self.runs.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            Some(_) => self.runs.push((start, end)),
            None if self.prefix == start => self.prefix = end,
            None => self.runs.push((start, end)),
        }
    }

    /// Resets the set to the prefix `[0, end)`, keeping the run buffer.
    fn reset_to(&mut self, end: u32) {
        self.prefix = end;
        self.runs.clear();
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        let runs: u32 = self.runs.iter().map(|&(s, e)| e - s).sum();
        (self.prefix + runs) as usize
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.end() == 0
    }

    /// Iterates over the page indexes in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.prefix).chain(self.runs.iter().flat_map(|&(s, e)| s..e))
    }

    /// `true` if `index` is in the set.
    pub fn contains(&self, index: u32) -> bool {
        if index < self.prefix {
            return true;
        }
        let after = self.runs.partition_point(|&(s, _)| s <= index);
        after > 0 && index < self.runs[after - 1].1
    }
}

/// The pages one request touches, expressed segment-relatively.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestAccess {
    /// Runtime-segment pages touched (the action proxy's working set).
    pub runtime: AccessSet,
    /// Init-segment pages touched.
    pub init: AccessSet,
    /// Execution-segment pages allocated, touched and freed.
    pub exec_pages: u32,
}

impl RequestAccess {
    /// Plans the page accesses of one request.
    ///
    /// * `model` — the benchmark's init-access behaviour.
    /// * `runtime_hot_pages` — size of the runtime working set in pages.
    /// * `init_pages` — total init-segment pages.
    /// * `exec_pages` — execution-segment pages this request allocates.
    /// * `rng` — deterministic randomness for the stochastic models.
    pub fn plan(
        model: InitAccess,
        runtime_hot_pages: u32,
        init_pages: u32,
        exec_pages: u32,
        rng: &mut SimRng,
    ) -> RequestAccess {
        Self::plan_with_rare_runtime(
            model,
            runtime_hot_pages,
            runtime_hot_pages,
            0.0,
            init_pages,
            exec_pages,
            rng,
        )
    }

    /// Like [`RequestAccess::plan`], but with probability
    /// `rare_runtime_prob` the request additionally touches one random
    /// page from the *cold* part of the runtime segment
    /// (`[runtime_hot_pages, runtime_total_pages)`). This reproduces the
    /// paper's Fig 8 observation that a handful of Runtime-Pucket pages
    /// are recalled after the reactive offload — rarely, but not never.
    ///
    /// Each call allocates its plan; a loop planning many requests
    /// reuses one [`AccessPlanner`] instead.
    pub fn plan_with_rare_runtime(
        model: InitAccess,
        runtime_hot_pages: u32,
        runtime_total_pages: u32,
        rare_runtime_prob: f64,
        init_pages: u32,
        exec_pages: u32,
        rng: &mut SimRng,
    ) -> RequestAccess {
        let mut planner = AccessPlanner::default();
        planner.plan_with_rare_runtime(
            model,
            runtime_hot_pages,
            runtime_total_pages,
            rare_runtime_prob,
            init_pages,
            rng,
        );
        planner.plan.exec_pages = exec_pages;
        planner.plan
    }
}

/// Run-long scratch for planning requests: the last plan and the bitset
/// that picks distinct indexes. Once it has planned the largest request
/// of a workload, planning allocates nothing.
#[derive(Debug, Default)]
pub struct AccessPlanner {
    plan: RequestAccess,
    picked: IndexBits,
}

impl AccessPlanner {
    /// The most recent plan.
    pub fn plan(&self) -> &RequestAccess {
        &self.plan
    }

    /// Plans one request's runtime and init pages into the scratch plan
    /// and returns it; the arguments and the random draws are those of
    /// [`RequestAccess::plan_with_rare_runtime`]. The execution segment
    /// is allocated, not planned, so the plan's `exec_pages` stays 0.
    pub fn plan_with_rare_runtime(
        &mut self,
        model: InitAccess,
        runtime_hot_pages: u32,
        runtime_total_pages: u32,
        rare_runtime_prob: f64,
        init_pages: u32,
        rng: &mut SimRng,
    ) -> &RequestAccess {
        self.plan_init(model, init_pages, rng);
        let runtime = &mut self.plan.runtime;
        runtime.reset_to(runtime_hot_pages);
        if runtime_total_pages > runtime_hot_pages && rng.chance(rare_runtime_prob) {
            let cold =
                rng.range(u64::from(runtime_hot_pages), u64::from(runtime_total_pages)) as u32;
            runtime.push_run(cold, cold + 1);
        }
        &self.plan
    }

    fn plan_init(&mut self, model: InitAccess, init_pages: u32, rng: &mut SimRng) {
        let AccessPlanner { plan, picked } = self;
        let init = &mut plan.init;
        init.reset_to(0);
        if init_pages == 0 {
            return;
        }
        match model {
            InitAccess::FullTraversal => init.reset_to(init_pages),
            InitAccess::FixedHot { hot_fraction } => {
                init.reset_to(fraction_of(init_pages, hot_fraction));
            }
            InitAccess::HotPlusRandom {
                hot_fraction,
                random_fraction,
            } => {
                let hot = fraction_of(init_pages, hot_fraction);
                let extra = fraction_of(init_pages, random_fraction);
                init.reset_to(hot);
                if extra == 0 || hot >= init_pages {
                    return;
                }
                // Sample without replacement from the cold tail.
                let tail = init_pages - hot;
                let take = extra.min(tail);
                sample_without_replacement(tail, take, rng, picked);
                init.runs.reserve(take as usize);
                picked.drain(|s| init.push_run(hot + s, hot + s + 1));
            }
            InitAccess::ParetoPages {
                alpha,
                per_request_fraction,
            } => {
                let per_request = fraction_of(init_pages, per_request_fraction).max(1);
                picked.start(init_pages);
                for _ in 0..per_request {
                    picked.insert(rng.pareto_index(init_pages as usize, alpha) as u32);
                }
                init.runs.reserve(per_request as usize);
                picked.drain(|i| init.push_run(i, i + 1));
            }
            InitAccess::ParetoObjects {
                alpha,
                objects,
                per_request,
            } => {
                let objects = objects.max(1).min(init_pages);
                let per_request = per_request.max(1);
                picked.start(objects);
                for _ in 0..per_request {
                    picked.insert(rng.pareto_index(objects as usize, alpha) as u32);
                }
                init.runs.reserve(per_request as usize);
                // `objects <= init_pages`, so each object spans at least
                // one page and the objects tile the segment in order.
                let bound =
                    |obj: u32| (u64::from(obj) * u64::from(init_pages) / u64::from(objects)) as u32;
                picked.drain(|obj| init.push_run(bound(obj), bound(obj + 1)));
            }
        }
    }
}

fn fraction_of(total: u32, fraction: f64) -> u32 {
    ((total as f64 * fraction).round() as u32).min(total)
}

/// Draws `take` distinct values from `[0, n)` into `picked` (Floyd's
/// algorithm); [`IndexBits::drain`] then yields them in ascending order.
fn sample_without_replacement(n: u32, take: u32, rng: &mut SimRng, picked: &mut IndexBits) {
    debug_assert!(take <= n);
    picked.start(n);
    for j in (n - take)..n {
        let t = rng.below(u64::from(j) + 1) as u32;
        let pick = if picked.contains(t) { j } else { t };
        picked.insert(pick);
    }
}

/// A bitset over the index universe `[0, n)` of one draw, all-zero
/// between draws so it never needs clearing up front.
#[derive(Debug, Default)]
struct IndexBits {
    words: Vec<u64>,
    /// Words covering the current universe.
    used: usize,
}

impl IndexBits {
    /// Begins a draw over `[0, n)`, growing the words if needed.
    fn start(&mut self, n: u32) {
        self.used = (n as usize).div_ceil(64);
        if self.words.len() < self.used {
            self.words.resize(self.used, 0);
        }
    }

    fn contains(&self, i: u32) -> bool {
        self.words[(i >> 6) as usize] & (1 << (i & 63)) != 0
    }

    fn insert(&mut self, i: u32) {
        self.words[(i >> 6) as usize] |= 1 << (i & 63);
    }

    /// Calls `f` on every member in ascending order and empties the set.
    fn drain(&mut self, mut f: impl FnMut(u32)) {
        for (w, word) in self.words[..self.used].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(((w as u32) << 6) | bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(99)
    }

    /// The members of `picked`, in the ascending order `drain` yields.
    fn drained(picked: &mut IndexBits) -> Vec<u32> {
        let mut v = Vec::new();
        picked.drain(|i| v.push(i));
        v
    }

    #[test]
    fn access_set_range_semantics() {
        let mut s = AccessSet::empty();
        s.push_run(5, 9);
        assert_eq!((s.prefix(), s.runs()), (0, &[(5, 9)][..]));
        assert_eq!(s.len(), 4);
        assert_eq!(s.end(), 9);
        assert!(s.contains(5) && s.contains(8));
        assert!(!s.contains(9) && !s.contains(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 6, 7, 8]);
        let p = AccessSet::up_to(3);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(p.contains(0) && !p.contains(3));
    }

    #[test]
    fn access_set_sparse_semantics() {
        let mut s = AccessSet::up_to(2);
        for i in [4, 7, 8] {
            s.push_run(i, i + 1);
        }
        assert_eq!(s.runs(), &[(4, 5), (7, 9)], "adjacent pages merge");
        assert_eq!(s.len(), 5);
        assert!(s.contains(1) && s.contains(4) && s.contains(8));
        assert!(!s.contains(2) && !s.contains(5) && !s.contains(9));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 4, 7, 8]);
        // A run starting at the prefix's end extends the prefix, so the
        // form stays canonical and `==` is set equality.
        let mut t = AccessSet::up_to(2);
        t.push_run(2, 4);
        assert_eq!(t, AccessSet::up_to(4));
        t.push_run(9, 9);
        assert_eq!(t, AccessSet::up_to(4), "empty runs are dropped");
        assert!(AccessSet::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn access_set_rejects_descending_runs() {
        let mut s = AccessSet::up_to(4);
        s.push_run(3, 5);
    }

    #[test]
    fn full_traversal_touches_everything() {
        let a = RequestAccess::plan(InitAccess::FullTraversal, 10, 1000, 5, &mut rng());
        assert_eq!(a.init.len(), 1000);
        assert_eq!(a.runtime.len(), 10);
        assert_eq!(a.exec_pages, 5);
    }

    #[test]
    fn fixed_hot_is_deterministic_prefix() {
        let mut r = rng();
        let a = RequestAccess::plan(
            InitAccess::FixedHot { hot_fraction: 0.25 },
            0,
            400,
            0,
            &mut r,
        );
        assert_eq!(a.init, AccessSet::up_to(100));
        // Same every request regardless of RNG state.
        let b = RequestAccess::plan(
            InitAccess::FixedHot { hot_fraction: 0.25 },
            0,
            400,
            0,
            &mut r,
        );
        assert_eq!(a.init, b.init);
    }

    #[test]
    fn hot_plus_random_has_stable_core_and_varying_tail() {
        let model = InitAccess::HotPlusRandom {
            hot_fraction: 0.4,
            random_fraction: 0.1,
        };
        let mut r = rng();
        let a = RequestAccess::plan(model, 0, 1000, 0, &mut r);
        let b = RequestAccess::plan(model, 0, 1000, 0, &mut r);
        // Core always present.
        for i in 0..400 {
            assert!(a.init.contains(i) && b.init.contains(i));
        }
        // Roughly 40% + 10% of pages touched.
        assert!((450..=500).contains(&a.init.len()));
        // The random tails differ between requests.
        let tail_a: Vec<u32> = a.init.iter().filter(|&i| i >= 400).collect();
        let tail_b: Vec<u32> = b.init.iter().filter(|&i| i >= 400).collect();
        assert_ne!(tail_a, tail_b);
    }

    #[test]
    fn pareto_pages_prefer_popular_prefix() {
        let model = InitAccess::ParetoPages {
            alpha: 1.1,
            per_request_fraction: 0.05,
        };
        let mut r = rng();
        let mut hits = vec![0u32; 1000];
        for _ in 0..200 {
            let a = RequestAccess::plan(model, 0, 1000, 0, &mut r);
            for i in a.init.iter() {
                hits[i as usize] += 1;
            }
        }
        let head: u32 = hits[..100].iter().sum();
        let tail: u32 = hits[900..].iter().sum();
        assert!(head > tail * 5, "head {head} vs tail {tail}");
    }

    #[test]
    fn pareto_touches_at_least_one_page() {
        let model = InitAccess::ParetoPages {
            alpha: 1.5,
            per_request_fraction: 0.0001,
        };
        let a = RequestAccess::plan(model, 0, 100, 0, &mut rng());
        assert!(!a.init.is_empty());
    }

    #[test]
    fn zero_init_pages_is_empty_set() {
        for model in [
            InitAccess::FullTraversal,
            InitAccess::FixedHot { hot_fraction: 0.5 },
            InitAccess::HotPlusRandom {
                hot_fraction: 0.5,
                random_fraction: 0.1,
            },
            InitAccess::ParetoPages {
                alpha: 1.0,
                per_request_fraction: 0.1,
            },
            InitAccess::ParetoObjects {
                alpha: 1.0,
                objects: 10,
                per_request: 2,
            },
        ] {
            let a = RequestAccess::plan(model, 4, 0, 2, &mut rng());
            assert!(a.init.is_empty(), "{model:?}");
        }
    }

    #[test]
    fn pareto_objects_touch_whole_contiguous_objects() {
        let model = InitAccess::ParetoObjects {
            alpha: 0.9,
            objects: 10,
            per_request: 3,
        };
        let mut r = rng();
        let a = RequestAccess::plan(model, 0, 1000, 0, &mut r);
        // Each object spans 100 pages; between 1 and 3 distinct objects.
        assert!(a.init.len().is_multiple_of(100), "len {}", a.init.len());
        assert!((100..=300).contains(&a.init.len()));
        // Contiguity within objects: indexes come in full 100-page runs.
        let v: Vec<u32> = a.init.iter().collect();
        for chunk in v.chunks(100) {
            assert_eq!(chunk[99], chunk[0] + 99);
        }
    }

    #[test]
    fn pareto_objects_keep_revealing_new_objects() {
        let model = InitAccess::ParetoObjects {
            alpha: 0.9,
            objects: 100,
            per_request: 3,
        };
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        let mut new_at_request = Vec::new();
        for _ in 0..30 {
            let a = RequestAccess::plan(model, 0, 5000, 0, &mut r);
            let before = seen.len();
            for i in a.init.iter() {
                seen.insert(i);
            }
            new_at_request.push(seen.len() - before);
        }
        // Growth must persist past the first few requests (web's large
        // request window) and eventually slow down.
        let early: usize = new_at_request[..5].iter().sum();
        let late: usize = new_at_request[25..].iter().sum();
        assert!(early > 0 && late < early, "early {early} late {late}");
        assert!(
            new_at_request[5..15].iter().sum::<usize>() > 0,
            "still growing after 5 reqs"
        );
    }

    #[test]
    fn rare_runtime_touch_hits_cold_pages_occasionally() {
        let mut r = rng();
        let mut rare_hits = 0;
        for _ in 0..2000 {
            let a = RequestAccess::plan_with_rare_runtime(
                InitAccess::FullTraversal,
                10,
                100,
                0.01,
                4,
                2,
                &mut r,
            );
            // Hot prefix always present.
            for i in 0..10 {
                assert!(a.runtime.contains(i));
            }
            if a.runtime.len() == 11 {
                rare_hits += 1;
                let cold: Vec<u32> = a.runtime.iter().filter(|&i| i >= 10).collect();
                assert_eq!(cold.len(), 1);
                assert!(cold[0] < 100);
            } else {
                assert_eq!(a.runtime.len(), 10);
            }
        }
        // ~1% of 2000 = ~20; allow wide slack but require "rare, not never".
        assert!((2..=80).contains(&rare_hits), "rare hits {rare_hits}");
    }

    #[test]
    fn rare_runtime_touch_disabled_when_no_cold_pages() {
        let mut r = rng();
        let a = RequestAccess::plan_with_rare_runtime(
            InitAccess::FullTraversal,
            10,
            10,
            1.0,
            0,
            0,
            &mut r,
        );
        assert_eq!(a.runtime, AccessSet::up_to(10));
    }

    #[test]
    fn sample_without_replacement_is_distinct_and_in_range() {
        let mut r = rng();
        let mut picked = IndexBits::default();
        for _ in 0..50 {
            sample_without_replacement(100, 30, &mut r, &mut picked);
            let v = drained(&mut picked);
            assert_eq!(v.len(), 30);
            assert!(v.windows(2).all(|w| w[0] < w[1]));
            assert!(v.iter().all(|&x| x < 100));
        }
        // Draining empties the set, so a smaller draw starts clean.
        sample_without_replacement(5, 0, &mut r, &mut picked);
        assert!(drained(&mut picked).is_empty());
    }

    #[test]
    fn sample_full_population() {
        let mut r = rng();
        let mut picked = IndexBits::default();
        sample_without_replacement(10, 10, &mut r, &mut picked);
        assert_eq!(drained(&mut picked), (0..10).collect::<Vec<_>>());
    }

    proptest::proptest! {
        #[test]
        fn prop_sparse_sets_sorted_deduped(
            hot in 0.0f64..1.0,
            rand_frac in 0.0f64..0.5,
            pages in 1u32..2000,
            seed in 0u64..1000,
        ) {
            let model = InitAccess::HotPlusRandom { hot_fraction: hot, random_fraction: rand_frac };
            let mut r = SimRng::seed_from(seed);
            let a = RequestAccess::plan(model, 0, pages, 0, &mut r);
            // Canonical form: non-empty runs above the prefix, each
            // separated from the previous run by at least one page.
            let mut end = a.init.prefix();
            for &(s, e) in a.init.runs() {
                proptest::prop_assert!(end < s && s < e, "run {s}..{e} after {end}");
                end = e;
            }
            proptest::prop_assert!(a.init.end() <= pages);
            proptest::prop_assert!(a.init.len() <= pages as usize);
        }
    }
}
