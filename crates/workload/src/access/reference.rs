//! The retired list planner, kept as a correctness oracle.
//!
//! [`plan_with_rare_runtime`] is the planner [`AccessPlanner`] replaced:
//! it materialises every touched index in a `Vec`, samples BERT's extra
//! pages through a `HashSet` and sorts the union. It is deliberately
//! boring, so its output is easy to trust. The property test below plans
//! the same random request sequences through both planners and asserts
//! the same page indexes in the same order and the same RNG state
//! afterwards — which is what lets the prefix-plus-runs plan claim
//! byte-identical simulation results.
//!
//! Test-only: no simulation path uses it.

use std::collections::HashSet;

use faasmem_sim::SimRng;

use super::{fraction_of, AccessPlanner, InitAccess};

/// One request's touched runtime and init indexes, sorted and distinct.
#[derive(Debug, PartialEq)]
pub(super) struct ListPlan {
    runtime: Vec<u32>,
    init: Vec<u32>,
}

/// Plans one request as explicit index lists, drawing exactly what
/// [`AccessPlanner::plan_with_rare_runtime`] draws.
pub(super) fn plan_with_rare_runtime(
    model: InitAccess,
    runtime_hot_pages: u32,
    runtime_total_pages: u32,
    rare_runtime_prob: f64,
    init_pages: u32,
    rng: &mut SimRng,
) -> ListPlan {
    let init = plan_init(model, init_pages, rng);
    let mut runtime: Vec<u32> = (0..runtime_hot_pages).collect();
    if runtime_total_pages > runtime_hot_pages && rng.chance(rare_runtime_prob) {
        runtime
            .push(rng.range(u64::from(runtime_hot_pages), u64::from(runtime_total_pages)) as u32);
    }
    ListPlan { runtime, init }
}

fn plan_init(model: InitAccess, init_pages: u32, rng: &mut SimRng) -> Vec<u32> {
    if init_pages == 0 {
        return Vec::new();
    }
    let mut indexes: Vec<u32> = match model {
        InitAccess::FullTraversal => (0..init_pages).collect(),
        InitAccess::FixedHot { hot_fraction } => {
            (0..fraction_of(init_pages, hot_fraction)).collect()
        }
        InitAccess::HotPlusRandom {
            hot_fraction,
            random_fraction,
        } => {
            let hot = fraction_of(init_pages, hot_fraction);
            let extra = fraction_of(init_pages, random_fraction);
            let mut indexes: Vec<u32> = (0..hot).collect();
            if extra > 0 && hot < init_pages {
                let tail = init_pages - hot;
                let sampled = sample_without_replacement(tail, extra.min(tail), rng);
                indexes.extend(sampled.into_iter().map(|s| hot + s));
            }
            indexes
        }
        InitAccess::ParetoPages {
            alpha,
            per_request_fraction,
        } => {
            let per_request = fraction_of(init_pages, per_request_fraction).max(1);
            (0..per_request)
                .map(|_| rng.pareto_index(init_pages as usize, alpha) as u32)
                .collect()
        }
        InitAccess::ParetoObjects {
            alpha,
            objects,
            per_request,
        } => {
            let objects = objects.max(1).min(init_pages.max(1));
            let mut chosen: Vec<u32> = (0..per_request.max(1))
                .map(|_| rng.pareto_index(objects as usize, alpha) as u32)
                .collect();
            chosen.sort_unstable();
            chosen.dedup();
            let mut indexes = Vec::new();
            for obj in chosen {
                let start = (u64::from(obj) * u64::from(init_pages) / u64::from(objects)) as u32;
                let end =
                    ((u64::from(obj) + 1) * u64::from(init_pages) / u64::from(objects)) as u32;
                indexes.extend(start..end.max(start + 1).min(init_pages));
            }
            indexes
        }
    };
    indexes.sort_unstable();
    indexes.dedup();
    indexes
}

/// Draws `take` distinct values from `[0, n)` (Floyd's algorithm).
fn sample_without_replacement(n: u32, take: u32, rng: &mut SimRng) -> Vec<u32> {
    let mut chosen = HashSet::with_capacity(take as usize);
    let mut out = Vec::with_capacity(take as usize);
    for j in (n - take)..n {
        let t = rng.below(u64::from(j) + 1) as u32;
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        out.push(pick);
    }
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The model of kind `kind` (0..5), its parameters drawn from `a`,
    /// `b` and `c`.
    fn model(kind: u32, (a, b, c): (f64, f64, u32)) -> InitAccess {
        match kind {
            0 => InitAccess::FullTraversal,
            1 => InitAccess::FixedHot { hot_fraction: a },
            2 => InitAccess::HotPlusRandom {
                hot_fraction: a,
                random_fraction: b,
            },
            3 => InitAccess::ParetoPages {
                alpha: 0.5 + a,
                per_request_fraction: b,
            },
            _ => InitAccess::ParetoObjects {
                alpha: 0.5 + a,
                objects: c,
                per_request: c % 7,
            },
        }
    }

    // One planner reused across a sequence of random requests — every
    // model, with and without the rare runtime touch — plans what the
    // list planner plans and leaves the RNG where it does.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_runs_planner_matches_list_planner(
            requests in collection::vec(
                ((0u32..5, 0u32..3), (0.0f64..1.0, 0.0f64..1.0, 0u32..300), (0u32..3000, 0u32..64, 0u32..64)),
                1..12,
            ),
            seed in 0u64..10_000,
        ) {
            let mut planner = AccessPlanner::default();
            let mut fast = SimRng::seed_from(seed);
            let mut slow = SimRng::seed_from(seed);
            for ((kind, rare), knobs, (init_pages, hot, cold)) in requests {
                let model = model(kind, knobs);
                // No rare touch, a certain one, or the catalog's odds.
                let prob = [0.0, 1.0, 0.3][rare as usize];
                let plan = planner.plan_with_rare_runtime(model, hot, hot + cold, prob, init_pages, &mut fast);
                let want = plan_with_rare_runtime(model, hot, hot + cold, prob, init_pages, &mut slow);
                let got = ListPlan {
                    runtime: plan.runtime.iter().collect(),
                    init: plan.init.iter().collect(),
                };
                prop_assert_eq!(&got, &want, "{:?} over {} init pages", model, init_pages);
                prop_assert_eq!(plan.init.len(), want.init.len());
                prop_assert_eq!(fast.next_u64(), slow.next_u64());
            }
        }
    }
}
