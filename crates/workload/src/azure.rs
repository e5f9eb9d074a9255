//! Statistical re-synthesis of the Azure Functions 2021 invocation trace.
//!
//! The paper's evaluation replays the *Azure Functions Invocation Trace
//! 2021* (424 functions, 1,980,951 invocations, §2.1). That dataset is not
//! redistributable inside this reproduction, so [`TraceSynthesizer`]
//! regenerates its statistical shape instead:
//!
//! * **Load classes** (§8.4): functions are categorised by average daily
//!   invocations — high (> 512/day), middle, and low (< 64/day).
//! * **Arrival processes**: Poisson for steady functions, Markov-modulated
//!   (bursty) arrivals for the surge-prone ones the paper calls out in
//!   §8.2.1, and heavy-tailed Pareto gaps that produce the skewed
//!   requests-per-container CDF of Fig 5.
//! * **Cluster traces**: a 424-function mix with log-uniform daily rates,
//!   used by the Fig 1 keep-alive sweep and the Fig 14 semi-warm
//!   applicability study.

use faasmem_sim::{SimDuration, SimRng, SimTime};

use crate::trace::{FunctionId, Invocation, InvocationTrace};

/// Load category by average daily invocations (paper §8.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadClass {
    /// More than 512 invocations per day.
    High,
    /// Between 64 and 512 invocations per day.
    Middle,
    /// Fewer than 64 invocations per day.
    Low,
}

impl LoadClass {
    /// Classifies a daily invocation rate per §8.4's thresholds.
    pub fn classify(invocations_per_day: f64) -> LoadClass {
        if invocations_per_day > 512.0 {
            LoadClass::High
        } else if invocations_per_day < 64.0 {
            LoadClass::Low
        } else {
            LoadClass::Middle
        }
    }

    /// A representative mean inter-arrival gap for the class, used when a
    /// synthesized function has no explicit rate.
    pub fn typical_mean_gap(self) -> SimDuration {
        match self {
            LoadClass::High => SimDuration::from_secs(12),
            LoadClass::Middle => SimDuration::from_secs(150),
            LoadClass::Low => SimDuration::from_secs(900),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            LoadClass::High => "high",
            LoadClass::Middle => "middle",
            LoadClass::Low => "low",
        }
    }
}

/// The inter-arrival process of one function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Memoryless arrivals with the given mean gap.
    Poisson {
        /// Mean inter-arrival gap.
        mean_gap: SimDuration,
    },
    /// Markov-modulated Poisson: the function alternates between an idle
    /// state (sparse arrivals) and a burst state (dense arrivals). This is
    /// the "sudden increase and decrease" pattern of high-load traces the
    /// paper highlights (§8.2.1).
    Bursty {
        /// Mean gap while idle.
        idle_gap: SimDuration,
        /// Mean gap while bursting.
        burst_gap: SimDuration,
        /// Mean duration of an idle period.
        idle_period: SimDuration,
        /// Mean duration of a burst period.
        burst_period: SimDuration,
    },
    /// Heavy-tailed Pareto gaps: most arrivals cluster, some gaps are very
    /// long — yielding many containers that serve only one or two requests
    /// before their keep-alive expires (Fig 5).
    ParetoGaps {
        /// Minimum gap (Pareto scale).
        min_gap: SimDuration,
        /// Pareto shape; smaller = heavier tail.
        alpha: f64,
    },
}

impl ArrivalModel {
    /// Draws the next inter-arrival gap.
    pub(crate) fn next_gap(&self, rng: &mut SimRng, state: &mut BurstState) -> SimDuration {
        match *self {
            ArrivalModel::Poisson { mean_gap } => rng.exp_duration(mean_gap),
            ArrivalModel::ParetoGaps { min_gap, alpha } => {
                let factor = rng.pareto(1.0, alpha);
                SimDuration::from_micros((min_gap.as_micros() as f64 * factor) as u64)
            }
            ArrivalModel::Bursty {
                idle_gap,
                burst_gap,
                idle_period,
                burst_period,
            } => {
                // Advance the two-state Markov chain lazily: when the
                // current state's remaining budget runs out, flip state.
                loop {
                    let gap = if state.bursting {
                        rng.exp_duration(burst_gap)
                    } else {
                        rng.exp_duration(idle_gap)
                    };
                    if gap <= state.remaining {
                        state.remaining -= gap;
                        return gap;
                    }
                    let leftover = state.remaining;
                    state.bursting = !state.bursting;
                    state.remaining = if state.bursting {
                        rng.exp_duration(burst_period)
                    } else {
                        rng.exp_duration(idle_period)
                    };
                    // Skip to the state boundary and draw in the new state;
                    // credit the time already waited.
                    if !leftover.is_zero() {
                        let gap = if state.bursting {
                            rng.exp_duration(burst_gap)
                        } else {
                            rng.exp_duration(idle_gap)
                        };
                        let total = leftover + gap;
                        state.remaining = state.remaining.saturating_sub(gap);
                        return total;
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct BurstState {
    bursting: bool,
    remaining: SimDuration,
}

impl BurstState {
    pub(crate) fn new() -> Self {
        BurstState {
            bursting: false,
            remaining: SimDuration::from_secs(1),
        }
    }
}

/// One function's arrival process before its first draw: its model and
/// the RNG state the draws start from. It holds no arrivals; every pass
/// replays them from this state, so every pass yields the same ones.
#[derive(Debug, Clone)]
pub(crate) struct Generator {
    pub(crate) function: FunctionId,
    pub(crate) model: ArrivalModel,
    pub(crate) rng: SimRng,
}

impl Generator {
    /// The arrivals up to `horizon`, in firing order.
    pub(crate) fn arrivals(&self, horizon: SimTime) -> Arrivals {
        let mut rng = self.rng.clone();
        let mut state = BurstState::new();
        // Random phase so clustered functions don't all fire at t=0.
        let next = SimTime::ZERO + self.model.next_gap(&mut rng, &mut state);
        Arrivals {
            function: self.function,
            model: self.model,
            rng,
            state,
            next,
            horizon,
        }
    }
}

/// A [`Generator`]'s arrivals up to a horizon, drawn one gap ahead. They
/// are in firing order by construction: every gap is non-negative.
#[derive(Debug, Clone)]
pub(crate) struct Arrivals {
    function: FunctionId,
    model: ArrivalModel,
    rng: SimRng,
    state: BurstState,
    next: SimTime,
    horizon: SimTime,
}

impl Iterator for Arrivals {
    type Item = Invocation;

    fn next(&mut self) -> Option<Invocation> {
        if self.next > self.horizon {
            return None;
        }
        let at = self.next;
        self.next += self.model.next_gap(&mut self.rng, &mut self.state);
        Some(Invocation {
            at,
            function: self.function,
        })
    }
}

/// Builder-style synthesizer of Azure-like invocation traces.
///
/// # Examples
///
/// ```
/// use faasmem_workload::{FunctionId, LoadClass, TraceSynthesizer};
/// use faasmem_sim::SimTime;
///
/// let trace = TraceSynthesizer::new(1)
///     .load_class(LoadClass::High)
///     .bursty(true)
///     .duration(SimTime::from_mins(60))
///     .synthesize_for(FunctionId(3));
/// assert!(!trace.is_empty());
/// assert_eq!(trace.functions(), vec![FunctionId(3)]);
/// ```
#[derive(Debug, Clone)]
pub struct TraceSynthesizer {
    pub(crate) seed: u64,
    pub(crate) duration: SimTime,
    load_class: LoadClass,
    bursty: bool,
    explicit_model: Option<ArrivalModel>,
}

impl TraceSynthesizer {
    /// Creates a synthesizer with the given seed. Defaults: one-hour
    /// horizon, high load, steady (non-bursty) arrivals.
    pub fn new(seed: u64) -> Self {
        TraceSynthesizer {
            seed,
            duration: SimTime::from_mins(60),
            load_class: LoadClass::High,
            bursty: false,
            explicit_model: None,
        }
    }

    /// Sets the trace horizon.
    pub fn duration(mut self, duration: SimTime) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the load class (ignored if an explicit model is set).
    pub fn load_class(mut self, class: LoadClass) -> Self {
        self.load_class = class;
        self
    }

    /// Toggles bursty (Markov-modulated) arrivals.
    pub fn bursty(mut self, bursty: bool) -> Self {
        self.bursty = bursty;
        self
    }

    /// Overrides the arrival model entirely.
    pub fn arrival_model(mut self, model: ArrivalModel) -> Self {
        self.explicit_model = Some(model);
        self
    }

    fn model_for(&self, rng: &mut SimRng) -> ArrivalModel {
        if let Some(m) = self.explicit_model {
            return m;
        }
        let mean = self.load_class.typical_mean_gap();
        // Jitter the per-function rate ±50% so a cluster isn't uniform.
        let jitter = 0.5 + rng.next_f64();
        let mean = mean.mul_f64(jitter);
        if self.bursty {
            ArrivalModel::Bursty {
                idle_gap: mean * 4,
                burst_gap: (mean / 12).max(SimDuration::from_millis(200)),
                idle_period: SimDuration::from_mins(6),
                burst_period: SimDuration::from_mins(1),
            }
        } else {
            ArrivalModel::ParetoGaps {
                min_gap: mean.mul_f64(0.35),
                alpha: 1.5,
            }
        }
    }

    /// Function `function`'s arrival generator for
    /// [`synthesize_for`](TraceSynthesizer::synthesize_for).
    pub(crate) fn generator(&self, function: FunctionId) -> Generator {
        let mut rng = SimRng::seed_from(
            self.seed ^ (u64::from(function.0)).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let model = self.model_for(&mut rng);
        Generator {
            function,
            model,
            rng,
        }
    }

    /// Synthesizes a trace for one function. It holds the function's
    /// generator, not its arrivals.
    pub fn synthesize_for(&self, function: FunctionId) -> InvocationTrace {
        InvocationTrace::generated(std::iter::once(self.generator(function)), self.duration)
    }

    /// Synthesizes a whole cluster: `functions` functions with log-uniform
    /// daily rates between 2 and 8192 invocations/day, steady or bursty
    /// per-function at random. Returns the merged trace, one generator
    /// per function in function order (so same-instant arrivals come out
    /// by function), plus each function's load class.
    pub fn synthesize_cluster(
        &self,
        functions: u32,
    ) -> (InvocationTrace, Vec<(FunctionId, LoadClass)>) {
        let mut classes = Vec::with_capacity(functions as usize);
        let mut seed_rng = SimRng::seed_from(self.seed);
        let generators = (0..functions).map(|f| {
            let function = FunctionId(f);
            let (class, model, rng) = cluster_function(&mut seed_rng, function);
            classes.push((function, class));
            Generator {
                function,
                model,
                rng,
            }
        });
        let trace = InvocationTrace::generated(generators, self.duration);
        (trace, classes)
    }
}

/// Draws function `function`'s load class and arrival model for
/// [`TraceSynthesizer::synthesize_cluster`], forking its stream off
/// `seed_rng`; returns the forked stream, which then draws the arrivals.
/// Functions must be drawn in id order.
pub(crate) fn cluster_function(
    seed_rng: &mut SimRng,
    function: FunctionId,
) -> (LoadClass, ArrivalModel, SimRng) {
    let mut rng = seed_rng.fork(u64::from(function.0) + 1);
    // Log-uniform daily rate in [2, 8192].
    let log_rate = rng.next_f64() * (8192.0f64 / 2.0).ln() + 2.0f64.ln();
    let per_day = log_rate.exp();
    let class = LoadClass::classify(per_day);
    let mean_gap = SimDuration::from_secs_f64(86_400.0 / per_day);
    // Burstiness correlates with load in the Azure trace: §8.4
    // attributes the semi-warm benefit of high-load functions to
    // short-term surges that strand containers, while middle-load
    // functions "tend to have a stable invocation pattern".
    let bursty_prob = match class {
        LoadClass::High => 0.75,
        LoadClass::Middle => 0.15,
        LoadClass::Low => 0.35,
    };
    let model = if rng.chance(bursty_prob) {
        if class == LoadClass::High {
            // High-load surges: dense in-burst arrivals (so the
            // observed reuse intervals — and hence the semi-warm
            // start timing — stay short), separated by silences
            // longer than any keep-alive, which strand the
            // scale-out containers (§8.4).
            ArrivalModel::Bursty {
                idle_gap: (mean_gap * 6).max(SimDuration::from_mins(20)),
                burst_gap: (mean_gap / 15).max(SimDuration::from_millis(100)),
                idle_period: SimDuration::from_mins(15),
                burst_period: SimDuration::from_secs(45),
            }
        } else {
            ArrivalModel::Bursty {
                idle_gap: mean_gap * 4,
                burst_gap: (mean_gap / 12).max(SimDuration::from_millis(200)),
                idle_period: SimDuration::from_mins(8),
                burst_period: SimDuration::from_mins(1),
            }
        }
    } else {
        ArrivalModel::ParetoGaps {
            min_gap: mean_gap.mul_f64(0.35),
            alpha: 1.5,
        }
    };
    (class, model, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn classification_thresholds() {
        assert_eq!(LoadClass::classify(1000.0), LoadClass::High);
        assert_eq!(LoadClass::classify(512.0), LoadClass::Middle);
        assert_eq!(LoadClass::classify(100.0), LoadClass::Middle);
        assert_eq!(LoadClass::classify(10.0), LoadClass::Low);
        assert_eq!(LoadClass::classify(64.0), LoadClass::Middle);
    }

    #[test]
    fn same_seed_reproduces_trace() {
        let a = TraceSynthesizer::new(5).synthesize_for(FunctionId(0));
        let b = TraceSynthesizer::new(5).synthesize_for(FunctionId(0));
        assert_eq!(a, b);
    }

    #[test]
    fn different_functions_differ() {
        let synth = TraceSynthesizer::new(5);
        let a = synth.synthesize_for(FunctionId(0));
        let b = synth.synthesize_for(FunctionId(1));
        assert_ne!(a.for_function(FunctionId(0)).len(), 0);
        assert_ne!(b.for_function(FunctionId(1)).len(), 0);
        // They must not be time-shifted copies of each other.
        let ta: Vec<_> = a.iter().map(|i| i.at).take(5).collect();
        let tb: Vec<_> = b.iter().map(|i| i.at).take(5).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn load_classes_order_by_volume() {
        let mk = |class| {
            TraceSynthesizer::new(9)
                .load_class(class)
                .duration(SimTime::from_mins(240))
                .synthesize_for(FunctionId(0))
                .len()
        };
        let high = mk(LoadClass::High);
        let mid = mk(LoadClass::Middle);
        let low = mk(LoadClass::Low);
        assert!(high > mid, "high {high} vs mid {mid}");
        assert!(mid > low, "mid {mid} vs low {low}");
    }

    #[test]
    fn all_invocations_inside_horizon() {
        let t = TraceSynthesizer::new(3)
            .duration(SimTime::from_mins(10))
            .synthesize_for(FunctionId(0));
        for inv in t.iter() {
            assert!(inv.at <= t.duration());
        }
    }

    #[test]
    fn bursty_traces_have_higher_interval_variance() {
        let steady = TraceSynthesizer::new(11)
            .arrival_model(ArrivalModel::Poisson {
                mean_gap: SimDuration::from_secs(10),
            })
            .duration(SimTime::from_mins(120))
            .synthesize_for(FunctionId(0));
        let bursty = TraceSynthesizer::new(11)
            .arrival_model(ArrivalModel::Bursty {
                idle_gap: SimDuration::from_secs(40),
                burst_gap: SimDuration::from_secs(1),
                idle_period: SimDuration::from_mins(5),
                burst_period: SimDuration::from_mins(1),
            })
            .duration(SimTime::from_mins(120))
            .synthesize_for(FunctionId(0));
        let cv = |t: &InvocationTrace| {
            let s = t.stats();
            s.interval_std_secs / s.mean_interval_secs.max(1e-9)
        };
        assert!(
            cv(&bursty) > cv(&steady),
            "bursty CV {} vs steady CV {}",
            cv(&bursty),
            cv(&steady)
        );
    }

    #[test]
    fn pareto_gaps_are_heavy_tailed() {
        let t = TraceSynthesizer::new(13)
            .arrival_model(ArrivalModel::ParetoGaps {
                min_gap: SimDuration::from_secs(5),
                alpha: 1.2,
            })
            .duration(SimTime::from_mins(600))
            .synthesize_for(FunctionId(0));
        let s = t.stats();
        // Heavy tail: std well above the mean would hold for alpha<2.
        assert!(s.interval_std_secs > s.mean_interval_secs * 0.8, "{s:?}");
        // Gaps never shorter than the scale.
        let mut prev = None;
        for inv in t.iter() {
            if let Some(p) = prev {
                assert!(inv.at.saturating_since(p) >= SimDuration::from_secs(5));
            }
            prev = Some(inv.at);
        }
    }

    #[test]
    fn poisson_rate_is_close() {
        let t = TraceSynthesizer::new(17)
            .arrival_model(ArrivalModel::Poisson {
                mean_gap: SimDuration::from_secs(6),
            })
            .duration(SimTime::from_mins(600))
            .synthesize_for(FunctionId(0));
        let expected = 600.0 * 60.0 / 6.0;
        let got = t.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.1,
            "expected ~{expected}, got {got}"
        );
    }

    #[test]
    fn cluster_has_all_classes_and_functions() {
        let (trace, classes) = TraceSynthesizer::new(21)
            .duration(SimTime::from_mins(120))
            .synthesize_cluster(60);
        assert_eq!(classes.len(), 60);
        let highs = classes
            .iter()
            .filter(|(_, c)| *c == LoadClass::High)
            .count();
        let mids = classes
            .iter()
            .filter(|(_, c)| *c == LoadClass::Middle)
            .count();
        let lows = classes.iter().filter(|(_, c)| *c == LoadClass::Low).count();
        assert!(
            highs > 0 && mids > 0 && lows > 0,
            "high {highs} mid {mids} low {lows}"
        );
        assert!(!trace.is_empty());
        assert!(
            trace.functions().len() > 30,
            "most functions fire at least once"
        );
    }

    #[test]
    fn synthesized_traces_are_exactly_sized() {
        let synth = TraceSynthesizer::new(8).duration(SimTime::from_mins(30));
        reference::assert_exact_size(&synth.synthesize_for(FunctionId(0)));
        reference::assert_exact_size(&synth.bursty(true).synthesize_for(FunctionId(1)));
    }

    /// Races `synthesize_cluster` against the retired per-function traces
    /// concatenated and stable-sorted: same invocations in the same
    /// order, same classes, exact size.
    fn check_cluster(seed: u64, functions: u32, minutes: u64) {
        let synth = TraceSynthesizer::new(seed).duration(SimTime::from_mins(minutes));
        let (trace, classes) = synth.synthesize_cluster(functions);
        let (expected, expected_classes) = reference::synthesize_cluster(&synth, functions);
        assert_eq!(trace, expected);
        assert_eq!(classes, expected_classes);
        reference::assert_exact_size(&trace);
    }

    proptest::proptest! {
        #[test]
        fn prop_cluster_matches_reference(
            seed in 0u64..u64::MAX,
            functions in 0u32..40,
            minutes in 1u64..20,
        ) {
            check_cluster(seed, functions, minutes);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The long run of the oracle above, run explicitly by CI
        /// (`cargo test -p faasmem-workload --release --lib -- --ignored`).
        #[test]
        #[ignore = "long oracle run; exercised explicitly by the CI test job"]
        fn trace_assembly_oracle_extended_cluster(
            seed in 0u64..u64::MAX,
            functions in 0u32..80,
            minutes in 1u64..40,
        ) {
            check_cluster(seed, functions, minutes);
        }
    }

    /// Races the lazy `synthesize_for` against the retired generation
    /// loop: the same invocations, every class and both arrival shapes.
    fn check_synthesize_for(seed: u64, function: u32, shape: u8, minutes: u64) {
        let class = [LoadClass::High, LoadClass::Middle, LoadClass::Low][usize::from(shape % 3)];
        let synth = TraceSynthesizer::new(seed)
            .load_class(class)
            .bursty(shape >= 3)
            .duration(SimTime::from_mins(minutes));
        let trace = synth.synthesize_for(FunctionId(function));
        let expected = reference::synthesize_for(&synth, FunctionId(function));
        assert_eq!(trace, expected);
        assert_eq!(trace.len(), expected.len());
        assert_eq!(trace.is_empty(), expected.is_empty());
        reference::assert_exact_size(&trace);
    }

    proptest::proptest! {
        #[test]
        fn prop_synthesize_for_matches_reference(
            seed in 0u64..u64::MAX,
            function in 0u32..u32::MAX,
            shape in 0u8..6,
            minutes in 1u64..120,
        ) {
            check_synthesize_for(seed, function, shape, minutes);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The long run of the oracle above, run explicitly by CI.
        #[test]
        #[ignore = "long oracle run; exercised explicitly by the CI test job"]
        fn trace_assembly_oracle_extended_synthesize_for(
            seed in 0u64..u64::MAX,
            function in 0u32..u32::MAX,
            shape in 0u8..6,
            minutes in 1u64..480,
        ) {
            check_synthesize_for(seed, function, shape, minutes);
        }
    }

    #[test]
    fn synthesized_trace_bytes_do_not_grow_with_the_horizon() {
        // The paper's 424-function cluster: one generator per function,
        // so an hour and two weeks hold the same bytes.
        let cluster = |horizon| {
            TraceSynthesizer::new(2021)
                .duration(horizon)
                .synthesize_cluster(424)
                .0
        };
        let hour = cluster(SimTime::from_mins(60));
        let fortnight = cluster(SimTime::from_mins(14 * 24 * 60));
        assert_eq!(hour.allocated_bytes(), fortnight.allocated_bytes());
        assert!(
            hour.allocated_bytes() < 100 * 424,
            "{}",
            hour.allocated_bytes()
        );
        reference::assert_exact_size(&fortnight);
        let one = TraceSynthesizer::new(5).duration(SimTime::from_mins(60));
        assert_eq!(
            one.synthesize_for(FunctionId(0)).allocated_bytes(),
            one.duration(SimTime::from_mins(14 * 24 * 60))
                .synthesize_for(FunctionId(0))
                .allocated_bytes()
        );
    }

    #[test]
    fn cluster_is_deterministic() {
        let (a, _) = TraceSynthesizer::new(33).synthesize_cluster(20);
        let (b, _) = TraceSynthesizer::new(33).synthesize_cluster(20);
        assert_eq!(a, b);
    }
}
