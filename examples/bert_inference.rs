//! ML-inference scenario: a BERT serving function under a bursty trace,
//! comparing all three systems of the paper (Baseline / TMO / FaaSMem).
//!
//! This is the paper's flagship application: ~900 MiB of model state in
//! the init segment, ~400 MiB of it hot in every request, 1-core
//! containers, ~140 ms requests. Bursts strand keep-alive containers
//! holding gigabytes — exactly the situation semi-warm targets.
//!
//! ```text
//! cargo run --release --example bert_inference
//! ```

use faasmem::core::FaasMemPolicy;
use faasmem::prelude::*;

fn run_with<P>(policy: P, trace: &InvocationTrace) -> RunReport
where
    P: MemoryPolicy + 'static,
{
    let mut sim = PlatformSim::builder()
        .register_function(BenchmarkSpec::by_name("bert").expect("catalog"))
        .policy(policy)
        .seed(99)
        .build();
    sim.run(trace)
}

fn main() {
    let trace = TraceSynthesizer::new(11)
        .load_class(LoadClass::High)
        .bursty(true)
        .duration(SimTime::from_mins(60))
        .synthesize_for(FunctionId(0));
    println!("bursty bert trace: {} invocations / hour\n", trace.len());

    let faasmem_policy = FaasMemPolicy::new();
    let stats = faasmem_policy.stats();
    let reports = vec![
        run_with(NoOffloadPolicy, &trace),
        run_with(TmoPolicy::default(), &trace),
        run_with(faasmem_policy, &trace),
    ];

    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "system", "avg mem", "peak mem", "P95", "offloaded", "recalled"
    );
    for mut report in reports {
        let peak = report.local_mem.max_value().unwrap_or(0.0) / (1024.0 * 1024.0);
        let p95 = report.p95_latency().to_string();
        println!(
            "{:<10} {:>8.0}Mi {:>8.0}Mi {:>10} {:>10.1}Mi {:>10.1}Mi",
            report.policy,
            report.avg_local_mib(),
            peak,
            p95,
            report.pool_stats.bytes_out as f64 / (1024.0 * 1024.0),
            report.pool_stats.bytes_in as f64 / (1024.0 * 1024.0),
        );
    }

    let stats = stats.borrow();
    println!();
    println!("FaaSMem mechanism detail:");
    println!("  rollbacks performed:        {}", stats.rollbacks);
    println!(
        "  semi-warm drained:          {:.1} MiB",
        stats.semi_warm_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  request windows chosen:     {:?}",
        stats
            .windows_chosen
            .iter()
            .map(|&(_, w)| w)
            .collect::<Vec<_>>()
    );
    let fractions = stats.semi_warm_fractions();
    let spent_half = fractions.iter().filter(|&&f| f > 0.5).count();
    println!(
        "  containers >50% semi-warm:  {spent_half} of {}",
        fractions.len()
    );
}
