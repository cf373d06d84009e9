//! Runs every experiment and prints a combined report.
//!
//! Experiments are independent pure functions, so all but the last three
//! execute on a [`TrialPool`] (one trial per experiment, on top of each
//! experiment's own internal parallelism). E18, E19, and E20 — the scale
//! and throughput experiments, whose wall-clock columns would be
//! inflated by contention — run alone, serially, after the pool drains.
//! Reports
//! print strictly in registry order, so the output is byte-identical to
//! a serial run (the wall-clock columns of E18/E19 excepted: they are
//! nondeterministic between any two runs).

use adn_sim::TrialPool;

fn main() {
    let registry = adn_bench::all();
    let (pooled, timed_tail) = registry.split_at(registry.len() - 3);
    let mut reports = TrialPool::new().run(pooled, |(_, _, runner)| runner());
    reports.extend(timed_tail.iter().map(|(_, _, runner)| runner()));
    for ((id, title, _), report) in registry.iter().zip(reports) {
        println!("==================================================================");
        println!("{id}: {title}");
        println!("==================================================================");
        println!("{report}");
    }
}
