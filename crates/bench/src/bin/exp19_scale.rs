//! Runner for experiment E19 (README, "Scaling past n = 2048").
//!
//! Defaults to the full n = 100 000 demonstration; pass `--n <nodes>` for
//! a different size (e.g. `--n 16384` for the CI smoke).

fn main() {
    let flags = adn_bench::cli::Flags::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("exp19_scale: {e}");
        std::process::exit(2);
    });
    let n = flags.get_or("n", 100_000usize).unwrap_or_else(|e| {
        eprintln!("exp19_scale: {e}");
        std::process::exit(2);
    });
    print!("{}", adn_bench::e19_scale::run_at(n));
}
