//! Runner for experiment E20 (README, "Service mode and fault injection").
//!
//! Defaults to the full n = 256 demonstration (1000 consecutive
//! instances per stream); pass `--n <nodes>` for a different size
//! (e.g. `--n 64` for the CI smoke).

fn main() {
    let flags = adn_bench::cli::Flags::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("exp20_service: {e}");
        std::process::exit(2);
    });
    let n = flags.get_or("n", 256usize).unwrap_or_else(|e| {
        eprintln!("exp20_service: {e}");
        std::process::exit(2);
    });
    print!("{}", adn_bench::e20_service::run_at(n));
}
