//! `run_all`'s E01–E17 reports, pinned by one digest.
//!
//! The experiments are deterministic: fixed seeds and sweeps, and a
//! [`TrialPool`] that merges results in input order. This test runs
//! E01–E17 on a pool as `run_all` does and folds every byte of every
//! report, in registry order, into one FNV-1a-64 digest — the same fold
//! as `ledger suite`'s `bench.run_all_digest`, so the pin below is that
//! command's baseline too. E18–E20 print wall-clock columns and are left
//! out, as the ledger leaves them out.
//!
//! A change that alters an experiment's output fails here; one that means
//! to update the pin and says in its description why the reports moved.

use anondyn::sim::TrialPool;

/// The digest of E01–E17's reports.
const PINNED: &str = "0c396ab651cbb3a9";

/// FNV-1a-64 over each byte widened to a little-endian `u64`, the ledger's
/// `Digest::u64` per byte.
fn digest(reports: &[String]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in reports.iter().flat_map(|r| r.bytes()) {
        for x in u64::from(b).to_le_bytes() {
            h = (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

#[test]
fn e01_to_e17_reports_match_their_pinned_digest() {
    let pinned: Vec<_> = adn_bench::all()
        .into_iter()
        .filter(|(id, _, _)| *id <= "E17")
        .collect();
    assert_eq!(pinned.len(), 17, "E01–E17 in the registry");
    let reports = TrialPool::new().run(&pinned, |(_, _, runner)| runner());
    assert_eq!(digest(&reports), PINNED);
}
