//! E18: copy-on-write state sharing on the wide-program stress rows.
//!
//! Measures end-to-end analysis time and the per-phase engine breakdown
//! on `exchange_with_root_wide_live(p)` — the workload whose successor
//! states used to deep-copy an O(p²) constraint matrix per engine step;
//! its padding stays live, so dead-variable projection leaves the
//! matrices at full size — plus a small control program that must stay
//! in the noise. Also reports how many matrix copies the CoW layer
//! actually materialized.
//!
//! Writes a JSON summary to `$BENCH_STATE_SHARING_JSON` when that
//! variable is set (the `scripts/verify.sh` artifact
//! `BENCH_state_sharing.json`); always prints the same rows as a table.

use std::fmt::Write as _;
use std::time::Duration;

use mpl_bench::{profiled_run, ProfiledRun};
use mpl_core::Client;
use mpl_domains::stats;
use mpl_lang::corpus;

/// Best-of-N wall-clock measurement of one corpus program, with the
/// matrix-copy delta of the fastest run's pass.
fn measure(prog: &corpus::CorpusProgram, runs: u32) -> (ProfiledRun, u64) {
    let mut best: Option<(ProfiledRun, u64)> = None;
    for _ in 0..runs {
        let before = stats::matrix_copies();
        let run = profiled_run(prog, Client::Simple);
        let copies = stats::matrix_copies() - before;
        let better = best
            .as_ref()
            .is_none_or(|(b, _)| run.profile.total < b.profile.total);
        if better {
            best = Some((run, copies));
        }
    }
    best.expect("at least one run")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let programs = [
        ("fig2_exchange", corpus::fig2_exchange(), 20),
        ("exchange_with_root", corpus::exchange_with_root(), 20),
        ("wide_live_24", corpus::exchange_with_root_wide_live(24), 5),
        ("wide_live_48", corpus::exchange_with_root_wide_live(48), 3),
        ("wide_live_96", corpus::exchange_with_root_wide_live(96), 2),
    ];

    println!("== state_sharing (E18) ==");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>5} {:>12} {:>8}",
        "program",
        "total",
        "transfer",
        "match",
        "join/widen",
        "admission",
        "stored",
        "peak",
        "~bytes",
        "copies"
    );

    let mut rows = String::from("[");
    for (i, (label, prog, runs)) in programs.iter().enumerate() {
        let (run, copies) = measure(prog, *runs);
        let p = &run.profile;
        println!(
            "{:<22} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>8} {:>5} {:>12} {:>8}",
            label,
            p.total,
            p.transfer,
            p.matching,
            p.join_widen,
            p.admission,
            p.stored.locations,
            p.stored.peak_live,
            p.stored.approx_bytes,
            copies,
        );
        if i > 0 {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "{{\"program\":\"{label}\",\"total_ms\":{:.3},\"transfer_ms\":{:.3},\
             \"match_ms\":{:.3},\"join_widen_ms\":{:.3},\"admission_ms\":{:.3},\
             \"stored_locations\":{},\"stored_peak_live\":{},\"stored_approx_bytes\":{},\
             \"matrix_copies\":{}}}",
            ms(p.total),
            ms(p.transfer),
            ms(p.matching),
            ms(p.join_widen),
            ms(p.admission),
            p.stored.locations,
            p.stored.peak_live,
            p.stored.approx_bytes,
            copies,
        );
    }
    rows.push(']');

    if let Ok(path) = std::env::var("BENCH_STATE_SHARING_JSON") {
        let json = format!(
            "{{\"bench\":\"state_sharing\",\"nproc\":{},\"rows\":{rows}}}\n",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        );
        std::fs::write(&path, json).expect("write BENCH_STATE_SHARING_JSON");
        println!("wrote {path}");
    }
}
