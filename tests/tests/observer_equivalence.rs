//! Observer-layer equivalence suite: attaching observers must never
//! change what the engine computes.
//!
//! Runs the full corpus under both clients three ways — no observer
//! (plain `analyze_cfg`), a `TraceObserver`, and a stacked
//! `TraceObserver` + `StatsObserver` — and asserts the analysis results
//! are identical and that both tracers collect the same lines. The
//! stacked run also holds every count of the engine's profile to the
//! trace lines of its event.

use mpl_cfg::Cfg;
use mpl_core::observer::{ObserverStack, StatsObserver, TraceObserver};
use mpl_core::{analyze_cfg, analyze_cfg_with, AnalysisConfig, AnalysisResult, Client};
use mpl_lang::corpus;

/// Strips the wall-clock-bearing closure stats so results from separate
/// runs compare on semantics alone.
fn sans_timing(mut r: AnalysisResult) -> AnalysisResult {
    r.closure_stats = Default::default();
    r
}

#[test]
fn observers_do_not_perturb_any_corpus_verdict() {
    for prog in corpus::all() {
        let cfg = Cfg::build(&prog.program);
        for client in [Client::Simple, Client::Cartesian] {
            let config = AnalysisConfig {
                client,
                ..AnalysisConfig::default()
            };
            let plain = analyze_cfg(&cfg, &config);

            let mut tracer = TraceObserver::new();
            let traced = analyze_cfg_with(&cfg, &config, &mut tracer);
            assert_eq!(
                sans_timing(plain.clone()),
                sans_timing(traced),
                "TraceObserver changed the result of {} under {client:?}",
                prog.name
            );

            let mut tracer2 = TraceObserver::new();
            let mut stats = StatsObserver::new();
            let stacked = {
                let mut stack = ObserverStack::new();
                stack.push(&mut tracer2);
                stack.push(&mut stats);
                analyze_cfg_with(&cfg, &config, &mut stack)
            };
            assert_eq!(
                sans_timing(plain),
                sans_timing(stacked.clone()),
                "stacked observers changed the result of {} under {client:?}",
                prog.name
            );
            assert_eq!(tracer.lines(), tracer2.lines(), "{}", prog.name);
        }
    }
}

/// Each count of the engine's profile means what the trace shows:
/// stacked on one run, the trace lines of each kind number exactly the
/// profile's count of that event, and every line is of one of the kinds.
#[test]
fn each_count_means_what_the_trace_shows() {
    let mut totals = [0u64; 6];
    for prog in corpus::all() {
        let cfg = Cfg::build(&prog.program);
        for client in [Client::Simple, Client::Cartesian] {
            let config = AnalysisConfig {
                client,
                ..AnalysisConfig::default()
            };
            let mut tracer = TraceObserver::new();
            let mut stats = StatsObserver::new();
            let result = {
                let mut stack = ObserverStack::new();
                stack.push(&mut tracer);
                stack.push(&mut stats);
                analyze_cfg_with(&cfg, &config, &mut stack)
            };
            let profile = stats.profile().expect("the engine reports its profile");
            assert_eq!(profile.steps, result.steps, "{} / {client:?}", prog.name);
            let counted = [
                ("step ", profile.steps),
                ("match: ", profile.matches),
                ("  (match could not be applied)", profile.rejected()),
                ("split on ", profile.splits),
                ("promote ", profile.promotions),
                ("terminal: ", profile.terminals),
            ];
            for (total, (prefix, count)) in totals.iter_mut().zip(counted) {
                let lines = tracer.lines().iter().filter(|l| l.starts_with(prefix));
                assert_eq!(
                    count,
                    lines.count() as u64,
                    "`{prefix}` lines of {} / {client:?}",
                    prog.name
                );
                *total += count;
            }
            let kinds: u64 = counted.iter().map(|(_, count)| count).sum();
            assert_eq!(kinds, tracer.lines().len() as u64, "{}", prog.name);
        }
    }
    // The corpus reaches every kind of line but a rejected match, so no
    // check above holds only because both sides are zero.
    for (kind, total) in totals.iter().enumerate() {
        assert!(kind == 2 || *total > 0, "{totals:?}");
    }
}
