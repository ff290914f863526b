//! Observer-layer equivalence suite: attaching observers must never
//! change what the engine computes.
//!
//! Runs the full corpus under both clients three ways — no observer
//! (plain `analyze_cfg`), a `TraceObserver`, and a stacked
//! `TraceObserver` + `StatsObserver` — and asserts the analysis results
//! are identical, that both tracers collect the same lines, and that the
//! stats counters agree with the result they were collected from.

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
            assert_eq!(stats.stats().steps, stacked.steps, "{}", prog.name);
        }
    }
}
