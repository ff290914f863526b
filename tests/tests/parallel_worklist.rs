//! The worklist's frontier counters and cancellation: the profile
//! reports how many states were ever ready to step in parallel, and a
//! cancelled deadline stops the loop within the polling interval.

use mpl_core::{
    analyze, analyze_cfg_with, AnalysisConfig, StatsObserver, TopReason, Verdict,
    CANCEL_CHECK_STEPS,
};
use mpl_lang::corpus;
use mpl_runtime::CancelToken;

#[test]
fn profile_reports_frontier_and_worker_occupancy() {
    // The frontier width is how many states were ready to be stepped
    // independently: the occupancy a worker pool could have reached.
    let prog = corpus::mdcask_full();
    let cfg = mpl_cfg::Cfg::build(&prog.program);
    let mut stats = StatsObserver::new();
    let result = analyze_cfg_with(&cfg, &AnalysisConfig::default(), &mut stats);
    assert!(result.is_exact(), "{:?}", result.verdict);
    let profile = stats.profile().expect("profile recorded");
    assert!(profile.rounds >= 1);
    assert!(profile.frontier_peak >= 1);
    // Every state of every frontier was stepped: nothing stops this run
    // early.
    assert_eq!(profile.frontier_total, result.steps);
    assert!(profile.rounds <= result.steps);
    assert!(profile.frontier_peak as u64 * profile.rounds >= result.steps);
}

#[test]
fn cancellation_fires_mid_round_within_the_polling_interval() {
    // A pre-cancelled token: the loop polls it every CANCEL_CHECK_STEPS
    // steps, so the engine stops with ⊤/deadline instead of finishing
    // the run.
    let token = CancelToken::new();
    token.cancel();
    let prog = corpus::mdcask_full();
    let config = AnalysisConfig {
        cancel: Some(token),
        ..AnalysisConfig::default()
    };
    let result = analyze(&prog.program, &config);
    assert!(matches!(
        result.verdict,
        Verdict::Top {
            reason: TopReason::Deadline
        }
    ));
    assert!(
        result.steps <= CANCEL_CHECK_STEPS,
        "stopped after {} steps, poll interval is {}",
        result.steps,
        CANCEL_CHECK_STEPS
    );
}
