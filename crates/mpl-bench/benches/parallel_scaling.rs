//! E15: parallel batch-analysis scaling — wall time for the full corpus
//! batch as the `RequestBatch` worker count grows (jobs = 1, 2, 4, 8).
//!
//! On a multi-core host the batch should approach linear speedup (the
//! jobs are independent); on a single-core container the times stay flat
//! and only measure the (small) cost of the worker threads. Either way the *results*
//! are identical at every worker count — asserted here after measuring.

use mpl_bench::harness::Group;
use mpl_core::{AnalysisRequest, Client, RequestBatch};
use mpl_lang::corpus;
use std::hint::black_box;

/// The corpus plus a few scaled workloads so the batch has enough work
/// to amortize thread startup.
fn requests() -> Vec<AnalysisRequest> {
    let mut out = Vec::new();
    for prog in corpus::all() {
        out.push(
            AnalysisRequest::builder()
                .name(prog.name)
                .program(prog.program),
        );
    }
    for k in [8usize, 16, 24] {
        out.push(
            AnalysisRequest::builder()
                .name(format!("repeated_exchanges_{k}"))
                .program(corpus::repeated_exchanges(k).program)
                .client(Client::Simple),
        );
    }
    out.into_iter()
        .map(|builder| builder.build().expect("valid request"))
        .collect()
}

fn batch(workers: usize) -> RequestBatch {
    let mut batch = RequestBatch::new().workers(workers);
    for request in requests() {
        batch.push(request);
    }
    batch
}

fn main() {
    let group = Group::new("parallel_batch_scaling");
    for workers in [1usize, 2, 4, 8] {
        group.bench(&format!("corpus_jobs_{workers}"), || {
            black_box(batch(workers).run().summary.programs)
        });
    }
    drop(group);

    // Sanity: the batch is result-deterministic at every worker count.
    let render = |workers: usize| {
        batch(workers)
            .run()
            .responses
            .iter()
            .map(|r| {
                let result = r.result.as_ref().expect("fault-free corpus completes");
                format!(
                    "{:?} {:?} {:?} {}",
                    r.name, result.verdict, result.matches, result.steps
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let seq = render(1);
    for workers in [2usize, 4, 8] {
        assert_eq!(
            seq,
            render(workers),
            "results diverged at {workers} workers"
        );
    }
    println!("\ndeterminism: corpus results identical for 1/2/4/8 workers");
}
