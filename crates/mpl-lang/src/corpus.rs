//! The program corpus: every code sample analyzed in the CGO'09 paper plus
//! additional classic message-passing patterns used by tests and benchmarks.
//!
//! Each program is authored as MPL source text (exercising the parser) and
//! tagged with the communication pattern the paper's analysis is expected
//! to find — or with the expected *failure* mode for programs that
//! deliberately exceed the blocking-send framework of the paper (§X).

use crate::ast::Program;
use crate::parser::parse_program;

/// The communication-pattern ground truth for a corpus program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternHint {
    /// Root sends one message to every other process (Fig 1 first phase, §IX).
    Broadcast,
    /// Every non-root process sends one message to the root.
    Gather,
    /// Root exchanges a message with every other process (Fig 1/5).
    ExchangeWithRoot,
    /// Matrix-transpose partner exchange on a cartesian grid (Fig 6).
    Transpose,
    /// Nearest-neighbor shift along one mesh dimension (Fig 7/8).
    Shift,
    /// Ring with wrap-around.
    Ring,
    /// Two fixed processes exchange a value (Fig 2).
    PairExchange,
    /// The analysis is expected to give up (⊤): the pattern is real but
    /// exceeds the blocking-deterministic framework or the client
    /// abstraction (documented limitations, paper §VI/§X).
    ExpectTop,
    /// The program deadlocks at runtime under the paper's execution model.
    Deadlock,
    /// The program leaks a message (sent but never received).
    MessageLeak,
}

/// A corpus entry: named, documented, pre-parsed program.
#[derive(Debug, Clone)]
pub struct CorpusProgram {
    /// Short unique name (used by benches and table generators).
    pub name: &'static str,
    /// Which paper artifact this reproduces, if any.
    pub paper_ref: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// MPL source text.
    pub source: String,
    /// Parsed program.
    pub program: Program,
    /// Ground-truth pattern.
    pub hint: PatternHint,
    /// Smallest process count the program is meaningful for.
    pub min_procs: u64,
}

fn entry(
    name: &'static str,
    paper_ref: &'static str,
    description: &'static str,
    hint: PatternHint,
    min_procs: u64,
    source: String,
) -> CorpusProgram {
    let program = parse_program(&source)
        .unwrap_or_else(|e| panic!("corpus program `{name}` failed to parse: {e}\n{source}"));
    CorpusProgram {
        name,
        paper_ref,
        description,
        source,
        program,
        hint,
        min_procs,
    }
}

/// Figure 2: processes 0 and 1 exchange a value initialized to 5 by
/// process 0; both print 5.
#[must_use]
pub fn fig2_exchange() -> CorpusProgram {
    entry(
        "fig2_exchange",
        "Fig 2",
        "ranks 0 and 1 exchange a constant; constant propagation proves both print 5",
        PatternHint::PairExchange,
        2,
        "\
if id = 0 then
  x := 5;
  send x -> 1;
  recv y <- 1;
  print y;
else
  if id = 1 then
    recv y <- 0;
    send y -> 0;
    print y;
  end
end
"
        .to_owned(),
    )
}

/// Figure 1 / Figure 5 (second phase): the mdcask exchange-with-root
/// pattern. Root sends to and receives from each other rank in turn.
#[must_use]
pub fn exchange_with_root() -> CorpusProgram {
    entry(
        "exchange_with_root",
        "Fig 1, Fig 5",
        "mdcask exchange-with-root: root sends to and receives from every rank",
        PatternHint::ExchangeWithRoot,
        2,
        "\
x := 7;
if id = 0 then
  for i = 1 to np - 1 do
    send x -> i;
    recv y <- i;
  end
else
  recv y <- 0;
  send x -> 0;
end
"
        .to_owned(),
    )
}

/// The fan-out broadcast analyzed in §IX: root sends one message to every
/// other rank.
#[must_use]
pub fn fanout_broadcast() -> CorpusProgram {
    entry(
        "fanout_broadcast",
        "§IX",
        "fan-out broadcast: root sends one message to every other rank",
        PatternHint::Broadcast,
        2,
        "\
x := 42;
if id = 0 then
  for i = 1 to np - 1 do
    send x -> i;
  end
else
  recv y <- 0;
end
"
        .to_owned(),
    )
}

/// Gather-to-root (Fig 1 first phase): every non-root rank sends one
/// message to rank 0.
#[must_use]
pub fn gather_to_root() -> CorpusProgram {
    entry(
        "gather_to_root",
        "Fig 1",
        "gather: every non-root rank sends one message to root",
        PatternHint::Gather,
        2,
        "\
x := id;
if id = 0 then
  for i = 1 to np - 1 do
    recv y <- i;
  end
else
  send x -> 0;
end
"
        .to_owned(),
    )
}

/// The full mdcask sample of Figure 1: a broadcast phase followed by an
/// exchange-with-root phase.
#[must_use]
pub fn mdcask_full() -> CorpusProgram {
    entry(
        "mdcask_full",
        "Fig 1",
        "full mdcask sample: broadcast phase then exchange-with-root phase",
        PatternHint::ExchangeWithRoot,
        2,
        "\
x := 3;
if id = 0 then
  for i = 1 to np - 1 do
    send x -> i;
  end
  for j = 1 to np - 1 do
    send x -> j;
    recv y <- j;
  end
else
  recv b <- 0;
  recv y <- 0;
  send x -> 0;
end
"
        .to_owned(),
    )
}

/// How grid dimensions are provided to the NAS-CG transpose programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridDims {
    /// `nrows`/`ncols` stay symbolic, constrained only by `assume`
    /// facts — the interesting case for the HSM analysis (§VIII).
    Symbolic,
    /// Concrete dimensions baked in as literal assignments, so the
    /// program can also be run on the simulator.
    Concrete { nrows: i64, ncols: i64 },
}

fn grid_prologue(dims: GridDims, shape: Option<bool>) -> String {
    // `shape`: Some(false) = square grid, Some(true) = 1:2 rectangular,
    // None = no shape constraint.
    let shape_fact = match shape {
        Some(true) => "assume ncols = 2 * nrows;\n",
        Some(false) => "assume ncols = nrows;\n",
        None => "",
    };
    match dims {
        GridDims::Symbolic => format!("assume np = nrows * ncols;\n{shape_fact}"),
        GridDims::Concrete { nrows, ncols } => format!(
            "nrows := {nrows};\nncols := {ncols};\nassume np = nrows * ncols;\n{shape_fact}"
        ),
    }
}

/// Figure 6, square branch: the NAS-CG transpose exchange on an
/// `nrows x nrows` grid. Every process swaps a value with its transpose
/// partner `(id % nrows) * nrows + id / nrows`.
#[must_use]
pub fn nas_cg_transpose_square(dims: GridDims) -> CorpusProgram {
    let src = format!(
        "{}\
x := id;
send x -> (id % nrows) * nrows + id / nrows;
recv y <- (id % nrows) * nrows + id / nrows;
",
        grid_prologue(dims, Some(false))
    );
    entry(
        "nas_cg_transpose_square",
        "Fig 6 (ncols = nrows)",
        "NAS-CG transpose on a square process grid, matched via HSMs",
        PatternHint::Transpose,
        1,
        src,
    )
}

/// Figure 6, rectangular branch: the NAS-CG transpose exchange on an
/// `nrows x 2*nrows` grid. The partner map
/// `2*nrows*((id/2) % nrows) + 2*(id/(2*nrows)) + id % 2`
/// is an involution on `[0..np-1]` (the paper's OCR garbles the exact
/// expression; this is the involution whose image HSM is the paper's
/// `[[[0:2,1] : nrows, 2*nrows] : nrows, 2]`).
#[must_use]
pub fn nas_cg_transpose_rect(dims: GridDims) -> CorpusProgram {
    let src = format!(
        "{}\
x := id;
send x -> 2 * nrows * ((id / 2) % nrows) + 2 * (id / (2 * nrows)) + id % 2;
recv y <- 2 * nrows * ((id / 2) % nrows) + 2 * (id / (2 * nrows)) + id % 2;
",
        grid_prologue(dims, Some(true))
    );
    entry(
        "nas_cg_transpose_rect",
        "Fig 6 (ncols = 2*nrows)",
        "NAS-CG transpose on a 1:2 rectangular process grid, matched via HSMs",
        PatternHint::Transpose,
        2,
        src,
    )
}

/// Figure 7: the 1-d nearest-neighbor shift. Interior ranks receive from
/// the left and send to the right; the edges only send or only receive.
#[must_use]
pub fn nearest_neighbor_shift() -> CorpusProgram {
    entry(
        "nearest_neighbor_shift",
        "Fig 7/8",
        "1-d nearest-neighbor shift: send right, receive from left; open ends",
        PatternHint::Shift,
        2,
        "\
x := id;
if id = 0 then
  send x -> id + 1;
else
  if id = np - 1 then
    recv y <- id - 1;
  else
    recv y <- id - 1;
    send x -> id + 1;
  end
end
"
        .to_owned(),
    )
}

/// Mirror of Figure 7: send left, receive from the right.
#[must_use]
pub fn left_shift() -> CorpusProgram {
    entry(
        "left_shift",
        "§VIII-C (mirror)",
        "1-d shift in the opposite direction: send left, receive from right",
        PatternHint::Shift,
        2,
        "\
x := id;
if id = np - 1 then
  send x -> id - 1;
else
  if id = 0 then
    recv y <- id + 1;
  else
    recv y <- id + 1;
    send x -> id - 1;
  end
end
"
        .to_owned(),
    )
}

/// A vertical (inter-row) shift on a 2-d grid laid out row-major:
/// the `n = 2` case of §VIII-C restricted to one dimension. Rows are
/// contiguous rank ranges, so the simple §VII client can analyze it with
/// the symbolic offset `ncols`.
#[must_use]
pub fn stencil_2d_vertical(dims: GridDims) -> CorpusProgram {
    let src = format!(
        "{}\
x := id;
if id < np - ncols then
  send x -> id + ncols;
end
if id >= ncols then
  recv y <- id - ncols;
end
",
        grid_prologue(dims, None)
    );
    entry(
        "stencil_2d_vertical",
        "§VIII-C (2-d, one dimension)",
        "row-major 2-d grid, downward shift: send to id+ncols, receive from id-ncols",
        PatternHint::Shift,
        2,
        src,
    )
}

/// A ring shift written with explicit wrap-around conditionals, so each
/// branch uses a simple partner expression and process sets stay
/// contiguous.
#[must_use]
pub fn ring_conditional() -> CorpusProgram {
    entry(
        "ring_conditional",
        "extension",
        "ring with explicit wrap-around branches (send right, receive left)",
        PatternHint::Ring,
        2,
        "\
x := id;
if id < np - 1 then
  send x -> id + 1;
else
  send x -> 0;
end
if id > 0 then
  recv y <- id - 1;
else
  recv y <- np - 1;
end
"
        .to_owned(),
    )
}

/// A ring shift written with modular arithmetic. Runs fine under the
/// buffered-send execution model, but the blocking-send static framework
/// must give up (all process sets block on `send` simultaneously), and the
/// wrapped sequence is not expressible as a single HSM — the paper's §X
/// limitation.
#[must_use]
pub fn ring_uniform() -> CorpusProgram {
    entry(
        "ring_uniform",
        "§X limitation",
        "uniform modular ring: statically ⊤ under blocking sends, runs fine buffered",
        PatternHint::ExpectTop,
        2,
        "\
x := id;
send x -> (id + 1) % np;
recv y <- (id + np - 1) % np;
"
        .to_owned(),
    )
}

/// Even/odd partner exchange. The partner map is simple but the required
/// process-set split (`id % 2 = 0`) is not a contiguous range, exceeding
/// the §VII/§VIII process-set abstraction — the analysis must return ⊤
/// rather than guess.
#[must_use]
pub fn pairwise_exchange() -> CorpusProgram {
    entry(
        "pairwise_exchange",
        "client limitation",
        "odd/even partner exchange: needs non-contiguous process sets, expect ⊤",
        PatternHint::ExpectTop,
        2,
        "\
x := id;
if id % 2 = 0 then
  send x -> id + 1;
  recv y <- id + 1;
else
  recv y <- id - 1;
  send x -> id - 1;
end
"
        .to_owned(),
    )
}

/// Head-to-head receives: both ranks wait for the other first. Deadlocks
/// under any send semantics; the static analysis reports that no match is
/// possible.
#[must_use]
pub fn deadlock_pair() -> CorpusProgram {
    entry(
        "deadlock_pair",
        "§I error detection",
        "ranks 0 and 1 both receive before sending: guaranteed deadlock",
        PatternHint::Deadlock,
        2,
        "\
if id = 0 then
  recv y <- 1;
  send y -> 1;
else
  if id = 1 then
    recv y <- 0;
    send y -> 0;
  end
end
"
        .to_owned(),
    )
}

/// A message leak: rank 0 sends to rank 1, which never receives.
#[must_use]
pub fn message_leak() -> CorpusProgram {
    entry(
        "message_leak",
        "§I error detection",
        "rank 0 sends a message nobody receives: message leak diagnostic",
        PatternHint::MessageLeak,
        2,
        "\
if id = 0 then
  x := 9;
  send x -> 1;
end
print id;
"
        .to_owned(),
    )
}

/// A three-rank constant relay 0 → 1 → 2; constant propagation should
/// prove all three prints output 11.
#[must_use]
pub fn const_relay() -> CorpusProgram {
    entry(
        "const_relay",
        "extension of Fig 2",
        "constant relayed 0→1→2; const-prop proves every print outputs 11",
        PatternHint::PairExchange,
        3,
        "\
if id = 0 then
  x := 11;
  send x -> 1;
  print x;
else
  if id = 1 then
    recv x <- 0;
    send x -> 2;
    print x;
  else
    if id = 2 then
      recv x <- 1;
      print x;
    end
  end
end
"
        .to_owned(),
    )
}

/// A scatter where the root sends a *different* value to each rank
/// (value depends on the loop index), exercising dataflow through the
/// matched loop sends.
#[must_use]
pub fn scatter_indexed() -> CorpusProgram {
    entry(
        "scatter_indexed",
        "extension of §IX",
        "indexed scatter: root sends i*10 to rank i",
        PatternHint::Broadcast,
        2,
        "\
if id = 0 then
  for i = 1 to np - 1 do
    v := i * 10;
    send v -> i;
  end
else
  recv y <- 0;
end
"
        .to_owned(),
    )
}

/// The full 2-d five-point stencil halo exchange (SVIII-C with `n = 2`):
/// four shift phases (down, up, right, left) on a row-major grid. Rows
/// are contiguous rank ranges; the horizontal phases split on the
/// column position `id % ncols`, which needs concrete dimensions.
#[must_use]
pub fn stencil_2d_full(dims: GridDims) -> CorpusProgram {
    let src = format!(
        "{}x := id;\nif id < np - ncols then\n  send x -> id + ncols;\nend\nif id >= ncols then\n  recv up <- id - ncols;\nend\nif id >= ncols then\n  send x -> id - ncols;\nend\nif id < np - ncols then\n  recv down <- id + ncols;\nend\ncol := id % ncols;\nif col < ncols - 1 then\n  send x -> id + 1;\nend\nif col > 0 then\n  recv left <- id - 1;\nend\nif col > 0 then\n  send x -> id - 1;\nend\nif col < ncols - 1 then\n  recv right <- id + 1;\nend\n",
        grid_prologue(dims, None)
    );
    entry(
        "stencil_2d_full",
        "SVIII-C (n = 2)",
        "five-point 2-d halo exchange; the horizontal phases split on id % ncols, \
which is not a contiguous range, so the analysis answers \u{22a4} honestly",
        PatternHint::ExpectTop,
        4,
        src,
    )
}

/// A binomial-tree (recursive-doubling) broadcast: in round `k` every
/// rank below `k` forwards to rank `id + k`. Runs in O(log np) message
/// hops — the collective implementation the paper's Fig 1 motivation
/// would substitute for the linear fan-out. The paper's §X lists
/// tree-shaped patterns as *future work* for the static framework, so
/// the analysis is expected to return ⊤ (the doubling `k := k + k`
/// leaves the difference-bound fragment); the simulator provides the
/// ground truth.
#[must_use]
pub fn tree_broadcast() -> CorpusProgram {
    entry(
        "tree_broadcast",
        "§X (tree patterns, future work)",
        "binomial-tree broadcast: O(log np) critical path; statically ⊤ per §X",
        PatternHint::ExpectTop,
        2,
        "\
if id = 0 then
  x := 42;
end
k := 1;
while k < np do
  if id < k then
    if id + k < np then
      send x -> id + k;
    end
  else
    if id < k + k then
      recv x <- id - k;
    end
  end
  k := k + k;
end
print x;
"
        .to_owned(),
    )
}

/// A linear pipeline: rank 0 injects a value, every interior rank
/// receives from the left, transforms (doubles) and forwards right, and
/// the last rank only consumes. Structurally a right shift, so the §VII
/// client analyzes it exactly for unbounded `np`; the transformed values
/// themselves are rank-dependent and stay unknown to constant
/// propagation.
#[must_use]
pub fn pipeline_double() -> CorpusProgram {
    entry(
        "pipeline_double",
        "extension (Fig 7 family)",
        "linear transform pipeline: exact shift topology, data-dependent values",
        PatternHint::Shift,
        2,
        "\
if id = 0 then
  acc := 1;
  send acc -> id + 1;
else
  if id = np - 1 then
    recv acc <- id - 1;
  else
    recv acc <- id - 1;
    acc := acc * 2;
    send acc -> id + 1;
  end
end
print acc;
"
        .to_owned(),
    )
}

/// The exchange-with-root pattern padded with `extra_vars` chained local
/// variables per process. The paper's §IX prototype tracked 52–66
/// variables per constraint graph on its fan-out broadcast; this builder
/// recreates that regime so the closure-cost profile (E6) and the
/// full-reclosure ablation (E8) are measured at comparable graph sizes.
#[must_use]
pub fn exchange_with_root_wide(extra_vars: usize) -> CorpusProgram {
    let mut pad = String::from("w0 := 1;\n");
    for k in 1..extra_vars {
        pad.push_str(&format!("w{k} := w{} + 1;\n", k - 1));
    }
    let src = format!(
        "{pad}x := 7;\n\
         if id = 0 then\n  for i = 1 to np - 1 do\n    send x -> i;\n    recv y <- i;\n  end\n\
         else\n  recv y <- 0;\n  send x -> 0;\nend\n"
    );
    entry(
        "exchange_with_root_wide",
        "§IX (variable-count regime)",
        "exchange-with-root padded with chained locals to reach the paper's 52-66 variable regime",
        PatternHint::ExchangeWithRoot,
        2,
        src,
    )
}

/// [`exchange_with_root_wide`] followed by one `print w0 + w1 + … +
/// w{n-1};`. That single statement reads every padding local, so all of
/// them stay live through the exchange and dead-variable projection
/// keeps them all: the constraint graphs keep the paper's 52–66 variable
/// regime (and beyond), where closure, join/widen and match costs grow
/// with the variable count. The profile's variable-regime rows (E6, E8,
/// E18) run this program.
#[must_use]
pub fn exchange_with_root_wide_live(extra_vars: usize) -> CorpusProgram {
    let mut wide = exchange_with_root_wide(extra_vars);
    let sum: Vec<String> = (0..extra_vars).map(|k| format!("w{k}")).collect();
    if !sum.is_empty() {
        wide.source
            .push_str(&format!("print {};\n", sum.join(" + ")));
    }
    entry(
        "exchange_with_root_wide_live",
        "§IX (variable-count regime, all locals live)",
        "exchange-with-root padded with chained locals that a final print keeps live",
        PatternHint::ExchangeWithRoot,
        2,
        wide.source,
    )
}

/// `k` back-to-back exchange phases between ranks 0 and 1 — a
/// program-size scaling knob for the analysis benchmarks (the pCFG walk
/// grows linearly with the number of communication phases).
#[must_use]
pub fn repeated_exchanges(k: usize) -> CorpusProgram {
    let mut body0 = String::new();
    let mut body1 = String::new();
    for i in 0..k {
        body0.push_str(&format!("  send {i} -> 1;\n  recv y <- 1;\n"));
        body1.push_str("  recv y <- 0;\n  send y -> 0;\n");
    }
    let src = format!("if id = 0 then\n{body0}else\n  if id = 1 then\n{body1}  end\nend\n");
    entry(
        "repeated_exchanges",
        "scaling knob",
        "k sequential pair exchanges: program-size scaling for the benches",
        PatternHint::PairExchange,
        2,
        src,
    )
}

/// Returns the full corpus, in a stable order.
#[must_use]
pub fn all() -> Vec<CorpusProgram> {
    vec![
        fig2_exchange(),
        exchange_with_root(),
        fanout_broadcast(),
        gather_to_root(),
        mdcask_full(),
        nas_cg_transpose_square(GridDims::Symbolic),
        nas_cg_transpose_rect(GridDims::Symbolic),
        nearest_neighbor_shift(),
        left_shift(),
        stencil_2d_vertical(GridDims::Symbolic),
        ring_conditional(),
        ring_uniform(),
        pairwise_exchange(),
        deadlock_pair(),
        message_leak(),
        const_relay(),
        scatter_indexed(),
        tree_broadcast(),
        pipeline_double(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_corpus_programs_parse() {
        let programs = all();
        assert!(programs.len() >= 15);
        for p in &programs {
            assert!(!p.program.is_empty(), "{} is empty", p.name);
            assert!(!p.description.is_empty());
        }
    }

    #[test]
    fn corpus_names_are_unique() {
        let programs = all();
        let mut names: Vec<_> = programs.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), programs.len());
    }

    #[test]
    fn concrete_grid_programs_parse() {
        for rect in [false, true] {
            let dims = GridDims::Concrete {
                nrows: 2,
                ncols: if rect { 4 } else { 2 },
            };
            let p = if rect {
                nas_cg_transpose_rect(dims)
            } else {
                nas_cg_transpose_square(dims)
            };
            assert!(p.source.contains("nrows := 2;"));
        }
        let p = stencil_2d_vertical(GridDims::Concrete { nrows: 3, ncols: 3 });
        assert!(p.source.contains("ncols := 3;"));
    }

    #[test]
    fn rect_transpose_partner_map_is_involution() {
        // Sanity-check the expression we substituted for the paper's
        // garbled rectangular formula, for several grid sizes.
        for nrows in 1..=6i64 {
            let np = 2 * nrows * nrows;
            for rank in 0..np {
                let f = |p: i64| 2 * nrows * ((p / 2) % nrows) + 2 * (p / (2 * nrows)) + p % 2;
                let partner = f(rank);
                assert!((0..np).contains(&partner));
                assert_eq!(
                    f(partner),
                    rank,
                    "not an involution at rank {rank}, nrows {nrows}"
                );
            }
        }
    }

    #[test]
    fn square_transpose_partner_map_is_involution() {
        for nrows in 1..=8i64 {
            let np = nrows * nrows;
            for rank in 0..np {
                let f = |p: i64| (p % nrows) * nrows + p / nrows;
                assert_eq!(f(f(rank)), rank);
            }
        }
    }

    #[test]
    fn display_of_corpus_round_trips() {
        for p in all() {
            let printed = p.program.to_string();
            let reparsed =
                crate::parse_program(&printed).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            // Spans differ between the two sources; compare printed forms.
            assert_eq!(printed, reparsed.to_string(), "{}", p.name);
        }
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn tree_broadcast_and_pipeline_parse() {
        assert!(tree_broadcast().program.len() > 5);
        assert!(pipeline_double().program.len() > 5);
        assert!(exchange_with_root_wide(10).source.matches(":=").count() >= 11);
        let live = exchange_with_root_wide_live(3);
        assert!(live.source.ends_with("print w0 + w1 + w2;\n"));
        assert!(live.source.starts_with(&exchange_with_root_wide(3).source));
    }
}
