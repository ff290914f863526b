//! The source nesting cap (`mpl_lang::parser::MAX_DEPTH`) bounds every
//! recursive walk of a program: the deepest source the parser accepts,
//! in each nesting shape, parses, builds its CFG, analyzes under both
//! clients, prints and drops on a 2 MiB thread — the smallest stack a
//! request runs on — even unoptimized. The parser's own tests pin that
//! one level more is a parse error at the token that opens it.

use mpl_cfg::Cfg;
use mpl_core::{analyze_cfg, AnalysisConfig, Client, StaticTopology};
use mpl_lang::parse_program;
use mpl_lang::parser::MAX_DEPTH;

/// The deepest source of each shape at `n` levels.
fn shapes(n: usize) -> Vec<(&'static str, String)> {
    vec![
        (
            "parentheses",
            format!("x := {}1{};\nprint x;\n", "(".repeat(n), ")".repeat(n)),
        ),
        (
            "right-nested sums",
            format!(
                "x := {}1{};\nprint x;\n",
                "(1 + ".repeat(n / 2),
                ")".repeat(n / 2)
            ),
        ),
        (
            "chained sums",
            format!("x := 1{};\nprint x;\n", " + 1".repeat(n)),
        ),
        ("negations", format!("x := {}y;\nprint x;\n", "-".repeat(n))),
        (
            "nots",
            format!("if {}true then x := 1; end\n", "not ".repeat(n)),
        ),
        (
            "ifs",
            format!(
                "{}x := 1;\nprint x;\n{}",
                "if id = 0 then\n".repeat(n),
                "end\n".repeat(n)
            ),
        ),
        (
            "loops",
            format!(
                "{}x := 1;\n{}",
                "for i = 1 to 2 do\n".repeat(n),
                "end\n".repeat(n)
            ),
        ),
    ]
}

#[test]
fn deepest_accepted_sources_run_end_to_end_on_a_2_mib_stack() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for (shape, source) in shapes(MAX_DEPTH) {
                let program =
                    parse_program(&source).unwrap_or_else(|e| panic!("{shape} at the cap: {e}"));
                let printed = program.to_string();
                assert!(!printed.is_empty(), "{shape}");
                let cfg = Cfg::build(&program);
                for client in [Client::Simple, Client::Cartesian] {
                    let config = AnalysisConfig::builder().client(client).build().unwrap();
                    let result = analyze_cfg(&cfg, &config);
                    let rendered = format!(
                        "{:?} {}",
                        result.verdict,
                        StaticTopology::from_result(&result)
                    );
                    assert!(!rendered.is_empty(), "{shape}");
                }
                drop((cfg, printed, program));
            }
        })
        .expect("spawn")
        .join()
        .expect("the deepest accepted sources fit a 2 MiB stack");
}
