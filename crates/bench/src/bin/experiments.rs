//! Prints the paper's demonstration experiments (§4) as text tables.
//!
//! ```text
//! cargo run --release -p wmx-bench --bin experiments -- --smoke   # default
//! cargo run --release -p wmx-bench --bin experiments -- --full
//! ```
//!
//! Every row comes from [`wmx_bench::experiments::run`], the same
//! scenario functions whose rows the `gate` binary pins, at the gate's
//! suite parameters: a printed row is a pinned row.
//!
//! Experiment ids:
//!   e1  capacity & imperceptibility (demo part 1)
//!   e2  alteration attack (demo attack A)
//!   e3  reduction attack (demo attack B)
//!   e4  re-organization attack (demo attack C, Fig. 1/2)
//!   e5  redundancy removal (demo attack D, challenge C)
//!   e6  false positives / key security
//!   e8  structure units vs value units (fragility to reordering)
//!   e10 rounding attack (documented robustness limit of parity marks)

use wmx_bench::experiments::{run, Rows};
use wmx_bench::gate::THRESHOLD;
use wmx_bench::table::{pct, yn, Table};
use wmx_bench::SuiteParams;

fn main() {
    let mut params = SuiteParams::smoke();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => params = SuiteParams::smoke(),
            "--full" => params = SuiteParams::full(),
            other => {
                eprintln!("unknown argument {other:?} (use --smoke or --full)");
                std::process::exit(1);
            }
        }
    }
    println!(
        "WmXML experiments: {:?} suite, {} records, γ = {}, τ = {THRESHOLD}",
        params.workload, params.records, params.gamma
    );
    for experiment in run(&params, &params.marked_workload()) {
        println!(
            "\n[{}] {}\n",
            experiment.id.to_uppercase(),
            experiment.claim
        );
        let table = match &experiment.rows {
            Rows::Robustness(rows) => {
                let mut t = Table::new(&["point", "detected", "match %", "votes 1/0"]);
                for r in rows {
                    t.row(vec![
                        r.name.clone(),
                        yn(r.detected),
                        pct(r.match_fraction),
                        format!("{}/{}", r.votes_ones, r.votes_zeros),
                    ]);
                }
                t
            }
            Rows::Claims(rows) => {
                let mut t = Table::new(&["point", "metric", "value"]);
                for r in rows {
                    for (metric, value) in &r.values {
                        t.row(vec![r.name.clone(), metric.clone(), format!("{value:.3}")]);
                    }
                }
                t
            }
        };
        table.print();
    }
}
