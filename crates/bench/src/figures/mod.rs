//! The figure registry: every table, figure and ablation the `bench`
//! binary can regenerate, one [`Figure`] each.
//!
//! A figure states its parameters once. Its `full` run prints the
//! paper-style tables; its `report` pass returns the headline metrics
//! and a verdict per claim for `bench all`, the perf gate and the
//! registry-driven claims test. Both are one function — the report
//! pass prints the tables as it measures — unless the full-size run
//! takes ~2 s or more (`fig5`, `fig6`, `fig8`, `fig10`, `table2`, and
//! the largest sweep points of `fig_scale` and `ablation_sched`), in
//! which case `report` silently measures a reduced configuration.

use crate::perf::BenchReport;

mod ablation_sched;
mod ablation_store;
mod codesize;
mod fig10;
mod fig12;
mod fig14;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod fig_dispatch;
mod fig_heal;
mod fig_scale;
mod fig_tier;
mod table1;
mod table2;

/// One reproducible artefact.
#[derive(Debug)]
pub struct Figure {
    /// Command-line name (`bench <name>`) and `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// What it reproduces, and any positional arguments `full` takes.
    pub about: &'static str,
    /// Full-size run: prints the tables to stdout.
    pub full: fn(&[String]),
    /// Report pass: cluster shape, headline metrics, claim verdicts.
    pub report: fn() -> BenchReport,
}

/// Every figure, in the paper's order, then this reproduction's own.
pub const FIGURES: &[Figure] = &[
    fig5::FIGURE,
    fig6::FIGURE,
    fig7::FIGURE,
    fig8::FIGURE,
    fig9::FIGURE,
    table1::FIGURE,
    table2::FIGURE,
    fig10::FIGURE,
    fig12::FIGURE,
    fig14::FIGURE,
    fig_heal::FIGURE,
    fig_scale::FIGURE,
    fig_dispatch::FIGURE,
    fig_tier::FIGURE,
    ablation_sched::FIGURE,
    ablation_store::FIGURE,
    codesize::FIGURE,
];

/// The `bench list` table (also the README's), one row per figure.
pub fn command_table() -> String {
    let mut out = String::from("| Command | Reproduces |\n|---|---|\n");
    for f in FIGURES {
        out.push_str(&format!("| `bench {}` | {} |\n", f.name, f.about));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|g| g.name != f.name),
                "duplicate figure name {}",
                f.name
            );
        }
    }

    /// `perf/baselines/` holds exactly one blessed report per figure.
    #[test]
    fn baselines_match_the_registry() {
        let dir = crate::perf::repo_root().join("perf/baselines");
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .expect("perf/baselines exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        on_disk.sort();
        let mut expected: Vec<String> = FIGURES
            .iter()
            .map(|f| format!("BENCH_{}.json", f.name))
            .collect();
        expected.sort();
        assert_eq!(on_disk, expected, "re-bless with `bench gate --bless`");
    }

    /// The README's command table is `bench list`'s output.
    #[test]
    fn readme_lists_every_figure() {
        let readme = std::fs::read_to_string(crate::perf::repo_root().join("README.md")).unwrap();
        assert!(
            readme.contains(&command_table()),
            "README.md is out of date: paste the output of `bench list`"
        );
    }
}
