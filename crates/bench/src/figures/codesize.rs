//! `codesize`: non-test source lines per workspace crate, counted from
//! the checked-out tree — the trend ROADMAP's line budget is read
//! from. Recorded in `BENCH_codesize.json` next to the perf reports;
//! never gated.

use std::path::Path;

use super::Figure;
use crate::perf::{repo_root, BenchReport, ClusterShape};
use crate::table::Table;

pub(super) const FIGURE: Figure = Figure {
    name: "codesize",
    about: "Code size: non-test `src/` lines per workspace crate (recorded, not gated)",
    full: |_| drop(run()),
    report: run,
};

/// Lines of `file` before its `#[cfg(test)]` module (by convention the
/// last item of a file), comments and blanks included.
fn non_test_lines(file: &Path) -> u64 {
    let text = std::fs::read_to_string(file).unwrap_or_default();
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .count() as u64
}

/// Non-test lines of every `.rs` file under `dir`, recursively.
fn src_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .map(|p| {
            if p.is_dir() {
                src_lines(&p)
            } else if p.extension().is_some_and(|ext| ext == "rs") {
                non_test_lines(&p)
            } else {
                0
            }
        })
        .sum()
}

/// `(crate, lines)` for the facade package and every package under
/// `crates/` and `shims/`, sorted by name.
fn crates() -> Vec<(String, u64)> {
    let root = repo_root();
    let mut out = vec![("pathways".to_string(), src_lines(&root.join("src")))];
    for group in ["crates", "shims"] {
        let Ok(entries) = std::fs::read_dir(root.join(group)) else {
            continue;
        };
        for dir in entries.filter_map(Result::ok).map(|e| e.path()) {
            if dir.join("src").is_dir() {
                let name = dir.file_name().expect("read_dir yields named entries");
                out.push((
                    format!("{group}/{}", name.to_string_lossy()),
                    src_lines(&dir.join("src")),
                ));
            }
        }
    }
    out.sort();
    out
}

fn run() -> BenchReport {
    let mut report = BenchReport::new(ClusterShape::new(0, 0, 0));
    println!("codesize: non-test src lines per workspace crate\n");
    let mut t = Table::new(&["crate", "src lines"]);
    let mut total = 0;
    for (name, lines) in crates() {
        t.row(vec![name.clone(), lines.to_string()]);
        report = report.metric(format!("src_lines_{name}"), lines as f64);
        total += lines;
    }
    t.row(vec!["total".into(), total.to_string()]);
    println!("{}", t.render());
    report.metric("src_lines_total", total as f64).claim(
        "the source tree was found",
        total > 0,
        format!("{total} lines"),
    )
}
