//! `pathlint` — workspace-wide determinism & concurrency static
//! analysis for the Pathways reproduction.
//!
//! The simulator's whole experimental story rests on bit-identical
//! replay (golden traces, the chaos harness, every figure); the rules
//! here (see [`rules`]) encode that contract as machine-checked
//! invariants so a stray `std::collections::HashMap` or a lock held
//! across an `.await` fails CI instead of silently skewing a future
//! figure. Self-contained by design: no `syn`, no registry deps — the
//! lexer ([`lexer`]) and brace/scope tracker ([`scope`]) are
//! hand-rolled (see `shims/README.md` for why).
//!
//! Inline suppressions: `// pathlint: allow(<rule>[, <rule>…])` on the
//! offending line, or on a line by itself directly above it. The
//! panic-path rule additionally honors the checked-in allowlist
//! `crates/lint/panic_allowlist.txt` (one `file.rs::fn_name` per
//! line); stale entries fail the run so the list only shrinks.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use report::{RunReport, Status};
pub use rules::{FileCtx, FileKind};

/// One resolved violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
    pub status: Status,
    /// `file.rs::fn` key ([`rules::PANIC_PATH`] only).
    pub allow_key: Option<String>,
}

/// The checked-in panic allowlist.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    entries: BTreeSet<String>,
}

impl Allowlist {
    /// Parses the allowlist format: one `path.rs::fn_name` per line,
    /// `#` comments and blank lines ignored.
    pub fn parse(text: &str) -> Allowlist {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect();
        Allowlist { entries }
    }

    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains(key)
    }

    pub fn entries(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(String::as_str)
    }
}

/// Outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileResult {
    pub violations: Vec<Violation>,
    /// Allowlist keys that matched a violation (for staleness checks).
    pub used_allow_keys: BTreeSet<String>,
}

/// Lints one file's source text. Pure — no filesystem access — so the
/// fixture suite can drive it with synthetic [`FileCtx`]s.
pub fn lint_source(ctx: &FileCtx, src: &str, allowlist: &Allowlist) -> FileResult {
    let lexed = lexer::lex(src);
    let scopes = scope::build(&lexed.tokens);
    let raw = rules::check(ctx, &lexed, &scopes);
    let suppressions = collect_suppressions(&lexed.comments);

    let mut out = FileResult::default();
    for v in raw {
        let suppressed = suppressions
            .get(&v.line)
            .is_some_and(|rules| rules.contains(v.rule));
        let allowlisted = v
            .allow_key
            .as_deref()
            .is_some_and(|k| allowlist.contains(k));
        let status = if suppressed {
            Status::Suppressed
        } else if allowlisted {
            Status::Allowlisted
        } else {
            Status::Error
        };
        if status == Status::Allowlisted {
            if let Some(k) = &v.allow_key {
                out.used_allow_keys.insert(k.clone());
            }
        }
        out.violations.push(Violation {
            rule: v.rule,
            path: ctx.rel_path.to_string(),
            line: v.line,
            message: v.message,
            status,
            allow_key: v.allow_key,
        });
    }
    out
}

/// Maps source lines to the rule names suppressed on them. A comment's
/// suppression covers the comment's own line(s) and the line right
/// after it, so both styles work:
///
/// ```text
/// foo.unwrap(); // pathlint: allow(panic-path)
/// // pathlint: allow(panic-path) — justification here
/// foo.unwrap();
/// ```
fn collect_suppressions(comments: &[lexer::Comment]) -> BTreeMap<u32, BTreeSet<&'static str>> {
    let mut map: BTreeMap<u32, BTreeSet<&'static str>> = BTreeMap::new();
    for c in comments {
        for rule in parse_allow(&c.text) {
            for line in c.line..=c.end_line + 1 {
                map.entry(line).or_default().insert(rule);
            }
        }
    }
    map
}

/// Extracts rule names from `… pathlint: allow(a, b) …`. Unknown rule
/// names are ignored (they can never suppress anything).
fn parse_allow(comment: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    let Some(at) = comment.find("pathlint:") else {
        return out;
    };
    let rest = comment[at + "pathlint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return out;
    };
    let Some(end) = rest.find(')') else {
        return out;
    };
    for name in rest[..end].split(',') {
        let name = name.trim();
        if let Some(rule) = rules::ALL_RULES.iter().find(|r| **r == name) {
            out.push(*rule);
        }
    }
    out
}

// ------------------------------------------------------------ workspace

/// Directories under the workspace root that are never linted: shims
/// stand in for third-party crates (their internals are not our
/// contract), fixtures are deliberately-bad snippets, target is build
/// output.
const SKIP_DIRS: [&str; 3] = ["shims", "target", "crates/lint/tests/fixtures"];

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Enumerates every `.rs` file to lint, as workspace-relative
/// `/`-separated paths, in sorted (deterministic) order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let rel = rel_path(root, &path);
        if SKIP_DIRS
            .iter()
            .any(|s| rel == *s || rel.starts_with(&format!("{s}/")))
        {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Builds the [`FileCtx`] for a workspace-relative path.
pub fn classify(rel_path: &str) -> FileCtx<'_> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, rest) = if parts.first() == Some(&"crates") && parts.len() > 2 {
        (parts[1], &parts[2..])
    } else {
        ("pathways", &parts[..])
    };
    let kind = match rest.first() {
        Some(&"tests") => FileKind::Tests,
        Some(&"examples") => FileKind::Examples,
        _ => FileKind::Src,
    };
    FileCtx {
        rel_path,
        crate_name,
        kind,
    }
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path, allowlist: &Allowlist) -> std::io::Result<RunReport> {
    let mut report = RunReport::default();
    let mut used_keys: BTreeSet<String> = BTreeSet::new();
    for rel in workspace_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let ctx = classify(&rel);
        let mut result = lint_source(&ctx, &src, allowlist);
        report.files_scanned += 1;
        report.violations.append(&mut result.violations);
        used_keys.extend(result.used_allow_keys);
    }
    for entry in allowlist.entries() {
        if !used_keys.contains(entry) {
            report.stale_allowlist.push(entry.to_string());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_allow_extracts_known_rules() {
        assert_eq!(
            parse_allow(" pathlint: allow(panic-path, wall-clock) why: measured"),
            vec![rules::PANIC_PATH, rules::WALL_CLOCK]
        );
        assert!(parse_allow("pathlint: allow(not-a-rule)").is_empty());
        assert!(parse_allow("nothing to see").is_empty());
    }

    #[test]
    fn classify_maps_paths() {
        let c = classify("crates/core/src/store.rs");
        assert_eq!(c.crate_name, "core");
        assert_eq!(c.kind, FileKind::Src);
        let t = classify("crates/net/tests/prop_net.rs");
        assert_eq!(t.kind, FileKind::Tests);
        let root = classify("examples/quickstart.rs");
        assert_eq!(root.crate_name, "pathways");
        assert_eq!(root.kind, FileKind::Examples);
        let bin = classify("crates/bench/src/figures/fig5.rs");
        assert_eq!(bin.crate_name, "bench");
        assert_eq!(bin.kind, FileKind::Src);
    }

    #[test]
    fn allowlist_round_trip() {
        let a = Allowlist::parse("# comment\n\ncrates/core/src/x.rs::f\n");
        assert!(a.contains("crates/core/src/x.rs::f"));
        assert!(!a.contains("other"));
    }
}
