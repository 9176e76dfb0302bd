//! The pathlint rules.
//!
//! Each rule encodes one clause of the repo's determinism/concurrency
//! contract (see README.md "Static analysis & invariants"):
//!
//! - [`NONDET_CONTAINER`][]: `std::collections::{HashMap,HashSet}` are
//!   banned in sim-visible crates — their `RandomState` hasher makes
//!   iteration order differ per process, which is exactly the kind of
//!   nondeterminism that silently breaks bit-identical replay. Use
//!   `pathways_sim::hash::{FxHashMap,FxHashSet}`. A usage that
//!   explicitly names a deterministic hasher (`BuildHasherDefault` /
//!   `FxHasher` in its generic arguments) is exempt — that is how the
//!   alias itself is defined.
//! - [`WALL_CLOCK`][]: `std::time::{Instant,SystemTime}`,
//!   `std::thread::sleep` and `thread_rng` are banned everywhere
//!   except the bench crate's wall-time measurement module — simulated
//!   time comes from the virtual-time executor, randomness from seeded
//!   RNGs.
//! - [`LOCK_ACROSS_AWAIT`][]: a `parking_lot`-style guard (`.lock()` /
//!   `.read()` / `.write()` / `.upgradable_read()`) whose scope
//!   encloses an `.await` — the classic deadlock/latency hazard for
//!   the work-stealing executor on the roadmap (guards are not `Send`,
//!   and even on a single thread a held lock across a suspension point
//!   inverts the lock order the resumed task expects).
//! - [`PANIC_PATH`][]: `unwrap` / `expect` / `panic!` in non-test code
//!   of the runtime crates, audited against the checked-in allowlist
//!   (`crates/lint/panic_allowlist.txt`).
//! - [`RAW_THREAD`][]: `thread::spawn` / `thread::Builder` and
//!   `std::sync::{Mutex,RwLock,Condvar}` anywhere outside the sim
//!   crate's executor module — every OS thread and blocking primitive
//!   must flow through the `Executor` trait so the deterministic
//!   backend stays the single source of scheduling truth (and so the
//!   threaded backend's watchdog sees every task).
//!
//! All rules are lexical (token-sequence) analyses: no type
//! resolution, no macro expansion. That trades a small class of
//! false negatives (e.g. `use std::collections as c; c::HashMap`) for
//! zero build-time dependencies; the fixture suite pins what each rule
//! does and does not catch.

use crate::lexer::{Lexed, Token, TokenKind};
use crate::scope::ScopeMap;

/// Rule ids (also the names used in `// pathlint: allow(<rule>)`).
pub const NONDET_CONTAINER: &str = "nondet-container";
pub const WALL_CLOCK: &str = "wall-clock";
pub const LOCK_ACROSS_AWAIT: &str = "lock-across-await";
pub const PANIC_PATH: &str = "panic-path";
pub const RAW_THREAD: &str = "raw-thread";

/// Every rule id, for suppression validation.
pub const ALL_RULES: [&str; 5] = [
    NONDET_CONTAINER,
    WALL_CLOCK,
    LOCK_ACROSS_AWAIT,
    PANIC_PATH,
    RAW_THREAD,
];

/// Crates whose state is visible to the simulator: nondeterministic
/// containers there can leak into traces, schedules and figures.
pub const SIM_VISIBLE_CRATES: [&str; 6] = ["sim", "net", "device", "plaque", "core", "models"];

/// Crates whose non-test panic paths are audited (same set: these are
/// the crates a production controller actually runs).
pub const PANIC_AUDIT_CRATES: [&str; 6] = SIM_VISIBLE_CRATES;

/// Files exempt from [`WALL_CLOCK`]: the bench crate's wall-time
/// measurement modules are the one place wall-clock readings are the
/// point (sim-time/wall-time ratio and dispatch-throughput reporting),
/// and the threaded executor backend drives real monotonic timers.
pub const WALL_CLOCK_EXEMPT: [&str; 3] = [
    "crates/bench/src/scale.rs",
    "crates/bench/src/dispatch.rs",
    "crates/sim/src/exec/threaded.rs",
];

/// Path prefix exempt from [`RAW_THREAD`]: the executor module is the
/// one place OS threads and blocking primitives are allowed — that is
/// where they are wrapped behind the `Executor` trait.
pub const RAW_THREAD_EXEMPT_PREFIX: &str = "crates/sim/src/exec/";

/// Where a file sits within its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` (including its subdirectories).
    Src,
    /// `tests/` integration tests.
    Tests,
    /// `examples/`.
    Examples,
}

/// Per-file context the rules dispatch on.
#[derive(Debug, Clone)]
pub struct FileCtx<'a> {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: &'a str,
    /// Short crate name (`core`, `sim`, … or `pathways` for the root).
    pub crate_name: &'a str,
    pub kind: FileKind,
}

/// A rule hit before suppression/allowlist resolution.
#[derive(Debug, Clone)]
pub struct RawViolation {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
    /// `file::fn` allowlist key ([`PANIC_PATH`] only).
    pub allow_key: Option<String>,
}

/// Runs every applicable rule over one lexed file.
pub fn check(ctx: &FileCtx, lexed: &Lexed, scopes: &ScopeMap) -> Vec<RawViolation> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;
    if SIM_VISIBLE_CRATES.contains(&ctx.crate_name) {
        nondet_container(toks, &mut out);
    }
    if !WALL_CLOCK_EXEMPT.contains(&ctx.rel_path) {
        wall_clock(toks, &mut out);
    }
    lock_across_await(toks, scopes, &mut out);
    if ctx.kind == FileKind::Src && PANIC_AUDIT_CRATES.contains(&ctx.crate_name) {
        panic_path(ctx, toks, scopes, &mut out);
    }
    if !ctx.rel_path.starts_with(RAW_THREAD_EXEMPT_PREFIX) {
        raw_thread(toks, scopes, &mut out);
    }
    out
}

fn violation(out: &mut Vec<RawViolation>, rule: &'static str, line: u32, message: String) {
    out.push(RawViolation {
        rule,
        line,
        message,
        allow_key: None,
    });
}

/// Matches `a::b` path segments: is `toks[i]` the ident `seg` followed
/// by `::`?
fn seg(toks: &[Token], i: usize, name: &str) -> bool {
    toks.get(i).is_some_and(|t| t.is_ident(name))
        && toks
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::PathSep)
}

// ---------------------------------------------------------------- rule 1

fn nondet_container(toks: &[Token], out: &mut Vec<RawViolation>) {
    let mut i = 0;
    while i < toks.len() {
        // `std :: collections ::` …
        if seg(toks, i, "std") && seg(toks, i + 2, "collections") {
            let after = i + 4;
            match toks.get(after) {
                Some(t)
                    if t.kind == TokenKind::Ident
                        && is_banned_container(&t.text)
                        && !names_deterministic_hasher(toks, after + 1) =>
                {
                    violation(
                        out,
                        NONDET_CONTAINER,
                        t.line,
                        format!(
                            "std::collections::{} is nondeterministic (RandomState); \
                             use pathways_sim::hash::Fx{}",
                            t.text, t.text
                        ),
                    );
                }
                // `use std::collections::{BTreeMap, HashMap, …};`
                Some(t) if t.is_punct('{') => {
                    let mut j = after + 1;
                    let mut level = 1usize;
                    while j < toks.len() && level > 0 {
                        match &toks[j].kind {
                            TokenKind::Punct('{') => level += 1,
                            TokenKind::Punct('}') => level -= 1,
                            TokenKind::Ident if is_banned_container(&toks[j].text) => {
                                violation(
                                    out,
                                    NONDET_CONTAINER,
                                    toks[j].line,
                                    format!(
                                        "std::collections::{} is nondeterministic (RandomState); \
                                         use pathways_sim::hash::Fx{}",
                                        toks[j].text, toks[j].text
                                    ),
                                );
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
}

fn is_banned_container(name: &str) -> bool {
    name == "HashMap" || name == "HashSet"
}

/// Does the generic-argument list starting at `toks[i]` (if any) name a
/// deterministic hasher? Handles nested generics (`Vec<Vec<u8>>` emits
/// two `>` tokens) and skips `->` arrows inside `Fn(..) -> T` args.
fn names_deterministic_hasher(toks: &[Token], i: usize) -> bool {
    if !toks.get(i).is_some_and(|t| t.is_punct('<')) {
        return false;
    }
    let mut level = 0i32;
    let mut j = i;
    // Bounded scan: a type argument list longer than this is lex
    // confusion (e.g. a stray `<` comparison), not a real generic.
    let limit = j + 256;
    while j < toks.len() && j < limit {
        match &toks[j].kind {
            TokenKind::Punct('<') => level += 1,
            TokenKind::Punct('>') => {
                // `->` return-type arrow inside Fn(...) sugar.
                if j > 0 && toks[j - 1].is_punct('-') {
                    j += 1;
                    continue;
                }
                level -= 1;
                if level == 0 {
                    return false;
                }
            }
            TokenKind::Ident
                if toks[j].text == "BuildHasherDefault" || toks[j].text == "FxHasher" =>
            {
                return true;
            }
            _ => {}
        }
        j += 1;
    }
    false
}

// ---------------------------------------------------------------- rule 2

fn wall_clock(toks: &[Token], out: &mut Vec<RawViolation>) {
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if seg(toks, i, "std") && seg(toks, i + 2, "time") {
            flag_time_names(toks, i + 4, out);
        }
        if seg(toks, i, "thread") && toks.get(i + 2).is_some_and(|t| t.is_ident("sleep")) {
            // Covers both `std::thread::sleep` and `thread::sleep`;
            // skip when `thread` is itself mid-path *after* a non-std
            // prefix (`tokio::thread::…` — not a std sleep).
            let prev_sep = i >= 1 && toks[i - 1].kind == TokenKind::PathSep;
            let std_prefix = i >= 2 && prev_sep && toks[i - 2].is_ident("std");
            if !prev_sep || std_prefix {
                violation(
                    out,
                    WALL_CLOCK,
                    toks[i + 2].line,
                    "thread::sleep blocks on the OS clock; use the virtual-time executor's timers"
                        .into(),
                );
            }
        }
        if t.is_ident("thread_rng") {
            violation(
                out,
                WALL_CLOCK,
                t.line,
                "thread_rng is OS-entropy-seeded; use a seeded Rng so runs replay".into(),
            );
        }
        i += 1;
    }
}

/// Flags `Instant` / `SystemTime` at `toks[i]`, or inside a
/// `{…}` use-group starting there.
fn flag_time_names(toks: &[Token], i: usize, out: &mut Vec<RawViolation>) {
    let flag = |t: &Token, out: &mut Vec<RawViolation>| {
        violation(
            out,
            WALL_CLOCK,
            t.line,
            format!(
                "std::time::{} reads the wall clock; sim time comes from the virtual-time \
                 executor (bench's wall-time module is the one exemption)",
                t.text
            ),
        );
    };
    match toks.get(i) {
        Some(t) if t.is_ident("Instant") || t.is_ident("SystemTime") => flag(t, out),
        Some(t) if t.is_punct('{') => {
            let mut j = i + 1;
            let mut level = 1usize;
            while j < toks.len() && level > 0 {
                match &toks[j].kind {
                    TokenKind::Punct('{') => level += 1,
                    TokenKind::Punct('}') => level -= 1,
                    TokenKind::Ident
                        if toks[j].text == "Instant" || toks[j].text == "SystemTime" =>
                    {
                        flag(&toks[j], out)
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------- rule 3

/// Guard-acquiring method names. `.read()`/`.write()` can also be
/// `io::Read`/`io::Write` calls — a deliberate over-approximation;
/// false positives take an inline `// pathlint: allow(..)` with a
/// justification, which is exactly the review marker we want near
/// anything lock-shaped next to an `.await`.
const GUARD_METHODS: [&str; 4] = ["lock", "read", "write", "upgradable_read"];

#[derive(Debug)]
struct Guard {
    name: Option<String>,
    depth: u32,
    line: u32,
    method: String,
}

fn lock_across_await(toks: &[Token], scopes: &ScopeMap, out: &mut Vec<RawViolation>) {
    let mut guards: Vec<Guard> = Vec::new();
    // Statement-local state: the last guard-acquiring call seen in the
    // current statement — `(line, method, index of its closing paren)`.
    let mut stmt_lock: Option<(u32, String, usize)> = None;
    // Pending `let` binding name, plus whether its initializer starts
    // with a deref (`let v = *m.lock();` binds a copied value — the
    // temporary guard dies at the `;`, so it is not a held guard).
    let mut stmt_let: Option<Option<String>> = None;
    let mut stmt_eq_seen = false;
    let mut stmt_deref = false;

    let mut i = 0;
    while i < toks.len() {
        let depth = scopes.depth[i];
        // Scope exit kills guards bound deeper than where we are now.
        guards.retain(|g| g.depth <= depth);

        let t = &toks[i];
        match &t.kind {
            TokenKind::Ident if t.text == "let" => {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                let name = toks
                    .get(j)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone());
                stmt_let = Some(name);
                stmt_eq_seen = false;
                stmt_deref = false;
            }
            TokenKind::Punct('=') if stmt_let.is_some() && !stmt_eq_seen => {
                stmt_eq_seen = true;
                stmt_deref = toks.get(i + 1).is_some_and(|n| n.is_punct('*'));
            }
            // `drop(guard)` releases it early.
            TokenKind::Ident
                if t.text == "drop"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokenKind::Ident) {
                    guards.retain(|g| g.name.as_deref() != Some(name.text.as_str()));
                }
            }
            TokenKind::Ident if t.text == "await" && i >= 1 && toks[i - 1].is_punct('.') => {
                for g in &guards {
                    violation(
                        out,
                        LOCK_ACROSS_AWAIT,
                        t.line,
                        format!(
                            "`.await` while `{}` (acquired via .{}() on line {}) is held — a \
                             suspended task holding a lock deadlocks the executor; release the \
                             guard (drop or end its scope) before awaiting",
                            g.name.as_deref().unwrap_or("<guard>"),
                            g.method,
                            g.line
                        ),
                    );
                }
                if let Some((line, method, _)) = &stmt_lock {
                    violation(
                        out,
                        LOCK_ACROSS_AWAIT,
                        t.line,
                        format!(
                            "`.await` in the same statement as .{method}() (line {line}) — the \
                             temporary guard lives to the end of the statement, across the \
                             suspension point"
                        ),
                    );
                }
            }
            TokenKind::Ident
                if GUARD_METHODS.contains(&t.text.as_str())
                    && i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                // Find the call's closing paren (usually `i + 2`).
                let mut level = 0usize;
                let mut j = i + 1;
                while j < toks.len() {
                    match &toks[j].kind {
                        TokenKind::Punct('(') => level += 1,
                        TokenKind::Punct(')') => {
                            level -= 1;
                            if level == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                stmt_lock = Some((t.line, t.text.clone(), j));
            }
            // A block boundary ends any statement: tail expressions
            // carry no `;`, so their temporaries (and pending `let`s)
            // die here. (A closure body inside the same statement also
            // clears this — an accepted lexical false negative.)
            TokenKind::Punct('}') => {
                stmt_lock = None;
                stmt_let = None;
            }
            TokenKind::Punct(';') => {
                if let Some((line, method, close_idx)) = stmt_lock.take() {
                    // A `let` binds the guard itself only when the lock
                    // call is the statement's final expression and not
                    // behind a deref; `m.lock().len()` / `*m.lock()`
                    // bind values and the temporary dies right here.
                    let lock_is_final = close_idx + 1 == i;
                    if let Some(name) = stmt_let.take() {
                        if lock_is_final && !stmt_deref {
                            // Re-binding a name sheds the old guard.
                            if let Some(n) = &name {
                                guards.retain(|g| g.name.as_deref() != Some(n.as_str()));
                            }
                            guards.push(Guard {
                                name,
                                depth,
                                line,
                                method,
                            });
                        }
                    }
                    // A non-`let` temporary dies here.
                }
                stmt_let = None;
            }
            _ => {}
        }
        i += 1;
    }
}

// ---------------------------------------------------------------- rule 4

fn panic_path(ctx: &FileCtx, toks: &[Token], scopes: &ScopeMap, out: &mut Vec<RawViolation>) {
    let mut i = 0;
    while i < toks.len() {
        if scopes.in_test[i] {
            i += 1;
            continue;
        }
        let t = &toks[i];
        let hit = match &t.kind {
            TokenKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            }
            TokenKind::Ident if t.text == "panic" => {
                toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            }
            _ => false,
        };
        if hit {
            let func = scopes.enclosing_fn[i]
                .clone()
                .unwrap_or_else(|| "<item>".into());
            let key = format!("{}::{}", ctx.rel_path, func);
            out.push(RawViolation {
                rule: PANIC_PATH,
                line: t.line,
                message: format!(
                    "`{}` in non-test runtime code (fn `{}`): return a typed error, or — if \
                     genuinely unreachable — add `{}` to crates/lint/panic_allowlist.txt",
                    if t.text == "panic" {
                        "panic!"
                    } else {
                        t.text.as_str()
                    },
                    func,
                    key
                ),
                allow_key: Some(key),
            });
        }
        i += 1;
    }
}

// ---------------------------------------------------------------- rule 5

/// `std::sync` types whose blocking semantics bypass the executor.
/// (`Arc`, atomics, `OnceLock`, `mpsc` stay legal — they don't block a
/// worker or spawn threads.)
const RAW_SYNC_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// Flags OS-thread spawns and blocking `std::sync` primitives outside
/// the executor module. Test code (`#[cfg(test)]` mods, `#[test]` fns)
/// is skipped: stress tests may legitimately race real threads against
/// the runtime.
fn raw_thread(toks: &[Token], scopes: &ScopeMap, out: &mut Vec<RawViolation>) {
    let mut i = 0;
    while i < toks.len() {
        if scopes.in_test[i] {
            i += 1;
            continue;
        }
        // `std :: sync :: Mutex` (or `{…}` use-group containing one).
        if seg(toks, i, "std") && seg(toks, i + 2, "sync") {
            flag_sync_names(toks, i + 4, out);
        }
        // `thread :: spawn` / `thread :: Builder`, with the same
        // std-prefix logic as the wall-clock sleep check: bare `thread`
        // or `std::thread`, but not `other_crate::thread::spawn`.
        if seg(toks, i, "thread") {
            if let Some(t) = toks
                .get(i + 2)
                .filter(|t| t.is_ident("spawn") || t.is_ident("Builder"))
            {
                let prev_sep = i >= 1 && toks[i - 1].kind == TokenKind::PathSep;
                let std_prefix = i >= 2 && prev_sep && toks[i - 2].is_ident("std");
                if !prev_sep || std_prefix {
                    violation(
                        out,
                        RAW_THREAD,
                        t.line,
                        format!(
                            "thread::{} spawns an OS thread the executor cannot see; spawn \
                             through the `Executor` trait (crates/sim/src/exec/) so scheduling, \
                             shutdown and the watchdog cover it",
                            t.text
                        ),
                    );
                }
            }
        }
        i += 1;
    }
}

/// Flags a banned `std::sync` type at `toks[i]`, or inside a `{…}`
/// use-group starting there.
fn flag_sync_names(toks: &[Token], i: usize, out: &mut Vec<RawViolation>) {
    let flag = |t: &Token, out: &mut Vec<RawViolation>| {
        violation(
            out,
            RAW_THREAD,
            t.line,
            format!(
                "std::sync::{} blocks the calling OS thread behind the executor's back; use \
                 pathways_sim::lock::Lock (or channels) so contention is profiled and the \
                 deterministic backend stays serializable",
                t.text
            ),
        );
    };
    match toks.get(i) {
        Some(t) if t.kind == TokenKind::Ident && RAW_SYNC_TYPES.contains(&t.text.as_str()) => {
            flag(t, out)
        }
        Some(t) if t.is_punct('{') => {
            let mut j = i + 1;
            let mut level = 1usize;
            while j < toks.len() && level > 0 {
                match &toks[j].kind {
                    TokenKind::Punct('{') => level += 1,
                    TokenKind::Punct('}') => level -= 1,
                    TokenKind::Ident if RAW_SYNC_TYPES.contains(&toks[j].text.as_str()) => {
                        flag(&toks[j], out)
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        _ => {}
    }
}
