//! The per-file rule registry and implementations.
//!
//! Every rule here is a token-level pattern over one [`SourceFile`]: no type
//! inference, no name resolution. The supported shapes are pinned by the
//! fixture corpus under `tests/fixtures/`; anything outside them is a
//! documented false negative, never a build break. Test code (per the
//! attribute tracker in [`crate::source`]) is exempt from every per-file
//! rule.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// Registry metadata for one rule.
pub struct RuleInfo {
    pub id: &'static str,
    /// One-line summary shown by `simlint --list-rules`.
    pub summary: &'static str,
    /// Severity before any `--deny` promotion.
    pub severity: Severity,
}

/// Every rule simlint ships, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "hash-container iteration (and un-audited hash bindings) in non-test code: \
                  hash order is nondeterministic and must never reach artifacts",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "D002",
        summary: "wall-clock reads (Instant::now / SystemTime) outside the telemetry/progress \
                  allowlist: wall time must never influence simulation output",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "D003",
        summary: "ad-hoc RNG construction (thread_rng / from_entropy / seed_from_u64 / OsRng) \
                  outside engine::rng: all randomness derives from (master seed, scenario, \
                  replication) stream keys",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "D004",
        summary: "environment or thread-identity reads (std::env, thread::current) in \
                  sim/engine paths: results must depend only on (config, master seed)",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "E001",
        summary: ".unwrap()/.expect() in crates/engine + crates/core non-test code: use typed \
                  errors, or suppress with a documented allow so the count can only shrink",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "X001",
        summary: "every KernelKind variant must appear in scenario-JSON parsing and the \
                  run_experiments --kernel CLI",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "X002",
        summary: "every telemetry Counter variant must be referenced by the counter-partition \
                  test",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "A001",
        summary: "unused `simlint: allow` directive (the rule never fired on the target line)",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "A002",
        summary: "malformed `simlint:` directive",
        severity: Severity::Error,
    },
];

/// Resolves a user-written rule name to its registry id. Only suppressible
/// rules resolve: the meta rules (`A00x`) cannot be allowed away.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static str> {
    RULES
        .iter()
        .find(|r| r.id == name && !r.id.starts_with('A'))
        .map(|r| r.id)
}

/// Registry metadata for `id` (panics on unknown ids — rule ids are static).
#[must_use]
pub fn info(id: &str) -> &'static RuleInfo {
    RULES
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("unknown rule id {id}"))
}

/// What the per-file rules need to know about a path.
struct Scope {
    /// E001 and D004 apply only to the engine/core crates.
    engine_or_core: bool,
    /// D002 allowlist: the telemetry crate and the progress reporter may
    /// read the wall clock (it never reaches artifacts from there).
    d002_allowlisted: bool,
    /// D003 exemption: `engine::rng` is the one blessed construction site.
    d003_exempt: bool,
}

/// Whether per-file rules run on `path` at all, and under which scope.
///
/// Linted: `src/**` and `crates/*/src/**`. Everything else (tests, benches,
/// examples, fixtures, shims) is either test code or reference material.
#[must_use]
pub fn is_linted(path: &str) -> bool {
    if !path.ends_with(".rs") {
        return false;
    }
    path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"))
}

fn scope_of(path: &str) -> Scope {
    Scope {
        engine_or_core: path.starts_with("crates/engine/src")
            || path.starts_with("crates/core/src"),
        d002_allowlisted: path.starts_with("crates/telemetry/src")
            || path == "crates/engine/src/progress.rs",
        d003_exempt: path == "crates/engine/src/rng.rs",
    }
}

/// Runs every per-file rule on `f`, returning raw (unsuppressed)
/// diagnostics.
#[must_use]
pub fn file_rules(f: &SourceFile<'_>) -> Vec<Diagnostic> {
    let scope = scope_of(&f.path);
    let mut out = Vec::new();
    d001(f, &mut out);
    if !scope.d002_allowlisted {
        d002(f, &mut out);
    }
    if !scope.d003_exempt {
        d003(f, &mut out);
    }
    if scope.engine_or_core {
        d004(f, &mut out);
        e001(f, &mut out);
    }
    out
}

fn diag(
    f: &SourceFile<'_>,
    rule: &'static str,
    line: u32,
    col: u32,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: info(rule).severity,
        path: f.path.clone(),
        line,
        col,
        message,
    }
}

/// Iteration-reading methods whose call on a hash container leaks hash
/// order into control flow.
const D001_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// D001 — hash-container discipline.
///
/// Two trigger forms:
/// * **iteration** — a `for` loop over, or an order-observing method call
///   on, a name bound with a `HashMap`/`HashSet` type: always a violation;
/// * **binding audit** — any `let` binding, fn parameter, or struct field
///   declared with a hash type in non-test code: fires once per
///   declaration so lookup-only uses carry an audited
///   `// simlint: allow(D001, "…")` documenting why no iteration order
///   escapes.
fn d001(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = &f.tokens;
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    let mut audited: BTreeSet<usize> = BTreeSet::new();

    for i in 0..tokens.len() {
        if tokens[i].kind != TokenKind::Ident
            || !(tokens[i].text == "HashMap" || tokens[i].text == "HashSet")
            || !f.is_code(i)
        {
            continue;
        }
        // Statement anchor: the token after the nearest `;`, `{`, or `}`.
        let mut a = i;
        while a > 0 && !matches!(tokens[a - 1].kind, TokenKind::Punct(';' | '{' | '}')) {
            a -= 1;
        }
        // Imports declare nothing.
        if tokens[a].is_ident("use")
            || (tokens[a].is_ident("pub") && tokens.get(a + 1).is_some_and(|t| t.is_ident("use")))
        {
            continue;
        }
        if tokens[a].is_ident("let") {
            let name_idx = if tokens.get(a + 1).is_some_and(|t| t.is_ident("mut")) {
                a + 2
            } else {
                a + 1
            };
            if tokens
                .get(name_idx)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            {
                hash_names.insert(tokens[name_idx].text);
                if audited.insert(a) {
                    out.push(diag(
                        f,
                        "D001",
                        tokens[a].line,
                        tokens[a].col,
                        format!(
                            "`{}` binds a `{}` in deterministic code: audit the use \
                             (lookup-only is fine) and suppress with `// simlint: \
                             allow(D001, \"…\")` documenting why no iteration order escapes",
                            tokens[name_idx].text, tokens[i].text
                        ),
                    ));
                }
            }
            continue;
        }
        // Parameter / struct-field form: `name: …Hash…` — find the lone `:`
        // (not part of a `::`) closest before the hash token.
        let mut j = i;
        while j > a {
            let lone_colon = tokens[j].is_punct(':')
                && !tokens[j - 1].is_punct(':')
                && !tokens.get(j + 1).is_some_and(|t| t.is_punct(':'));
            if lone_colon {
                if tokens[j - 1].kind == TokenKind::Ident {
                    hash_names.insert(tokens[j - 1].text);
                    if audited.insert(j) {
                        out.push(diag(
                            f,
                            "D001",
                            tokens[j - 1].line,
                            tokens[j - 1].col,
                            format!(
                                "`{}` is declared with a `{}` in deterministic code: audit \
                                 the use (lookup-only is fine) and suppress with `// simlint: \
                                 allow(D001, \"…\")` documenting why no iteration order escapes",
                                tokens[j - 1].text,
                                tokens[i].text
                            ),
                        ));
                    }
                }
                break;
            }
            j -= 1;
        }
    }

    // Iteration form 1: order-observing method calls on hash-bound names.
    for i in 2..tokens.len() {
        if tokens[i].kind == TokenKind::Ident
            && D001_ITER_METHODS.contains(&tokens[i].text)
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && f.is_code(i)
            && tokens[i - 2].kind == TokenKind::Ident
            && hash_names.contains(tokens[i - 2].text)
        {
            out.push(diag(
                f,
                "D001",
                tokens[i].line,
                tokens[i].col,
                format!(
                    "`{}.{}()` iterates a hash container: hash order is nondeterministic \
                     and must not reach artifacts; iterate a sorted or insertion-ordered \
                     carrier instead",
                    tokens[i - 2].text,
                    tokens[i].text
                ),
            ));
        }
    }

    // Iteration form 2: `for … in <hash-bound name> {`.
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("for") || !f.is_code(i) {
            continue;
        }
        // Walk the loop header: find `in` and the body `{`, both outside
        // parens/brackets (`impl Trait for Type` has no `in` and is skipped).
        let mut nesting = 0i64;
        let mut in_idx = None;
        let mut body_idx = None;
        for (j, t) in f.tokens.iter().enumerate().skip(i + 1) {
            match t.kind {
                TokenKind::Punct('(' | '[') => nesting += 1,
                TokenKind::Punct(')' | ']') => nesting -= 1,
                TokenKind::Punct('{') if nesting == 0 => {
                    body_idx = Some(j);
                    break;
                }
                TokenKind::Punct(';') if nesting == 0 => break,
                TokenKind::Ident if nesting == 0 && t.text == "in" && in_idx.is_none() => {
                    in_idx = Some(j);
                }
                _ => {}
            }
        }
        let (Some(in_idx), Some(body_idx)) = (in_idx, body_idx) else {
            continue;
        };
        let expr = &tokens[in_idx + 1..body_idx];
        let Some(last) = expr.last() else { continue };
        if last.kind == TokenKind::Ident && hash_names.contains(last.text) {
            out.push(diag(
                f,
                "D001",
                last.line,
                last.col,
                format!(
                    "`for … in {}` iterates a hash container: hash order is \
                     nondeterministic and must not reach artifacts; iterate a sorted or \
                     insertion-ordered carrier instead",
                    last.text
                ),
            ));
        }
    }
}

/// D002 — wall-clock reads.
fn d002(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = &f.tokens;
    for i in 0..tokens.len() {
        if !f.is_code(i) || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let hit = match tokens[i].text {
            "SystemTime" => true,
            // `Instant :: now`
            "Instant" => {
                tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
            }
            _ => false,
        };
        if hit {
            out.push(diag(
                f,
                "D002",
                tokens[i].line,
                tokens[i].col,
                format!(
                    "`{}` reads the wall clock outside the telemetry/progress allowlist: \
                     wall time must never influence simulation results or artifacts",
                    tokens[i].text
                ),
            ));
        }
    }
}

/// RNG constructors that bypass the stream-key derivation.
const D003_BANNED: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "seed_from_u64",
];

/// D003 — RNG discipline.
fn d003(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident && D003_BANNED.contains(&t.text) && f.is_code(i) {
            out.push(diag(
                f,
                "D003",
                t.line,
                t.col,
                format!(
                    "ad-hoc RNG construction (`{}`): all randomness must derive from the \
                     (master seed, scenario, replication) stream key via \
                     `engine::rng::replication_rng`",
                    t.text
                ),
            ));
        }
    }
}

/// D004 — environment / thread-identity reads in sim/engine paths.
fn d004(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = &f.tokens;
    let seq = |i: usize, names: &[&str]| -> bool {
        // Matches `names[0] :: names[1] :: …` starting at token i.
        let mut j = i;
        for (k, name) in names.iter().enumerate() {
            if k > 0 {
                if !(tokens.get(j).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct(':')))
                {
                    return false;
                }
                j += 2;
            }
            if !tokens.get(j).is_some_and(|t| t.is_ident(name)) {
                return false;
            }
            j += 1;
        }
        true
    };
    for (i, tok) in tokens.iter().enumerate() {
        if !f.is_code(i) || tok.kind != TokenKind::Ident {
            continue;
        }
        let hit = if tok.text == "std" && seq(i, &["std", "env"]) {
            Some("std::env")
        } else if tok.text == "env"
            && (seq(i, &["env", "var"]) || seq(i, &["env", "vars"]) || seq(i, &["env", "var_os"]))
        {
            Some("env::var")
        } else if tok.text == "thread" && seq(i, &["thread", "current"]) {
            Some("thread::current")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(diag(
                f,
                "D004",
                tok.line,
                tok.col,
                format!(
                    "`{what}` read in a sim/engine path: results must depend only on \
                     (config, master seed), never on the environment or thread identity"
                ),
            ));
        }
    }
}

/// E001 — panic-policy regression guard.
fn e001(f: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = &f.tokens;
    for i in 1..tokens.len() {
        if tokens[i].kind == TokenKind::Ident
            && (tokens[i].text == "unwrap" || tokens[i].text == "expect")
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && f.is_code(i)
        {
            out.push(diag(
                f,
                "E001",
                tokens[i].line,
                tokens[i].col,
                format!(
                    "`.{}(…)` in engine/core non-test code: return a typed \
                     `engine::Error`/`SwarmError` instead, or suppress with \
                     `// simlint: allow(E001, \"…\")` stating the invariant that makes \
                     the panic unreachable",
                    tokens[i].text
                ),
            ));
        }
    }
}
