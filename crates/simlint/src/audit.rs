//! X-series rules: cross-file exhaustiveness audits.
//!
//! An [`EnumAudit`] names an enum (by file and name) and a set of target
//! files that must each reference every variant. The diagnostics anchor at
//! the variant's declaration line, so a suppression — if one is ever
//! justified — sits next to the variant it excuses.
//!
//! If the enum's file is absent from the source set the audit is skipped
//! (fixture runs lint synthetic subsets); if the file is present but the
//! enum or a target file is missing, that is itself an error — an audit
//! that silently stops auditing is worse than none.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules;
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// One cross-file exhaustiveness contract.
pub struct EnumAudit<'a> {
    /// The X-rule this audit reports under.
    pub rule: &'static str,
    /// Workspace-relative path of the file declaring the enum.
    pub enum_path: &'a str,
    pub enum_name: &'a str,
    /// `(path, role)` pairs: every variant must appear (as an identifier
    /// token) in each path; `role` names the contract in the message.
    pub targets: &'a [(&'a str, &'a str)],
}

/// The workspace's shipped audits.
///
/// * **X001** — every `KernelKind` variant is wired through scenario-JSON
///   parsing and the `run_experiments --kernel` CLI.
/// * **X002** — every telemetry `Counter` is exercised by the
///   counter-partition test, so no counter can silently rot.
pub const AUDITS: &[EnumAudit<'static>] = &[
    EnumAudit {
        rule: "X001",
        enum_path: "crates/core/src/sim/mod.rs",
        enum_name: "KernelKind",
        targets: &[
            (
                "crates/workload/src/registry.rs",
                "scenario-JSON parsing (the `\"kernel\"` field)",
            ),
            ("src/bin/run_experiments.rs", "the `--kernel` CLI parser"),
        ],
    },
    EnumAudit {
        rule: "X002",
        enum_path: "crates/telemetry/src/lib.rs",
        enum_name: "Counter",
        targets: &[(
            "crates/core/tests/telemetry_counters.rs",
            "the counter-partition test",
        )],
    },
];

/// Runs every shipped audit over the parsed source set.
#[must_use]
pub fn run_default(files: &[SourceFile<'_>]) -> Vec<Diagnostic> {
    AUDITS.iter().flat_map(|a| run_audit(a, files)).collect()
}

/// Runs one audit; see the module docs for skip/error semantics.
#[must_use]
pub fn run_audit(audit: &EnumAudit<'_>, files: &[SourceFile<'_>]) -> Vec<Diagnostic> {
    let Some(enum_file) = files.iter().find(|f| f.path == audit.enum_path) else {
        return Vec::new();
    };
    let severity = rules::info(audit.rule).severity;
    let mut out = Vec::new();
    let variants = enum_variants(enum_file, audit.enum_name);
    if variants.is_empty() {
        out.push(Diagnostic {
            rule: audit.rule,
            severity,
            path: audit.enum_path.to_string(),
            line: 1,
            col: 1,
            message: format!(
                "audit misconfigured: no `enum {}` with variants found in this file",
                audit.enum_name
            ),
        });
        return out;
    }
    for (target_path, role) in audit.targets {
        let Some(target) = files.iter().find(|f| f.path == *target_path) else {
            out.push(Diagnostic {
                rule: audit.rule,
                severity,
                path: audit.enum_path.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "audit target `{target_path}` ({role}) is missing from the source set"
                ),
            });
            continue;
        };
        let idents: BTreeSet<&str> = target
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        for (name, line, col) in &variants {
            if !idents.contains(name.as_str()) {
                out.push(Diagnostic {
                    rule: audit.rule,
                    severity,
                    path: audit.enum_path.to_string(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "`{}::{name}` is not referenced in `{target_path}` ({role}): \
                         wire the variant through or the contract is no longer exhaustive",
                        audit.enum_name
                    ),
                });
            }
        }
    }
    out
}

/// Extracts `(variant name, line, col)` triples from `enum <name> { … }`.
fn enum_variants(f: &SourceFile<'_>, name: &str) -> Vec<(String, u32, u32)> {
    let tokens = &f.tokens;
    let mut open = None;
    for i in 0..tokens.len() {
        if tokens[i].is_ident("enum") && tokens.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            // Skip any generics between the name and the body brace.
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') {
                j += 1;
            }
            open = Some(j);
            break;
        }
    }
    let Some(open) = open else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let mut depth = 1i64;
    let mut expecting = true;
    let mut i = open + 1;
    while i < tokens.len() && depth > 0 {
        match tokens[i].kind {
            // Skip attributes on variants (`#[default]`, doc attrs, …).
            TokenKind::Punct('#')
                if depth == 1 && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) =>
            {
                let mut bd = 0i64;
                i += 1;
                while i < tokens.len() {
                    match tokens[i].kind {
                        TokenKind::Punct('[') => bd += 1,
                        TokenKind::Punct(']') => {
                            bd -= 1;
                            if bd == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            TokenKind::Punct('{' | '(' | '[') => depth += 1,
            TokenKind::Punct('}' | ')' | ']') => depth -= 1,
            TokenKind::Punct(',') if depth == 1 => expecting = true,
            TokenKind::Ident if depth == 1 && expecting => {
                variants.push((tokens[i].text.to_string(), tokens[i].line, tokens[i].col));
                expecting = false;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_extracted_with_payloads_and_attrs() {
        let src = "/// doc\npub enum Kind {\n  #[default]\n  Plain,\n  Tuple(u32, u32),\n  \
                   Struct { a: u32 },\n  Valued = 7,\n}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let names: Vec<_> = enum_variants(&f, "Kind")
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(names, ["Plain", "Tuple", "Struct", "Valued"]);
    }

    #[test]
    fn missing_enum_yields_no_variants() {
        let f = SourceFile::parse("crates/x/src/lib.rs", "struct NotAnEnum;");
        assert!(enum_variants(&f, "Kind").is_empty());
    }
}
