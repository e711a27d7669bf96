//! The `apparate-lint` command: lint the workspace's determinism and
//! concurrency invariants.
//!
//! ```text
//! cargo run --release -p apparate-lint -- [--deny-warnings] [--json]
//!     [--crate NAME]... [--root PATH] [--list-rules]
//! ```
//!
//! Without flags every diagnostic prints as a warning and the exit code is 0;
//! with `--deny-warnings` any diagnostic makes the exit code 1 (the CI
//! `analysis` job runs this mode). `--json` emits one machine-readable
//! object instead of text. `--crate` restricts the pass to the named
//! crate(s); repeat it to scope several.

#![forbid(unsafe_code)]

use apparate_lint::{lint_files, registry, workspace_files, LintReport};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    deny_warnings: bool,
    json: bool,
    list_rules: bool,
    crates: Vec<String>,
    root: Option<PathBuf>,
}

const USAGE: &str = "usage: apparate-lint [--deny-warnings] [--json] [--crate NAME]... \
                     [--root PATH] [--list-rules]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        deny_warnings: false,
        json: false,
        list_rules: false,
        crates: Vec::new(),
        root: None,
    };
    let mut it = args;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-warnings" => opts.deny_warnings = true,
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--crate" => {
                let name = it.next().ok_or("--crate requires a crate name")?;
                opts.crates.push(name);
            }
            "--root" => {
                let path = it.next().ok_or("--root requires a path")?;
                opts.root = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// The workspace root: `--root` when given, else two levels above this
/// crate's manifest (which is `crates/apparate-lint`), else the current
/// directory.
fn workspace_root(opts: &Options) -> PathBuf {
    if let Some(root) = &opts.root {
        return root.clone();
    }
    // lint:allow(D003, reason = "locates the workspace root for the scan; never influences a simulated decision or a seed")
    if let Ok(manifest_dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let manifest = PathBuf::from(manifest_dir);
        if let Some(root) = manifest.ancestors().nth(2) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

/// Minimal JSON string escaping (the code uses no serialisation crate).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{\"version\":\"apparate-lint/v1\",\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            escape_json(&d.file),
            d.line,
            d.col,
            d.rule,
            escape_json(&d.message)
        ));
    }
    out.push_str(&format!(
        "],\"files_checked\":{},\"suppressed\":{}}}",
        report.files_checked, report.suppressed
    ));
    out
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("apparate-lint: {err}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        for rule in registry() {
            println!("{}  {}", rule.id, rule.summary);
        }
        println!("L001  lint:allow escapes must name a known rule and carry a non-empty reason");
        return ExitCode::SUCCESS;
    }
    let root = workspace_root(&opts);
    let mut files = match workspace_files(&root) {
        Ok(files) => files,
        Err(err) => {
            eprintln!("apparate-lint: cannot scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    if !opts.crates.is_empty() {
        files.retain(|f| opts.crates.iter().any(|c| c == &f.crate_name));
    }
    if files.is_empty() {
        eprintln!(
            "apparate-lint: no .rs files found under {} (wrong --root or --crate?)",
            root.display()
        );
        return ExitCode::from(2);
    }
    let report = match lint_files(&files) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("apparate-lint: read error: {err}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!("{}", render_json(&report));
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
        println!(
            "apparate-lint: {} diagnostic(s), {} suppressed by lint:allow, {} file(s) checked",
            report.diagnostics.len(),
            report.suppressed,
            report.files_checked
        );
    }
    if opts.deny_warnings && !report.diagnostics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
