//! CLI: `cargo run -p northup-analyze -- --workspace [--sarif out.sarif]`.
//!
//! Exit codes: 0 — analyze-clean; 1 — failing findings; 2 — usage or
//! I/O error.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use northup_analyze::diag::rules;
use northup_analyze::{analyze_sources, analyze_workspace, explain, sarif, Report};

fn usage() -> String {
    format!(
        "\
northup-analyze — offline static analysis for the Northup workspace

USAGE:
    northup-analyze --workspace [--root DIR] [OPTIONS]
    northup-analyze [OPTIONS] FILE.rs...

OPTIONS:
    --workspace       analyze every first-party crate under --root (default: cwd)
    --root DIR        workspace root for --workspace and for relativizing paths
    --sarif FILE      also write a SARIF 2.1.0 report to FILE
    --quiet           print only the summary line, not per-finding lines
    --explain RULE    print RULE's contract, example, and allow syntax
                      (with no/unknown RULE: the one-line rule index)
    -h, --help        show this help

Suppress a finding with a justified directive on the same or previous line:
    // analyze:allow(<rule>): <why this is sound>
A justified suppression that matches no finding is itself a finding.
Rules: {}.",
        rules::ALL.join(", ")
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("northup-analyze: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut workspace = false;
    let mut quiet = false;
    let mut root = PathBuf::from(".");
    let mut sarif_out: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--quiet" => quiet = true,
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--sarif" => {
                sarif_out = Some(PathBuf::from(args.next().ok_or("--sarif needs a value")?))
            }
            "--explain" => {
                match args.next().as_deref().and_then(explain::explain) {
                    Some(doc) => println!("{doc}"),
                    None => println!("{}", explain::index()),
                }
                return Ok(ExitCode::SUCCESS);
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            p if !p.starts_with('-') => paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}`\n\n{}", usage())),
        }
    }
    if !workspace && paths.is_empty() {
        return Err(format!("nothing to analyze\n\n{}", usage()));
    }

    let report: Report = if workspace {
        analyze_workspace(&root).map_err(|e| format!("walking {}: {e}", root.display()))?
    } else {
        let mut files = Vec::new();
        for p in &paths {
            let text =
                fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            let rel = p
                .strip_prefix(&root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, text));
        }
        analyze_sources(&files)
    };

    if let Some(out) = sarif_out {
        fs::write(&out, sarif::report_to_sarif(&report))
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
    }

    if !quiet {
        for f in &report.findings {
            println!("{}", f.render());
        }
    }
    let failing = report.failing().count();
    println!(
        "northup-analyze: {} file(s), {} failing finding(s), {} suppressed",
        report.files_scanned,
        failing,
        report.findings.len() - failing
    );
    Ok(if failing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
