//! `agossip-lint` — the CLI entry point CI and developers run.
//!
//! ```text
//! cargo run -p agossip-lint                      # lint the workspace
//! cargo run -p agossip-lint -- --json report.json
//! cargo run -p agossip-lint -- --root /path/to/workspace --quiet
//! ```
//!
//! Exit status: `0` when every finding is waived, `1` when unwaived
//! findings exist, `2` on usage or I/O errors. Diagnostics go to stdout as
//! `file:line: [rule] what`; `--json` additionally writes the full
//! machine-readable report (findings *and* waivers).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms, unreachable_pub)]

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    // Default root: the workspace containing this crate when run via
    // `cargo run -p agossip-lint`, else the current directory.
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));

    let mut args = Args {
        root: default_root,
        json: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root =
                    PathBuf::from(it.next().ok_or_else(|| "--root needs a path".to_string())?);
            }
            "--json" => {
                args.json = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--json needs a path".to_string())?,
                ));
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: agossip-lint [--root <workspace>] [--json <report.json>] [--quiet]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let report = match agossip_lint::run_lint(&args.root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("agossip-lint: failed to walk {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.json {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("agossip-lint: cannot create {}: {e}", parent.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("agossip-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let unwaived = report.unwaived_count();
    if !args.quiet {
        print!("{}", report.render_diagnostics());
        let waived = report.findings.len() - unwaived;
        let stale = report.waivers.iter().filter(|w| !w.used).count();
        println!(
            "agossip-lint: {} files, {} unwaived finding(s), {} waived, {} waiver(s) ({} unused)",
            report.files.len(),
            unwaived,
            waived,
            report.waivers.len(),
            stale,
        );
    }

    if unwaived == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
