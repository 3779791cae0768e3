//! CLI entry point for `osr-lint`.
//!
//! ```text
//! osr-lint [--root DIR] [--format human|json]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    format: Format,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
}

const USAGE: &str = "usage: osr-lint [--root DIR] [--format human|json]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { root: None, format: Format::Human };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let dir = it.next().ok_or("--root requires a directory argument")?;
                args.root = Some(PathBuf::from(dir));
            }
            "--format" => {
                let fmt = it.next().ok_or("--format requires `human` or `json`")?;
                args.format = match fmt.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let root = match args.root {
        Some(dir) => dir,
        None => {
            // Default to the workspace root: search upward from the CWD,
            // then from the manifest dir (covers `cargo run -p osr-lint`
            // from anywhere inside the tree).
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match osr_lint::workspace::find_root(&cwd)
                .or_else(|| osr_lint::workspace::find_root(env!("CARGO_MANIFEST_DIR").as_ref()))
            {
                Some(dir) => dir,
                None => {
                    eprintln!("osr-lint: no workspace root found (pass --root DIR)");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match osr_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("osr-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    match args.format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => println!("{}", report.render_json()),
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
