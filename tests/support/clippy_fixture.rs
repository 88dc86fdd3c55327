//! Run `cargo clippy` over a throwaway crate and collect what it reports.
//!
//! The workspace's guards against panics, unordered iteration,
//! wall-clock reads and silently dropped errors are clippy lints that
//! each crate root turns on for non-test code, plus the methods
//! `clippy.toml` disallows (DESIGN.md "Guards"). A fixture crate is
//! built from a real root's lint header, the real `clippy.toml` and a
//! few lines that break or keep a rule, and the tests assert exactly
//! what clippy reports — so dropping a lint from a root, or a method
//! from `clippy.toml`, fails `cargo test`, not only the CI clippy job.
//!
//! Needs the clippy component (`rustup component add clippy`).

use std::fmt;
use std::path::Path;
use std::process::Command;
use std::sync::{Mutex, PoisonError};

use drybell_obs::{parse_json, Json};

/// The workspace root: this package's manifest directory.
pub const WORKSPACE: &str = env!("CARGO_MANIFEST_DIR");

/// One clippy run at a time, so a test binary holds at most one
/// compiler's memory however many test threads it runs.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// One lint or error, at its primary span.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Fixture-relative path, e.g. `src/lib.rs`.
    pub path: String,
    /// 1-based line.
    pub line: u64,
    /// 1-based column.
    pub col: u64,
    /// Lint name (`clippy::unwrap_used`, `unfulfilled_lint_expectations`)
    /// or error code (`E0425`).
    pub code: String,
    /// The compiler's one-line message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.code, self.message
        )
    }
}

/// Each finding as `(code, "path:line")`, the shape the tests assert on.
pub fn sites(found: &[Finding]) -> Vec<(&str, String)> {
    found
        .iter()
        .map(|f| (f.code.as_str(), format!("{}:{}", f.path, f.line)))
        .collect()
}

/// `body` under the `#![cfg_attr(not(test), warn(…))]` lines of a
/// workspace crate root such as `crates/drybell-core/src/lib.rs`.
pub fn with_lints_of(root: &str, body: &str) -> String {
    let src = std::fs::read_to_string(Path::new(WORKSPACE).join(root))
        .unwrap_or_else(|e| panic!("{root}: {e}"));
    let header: String = src
        .lines()
        .filter(|line| line.starts_with("#![cfg_attr(not(test), warn("))
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(!header.is_empty(), "{root} turns on no lints");
    format!("{header}\n{body}")
}

/// `"src/lib.rs:<line>"` of the only occurrence of `needle` in `src`,
/// the fixture's `src/lib.rs`.
pub fn at(src: &str, needle: &str) -> String {
    let offset = src
        .find(needle)
        .unwrap_or_else(|| panic!("fixture lacks {needle:?}"));
    assert_eq!(src.matches(needle).count(), 1, "{needle:?} is ambiguous");
    let line = 1 + src[..offset].matches('\n').count();
    format!("src/lib.rs:{line}")
}

/// A crate to check: manifest tables past `[package]`, and its files.
#[derive(Default)]
pub struct Fixture {
    manifest: String,
    files: Vec<(String, String)>,
}

impl Fixture {
    pub fn new() -> Fixture {
        Fixture::default()
    }

    /// Append manifest tables, e.g. `[dependencies]` or `[[bench]]`.
    pub fn manifest(mut self, tables: &str) -> Fixture {
        self.manifest.push_str(tables);
        self
    }

    /// Add a file at a crate-relative path.
    pub fn file(mut self, path: &str, src: &str) -> Fixture {
        self.files.push((path.to_owned(), src.to_owned()));
        self
    }

    /// `cargo clippy --all-targets` over the crate, with the workspace's
    /// `clippy.toml`: every lint and error reported, once each (the lib
    /// is checked as itself and as its unit-test build), in file order.
    pub fn clippy(&self) -> Vec<Finding> {
        let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = tempfile::tempdir().expect("temp dir");
        let root = dir.path();
        let manifest = format!(
            "[package]\nname = \"fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n{}\n[workspace]\n",
            self.manifest
        );
        std::fs::write(root.join("Cargo.toml"), manifest).expect("write manifest");
        std::fs::copy(
            Path::new(WORKSPACE).join("clippy.toml"),
            root.join("clippy.toml"),
        )
        .expect("copy clippy.toml");
        for (path, src) in &self.files {
            let path = root.join(path);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).expect("create fixture dir");
            }
            std::fs::write(path, src).expect("write fixture file");
        }
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let out = Command::new(cargo)
            .args(["clippy", "--offline", "--quiet", "--all-targets"])
            .args(["--message-format=json", "--target-dir"])
            .arg(root.join("target"))
            .current_dir(root)
            .env_remove("RUSTFLAGS")
            .env_remove("CARGO_ENCODED_RUSTFLAGS")
            .env_remove("CARGO_BUILD_RUSTFLAGS")
            .output()
            .expect("run cargo clippy");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut found: Vec<Finding> = stdout.lines().filter_map(finding).collect();
        found.sort();
        found.dedup();
        let errors = found.iter().any(|f| f.code.starts_with('E'));
        assert!(
            out.status.success() || errors,
            "cargo clippy failed without a compile error:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        found
    }
}

/// The finding in one line of `--message-format=json` output, if the
/// line is a compiler message with a code and a primary span.
fn finding(line: &str) -> Option<Finding> {
    let json = parse_json(line).ok()?;
    if json.get("reason").and_then(Json::as_str) != Some("compiler-message") {
        return None;
    }
    let message = json.get("message")?;
    let code = message.get("code")?.get("code")?.as_str()?;
    let span = message
        .get("spans")?
        .items()
        .iter()
        .find(|span| span.get("is_primary").and_then(Json::as_bool) == Some(true))?;
    Some(Finding {
        path: span.get("file_name")?.as_str()?.to_owned(),
        line: span.get("line_start")?.as_u64()?,
        col: span.get("column_start")?.as_u64()?,
        code: code.to_owned(),
        message: message.get("message")?.as_str()?.to_owned(),
    })
}
