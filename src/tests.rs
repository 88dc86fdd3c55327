//! What a crate root's lint header covers and how a site opts out.
//!
//! Each root turns its lints on with `#![cfg_attr(not(test), warn(…))]`
//! and a site that must break one says why in an
//! `#[expect(lint, reason = "…")]` (DESIGN.md "Guards"). Each test here
//! runs clippy over a small crate built from a real root's header.

#[path = "../tests/support/clippy_fixture.rs"]
mod clippy_fixture;

use clippy_fixture::{at, sites, with_lints_of, Finding, Fixture};

/// A panic-scope root: panics and indexing are linted too.
const CORE: &str = "crates/drybell-core/src/lib.rs";
/// A root outside the panic scope: unwraps and dropped errors only.
const KG: &str = "crates/drybell-kg/src/lib.rs";

fn clippy_lib(src: &str) -> Vec<Finding> {
    Fixture::new().file("src/lib.rs", src).clippy()
}

#[test]
fn suppression_with_reason_is_honored() {
    let src = with_lints_of(
        CORE,
        "#[expect(clippy::indexing_slicing, reason = \"callers pass a non-empty slice\")]
pub fn first(v: &[u8]) -> u8 {
    v[0]
}

pub fn parse(s: &str) -> u64 {
    #[expect(clippy::unwrap_used, reason = \"the caller checked the digits\")]
    let n: u64 = s.parse().unwrap();
    n + 1
}
",
    );
    let found = clippy_lib(&src);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn suppression_without_reason_is_a_diagnostic() {
    let src = with_lints_of(
        KG,
        "#[allow(clippy::unwrap_used)]
pub fn allowed(s: &str) -> u64 {
    s.parse().unwrap()
}

#[expect(clippy::unwrap_used)]
pub fn expected(s: &str) -> u64 {
    s.parse().unwrap()
}
",
    );
    let allow = at(&src, "#[allow(");
    assert_eq!(
        sites(&clippy_lib(&src)),
        [
            ("clippy::allow_attributes_without_reason", allow.clone()),
            ("clippy::allow_attributes", allow),
            (
                "clippy::allow_attributes_without_reason",
                at(&src, "#[expect(")
            ),
        ]
    );
}

#[test]
fn unknown_rule_suppression_is_a_diagnostic() {
    // A misspelt lint suppresses nothing, and says so.
    let src = with_lints_of(
        KG,
        "#[expect(clippy::unwrap_use, reason = \"the caller checked the digits\")]
pub fn parse(s: &str) -> u64 {
    s.parse().unwrap()
}
",
    );
    assert_eq!(
        sites(&clippy_lib(&src)),
        [
            ("unknown_lints", at(&src, "#[expect(")),
            ("clippy::unwrap_used", at(&src, ".unwrap()")),
        ]
    );
}

#[test]
fn file_scoped_suppression_covers_every_line() {
    // An inner `#![expect]` atop a kernel module covers each site in it;
    // the same site elsewhere in the crate still reports.
    let root = with_lints_of(
        CORE,
        "mod kernel;

pub use kernel::mix;

pub fn head(v: &[f64]) -> f64 {
    v[0]
}
",
    );
    let kernel = "#![expect(clippy::indexing_slicing, reason = \"callers pass 4+ values\")]

pub fn mix(a: &[f64], b: &[f64]) -> f64 {
    let x = a[1] * b[2];
    let y = a[3] - b[0];
    x + y
}
";
    let found = Fixture::new()
        .file("src/lib.rs", &root)
        .file("src/kernel.rs", kernel)
        .clippy();
    assert_eq!(
        sites(&found),
        [("clippy::indexing_slicing", at(&root, "v[0]"))]
    );
}

#[test]
fn test_attribute_fn_is_exempt() {
    // A `#[test]` fn exists only in the test build, where
    // `cfg_attr(not(test), …)` turns nothing on.
    let src = with_lints_of(
        KG,
        "pub fn parse(s: &str) -> Option<u64> {
    s.parse().ok()
}

pub fn parse_or_die(s: &str) -> u64 {
    parse(s).unwrap()
}

#[test]
fn parses() {
    assert_eq!(parse(\"7\").expect(\"digits\"), 7);
}
",
    );
    assert_eq!(
        sites(&clippy_lib(&src)),
        [("clippy::unwrap_used", at(&src, "parse(s).unwrap()"))]
    );
}

#[test]
fn test_regions_are_marked() {
    // `#[cfg(test)]` code, the helpers of a `mod tests` included, is out
    // of scope; the same expressions outside it report.
    let src = with_lints_of(
        CORE,
        "pub fn second(v: &[u8]) -> u8 {
    v[1]
}

#[cfg(test)]
mod tests {
    fn sample() -> Vec<u8> {
        \"3 1\".split(' ').map(|s| s.parse().unwrap()).collect()
    }

    #[test]
    fn second_is_second() {
        let v = sample();
        assert_eq!(super::second(&v), v[1]);
    }
}
",
    );
    assert_eq!(
        sites(&clippy_lib(&src)),
        [("clippy::indexing_slicing", at(&src, "    v[1]\n"))]
    );
}

#[test]
fn bench_and_test_trees_are_out_of_panic_scope() {
    // Integration tests and benches are crates of their own, without the
    // root's header: only the library's site reports.
    let src = with_lints_of(
        CORE,
        "pub fn last(v: &[u8]) -> u8 {
    v[v.len() - 1]
}
",
    );
    let test = "#[test]
fn last_is_last() {
    let v: Vec<u8> = \"1 2\".split(' ').map(|s| s.parse().unwrap()).collect();
    assert_eq!(fixture::last(&v), v[1]);
}
";
    let bench = "fn main() {
    let v: Vec<u8> = (0..8).collect();
    let n: u8 = \"3\".parse().unwrap();
    println!(\"{}\", fixture::last(&v) + v[0] + n);
}
";
    let found = Fixture::new()
        .manifest("[[bench]]\nname = \"last\"\nharness = false\n")
        .file("src/lib.rs", &src)
        .file("tests/last.rs", test)
        .file("benches/last.rs", bench)
        .clippy();
    assert_eq!(
        sites(&found),
        [("clippy::indexing_slicing", at(&src, "v[v.len() - 1]"))]
    );
}
