//! The converse of `naming::unregistered`: every `naming::REGISTRY` row
//! names something that program code can emit. A row whose only emit
//! sites are tests (or none at all) documents an instrument no run ever
//! produces, so it fails here.
//!
//! The scan reads `crates/*/src/**/*.rs` as text, leaving out the
//! registry itself, each file's `#[cfg(test)] mod tests` tail and the
//! files a `#[cfg(test)] mod name;` pulls in. A row has an emit site when
//! some string literal there matches its template segment by segment,
//! where a `{…}` template segment matches any `{…}` segment of the
//! literal (`votes/{lf}` matches the `format!` literal `"votes/{}"`).
//! Comments are skipped, so a name that only a doc mentions does not
//! count. Families are not told apart: a literal emits its name for any
//! family that registers it.

use drybell::obs::naming::REGISTRY;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

#[test]
fn every_registry_row_has_an_emit_site_outside_test_code() {
    // The scanner itself, on a sample of what it must tell apart.
    let src = r##"
        // "comment/name"
        /* "block/name" */
        fn f<'a>(x: &'a str) -> char {
            let _ = ("plain/name", b"bytes/name", r#"raw/"name"#, '"', '\'', '\u{22}');
            'x'
        }
    "##;
    assert_eq!(
        string_literals(src),
        ["plain/name", "bytes/name", "raw/\"name"]
    );
    assert!(emits("votes/{lf}", "votes/{}"));
    assert!(emits("lf/{lf}/degraded", "lf/{name}/degraded"));
    assert!(!emits("votes/{lf}", "votes/kw_spam"));
    assert!(!emits("run/fit", "run"));
    assert_eq!(
        non_test_part("a\n#[cfg(test)]\nmod tests {\n\"x\"\n}\n"),
        "a\n"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut literals = BTreeSet::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    for src in crates {
        for file in program_files(&src) {
            let text = std::fs::read_to_string(&file).unwrap();
            literals.extend(string_literals(non_test_part(&text)));
        }
    }
    assert!(
        literals.len() > 100,
        "the scan found only {} literals",
        literals.len()
    );
    let silent: Vec<_> = REGISTRY
        .iter()
        .filter(|spec| !literals.iter().any(|lit| emits(spec.template, lit)))
        .map(|spec| format!("{} {}", spec.family.as_str(), spec.template))
        .collect();
    assert!(
        silent.is_empty(),
        "registry rows with no emit site outside test code: {silent:?}"
    );
}

/// The `.rs` files under `dir`, recursively, without `naming.rs` and
/// without the files a `#[cfg(test)] mod name;` declaration includes.
fn program_files(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    entries.sort();
    let mut test_only = BTreeSet::new();
    for path in &entries {
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(path).unwrap();
            let mut lines = text.lines().map(str::trim);
            while let Some(line) = lines.next() {
                if line == "#[cfg(test)]" {
                    if let Some(name) = lines
                        .next()
                        .and_then(|l| l.strip_prefix("mod "))
                        .and_then(|l| l.strip_suffix(';'))
                    {
                        test_only.insert(dir.join(format!("{name}.rs")));
                    }
                }
            }
        }
    }
    let mut files = Vec::new();
    for path in entries {
        if path.is_dir() {
            files.extend(program_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs")
            && !path.ends_with("naming.rs")
            && !test_only.contains(&path)
        {
            files.push(path);
        }
    }
    files
}

/// `text` up to its `#[cfg(test)] mod tests {` tail, if it has one.
fn non_test_part(text: &str) -> &str {
    let mut offset = 0;
    let mut lines = text.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        if line.trim() == "#[cfg(test)]"
            && lines
                .peek()
                .is_some_and(|next| next.trim() == "mod tests {")
        {
            return &text[..offset];
        }
        offset += line.len();
    }
    text
}

/// The contents of the string literals in Rust source `text` (plain,
/// byte and raw), with comments, character literals and lifetimes
/// skipped. Escapes are kept as written; no registered name has one.
fn string_literals(text: &str) -> Vec<String> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let ident_before = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                i = text[i..].find('\n').map_or(b.len(), |n| i + n);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i = text[i + 2..].find("*/").map_or(b.len(), |n| i + n + 4);
            }
            b'r' if !ident_before && matches!(b.get(i + 1), Some(b'"' | b'#')) => {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                let open = i + 1 + hashes;
                if b.get(open) != Some(&b'"') {
                    i += 1;
                    continue;
                }
                let close = format!("\"{}", "#".repeat(hashes));
                let end = text[open + 1..]
                    .find(&close)
                    .map_or(b.len(), |n| open + 1 + n);
                out.push(text[open + 1..end].to_string());
                i = end + close.len();
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                out.push(text[i + 1..j.min(b.len())].to_string());
                i = j + 1;
            }
            b'\'' => {
                // `'\n'` or `'"'` is a character; `'a` alone is a lifetime.
                i += if b.get(i + 1) == Some(&b'\\') {
                    text[i + 3..].find('\'').map_or(b.len(), |n| n + 4)
                } else {
                    let width = text[i + 1..].chars().next().map_or(1, char::len_utf8);
                    if b.get(i + 1 + width) == Some(&b'\'') {
                        width + 2
                    } else {
                        1
                    }
                };
            }
            _ => i += 1,
        }
    }
    out
}

/// Whether the literal `lit` emits a name `template` registers.
fn emits(template: &str, lit: &str) -> bool {
    let placeholder = |s: &str| s.starts_with('{') && s.ends_with('}');
    let (t, l): (Vec<&str>, Vec<&str>) = (template.split('/').collect(), lit.split('/').collect());
    t.len() == l.len()
        && t.iter().zip(&l).all(|(ts, ls)| {
            if placeholder(ts) {
                placeholder(ls)
            } else {
                ts == ls
            }
        })
}
