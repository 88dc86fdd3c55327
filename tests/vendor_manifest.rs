//! `vendor/` holds stand-ins for external crates, and a stand-in nothing
//! depends on is code that is compiled, tested and documented for no
//! caller. This holds the directory, the workspace manifest and
//! `vendor/README.md` to one list, every entry of it to a user, and every
//! manifest row that names one to a `.rs` file of that package that does.

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn vendor_matches_manifest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| std::fs::read_to_string(path).unwrap();

    let dirs: BTreeSet<String> = std::fs::read_dir(root.join("vendor"))
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.path().is_dir())
        .map(|entry| entry.file_name().into_string().unwrap())
        .collect();
    assert!(!dirs.is_empty());

    // `name = { path = "vendor/name" … }` under [workspace.dependencies].
    let workspace = read(&root.join("Cargo.toml"));
    let rows: BTreeSet<String> = workspace
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.split_once(" = { path = \"vendor/")?;
            assert!(rest.starts_with(&format!("{name}\"")), "{line}");
            Some(name.to_owned())
        })
        .collect();
    assert_eq!(
        dirs, rows,
        "vendor/ directories vs [workspace.dependencies]"
    );

    // "| `name` | covers | diverges |" rows of the README table.
    let documented: BTreeSet<String> = read(&root.join("vendor/README.md"))
        .lines()
        .filter_map(|line| Some(line.strip_prefix("| `")?.split_once('`')?.0.to_owned()))
        .collect();
    assert_eq!(dirs, documented, "vendor/ directories vs vendor/README.md");

    // Every package: its manifest, and the `.rs` files under its source
    // directories (the root package's `crates/` is other packages).
    let mut packages = vec![(workspace, rust_sources(root, &["src", "tests", "examples"]))];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        packages.push((read(&dir.join("Cargo.toml")), rust_sources(&dir, &["."])));
    }
    for name in &rows {
        let used = format!("{name}.workspace = true");
        let users: Vec<_> = packages
            .iter()
            .filter(|(manifest, _)| manifest.lines().any(|l| l == used))
            .collect();
        assert!(
            !users.is_empty(),
            "vendor/{name} is a dependency of no crate: delete it"
        );
        // A manifest row is a claim that the package's code names the
        // crate (`parking_lot::Mutex`, `use rand::…`).
        for (manifest, sources) in users {
            let package = manifest.lines().find_map(|l| l.strip_prefix("name = "));
            assert!(
                sources.iter().any(|source| names_crate(source, name)),
                "{} lists {name} and no .rs file of it names {name}: drop the row",
                package.unwrap()
            );
        }
    }
}

/// The text of every `.rs` file under `dirs` of one package.
fn rust_sources(package: &Path, dirs: &[&str]) -> Vec<String> {
    let mut pending: Vec<_> = dirs.iter().map(|dir| package.join(dir)).collect();
    let mut sources = Vec::new();
    while let Some(dir) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.map(|entry| entry.unwrap().path()) {
            if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
                pending.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                sources.push(std::fs::read_to_string(&path).unwrap());
            }
        }
    }
    sources
}

/// `name::` somewhere in `source`, `name` a whole identifier.
fn names_crate(source: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let path = format!("{name}::");
    source
        .match_indices(&path)
        .any(|(at, _)| !source[..at].ends_with(ident))
}
