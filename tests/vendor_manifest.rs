//! `vendor/` holds stand-ins for external crates, and a stand-in nothing
//! depends on is code that is compiled, tested and documented for no
//! caller. This holds the directory, the workspace manifest and
//! `vendor/README.md` to one list, and every entry of it to a user.

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

    let mut manifests = vec![workspace];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        manifests.push(read(&entry.unwrap().path().join("Cargo.toml")));
    }
    for name in &rows {
        let used = format!("{name}.workspace = true");
        assert!(
            manifests.iter().any(|m| m.lines().any(|l| l == used)),
            "vendor/{name} is a dependency of no crate: delete it"
        );
    }
}
