//! The path matrix (`support::paths::TABLE`): every way to a report, run
//! over a fixed seed set. This file runs the rows no other suite is known
//! by, and checks that every row's view is a test that runs it.

mod support;

use support::paths::{view, TABLE};

#[test]
fn generated() {
    view("paths::generated");
}

#[test]
fn crawled() {
    view("paths::crawled");
}

#[test]
fn archived_256() {
    view("paths::archived_256");
}

#[test]
fn archived_97() {
    view("paths::archived_97");
}

#[test]
fn archived_1() {
    view("paths::archived_1");
}

#[test]
fn memo() {
    view("paths::memo");
}

/// A row's view `file::test` is a test of `tests/file.rs` that runs it.
#[test]
fn every_row_is_run_by_its_view() {
    for row in TABLE {
        let (file, test) = row.view.split_once("::").expect("file::test");
        let path = format!("{}/tests/{file}.rs", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("the view's suite");
        // Whitespace and a trailing comma aside, however rustfmt breaks
        // the call.
        let text = text
            .split_whitespace()
            .collect::<String>()
            .replace(",)", ")");
        let view = format!("view(\"{}\");}}", row.view);
        assert!(
            [
                format!("fn{test}(){{{view}"),
                format!("fn{test}(){{paths::{view}")
            ]
            .iter()
            .any(|body| text.contains(body.as_str())),
            "{}: no test in {path} runs it",
            row.view
        );
    }
}
