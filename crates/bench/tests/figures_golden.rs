//! `figures` prints every virtual-time table the repository reports;
//! `figures_output.txt` is its committed output. Any change to a cost
//! model, a schedule or a control decision moves a line and fails here.
//! Regenerate with `cargo run -p northup-bench --bin figures >
//! figures_output.txt` and justify the moved lines in the PR.

use std::process::Command;

#[test]
fn figures_match_the_committed_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .output()
        .expect("run figures");
    assert!(out.status.success(), "figures exited with {}", out.status);
    let got = String::from_utf8(out.stdout).expect("figures prints UTF-8");
    let want = include_str!("../../../figures_output.txt");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "figures_output.txt line {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}
