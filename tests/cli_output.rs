//! The `trajdp` binary's stdout contract: a reader that closes the pipe
//! early (`trajdp stats … | head -1`) ends the command quietly with
//! exit 0, not with a broken-pipe panic.

use std::process::{Command, Stdio};
use traj_freq_dp::model::csv::to_csv;
use traj_freq_dp::synth::{generate, GeneratorConfig};

#[test]
fn stats_exits_cleanly_when_stdout_is_closed() {
    let dir = std::env::temp_dir().join(format!("trajdp-cli-output-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("input.csv");
    let world = generate(&GeneratorConfig::tdrive_profile(5, 20, 3));
    std::fs::write(&input, to_csv(&world.dataset)).unwrap();

    // A pipe whose read end is already gone: the first write fails with
    // EPIPE (Rust ignores SIGPIPE, so the error reaches the program).
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_trajdp"))
        .args(["stats", "--input", input.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "the CLI panicked on a closed stdout:\n{stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
}
