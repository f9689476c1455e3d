//! `bosim serve` end-to-end through the built binary: corpus manifest
//! in, checkpointed sweep out — including a hard child-process
//! `SIGKILL` mid-sweep (a real dead process, not a cooperative stop)
//! followed by a resume that must reproduce the uninterrupted report
//! byte for byte. The in-process abort-hook matrix (thread counts ×
//! kill points) lives in `tests/tests/serve_resume.rs`.

use bosim_cli::dispatch;
use std::path::{Path, PathBuf};
use std::process::Command;

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bosim_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Generates the corpus traces and writes a manifest describing a
/// (2 traces × 2 paired stacks) grid; returns the manifest path.
fn write_corpus(dir: &Path, name: &str) -> PathBuf {
    for (bench, file) in [("462", "libq.champsim"), ("470", "lbm.champsim")] {
        dispatch(&strs(&[
            "gen",
            "--bench",
            bench,
            "--uops",
            "60000",
            "--format",
            "champsim",
            "--out",
            dir.join(file).to_str().unwrap(),
        ]))
        .expect("gen succeeds");
    }
    let manifest = dir.join("corpus.toml");
    std::fs::write(
        &manifest,
        format!(
            "name = \"{name}\"\n\
             instructions = 12000\n\
             warmup = 3000\n\
             [[trace]]\n\
             path = \"libq.champsim\"\n\
             [[trace]]\n\
             path = \"lbm.champsim\"\n\
             [[stack]]\n\
             stack = \"l2:bo\"\n\
             baseline = \"l2:none\"\n\
             [[stack]]\n\
             stack = \"l2:next-line\"\n\
             baseline = \"l2:none\"\n"
        ),
    )
    .expect("manifest");
    manifest
}

fn journal_rows(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|t| t.lines().count().saturating_sub(1))
        .unwrap_or(0)
}

fn read_bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn serve_cli_completes_resumes_idempotently_and_honours_abort_after() {
    let dir = scratch("cli");
    let manifest = write_corpus(&dir, "serve-cli-e2e");
    let ref_out = dir.join("ref");
    let serve_args = |out: &Path, extra: &[&str]| -> Vec<String> {
        let mut v = strs(&[
            "serve",
            "--corpus",
            manifest.to_str().unwrap(),
            "--shards",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]);
        v.extend(strs(extra));
        v
    };

    // Uninterrupted reference run, in process.
    dispatch(&serve_args(&ref_out, &[])).expect("serve completes");
    let reference = read_bytes(&ref_out.join("serve_cli_e2e.json"));
    assert!(!reference.is_empty());
    let stream = std::fs::read_to_string(ref_out.join("serve_cli_e2e.stream.jsonl")).unwrap();
    assert!(
        stream.lines().next().unwrap().contains("\"resume\""),
        "{stream}"
    );
    assert!(
        stream.lines().last().unwrap().contains("\"report\""),
        "{stream}"
    );

    // --abort-after through the real binary: exit code 1, exactly N
    // rows checkpointed, and a binary rerun resumes to the same bytes.
    let kill_out = dir.join("abort");
    let status = Command::new(env!("CARGO_BIN_EXE_bosim"))
        .args(serve_args(&kill_out, &["--abort-after", "2"]))
        .status()
        .expect("spawn bosim serve");
    assert_eq!(status.code(), Some(1), "an aborted sweep must exit 1");
    let journal = kill_out.join("serve_cli_e2e.journal.jsonl");
    assert_eq!(journal_rows(&journal), 2, "checkpoint holds exactly N rows");
    assert!(!kill_out.join("serve_cli_e2e.json").exists());
    let status = Command::new(env!("CARGO_BIN_EXE_bosim"))
        .args(serve_args(&kill_out, &[]))
        .status()
        .expect("spawn resume");
    assert!(status.success(), "resume must exit 0");
    assert_eq!(
        read_bytes(&kill_out.join("serve_cli_e2e.json")),
        reference,
        "binary kill+resume must be byte-identical to the uninterrupted run"
    );

    // A completed sweep reruns as a no-op with the same bytes.
    dispatch(&serve_args(&kill_out, &[])).expect("idempotent rerun");
    assert_eq!(read_bytes(&kill_out.join("serve_cli_e2e.json")), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_serve_process_resumes_byte_identically() {
    let dir = scratch("sigkill");
    let manifest = write_corpus(&dir, "serve-kill-e2e");

    // Uninterrupted reference.
    let ref_out = dir.join("ref");
    dispatch(&strs(&[
        "serve",
        "--corpus",
        manifest.to_str().unwrap(),
        "--shards",
        "2",
        "--out",
        ref_out.to_str().unwrap(),
    ]))
    .expect("reference serve");
    let reference = read_bytes(&ref_out.join("serve_kill_e2e.json"));

    // Launch the binary and SIGKILL it as soon as the journal shows a
    // completed row: a hard process death mid-append window, no
    // cooperative shutdown path involved.
    let out = dir.join("killed");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bosim"))
        .args(strs(&[
            "serve",
            "--corpus",
            manifest.to_str().unwrap(),
            "--shards",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn bosim serve");
    let journal = out.join("serve_kill_e2e.journal.jsonl");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        if journal_rows(&journal) >= 1 {
            break;
        }
        if child.try_wait().expect("poll child").is_some() {
            break; // tiny machine finished the whole grid first
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no journal row appeared within the deadline"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let _ = child.kill(); // SIGKILL on unix; no-op if already exited
    let _ = child.wait();

    let rows_after_kill = journal_rows(&journal);
    // Resume in process and prove nothing checkpointed was re-run:
    // the journal only grows, and the report matches the reference.
    let summary = bosim_cli::serve(
        bosim_cli::commands::sweep_experiment(
            &bosim_cli::corpus::load(&manifest).expect("manifest loads"),
        )
        .expect("experiment assembles"),
        &{
            let mut o = bosim_cli::ServeOptions::new(&out);
            o.shards = 2;
            o
        },
    )
    .expect("resume completes");
    assert_eq!(
        summary.resumed, rows_after_kill,
        "every row the killed process checkpointed is trusted"
    );
    assert_eq!(summary.ran, summary.total - rows_after_kill);
    assert_eq!(
        read_bytes(&out.join("serve_kill_e2e.json")),
        reference,
        "SIGKILL + resume must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
