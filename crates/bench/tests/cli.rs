//! CLI contract tests for the `repro` binary: malformed invocations must
//! print a named error plus the usage text and exit non-zero — never panic —
//! and `--help` must exit zero.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: repro"));
    assert!(text.contains("serve options:"));
    assert!(text.contains("--max-batch"));
}

#[test]
fn help_works_in_every_subcommand() {
    for args in [
        &["sweep"][..],
        &["energy"],
        &["serve"],
        &["bench"],
        &["table1"],
        &["fleet"],
        &["fleet", "serve"],
        &["fleet", "sweep"],
        &["fleet", "status"],
        &["trace"],
        &["trace", "record"],
        &["trace", "replay"],
        &["trace", "stat"],
        &["trace", "golden"],
        &["analyze"],
        &["worker"],
    ] {
        for help in ["--help", "-h"] {
            let mut argv = args.to_vec();
            argv.push(help);
            let out = repro(&argv);
            assert!(out.status.success(), "{argv:?}: {}", stderr(&out));
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(text.contains("usage: repro"), "{argv:?}: {text}");
        }
    }
}

#[test]
fn unknown_options_fail_with_a_named_error() {
    let out = repro(&["--frobnicate"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown option '--frobnicate'"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
}

#[test]
fn unknown_commands_fail_with_a_named_error() {
    let out = repro(&["table99"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown command 'table99'"), "{err}");
}

#[test]
fn malformed_values_name_the_flag_and_the_value() {
    for (args, needle) in [
        (
            &["--workers", "zero"][..],
            "invalid value 'zero' for --workers",
        ),
        (&["--workers", "0"], "invalid value '0' for --workers"),
        (&["--max-batch", "-3"], "invalid value '-3' for --max-batch"),
        (&["--size", "huge"], "invalid value 'huge' for --size"),
        (
            &["--schemes", "3bit,warp"],
            "invalid value '3bit,warp' for --schemes",
        ),
        (
            &["--orgs", "warp-drive"],
            "invalid value 'warp-drive' for --orgs",
        ),
        (&["--mems", "ram"], "invalid value 'ram' for --mems"),
        (
            &["--energy-model", "paper-180nm,3nm"],
            "invalid value 'paper-180nm,3nm' for --energy-model",
        ),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage: repro"), "{args:?}: {err}");
    }
}

#[test]
fn options_missing_their_value_are_reported() {
    for flag in [
        "--size",
        "--workers",
        "--schemes",
        "--cache",
        "--addr",
        "--max-batch",
    ] {
        let out = repro(&[flag]);
        assert!(!out.status.success(), "{flag} must fail");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("{flag} expects a value")),
            "{flag}: {err}"
        );
    }
}

#[test]
fn subcommand_flags_without_their_subcommand_are_rejected() {
    for (args, needle) in [
        (
            &["--csv", "out.csv", "table1"][..],
            "--csv only applies to the sweep, fleet sweep and analyze subcommands",
        ),
        (
            &["serve", "--schemes", "3bit"],
            "--schemes only applies to the sweep, fleet sweep, energy and trace replay subcommands",
        ),
        (
            &["sweep", "--addr", "127.0.0.1:1"],
            "--addr only applies to the serve and fleet serve subcommands",
        ),
        (
            &["energy", "--energy-model", "modern-7nm"],
            "--energy-model only applies to the sweep, fleet sweep and trace replay subcommands",
        ),
        (
            &["--size", "tiny", "table1", "--workers", "2"],
            "--workers only applies to the sweep, fleet sweep, energy, serve, fleet serve and worker \
             subcommands",
        ),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn trace_without_a_subcommand_fails_with_a_named_error() {
    let out = repro(&["trace"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("trace expects a subcommand"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");

    let out = repro(&["trace", "frobnicate"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown trace subcommand 'frobnicate'"),
        "{}",
        stderr(&out)
    );

    // A misplaced `trace` gets a pointed error, not a misleading
    // "unknown option" from the global flag loop.
    let out = repro(&[
        "--size",
        "tiny",
        "trace",
        "record",
        "rawcaudio",
        "--out",
        "x",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("'trace' must be the first argument"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn trace_record_argument_errors_are_named() {
    for (args, needle) in [
        (
            &["trace", "record", "rawcaudio"][..],
            "trace record requires --out",
        ),
        (
            &["trace", "record", "--out", "x.sctrace"],
            "trace record expects a workload name or --all",
        ),
        (
            &["trace", "record", "a", "b", "--out", "x.sctrace"],
            "exactly one workload",
        ),
        (
            &["trace", "record", "--all", "rawcaudio", "--out", "x"],
            "mutually exclusive",
        ),
        (
            &["trace", "record", "rawcaudio", "--size"],
            "--size expects a value",
        ),
        (
            &[
                "trace",
                "record",
                "rawcaudio",
                "--size",
                "huge",
                "--out",
                "x",
            ],
            "invalid value 'huge' for --size",
        ),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn trace_replay_value_errors_read_as_sweep_does() {
    // The first stderr line is the named error; the usage text follows.
    let error = |args: &[&str]| -> String {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        stderr(&out).lines().next().unwrap_or_default().to_owned()
    };
    for flag in ["--schemes", "--orgs", "--mems", "--energy-model"] {
        let sweep = error(&["sweep", flag, "bogus"]);
        assert!(sweep.contains("(expected "), "{sweep}");
        assert_eq!(
            error(&["trace", "replay", "f.sctrace", flag, "bogus"]),
            sweep
        );
    }

    // Sweep evaluates a list of energy models; a replay evaluates one.
    let err = error(&[
        "trace",
        "replay",
        "f.sctrace",
        "--energy-model",
        "paper-180nm,modern-7nm",
    ]);
    assert!(
        err.contains(
            "invalid value 'paper-180nm,modern-7nm' for --energy-model \
             (trace replay evaluates one model)"
        ),
        "{err}"
    );
}

#[test]
fn trace_replay_and_stat_fail_cleanly_on_missing_and_corrupt_files() {
    let dir = temp_dir("corrupt");
    let missing = dir.join("nope.sctrace");
    for verb in ["replay", "stat"] {
        let out = repro(&["trace", verb, missing.to_str().unwrap()]);
        assert!(!out.status.success(), "{verb} on a missing file must fail");
        let err = stderr(&out);
        assert!(err.contains("cannot read"), "{verb}: {err}");
    }

    let garbage = dir.join("garbage.sctrace");
    std::fs::write(&garbage, "not a trace at all\n").unwrap();
    for verb in ["replay", "stat"] {
        let out = repro(&["trace", verb, garbage.to_str().unwrap()]);
        assert!(!out.status.success(), "{verb} on garbage must fail");
        let err = stderr(&out);
        assert!(err.contains("bad magic"), "{verb}: {err}");
    }

    // A structurally-valid header with a corrupted payload must also fail
    // (the digest guards it), not silently replay wrong data.
    let recorded = dir.join("ok.sctrace");
    let out = repro(&[
        "trace",
        "record",
        "rawcaudio",
        "--size",
        "tiny",
        "--out",
        recorded.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let mut bytes = std::fs::read(&recorded).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    let tampered = dir.join("tampered.sctrace");
    std::fs::write(&tampered, bytes).unwrap();
    let out = repro(&["trace", "stat", tampered.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("digest"), "{}", stderr(&out));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Replays and sweeps a checked-in hostile header: both must fail with the
/// named record-count error `trace stat` gives, never abort or panic.
fn assert_hostile_trace_is_a_named_error(name: &str) {
    let path = format!(
        "{}/../../tests/data/fuzz/{name}.sctrace",
        env!("CARGO_MANIFEST_DIR")
    );
    let stat = repro(&["trace", "stat", &path]);
    assert!(!stat.status.success());
    let named = "record stream truncated inside record 2827";
    assert!(stderr(&stat).contains(named), "stat: {}", stderr(&stat));
    for args in [
        vec!["trace", "replay", path.as_str()],
        vec![
            "--size",
            "tiny",
            "sweep",
            "--no-cache",
            "--traces",
            path.as_str(),
        ],
    ] {
        let out = repro(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn a_huge_declared_record_count_is_a_named_error() {
    assert_hostile_trace_is_a_named_error("pgp-records-huge");
}

#[test]
fn a_u64_max_declared_record_count_is_a_named_error() {
    assert_hostile_trace_is_a_named_error("pgp-records-max");
}

#[test]
fn trace_record_stat_replay_round_trip() {
    let dir = temp_dir("roundtrip");
    let path = dir.join("rawcaudio.sctrace");
    let out = repro(&[
        "trace",
        "record",
        "rawcaudio",
        "--size",
        "tiny",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("recorded rawcaudio (tiny)"), "{text}");

    let out = repro(&["trace", "stat", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("records"), "{text}");
    assert!(text.contains("payload verified"), "{text}");

    let out = repro(&[
        "trace",
        "replay",
        path.to_str().unwrap(),
        "--schemes",
        "3bit",
        "--orgs",
        "baseline32,byte-serial",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("replaying rawcaudio"), "{text}");
    assert!(
        text.contains("rawcaudio/byte-serial/3bit/paper/trace"),
        "{text}"
    );

    let out = repro(&["trace", "record", "unknown-kernel", "--out", "x.sctrace"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown workload 'unknown-kernel'"),
        "{}",
        stderr(&out)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_traces_flag_is_sweep_only_and_fails_cleanly_on_missing_files() {
    let out = repro(&["table1", "--traces", "x.sctrace"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out)
            .contains("--traces only applies to the sweep, fleet sweep and worker subcommands"),
        "{}",
        stderr(&out)
    );

    let out = repro(&[
        "sweep",
        "--no-cache",
        "--traces",
        "definitely-missing.sctrace",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("cannot read trace definitely-missing.sctrace"),
        "{err}"
    );
}

#[test]
fn energy_compares_every_process_node_preset() {
    let out = repro(&[
        "--size",
        "tiny",
        "energy",
        "--no-cache",
        "--workers",
        "2",
        "--schemes",
        "3bit",
        "--orgs",
        "baseline32,byte-serial,compressed",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("Total-energy saving by process node"),
        "{text}"
    );
    for preset in ["paper-180nm", "generic-45nm", "modern-7nm"] {
        assert!(text.contains(&format!("frontier under {preset}")), "{text}");
    }
    assert!(text.contains("3bit/compressed/paper/tiny"), "{text}");
}

#[test]
fn sweep_energy_model_flag_prints_one_frontier_per_preset() {
    let out = repro(&[
        "--size",
        "tiny",
        "sweep",
        "--no-cache",
        "--workers",
        "2",
        "--schemes",
        "3bit",
        "--orgs",
        "baseline32,byte-serial",
        "--energy-model",
        "paper-180nm,modern-7nm",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("energy model: paper-180nm"), "{text}");
    assert!(text.contains("energy model: modern-7nm"), "{text}");
    // The dynamic-only preset prints the paper-era columns, the leaky one
    // the extended set.
    assert!(text.contains("energy saving"), "{text}");
    assert!(text.contains("total saving"), "{text}");
    assert!(text.contains("leakage saving"), "{text}");
}

#[test]
fn empty_sweeps_fail_cleanly() {
    let out = repro(&["--size", "tiny", "sweep", "--no-cache", "--orgs", ""]);
    assert!(!out.status.success());
    // "" parses as an unknown organization → named error, not a panic.
    assert!(stderr(&out).contains("invalid value '' for --orgs"));
}

#[test]
fn serve_fails_cleanly_on_an_unbindable_address() {
    let out = repro(&["serve", "--addr", "256.0.0.1:1", "--no-cache"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot bind listener"));
}

#[test]
fn shards_flag_is_validated_and_sweep_only() {
    for (args, needle) in [
        (
            &["--size", "tiny", "sweep", "--shards", "0"][..],
            "invalid value '0' for --shards",
        ),
        (
            &["--size", "tiny", "sweep", "--shards", "three"],
            "invalid value 'three' for --shards",
        ),
        (&["sweep", "--shards"], "--shards expects a value"),
        (
            &["table1", "--shards", "2"],
            "--shards only applies to the sweep subcommand",
        ),
        (
            &["--size", "tiny", "sweep", "--no-cache", "--shards", "2"],
            "--shards requires the result cache",
        ),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}

#[test]
fn worker_argument_errors_are_named() {
    let dir = temp_dir("worker-args");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    for (args, needle) in [
        (&["worker"][..], "worker requires --cache DIR"),
        (&["worker", "--cache"], "--cache expects a value"),
        (
            &["worker", "--cache", cache, "--workers", "0"],
            "invalid value '0' for --workers",
        ),
        (
            &["worker", "--cache", cache, "--frobnicate"],
            "unknown worker option '--frobnicate'",
        ),
        (
            &["worker", "--cache", cache, "--traces", ","],
            "invalid value ',' for --traces (expected a comma-separated list of .sctrace paths)",
        ),
        (
            &["--size", "tiny", "worker", "--cache", cache],
            "'worker' must be the first argument",
        ),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_rejects_malformed_job_lines_from_stdin() {
    use std::io::Write as _;
    let dir = temp_dir("worker-stdin");
    let cache = dir.join("cache");
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["worker", "--cache", cache.to_str().unwrap()])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("worker spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"sigcomp-fleet v1 dispatch jobs=2\n\
              kernel rawcaudio tiny paper 3bit byte-serial\ngarbage line\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "malformed job lines must fail");
    let err = stderr(&out);
    assert!(err.contains("bad job line 'garbage line'"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_and_unspawnable_worker_children_produce_named_errors() {
    // A worker that dies (/bin/false via the REPRO_WORKER launcher
    // override), answers with something other than a report (/bin/echo
    // exits 0 after printing its arguments), or cannot be spawned at all
    // must surface as a named failure with a failing exit code, never a
    // hang or a partial merge.
    let dir = temp_dir("dead-worker");
    let cache = dir.join("cache");
    for (worker, needle) in [
        ("/bin/false", "worker shard 0/2 failed"),
        ("/bin/echo", "worker shard 0/2 protocol violation"),
        ("/definitely/not/a/binary", "cannot spawn worker shard 0/2"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "--size",
                "tiny",
                "sweep",
                "--shards",
                "2",
                "--schemes",
                "3bit",
                "--orgs",
                "baseline32",
                "--cache",
                cache.to_str().unwrap(),
            ])
            .env("REPRO_WORKER", worker)
            .output()
            .expect("repro runs");
        assert!(!out.status.success(), "{worker} must fail the sweep");
        let err = stderr(&out);
        assert!(err.contains(needle), "{worker}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_sweeps_are_byte_identical_to_single_process_runs() {
    let dir = temp_dir("sharded-equiv");
    let cache = dir.join("cache");
    let single_csv = dir.join("single.csv");
    let single_json = dir.join("single.json");
    let sharded_csv = dir.join("sharded.csv");
    let sharded_json = dir.join("sharded.json");

    let base = [
        "--size",
        "tiny",
        "sweep",
        "--schemes",
        "3bit",
        "--orgs",
        "baseline32,byte-serial",
    ];
    let mut single = base.to_vec();
    single.extend(["--no-cache", "--csv", single_csv.to_str().unwrap()]);
    single.extend(["--json", single_json.to_str().unwrap()]);
    let out = repro(&single);
    assert!(out.status.success(), "{}", stderr(&out));

    let mut sharded = base.to_vec();
    sharded.extend(["--shards", "3", "--cache", cache.to_str().unwrap()]);
    sharded.extend(["--csv", sharded_csv.to_str().unwrap()]);
    sharded.extend(["--json", sharded_json.to_str().unwrap()]);
    let out = repro(&sharded);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("ran on 3 worker processes"), "{text}");

    // The merge invariant: for any shard count, merged exports are
    // byte-identical to the single-process sweep.
    assert_eq!(
        std::fs::read(&single_csv).unwrap(),
        std::fs::read(&sharded_csv).unwrap(),
        "sharded CSV must be byte-identical"
    );
    assert_eq!(
        std::fs::read(&single_json).unwrap(),
        std::fs::read(&sharded_json).unwrap(),
        "sharded JSON must be byte-identical"
    );

    // A warm rerun with a different shard count answers everything from the
    // shared cache and still exports the same bytes.
    let rerun_csv = dir.join("rerun.csv");
    let mut rerun = base.to_vec();
    rerun.extend(["--shards", "2", "--cache", cache.to_str().unwrap()]);
    rerun.extend(["--csv", rerun_csv.to_str().unwrap()]);
    let out = repro(&rerun);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("0 simulated, 22 from cache"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_trace_sweeps_are_byte_identical_to_single_process_runs() {
    // Trace-file jobs ride the same dispatch grammar: each worker resolves
    // their digests from the forwarded --traces files.
    let dir = temp_dir("sharded-traces");
    let cache = dir.join("cache");
    let traces = ["gsmencode", "pgp", "rawcaudio", "rawdaudio"]
        .map(|name| {
            format!(
                "{}/../../tests/data/{name}.sctrace",
                env!("CARGO_MANIFEST_DIR")
            )
        })
        .join(",");
    let base = [
        "--size",
        "tiny",
        "sweep",
        "--schemes",
        "3bit",
        "--orgs",
        "baseline32,byte-serial",
        "--traces",
        &traces,
    ];
    let run = |tag: &str, extra: &[&str]| -> (Vec<u8>, Vec<u8>) {
        let csv = dir.join(format!("{tag}.csv"));
        let json = dir.join(format!("{tag}.json"));
        let mut args = base.to_vec();
        args.extend(extra);
        args.extend(["--csv", csv.to_str().unwrap()]);
        args.extend(["--json", json.to_str().unwrap()]);
        let out = repro(&args);
        assert!(out.status.success(), "{tag}: {}", stderr(&out));
        (std::fs::read(&csv).unwrap(), std::fs::read(&json).unwrap())
    };
    let (single_csv, single_json) = run("single", &["--no-cache"]);
    let (sharded_csv, sharded_json) = run(
        "sharded",
        &["--shards", "2", "--cache", cache.to_str().unwrap()],
    );
    assert_eq!(
        single_csv, sharded_csv,
        "sharded CSV must be byte-identical"
    );
    assert_eq!(
        single_json, sharded_json,
        "sharded JSON must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_backend_flag_is_validated() {
    for (args, needle) in [
        (
            &["serve", "--backend", "warp"][..],
            "invalid value 'warp' for --backend",
        ),
        (
            &["serve", "--backend", "subprocess:0"],
            "invalid value 'subprocess:0' for --backend",
        ),
        (
            &["serve", "--no-cache", "--backend", "subprocess:2"],
            "--backend subprocess requires the result cache",
        ),
        (
            &["table1", "--backend", "local"],
            "--backend only applies to the serve and fleet serve subcommands",
        ),
        (
            &["table1", "--memo-cap", "10"],
            "--memo-cap only applies to the serve and fleet serve subcommands",
        ),
        (
            &["serve", "--memo-cap", "0"],
            "invalid value '0' for --memo-cap",
        ),
        (
            &["serve", "--ticket-cap", "-1"],
            "invalid value '-1' for --ticket-cap",
        ),
        (
            &["serve", "--max-conns", "0"],
            "invalid value '0' for --max-conns",
        ),
        (
            &["serve", "--read-deadline-ms", "never"],
            "invalid value 'never' for --read-deadline-ms",
        ),
        (
            &["serve", "--keep-alive", "on"],
            "unknown option '--keep-alive'",
        ),
        (
            &["table1", "--max-conns", "64"],
            "--max-conns only applies to the serve and fleet serve subcommands",
        ),
        (
            &["table1", "--read-deadline-ms", "500"],
            "--read-deadline-ms only applies to the serve and fleet serve subcommands",
        ),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}

#[test]
fn serve_on_the_subprocess_backend_answers_and_counts_dispatch() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("serve-subprocess");
    let cache = dir.join("cache");
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--backend",
            "subprocess:2",
            "--cache",
            cache.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");

    // The banner names the bound address (port 0 picks a free one).
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        if stdout.read_line(&mut line).unwrap() == 0 {
            let _ = child.kill();
            panic!("serve exited before printing its address");
        }
        if let Some(rest) = line.trim().strip_prefix("serving on http://") {
            break rest.to_owned();
        }
    };

    let client = sigcomp_fabric::HttpClient::new(std::time::Duration::from_mins(2));

    // A simulation served through sharded worker subprocesses...
    let simulate = client
        .post(
            &addr,
            "/simulate",
            "{\"workload\": \"rawcaudio\", \"size\": \"tiny\"}",
        )
        .expect("simulate");
    assert_eq!(simulate.status, 200, "{}", simulate.body);
    assert!(simulate.body.contains("\"cycles\": "), "{}", simulate.body);

    // ...is what the dispatch counters must attribute to the subprocess
    // backend.
    let metrics = client.get(&addr, "/metrics").expect("metrics").body;
    assert!(
        metrics.contains("\"dispatch\": {\"fleet\": 0, \"local\": 0, \"subprocess\": 1}"),
        "{metrics}"
    );

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_obs_totals_match_the_single_process_run() {
    // The merged observability registry of a sharded sweep must report the
    // same replay/cache counters as the single-process run — shard
    // attribution may differ, the totals may not.
    let dir = temp_dir("obs-totals");
    let base = [
        "--size",
        "tiny",
        "sweep",
        "--schemes",
        "3bit",
        "--orgs",
        "baseline32,byte-serial",
    ];
    let obs_line = |stdout: &[u8], tag: &str| -> String {
        let text = String::from_utf8_lossy(stdout).into_owned();
        text.lines()
            .find(|l| l.starts_with("obs totals: "))
            .unwrap_or_else(|| panic!("{tag}: no obs totals line in:\n{text}"))
            .to_owned()
    };
    let cache_line = |stdout: &[u8]| -> Option<String> {
        String::from_utf8_lossy(stdout)
            .lines()
            .find(|l| l.starts_with("cache: "))
            .map(str::to_owned)
    };

    let single_cache = dir.join("single-cache");
    let mut single = base.to_vec();
    single.extend(["--cache", single_cache.to_str().unwrap()]);
    let out = repro(&single);
    assert!(out.status.success(), "{}", stderr(&out));
    let single_totals = obs_line(&out.stdout, "single");
    assert!(
        single_totals.contains("replay.jobs_simulated=22"),
        "{single_totals}"
    );
    assert!(
        single_totals.contains("explore.cache.store=22"),
        "{single_totals}"
    );
    let single_cache_stats = cache_line(&out.stdout).expect("single run prints cache stats");

    let sharded_cache = dir.join("sharded-cache");
    let obs_log = dir.join("events.jsonl");
    let mut sharded = base.to_vec();
    sharded.extend(["--shards", "3", "--cache", sharded_cache.to_str().unwrap()]);
    sharded.extend(["--obs-log", obs_log.to_str().unwrap()]);
    let out = repro(&sharded);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(single_totals, obs_line(&out.stdout, "sharded"));
    assert_eq!(Some(single_cache_stats), cache_line(&out.stdout));

    // --obs-log on a sharded sweep streams events per process: the parent
    // file plus one `.shard-<i>` file per worker, each led by the header.
    for path in [
        obs_log.clone(),
        obs_log.with_extension("jsonl.shard-0"),
        obs_log.with_extension("jsonl.shard-2"),
    ] {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            text.starts_with("{\"obs_log\": \"sigcomp-obs v1\"}"),
            "{}: {text}",
            path.display()
        );
    }
    let shard0 = std::fs::read_to_string(obs_log.with_extension("jsonl.shard-0")).unwrap();
    assert!(shard0.contains("\"span\": \"replay.job\""), "{shard0}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_quick_emits_a_schema_valid_report_and_check_validates_it() {
    let dir = temp_dir("bench-quick");
    let report = dir.join("bench.json");
    let trajectory = dir.join("trajectory.json");
    let out = repro(&[
        "bench",
        "--quick",
        "--label",
        "smoke",
        "--out",
        report.to_str().unwrap(),
        "--trajectory",
        trajectory.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("bench: label smoke (quick)"), "{text}");
    assert!(text.contains("replay:"), "{text}");
    assert!(text.contains("frontier:"), "{text}");
    assert!(text.contains("appended to"), "{text}");
    let traj = std::fs::read_to_string(&trajectory).expect("trajectory written");
    assert!(
        traj.contains("\"schema\": \"sigcomp-bench-trajectory v1\""),
        "{traj}"
    );
    assert!(traj.contains("{\"label\": \"smoke\""), "{traj}");

    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"schema\": \"sigcomp-bench v1\""), "{json}");
    assert!(json.contains("\"label\": \"smoke\""), "{json}");
    sigcomp_bench::perf::validate(&json).expect("report validates");

    // `bench --check` accepts the emitted report...
    let out = repro(&["bench", "--check", report.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("valid sigcomp-bench v1 report"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // ...and names the violation on a broken one.
    let broken = dir.join("broken.json");
    std::fs::write(&broken, json.replace("\"quick\": true", "\"quick\": 3")).unwrap();
    let out = repro(&["bench", "--check", broken.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("\"quick\" is not a boolean"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_and_obs_flags_are_scoped_to_their_subcommands() {
    for (args, needle) in [
        (
            &["table1", "--quick"][..],
            "--quick only applies to the bench subcommand",
        ),
        (
            &["table1", "--label", "x"],
            "--label only applies to the bench subcommand",
        ),
        (
            &["sweep", "--check", "x.json"],
            "--check only applies to the bench subcommand",
        ),
        (
            &["table1", "--obs-log", "x.jsonl"],
            "--obs-log only applies to the sweep, fleet sweep, serve, fleet serve, bench and worker \
             subcommands",
        ),
        (&["bench", "--label"], "--label expects a value"),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}

#[test]
fn analyze_prints_the_static_width_picture_and_exports() {
    let dir = temp_dir("analyze");
    let csv = dir.join("widths.csv");
    let json = dir.join("widths.json");
    let out = repro(&[
        "analyze",
        "rawcaudio",
        "--size",
        "tiny",
        "--csv",
        csv.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("static width analysis"), "{text}");
    assert!(text.contains("Static width bounds"), "{text}");
    assert!(text.contains("predicted saving"), "{text}");
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(
        csv_text.starts_with("op,count,mean_operand_bytes,result_bound\n"),
        "{csv_text}"
    );
    assert!(csv_text.lines().last().unwrap().starts_with("total,"));
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"mean_bound_bytes\""), "{json_text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_verifies_trace_files_against_the_reconstructed_bounds() {
    let dir = temp_dir("analyze-trace");
    let path = dir.join("rawcaudio.sctrace");
    let out = repro(&[
        "trace",
        "record",
        "rawcaudio",
        "--size",
        "tiny",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = repro(&["analyze", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("program reconstructed from"), "{text}");
    assert!(
        text.contains("against the static bounds"),
        "every record must be differentially verified: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_argument_errors_are_named_and_fail() {
    let out = repro(&["analyze"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("analyze expects a workload name"),
        "{}",
        stderr(&out)
    );

    let out = repro(&["analyze", "no-such-workload"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown workload 'no-such-workload'"), "{err}");
    assert!(err.contains("rawcaudio"), "must list the suite: {err}");

    let out = repro(&["analyze", "definitely-missing.sctrace"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("cannot read trace definitely-missing.sctrace"),
        "{}",
        stderr(&out)
    );

    let dir = temp_dir("analyze-garbage");
    let garbage = dir.join("garbage.sctrace");
    std::fs::write(&garbage, "not a trace at all\n").unwrap();
    let out = repro(&["analyze", garbage.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad magic"), "{}", stderr(&out));

    let out = repro(&["analyze", "rawcaudio", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown analyze option '--frobnicate'"),
        "{}",
        stderr(&out)
    );

    let out = repro(&["table1", "analyze"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("'analyze' must be the first argument"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn trace_stat_prints_the_shared_significance_histogram() {
    let dir = temp_dir("stat-histogram");
    let path = dir.join("rawcaudio.sctrace");
    let out = repro(&[
        "trace",
        "record",
        "rawcaudio",
        "--size",
        "tiny",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = repro(&["trace", "stat", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("significant-byte patterns"), "{text}");
    assert!(text.contains("cumulative"), "{text}");
    assert!(text.contains("payload verified"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn static_prune_flag_is_validated_and_sweep_only() {
    let out = repro(&["table1", "--static-prune", "50"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--static-prune only applies to the sweep and fleet sweep"),
        "{}",
        stderr(&out)
    );

    for bad in ["lots", "-3", "NaN"] {
        let out = repro(&["sweep", "--static-prune", bad]);
        assert!(!out.status.success(), "--static-prune {bad} must fail");
        assert!(
            stderr(&out).contains(&format!("invalid value '{bad}' for --static-prune")),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn static_prune_preserves_the_merge_invariant() {
    let dir = temp_dir("static-prune");
    let full_csv = dir.join("full.csv");
    let pruned_csv = dir.join("pruned.csv");
    let base = [
        "--size",
        "tiny",
        "sweep",
        "--no-cache",
        "--schemes",
        "3bit",
        "--orgs",
        "baseline32,byte-serial",
    ];

    let mut full = base.to_vec();
    full.extend(["--csv", full_csv.to_str().unwrap()]);
    let out = repro(&full);
    assert!(out.status.success(), "{}", stderr(&out));

    // Threshold 0 prunes nothing: the export must be byte-identical.
    let mut zero = base.to_vec();
    zero.extend(["--static-prune", "0", "--csv", pruned_csv.to_str().unwrap()]);
    let out = repro(&zero);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&full_csv).unwrap(),
        std::fs::read(&pruned_csv).unwrap(),
        "threshold 0 must not change the export"
    );

    // An impossible threshold prunes every non-baseline configuration; the
    // pruned jobs are reported explicitly and every surviving row is
    // byte-identical to the corresponding row of the full run.
    let mut tight = base.to_vec();
    tight.extend([
        "--static-prune",
        "101",
        "--csv",
        pruned_csv.to_str().unwrap(),
    ]);
    let out = repro(&tight);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("static prune"), "{text}");
    assert!(text.contains("pruned rawcaudio/byte-serial/3bit"), "{text}");

    let full_lines: Vec<String> = std::fs::read_to_string(&full_csv)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    let pruned_lines: Vec<String> = std::fs::read_to_string(&pruned_csv)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert!(
        pruned_lines.len() < full_lines.len(),
        "something was pruned"
    );
    for line in &pruned_lines {
        assert!(
            full_lines.contains(line),
            "kept row must be byte-identical to the full run: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
