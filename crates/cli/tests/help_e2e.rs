//! Every subcommand answers `--help` with the usage text and exit 0, and
//! rejects an unknown flag with exit 1 and a message naming the flag.
//! Runs the real binary so the exit codes are the ones a shell sees.

use std::process::Command;

/// Each subcommand with the positionals it requires before any flag.
const SUBCOMMANDS: [(&str, &[&str]); 11] = [
    ("info", &["deck.sp"]),
    ("noise", &["deck.sp"]),
    ("delay", &["deck.sp"]),
    ("reduce", &["deck.sp"]),
    ("audit", &[]),
    ("sweep", &[]),
    ("serve", &[]),
    ("screen", &["deck.sp"]),
    ("top", &[]),
    ("bench-diff", &["old.json", "new.json"]),
    ("optimize", &[]),
];

fn xtalk(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtalk"))
        .args(args)
        .output()
        .expect("xtalk binary runs")
}

#[test]
fn every_subcommand_prints_help_and_names_unknown_flags() {
    for (cmd, positionals) in SUBCOMMANDS {
        let help = xtalk(&[cmd, "--help"]);
        let stdout = String::from_utf8_lossy(&help.stdout);
        assert_eq!(help.status.code(), Some(0), "{cmd} --help: {help:?}");
        assert!(stdout.contains("USAGE:"), "{cmd} --help printed {stdout:?}");

        let mut args = vec![cmd];
        args.extend_from_slice(positionals);
        args.push("--no-such-flag");
        let bad = xtalk(&args);
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(bad.status.code(), Some(1), "{args:?}: {bad:?}");
        assert!(
            stderr.contains("unknown flag \"--no-such-flag\""),
            "{args:?} printed {stderr:?}"
        );
    }
}
