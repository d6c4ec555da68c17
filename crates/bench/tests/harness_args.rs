//! The bench harness refuses flags it does not know, so a mistyped one
//! cannot silently run every benchmark at the full budget.

use criterion::Criterion;

fn parse(args: &[&str]) -> Result<Criterion, String> {
    Criterion::parse_args(args.iter().map(|s| s.to_string()))
}

#[test]
fn known_flags_parse() {
    for args in [
        &["--bench"][..],
        &["--bench", "--quick", "hotpath/rls"],
        &["--measurement-time", "0.5", "--save-json", "/tmp/h.json"],
        &["--sample-size", "10", "--warm-up-time", "1", "--color", "never", "--output-format", "bencher"],
    ] {
        assert!(parse(args).is_ok(), "{args:?} rejected");
    }
}

#[test]
fn unknown_flags_and_missing_operands_are_refused() {
    for args in [&["--test"][..], &["--quik"], &["--bench", "--nocapture"], &["--save-json"], &["--measurement-time", "x"]] {
        assert!(parse(args).is_err(), "{args:?} accepted");
    }
}
