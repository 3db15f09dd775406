//! Runs the built benchmark once in `--quick` mode (1 rep, sizes
//! unchanged) on its cheapest decomposition workload and checks the
//! result line the driver reads.

use std::process::Command;

#[test]
fn quick_run_is_correct_and_reports_every_end_to_end_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", "order4_compress", "--quick", "--seed", "3"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": true"), "{result}");
    for metric in [
        "setup_s",
        "journey_s",
        "peak_rss_mib",
        "query_rps",
        "query_p50_us",
    ] {
        assert!(
            result.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric} missing: {result}"
        );
    }
}

#[test]
fn unknown_workload_is_an_error_not_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", "nope"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
}
