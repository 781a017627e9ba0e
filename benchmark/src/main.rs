//! The repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! northup-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! northup-benchmark [suite] [--seed <n>] [--seconds <s>]
//! northup-benchmark compare <A.json> <B.json>
//! northup-benchmark describe
//! ```

mod alloc;
mod compare;
mod harness;
mod host;
mod json;
mod metrics;
mod probes;
mod stats;
mod suite;
mod timed_backend;
mod trace;
mod workloads;

#[global_allocator]
pub static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

use std::process::ExitCode;

/// What the command line asks for.
#[derive(Debug, PartialEq, Eq)]
enum Mode<'a> {
    /// One run of one workload, as the driver starts it.
    Run(&'a [String]),
    Suite(&'a [String]),
    Compare(&'a [String]),
    Describe,
}

/// A named mode first, else one run when `--workload` is given, else the
/// whole suite: `run.sh --seed 5` is the one command with another seed.
fn route(args: &[String]) -> Mode<'_> {
    match args.first().map(String::as_str) {
        Some("suite") => Mode::Suite(&args[1..]),
        Some("compare") => Mode::Compare(&args[1..]),
        Some("describe") => Mode::Describe,
        _ if args.iter().any(|a| a == "--workload") => Mode::Run(args),
        _ => Mode::Suite(args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match route(&args) {
        Mode::Run(args) => harness::main(args),
        Mode::Suite(args) => suite::main(args),
        Mode::Compare(args) => compare::main(args),
        Mode::Describe => {
            println!("{}", harness::describe());
            Ok(true)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(usage) => {
            eprintln!("northup-benchmark: {usage}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_seed_alone_runs_the_suite() {
        for (line, rest) in [
            ("", ""),
            ("--seed 5", "--seed 5"),
            ("suite --seed 5", "--seed 5"),
        ] {
            assert_eq!(route(&args(line)), Mode::Suite(&args(rest)[..]), "{line:?}");
        }
        let run = args("--seed 5 --workload gemm_ooc");
        assert_eq!(route(&run), Mode::Run(&run[..]));
        assert_eq!(route(&args("describe")), Mode::Describe);
        assert_eq!(
            route(&args("compare a.json b.json")),
            Mode::Compare(&args("a.json b.json")[..])
        );
    }
}
