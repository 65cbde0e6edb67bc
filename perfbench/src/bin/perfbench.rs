//! The untraced benchmark run: whole-event timings only.
//!
//! ```text
//! perfbench --workload <office_week|wing_walk|adapt_fade> --seed <n> --seconds <s>
//! ```

fn main() -> std::process::ExitCode {
    perfbench::cli::main(perfbench::Mode::Plain)
}
