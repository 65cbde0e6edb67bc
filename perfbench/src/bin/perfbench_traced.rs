//! The traced benchmark run: per-call spans, allocation counts and the
//! manager's phase timers. The counting allocator is installed here
//! only, so the untraced run's timings never pay for it.
//!
//! ```text
//! perfbench_traced --workload <office_week|wing_walk|adapt_fade> --seed <n> --seconds <s>
//! ```

#[global_allocator]
static ALLOC: arm_alloc_counter::CountingAlloc = arm_alloc_counter::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::cli::main(perfbench::Mode::Traced)
}
