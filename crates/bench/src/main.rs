//! `repro <experiment> [flags]`; see `platinum_bench`.

fn main() -> std::process::ExitCode {
    platinum_bench::repro(std::env::args().skip(1).collect())
}
