//! The `whisper-perf` executable; see the library's crate docs.

fn main() {
    // Taken first: `setup_s` is measured from here.
    let started = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(whisper_perf::cli::main(&args, started));
}
