//! `whisper-report` — regenerate the paper's tables and figures. The
//! program is [`whisper::driver::run`]; `whisper-report --help` prints
//! the flags.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(whisper::driver::run(&args, &mut std::io::stdout()));
}
